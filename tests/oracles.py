"""Closed forms and reference routines the tests hold the package to.

None of these is part of the package: each is a second route to a number
that `SolutionTable` already computes (the rectangular amplitudes, phase
slope and dwell, the double-barrier coefficients) or a quadrature rule that
only the tests' spatial integrals use, kept here as an independent check.
The 60-digit transfer product (mp_sweep, mp_pole) needs mpmath, which each
of its callers imports first with pytest.importorskip.
"""

import cmath
import math

import numpy as np

from tuntime.core import UNITS, ContractViolation, Grid1D
from tuntime.double_barrier import DoubleBarrierSolution, on_resonance, resonance_denominator
from tuntime.potential import double_rectangular
from tuntime.scattering import solve

# the bounds a solve is held to: |A_T|^2 + |A_R|^2 - 1, and the amplitudes'
# distance from the closed-form rectangular and double barriers
UNITARITY_TOL = 1e-10
ORACLE_TOL = 1e-12


def composite_gauss(lo: float, hi: float, panels: int, order: int = 12) -> Grid1D:
    """Panel-wise Gauss-Legendre; robust for oscillatory integrands."""
    if not hi > lo:
        raise ContractViolation("need hi > lo")
    rule = Grid1D.gauss_legendre(-1.0, 1.0, order)
    x, w = rule.points, rule.weights
    edges = np.linspace(lo, hi, int(panels) + 1)
    mids = 0.5 * (edges[1:] + edges[:-1])
    halfs = 0.5 * np.diff(edges)
    return Grid1D((mids[:, None] + halfs[:, None] * x).ravel(), (halfs[:, None] * w).ravel())


def rect_amplitude(V0: float, a: float, E: float):
    """Closed-form sub-barrier amplitudes (A_T, A_R) of a rectangular barrier.

    A_T = 4 i k kappa [(k^2 - kappa^2) D_- + 2 i k kappa D_+]^{-1} e^{-(kappa + ik) a}
    with D_+- = 1 +- e^{-2 kappa a}; the reflection follows from the same
    matching, A_R = -(i/2)(k/kappa + kappa/k) sinh(kappa a) A_T e^{ika}, taken
    with the e^{-kappa a} of A_T folded into sinh(kappa a) e^{-kappa a} = D_-/2
    so that no opacity overflows (A_T itself underflows to 0 past kappa a ~ 745).
    """
    if not (0 < E < V0):
        raise ContractViolation("rect_amplitude needs 0 < E < V0; use solve above barrier")
    if not a > 0:
        raise ContractViolation("need a > 0")
    k = float(UNITS.wavenumber(E))
    kap = float(UNITS.decay_constant(V0, E))
    Dm = -math.expm1(-2.0 * kap * a)
    Dp = 2.0 - Dm
    unscaled = 4j * k * kap / ((k**2 - kap**2) * Dm + 2j * k * kap * Dp)
    A_T = unscaled * cmath.exp(-(kap + 1j * k) * a)
    A_R = -0.25j * (k / kap + kap / k) * Dm * unscaled
    return A_T, A_R


def rect_phase_slope(k: float, kappa: float, a: float) -> float:
    """d(arg A_T + ka)/dk of a rectangular barrier of width a below its top
    (Hartman's closed form), with k0^2 = k^2 + kappa^2:

        [2 kappa a k^2 (kappa^2 - k^2)/sinh^2(kappa a) + 2 k0^4 coth(kappa a)]
        / [kappa (4 k^2 kappa^2/sinh^2(kappa a) + k0^4)]

    1/sinh^2 and coth are formed from e^{-2 kappa a}, so no opacity
    overflows.  Divided by the velocity it is the phase time
    hbar d(arg A_T + ka)/dE; divided by c, the photon phase time of a guide
    mapped onto the barrier.
    """
    x = kappa * a
    em = -math.expm1(-2.0 * x)  # 1 - e^{-2 kappa a}, accurate for small kappa a
    inv_sinh2 = 4.0 * math.exp(-2.0 * x) / em**2
    coth = (2.0 - em) / em
    k2, kap2 = k * k, kappa * kappa
    k04 = (k2 + kap2) ** 2
    num = 2.0 * x * k2 * (kap2 - k2) * inv_sinh2 + 2.0 * k04 * coth
    return num / (kappa * (4.0 * k2 * kap2 * inv_sinh2 + k04))


def rect_dwell_closed(V0: float, a: float, E: float) -> float:
    """Closed-form barrier-interval dwell time for a rectangular barrier.

    psi = alpha e^{-kappa x} + beta e^{kappa x} in the barrier, with alpha from
    the incident side and beta e^{kappa a} = A_T e^{ika} (1 + ik/kappa)/2 from
    the transmitted side, where neither cancels; the density then integrates
    with no growing exponential.  An algebra-only route, independent of
    SolutionTable, for any opacity.
    """
    A_T, A_R = rect_amplitude(V0, a, E)
    k = float(UNITS.wavenumber(E))
    kap = float(UNITS.decay_constant(V0, E))
    v = float(UNITS.velocity(k))
    alpha = 0.5 * ((1 + A_R) - 1j * k * (1 - A_R) / kap)
    beta_end = 0.5 * A_T * cmath.exp(1j * k * a) * (1 + 1j * k / kap)
    ep = -math.expm1(-2 * kap * a)  # 1 - e^{-2 kappa a}, accurate for small kap*a
    integral = (
        (abs(alpha) ** 2 + abs(beta_end) ** 2) * ep / (2 * kap)
        + 2 * (alpha * beta_end.conjugate()).real * math.exp(-kap * a) * a
    )
    return integral / v


def opaque_dwell_limits(V0: float, E: float) -> dict:
    """Both printed opaque-barrier dwell limits, side by side.

    `with_interference`  = hbar k / (kappa V0), the limit that keeps the
    incident/reflected interference term in the entry flux; the full
    stationary dwell approaches this one.  `separated` = 2/(kappa v), the
    limit with that term dropped (well-separated packets).
    """
    if not 0 < E < V0:
        raise ContractViolation("need 0 < E < V0")
    k = float(UNITS.wavenumber(E))
    kap = float(UNITS.decay_constant(V0, E))
    v = float(UNITS.velocity(k))
    return {
        "with_interference": UNITS.hbar * k / (kap * V0),
        "separated": 2.0 / (kap * v),
    }


def cavity_factor(V0: float, a: float, L: float, E: float) -> float:
    """The real factor A = 2 chi k / resonance_denominator."""
    k, chi = float(UNITS.wavenumber(E)), float(UNITS.decay_constant(V0, E))
    return 2 * chi * k / resonance_denominator(V0, a, L, E)


def solve_exact(V0: float, a: float, L: float, E: float) -> DoubleBarrierSolution:
    """Exact coefficients of the barriers (0, a) and (L, L + a) for unit
    incidence, read from the table's (psi, psi') at the regions' right ends.

    Each ratio to region III's amplitude A_T is formed from one joint's
    values with their log scale left out, so a field is 0 only where its own
    value lies below the double range.
    """
    if not (0 < E < V0):
        raise ContractViolation("double-barrier analysis needs 0 < E < V0")
    if not (a > 0 and L >= a):
        raise ContractViolation("need a > 0 and L >= a")
    k, chi = float(UNITS.wavenumber(E)), float(UNITS.decay_constant(V0, E))
    table = solve(double_rectangular(V0, a, L), E)
    psi, dpsi, s = (column[:, 0] for column in table._at_ends)

    def split(j, q):
        """The e^{iqx} and e^{-iqx} parts of psi at region j's right end,
        without its log scale (q = i chi in a barrier)."""
        return 0.5 * (psi[j] + dpsi[j] / (1j * q)), 0.5 * (psi[j] - dpsi[j] / (1j * q))

    def barrier(j, shift=0.0):
        """(alpha, beta) of the barrier that is region j at its left edge,
        times e^{shift}, each read at the edge where it is the larger part:
        alpha at the left, beta (the part that grows to the right) at the
        right."""
        return (split(j - 1, 1j * chi)[0] * np.exp(s[j - 1] + shift),
                split(j, 1j * chi)[1] * np.exp(s[j] - chi * a + shift))

    alpha, beta = barrier(1)
    if L > a:  # regions I, barrier, cavity III, barrier', V; the cavity's parts at x = L
        fwd, bwd = split(2, k)
        ikL = 1j * k * L
        A_T = fwd * np.exp(s[2] - ikL)
        Ap_R = bwd / fwd * np.exp(2 * ikL)
        alphap, betap = (c / fwd for c in barrier(3, ikL - s[2]))
        Ap_T = np.exp(table.log_abs_A_T[0] - s[2] + 1j * table.arg_A_T[0] + ikL) / fwd
        # invert A_T = e^{-chi a} e^{-ikL} A; real off resonance, opaque
        A_fac = fwd * np.exp(s[2] + chi * a)
    else:  # no cavity: the full first-barrier transmission is attributed at x = a
        A_T, Ap_R, Ap_T = table.A_T[0], 0j, 1 + 0j
        alphap, betap = barrier(2)
        A_fac = cavity_factor(V0, a, L, E)

    flags = ("on_resonance",) if on_resonance(V0, a, L, E) else ()
    return DoubleBarrierSolution(
        E=E, k=k, chi=chi, a=a, L=L,
        A_R=complex(table.A_R[0]), A_T=complex(A_T), Ap_R=complex(Ap_R),
        Ap_T=complex(Ap_T), alpha=complex(alpha), beta=complex(beta),
        alphap=complex(alphap), betap=complex(betap),
        A_real_factor=complex(A_fac), delta=cmath.phase((1j * k + chi) / (1j * k - chi)),
        flags=flags,
    )


def _mp_product(pot, E):
    """(k, D, (psi, psi') at x_1, region data, carry) of the transmitted wave
    e^{ik(x - xm)} at the working precision, carried leftwards by the
    textbook region matrix [[cos qy, y sinc qy], [-q^2 y sinc qy, cos qy]],
    which mpmath takes at q = 0, at any opacity and at complex E, with k
    the principal root.  The region data are (lo, hi, height, (psi, psi')
    at hi), right to left; D = psi + psi'/(ik) at x_1 is the transmission
    denominator, A_T = 2 e^{ik(x1 - xm)} / D."""
    import mpmath

    c, E = mpmath.mpf(UNITS.hbar2_over_2m), mpmath.mpmathify(E)
    k = mpmath.sqrt(E / c)

    def carry(V, y, v):
        q = mpmath.sqrt((E - mpmath.mpf(V)) / c)
        C, S = mpmath.cos(q * y), y * mpmath.sinc(q * y)
        return C * v[0] + S * v[1], -q * q * S * v[0] + C * v[1]

    v, ends = (mpmath.mpf(1), 1j * k), []
    for lo, hi, V in reversed(pot.interior_regions()):
        ends.append((mpmath.mpf(lo), mpmath.mpf(hi), V, v))
        v = carry(V, mpmath.mpf(lo) - mpmath.mpf(hi), v)
    return k, v[0] + v[1] / (1j * k), v, ends, carry


def mp_sweep(pot, E, xs=()):
    """(log|A_T|, arg A_T, A_R, psi at each of xs, psi) at 60 digits; psi at
    x is carried from the right edge of its region.  E may be complex."""
    import mpmath

    with mpmath.workdps(60):
        k, D, v, ends, carry = _mp_product(pot, E)
        x1, xm = mpmath.mpf(pot.x_left), mpmath.mpf(pot.x_right)
        A_T = 2 * mpmath.exp(1j * k * (x1 - xm)) / D
        A_R = (v[0] - v[1] / (1j * k)) / D * mpmath.exp(2j * k * x1)

        def psi(x):
            x = mpmath.mpf(x)
            if x < x1:
                return mpmath.exp(1j * k * x) + A_R * mpmath.exp(-1j * k * x)
            for lo, hi, V, w in ends:
                if lo <= x < hi:
                    return A_T * mpmath.exp(1j * k * xm) * carry(V, x - hi, w)[0]
            return A_T * mpmath.exp(1j * k * x)

        return (float(mpmath.log(abs(A_T))), float(mpmath.arg(A_T)), complex(A_R),
                [complex(psi(float(x))) for x in xs], psi)


def mp_denominator(pot, E) -> tuple:
    """(ln|D|, arg D) of the transmission denominator at complex E, at 60
    digits (D itself passes the double range at kappa d past ~710)."""
    import mpmath

    with mpmath.workdps(60):
        D = _mp_product(pot, E)[1]
        return float(mpmath.log(abs(D))), float(mpmath.arg(D))


def mp_pole(pot, E0) -> complex:
    """The zero of D nearest the complex guess E0, at 60 digits: a pole of
    A_T and of the S-matrix, E_r - i Gamma."""
    import mpmath

    with mpmath.workdps(60):
        return complex(mpmath.findroot(lambda E: _mp_product(pot, E)[1], mpmath.mpc(E0),
                                       tol=mpmath.mpf(10) ** -50))
