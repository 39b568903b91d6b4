"""Stationary scattering for piecewise-constant potentials.

Transfer matrices are accumulated in the (forward, backward) amplitude basis
with exponentials referenced to each region's left edge, so that an opaque
barrier never materialises e^{+kappa a} against an O(1) coefficient.  The
running product is rescaled whenever its entries grow large and the pulled-out
magnitude is tracked as a log, which keeps |A_T| available in log form for
arbitrarily opaque barriers (kappa a far beyond the e^{-745} underflow line).

Region coefficients for wavefunction reconstruction are recovered by backward
substitution from the transmitted side, which is the well-conditioned
direction: extracting the decaying and growing components at a segment's right
edge involves no cancellation.  Continuity at interior joints then holds by
construction and the residual at the leftmost joint measures the global
accuracy of the solve.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .core import UNITS, BranchResolutionError, ContractViolation, UnitSystem
from .potential import PiecewisePotential

DEGENERACY_REL_SHIFT = 1e-9  # relative; applied when E collides with a segment height
_RESCALE_LIMIT = 1e150


def _wavenumbers(E, heights, units: UnitSystem):
    """Complex q per region: real > 0 above a level, i*kappa below it."""
    diff = (np.asarray(E)[:, None] - np.asarray(heights)[None, :]) / units.hbar2_over_2m
    q = np.where(diff >= 0, np.sqrt(np.abs(diff)), 1j * np.sqrt(np.abs(diff)))
    return q


@dataclass(frozen=True)
class ScatteringSolution:
    """One energy's stationary solution for unit incidence from the left.

    psi(x) in region j is  fwd_j e^{i q_j (x - ref_j)} + bwd_j e^{-i q_j (x - ref_j)};
    in a sub-barrier region q = i kappa makes these the evanescent (decaying)
    and anti-evanescent (growing) components.
    """

    pot: PiecewisePotential
    E: float
    k: float
    A_T: complex
    A_R: complex
    log_abs_A_T: float
    bounds: tuple          # region boundaries, length n_regions + 1 (outer = +-inf)
    q: tuple               # complex wavenumber per region
    fwd: tuple             # forward / evanescent coefficient per region
    bwd: tuple             # backward / anti-evanescent coefficient per region
    refs: tuple            # phase reference (left edge) per region
    flags: tuple = ()

    def psi_array(self, xs) -> np.ndarray:
        """Vectorised psi over an array of positions."""
        xs = np.asarray(xs, dtype=float)
        out = np.empty(xs.shape, dtype=complex)
        idx = np.searchsorted(np.asarray(self.bounds[1:-1]), xs, side="right")
        for j in np.unique(idx):
            sel = idx == j
            ea = np.exp(1j * self.q[j] * (xs[sel] - self.refs[j]))
            out[sel] = self.fwd[j] * ea + self.bwd[j] / ea
        return out

    def boundary_residual(self) -> float:
        """Mismatch of the reconstructed incident/reflected pair at the first joint.

        Zero region count means free space (residual 0).  Interior joints are
        continuous by construction; this is the one genuine consistency check.
        """
        if len(self.q) == 1:
            return 0.0
        x1 = self.bounds[1]
        a0 = cmath.exp(1j * self.k * x1)
        b0 = self.A_R * cmath.exp(-1j * self.k * x1)
        return abs(self.fwd[0] - a0) + abs(self.bwd[0] - b0)


class SolutionTable:
    """Vectorised stationary solutions on an array of energies.

    Used wherever many energies are needed at once (spectral packets, energy
    scans, the stacked energies of a central difference); row(i)
    materialises a ScatteringSolution for one energy.  The transmission is
    held as log_abs_A_T and arg_A_T, from which A_T is derived.
    """

    def __init__(self, pot: PiecewisePotential, Es, units: UnitSystem = UNITS):
        Es = np.atleast_1d(np.asarray(Es, dtype=float))
        if np.any(Es <= 0):
            raise ContractViolation("scattering energies must be positive")
        self.pot = pot
        self.units = units

        regions = pot.interior_regions()
        heights = np.array([0.0] + [v for (_, _, v) in regions] + [0.0])
        self.shifted = np.zeros(len(Es), dtype=bool)
        for v in {v for (_, _, v) in regions}:
            if v == 0.0:
                continue
            # kappa = 0 degeneracy: sidestep by a relative nudge (the natural
            # energy scale varies over ~16 decades once waveguide-mapped
            # barriers are in play, so an absolute threshold cannot work)
            close = np.abs(Es - v) < DEGENERACY_REL_SHIFT * v
            if np.any(close):
                Es = np.where(close, v * (1.0 + DEGENERACY_REL_SHIFT), Es)
                self.shifted |= close
        self.E = Es
        self.k = units.wavenumber(Es)

        if not regions:
            n = len(Es)
            self.bounds = np.array([-np.inf, np.inf])
            self.refs = np.array([0.0])
            self.q = self.k.astype(complex)[:, None]
            self.fwd = np.ones((n, 1), dtype=complex)
            self.bwd = np.zeros((n, 1), dtype=complex)
            self.A_T = np.ones(n, dtype=complex)
            self.A_R = np.zeros(n, dtype=complex)
            self.log_abs_A_T = np.zeros(n)
            self.arg_A_T = np.zeros(n)
            return

        x1 = regions[0][0]
        xm = regions[-1][1]
        self.bounds = np.array([-np.inf] + [r[0] for r in regions] + [xm, np.inf])
        self.refs = np.array([x1] + [r[0] for r in regions] + [xm])
        widths = np.array([0.0] + [hi - lo for (lo, hi, _) in regions])
        q = _wavenumbers(Es, heights, units)  # (nE, n_regions)
        self.q = q
        n = len(Es)

        # forward accumulation of the global transfer matrix, log-rescaled;
        # propagation across a region is chunked so e^{+kappa d} never
        # overflows inside a single step even for kappa d >> 700
        T = np.zeros((n, 2, 2), dtype=complex)
        T[:, 0, 0] = T[:, 1, 1] = 1.0
        logscale = np.zeros(n)

        def rescale(T, logscale):
            mags = np.max(np.abs(T), axis=(1, 2))
            big = mags > _RESCALE_LIMIT
            if np.any(big):
                T[big] /= mags[big, None, None]
                logscale[big] += np.log(mags[big])

        for j in range(len(widths)):
            d = widths[j]
            if d > 0:
                grow = float(np.max(np.abs(np.imag(q[:, j])))) * d
                chunks = max(1, int(grow / 300.0) + 1)
                ph = np.exp(1j * q[:, j] * (d / chunks))
                for _ in range(chunks):
                    T[:, 0, :] *= ph[:, None]
                    T[:, 1, :] /= ph[:, None]
                    rescale(T, logscale)
            r = q[:, j] / q[:, j + 1]
            M = np.empty((n, 2, 2), dtype=complex)
            M[:, 0, 0] = M[:, 1, 1] = 0.5 * (1 + r)
            M[:, 0, 1] = M[:, 1, 0] = 0.5 * (1 - r)
            T = M @ T
            rescale(T, logscale)

        # det(T_true) = q_left/q_right = 1 (free on both sides), so
        # A_T = e^{ik(x1-xm)} / T11_true with T11_true = T11 e^{logscale}.
        # Modulus and phase are kept apart so that derivatives of either
        # can avoid the (possibly underflowed) complex amplitude.
        k = self.k
        b0_over_a0 = -T[:, 1, 0] / T[:, 1, 1]
        self.A_R = b0_over_a0 * np.exp(2j * k * x1)
        self.log_abs_A_T = -logscale - np.log(np.abs(T[:, 1, 1]))
        self.arg_A_T = -np.angle(T[:, 1, 1]) + k * (x1 - xm)
        self.A_T = np.exp(self.log_abs_A_T) * np.exp(1j * self.arg_A_T)

        # backward substitution for region coefficients
        nreg = len(heights)
        fwd = np.empty((n, nreg), dtype=complex)
        bwd = np.empty((n, nreg), dtype=complex)
        fwd[:, -1] = self.A_T * np.exp(1j * k * xm)
        bwd[:, -1] = 0.0
        for j in range(nreg - 2, -1, -1):
            qn = q[:, j + 1]
            psi = fwd[:, j + 1] + bwd[:, j + 1]
            dpsi = 1j * qn * (fwd[:, j + 1] - bwd[:, j + 1])
            # clip the evanescent growth so reconstruction stays finite even
            # past kappa*width ~ 700; coefficients there saturate, the
            # amplitudes themselves remain exact through the log form
            ex = 1j * q[:, j] * widths[j]
            u = np.exp(np.real(ex).clip(-700, 700) + 1j * np.imag(ex))
            u = np.where(np.abs(u) < 1e-300, 1e-300, u)
            half = 0.5 * dpsi / (1j * q[:, j])
            fwd[:, j] = (0.5 * psi + half) / u
            bwd[:, j] = (0.5 * psi - half) * u
        self.fwd = fwd
        self.bwd = bwd

    def __len__(self) -> int:
        return len(self.E)

    def psi_dpsi(self, x: float):
        """Arrays over energy of psi(x) and psi'(x)."""
        j = int(np.searchsorted(self.bounds[1:-1], x, side="right"))
        ea = np.exp(1j * self.q[:, j] * (x - self.refs[j]))
        ps = self.fwd[:, j] * ea + self.bwd[:, j] / ea
        dps = 1j * self.q[:, j] * (self.fwd[:, j] * ea - self.bwd[:, j] / ea)
        return ps, dps

    def row(self, i: int) -> ScatteringSolution:
        flags = ("energy_shifted",) if self.shifted[i] else ()
        return ScatteringSolution(
            pot=self.pot,
            E=float(self.E[i]),
            k=float(self.k[i]),
            A_T=complex(self.A_T[i]),
            A_R=complex(self.A_R[i]),
            log_abs_A_T=float(self.log_abs_A_T[i]),
            bounds=tuple(self.bounds),
            q=tuple(self.q[i]),
            fwd=tuple(self.fwd[i]),
            bwd=tuple(self.bwd[i]),
            refs=tuple(self.refs),
            flags=flags,
        )


def solve(pot: PiecewisePotential, E: float, units: UnitSystem = UNITS) -> ScatteringSolution:
    """Stationary solution at energy E for unit incidence e^{ikx} from the left."""
    return SolutionTable(pot, [E], units).row(0)


def rect_amplitude(V0: float, a: float, E: float, units: UnitSystem = UNITS):
    """Closed-form sub-barrier amplitudes (A_T, A_R) of a rectangular barrier.

    A_T = 4 i k kappa [(k^2 - kappa^2) D_- + 2 i k kappa D_+]^{-1} e^{-(kappa + ik) a}
    with D_+- = 1 +- e^{-2 kappa a}; the reflection follows from the same
    matching, A_R = -(i/2)(k/kappa + kappa/k) sinh(kappa a) A_T e^{ika}.
    """
    if not (0 < E < V0):
        raise ContractViolation("rect_amplitude needs 0 < E < V0; use solve above barrier")
    if not a > 0:
        raise ContractViolation("need a > 0")
    k = float(units.wavenumber(E))
    kap = float(units.decay_constant(V0, E))
    em = math.exp(-2.0 * kap * a)
    Dm, Dp = 1.0 - em, 1.0 + em
    A_T = (
        4j * k * kap
        / ((k**2 - kap**2) * Dm + 2j * k * kap * Dp)
        * cmath.exp(-(kap + 1j * k) * a)
    )
    A_R = -0.5j * (k / kap + kap / k) * math.sinh(kap * a) * A_T * cmath.exp(1j * k * a)
    return A_T, A_R


@dataclass(frozen=True)
class TwoPhase:
    """Two-phase parametrisation of a sub-barrier rectangular amplitude pair.

        A_T = i sin(phi1) e^{i(phi2 - ka)}
        A_R = cos(phi1) e^{i(phi2 - ka)} e^{+ika}

    The reflection in the underlying pair is the barrier-centred one (the
    (0, a) left-referenced A_R carries an extra e^{+ika}); with the raw
    left-referenced A_R no real (phi1, phi2) exists at all, so reconstruction
    restores that phase factor before comparing.  sin^2 + cos^2 = 1 encodes
    unitarity identically.
    """

    phi1: float
    phi2: float
    k: float
    a: float

    def reconstruct(self):
        """(A_T, A_R) in the left-referenced (0, a) convention."""
        env = cmath.exp(1j * (self.phi2 - self.k * self.a))
        A_T = 1j * math.sin(self.phi1) * env
        A_R = math.cos(self.phi1) * env * cmath.exp(1j * self.k * self.a)
        return A_T, A_R


def two_phase(sol: ScatteringSolution, a: float, tol: float = 1e-6) -> TwoPhase:
    """Extract (phi1, phi2) from a single-rectangular-barrier solution.

    Branch choice: phi1 in (0, pi/2] for sub-barrier energies; the common
    phase comes from e^{2 i theta} = A_R,centred^2 - A_T^2 with the residual
    of the roundtrip reconstruction as the acceptance test.
    """
    if len(sol.pot.segments) != 1:
        raise ContractViolation("two_phase is defined for a single rectangular barrier")
    if not (0 < sol.E < sol.pot.max_height):
        raise ContractViolation("two_phase needs a sub-barrier energy")
    k = sol.k
    A_T, A_R = sol.A_T, sol.A_R
    ARc = A_R * cmath.exp(-1j * k * a)
    theta = 0.5 * cmath.phase(ARc**2 - A_T**2)
    s1 = (-1j * A_T * cmath.exp(-1j * theta)).real
    c1 = (ARc * cmath.exp(-1j * theta)).real
    if s1 < 0:  # gauge (phi1, theta) -> (phi1 + pi, theta + pi)
        s1, c1 = -s1, -c1
        theta = theta + math.pi if theta <= 0 else theta - math.pi
    phi1 = math.atan2(s1, c1)
    tp = TwoPhase(phi1=phi1, phi2=theta + k * a, k=k, a=a)
    rT, rR = tp.reconstruct()
    resid = abs(rT - A_T) + abs(rR - A_R)
    if resid > tol:
        raise BranchResolutionError(f"two-phase reconstruction residual {resid:.3e}")
    return tp


def s_matrix(sol: ScatteringSolution):
    """Two-channel collision matrix with S00 = S11 = A_T, S01 = S10 = A_R.

    The reflection entry uses the symmetric phase reference (A_R recentred by
    e^{-ik(x_left + x_right)}), the convention in which S is unitary for a
    spatially symmetric potential.  For an asymmetric potential the matrix is
    still built from left-incidence data but flagged, since S01 = S10 is then
    an assumption rather than a theorem.
    """
    pot = sol.pot
    shift = cmath.exp(-1j * sol.k * (pot.x_left + pot.x_right))
    A_R = sol.A_R * shift
    S = np.array([[sol.A_T, A_R], [A_R, sol.A_T]], dtype=complex)
    asymmetric = not pot.is_symmetric()
    return (S, ("asymmetric",)) if asymmetric else (S, ())
