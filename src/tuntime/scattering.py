"""Stationary scattering for piecewise-constant potentials.

Transfer matrices are accumulated in the (forward, backward) amplitude basis
with exponentials referenced to each region's left edge, so that an opaque
barrier never materialises e^{+kappa a} against an O(1) coefficient.  The
running product is rescaled whenever its entries grow large and the pulled-out
magnitude is tracked as a log, which keeps |A_T| available in log form for
arbitrarily opaque barriers (kappa a far beyond the e^{-745} underflow line).

Each pass forms its per-region factors (chunk phases, interface matrices,
e^{iqd} and q ratios) for every region and energy before its loop over the
regions, so the loop is a few array operations per region.  A table runs the
forward pass when it is built and the backward pass on the first read of a
region coefficient, so a caller that needs only the transmission (a phase,
BL or resonance search) never runs it.

Region coefficients are recovered by backward substitution from the
transmitted side, the well-conditioned direction: extracting the decaying and
growing components at a segment's right edge involves no cancellation.  Region
j holds psi = e^{s_j} (f_j e^{i q_j (x - l_j)} + b_j e^{-i q_j (x - r_j)}),
each component referenced to the edge (left l_j, right r_j) where it is
largest.  The pair (f_j, b_j) has unit size and the growth (e^{kappa d},
|A_T|) is the log scale s_j, so no opacity overflows; a component underflows
only where it is negligible beside the other.  Continuity at interior joints
holds by construction and the residual at the leftmost joint measures the
global accuracy of the solve.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import UNITS, BranchResolutionError, ContractViolation, UnitSystem
from .potential import PiecewisePotential

DEGENERACY_REL_SHIFT = 1e-9  # relative; applied when E collides with a segment height
UNITARITY_TOL = 1e-10        # |A_T|^2 + |A_R|^2 - 1 a solve is held to
ORACLE_TOL = 1e-12           # amplitude distance from the closed-form rectangular barrier
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
    held as log_abs_A_T and arg_A_T, from which A_T is derived; region j as
    the pair f, b and its log_scale, referenced to refs (left edges) and ends
    (right edges; equal to refs in the outer regions).

    A build runs the forward pass only.  f, b and log_scale come from the
    backward substitution, run once, on their first read (psi_dpsi, psi,
    density_integral, row), so a caller that reads only the
    transmission never pays for it.
    """

    def __init__(self, pot: PiecewisePotential, Es, units: UnitSystem = UNITS):
        Es = np.atleast_1d(np.asarray(Es, dtype=float))
        if (Es <= 0).any():
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
            if close.any():
                Es = np.where(close, v * (1.0 + DEGENERACY_REL_SHIFT), Es)
                self.shifted |= close
        self.E = Es
        self.k = units.wavenumber(Es)
        n = len(Es)

        if not regions:
            self.bounds = np.array([-np.inf, np.inf])
            self.refs = self.ends = np.array([0.0])
            self.q = self.k.astype(complex)[:, None]
            self.A_T = np.ones(n, dtype=complex)
            self.A_R = np.zeros(n, dtype=complex)
            self.log_abs_A_T = np.zeros(n)
            self.arg_A_T = np.zeros(n)
            return

        x1 = regions[0][0]
        xm = regions[-1][1]
        self.bounds = np.array([-np.inf] + [r[0] for r in regions] + [xm, np.inf])
        self.refs = np.array([x1] + [r[0] for r in regions] + [xm])
        self.ends = np.array([x1] + [r[1] for r in regions] + [xm])
        widths = self.ends - self.refs
        self.q = _wavenumbers(Es, heights, units)  # (nE, n_regions)
        q = np.ascontiguousarray(self.q.T)  # region-major from here on
        nreg = len(heights)

        # forward accumulation of the global transfer matrix, log-rescaled; a
        # region is crossed in chunks of kappa d < 300 per energy, so no step
        # overflows and no row depends on the other energies of its table
        chunks = 1 + (q.imag * (widths[:, None] / 300.0)).astype(int)
        phases = np.exp(1j * q * (widths[:, None] / chunks))
        r = q[:-1] / q[1:]
        M = np.empty((nreg - 1, n, 2, 2), dtype=complex)
        M[..., 0, 0] = M[..., 1, 1] = 0.5 * (1 + r)
        M[..., 0, 1] = M[..., 1, 0] = 0.5 * (1 - r)
        T = np.zeros((n, 2, 2), dtype=complex)
        T[:, 0, 0] = T[:, 1, 1] = 1.0
        logscale = np.zeros(n)

        def rescale(T, logscale):
            mags = np.abs(T).max(axis=(1, 2))
            if mags.max() > _RESCALE_LIMIT:
                big = mags > _RESCALE_LIMIT
                T[big] /= mags[big, None, None]
                logscale[big] += np.log(mags[big])

        for j in range(nreg - 1):
            if widths[j] > 0:
                ph = phases[j]
                for step in range(chunks[j].max()):  # every energy has a first chunk
                    p = np.where(step < chunks[j], ph, 1.0) if step else ph
                    T[:, 0, :] *= p[:, None]
                    T[:, 1, :] /= p[:, None]
                    rescale(T, logscale)
            T = M[j] @ T
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

    @functools.cached_property
    def _regions(self):
        """(f, b, log_scale), region-major, by backward substitution from the
        transmitted wave A_T e^{ik(x - xm)}; run once, on first use."""
        q = np.ascontiguousarray(self.q.T)
        widths = (self.ends - self.refs)[:, None]
        nreg, n = q.shape
        # per-region factors of every region, formed before the loop
        ahead = np.exp(1j * q * widths)  # e^{i q d}
        ratio = q[1:] / q[:-1]           # q_{j+1} / q_j
        grow = q.imag * widths
        shrink = np.exp(-grow)
        turn = -1j * q * widths
        log_scale = np.empty((nreg, n))
        f = np.empty((nreg, n), dtype=complex)
        b = np.empty((nreg, n), dtype=complex)
        log_scale[-1] = self.log_abs_A_T
        f[-1] = np.exp(1j * (self.arg_A_T + self.k * self.ends[-1]))
        b[-1] = 0.0
        for j in range(nreg - 2, -1, -1):
            # psi and psi'/(i q_j) at the joint, in units of e^{log_scale[j+1]}
            back = b[j + 1] * ahead[j + 1]
            psi = f[j + 1] + back
            dpsi = ratio[j] * (f[j + 1] - back)
            fwd_right, bwd_right = 0.5 * (psi + dpsi), 0.5 * (psi - dpsi)
            # f_j = fwd_right e^{-i q_j d}, which grows by e^{kappa d}; the
            # larger of |f_j| and |b_j| becomes 1 and its log joins the scale
            s = grow[j] + np.log(np.maximum(np.abs(fwd_right), np.abs(bwd_right) * shrink[j]))
            f[j] = fwd_right * np.exp(turn[j] - s)
            b[j] = bwd_right * np.exp(-s)
            log_scale[j] = log_scale[j + 1] + s
        return f, b, log_scale

    f = property(lambda self: self._regions[0].T)
    b = property(lambda self: self._regions[1].T)
    log_scale = property(lambda self: self._regions[2].T)

    def __len__(self) -> int:
        return len(self.E)

    def _region(self, x):
        """Index of the region holding x (a joint belongs to the region on its right)."""
        return np.searchsorted(self.bounds[1:-1], x, side="right")

    def _waves(self, j: int, x):
        """Region j's forward and backward waves at x (a scalar, or a column of
        positions for one row each) and i q_j."""
        iq, s = 1j * self.q[:, j], self.log_scale[:, j]
        ef = self.f[:, j] * np.exp(s + iq * (x - self.refs[j]))
        eb = self.b[:, j] * np.exp(s - iq * (x - self.ends[j]))
        return ef, eb, iq

    def psi_dpsi(self, x: float):
        """Arrays over energy of psi(x) and psi'(x)."""
        ef, eb, iq = self._waves(int(self._region(x)), x)
        return ef + eb, iq * (ef - eb)

    def psi(self, xs) -> np.ndarray:
        """psi at every x of xs, without psi', shape (len(xs), n_E).

        The positions of each region are evaluated together and written into
        the one result; each row equals psi_dpsi(x)[0].
        """
        xs = np.asarray(xs, dtype=float)
        out = np.empty((xs.size, len(self.E)), dtype=complex)
        regions = self._region(xs)
        for j in range(len(self.bounds) - 1):
            at = regions == j
            if at.any():
                ef, eb, _ = self._waves(j, xs[at, None])
                out[at] = np.add(ef, eb, out=ef)
        return out

    def density_integral(self, x_i: float, x_f: float) -> np.ndarray:
        """Integral of |psi|^2 over (x_i, x_f), an array over energy.

        Each region's share has a closed form in the scaled pair, where no
        exponential exceeds 1, so it is exact to rounding at any opacity.  q
        is real or i kappa, so with kappa = Im q and k = Re q one of the two
        vanishes and one formula covers both.
        """
        total = np.zeros(len(self.E))
        for j in range(self.q.shape[1]):
            lo, hi = max(x_i, self.bounds[j]), min(x_f, self.bounds[j + 1])
            if not hi > lo:
                continue
            w = hi - lo
            kap, kre = self.q[:, j].imag, self.q[:, j].real
            c = 2.0 * kap * w  # decay = integral of e^{-2 kappa t} over (0, w)
            decay = w * np.where(c > 0, -np.expm1(-c) / np.where(c > 0, c, 1.0), 1.0)
            ref, end = self.refs[j], self.ends[j]
            f, b = self.f[:, j], self.b[:, j]
            squares = (np.abs(f) ** 2 * np.exp(-2.0 * kap * (lo - ref))
                       + np.abs(b) ** 2 * np.exp(-2.0 * kap * (end - hi))) * decay
            cross = (f * np.conj(b) * w * np.sinc(kre * w / np.pi)
                     * np.exp(-kap * (end - ref) + 1j * kre * (lo + hi - ref - end)))
            total += np.exp(2.0 * self.log_scale[:, j]) * (squares + 2.0 * cross.real)
        return total

    def row(self, i: int) -> ScatteringSolution:
        flags = ("energy_shifted",) if self.shifted[i] else ()
        q, s = self.q[i], self.log_scale[i]
        return ScatteringSolution(
            pot=self.pot,
            E=float(self.E[i]),
            k=float(self.k[i]),
            A_T=complex(self.A_T[i]),
            A_R=complex(self.A_R[i]),
            log_abs_A_T=float(self.log_abs_A_T[i]),
            bounds=tuple(self.bounds),
            q=tuple(q),
            fwd=tuple(self.f[i] * np.exp(s)),
            bwd=tuple(self.b[i] * np.exp(s + 1j * q * (self.ends - self.refs))),
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
    matching, A_R = -(i/2)(k/kappa + kappa/k) sinh(kappa a) A_T e^{ika}, taken
    with the e^{-kappa a} of A_T folded into sinh(kappa a) e^{-kappa a} = D_-/2
    so that no opacity overflows (A_T itself underflows to 0 past kappa a ~ 745).
    """
    if not (0 < E < V0):
        raise ContractViolation("rect_amplitude needs 0 < E < V0; use solve above barrier")
    if not a > 0:
        raise ContractViolation("need a > 0")
    k = float(units.wavenumber(E))
    kap = float(units.decay_constant(V0, E))
    Dm = -math.expm1(-2.0 * kap * a)
    Dp = 2.0 - Dm
    unscaled = 4j * k * kap / ((k**2 - kap**2) * Dm + 2j * k * kap * Dp)
    A_T = unscaled * cmath.exp(-(kap + 1j * k) * a)
    A_R = -0.25j * (k / kap + kap / k) * Dm * unscaled
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
