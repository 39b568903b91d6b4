"""Stationary scattering for piecewise-constant potentials.

Transfer matrices are accumulated in the (forward, backward) amplitude basis
with exponentials referenced to each region's left edge, so that an opaque
barrier never materialises e^{+kappa a} against an O(1) coefficient.  The
running product is rescaled whenever its entries grow large and the pulled-out
magnitude is tracked as a log, which keeps |A_T| available in log form for
arbitrarily opaque barriers (kappa a far beyond the e^{-745} underflow line).
The incident region has no width, so the product starts from the first
joint's matrix rather than from its product with the identity.  No entry of
a row's product exceeds e^B, with B = sum_j kappa_j d_j + sum_j ln(1 +
|q_j / q_{j+1}|) its growth bound, so the rescale checks run only in a table
where some row's B comes within a factor e of the rescale limit.

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

SolutionTable is the one solution format: solve(pot, E) is a one-row table,
and the two-phase angles and S-matrices are arrays read from its columns.
Its rows may also carry their own geometry: a sequence of potentials with one
region count (a width or height scan) is one table, whose heights, widths and
edges have a row axis through the forward pass, the backward substitution and
the density integral, and each of whose rows is bit-identical to the one-row
table of its own potential.
"""

from __future__ import annotations

import cmath
import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .core import UNITS, BranchResolutionError, ContractViolation
from .potential import PiecewisePotential

DEGENERACY_REL_SHIFT = 1e-9  # relative; applied when E collides with a segment height
# the bounds the test suite holds a solve to: |A_T|^2 + |A_R|^2 - 1, and the
# amplitudes' distance from the closed-form rectangular and double barriers
UNITARITY_TOL = 1e-10
ORACLE_TOL = 1e-12
TWO_PHASE_TOL = 1e-6         # roundtrip residual of a two-phase extraction
_RESCALE_LIMIT = 1e150
_RESCALE_LOG_LIMIT = math.log(_RESCALE_LIMIT)


def _wavenumbers(E, heights):
    """Complex q per energy and region: real > 0 above a level, i*kappa below
    it.  heights is one row of region heights, or one row per energy."""
    diff = (np.asarray(E)[:, None] - heights) / UNITS.hbar2_over_2m
    root = np.sqrt(np.abs(diff))
    return np.where(diff >= 0, root, 1j * root)


def _geometry(pots):
    """Region heights, refs, ends and bounds, one row per potential; the
    potentials must share one region count."""
    rows = []
    for pot in pots:
        regions = pot.interior_regions()
        if not regions:  # free space: one region
            rows.append(([0.0], [0.0], [0.0], [-np.inf, np.inf]))
            continue
        lo, hi, v = zip(*regions)
        x1, xm = lo[0], hi[-1]
        rows.append(([0.0, *v, 0.0], [x1, *lo, xm], [x1, *hi, xm], [-np.inf, *lo, xm, np.inf]))
    if len({len(row[0]) for row in rows}) != 1:
        raise ContractViolation("the potentials of a table must share one region count")
    return [np.array(g) for g in zip(*rows)]


def _rescale(T, logscale):
    """Divide every transfer matrix of T whose largest entry exceeds
    _RESCALE_LIMIT by that entry and add its log to logscale, in place."""
    mags = np.abs(T).max(axis=(1, 2))
    if mags.max() > _RESCALE_LIMIT:
        big = mags > _RESCALE_LIMIT
        T[big] /= mags[big, None, None]
        logscale[big] += np.log(mags[big])


class SolutionTable:
    """Vectorised stationary solutions on an array of energies.

    The one description of a solution: energy scans, spectral packets, the
    stacked energies of a central difference and a single energy (solve) are
    all tables, and every consumer reads their columns.  The transmission is
    held as log_abs_A_T and arg_A_T, from which A_T is derived; region j as
    the pair f, b and its log_scale, referenced to refs (left edges) and ends
    (right edges; equal to refs in the outer regions).

    pot is one potential, or a sequence of potentials that share one region
    count (a geometry family: a width or height scan), one per row, with Es
    one per row or one for all.  A family's refs, ends and bounds have a row
    axis, and every row is bit-identical to the one-row table of its own
    potential; pot is then the first row's potential, and psi, psi_dpsi,
    two_phase and s_matrix, which read a single geometry, refuse the table.

    A build runs the forward pass only.  f, b and log_scale come from the
    backward substitution, run once, on their first read (psi_dpsi, psi,
    density_integral, boundary_residual), so a caller that reads only the
    transmission never pays for it.
    """

    def __init__(self, pot: PiecewisePotential | Sequence[PiecewisePotential], Es):
        self.family = not isinstance(pot, PiecewisePotential)
        pots = tuple(pot) if self.family else (pot,)
        Es = np.atleast_1d(np.asarray(Es, dtype=float))
        if self.family:
            if len(Es) not in (1, len(pots)):
                raise ContractViolation("a family needs one energy per potential or one for all")
            Es = np.broadcast_to(Es, len(pots)).copy()
        if (Es <= 0).any():
            raise ContractViolation("scattering energies must be positive")
        self.pot = pots[0]
        heights, refs, ends, bounds = _geometry(pots)
        # kappa = 0 degeneracy: sidestep by a relative nudge onto the first
        # height E is close to (the natural energy scale varies over ~16
        # decades once waveguide-mapped barriers are in play, so an absolute
        # threshold cannot work); zero heights are never close
        close = np.abs(Es[:, None] - heights) < DEGENERACY_REL_SHIFT * heights
        self.shifted = np.zeros(len(Es), dtype=bool)
        if close.any():
            self.shifted = close.any(axis=1)
            level = np.broadcast_to(heights, close.shape)[np.arange(len(Es)), close.argmax(axis=1)]
            Es = np.where(self.shifted, level * (1.0 + DEGENERACY_REL_SHIFT), Es)
        self.E = Es
        self.k = UNITS.wavenumber(Es)
        n = len(Es)
        # one geometry keeps region vectors; a family has a row axis
        self.refs, self.ends, self.bounds = (refs, ends, bounds) if self.family else (
            refs[0], ends[0], bounds[0])
        self._edges = refs.T, ends.T, bounds.T  # region-major, a row axis of length 1 or n

        if heights.shape[1] == 1:  # free space
            self.q = self.k.astype(complex)[:, None]
            self.A_T = np.ones(n, dtype=complex)
            self.A_R = np.zeros(n, dtype=complex)
            self.log_abs_A_T = np.zeros(n)
            self.arg_A_T = np.zeros(n)
            return

        x1, xm = refs[:, 0], ends[:, -1]
        widths = (ends - refs).T  # (n_regions, 1 or n), as q below
        self.q = _wavenumbers(Es, heights)  # (nE, n_regions)
        q = np.ascontiguousarray(self.q.T)  # region-major from here on
        nreg = len(q)

        # forward accumulation of the global transfer matrix, log-rescaled; a
        # region is crossed in chunks of kappa d < 300 per energy, so no step
        # overflows and no row depends on the other rows of its table
        kd_300 = q.imag * (widths / 300.0)
        chunks = 1 + kd_300.astype(int)
        phases = np.exp(1j * q * (widths / chunks))
        r = q[:-1] / q[1:]
        M = np.empty((nreg - 1, n, 2, 2), dtype=complex)
        M[..., 0, 0] = M[..., 1, 1] = 0.5 * (1 + r)
        M[..., 0, 1] = M[..., 1, 0] = 0.5 * (1 - r)
        # no entry of T exceeds e^{growth}: a chunk multiplies a row by at
        # most e^{kappa d / chunks}, a joint by at most 1 + |r|.  A table
        # whose every row stays a factor e below the limit is never rescaled
        growth = 300.0 * kd_300.sum(axis=0) + np.log1p(np.abs(r)).sum(axis=0)
        check = growth.max() > _RESCALE_LOG_LIMIT - 1.0
        logscale = np.zeros(n)
        # region 0 has no width, so T starts as M[0] = M[0] @ identity (and
        # may be updated in place: M[0] is not read again)
        T = M[0]
        for j in range(1, nreg - 1):
            ph = phases[j]
            for step in range(chunks[j].max()):  # every energy has a first chunk
                p = np.where(step < chunks[j], ph, 1.0) if step else ph
                T[:, 0, :] *= p[:, None]
                T[:, 1, :] /= p[:, None]
                if check:
                    _rescale(T, logscale)
            T = M[j] @ T
            if check:
                _rescale(T, logscale)

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
        refs, ends, _ = self._edges
        widths = ends - refs
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
        f[-1] = np.exp(1j * (self.arg_A_T + self.k * ends[-1]))
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
        if self.family:
            raise ContractViolation("psi and psi_dpsi need a single-geometry table")
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

    def density_integral(self, x_i, x_f) -> np.ndarray:
        """Integral of |psi|^2 over (x_i, x_f), an array over energy; on a
        family the markers may be arrays, one per row.

        Each region's share has a closed form in the scaled pair, where no
        exponential exceeds 1, so it is exact to rounding at any opacity.  q
        is real or i kappa, so with kappa = Im q and k = Re q one of the two
        vanishes and one formula covers both.  Every region is evaluated in
        one array pass; a region outside (x_i, x_f) has zero width and scale,
        and the shares are summed in region order.
        """
        f, b, log_scale = self._regions
        q = self.q.T
        ref, end, bounds = self._edges
        lo, hi = np.maximum(x_i, bounds[:-1]), np.minimum(x_f, bounds[1:])
        inside = hi > lo
        w = np.where(inside, hi - lo, 0.0)
        kap, kre = q.imag, q.real
        two_kap = 2.0 * kap
        c = two_kap * w  # decay = integral of e^{-2 kappa t} over (0, w)
        grows = c > 0
        decay = w * np.where(grows, -np.expm1(-c) / np.where(grows, c, 1.0), 1.0)
        fall = -two_kap  # the log-slope of each component's |.|^2 away from its edge
        squares = (np.abs(f) ** 2 * np.exp(fall * (lo - ref))
                   + np.abs(b) ** 2 * np.exp(fall * (end - hi))) * decay
        cross = (f * np.conj(b) * w * np.sinc(kre * w / np.pi)
                 * np.exp(-kap * (end - ref) + 1j * kre * (lo + hi - ref - end)))
        scale = np.exp(np.where(inside, 2.0 * log_scale, -np.inf))
        return np.add.accumulate(scale * (squares + 2.0 * cross.real))[-1]

    def boundary_residual(self) -> np.ndarray:
        """Mismatch of region 0's pair with the incident and reflected waves
        at the first joint, an array over energy.

        Interior joints are continuous by construction; this is the one
        genuine consistency check (0 for free space).
        """
        if self.q.shape[1] == 1:
            return np.zeros(len(self.E))
        x1, scale = self._edges[0][0], np.exp(self.log_scale[:, 0])
        return (np.abs(self.f[:, 0] * scale - np.exp(1j * self.k * x1))
                + np.abs(self.b[:, 0] * scale - self.A_R * np.exp(-1j * self.k * x1)))


def solve(pot: PiecewisePotential, E: float) -> SolutionTable:
    """One-row table at energy E for unit incidence e^{ikx} from the left."""
    return SolutionTable(pot, [E])


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


@dataclass(frozen=True)
class TwoPhase:
    """Two-phase parametrisation of sub-barrier rectangular amplitude pairs,
    arrays over energy, for a barrier of width a.

        A_T = i sin(phi1) e^{i(phi2 - ka)}
        A_R = cos(phi1) e^{i(phi2 - ka)} e^{+ika}

    for the barrier moved to (0, a).  The reflection in the underlying pair is
    the barrier-centred one, A_R e^{-ik(x_left + x_right)} as in `s_matrix`
    (e^{-ika} on (0, a)); with the raw left-referenced A_R no real
    (phi1, phi2) exists at all, so reconstruction restores that phase factor
    before comparing.  sin^2 + cos^2 = 1 encodes unitarity identically.
    """

    phi1: np.ndarray
    phi2: np.ndarray
    k: np.ndarray
    a: float

    def reconstruct(self):
        """(A_T, A_R) of the same barrier moved to (0, a); the barrier on
        (x_left, x_left + a) has the same A_T and A_R times e^{2ik x_left}."""
        env = np.exp(1j * (self.phi2 - self.k * self.a))
        A_T = 1j * np.sin(self.phi1) * env
        A_R = np.cos(self.phi1) * env * np.exp(1j * self.k * self.a)
        return A_T, A_R


def two_phase(table: SolutionTable) -> TwoPhase:
    """Extract (phi1, phi2) at every energy of a single-rectangular-barrier
    table, whose extent is the width a.

    Branch choice: phi1 in (0, pi/2] for sub-barrier energies; the common
    phase comes from e^{2 i theta} = A_R,centred^2 - A_T^2 with the residual
    of the roundtrip reconstruction, held to TWO_PHASE_TOL, as the acceptance
    test.
    """
    pot = table.pot
    if table.family:
        raise ContractViolation("two_phase needs a single-geometry table")
    if len(pot.segments) != 1:
        raise ContractViolation("two_phase is defined for a single rectangular barrier")
    if not np.all(table.E < pot.max_height):
        raise ContractViolation("two_phase needs sub-barrier energies")
    a, k = pot.extent, table.k
    A_T, A_R = table.A_T, table.A_R
    ARc = A_R * np.exp(-1j * k * (pot.x_left + pot.x_right))
    theta = 0.5 * np.angle(ARc**2 - A_T**2)
    s1 = (-1j * A_T * np.exp(-1j * theta)).real
    c1 = (ARc * np.exp(-1j * theta)).real
    flip = s1 < 0  # gauge (phi1, theta) -> (phi1 + pi, theta + pi)
    theta = np.where(flip, np.where(theta <= 0, theta + np.pi, theta - np.pi), theta)
    phi1 = np.arctan2(np.where(flip, -s1, s1), np.where(flip, -c1, c1))
    tp = TwoPhase(phi1=phi1, phi2=theta + k * a, k=k, a=a)
    rT, rR = tp.reconstruct()
    resid = np.abs(rT - A_T) + np.abs(rR * np.exp(2j * k * pot.x_left) - A_R)
    if np.any(resid > TWO_PHASE_TOL):
        raise BranchResolutionError(f"two-phase reconstruction residual {resid.max():.3e}")
    return tp


def s_matrix(table: SolutionTable):
    """Two-channel collision matrices, shape (n_E, 2, 2), with S00 = S11 = A_T
    and S01 = S10 = A_R.

    The reflection entry uses the symmetric phase reference (A_R recentred by
    e^{-ik(x_left + x_right)}), the convention in which S is unitary for a
    spatially symmetric potential.  For an asymmetric potential the matrix is
    still built from left-incidence data but flagged, since S01 = S10 is then
    an assumption rather than a theorem.
    """
    pot = table.pot
    if table.family:
        raise ContractViolation("s_matrix needs a single-geometry table")
    S = np.empty((len(table), 2, 2), dtype=complex)
    S[:, 0, 0] = S[:, 1, 1] = table.A_T
    S[:, 0, 1] = S[:, 1, 0] = table.A_R * np.exp(-1j * table.k * (pot.x_left + pot.x_right))
    return (S, ("asymmetric",)) if not pot.is_symmetric() else (S, ())
