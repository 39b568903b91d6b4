"""Stationary scattering for piecewise-constant potentials.

Transfer matrices are accumulated in the (forward, backward) amplitude basis
with exponentials referenced to each region's left edge, so that an opaque
barrier never materialises e^{+kappa a} against an O(1) coefficient.  The
running product is rescaled whenever its entries grow large and the pulled-out
magnitude is tracked as a log.  So log|A_T| (log_abs_A_T) and arg A_T hold at
any opacity, kappa a far beyond the e^{-745} underflow line; the complex A_T
itself underflows to 0 past kappa a ~ 745.  stationary_times.phase_time,
which differences the angle of A_T, fails from kappa a ~ 717, where A_T is
subnormal (8e-7 relative at kappa a = 720, 8% at 730), and raises once A_T
is 0.
The incident region has no width, so the product starts from the first
joint's matrix rather than from its product with the identity.  No entry of
a row's product exceeds e^B, with B = sum_j kappa_j d_j + sum_j ln(1 +
|q_j / q_{j+1}|) its growth bound, so the rescale checks run only in a table
where some row's B comes within a factor e of the rescale limit.

The forward pass holds the running matrix as a (2, 2, n) array, energy last.
A joint's matrix [[a, b], [b, a]], a, b = (1 +- q_j/q_{j+1})/2, is a times
the identity plus b times the row swap, so it is kept as its two vectors and
applied as T <- a T + b T[::-1], that is [a T0 + b T1; a T1 + b T0] on T's
rows: two products and a sum over contiguous arrays of all energies, not one
2x2 matrix product per energy.  Every step is elementwise per energy, so
every row of a table is bit-identical to its own one-row table.

Each pass forms its per-region factors (chunk phases, joint vectors,
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
global accuracy of the solve.  psi_dpsi is the one evaluator of psi and
psi' from these pairs, at one position or an array of positions: one sorted
search finds each position's region, whose pair it reads directly.

The forward pass is the whole two-port.  With T the unscaled product (the
ratios below do not see the log scale), A_T = e^{ik(x1 - xm)}/T11, A_R =
-T10/T11 e^{2ik x1} and r_prime = T01/T11 e^{-2ik xm}, the reflection for
incidence from the right (the A_R of the mirrored potential V(-x)).
s_matrix assembles the exact two-port S from these columns, unitary for
every potential, and two_phase reads its angles from log_abs_A_T, arg_A_T
and |A_R|, so both hold at any opacity and neither re-derives an amplitude.

SolutionTable is the one solution format: solve(pot, E) is a one-row table.
The free potential is two free regions joined at x = 0 (q ratio 1), whose
forward pass gives A_T = 1, A_R = 0 and psi = e^{ikx} exactly.
Its rows may also carry their own geometry: a sequence of potentials with one
region count (a width or height scan) is one table, whose heights, widths and
edges have a row axis through the forward pass, the backward substitution and
the density integral, and each of whose rows is bit-identical to the one-row
table of its own potential.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .core import UNITS, BranchResolutionError, ContractViolation
from .potential import PiecewisePotential

DEGENERACY_REL_SHIFT = 1e-9  # relative; applied when E collides with a segment height
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
        lo, hi, v = np.reshape(pot.interior_regions(), (-1, 3)).T
        x1, xm = pot.x_left, pot.x_right
        rows.append(([0.0, *v, 0.0], [x1, *lo, xm], [x1, *hi, xm], [-np.inf, *lo, xm, np.inf]))
    if len({len(row[0]) for row in rows}) != 1:
        raise ContractViolation("the potentials of a table must share one region count")
    return [np.array(g) for g in zip(*rows)]


def _rescale(T, logscale):
    """Divide every transfer matrix of T, shape (2, 2, n), whose largest
    entry exceeds _RESCALE_LIMIT by that entry and add its log to logscale,
    in place."""
    mags = np.abs(T).max(axis=(0, 1))
    if mags.max() > _RESCALE_LIMIT:
        big = mags > _RESCALE_LIMIT
        T[..., big] /= mags[big]
        logscale[big] += np.log(mags[big])


class SolutionTable:
    """Vectorised stationary solutions on an array of energies.

    The one description of a solution: energy scans, spectral packets, the
    stacked energies of a central difference and a single energy (solve) are
    all tables, and every consumer reads their columns.  The transmission is
    held as log_abs_A_T and arg_A_T, both parts of ln A_T from one table per
    central-difference round; region j as the pair f, b and its log_scale,
    referenced to refs (left edges) and ends (right edges; equal to refs in
    the outer regions).

    pot is one potential, or a sequence of potentials that share one region
    count (a geometry family: a width or height scan), one per row, with Es
    one per row or one for all.  A family's refs, ends and bounds have a row
    axis, and every row is bit-identical to the one-row table of its own
    potential; pot is then the first row's potential, and psi_dpsi,
    two_phase and s_matrix, which read a single geometry, refuse the table.

    A build runs the forward pass only and stores log_abs_A_T, which every
    consumer reads.  arg_A_T, A_T, A_R and r_prime are derived from the
    product's second row and T01 on their first read, so a caller that reads
    only the modulus (a BL time, a resonance search) never forms them.  f, b
    and log_scale come from the backward substitution, run once, on their
    first read (psi_dpsi, density_integral, boundary_residual), so a caller
    that reads only the transmission never pays for it.
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

        x1, xm = refs[:, 0], ends[:, -1]
        widths = (ends - refs).T  # (n_regions, 1 or n), as q below
        self.q = _wavenumbers(Es, heights)  # (nE, n_regions)
        q = np.ascontiguousarray(self.q.T)  # region-major from here on

        # forward accumulation of the global transfer matrix, log-rescaled; a
        # region is crossed in chunks of kappa d < 300 per energy, so no step
        # overflows and no row depends on the other rows of its table
        kd_300 = q.imag * (widths / 300.0)
        chunks = 1 + kd_300.astype(int)
        phases = np.exp(1j * q * (widths / chunks))
        r = q[:-1] / q[1:]
        a, b = 0.5 * (1 + r), 0.5 * (1 - r)
        # no entry of T exceeds e^{growth}: a chunk multiplies a row by at
        # most e^{kappa d / chunks}, a joint by at most 1 + |r|.  A table
        # whose every row stays a factor e below the limit is never rescaled
        growth = 300.0 * kd_300.sum(axis=0) + np.log1p(np.abs(r)).sum(axis=0)
        check = growth.max() > _RESCALE_LOG_LIMIT - 1.0
        logscale = np.zeros(n)
        # region 0 has no width, so T starts as the first joint's matrix,
        # which equals its product with the identity
        T = np.array([[a[0], b[0]], [b[0], a[0]]])
        for ph, n_chunks, aj, bj in zip(phases[1:-1], chunks[1:-1], a[1:], b[1:]):
            for step in range(n_chunks.max()):  # every energy has a first chunk
                p = np.where(step < n_chunks, ph, 1.0) if step else ph
                T[0] *= p
                T[1] /= p
                if check:
                    _rescale(T, logscale)
            T = aj * T + bj * T[::-1]  # [a T0 + b T1; a T1 + b T0]
            if check:
                _rescale(T, logscale)

        # det(T_true) = q_left/q_right = 1 (free on both sides), so
        # A_T = e^{ik(x1-xm)} / T11_true with T11_true = T11 e^{logscale}.
        # Modulus and phase are kept apart so that derivatives of either
        # can avoid the (possibly underflowed) complex amplitude; the row
        # T[1] and T01 are kept for the columns derived on first read
        self._T1, self._T01, self._x1, self._xm = T[1], T[0, 1], x1, xm
        self.log_abs_A_T = -logscale - np.log(np.abs(T[1, 1]))

    @functools.cached_property
    def arg_A_T(self):
        """arg A_T, not reduced to (-pi, pi]; exact at any opacity."""
        return -np.angle(self._T1[1]) + self.k * (self._x1 - self._xm)

    @functools.cached_property
    def A_T(self):
        """The transmission, psi = A_T e^{ikx} right of the potential; it
        underflows to 0 past kappa a ~ 745."""
        return np.exp(self.log_abs_A_T) * np.exp(1j * self.arg_A_T)

    @functools.cached_property
    def A_R(self):
        """The reflection, psi = e^{ikx} + A_R e^{-ikx} left of the
        potential."""
        T10, T11 = self._T1
        return -T10 / T11 * np.exp(2j * self.k * self._x1)

    @functools.cached_property
    def r_prime(self):
        """The reflection for incidence from the right, psi = e^{-ikx} +
        r_prime e^{ikx} right of the potential: the A_R of the mirrored
        potential V(-x)."""
        return self._T01 / self._T1[1] * np.exp(-2j * self.k * self._xm)

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

    def psi_dpsi(self, x):
        """psi and psi' at a position or an array of positions, each of shape
        np.shape(x) + (n_E,).

        Each position reads its own region's pair (a joint belongs to the
        region on its right), so every position reads the same values whether
        it comes alone or with others.
        """
        if self.family:
            raise ContractViolation("psi_dpsi needs a single-geometry table")
        x = np.asarray(x, dtype=float)
        j = np.searchsorted(self.bounds[1:-1], x, side="right")
        f, b, log_scale = self._regions
        iq, s = 1j * self.q.T[j], log_scale[j]
        ef = f[j] * np.exp(s + iq * np.expand_dims(x - self.refs[j], -1))
        eb = b[j] * np.exp(s - iq * np.expand_dims(x - self.ends[j], -1))
        return ef + eb, iq * (ef - eb)

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
        x1, scale = self._edges[0][0], np.exp(self.log_scale[:, 0])
        return (np.abs(self.f[:, 0] * scale - np.exp(1j * self.k * x1))
                + np.abs(self.b[:, 0] * scale - self.A_R * np.exp(-1j * self.k * x1)))


def solve(pot: PiecewisePotential, E: float) -> SolutionTable:
    """One-row table at energy E for unit incidence e^{ikx} from the left."""
    return SolutionTable(pot, [E])


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
    """(phi1, phi2) at every energy of a single-rectangular-barrier table,
    whose extent is the width a, read from the table's columns:

        phi1 = arctan2(|A_T|, |A_R|),  |A_T| = e^{log_abs_A_T}
        phi2 = ka + theta,  theta = arg A_T - pi/2 reduced to (-pi, pi]

    so phi1 lies in [0, pi/2] (0 only where |A_T| underflows) and both hold
    at any opacity.  The residual of the roundtrip reconstruction, held to
    TWO_PHASE_TOL, checks the pair against the table's A_T and A_R.
    """
    pot = table.pot
    if table.family:
        raise ContractViolation("two_phase needs a single-geometry table")
    if len(pot.segments) != 1:
        raise ContractViolation("two_phase is defined for a single rectangular barrier")
    if not np.all(table.E < pot.max_height):
        raise ContractViolation("two_phase needs sub-barrier energies")
    a, k = pot.extent, table.k
    theta = np.pi - np.mod(1.5 * np.pi - table.arg_A_T, 2.0 * np.pi)
    phi1 = np.arctan2(np.exp(table.log_abs_A_T), np.abs(table.A_R))
    tp = TwoPhase(phi1=phi1, phi2=theta + k * a, k=k, a=a)
    rT, rR = tp.reconstruct()
    resid = np.abs(rT - table.A_T) + np.abs(rR * np.exp(2j * k * pot.x_left) - table.A_R)
    if np.any(resid > TWO_PHASE_TOL):
        raise BranchResolutionError(f"two-phase reconstruction residual {resid.max():.3e}")
    return tp


def s_matrix(table: SolutionTable) -> np.ndarray:
    """Two-port collision matrices, shape (n_E, 2, 2), unitary for every
    potential: S00 = S11 = A_T, S10 = A_R (incidence from the left) and
    S01 = r_prime (incidence from the right), each reflection re-referenced
    to the potential's centre c, A_R e^{-2ikc} and r_prime e^{+2ikc}.
    """
    if table.family:
        raise ContractViolation("s_matrix needs a single-geometry table")
    centre = np.exp(1j * table.k * (table.pot.x_left + table.pot.x_right))
    S = np.empty((len(table), 2, 2), dtype=complex)
    S[:, 0, 0] = S[:, 1, 1] = table.A_T
    S[:, 1, 0] = table.A_R / centre
    S[:, 0, 1] = table.r_prime * centre
    return S
