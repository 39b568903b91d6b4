"""Stationary scattering for piecewise-constant potentials.

One region matrix carries (psi, psi') across a displacement y in a region of
constant height V:

    M(y) = [[C, S], [-Q2 S, C]],  C = cos(qy),  S = sin(qy)/q,  Q2 = q^2,

with Q2 = (E - V)/(hbar^2/2m).  M is entire in Q2 (C and S are power series
in Q2 y^2) and real for real E, so it is exact at Q2 = 0, where E equals the
region's height, and needs no branch of q.  Its growth e^{|Im q| |y|}
(e^{kappa |y|} below the level) is moved into a log scale (_region_matrix),
so no opacity overflows.

A table makes one right-to-left sweep of the 2x2 products M_j(-d_j)
from x_m, the right edge of the potential, to x_1, its left edge; the
product at each joint carries the transmitted wave's (psi, psi') there.  The
product at x_m is the identity, unbroadcast, and the sweep starts from the
rightmost region's matrix, built directly.  A running product whose entries
pass _RESCALE_LIMIT is divided by its largest entry and the log of that
entry joins the scale, and so is one whose entries all fall below
1/_RESCALE_LIMIT, as the scale's e^{-kappa d} can make them in a long
lattice or a resonant stack of opaque barriers.  The check runs only in a
table with two or more interior regions (one scaled region matrix has
entries of at most max(1, d, kappa/2, q)) where some row's growth bound (the
sum over regions of the log of each scaled matrix's row-sum norm), or its
total scale where two or more regions lie below the level, comes within a
factor e of the limit, as in a long lattice.  Every step is elementwise per
energy, so every row of a table is bit-identical to its own one-row table.

The full product P is the whole two-port.  The free outer regions split
(psi, psi') into e^{+-ikx} waves, and with D = P00 + P11 + i(k P01 - P10/k):
A_T = 2 e^{ik(x1 - xm)} / D, A_R = e^{2ik x1} (P00 - P11 + i(k P01 +
P10/k)) / D, and r_prime = e^{-2ik xm} (P11 - P00 + i(k P01 + P10/k)) / D,
the reflection for incidence from the right (the A_R of the mirrored
potential V(-x)).  So log|A_T| (log_abs_A_T) and arg A_T hold at any
opacity, kappa a far beyond the e^{-745} underflow line; the complex A_T
itself underflows to 0 past kappa a ~ 745.  stationary_times.phase_time,
which differences the angle of A_T, fails from kappa a ~ 717, where A_T is
subnormal (8e-7 relative at kappa a = 720, 8% at 730), and raises once A_T
is 0.  s_matrix assembles the exact two-port S from these columns, unitary
for every potential, and two_phase reads its angles from log_abs_A_T,
arg_A_T and |A_R|, so both hold at any opacity.  A table also takes complex
energies (Re E > 0), where the resonance poles E_r - i Gamma lie, with k the
outgoing (principal) root; there only D and log_abs_A_T = log|2/D| (D
unscaled) mean something.

The partial product at each joint, applied to the transmitted wave A_T
e^{ik xm} (1, ik), is (psi, psi') at that joint: the data of the region to
its left.  psi_dpsi evaluates psi and psi' from the right edge of each
position's region (x_m for the transmitted region) with the same region
matrix, and density_integral integrates |psi|^2 = |C psi + S psi'|^2 over
each region's share of (x_i, x_f) in closed form.  Those region values are
formed on their first read, so a caller that needs only the transmission (a
phase, BL or resonance search) never forms them.

SolutionTable is the one solution format: solve(pot, E) is a one-row table.
The free potential is the empty product, for which D = 2, A_T = 1 and A_R =
0 exactly.  Each potential's region heights, right ends and bounds are
formed once and cached as read-only region-major columns (_regions), which
a one-potential table reads as they are.  A table's rows may also carry
their own geometry: a sequence of potentials with one region count (a width
or height scan) is one table, which stacks its potentials' columns, whose
heights, widths and edges have a row axis through the sweep and the density
integral, and each of whose rows is bit-identical to the one-row table of
its own potential.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .core import UNITS, ContractViolation
from .potential import PiecewisePotential

_RESCALE_LIMIT = 1e150
_RESCALE_LOG_LIMIT = math.log(_RESCALE_LIMIT)
_IDENTITY = np.eye(2)[:, :, None]
_IDENTITY.flags.writeable = False  # every table's x_m joint shares it
# (1 - sin z / z) / z^2 = sum_n (-1)^n z^{2n} / (2n + 3)!, highest power
# first, for |z|^2 < 1, where its truncation and the direct form's
# cancellation both stay below 2e-15 relative
_SINC_DEFECT = [(-1) ** n / math.factorial(2 * n + 3) for n in range(7, -1, -1)]


def _region_matrix(Q2, y):
    """(C, S, g) with M(y) = e^g [[C, S], [-Q2 S, C]], elementwise over
    broadcast Q2 and y.  Above the level C = cos(qy), S = y sinc(qy) and
    g = 0; below it g = kappa |y|, C = (1 + e^{-2g})/2 and S = y (1 -
    e^{-2g})/(2g), so C and |S| / |y| lie in (0, 1] at any opacity; at
    Q2 = 0, C = 1 and S = y.  A complex Q2 takes g = |Im qy|."""
    if np.iscomplexobj(Q2):  # cos, sin of qy = a + ib from cosh(b) e^{-g}, sinh(b) e^{-g}
        q = np.sqrt(Q2)
        a, b = (q * y).real, (q * y).imag
        g = np.abs(b)
        half = 0.5 * np.expm1(-2.0 * g)
        ch, sh = 1.0 + half, np.copysign(half, b)
        S = (ch * np.sin(a) + 1j * sh * np.cos(a)) / np.where(q != 0, q, 1.0)
        return ch * np.cos(a) - 1j * sh * np.sin(a), np.where(q != 0, S, y), g
    root = np.sqrt(np.abs(Q2))
    t = root * y  # q y above the level, kappa y below
    below = Q2 < 0
    g = np.abs(t) * below
    half = 0.5 * np.expm1(-2.0 * g)
    C = np.where(below, 1.0 + half, np.cos(t))
    S = np.where(below, np.copysign(half, y), np.sin(t))
    live = root > 0
    np.divide(S, root, out=S, where=live)
    return C, np.where(live, S, y), g


def _carry(Q2, y, psi, dpsi):
    """(psi, psi') carried across y by the region matrix, in units of e^g,
    and g."""
    C, S, g = _region_matrix(Q2, y)
    return C * psi + S * dpsi, C * dpsi - Q2 * S * psi, g


@functools.lru_cache(maxsize=1024)
def _regions(pot):
    """Region heights, right ends (x_m for the transmitted region) and
    bounds of one potential, and the displacements -d of its interior
    regions, right to left, formed once as read-only region-major columns:
    a one-potential table reads them as they are, and a family repeats its
    potentials."""
    lo, hi, v = np.reshape(pot.interior_regions(), (-1, 3)).T
    x1, xm = pot.x_left, pot.x_right
    bounds = np.array([-np.inf, *lo, xm, np.inf])
    columns = (np.array([0.0, *v, 0.0]), np.array([x1, *hi, xm]), bounds,
               bounds[-3:0:-1] - bounds[-2:1:-1])
    for column in columns:
        column.flags.writeable = False
    return tuple(column[:, None] for column in columns)


def _rescale(P, logscale):
    """(P, logscale) with every matrix of P, shape (2, 2, n), whose largest
    entry lies outside (1/_RESCALE_LIMIT, _RESCALE_LIMIT) divided by that
    entry and its log added to logscale."""
    mags = np.abs(P).max(axis=(0, 1))
    off = (mags > _RESCALE_LIMIT) | (mags < 1.0 / _RESCALE_LIMIT)
    if not off.any():
        return P, logscale
    mags = np.where(off, mags, 1.0)
    return P / mags, logscale + np.log(mags)


class SolutionTable:
    """Vectorised stationary solutions on an array of energies.

    The one description of a solution: energy scans, spectral packets, the
    stacked energies of a central difference and a single energy (solve) are
    all tables, and every consumer reads their columns.  The transmission is
    held as log_abs_A_T and arg_A_T, both parts of ln A_T from one table per
    central-difference round.  E is the energies as given, also where one
    equals a segment height, or complex (see the module docstring): a scalar
    or a 1-d array, each finite with a positive real part.  No energies make
    an empty table, whose columns are empty.

    pot is one potential, or a sequence of potentials that share one region
    count (a geometry family: a width or height scan), one per row, with Es
    one per row or one for all.  A family's ends and bounds have a row axis,
    and every row is bit-identical to the one-row table of its own
    potential; pot is then the first row's potential, and psi_dpsi,
    two_phase and s_matrix, which read a single geometry, refuse the table.

    A build reads the potentials' cached geometry (a family stacks it),
    runs the sweep from the rightmost region's matrix and stores the
    transmission denominator D (in units of the scale) and log_abs_A_T.
    arg_A_T, A_T, A_R and r_prime are derived from the full product on
    their first read, so a caller that reads only the modulus (a BL time)
    or D (a pole search) never forms them.  (psi, psi') at the regions'
    right ends is formed from the partial products on the first read of
    psi_dpsi or density_integral, so a caller that reads only the
    transmission never forms it.
    """

    def __init__(self, pot: PiecewisePotential | Sequence[PiecewisePotential], Es):
        self.family = not isinstance(pot, PiecewisePotential)
        pots = tuple(pot) if self.family else (pot,)
        if not pots:
            raise ContractViolation("a family needs at least one potential")
        Es = np.asarray(Es, dtype=complex if np.iscomplexobj(Es) else float)
        if Es.ndim > 1:
            raise ContractViolation("a table's energies are a scalar or a 1-d array")
        Es = Es.reshape(-1)
        if self.family:
            if len(Es) not in (1, len(pots)):
                raise ContractViolation("a family needs one energy per potential or one for all")
            Es = np.broadcast_to(Es, len(pots)).copy()
        if not (np.isfinite(Es) & (Es.real > 0)).all():
            raise ContractViolation("scattering energies must be finite with a positive real part")
        self.pot = pots[0]
        rows = [_regions(p) for p in pots]
        if len({len(row[0]) for row in rows}) != 1:
            raise ContractViolation("the potentials of a table must share one region count")
        # region-major columns, a row axis of length 1 or n: one geometry's
        # cached arrays as they are, a family's stacked
        heights, ends, bounds, steps = rows[0] if len(rows) == 1 else (
            np.concatenate(g, axis=1) for g in zip(*rows))
        self.E = Es
        self.k = UNITS.wavenumber(Es)
        n = len(Es)
        # one geometry keeps region vectors; a family has a row axis
        self.ends, self.bounds = (ends.T, bounds.T) if self.family else (ends[:, 0], bounds[:, 0])
        self._edges = ends, bounds
        self._x1, self._xm = bounds[1], ends[-1]
        self._Q2 = (Es - heights) / UNITS.hbar2_over_2m  # (n_regions, n)

        # the interior regions' matrices M(-d), right to left; the running
        # product P' = M P is C P + [S P1; -Q2 S P0], that is C P + X P[::-1]
        Q2 = self._Q2[-2:0:-1]
        C, S, g = _region_matrix(Q2, steps)
        X = np.empty((len(C), 2, 1, n), dtype=S.dtype)
        X[:, 0, 0] = S
        np.multiply(-Q2, S, out=X[:, 1, 0])
        # the log scale of each joint's product, x_m first
        self._joint_logs = np.zeros((len(C) + 1, n))
        g.cumsum(axis=0, out=self._joint_logs[1:])
        # no entry of P exceeds e^{growth}, the product of the scaled
        # matrices' row-sum norms 1 + max(|S|, |Q2 S|); |det P| = e^{-2 sum g}
        # keeps its largest entry above e^{-sum g}/sqrt(2), and a product
        # with one scaled region keeps it above e^{-growth}/8.  A table whose
        # rows stay a factor e inside these bounds is never rescaled, nor is
        # one with a single interior region, whose one scaled matrix has
        # entries of at most max(1, d, kappa/2, q)
        check = len(C) > 1 and (
            np.log1p(np.maximum(np.abs(S), np.abs(X[:, 1, 0]))).sum(axis=0).max(initial=0.0)
            > _RESCALE_LOG_LIMIT - 1.0
            or (self._joint_logs[-1].max(initial=0.0) > _RESCALE_LOG_LIMIT - 1.0
                and np.count_nonzero(g, axis=0).max(initial=0) > 1))
        # the x_m joint's product is the identity, unbroadcast (the free
        # potential's whole product); the next is the rightmost region's
        # matrix [[C, S], [-Q2 S, C]] itself, whose entries need no rescale
        P = _IDENTITY
        self._products = [P]
        if len(C):
            P = np.empty((2, 2, n), dtype=S.dtype)
            P[0, 0] = P[1, 1] = C[0]
            P[0, 1], P[1, 0] = X[0, :, 0]
            self._products.append(P)
        rescale = np.zeros(n)
        rescales = [rescale] * len(self._products)
        for Cj, Xj in zip(C[1:], X[1:]):
            P = Cj * P + Xj * P[::-1]
            if check:
                P, rescale = _rescale(P, rescale)
            self._products.append(P)
            rescales.append(rescale)
        if check:
            self._joint_logs += rescales

        # A_T = 2 e^{ik(x1 - xm)} / D in units of the scale; its modulus and
        # phase are read from D apart, so that derivatives of either can
        # avoid the (possibly underflowed) A_T
        (P00, P01), (P10, P11) = P
        self.D = P00 + P11 + 1j * (self.k * P01 - P10 / self.k)
        self.log_abs_A_T = (math.log(2.0) - self._joint_logs[-1]
                            - np.log(np.hypot(self.D.real, self.D.imag)))

    @functools.cached_property
    def arg_A_T(self):
        """arg A_T, not reduced to (-pi, pi]; exact at any opacity."""
        return self.k * (self._x1 - self._xm) - np.angle(self.D)

    @functools.cached_property
    def A_T(self):
        """The transmission, psi = A_T e^{ikx} right of the potential; it
        underflows to 0 past kappa a ~ 745."""
        return np.exp(self.log_abs_A_T) * np.exp(1j * self.arg_A_T)

    @functools.cached_property
    def _reflected(self):
        """(P00 - P11, k P01 + P10/k) of the full product: A_R and r_prime
        are (+-(P00 - P11) + i(k P01 + P10/k)) / D up to their phase
        references."""
        (P00, P01), (P10, P11) = self._products[-1]
        return P00 - P11, self.k * P01 + P10 / self.k

    @functools.cached_property
    def A_R(self):
        """The reflection, psi = e^{ikx} + A_R e^{-ikx} left of the
        potential."""
        diff, odd = self._reflected
        return (diff + 1j * odd) / self.D * np.exp(2j * self.k * self._x1)

    @functools.cached_property
    def r_prime(self):
        """The reflection for incidence from the right, psi = e^{-ikx} +
        r_prime e^{ikx} right of the potential: the A_R of the mirrored
        potential V(-x)."""
        diff, odd = self._reflected
        return (1j * odd - diff) / self.D * np.exp(-2j * self.k * self._xm)

    @functools.cached_property
    def _at_ends(self):
        """(psi, psi', s), region-major: psi and psi' at each region's right
        end (x_m for the transmitted region) are e^s times the pair, the
        partial product there applied to A_T e^{ik xm} (1, ik)."""
        identity = np.broadcast_to(_IDENTITY, (2, 2, len(self)))
        P = np.stack([*self._products[:0:-1], identity, identity])
        s = np.concatenate([self._joint_logs[::-1], self._joint_logs[:1]]) + self.log_abs_A_T
        turn = np.exp(1j * (self.arg_A_T + self.k * self._xm))
        ik = 1j * self.k
        return (P[:, 0, 0] + ik * P[:, 0, 1]) * turn, (P[:, 1, 0] + ik * P[:, 1, 1]) * turn, s

    def __len__(self) -> int:
        return len(self.E)

    def psi_dpsi(self, x):
        """psi and psi' at a position or an array of positions, each of shape
        np.shape(x) + (n_E,).

        Each position is carried from its own region's right end by the
        region matrix (a joint belongs to the region on its right), so every
        position reads the same values whether it comes alone or with others.
        """
        if self.family:
            raise ContractViolation("psi_dpsi needs a single-geometry table")
        x = np.asarray(x, dtype=float)
        j = np.searchsorted(self.bounds[1:-1], x, side="right")
        psi, dpsi, s = self._at_ends
        p, dp, g = _carry(self._Q2[j], np.expand_dims(x - self.ends[j], -1), psi[j], dpsi[j])
        scale = np.exp(s[j] + g)
        return scale * p, scale * dp

    def density_integral(self, x_i, x_f) -> np.ndarray:
        """Integral of |psi|^2 over (x_i, x_f), an array over energy; on a
        family the markers may be arrays, one per row.

        Each region's share (lo, hi) is integrated leftwards from hi, where
        psi_dpsi's carry gives (psi, psi').  On (-w, 0), |C psi + S psi'|^2
        integrates with int C^2 = (w + CS)/2, int CS = -S^2/2 and int S^2 =
        (w - CS)/(2 Q2), C and S taken at w, the last as a series in
        z^2 = 4 Q2 w^2 where |z| < 1 (formed only if a share needs it).
        Every exponential is in the log scale, so each share is exact to
        rounding at any opacity.  Every region is
        evaluated in one array pass; a region outside (x_i, x_f) has zero
        width and scale, and the shares are summed in region order.
        """
        psi, dpsi, s = self._at_ends
        Q2 = self._Q2
        ends, bounds = self._edges
        lo, hi = np.maximum(x_i, bounds[:-1]), np.minimum(x_f, bounds[1:])
        inside = hi > lo
        w = np.where(inside, hi - lo, 0.0)
        p, dp, g = _carry(Q2, np.where(inside, hi, ends) - ends, psi, dpsi)  # at hi, units e^{s+g}
        Cw, Sw, gw = _region_matrix(Q2, w)
        CS, wg = Cw * Sw, w * np.exp(-2.0 * gw)  # the log scale of the share adds 2 gw
        z2 = 4.0 * Q2 * w * w
        direct = np.abs(z2) >= 1.0
        int_SS = (wg - CS) / np.where(direct, 2.0 * Q2, 1.0)
        if np.any(inside & ~direct):
            int_SS = np.where(direct, int_SS, 2.0 * w * w * wg * np.polyval(_SINC_DEFECT, z2))
        share = (np.abs(p) ** 2 * 0.5 * (wg + CS) - Sw * Sw * (p * np.conj(dp)).real
                 + np.abs(dp) ** 2 * int_SS)
        scale = np.exp(np.where(inside, 2.0 * (s + g + gw), -np.inf))
        return np.add.accumulate(scale * share)[-1]


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
    (phi1, phi2) exists at all, so reconstruct restores that phase factor.
    sin^2 + cos^2 = 1 encodes unitarity identically.
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
    at any opacity; reconstruct() gives back the table's A_T and A_R.
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
    return TwoPhase(phi1=phi1, phi2=theta + k * a, k=k, a=a)


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
