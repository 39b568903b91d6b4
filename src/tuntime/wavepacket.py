"""Time-dependent wavepackets built as spectral superpositions of exact
stationary scattering states,

    Psi(x, t) = integral dk G(k - k_bar) psi_k(x) e^{-i E(k) t / hbar},

with the probability flux J = (v_bar/k_bar) Im[Psi* dPsi/dx] evaluated from the
analytic spatial derivative of the integrand (no finite differences in x).
It conserves the density Re[Psi* Psi_w], Psi_w the superposition weighted by
the density weight w(k): 1 (massive) or omega/omega_bar = k/k_bar (photon).
Superposing exact scattering states instead of stepping a PDE makes the
t -> +-infinity flux tails cheap, which the full-axis time moments need.

The weight amplitude is real by default, which pins the incident packet's
mean crossing of x = 0 to t = 0 exactly; a launch offset x0 multiplies G by
e^{-ik x0} when a displaced reference is wanted.  Time phases follow the
packet's dispersion: quadratic (massive) or linear (photon analog, which
propagates without any spreading); the stationary states are always solved
from the Schroedinger-form equation, whose sub-barrier decay profile is what
the waveguide mapping reproduces.

Every evaluation is a contraction of spectral rows c_k psi_k(x) with
e^{-iE_k t/hbar}, taken as the carrier e^{-iE_ref t/hbar} at the packet's
mean energy, from each sample's own time, times the phases of
e_k = E_k - E_ref: those are far smaller than E_k t/hbar (which reaches
760 rad at 5 eV and 100 fs), so rounding them costs far less, and the flux
needs no carrier at all.  On a uniform time grid, cut into blocks of
B = 2^p (about sqrt(n_t)) samples, the phase of e at t0 + (m B + j) dt is
e^{-ie t0/hbar} e^{-ie m B dt/hbar} e^{-ie j dt/hbar}: one ladder of
exponentials at 2^i dt fills the base (j) and the block steps (m) by
doubling, about n_k (log2 n_t + 1) exponentials in place of n_k n_t, and one
matrix product per batch of at most PHASE_BLOCK operand entries does the rest.
Flux windows are memoised per propagator, so a window that several analyses
share is evaluated once, and a flux series evaluates only its widened
windows, reading each tail check from their own samples.

The incident packet, the reference of the projected durations and the
causality checks, is the same packet on the free potential, where
psi_k(x) = e^{ikx}: Propagator.free, evaluated by the same code as any other
potential.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .core import UNITS, ContractViolation, Grid1D, integrate
from .potential import PiecewisePotential
from .scattering import SolutionTable

TAIL_TOL = 1e-4          # relative |J|-mass change that ends the tail extension
FLUX_N_T = 2048          # samples of a flux series' requested window
PACKET_SPAN = 12.0       # packet grid half-width in delta_k: edges below 1e-12 of the peak
MAX_TAIL_EXTENSIONS = 8  # 25% window extensions before tail_captured=False
MIN_N_K = 128            # fewest packet nodes gaussian_packet accepts
PHASE_BLOCK = 1 << 19    # most entries of one phase build or stacked operand,
                         # and most samples one propagator's flux memo holds


@dataclass(frozen=True)
class Dispersion:
    """Energy-wavenumber relation used for the time evolution phases."""

    kind: str  # "massive" or "photon"

    def energy(self, k):
        if self.kind == "massive":
            return UNITS.energy(k)
        return UNITS.hbar * UNITS.c * np.asarray(k)

    def velocity(self, k):
        if self.kind == "massive":
            return UNITS.velocity(k)
        return UNITS.c * np.ones_like(np.asarray(k, dtype=float))


MASSIVE = Dispersion("massive")
PHOTON = Dispersion("photon")


@dataclass(frozen=True)
class SpectralPacket:
    """Weight amplitude G on a positive-k quadrature grid.

    Normalised so that integral |G|^2 dE = 1 on its own grid with
    dE = hbar v(k) dk.  `cutoff` records the barrier height whose sub-barrier
    band the grid was clipped to, if any; `density_weight` is the module's w(k).
    """

    grid: Grid1D
    G: np.ndarray
    k_bar: float
    delta_k: float
    dispersion: Dispersion = MASSIVE
    cutoff: float | None = None
    x0: float = 0.0
    t0: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "G", np.asarray(self.G, dtype=complex))
        if self.G.shape != self.grid.points.shape:
            raise ContractViolation("G must be sampled on the packet grid")
        if self.grid.lo <= 0:
            raise ContractViolation("all packet wavenumbers must be positive")

    @property
    def k(self) -> np.ndarray:
        return self.grid.points

    @property
    def w(self) -> np.ndarray:
        return self.grid.weights

    @property
    def E(self) -> np.ndarray:
        return self.dispersion.energy(self.k)

    @property
    def v(self) -> np.ndarray:
        return self.dispersion.velocity(self.k)

    @property
    def density_weight(self) -> np.ndarray:
        return np.ones_like(self.k) if self.dispersion.kind == "massive" else self.k / self.k_bar

    def norm_dE(self) -> float:
        """integral |G|^2 dE on the grid; 1 by construction."""
        return float(integrate(np.abs(self.G) ** 2 * UNITS.hbar * self.v, self.grid))

    def energy_average(self, values) -> float:
        """<...>_E with the v |G|^2 dE measure of the quasi-monochromatic bracket."""
        wts = self.w * self.v**2 * np.abs(self.G) ** 2
        return float(wts @ np.asarray(values) / np.sum(wts))

    def incident_flux_mass(self) -> float:
        """Analytic integral of the free-packet flux over all time: 2 pi |G|^2 w dk."""
        mass = np.abs(self.G) ** 2 * self.density_weight
        return float(2.0 * math.pi * integrate(mass, self.grid))


def gaussian_packet(
    k_bar: float,
    delta_k: float,
    n_k: int = 512,
    cutoff: float | None = None,
    x0: float = 0.0,
    t0: float = 0.0,
    dispersion: Dispersion = MASSIVE,
) -> SpectralPacket:
    """Gaussian weight G = C exp[-(k - k_bar)^2 / (2 dk)^2] on a GL grid.

    The grid spans k_bar +- PACKET_SPAN delta_k (12 delta_k, which puts the
    boundary samples below 1e-12 of the peak), clipped to k > 0 and, when
    `cutoff` is a barrier height, to the sub-barrier band E(k) < V0.

    x0 displaces the packet reference (a e^{-ik x0} phase); t0 shifts the
    launch time (e^{+iE t0/hbar}, an exact time translation of Psi).  The
    default real weight pins the incident packet's mean crossing of x = 0 to
    t = 0.
    """
    if not k_bar > 6.0 * delta_k:
        raise ContractViolation("need k_bar > 6 delta_k to keep the support at k > 0")
    if n_k < MIN_N_K:
        raise ContractViolation(f"need n_k >= {MIN_N_K}")
    lo = max(k_bar - PACKET_SPAN * delta_k, 1e-3 * k_bar)
    hi = k_bar + PACKET_SPAN * delta_k
    if cutoff is not None:
        hi = min(hi, float(UNITS.wavenumber(cutoff)))
        if not hi > lo:
            raise ContractViolation("cutoff band leaves no packet support")
    grid = Grid1D.gauss_legendre(lo, hi, n_k)
    G = np.exp(-((grid.points - k_bar) ** 2) / (2.0 * delta_k) ** 2).astype(complex)
    if x0 != 0.0:
        G = G * np.exp(-1j * grid.points * x0)
    if t0 != 0.0:
        G = G * np.exp(1j * dispersion.energy(grid.points) * t0 / UNITS.hbar)
    v = dispersion.velocity(grid.points)
    norm = float(integrate(np.abs(G) ** 2 * UNITS.hbar * v, grid))
    G /= math.sqrt(norm)
    return SpectralPacket(
        grid=grid, G=G, k_bar=k_bar, delta_k=delta_k,
        dispersion=dispersion, cutoff=cutoff, x0=x0, t0=t0,
    )


@dataclass(frozen=True)
class FluxSeries:
    """Sampled flux J(x, t) at fixed x with its sign-separated parts.

    J = J_plus + J_minus pointwise with J_plus >= 0 >= J_minus and disjoint
    support; tail_captured records whether extending the window 25% on both
    ends moved the |J| mass by less than the tail tolerance.
    """

    x: float
    t_grid: Grid1D
    J: np.ndarray
    J_plus: np.ndarray
    J_minus: np.ndarray
    tail_captured: bool
    abs_mass: float

    @property
    def t(self) -> np.ndarray:
        return self.t_grid.points


class Propagator:
    """Per-(potential, packet) cache of stationary states and evaluators.

    Building the table solves scattering once per spectral node; every psi,
    flux and moment afterwards is a dense-array contraction against it.
    `flux` keeps a memo of its results, keyed by x and a 64-bit hash of the
    samples and holding at most PHASE_BLOCK samples (oldest out first), so a
    window that several analyses share is evaluated once; the arrays it
    returns are read-only, since a repeated call returns the same one.  The
    memo is updated under a lock, so evaluations are thread-safe.  `free` is
    the same packet's propagator on the free potential, with its own memo.
    """

    def __init__(self, pot: PiecewisePotential, packet: SpectralPacket):
        self.pot = pot
        self.packet = packet
        # stationary problem is always the Schroedinger one at E = (hbar^2/2m) k^2
        self.table = SolutionTable(pot, UNITS.energy(packet.k))
        if packet.dispersion.kind == "massive":
            self._flux_pref = 2.0 * UNITS.hbar2_over_2m / UNITS.hbar  # hbar/m
        else:
            self._flux_pref = UNITS.c / packet.k_bar
        self._cw = packet.w * packet.G
        # time phases are taken against the carrier e^{-iE_ref t/hbar}
        self._E_ref = float(packet.dispersion.energy(packet.k_bar))
        self._dE = packet.E - self._E_ref
        self._memo: dict = {}
        self._memo_samples = 0
        self._memo_lock = threading.Lock()
        self._free = None

    @property
    def free(self) -> Propagator:
        """The same packet on the free potential: the incident packet, built
        on first read.  A free-potential propagator returns itself instead of
        storing itself, which would be a reference cycle."""
        if self.pot.is_free:
            return self
        with self._memo_lock:
            if self._free is None:
                self._free = Propagator(PiecewisePotential(), self.packet)
        return self._free

    def _phases(self, ts: np.ndarray) -> np.ndarray:
        """e^{-i(E - E_ref)t/hbar} at every t of ts, shape (n_k, len(ts))."""
        ph = np.empty((self._dE.size, ts.size), dtype=complex)
        np.multiply.outer(self._dE, ts, out=ph)
        ph *= -1j  # in place throughout
        ph /= UNITS.hbar
        return np.exp(ph, out=ph)

    def _carrier(self, ts) -> np.ndarray:
        """e^{-iE_ref t/hbar} at every t of ts, from each sample's own time."""
        return np.exp(-1j * self._E_ref * np.asarray(ts, dtype=float) / UNITS.hbar)

    def _contract(self, rows, ts) -> np.ndarray:
        """rows @ exp(-i(E - E_ref)t/hbar), the phases factored on a uniform grid.

        This is rows @ exp(-iEt/hbar) without the carrier e^{-iE_ref t/hbar}
        common to every row, so |.|, the flux and every conj(a) b of two
        contracted rows are the same with or without it; the phases hold only
        (E - E_ref) t, whose rounding is far smaller than that of E t.  With
        e = E - E_ref and blocks of B = 2^p samples, p = ceil(ceil(log2 n_t)/2),
        sample m B + j of a batch that starts at t0 has the phase
        e^{-ie t0/hbar} e^{-ie m B dt/hbar} e^{-ie j dt/hbar}.  `_doubling`
        fills the base (j < B) and the rows' block steps from one ladder
        e^{-ie 2^i dt/hbar}, so an evaluation makes n_k (ceil(log2(nb B)) +
        batches) exponentials, 13 n_k for a flux at n_t = 3073, and each batch
        is one product with the base.  B is capped at PHASE_BLOCK / n_k, and a
        batch holds as many blocks as keep its operand within PHASE_BLOCK
        entries (one at least), so no n_k x n_t array is built.  A grid that
        is not uniform to rounding is the case B = 1, every start phase direct.
        """
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        rows = np.asarray(rows, dtype=complex)
        n_t, n_r, n_k = ts.size, len(rows), self._dE.size
        if n_t == 0:
            return np.empty((n_r, 0), dtype=complex)
        dt = (ts[-1] - ts[0]) / max(n_t - 1, 1)
        # linspace samples sit within a few ulps of max|t| of ts[0] + i dt
        uniform = np.all(np.abs(np.diff(ts) - dt) <= 8 * np.finfo(float).eps * np.max(np.abs(ts)))
        p = min(((n_t - 1).bit_length() + 1) // 2,
                max(1, PHASE_BLOCK // n_k).bit_length() - 1) if uniform else 0
        B = 1 << p
        nb = -(-n_t // B)
        per = min(nb, max(1, PHASE_BLOCK // (max(n_r, 1) * n_k)))  # blocks per batch
        base = np.ones((B, n_k), dtype=complex)
        if uniform:
            ladder = self._phases(dt * 2.0 ** np.arange(p + (per - 1).bit_length())).T
            _doubling(base, ladder[:p])
        out = np.empty((nb, n_r, B), dtype=complex)
        for m0 in range(0, nb, per):
            n = min(per, nb - m0)
            if uniform:  # the batch's start phase on the rows, then a step per block
                op = np.empty((n, n_r, n_k), dtype=complex)
                np.multiply(rows, self._phases(ts[m0 * B:m0 * B + 1]).T, out=op[0])
                _doubling(op, ladder[p:])
            else:
                op = self._phases(ts[m0:m0 + n]).T[:, None] * rows
            np.matmul(op.reshape(-1, n_k), base.T, out=out[m0:m0 + n].reshape(-1, B))
        return out.transpose(1, 0, 2).reshape(n_r, nb * B)[:, :n_t]

    # -- field evaluations ----------------------------------------------
    def flux(self, x: float, ts) -> np.ndarray:
        """J(x, t) at the samples ts, read-only and memoised (see the class)."""
        ts = np.asarray(ts, dtype=float)
        key = (float(x), ts.shape, hash(ts.tobytes()))
        J = self._memo.get(key)
        if J is not None:
            return J
        ps, dps = self.table.psi_dpsi(x)
        # Psi and dPsi/dx without their common carrier, which drops out of J
        Psi, dPsi = self._contract([self._cw * ps, self._cw * dps], ts)
        J = self._flux_pref * np.imag(np.conj(Psi) * dPsi)
        J.flags.writeable = False
        with self._memo_lock:
            if self._memo.setdefault(key, J) is J:
                self._memo_samples += J.size
            while self._memo_samples > PHASE_BLOCK:
                self._memo_samples -= self._memo.pop(next(iter(self._memo))).size
        return J

    def density(self, x: float, ts) -> np.ndarray:
        """Re[Psi* Psi_w], the density the flux conserves (module docstring)."""
        cw = self._cw * self.table.psi_dpsi(x)[0]
        Psi, Psi_w = self._contract([cw, cw * self.packet.density_weight], ts)
        return np.real(np.conj(Psi) * Psi_w)

    def density_rate(self, x: float, ts) -> np.ndarray:
        """d Re[Psi* Psi_w]/dt from the analytic time derivative of the superposition."""
        cw = self._cw * self.table.psi_dpsi(x)[0]
        rate = -1j * self.packet.E / UNITS.hbar
        w = self.packet.density_weight
        Psi, Psi_w, dPsi, dPsi_w = self._contract([cw, cw * w, cw * rate, cw * rate * w], ts)
        return np.real(np.conj(dPsi) * Psi_w + np.conj(Psi) * dPsi_w)

    def psi_grid(self, xs, ts) -> np.ndarray:
        """Psi on an (x, t) product grid, shape (len(xs), len(ts))."""
        rows = self.table.psi_dpsi(xs)[0]
        out = self._contract(np.multiply(self._cw, rows, out=rows), ts)
        out *= self._carrier(ts)
        return out

    # -- default analysis window -----------------------------------------
    def suggest_window(self, x: float) -> tuple:
        pk = self.packet
        v_bar = float(pk.dispersion.velocity(pk.k_bar))
        sigma_x = 1.0 / (2.0 * pk.delta_k)
        sigma_t = sigma_x / v_bar
        candidates = [pk.t0, (x - pk.x0) / v_bar + pk.t0]
        if not self.pot.is_free and x < self.pot.x_right:
            candidates.append((2.0 * self.pot.x_left - x - pk.x0) / v_bar + pk.t0)
        t_lo, t_hi = min(candidates), max(candidates)
        if pk.dispersion.kind == "massive":
            t_spread = UNITS.hbar * sigma_x**2 / UNITS.hbar2_over_2m
            widen = math.sqrt(1.0 + (max(abs(t_lo), abs(t_hi)) / t_spread) ** 2)
        else:
            widen = 1.0
        pad = 10.0 * sigma_t * widen
        return t_lo - pad, t_hi + pad

    def flux_series(self, x: float, t_range: tuple | None = None) -> FluxSeries:
        """Flux samples at x with tail-capture control.

        The requested window (t_range, or suggest_window(x)) is sampled at
        FLUX_N_T points and extended by 25% on both ends until the integral
        of |J| moves by less than TAIL_TOL relative, up to
        MAX_TAIL_EXTENSIONS rounds, at the same sample density; a failure is
        reported through tail_captured=False rather than raised.  Only the
        widened windows are evaluated: the first round reads the requested
        window's |J| mass as the trapezoid sum over the widened samples inside
        it, and each later round compares with the window before, so a tail
        captured in the first round costs one `flux` call.
        """
        lo, hi = t_range if t_range is not None else self.suggest_window(x)
        density = FLUX_N_T / (hi - lo)
        mass = None
        captured = False
        for _ in range(MAX_TAIL_EXTENSIONS):
            pad = 0.25 * (hi - lo)
            wide = (lo - pad, hi + pad)
            g = Grid1D.uniform(*wide, min(int(density * (wide[1] - wide[0])) + 1, 1 << 17))
            J = self.flux(x, g.points)
            if mass is None:
                inner = np.abs(J[(g.points >= lo) & (g.points <= hi)])
                mass = g.weights[1] * (np.sum(inner) - 0.5 * (inner[0] + inner[-1]))
            mass, last = float(integrate(np.abs(J), g)), mass
            if abs(mass - last) <= TAIL_TOL * max(mass, 1e-300):
                captured = True
                break
            lo, hi = wide
        return FluxSeries(
            x=float(x), t_grid=g, J=J,
            J_plus=np.where(J > 0, J, 0.0),
            J_minus=np.where(J < 0, J, 0.0),
            tail_captured=captured, abs_mass=mass,
        )


def _doubling(table: np.ndarray, rungs) -> None:
    """Fill table[1:] in place: rows [m, 2m) are rows [0, m) times rungs[log2 m],
    so row j is row 0 times the rungs of the set bits of j."""
    n = len(table)
    for i in range((n - 1).bit_length()):
        m = 1 << i
        np.multiply(table[:min(m, n - m)], rungs[i], out=table[m:2 * m])


_CACHE: dict = {}
_CACHE_LIMIT = 8


def propagator(pot: PiecewisePotential, packet: SpectralPacket) -> Propagator:
    key = (id(pot), id(packet))
    prop = _CACHE.get(key)
    if prop is None or prop.pot is not pot or prop.packet is not packet:
        prop = Propagator(pot, packet)
        if len(_CACHE) >= _CACHE_LIMIT:
            _CACHE.pop(next(iter(_CACHE)))
        _CACHE[key] = prop
    return prop
