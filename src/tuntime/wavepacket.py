"""Time-dependent wavepackets built as spectral superpositions of exact
stationary scattering states,

    Psi(x, t) = integral dk G(k - k_bar) psi_k(x) e^{-i E(k) t / hbar},

with the probability flux J = (hbar/m) Im[Psi* dPsi/dx] evaluated from the
analytic spatial derivative of the integrand (no finite differences in x).
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
e^{-iE_k t/hbar}.  On a uniform time grid, cut into blocks of
B = ceil(sqrt(n_t)) samples starting at s_m, that phase factors as
e^{-iE s_m/hbar} e^{-iE j dt/hbar}: n_k (B + ceil(n_t/B)) exponentials per
evaluation instead of n_k n_t, and a few rows take many blocks per matrix
product.  No phase build exceeds PHASE_BLOCK entries, so an evaluation's
memory does not grow with n_t beyond its own output.  The space-time
integral of |Psi|^2 skips the time samples altogether: in the energy
representation the trapezoid sum over t has a closed form in E - E'.  Flux
windows are memoised per propagator, so a window that several analyses share
is evaluated once.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .core import UNITS, ContractViolation, Grid1D, UnitSystem, integrate
from .potential import PiecewisePotential
from .scattering import SolutionTable

TAIL_TOL = 1e-4          # relative |J|-mass change that ends the tail extension
MAX_TAIL_EXTENSIONS = 8  # 25% window extensions before tail_captured=False
PHASE_BLOCK = 1 << 19    # most entries of one phase build, stacked operand or E-E' batch,
                         # and most samples one propagator's flux memo holds


@dataclass(frozen=True)
class Dispersion:
    """Energy-wavenumber relation used for the time evolution phases."""

    kind: str  # "massive" or "photon"
    units: UnitSystem = UNITS

    def energy(self, k):
        if self.kind == "massive":
            return self.units.energy(k)
        return self.units.hbar * self.units.c * np.asarray(k)

    def velocity(self, k):
        if self.kind == "massive":
            return self.units.velocity(k)
        return self.units.c * np.ones_like(np.asarray(k, dtype=float))


MASSIVE = Dispersion("massive")
PHOTON = Dispersion("photon")


@dataclass(frozen=True)
class SpectralPacket:
    """Weight amplitude G on a positive-k quadrature grid.

    Normalised so that integral |G|^2 dE = 1 on its own grid with
    dE = hbar v(k) dk.  `cutoff` records the barrier height whose sub-barrier
    band the grid was clipped to, if any.
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

    def norm_dE(self) -> float:
        """integral |G|^2 dE on the grid; 1 by construction."""
        hbar = self.dispersion.units.hbar
        return float(integrate(np.abs(self.G) ** 2 * hbar * self.v, self.grid))

    def energy_average(self, values) -> float:
        """<...>_E with the v |G|^2 dE measure of the quasi-monochromatic bracket."""
        wts = self.w * self.v**2 * np.abs(self.G) ** 2
        return float(wts @ np.asarray(values) / np.sum(wts))

    def incident_flux_mass(self) -> float:
        """Analytic integral of the free-packet flux over all time: 2 pi |G|^2 dk."""
        return float(2.0 * math.pi * integrate(np.abs(self.G) ** 2, self.grid))


def gaussian_packet(
    k_bar: float,
    delta_k: float,
    n_k: int = 512,
    cutoff: float | None = None,
    span: float = 12.0,
    x0: float = 0.0,
    t0: float = 0.0,
    dispersion: Dispersion = MASSIVE,
    cutoff_keeps_above: bool = False,
    units: UnitSystem = UNITS,
) -> SpectralPacket:
    """Gaussian weight G = C exp[-(k - k_bar)^2 / (2 dk)^2] on a GL grid.

    The grid spans k_bar +- span*delta_k (span 12 puts the boundary samples
    below 1e-12 of the peak), clipped to k > 0 and, when `cutoff` is a barrier
    height, to the sub-barrier band E(k) < V0.  `cutoff_keeps_above` flips the
    retained band to E > V0 to reproduce the as-printed step function.

    x0 displaces the packet reference (a e^{-ik x0} phase); t0 shifts the
    launch time (e^{+iE t0/hbar}, an exact time translation of Psi).  The
    default real weight pins the incident packet's mean crossing of x = 0 to
    t = 0.
    """
    if not k_bar > 6.0 * delta_k:
        raise ContractViolation("need k_bar > 6 delta_k to keep the support at k > 0")
    if n_k < 128:
        raise ContractViolation("need n_k >= 128")
    lo = max(k_bar - span * delta_k, 1e-3 * k_bar)
    hi = k_bar + span * delta_k
    if cutoff is not None:
        k_edge = float(units.wavenumber(cutoff))
        if cutoff_keeps_above:
            lo = max(lo, k_edge)
        else:
            hi = min(hi, k_edge)
        if not hi > lo:
            raise ContractViolation("cutoff band leaves no packet support")
    grid = Grid1D.gauss_legendre(lo, hi, n_k)
    G = np.exp(-((grid.points - k_bar) ** 2) / (2.0 * delta_k) ** 2).astype(complex)
    if x0 != 0.0:
        G = G * np.exp(-1j * grid.points * x0)
    if t0 != 0.0:
        G = G * np.exp(1j * dispersion.energy(grid.points) * t0 / dispersion.units.hbar)
    hbar = dispersion.units.hbar
    v = dispersion.velocity(grid.points)
    norm = float(integrate(np.abs(G) ** 2 * hbar * v, grid))
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
    component: str
    tail_captured: bool
    abs_mass: float

    @property
    def t(self) -> np.ndarray:
        return self.t_grid.points


class Propagator:
    """Per-(potential, packet) cache of stationary states and evaluators.

    Building the table solves scattering once per spectral node; every psi,
    flux and moment afterwards is a dense-array contraction against it.
    `flux` keeps a memo of its results, keyed by x, component and a 64-bit
    hash of the samples and holding at most PHASE_BLOCK samples (oldest out
    first), so a window that several analyses share is evaluated once; the
    arrays it returns are read-only, since a repeated call returns the same
    one.  The memo is updated under a lock, so evaluations are thread-safe.
    """

    def __init__(self, pot: PiecewisePotential, packet: SpectralPacket,
                 units: UnitSystem = UNITS):
        self.pot = pot
        self.packet = packet
        self.units = units
        # stationary problem is always the Schroedinger one at E = (hbar^2/2m) k^2
        self.table = SolutionTable(pot, units.energy(packet.k), units)
        if packet.dispersion.kind == "massive":
            self._flux_pref = 2.0 * units.hbar2_over_2m / units.hbar  # hbar/m
        else:
            self._flux_pref = units.c / packet.k_bar
        self._cw = packet.w * packet.G
        self._memo: dict = {}
        self._memo_samples = 0
        self._memo_lock = threading.Lock()

    # -- spectral rows -------------------------------------------------
    def _modes(self, x: float, component: str):
        if component == "full":
            return self.table.psi_dpsi(x)
        ps = self._psi_rows([x], component)[0]
        return ps, 1j * self.packet.k * ps

    def _psi_rows(self, xs, component: str) -> np.ndarray:
        """psi_k(x) at every x of xs, without psi', shape (len(xs), n_k)."""
        xs = np.asarray(xs, dtype=float)
        if component == "full":
            return self.table.psi(xs)
        if component not in ("free", "transmitted"):
            raise ContractViolation(f"unknown component {component!r}")
        rows = np.exp(1j * np.multiply.outer(xs, self.packet.k))
        if component == "transmitted":
            np.multiply(self.table.A_T, rows, out=rows)
        return rows

    def _phases(self, ts: np.ndarray) -> np.ndarray:
        ph = np.empty((self.packet.E.size, ts.size), dtype=complex)
        np.multiply.outer(self.packet.E, ts, out=ph)
        ph *= -1j  # in place throughout
        ph /= self.units.hbar
        return np.exp(ph, out=ph)

    def _contract(self, rows, ts) -> np.ndarray:
        """rows @ exp(-iEt/hbar), with the phases factored on a uniform grid.

        On t = s_m + j dt, s_m = ts[m B] the start of block m and 0 <= j < B,
        the phase is e^{-iE s_m/hbar} e^{-iE j dt/hbar}.  The base
        e^{-iE j dt/hbar} (n_k x B) is built once, so an evaluation makes
        n_k (B + M) exponentials with M = ceil(n_t/B), in place of n_k n_t.
        With at most B rows, the rows scaled by the start phases of B // rows
        blocks are stacked into one (rows x blocks) x n_k operand of at most
        n_k B entries, and one product per row with the base fills all those
        blocks; with more rows, the start phase scales the smaller operand,
        the base, and each block is one product.  The output is padded to
        whole blocks and trimmed on return.  B = ceil(sqrt(n_t)), capped so
        that neither the base nor a batch of start phases exceeds PHASE_BLOCK
        entries; no n_k x n_t array is built.  A grid that is not uniform to
        rounding is the case B = 1: base 1 and s_m = t_m.
        """
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        rows = np.asarray(rows, dtype=complex)
        n_t, n_r, cap = ts.size, len(rows), max(1, PHASE_BLOCK // self.packet.E.size)
        if n_t == 0:
            return np.empty((n_r, 0), dtype=complex)
        dt = (ts[-1] - ts[0]) / max(n_t - 1, 1)
        # linspace samples sit within a few ulps of max|t| of ts[0] + i dt
        uniform = np.all(np.abs(np.diff(ts) - dt) <= 8 * np.finfo(float).eps * np.max(np.abs(ts)))
        B = min(math.isqrt(n_t - 1) + 1, cap) if uniform else 1
        base = self._phases(dt * np.arange(B))
        stacked = n_r <= B
        out = np.empty((n_r, -(-n_t // B), B), dtype=complex)
        per = B // max(n_r, 1) if stacked else cap  # blocks per batch of start phases
        for m0 in range(0, out.shape[1], per):
            starts = self._phases(ts[m0 * B:(m0 + per) * B:B])
            blocks = out[:, m0:m0 + starts.shape[1]]
            if stacked:
                np.matmul(rows[:, None] * starts.T, base, out=blocks)
            else:
                for m in range(starts.shape[1]):
                    np.matmul(rows, starts[:, m, None] * base, out=blocks[:, m])
        return out.reshape(n_r, out.shape[1] * B)[:, :n_t]

    # -- field evaluations ----------------------------------------------
    def psi(self, x: float, ts, component: str = "full") -> np.ndarray:
        return self.psi_grid([x], ts, component)[0]

    def psi_dpsi(self, x: float, ts, component: str = "full"):
        ps, dps = self._modes(x, component)
        return tuple(self._contract([self._cw * ps, self._cw * dps], ts))

    def flux(self, x: float, ts, component: str = "full") -> np.ndarray:
        """J(x, t) at the samples ts, read-only and memoised (see the class)."""
        ts = np.asarray(ts, dtype=float)
        key = (float(x), component, ts.shape, hash(ts.tobytes()))
        J = self._memo.get(key)
        if J is not None:
            return J
        Psi, dPsi = self.psi_dpsi(x, ts, component)
        J = self._flux_pref * np.imag(np.conj(Psi) * dPsi)
        J.flags.writeable = False
        with self._memo_lock:
            if self._memo.setdefault(key, J) is J:
                self._memo_samples += J.size
            while self._memo_samples > PHASE_BLOCK:
                self._memo_samples -= self._memo.pop(next(iter(self._memo))).size
        return J

    def density(self, x: float, ts, component: str = "full") -> np.ndarray:
        return np.abs(self.psi(x, ts, component)) ** 2

    def density_rate(self, x: float, ts, component: str = "full") -> np.ndarray:
        """d|Psi|^2/dt from the analytic time derivative of the superposition."""
        cw = self._cw * self._psi_rows([x], component)[0]
        Psi, dPsi_dt = self._contract([cw, cw * (-1j * self.packet.E / self.units.hbar)], ts)
        return 2.0 * np.real(np.conj(Psi) * dPsi_dt)

    def psi_grid(self, xs, ts, component: str = "full") -> np.ndarray:
        """Psi on an (x, t) product grid, shape (len(xs), len(ts))."""
        rows = self._psi_rows(xs, component)
        return self._contract(np.multiply(self._cw, rows, out=rows), ts)

    def density_integral(self, xg: Grid1D, t_range: tuple, n_t: int) -> float:
        """integral dt integral dx |Psi|^2 with xg's rule in x and, in t, the
        trapezoid rule of Grid1D.uniform(*t_range, n_t), summed in the energy
        representation.

        With A_k(x) = c_k psi_k(x) and w_k = E_k/hbar,
        |Psi|^2 = sum_kk' conj(A_k) A_k' e^{i(w_k - w_k')t}, so the double sum
        is Re sum_kk' S_kk' F_kk' with S = A^H diag(xg weights) A and F the
        trapezoid sum of e^{i(w_k - w_k')t} over t = lo + j dt, in closed form
        with th = (w_k - w_k') dt/2:

            F = dt e^{i(w_k - w_k') t_mid} [sin(n th)/sin th - cos((n-1) th)]
              = dt cot(th) (p_k conj(p_k') - q_k conj(q_k')) / 2i,

        p = e^{i w hi}, q = e^{i w lo}, and F = hi - lo on the diagonal.  That
        is the same quadrature reordered, with 2 n_k exponentials and no
        n_x x n_t array; the k-rows go in batches that keep every temporary
        within PHASE_BLOCK entries.
        """
        lo, hi = t_range
        if not (hi > lo and n_t >= 2):
            raise ContractViolation("need hi > lo and n_t >= 2")
        dt = (hi - lo) / (n_t - 1)
        A = self._psi_rows(xg.points, "full")
        A *= self._cw
        A *= np.sqrt(xg.weights)[:, None]  # S = A^H A
        w = self.packet.E / self.units.hbar
        p, q = np.exp(1j * hi * w), np.exp(1j * lo * w)
        total = (hi - lo) * np.vdot(A, A).real
        step = max(1, PHASE_BLOCK // max(A.shape))
        for c in range(0, w.size, step):
            th = 0.5 * dt * np.subtract.outer(w[c:c + step], w)
            SC = A[:, c:c + step].conj().T @ A
            SC *= np.divide(1.0, np.tan(th), out=np.zeros_like(th), where=th != 0.0)
            total += 0.5 * dt * (p[c:c + step] @ SC @ p.conj() - q[c:c + step] @ SC @ q.conj()).imag
        return float(total)

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
            t_spread = self.units.hbar * sigma_x**2 / self.units.hbar2_over_2m
            widen = math.sqrt(1.0 + (max(abs(t_lo), abs(t_hi)) / t_spread) ** 2)
        else:
            widen = 1.0
        pad = 10.0 * sigma_t * widen
        return t_lo - pad, t_hi + pad

    def flux_series(
        self,
        x: float,
        t_range: tuple | None = None,
        n_t: int = 2048,
        eps_tail: float = TAIL_TOL,
        component: str = "full",
    ) -> FluxSeries:
        """Flux samples at x with tail-capture control.

        The window is extended by 25% on both ends until the integral of |J|
        moves by less than eps_tail relative, up to MAX_TAIL_EXTENSIONS rounds; a
        failure is reported through tail_captured=False rather than raised.
        """
        if n_t < 256:
            raise ContractViolation("need n_t >= 256")
        lo, hi = t_range if t_range is not None else self.suggest_window(x)
        density = n_t / (hi - lo)

        def series(lo, hi):
            n = min(int(density * (hi - lo)) + 1, 1 << 17)
            g = Grid1D.uniform(lo, hi, max(n, 256))
            J = self.flux(x, g.points, component)
            return g, J, float(integrate(np.abs(J), g))

        g, J, mass = series(lo, hi)
        captured = False
        for _ in range(MAX_TAIL_EXTENSIONS):
            pad = 0.25 * (hi - lo)
            g2, J2, mass2 = series(lo - pad, hi + pad)
            if abs(mass2 - mass) <= eps_tail * max(mass2, 1e-300):
                captured = True
                g, J, mass = g2, J2, mass2
                break
            lo, hi = lo - pad, hi + pad
            g, J, mass = g2, J2, mass2
        return FluxSeries(
            x=float(x), t_grid=g, J=J,
            J_plus=np.where(J > 0, J, 0.0),
            J_minus=np.where(J < 0, J, 0.0),
            component=component, tail_captured=captured, abs_mass=mass,
        )


_CACHE: dict = {}
_CACHE_LIMIT = 8


def propagator(pot: PiecewisePotential, packet: SpectralPacket,
               units: UnitSystem = UNITS) -> Propagator:
    key = (id(pot), id(packet), id(units))
    prop = _CACHE.get(key)
    if prop is None or prop.pot is not pot or prop.packet is not packet:
        prop = Propagator(pot, packet, units)
        if len(_CACHE) >= _CACHE_LIMIT:
            _CACHE.pop(next(iter(_CACHE)))
        _CACHE[key] = prop
    return prop


def psi(pot: PiecewisePotential, packet: SpectralPacket, x: float, t: float,
        component: str = "full") -> complex:
    """Psi(x, t) by quadrature of the spectral integral on the packet grid."""
    return complex(propagator(pot, packet).psi(x, [t], component)[0])


def flux_series(pot: PiecewisePotential, packet: SpectralPacket, x: float,
                t_range: tuple | None = None, n_t: int = 2048,
                eps_tail: float = TAIL_TOL, component: str = "full") -> FluxSeries:
    return propagator(pot, packet).flux_series(
        x, t_range=t_range, n_t=n_t, eps_tail=eps_tail, component=component
    )
