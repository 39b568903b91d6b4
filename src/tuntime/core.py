"""Shared numerical plumbing: the unit system, the error types, quadrature
grids, the package's one numerical derivative and its one bracket search.

Internal units are eV / Angstrom / fs throughout.  The only physical inputs
are hbar, the kinetic constant hbar^2/(2 m_e), and the speed of light, fixed
in UNITS, which every module reads; every wavenumber, velocity and time in
the package derives from these three.
Every stationary time that is an energy (or wavenumber) derivative takes it
through `central_difference`, which evaluates a vectorised function once on
a stacked array of shifted arguments; every peak or crossing search goes
through `bracket_search`, one vectorised call per round for all brackets.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np


BRACKET_SAMPLES = 33  # samples per bracket and round: each round narrows 16-32 fold


class ContractViolation(ValueError):
    """A documented precondition was violated by the caller."""


class QuadratureError(RuntimeError):
    """A quadrature failed its convergence or tail-capture requirement."""


class BranchResolutionError(RuntimeError):
    """Phase-branch bookkeeping could not reproduce the input amplitudes."""


class NoSuchFluxError(RuntimeError):
    """The requested sign-component of the flux carries no weight.

    Raised instead of returning garbage statistics, and distinct from a mere
    numerical underflow: the check is relative to the total |J| mass.
    """


@dataclass(frozen=True)
class UnitSystem:
    """Physical constants fixing the eV / Angstrom / fs unit system.

    hbar            -- action, eV fs
    hbar2_over_2m   -- kinetic constant hbar^2/(2m), eV Angstrom^2
    c               -- vacuum light speed, Angstrom / fs
    """

    hbar: float = 0.6582119569
    hbar2_over_2m: float = 3.8099821
    c: float = 2997.92458

    def __post_init__(self):
        if not (self.hbar > 0 and self.hbar2_over_2m > 0 and self.c > 0):
            raise ContractViolation("unit constants must be strictly positive")

    @property
    def mass(self) -> float:
        """Particle mass in eV fs^2 / Angstrom^2."""
        return self.hbar**2 / (2.0 * self.hbar2_over_2m)

    def wavenumber(self, E: float):
        """k = sqrt(E / (hbar^2/2m)) for E in eV, in 1/Angstrom."""
        return np.sqrt(np.asarray(E) / self.hbar2_over_2m)

    def energy(self, k: float):
        """E = (hbar^2/2m) k^2 in eV."""
        return self.hbar2_over_2m * np.asarray(k) ** 2

    def velocity(self, k: float):
        """Group velocity hbar k / m = 2 (hbar^2/2m) k / hbar, Angstrom/fs."""
        return 2.0 * self.hbar2_over_2m * np.asarray(k) / self.hbar

    def decay_constant(self, V0: float, E: float):
        """kappa = sqrt(2m(V0-E))/hbar for E < V0, in 1/Angstrom."""
        return np.sqrt((np.asarray(V0) - np.asarray(E)) / self.hbar2_over_2m)


UNITS = UnitSystem()


@functools.lru_cache(maxsize=64)
def _legendre_rule(n: int) -> tuple:
    """Gauss-Legendre nodes and weights on [-1, 1], one eigenvalue solve per n
    (read-only, since every later grid of that order is built from them)."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = w.flags.writeable = False
    return x, w


@dataclass(frozen=True)
class Grid1D:
    """Quadrature rule: strictly increasing sample points with positive weights."""

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "points", np.asarray(self.points, dtype=float))
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))
        if self.points.ndim != 1 or self.points.shape != self.weights.shape:
            raise ContractViolation("points and weights must be 1-d and same length")
        if len(self.points) < 2 or np.any(np.diff(self.points) <= 0):
            raise ContractViolation("grid points must be strictly increasing")
        if np.any(self.weights <= 0):
            raise ContractViolation("all quadrature weights must be positive")

    def __len__(self) -> int:
        return len(self.points)

    @property
    def lo(self) -> float:
        return float(self.points[0])

    @property
    def hi(self) -> float:
        return float(self.points[-1])

    @classmethod
    def gauss_legendre(cls, lo: float, hi: float, n: int) -> "Grid1D":
        if not hi > lo:
            raise ContractViolation("need hi > lo")
        x, w = _legendre_rule(int(n))
        mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
        return cls(mid + half * x, half * w)

    @classmethod
    def composite_gauss(cls, lo: float, hi: float, panels: int, order: int = 12) -> "Grid1D":
        """Panel-wise Gauss-Legendre; robust for oscillatory integrands."""
        if not hi > lo:
            raise ContractViolation("need hi > lo")
        x, w = _legendre_rule(int(order))
        edges = np.linspace(lo, hi, int(panels) + 1)
        mids = 0.5 * (edges[1:] + edges[:-1])
        halfs = 0.5 * np.diff(edges)
        pts = (mids[:, None] + halfs[:, None] * x).ravel()
        wts = (halfs[:, None] * w).ravel()
        return cls(pts, wts)

    @classmethod
    def uniform(cls, lo: float, hi: float, n: int) -> "Grid1D":
        """Uniform grid with trapezoid weights (used for time series)."""
        if not hi > lo:
            raise ContractViolation("need hi > lo")
        pts = np.linspace(lo, hi, int(n))
        dt = pts[1] - pts[0]
        wts = np.full(int(n), dt)
        wts[0] = wts[-1] = 0.5 * dt
        return cls(pts, wts)


def integrate(values, grid: Grid1D):
    """Weighted sum  sum_i w_i f_i  over the grid; linear in the samples."""
    values = np.asarray(values)
    if values.shape[-1] != len(grid):
        raise ContractViolation(
            f"sample count {values.shape[-1]} does not match grid length {len(grid)}"
        )
    return values @ grid.weights


def central_difference(f, x, rel_step: float = 1e-6, periodic: bool = False):
    """Central-difference derivative df/dx at x > 0, a scalar or an array.

    f is vectorised: it is called once as f(xs, rows) on the stacked array
    xs = [x - h, x + h] with h = rel_step * x, where rows gives the index
    into x.ravel() of each stacked entry (so that f can evaluate each entry
    with its own row's parameters, such as a potential per row), and must
    return one finite value per entry.  A periodic f (a phase) has each
    difference wrapped into [-pi, pi]; entries whose wrapped difference still
    exceeds pi/2 straddle a fast phase swing, and only they are evaluated
    again, at a hundredth of the step, until the step falls below 1e-13 * x,
    where QuadratureError is raised.  A scalar x returns a float.
    """
    if not 0 < rel_step < 1:
        raise ContractViolation("central_difference needs 0 < rel_step < 1")
    x = np.asarray(x, dtype=float)
    if not np.all(x > 0):
        raise ContractViolation("central_difference needs x > 0")
    xs = x.ravel()
    out = np.empty(xs.shape)
    todo = np.arange(len(xs))
    while len(todo):
        h = rel_step * xs[todo]
        vals = np.asarray(f(np.concatenate([xs[todo] - h, xs[todo] + h]),
                            np.concatenate([todo, todo])))
        lo, hi = vals[: len(todo)], vals[len(todo):]
        bad = ~(np.isfinite(lo) & np.isfinite(hi))
        if np.any(bad):
            raise ContractViolation(f"non-finite function value near x={xs[todo][bad][0]}")
        diff = hi - lo
        if periodic:
            diff -= 2.0 * np.pi * np.round(diff / (2.0 * np.pi))
        out[todo] = diff / (2.0 * h)
        if not periodic:
            break
        swing = np.abs(diff) > 0.5 * np.pi
        if np.any(swing) and rel_step < 1e-13:
            raise QuadratureError(
                f"phase swings faster than any resolvable step at x={xs[todo][swing][0]}"
            )
        todo = todo[swing]
        rel_step *= 0.01
    return float(out[0]) if x.ndim == 0 else out.reshape(x.shape)


def bracket_search(f, lo, hi, rule: str, tol, level=0.0):
    """Narrow the brackets [lo_i, hi_i] together until each is within tol_i;
    returns their midpoints as a 1-d array.

    Each round calls the vectorised f once on BRACKET_SAMPLES evenly spaced
    samples (endpoints included) of every bracket still wider than its tol and
    keeps the sub-bracket its rule picks: "max" the two spacings around the
    largest sample, "sign" the spacing up to the first sample on the other
    side of level_i than the sample at lo (or on level_i).  A "sign" bracket
    may run backwards (hi < lo), to search from lo.  A bracket that rounding
    no longer lets shrink stops where it is.
    """
    if rule not in ("max", "sign"):
        raise ContractViolation(f"unknown bracket_search rule {rule!r}")
    lo, hi, tol, level = (np.array(v, dtype=float, ndmin=1)
                          for v in np.broadcast_arrays(lo, hi, tol, level))
    s = np.linspace(0.0, 1.0, BRACKET_SAMPLES)
    todo = np.abs(hi - lo) > tol
    while np.any(todo):
        x = lo[todo, None] + (hi - lo)[todo, None] * s
        y = np.asarray(f(x.ravel())).reshape(x.shape) - level[todo, None]
        if rule == "max":
            j = np.argmax(y, axis=1)
            i0, i1 = np.maximum(j - 1, 0), np.minimum(j + 1, BRACKET_SAMPLES - 1)
        else:
            i1 = 1 + np.argmax(np.sign(y[:, 1:]) != np.sign(y[:, :1]), axis=1)
            i0 = i1 - 1
        rows = np.arange(len(x))
        width = np.abs(hi[todo] - lo[todo])
        lo[todo], hi[todo] = x[rows, i0], x[rows, i1]
        narrowed = np.abs(hi[todo] - lo[todo])
        todo[todo] = (narrowed > tol[todo]) & (narrowed < width)
    return 0.5 * (lo + hi)
