"""Shared numerical plumbing: the unit system, the error types, quadrature
grids and the package's one numerical derivative.

Internal units are eV / Angstrom / fs throughout.  The only physical inputs
are hbar, the kinetic constant hbar^2/(2 m_e), and the speed of light, fixed
in UNITS, which every module reads; every wavenumber, velocity and time in
the package derives from these three.
Every stationary time that is an energy (or wavenumber) derivative takes it
through `central_difference` of ln|A_T|, i arg A_T or ln A_T, evaluated once
on a stacked array of shifted arguments.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np


# opacity (decay constant x width: chi a of a barrier, L kappa_em of a guide)
# below which the opaque-limit closed forms are refused, and below which they warn
OPACITY_HARD_FLOOR = 5.0
OPACITY_WARN_BELOW = 8.0


class ContractViolation(ValueError):
    """A documented precondition was violated by the caller."""


class QuadratureError(RuntimeError):
    """A quadrature failed its convergence or tail-capture requirement."""


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


def central_difference(f, x, rel_step: float = 1e-6):
    """Central-difference derivative df/dx at finite x > 0, a scalar or an
    array (an empty one returns an empty array).

    f is vectorised: it is called once as f(xs, rows) on the stacked array
    xs = [x - h, x + h] with h = rel_step * x, where rows gives the index
    into x.ravel() of each stacked entry (so that f can evaluate each entry
    with its own row's parameters, such as a potential per row), and must
    return one finite value per entry.  A real f takes that one pass.  The
    imaginary part of a complex f (f = ln A = ln|A| + i arg A) is a phase:
    its differences are wrapped into [-pi, pi], and entries whose wrapped
    difference still exceeds pi/2 straddle a fast phase swing, and only they
    are evaluated again, at a hundredth of the step, until the step falls
    below 1e-13 * x, where QuadratureError is raised.  Each part is divided
    by 2h on its own.  A scalar x returns a float or a complex.
    """
    if not 0 < rel_step < 1:
        raise ContractViolation("central_difference needs 0 < rel_step < 1")
    x = np.asarray(x, dtype=float)
    if not ((x > 0) & (x < np.inf)).all():
        raise ContractViolation("central_difference needs finite x > 0")
    xs = x.ravel()
    out = np.empty(xs.shape, dtype=complex)
    # the first round takes every entry whole; a refinement round indexes
    # the entries that swing
    todo, rows = slice(None), np.arange(len(xs))
    while len(rows):
        at = xs[todo]
        h = rel_step * at
        vals = np.asarray(f(np.concatenate([at - h, at + h]), np.concatenate([rows, rows])))
        if not np.isfinite(vals).all():
            bad = ~np.isfinite(vals).reshape(2, -1).all(axis=0)
            raise ContractViolation(f"non-finite function value near x={at[bad][0]}")
        diff, h2 = vals[len(rows):] - vals[: len(rows)], 2.0 * h
        if not np.iscomplexobj(diff):  # no phase: one pass
            out = diff / h2
            break
        turn = diff.imag - 2.0 * np.pi * np.rint(diff.imag / (2.0 * np.pi))
        out.real[todo], out.imag[todo] = diff.real / h2, turn / h2
        swing = np.abs(turn) > 0.5 * np.pi
        if swing.any() and rel_step < 1e-13:
            raise QuadratureError(
                f"phase swings faster than any resolvable step at x={at[swing][0]}"
            )
        todo = rows = rows[swing]
        rel_step *= 0.01
    return out[0].item() if x.ndim == 0 else out.reshape(x.shape)

