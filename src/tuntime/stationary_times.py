"""Single-energy tunnelling-time definitions.

Phase time (energy derivative of the transmission phase), the
modulus-sensitivity time identified with the Buttiker-Landauer clock, the
stationary dwell time, the two-phase times read from the same table
columns, and the near-resonance Lorentzian delay.  The BL time is an energy
derivative; the spin-flip Larmor time tau_z = -hbar d ln|A_T|/dV
(Buttiker, PRB 27, 6178 (1983)) is a derivative in the barrier height, and
the two agree only in the opaque limit.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .core import UNITS, ContractViolation, central_difference
from .potential import PiecewisePotential, RegionMarkers
from .scattering import SolutionTable, two_phase


def _is_family(pot) -> bool:
    return not isinstance(pot, PiecewisePotential)


def _energies(pot, E):
    """E, broadcast over the rows of a family of potentials."""
    if not _is_family(pot):
        return E
    if not len(pot):
        raise ContractViolation("a family needs at least one potential")
    return np.broadcast_to(np.asarray(E, dtype=float), len(pot))


def _potentials(pot, rows):
    """The potential of each stacked entry of a central difference."""
    return [pot[i] for i in rows] if _is_family(pot) else pot


def _markers_or_extent(pot, markers) -> tuple:
    """(x_i, x_f): the markers, or else the outermost edges; arrays over the
    rows of a family, which takes a sequence of markers, one per row."""
    if _is_family(pot):
        per_row = markers if markers is not None else [None] * len(pot)
        ends = [_markers_or_extent(p, m) for p, m in zip(pot, per_row, strict=True)]
        return tuple(np.array(ends).T)
    if markers is not None:
        return markers.x_i, markers.x_f
    return pot.x_left, pot.x_right


def _like(E, tau):
    """A float for a scalar energy, an array for an array of energies."""
    return float(tau) if np.ndim(E) == 0 else tau


def phase_time(
    pot: PiecewisePotential | Sequence[PiecewisePotential],
    E,
    markers: RegionMarkers | None = None,
    rel_step: float = 1e-6,
):
    """Stationary-phase traversal time (x_f - x_i)/v + hbar d(arg A_T)/dE.

    Defaults to the barrier extent (x_i, x_f) = outermost edges, for which the
    expression equals hbar d(arg A_T + k a_total)/dE; for free space over a
    marker distance d it reduces to the ballistic d/v.  The derivative is a
    central difference of i times the phase of the complex amplitude A_T,
    refined across fast phase swings (core.central_difference).
    That phase loses precision once |A_T| is subnormal (kappa a past about
    717) and ContractViolation is raised where A_T underflows to zero.
    E may be a scalar (returns a float) or an array (one table for all).
    pot may also be a sequence of potentials with one region count, a width
    or height scan, with E one per potential or one for all and markers, if
    given, one per potential: one table per difference round serves every
    row, and each row equals the scalar call on its own potential.
    """
    E = _energies(pot, E)
    x_i, x_f = _markers_or_extent(pot, markers)

    def phase(Es, rows):
        A_T = SolutionTable(_potentials(pot, rows), Es).A_T
        return 1j * np.where(A_T != 0, np.angle(A_T), np.nan)

    dphi = central_difference(phase, E, rel_step).imag
    v = UNITS.velocity(UNITS.wavenumber(E))
    return _like(E, (x_f - x_i) / v + UNITS.hbar * dphi)


def bl_time(pot: PiecewisePotential | Sequence[PiecewisePotential], E):
    """Modulus-sensitivity time hbar |d ln|A_T| / dE|.

    This is identified with the Buttiker-Landauer oscillating-barrier time; it
    grows linearly with width for opaque barriers instead of saturating.  The
    spin-flip Larmor time -hbar d ln|A_T|/dV0 equals it only in the opaque
    limit (on rect(10, 5) at 5 eV to 1e-10; 23% and 33% apart on rect(10, 2)
    at 3 eV and rect(8, 1) at 6 eV).  Computed
    from the log-magnitude form of the amplitude, so extreme opacities
    (kappa a > 700) need no special casing.  E may be a scalar (returns a
    float) or an array of sub-barrier energies; pot may be a family of
    potentials, one per row, as in phase_time.
    """
    E = _energies(pot, E)
    E_arr = np.asarray(E)
    top = np.array([p.max_height for p in pot]) if _is_family(pot) else pot.max_height
    if not ((E_arr > 0) & (E_arr < top)).all():
        raise ContractViolation("bl_time is defined in the sub-barrier regime")
    dlog = central_difference(
        lambda Es, rows: SolutionTable(_potentials(pot, rows), Es).log_abs_A_T, E)
    return _like(E, UNITS.hbar * np.abs(dlog))


def dwell_time_stationary(pot: PiecewisePotential | Sequence[PiecewisePotential], E,
                          markers: RegionMarkers | Sequence[RegionMarkers]):
    """Stationary dwell time: integral of |psi_E|^2 over (x_i, x_f) divided by
    the incident velocity v, for the unit-incidence scattering state.

    The integral is the closed form of each region's share of (x_i, x_f)
    (SolutionTable.density_integral), exact to rounding at any opacity; for an
    opaque barrier it saturates at hbar k/(kappa V0).  E may be a scalar
    (returns a float) or an array of energies (one table for all); pot may be
    a family of potentials, one per row, as in phase_time, with one set of
    markers per row.
    """
    E = _energies(pot, E)
    x_i, x_f = _markers_or_extent(pot, markers)
    if not (np.asarray(x_f) > x_i).all():
        raise ContractViolation("markers must span a nonempty interval")
    rho = SolutionTable(pot, np.ravel(E)).density_integral(x_i, x_f).reshape(np.shape(E))
    return _like(E, rho / UNITS.velocity(UNITS.wavenumber(E)))


def two_phase_times(pot: PiecewisePotential, E):
    """(tau_phase, tau_z) from the two-phase representation, at a scalar
    energy (floats) or an array of energies (arrays).

    tau_phase = hbar d(phi2)/dE and tau_z = hbar d(phi1)/dE cot(phi1).  The
    angles are the table's columns (two_phase), so phi2 = ka + arg A_T - pi/2
    makes tau_phase the phase time hbar d(arg A_T + ka)/dE, and sin(phi1) =
    |A_T| makes tau_z = hbar d ln sin(phi1)/dE the BL time.  ln sin(phi1) is
    read as log_abs_A_T, so tau_z holds at any opacity, with no 0 * inf as
    phi1 -> 0; phi2 reads arg_A_T, so tau_phase holds the opaque plateau past
    kappa a ~ 717, where phase_time fails.  Both are one central difference
    of ln sin(phi1) + i phi2: one checked two_phase table per round.
    """
    def angles(Es, _):
        table = SolutionTable(pot, Es)
        return table.log_abs_A_T + 1j * two_phase(table).phi2

    d = central_difference(angles, E)
    return _like(E, UNITS.hbar * d.imag), _like(E, UNITS.hbar * d.real)


def resonance_delay(E: float, E_r: float, Gamma: float, tau_nr: float) -> float:
    """Lorentzian time delay near an isolated resonance plus the background:
    tau = hbar Gamma / ((E - E_r)^2 + Gamma^2) + tau_nr."""
    if not Gamma > 0:
        raise ContractViolation("resonance_delay needs Gamma > 0")
    return UNITS.hbar * Gamma / ((E - E_r) ** 2 + Gamma**2) + tau_nr

