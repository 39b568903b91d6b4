"""Single-energy tunnelling-time definitions.

Phase time (energy derivative of the transmission phase), the modulus
-sensitivity time identified with the Buttiker-Landauer clock and the
spin-flip Larmor component, the stationary dwell time, the two-phase route
to the same quantities, and the near-resonance Lorentzian delay.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .core import UNITS, ContractViolation, central_difference
from .potential import PiecewisePotential, RegionMarkers, rectangular
from .scattering import SolutionTable, rect_amplitude, two_phase


@dataclass(frozen=True)
class TimeCatalog:
    """All stationary time definitions evaluated at one energy, in fs."""

    E: float
    tau_phase: float
    tau_bl: float
    tau_dwell: float
    tau_larmor_y: float
    tau_larmor_z: float


def _markers_or_extent(pot: PiecewisePotential, markers) -> tuple:
    if markers is not None:
        return markers.x_i, markers.x_f
    return pot.x_left, pot.x_right


def _like(E, tau):
    """A float for a scalar energy, an array for an array of energies."""
    return float(tau) if np.ndim(E) == 0 else tau


def phase_time(
    pot: PiecewisePotential,
    E,
    markers: RegionMarkers | None = None,
    rel_step: float = 1e-6,
):
    """Stationary-phase traversal time (x_f - x_i)/v + hbar d(arg A_T)/dE.

    Defaults to the barrier extent (x_i, x_f) = outermost edges, for which the
    expression equals hbar d(arg A_T + k a_total)/dE; for free space over a
    marker distance d it reduces to the ballistic d/v.  The derivative is a
    central difference of the phase of the complex amplitude A_T, wrapped
    mod 2 pi and refined across fast phase swings (core.central_difference).
    That phase loses precision once |A_T| is subnormal (kappa a past about
    717) and ContractViolation is raised where A_T underflows to zero.
    E may be a scalar (returns a float) or an array (one table for all).
    """
    x_i, x_f = _markers_or_extent(pot, markers)

    def phase(Es):
        A_T = SolutionTable(pot, Es).A_T
        return np.where(A_T != 0, np.angle(A_T), np.nan)

    dphi = central_difference(phase, E, rel_step, periodic=True)
    v = UNITS.velocity(UNITS.wavenumber(E))
    return _like(E, (x_f - x_i) / v + UNITS.hbar * dphi)


def bl_time(pot: PiecewisePotential, E):
    """Modulus-sensitivity time hbar |d ln|A_T| / dE|.

    This is the monochromatic limit of the spin-flip Larmor component and is
    identified with the Buttiker-Landauer oscillating-barrier time; it grows
    linearly with width for opaque barriers instead of saturating.  Computed
    from the log-magnitude form of the amplitude, so extreme opacities
    (kappa a > 700) need no special casing.  E may be a scalar (returns a
    float) or an array of sub-barrier energies.
    """
    E_arr = np.asarray(E)
    if not np.all((E_arr > 0) & (E_arr < pot.max_height)):
        raise ContractViolation("bl_time is defined in the sub-barrier regime")
    dlog = central_difference(lambda Es: SolutionTable(pot, Es).log_abs_A_T, E)
    return _like(E, UNITS.hbar * np.abs(dlog))


def dwell_time_stationary(pot: PiecewisePotential, E, markers: RegionMarkers):
    """Stationary dwell time: integral of |psi_E|^2 over (x_i, x_f) divided by
    the incident velocity v, for the unit-incidence scattering state.

    The integral is the closed form of each region's share of (x_i, x_f)
    (SolutionTable.density_integral), exact to rounding at any opacity; for an
    opaque barrier it saturates at hbar k/(kappa V0).  E may be a scalar
    (returns a float) or an array of energies (one table for all).
    """
    x_i, x_f = markers.x_i, markers.x_f
    if not x_f > x_i:
        raise ContractViolation("markers must span a nonempty interval")
    rho = SolutionTable(pot, E).density_integral(x_i, x_f).reshape(np.shape(E))
    return _like(E, rho / UNITS.velocity(UNITS.wavenumber(E)))


def rect_dwell_closed(V0: float, a: float, E: float) -> float:
    """Closed-form barrier-interval dwell time for a rectangular barrier.

    psi = alpha e^{-kappa x} + beta e^{kappa x} in the barrier, with alpha from
    the incident side and beta e^{kappa a} = A_T e^{ika} (1 + ik/kappa)/2 from
    the transmitted side, where neither cancels; the density then integrates
    with no growing exponential.  An algebra-only route, independent of
    SolutionTable, for any opacity.
    """
    A_T, A_R = rect_amplitude(V0, a, E)
    k = float(UNITS.wavenumber(E))
    kap = float(UNITS.decay_constant(V0, E))
    v = float(UNITS.velocity(k))
    alpha = 0.5 * ((1 + A_R) - 1j * k * (1 - A_R) / kap)
    beta_end = 0.5 * A_T * cmath.exp(1j * k * a) * (1 + 1j * k / kap)
    ep = -math.expm1(-2 * kap * a)  # 1 - e^{-2 kappa a}, accurate for small kap*a
    integral = (
        (abs(alpha) ** 2 + abs(beta_end) ** 2) * ep / (2 * kap)
        + 2 * (alpha * beta_end.conjugate()).real * math.exp(-kap * a) * a
    )
    return integral / v


def opaque_dwell_limits(V0: float, E: float) -> dict:
    """Both printed opaque-barrier dwell limits, side by side.

    `with_interference`  = hbar k / (kappa V0), the limit that keeps the
    incident/reflected interference term in the entry flux; the full
    stationary dwell approaches this one.  `separated` = 2/(kappa v), the
    limit with that term dropped (well-separated packets).  Which arrangement
    an experiment realises is a boundary-condition question, so callers get
    both numbers rather than a silent choice.
    """
    if not 0 < E < V0:
        raise ContractViolation("need 0 < E < V0")
    k = float(UNITS.wavenumber(E))
    kap = float(UNITS.decay_constant(V0, E))
    v = float(UNITS.velocity(k))
    return {
        "with_interference": UNITS.hbar * k / (kap * V0),
        "separated": 2.0 / (kap * v),
    }


def two_phase_times(pot: PiecewisePotential, E):
    """(tau_phase, tau_z) from the two-phase representation, at a scalar
    energy (floats) or an array of energies (arrays).

    tau_phase = hbar d(phi2)/dE and tau_z = hbar d(phi1)/dE cot(phi1); the
    latter is evaluated as hbar d ln sin(phi1) / dE, which is the same product
    without the 0 * inf ambiguity when phi1 -> 0 deep in the opaque regime.
    Both angles come from two_phase() on one table per difference round, an
    independent route to phase_time and bl_time; phi2 is differenced mod 2 pi.
    """
    def angles(Es):
        return two_phase(SolutionTable(pot, Es))

    dphi2 = central_difference(lambda Es: angles(Es).phi2, E, periodic=True)
    dlogsin = central_difference(lambda Es: np.log(np.sin(angles(Es).phi1)), E)
    return _like(E, UNITS.hbar * dphi2), _like(E, UNITS.hbar * dlogsin)


def resonance_delay(E: float, E_r: float, Gamma: float, tau_nr: float) -> float:
    """Lorentzian time delay near an isolated resonance plus the background:
    tau = hbar Gamma / ((E - E_r)^2 + Gamma^2) + tau_nr."""
    if not Gamma > 0:
        raise ContractViolation("resonance_delay needs Gamma > 0")
    return UNITS.hbar * Gamma / ((E - E_r) ** 2 + Gamma**2) + tau_nr


def time_catalog(V0: float, a: float, E: float) -> TimeCatalog:
    """Every stationary time for a rectangular barrier at one energy.

    tau_dwell and tau_larmor_y are both closed-form dwells, by two independent
    routes (SolutionTable's region integral and rect_dwell_closed's analytic
    pair), and coincide at every opacity; tau_larmor_z is by definition the
    same expression as the BL time.
    """
    if not 0 < E < V0:
        raise ContractViolation("time_catalog needs 0 < E < V0")
    pot_markers = RegionMarkers(0.0, a)
    pot = rectangular(V0, a)
    bl = bl_time(pot, E)
    return TimeCatalog(
        E=E,
        tau_phase=phase_time(pot, E),
        tau_bl=bl,
        tau_dwell=dwell_time_stationary(pot, E, pot_markers),
        tau_larmor_y=rect_dwell_closed(V0, a, E),
        tau_larmor_z=bl,
    )


def packet_averaged(fn, pot: PiecewisePotential, packet) -> float:
    """Average a stationary time fn(pot, E) over a spectral packet with the
    energy-measure weight v |G|^2 dE (the quasi-monochromatic bracket).

    fn is called once, on the array of the packet's energies."""
    return float(packet.energy_average(fn(pot, packet.E)))
