"""Flux-weighted time statistics: the time-observable route to durations.

Mean passage instants and their variances come from the sign-separated flux,

    <t_+-(x)> = integral t J_+-(x,t) dt / integral J_+-(x,t) dt,

durations are differences of such instants, and duration variances are the
SUM of the two point variances (the convention of the source formalism, not
the variance of a correlated difference).  The mean-square duration identity
<tau^2> = <tau>^2 + D tau is kept explicit on every report.

The dwell time is computed in both of its equivalent forms -- the space-time
density integral and the flux first-moment form -- and their residual is a
built-in diagnostic: the two can only drift apart through quadrature-tail
truncation, since their equality is the continuity equation of the flux and
the density it conserves (see wavepacket).  The density integral is taken in
the energy representation, where time is conjugate to energy: over all time
the density integrates to an average over the packet's energies of the
stationary dwell, so neither an x nor a t grid is built.

A flux series whose window did not capture its tail is refused with
QuadratureError rather than read into a mean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    UNITS,
    ContractViolation,
    Grid1D,
    NoSuchFluxError,
    QuadratureError,
    central_difference,
    integrate,
)
from .potential import PiecewisePotential, RegionMarkers
from .scattering import SolutionTable
from .stationary_times import phase_time
from .wavepacket import FluxSeries, Propagator, SpectralPacket, propagator

MASS_FLOOR = 1e-10        # relative weight below which a sign channel is "absent"
DWELL_FORM_TOL = 1e-3     # relative disagreement of the two dwell forms
FLUX_NOISE_FLOOR = 1e-12  # flux gaps below this fraction of the peak J_in are rounding

DURATION_KINDS = (
    "transmission", "tunnelling", "penetration", "reflection",
    "dwell", "asymptotic-transmission",
)


@dataclass(frozen=True)
class TimeStatistics:
    """Mean instant, variance and standard deviation of one flux channel."""

    mean: float
    variance: float
    std_dev: float
    weight_mass: float


@dataclass(frozen=True)
class DurationReport:
    """A process duration with its variance bookkeeping and sub-means."""

    kind: str
    markers: RegionMarkers
    mean: float
    variance: float
    mean_square: float
    components: dict = field(default_factory=dict)


def _moments(J, grid: Grid1D, floor: float = 0.0, label: str = "flux channel") -> tuple:
    """(mass, mean instant, variance) of a non-negative flux channel on a time grid.

    A channel whose mass does not exceed `floor` is absent: NoSuchFluxError.
    """
    mass = float(integrate(J, grid))
    if not mass > floor:
        raise NoSuchFluxError(f"{label} carries mass {mass:.3e}, not above {floor:.3e}")
    mean = float(integrate(grid.points * J, grid)) / mass
    var = float(integrate((grid.points - mean) ** 2 * J, grid)) / mass
    return mass, mean, var


def mean_time(fs: FluxSeries, sign: str) -> TimeStatistics:
    """Statistics of the chosen sign channel of a flux series.

    Raises QuadratureError when the series did not capture its tail, and
    NoSuchFluxError when the channel mass is below MASS_FLOOR of the total
    |J| mass -- an absent process, as opposed to numerical underflow.
    """
    if sign not in ("+", "-"):
        raise ContractViolation("sign must be '+' or '-'")
    _captured(fs)
    mass, mean, var = _moments(fs.J_plus if sign == "+" else -fs.J_minus, fs.t_grid,
                               MASS_FLOOR * max(fs.abs_mass, 1e-300),
                               f"flux channel '{sign}' at x={fs.x}")
    return TimeStatistics(mean=mean, variance=var, std_dev=math.sqrt(max(var, 0.0)),
                          weight_mass=mass)


def _captured(fs: FluxSeries) -> FluxSeries:
    """fs, refused with QuadratureError when its window did not capture its tail."""
    if not fs.tail_captured:
        raise QuadratureError(f"flux series at x={fs.x} did not capture its tail")
    return fs


def _stats(prop: Propagator, x: float, sign: str) -> TimeStatistics:
    return mean_time(prop.flux_series(x), sign)


def _validate_markers(pot: PiecewisePotential, kind: str, markers: RegionMarkers):
    if pot.is_free:
        return
    if kind in ("transmission", "asymptotic-transmission", "dwell"):
        if markers.x_i > pot.x_left or markers.x_f < pot.x_right:
            raise ContractViolation(f"{kind} markers must bracket the barrier")
    elif kind == "tunnelling":
        if markers.x_i != pot.x_left or markers.x_f != pot.x_right:
            raise ContractViolation("tunnelling markers are the barrier edges")
    elif kind == "penetration":
        if not markers.x_f < pot.x_right:
            raise ContractViolation("penetration needs x_f inside the barrier")
    elif kind == "reflection":
        if not markers.x_f < pot.x_right:
            raise ContractViolation("reflection needs x_f before the barrier end")


def duration(pot: PiecewisePotential, packet: SpectralPacket, kind: str,
             markers: RegionMarkers | None = None) -> DurationReport:
    """Process duration per the flux-instant differences.

    transmission / tunnelling / penetration:  <t_+(x_f)> - <t_+(x_i)>
    reflection:                               <t_-(x_f)> - <t_+(x_i)>
    dwell and asymptotic-transmission dispatch to their dedicated routines.
    """
    if kind not in DURATION_KINDS:
        raise ContractViolation(f"unknown duration kind {kind!r}")
    if markers is None:
        if kind in ("tunnelling", "dwell"):
            markers = RegionMarkers(pot.x_left, pot.x_right)
        else:
            raise ContractViolation(f"{kind} requires explicit markers")
    if kind == "dwell":
        return dwell(pot, packet, markers)
    if kind == "asymptotic-transmission":
        return asymptotic_transmission(pot, packet, markers)
    _validate_markers(pot, kind, markers)

    prop = propagator(pot, packet)
    sign_f = "-" if kind == "reflection" else "+"
    stat_f = _stats(prop, markers.x_f, sign_f)
    stat_i = _stats(prop, markers.x_i, "+")
    mean = stat_f.mean - stat_i.mean
    var = stat_f.variance + stat_i.variance
    return DurationReport(
        kind=kind, markers=markers, mean=mean, variance=var,
        mean_square=mean**2 + var,
        components={
            f"t_{sign_f}(x_f)": stat_f.mean, "t_+(x_i)": stat_i.mean,
            "D_t(x_f)": stat_f.variance, "D_t(x_i)": stat_i.variance,
        },
    )


def _dwell_fluxes(pot: PiecewisePotential, packet: SpectralPacket,
                  markers: RegionMarkers) -> tuple:
    """(prop, series at x_i, series at x_f, exact incident mass N, flux form
    (integral t J(x_f) dt - integral t J(x_i) dt) / N over the two series)."""
    _validate_markers(pot, "dwell", markers)
    prop = propagator(pot, packet)
    fs_i, fs_f = _captured(prop.flux_series(markers.x_i)), _captured(prop.flux_series(markers.x_f))
    N = packet.incident_flux_mass()
    flux_form = (float(integrate(fs_f.t * fs_f.J, fs_f.t_grid))
                 - float(integrate(fs_i.t * fs_i.J, fs_i.t_grid))) / N
    return prop, fs_i, fs_f, N, flux_form


def _decomposition(markers: RegionMarkers, fs_i: FluxSeries, fs_f: FluxSeries,
                   N: float, flux_form: float) -> DurationReport:
    """dwell_decomposition from the two series' sign-split moments, T_E = M_+(x_f) / N."""
    x_i, x_f = markers.x_i, markers.x_f
    Mp, t_plus_i, D_plus_i = _moments(fs_i.J_plus, fs_i.t_grid,
                                      label=f"flux channel '+' at x_i={x_i}")
    M_T, t_plus_f, D_plus_f = _moments(fs_f.J_plus, fs_f.t_grid,
                                       label=f"flux channel '+' at x_f={x_f}")
    if fs_i.J_minus.any():
        _, t_minus_i, D_minus_i = _moments(-fs_i.J_minus, fs_i.t_grid,
                                           label=f"flux channel '-' at x_i={x_i}")
        tau_R, D_R = t_minus_i - t_plus_i, D_minus_i + D_plus_i
    else:  # nothing comes back through x_i (free space): no round trip to weigh
        tau_R = D_R = 0.0

    r_xi = Mp / N - 1.0
    T_E = M_T / N
    R_E = 1.0 - T_E
    tau_T = t_plus_f - t_plus_i
    R_xi = R_E + r_xi
    recon = T_E * tau_T + R_xi * tau_R
    resid = abs(flux_form - recon) / max(abs(flux_form), 1e-300)
    D_T = D_plus_f + D_plus_i
    return DurationReport(
        kind="dwell", markers=markers, mean=flux_form, variance=T_E * D_T + R_xi * D_R,
        mean_square=flux_form**2 + T_E * D_T + R_xi * D_R,
        components={
            "T_E": T_E, "R_E": R_E, "r_xi": r_xi, "R_at_xi": R_xi,
            "tau_T": tau_T, "tau_R": tau_R, "D_tau_T": D_T, "D_tau_R": D_R,
            "reconstruction": recon, "reconstruction_residual": resid,
            "incident_mass": N,
        },
    )


def dwell(pot: PiecewisePotential, packet: SpectralPacket,
          markers: RegionMarkers) -> DurationReport:
    """Mean dwell time in (x_i, x_f), computed in both equivalent forms.

    Returns the space-time form (density integral over incident flux mass);
    the flux-moment form and their relative residual ride along in the
    components.  Both divide by the exact incident mass N =
    packet.incident_flux_mass(), and the flux form reads the first moments of
    the tail-captured series at x_i and x_f, each on its own window.
    Over all time, integral dt e^{i(w - w')t} = 2 pi delta(w - w'), so the
    space form is

        integral dt integral dx Re[Psi* Psi_w] = 2 pi integral |G|^2 w D_k / v_g dk

    on the packet's k grid, w its density weight, D_k the closed-form
    stationary density integral of psi_k over (x_i, x_f) and v_g = dw/dk
    (hbar k/m, or c for a photon packet).  That sum is exact only when the k
    grid resolves |psi_k|^2 in E: at a narrow resonance inside the band it
    is not, and there a flux tail goes uncaptured or the two forms disagree.
    Either raises QuadratureError, as does any disagreement beyond
    DWELL_FORM_TOL, the usual symptom being a truncated time tail.  The
    variance is the indirect one of dwell_decomposition (there is no direct
    definition).
    """
    prop, fs_i, fs_f, N, flux_form = _dwell_fluxes(pot, packet, markers)
    D = prop.table.density_integral(markers.x_i, markers.x_f)
    space_form = 2.0 * math.pi * float(integrate(
        np.abs(packet.G) ** 2 * packet.density_weight * D / packet.v, packet.grid)) / N

    resid = abs(space_form - flux_form) / max(abs(space_form), 1e-300)
    if resid > DWELL_FORM_TOL:
        raise QuadratureError(
            f"dwell forms disagree by {resid:.2e} rel "
            f"({space_form!r} vs {flux_form!r}); extend the time window"
        )

    var = _decomposition(markers, fs_i, fs_f, N, flux_form).variance
    return DurationReport(
        kind="dwell", markers=markers, mean=space_form, variance=var,
        mean_square=space_form**2 + var,
        components={
            "space_time_form": space_form, "flux_moment_form": flux_form,
            "form_residual": resid, "incident_mass": N,
        },
    )


def dwell_decomposition(pot: PiecewisePotential, packet: SpectralPacket,
                        markers: RegionMarkers) -> DurationReport:
    """Dwell time as the flux-split weighted average

        tau_Dw = T tau_T + (R + <r(x_i)>) tau_R ,

    with T = 1 - R (T_E) the transmitted share of the flux mass, M_+(x_f) / N,
    which the v |G|^2 dE bracket of |A_T|^2 misses by 3e-7 at delta_k = 0.02,
    tau_R the round trip observed at x_i (forward-in, backward-out) and
    <r(x)> = integral J_+ dt / N - 1, the interference deficit of the forward
    flux, negative near the barrier face and vanishing upstream.
    """
    return _decomposition(markers, *_dwell_fluxes(pot, packet, markers)[1:])


def interference_deficit(pot: PiecewisePotential, packet: SpectralPacket,
                         x: float) -> float:
    """<r(x)>: forward-flux mass at x over the exact incident mass N, less 1."""
    fs = _captured(propagator(pot, packet).flux_series(x))
    return float(integrate(fs.J_plus, fs.t_grid)) / packet.incident_flux_mass() - 1.0


def asymptotic_transmission(pot: PiecewisePotential, packet: SpectralPacket,
                            markers: RegionMarkers) -> DurationReport:
    """Asymptotic transmission duration <t(x_f)>_T - <t(x_i)>_in.

    The averages run over the transmitted packet (the full flux at x_f, where
    psi_k = A_T e^{ikx} is the whole state) and the freely moving incident
    one, so the mean is also the projected duration (J_+(x_i) replaced by
    J_in(x_i)).  The report carries the quasi-monochromatic comparands: the
    packet-averaged stationary phase time over the same markers and the
    spectral variance formula  D ~= hbar^2 <(d|A_T|/dE)^2>_E / <|A_T|^2>_E  beside the
    flux-route variances (see notes: the spectral formula is the squared
    modulus-sensitivity time, not a quantitative surrogate for the flux
    variance of Gaussian packets).
    """
    if abs(markers.x_i) < 10.0 * max(pot.extent, 1.0 / packet.delta_k):
        raise ContractViolation(
            "asymptotic transmission needs |x_i| >= 10 max(extent, 1/delta_k)"
        )
    _validate_markers(pot, "transmission", markers)
    prop = propagator(pot, packet)
    stat_T = _stats(prop, markers.x_f, "+")
    stat_in = _stats(prop.free, markers.x_i, "+")
    stat_in_f = _stats(prop.free, markers.x_f, "+")
    mean = stat_T.mean - stat_in.mean

    absAT = np.abs(prop.table.A_T)  # d|A_T|/dE = |A_T| d ln|A_T|/dE
    dabs = absAT * central_difference(lambda Es, _: SolutionTable(pot, Es).log_abs_A_T,
                                      prop.table.E)
    eq_var = UNITS.hbar**2 * packet.energy_average(dabs**2) \
        / packet.energy_average(absAT**2)

    var = stat_T.variance + stat_in.variance
    return DurationReport(
        kind="asymptotic-transmission", markers=markers, mean=mean,
        variance=var, mean_square=mean**2 + var,
        components={
            "t_T(x_f)": stat_T.mean, "t_in(x_i)": stat_in.mean,
            "phase_time_avg": float(packet.energy_average(phase_time(pot, prop.table.E, markers))),
            "spectral_variance": float(eq_var),
            "D_t_T(x_f)": stat_T.variance, "D_t_in(x_i)": stat_in.variance,
            "dynamic_excess": stat_T.variance - stat_in_f.variance,
        },
    )


def projected_duration(pot: PiecewisePotential, packet: SpectralPacket,
                       markers: RegionMarkers) -> float:
    """Duration under the positive-momentum projection at the entry point:
    <t_+(x_f)> - <t(x_i)>_in, i.e. the incident-only flux replaces J_+(x_i).

    For wavepackets recorded by forward-only detectors this equals the
    packet-averaged stationary phase time over the same markers.
    """
    prop = propagator(pot, packet)
    stat_f = _stats(prop, markers.x_f, "+")
    stat_in = _stats(prop.free, markers.x_i, "+")
    return stat_f.mean - stat_in.mean


@dataclass(frozen=True)
class CausalityResult:
    """Outcome of one causality predicate; margin >= 0 means pass."""

    variant: str
    passed: bool | None
    margin: float
    detail: str = ""


def causality_check(pot: PiecewisePotential, packet: SpectralPacket, x_f: float,
                    variant: str, x_i: float | None = None) -> CausalityResult:
    """Causality predicates comparing the final flux against free propagation.

    integral and delay read J_fin,+(x_f) and J_in(x_f) on the grid of the
    wider of the two flux series at x_f (both start from suggest_window(x_f)).

    integral:  min over t of integral_-inf^t [J_in(x_f) - J_fin,+(x_f)] dtau,
               which must stay >= 0 (the integral final flux never leads the
               integral free flux) even when the final peak arrives early.
    delay:     time-averaged forward-front delay over the samples t <= t0;
               inapplicable when the attenuated final envelope stays
               entirely beneath the free one (passed=None).  Samples whose
               gap |J_fin,+ - J_in| is within FLUX_NOISE_FLOOR (1e-12) of
               the peak J_in carry no sign: t0 is the secant root of the gap
               between the first post-peak pair of samples above that floor
               whose signs differ, and gaps all within it read "fluxes
               identical" (passed, margin 0).
    effective: t_eff(x_f) - t_eff(x_i) with t_eff = <t> +- sigma, the
               spread-widened arrival/start instants; x_i defaults to the
               barrier's left edge and must not exceed x_f.
    """
    if variant not in ("integral", "delay", "effective"):
        raise ContractViolation(f"unknown causality variant {variant!r}")
    if not pot.is_free and x_f < pot.x_right and variant != "effective":
        raise ContractViolation("causality comparisons need x_f at or past the barrier")
    prop = propagator(pot, packet)

    if variant == "effective":
        xi = pot.x_left if x_i is None else x_i
        if xi > x_f:
            raise ContractViolation(f"effective causality needs x_i <= x_f, not {xi} > {x_f}")
        stat_f = _stats(prop, x_f, "+")
        stat_i = _stats(prop, xi, "+")
        margin = (stat_f.mean + stat_f.std_dev) - (stat_i.mean - stat_i.std_dev)
        return CausalityResult("effective", margin >= 0.0, margin,
                               detail=f"x_i={xi}")

    free = prop.free
    tg = max((_captured(p.flux_series(x_f)).t_grid for p in (prop, free)),
             key=lambda g: g.hi - g.lo)
    J_fin = prop.flux(x_f, tg.points)
    J_fin_p = np.where(J_fin > 0, J_fin, 0.0)
    J_in = free.flux(x_f, tg.points)
    N = float(integrate(J_in, tg))

    if variant == "integral":
        running = np.cumsum((J_in - J_fin_p) * tg.weights)
        margin = float(running.min()) / N
        return CausalityResult("integral", margin >= -1e-9, margin)

    # delay variant
    diff = J_fin_p - J_in
    floor = FLUX_NOISE_FLOOR * float(np.max(J_in))
    if float(np.max(np.abs(diff))) <= floor:
        return CausalityResult("delay", True, 0.0, detail="fluxes identical")
    i_peak = int(np.argmax(J_fin_p))
    # samples within the noise floor carry no sign, so a crossing runs between
    # consecutive samples above it whose gaps have opposite signs
    kept = i_peak + np.nonzero(np.abs(diff[i_peak:]) > floor)[0]
    sign_change = np.nonzero(np.sign(diff[kept[1:]]) != np.sign(diff[kept[:-1]]))[0]
    if len(sign_change) == 0:
        return CausalityResult(
            "delay", None, math.nan,
            detail="no post-peak envelope crossing: final flux stays beneath "
                   "the free envelope; condition inapplicable",
        )
    pair = kept[sign_change[0]:sign_change[0] + 2]
    (t_lo, t_hi), (d_lo, d_hi) = tg.points[pair], diff[pair]
    t0 = float(t_lo - d_lo * (t_hi - t_lo) / (d_hi - d_lo))
    sel = tg.points <= t0
    before = Grid1D(tg.points[sel], tg.weights[sel])
    margin = _moments(J_fin_p[sel], before)[1] - _moments(J_in[sel], before)[1]
    return CausalityResult("delay", margin >= 0.0, margin, detail=f"t0={t0:.4f} fs")
