"""Flux-weighted time statistics: the time-observable route to durations.

Mean passage instants and their variances come from the sign-separated flux,

    <t_+-(x)> = integral t J_+-(x,t) dt / integral J_+-(x,t) dt,

durations are differences of such instants, and duration variances are the
SUM of the two point variances (the convention of the source formalism, not
the variance of a correlated difference).  The mean-square duration identity
<tau^2> = <tau>^2 + D tau is kept explicit on every report.

The dwell time is computed in both of its equivalent forms -- the space-time
density integral and the flux first-moment form -- and their residual is a
built-in diagnostic: for a massive packet the two can only drift apart
through quadrature-tail truncation, since their equality is the continuity
equation.  A photon packet's flux prefactor c/k_bar is not the current of
the Schroedinger-form states it sums, so at a barrier its forms differ by
about 1e-4 (in free space, to rounding).  The density integral is taken in
the energy representation, where time is conjugate to energy: over all time
the packet's |Psi|^2 integrates to an average over its energies of the
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
    bracket_search,
    central_difference,
    integrate,
)
from .potential import PiecewisePotential, RegionMarkers
from .scattering import SolutionTable
from .stationary_times import phase_time
from .wavepacket import FluxSeries, Propagator, SpectralPacket, propagator

MASS_FLOOR = 1e-10        # relative weight below which a sign channel is "absent"
DWELL_FORM_TOL = 1e-3     # relative disagreement of the two dwell forms
DWELL_N_T = 4096          # time samples of the shared dwell window
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

    Raises NoSuchFluxError when the channel mass is below MASS_FLOOR of the
    total |J| mass -- an absent process, as opposed to numerical underflow.
    """
    if sign not in ("+", "-"):
        raise ContractViolation("sign must be '+' or '-'")
    mass, mean, var = _moments(fs.J_plus if sign == "+" else -fs.J_minus, fs.t_grid,
                               MASS_FLOOR * max(fs.abs_mass, 1e-300),
                               f"flux channel '{sign}' at x={fs.x}")
    return TimeStatistics(mean=mean, variance=var, std_dev=math.sqrt(max(var, 0.0)),
                          weight_mass=mass)


def _series(prop: Propagator, x: float, component: str = "full") -> FluxSeries:
    """prop.flux_series(x, component=component), refused when its tail was not captured."""
    fs = prop.flux_series(x, component=component)
    if not fs.tail_captured:
        raise QuadratureError(f"{component} flux series at x={x} did not capture its tail")
    return fs


def _stats(prop: Propagator, x: float, sign: str, component: str = "full") -> TimeStatistics:
    return mean_time(_series(prop, x, component), sign)


def _union_window(prop: Propagator, xs, components=("full",)) -> tuple:
    grids = [_series(prop, x, c).t_grid for x in xs for c in components]
    return min(g.lo for g in grids), max(g.hi for g in grids)


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
    """(prop, time grid, J(x_f), J(x_i), incident mass N, flux-moment dwell form),
    evaluated once for dwell and its decomposition on one union window."""
    _validate_markers(pot, "dwell", markers)
    prop = propagator(pot, packet)
    lo, hi = _union_window(prop, (markers.x_i, markers.x_f))
    tg = Grid1D.uniform(lo, hi, DWELL_N_T)
    J_f = prop.flux(markers.x_f, tg.points)
    J_i = prop.flux(markers.x_i, tg.points)
    N = float(integrate(prop.flux(markers.x_i, tg.points, "free"), tg))
    flux_form = (float(integrate(tg.points * J_f, tg))
                 - float(integrate(tg.points * J_i, tg))) / N
    return prop, tg, J_f, J_i, N, flux_form


def _decomposition(prop: Propagator, markers: RegionMarkers, tg: Grid1D,
                   J_f, J_i, N: float, flux_form: float) -> DurationReport:
    x_i, x_f = markers.x_i, markers.x_f
    Mp, t_plus_i, D_plus_i = _moments(np.where(J_i > 0, J_i, 0.0), tg,
                                      label=f"flux channel '+' at x_i={x_i}")
    _, t_plus_f, D_plus_f = _moments(np.where(J_f > 0, J_f, 0.0), tg,
                                     label=f"flux channel '+' at x_f={x_f}")
    J_back = np.where(J_i < 0, -J_i, 0.0)
    if J_back.any():
        _, t_minus_i, D_minus_i = _moments(J_back, tg, label=f"flux channel '-' at x_i={x_i}")
        tau_R, D_R = t_minus_i - t_plus_i, D_minus_i + D_plus_i
    else:  # nothing comes back through x_i (free space): no round trip to weigh
        tau_R = D_R = 0.0

    r_xi = (Mp - N) / N
    T_E = float(prop.packet.energy_average(np.abs(prop.table.A_T) ** 2))
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
    components.  Both divide by the incident mass N of the shared window.
    Over all time, integral dt e^{i(w - w')t} = 2 pi delta(w - w'), so the
    space form is

        integral dt integral dx |Psi|^2 = 2 pi integral |G|^2 D_k / v_g dk

    on the packet's k grid, D_k the closed-form stationary density integral
    of psi_k over (x_i, x_f) and v_g = dw/dk (hbar k/m, or c for a photon
    packet).  That sum is exact only when the k grid resolves |psi_k|^2 in
    E: at a narrow resonance inside the band it is not, and there a flux
    tail goes uncaptured or the two forms disagree.  Either raises
    QuadratureError, as does any disagreement beyond DWELL_FORM_TOL, the
    usual symptom being a truncated time tail; at a barrier a photon
    packet's residual is about 1e-4 of its own (see the module docstring).
    The variance is the indirect one of dwell_decomposition (there is no
    direct definition).
    """
    prop, tg, J_f, J_i, N, flux_form = _dwell_fluxes(pot, packet, markers)
    D = prop.table.density_integral(markers.x_i, markers.x_f)
    space_form = 2.0 * math.pi * float(integrate(np.abs(packet.G) ** 2 * D / packet.v,
                                                 packet.grid)) / N

    resid = abs(space_form - flux_form) / max(abs(space_form), 1e-300)
    if resid > DWELL_FORM_TOL:
        raise QuadratureError(
            f"dwell forms disagree by {resid:.2e} rel "
            f"({space_form!r} vs {flux_form!r}); extend the time window"
        )

    var = _decomposition(prop, markers, tg, J_f, J_i, N, flux_form).variance
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

        tau_Dw = <T>_E tau_T + (<R>_E + <r(x_i)>) tau_R ,

    with tau_R the round trip observed at x_i (forward-in, backward-out) and
    <r(x)> = integral (J_+ - J_in) dt / N, the interference deficit of the
    forward flux, negative near the barrier face and vanishing upstream.
    """
    prop, tg, J_f, J_i, N, flux_form = _dwell_fluxes(pot, packet, markers)
    return _decomposition(prop, markers, tg, J_f, J_i, N, flux_form)


def interference_deficit(pot: PiecewisePotential, packet: SpectralPacket,
                         x: float) -> float:
    """<r(x)>: forward-flux mass at x minus the free incident mass, over N."""
    prop = propagator(pot, packet)
    fs = _series(prop, x)
    J_in = prop.flux(x, fs.t, "free")
    N = packet.incident_flux_mass()
    return (float(integrate(fs.J_plus, fs.t_grid)) - float(integrate(J_in, fs.t_grid))) / N


def asymptotic_transmission(pot: PiecewisePotential, packet: SpectralPacket,
                            markers: RegionMarkers) -> DurationReport:
    """Asymptotic transmission duration <t(x_f)>_T - <t(x_i)>_in.

    The averages run over the transmitted-only and the freely moving incident
    packets.  The report carries the quasi-monochromatic comparands: the
    packet-averaged stationary phase time over the same markers, the
    projected duration that replaces J_+(x_i) by J_in(x_i), and the spectral
    variance formula  D ~= hbar^2 <(d|A_T|/dE)^2>_E / <|A_T|^2>_E  beside the
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
    stat_T = _stats(prop, markers.x_f, "+", component="transmitted")
    stat_in = _stats(prop, markers.x_i, "+", component="free")
    stat_full_f = _stats(prop, markers.x_f, "+", component="full")
    stat_in_f = _stats(prop, markers.x_f, "+", component="free")
    mean = stat_T.mean - stat_in.mean

    tau_ph_avg = float(packet.energy_average(phase_time(pot, prop.table.E, markers)))
    projected = stat_full_f.mean - stat_in.mean

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
            "phase_time_avg": tau_ph_avg,
            "projected_duration": projected,
            "spectral_variance": float(eq_var),
            "D_t_T(x_f)": stat_T.variance, "D_t_in(x_i)": stat_in.variance,
            "dynamic_excess": stat_full_f.variance - stat_in_f.variance,
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
    stat_in = _stats(prop, markers.x_i, "+", component="free")
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

    integral:  min over t of integral_-inf^t [J_in(x_f) - J_fin,+(x_f)] dtau,
               which must stay >= 0 (the integral final flux never leads the
               integral free flux) even when the final peak arrives early.
    delay:     time-averaged forward-front delay up to the first post-peak
               envelope crossing t0; inapplicable when the attenuated final
               envelope stays entirely beneath the free one (passed=None).
               Samples whose gap |J_fin,+ - J_in| is within FLUX_NOISE_FLOOR
               (1e-12) of the peak J_in carry no sign, so the rounding-level
               tail places no crossing; gaps all within that floor read
               "fluxes identical" (passed, margin 0).
    effective: t_eff(x_f) - t_eff(x_i) with t_eff = <t> +- sigma, the
               spread-widened arrival/start instants; x_i defaults to the
               barrier's left edge.
    """
    if variant not in ("integral", "delay", "effective"):
        raise ContractViolation(f"unknown causality variant {variant!r}")
    if not pot.is_free and x_f < pot.x_right and variant != "effective":
        raise ContractViolation("causality comparisons need x_f at or past the barrier")
    prop = propagator(pot, packet)

    if variant == "effective":
        xi = pot.x_left if x_i is None else x_i
        stat_f = _stats(prop, x_f, "+")
        stat_i = _stats(prop, xi, "+")
        margin = (stat_f.mean + stat_f.std_dev) - (stat_i.mean - stat_i.std_dev)
        return CausalityResult("effective", margin >= 0.0, margin,
                               detail=f"x_i={xi}")

    lo, hi = _union_window(prop, (x_f,), components=("full", "free"))
    tg = Grid1D.uniform(lo, hi, 8192)
    J_fin = prop.flux(x_f, tg.points)
    J_fin_p = np.where(J_fin > 0, J_fin, 0.0)
    J_in = prop.flux(x_f, tg.points, "free")
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
    t_lo, t_hi = tg.points[kept[sign_change[0]:sign_change[0] + 2]]

    def gap(ts):
        return np.maximum(prop.flux(x_f, ts), 0.0) - prop.flux(x_f, ts, "free")

    t0 = float(bracket_search(gap, t_lo, t_hi, "sign", 1e-12)[0])
    sel = tg.points <= t0
    before = Grid1D(tg.points[sel], tg.weights[sel])
    margin = _moments(J_fin_p[sel], before)[1] - _moments(J_in[sel], before)[1]
    return CausalityResult("delay", margin >= 0.0, margin, detail=f"t0={t0:.4f} fs")
