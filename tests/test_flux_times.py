"""Flux-weighted duration statistics and their identities.

Scenario family: V0 = 10 eV rectangular barriers probed by Gaussian packets
(the five-parameter family E_bar in {2.5, 5, 7.5} eV at dk = 0.02 1/A plus
E_bar = 5 eV at dk in {0.04, 0.06}); all weights real, so the incident packet
crosses x = 0 at t = 0 exactly and the tunnel-duration identity
<tau_tun> = <tau_ph>_E - <t_+(0)> applies as stated.
"""

import numpy as np
import pytest

from tuntime import flux_times
from tuntime.core import UNITS, ContractViolation, NoSuchFluxError
from tuntime.flux_times import (
    asymptotic_transmission,
    causality_check,
    duration,
    dwell,
    dwell_decomposition,
    interference_deficit,
    mean_time,
    projected_duration,
)
from tuntime.potential import PiecewisePotential, RegionMarkers, double_rectangular, rectangular
from tuntime.stationary_times import phase_time, packet_averaged
from tuntime.wavepacket import Propagator, flux_series, gaussian_packet, propagator

E_BAR = 5.0
K_BAR = float(UNITS.wavenumber(E_BAR))
V_BAR = float(UNITS.velocity(K_BAR))
FREE = PiecewisePotential(())
POT = rectangular(10.0, 5.0)


@pytest.fixture(scope="module")
def packet():
    return gaussian_packet(K_BAR, 0.02)


# ---------------------------------------------------------------- mean_time

def test_free_flight_time(packet):
    x = 40.0
    fs = flux_series(FREE, packet, x)
    stat = mean_time(fs, "+")
    assert stat.mean == pytest.approx(x / V_BAR, rel=0.01)
    assert stat.variance > 0
    assert stat.std_dev == pytest.approx(np.sqrt(stat.variance), rel=1e-12)


def test_time_translation_covariance():
    base = gaussian_packet(K_BAR, 0.02)
    shifted = gaussian_packet(K_BAR, 0.02, t0=3.0)
    s0 = mean_time(flux_series(FREE, base, 25.0), "+")
    s1 = mean_time(flux_series(FREE, shifted, 25.0, t_range=(-20.0, 30.0)), "+")
    assert s1.mean - s0.mean == pytest.approx(3.0, abs=1e-9)
    assert s1.variance == pytest.approx(s0.variance, abs=1e-9)


def test_no_such_flux_error(packet):
    fs = flux_series(FREE, packet, 30.0)
    with pytest.raises(NoSuchFluxError):
        mean_time(fs, "-")


def test_negative_time_advance_fig2_family():
    # <t_+(0)> < 0 for the five-packet family at an opaque barrier
    for (Eb, dk) in [(2.5, 0.02), (5.0, 0.02), (7.5, 0.02), (5.0, 0.04), (5.0, 0.06)]:
        pk = gaussian_packet(float(UNITS.wavenumber(Eb)), dk)
        stat = mean_time(flux_series(POT, pk, 0.0), "+")
        assert stat.mean < 0.0, (Eb, dk)


# ---------------------------------------------------------------- durations

def test_free_transmission_duration(packet):
    rep = duration(FREE, packet, "transmission", RegionMarkers(0.0, 10.0))
    assert rep.mean == pytest.approx(10.0 / V_BAR, rel=0.01)


def test_free_reflection_has_no_flux(packet):
    with pytest.raises(NoSuchFluxError):
        duration(FREE, packet, "reflection", RegionMarkers(0.0, 10.0))


def test_tunnelling_duration_positive_and_above_phase_time(packet):
    rep = duration(POT, packet, "tunnelling")
    tau_ph = packet_averaged(lambda p, E: phase_time(p, E), POT, packet)
    assert tau_ph > 0
    assert rep.mean > tau_ph


def test_eq56_mean_square_identity(packet):
    rep = duration(POT, packet, "tunnelling")
    assert rep.mean_square == pytest.approx(rep.mean**2 + rep.variance, rel=1e-9)
    # re-verified from the raw moments of the underlying series
    prop = propagator(POT, packet)
    sf = mean_time(prop.flux_series(POT.x_right), "+")
    si = mean_time(prop.flux_series(POT.x_left), "+")
    assert rep.variance == pytest.approx(sf.variance + si.variance, rel=1e-12)
    assert rep.mean_square == pytest.approx(
        (sf.mean - si.mean) ** 2 + sf.variance + si.variance, rel=1e-9
    )


def test_tunnel_identity_phase_minus_advance(packet):
    # <tau_tun(0,a)> = <tau_ph>_E - <t_+(0)> within 2% for real weights
    rep = duration(POT, packet, "tunnelling")
    tau_ph = packet_averaged(lambda p, E: phase_time(p, E), POT, packet)
    t_plus_0 = mean_time(flux_series(POT, packet, 0.0), "+").mean
    assert rep.mean == pytest.approx(tau_ph - t_plus_0, rel=0.02)


def test_duration_additivity_through_free_point(packet):
    # split a free flight at an intermediate plane with pure forward flux
    r_full = duration(FREE, packet, "transmission", RegionMarkers(0.0, 60.0))
    r_a = duration(FREE, packet, "transmission", RegionMarkers(0.0, 25.0))
    r_b = duration(FREE, packet, "transmission", RegionMarkers(25.0, 60.0))
    assert r_full.mean == pytest.approx(r_a.mean + r_b.mean, rel=1e-6)


def test_penetration_markers(packet):
    rep = duration(POT, packet, "penetration", RegionMarkers(-1.0, 2.0))
    assert np.isfinite(rep.mean)
    with pytest.raises(ContractViolation):
        duration(POT, packet, "penetration", RegionMarkers(-1.0, 8.0))


def test_kind_validation(packet):
    with pytest.raises(ContractViolation):
        duration(POT, packet, "warp", RegionMarkers(0.0, 5.0))
    with pytest.raises(ContractViolation):
        duration(POT, packet, "transmission", RegionMarkers(1.0, 8.0))


# -------------------------------------------------------------------- dwell

def test_dwell_two_forms_agree(packet):
    rep = dwell(POT, packet, RegionMarkers(-30.0, 35.0))
    assert rep.components["form_residual"] < 1e-4
    assert rep.mean == pytest.approx(rep.components["flux_moment_form"], rel=1e-4)


def test_dwell_two_forms_fig2_family():
    for (Eb, dk) in [(2.5, 0.02), (5.0, 0.02), (7.5, 0.02), (5.0, 0.04), (5.0, 0.06)]:
        pk = gaussian_packet(float(UNITS.wavenumber(Eb)), dk)
        rep = dwell(POT, pk, RegionMarkers(-25.0, 30.0))
        assert rep.components["form_residual"] < 1e-4, (Eb, dk)


def test_dwell_opaque_monochromatic_limit():
    # narrow packet, markers on the barrier: -> hbar k/(kappa V0)
    pot = rectangular(10.0, 8.729)  # kappa a = 10
    pk = gaussian_packet(K_BAR, 0.005)
    rep = dwell(pot, pk, RegionMarkers(0.0, 8.729))
    assert rep.mean == pytest.approx(0.06582119569, rel=0.01)


def test_transparent_barrier_dwell_equals_transmission():
    # far-above-barrier packet: A_R ~ 0, dwell = transmission duration
    pot = rectangular(0.05, 4.0)
    pk = gaussian_packet(K_BAR, 0.02)
    markers = RegionMarkers(-20.0, 24.0)
    rep_d = dwell(pot, pk, markers)
    rep_t = duration(pot, pk, "transmission", markers)
    assert rep_d.mean == pytest.approx(rep_t.mean, rel=1e-3)


def test_dwell_evaluates_each_flux_once(monkeypatch):
    # one union window (a flux series per marker, each with one tail
    # extension) and J(x_f), J(x_i), J_in(x_i) once, shared with the
    # decomposition that supplies the variance
    counts = {"flux": 0, "flux_series": 0}
    for name in counts:
        original = getattr(Propagator, name)

        def counted(self, *args, _original=original, _name=name, **kwargs):
            counts[_name] += 1
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(Propagator, name, counted)
    dwell(POT, gaussian_packet(K_BAR, 0.02, n_k=128), RegionMarkers(-25.0, 30.0))
    assert counts == {"flux": 7, "flux_series": 2}


@pytest.mark.parametrize("pot, E_bar, markers", [
    (POT, 5.0, RegionMarkers(-25.0, 30.0)),
    (rectangular(5.0, 3.0), 8.0, RegionMarkers(-20.0, 23.0)),
    (double_rectangular(10.0, 1.0, 4.0), 5.0, RegionMarkers(-20.0, 25.0)),
], ids=["below-barrier", "above-barrier", "double-barrier"])
def test_dwell_space_form_matches_direct_space_time_sum(pot, E_bar, markers):
    # the energy-representation space form against the same quadrature taken
    # directly: Psi on the density grid x the dwell window from the full
    # exp(-iEt/hbar) array, |Psi|^2 summed with the x and trapezoid weights
    pk = gaussian_packet(float(UNITS.wavenumber(E_bar)), 0.02, n_k=128)
    rep = dwell(pot, pk, markers)
    prop, tg, _, _, N, _ = flux_times._dwell_fluxes(pot, pk, markers, UNITS)
    xg = flux_times._density_grid(pot, pk, markers, UNITS)
    phases = np.exp(-1j * np.multiply.outer(pk.E, tg.points) / UNITS.hbar)
    total = 0.0
    for xs, wx in zip(np.array_split(xg.points, 8), np.array_split(xg.weights, 8)):
        rows = prop._cw * np.array([prop.table.psi_dpsi(x)[0] for x in xs])
        total += wx @ (np.abs(rows @ phases) ** 2 @ tg.weights)
    assert rep.components["space_time_form"] == pytest.approx(total / N, rel=1e-12)


@pytest.mark.parametrize("V0, a, E_bar, dk, n_k, expected", [
    (10.0, 5.0, 5.0, 0.02, 512, 3.873389109787431),
    (8.0, 4.0, 3.0, 0.03, 256, 5.010136378946223),
])
def test_dwell_matches_time_sample_quadrature(V0, a, E_bar, dk, n_k, expected):
    # values of the space form summed over the 4096 time samples of |Psi|^2,
    # before the energy representation replaced that sum
    pk = gaussian_packet(float(UNITS.wavenumber(E_bar)), dk, n_k=n_k)
    rep = dwell(rectangular(V0, a), pk, RegionMarkers(-25.0, a + 25.0))
    assert rep.mean == pytest.approx(expected, rel=1e-12)


def test_density_integral_needs_a_time_window():
    prop = Propagator(POT, gaussian_packet(K_BAR, 0.02, n_k=128))
    xg = flux_times._density_grid(POT, prop.packet, RegionMarkers(0.0, 5.0), UNITS)
    for t_range, n_t in [((10.0, 10.0), 64), ((10.0, -10.0), 64), ((-10.0, 10.0), 1)]:
        with pytest.raises(ContractViolation):
            prop.density_integral(xg, t_range, n_t)


def test_decomposition_after_dwell_evaluates_no_flux(monkeypatch):
    # dwell and its decomposition share one window: the second one reads
    # every flux from the propagator's memo
    pk = gaussian_packet(K_BAR, 0.02, n_k=128)
    markers = RegionMarkers(-25.0, 30.0)
    dwell(POT, pk, markers)
    calls = []
    contract = Propagator._contract
    monkeypatch.setattr(Propagator, "_contract",
                        lambda self, rows, ts: calls.append(len(ts)) or contract(self, rows, ts))
    dwell_decomposition(POT, pk, markers)
    assert calls == []


def test_free_dwell_has_no_reflected_channel():
    # free space reflects nothing: the round trip carries no weight in the
    # decomposition, and both dwell forms give the ballistic time d/v
    pk = gaussian_packet(K_BAR, 0.02, n_k=128)
    markers = RegionMarkers(0.0, 10.0)
    rep = dwell(FREE, pk, markers)
    dec = dwell_decomposition(FREE, pk, markers)
    assert rep.mean == pytest.approx(10.0 / V_BAR, rel=1e-3)
    assert dec.mean == pytest.approx(rep.mean, rel=1e-12)
    assert dec.components["tau_R"] == dec.components["D_tau_R"] == 0.0
    assert dec.components["T_E"] == pytest.approx(1.0, abs=1e-12)
    assert rep.variance == dec.variance
    assert dec.variance == pytest.approx(dec.components["D_tau_T"], rel=1e-12)


def test_empty_decomposition_channel_is_named():
    # a transmitted channel without mass is a real failure and says where
    pk = gaussian_packet(K_BAR, 0.02, n_k=128)
    markers = RegionMarkers(-30.0, 35.0)
    prop, tg, J_f, J_i, N, flux_form = flux_times._dwell_fluxes(POT, pk, markers, UNITS)
    with pytest.raises(NoSuchFluxError, match=r"'\+' at x_f=35.0"):
        flux_times._decomposition(prop, markers, tg, np.zeros_like(J_f), J_i, N, flux_form)


def test_dwell_variance_is_the_decomposition_variance():
    pk = gaussian_packet(K_BAR, 0.02, n_k=128)
    markers = RegionMarkers(-30.0, 35.0)
    rep = dwell(POT, pk, markers)
    dec = dwell_decomposition(POT, pk, markers)
    assert rep.variance == dec.variance
    assert rep.components["flux_moment_form"] == dec.mean
    assert rep.components["incident_mass"] == dec.components["incident_mass"]


# ------------------------------------------------------------- decomposition

def test_decomposition_reconstructs_dwell(packet):
    rep = dwell_decomposition(POT, packet, RegionMarkers(-30.0, 35.0))
    assert rep.components["reconstruction_residual"] < 1e-3
    assert rep.components["T_E"] + rep.components["R_E"] == pytest.approx(1.0, abs=1e-6)
    assert rep.components["r_xi"] < 0.0


def test_interference_deficit_vanishes_upstream(packet):
    r_values = [interference_deficit(POT, packet, x) for x in (-20.0, -60.0, -120.0)]
    mags = [abs(r) for r in r_values]
    assert all(r < 0 for r in r_values[:2])
    assert mags[0] > mags[1] > mags[2]
    assert mags[2] < 1e-4


def test_weighted_average_rule_far_upstream(packet):
    # with separated packets the plain weighted-average rule emerges
    rep = dwell_decomposition(POT, packet, RegionMarkers(-90.0, 35.0))
    T, R = rep.components["T_E"], rep.components["R_E"]
    plain = T * rep.components["tau_T"] + R * rep.components["tau_R"]
    assert rep.mean == pytest.approx(plain, rel=5e-3)
    assert abs(rep.components["r_xi"]) < 2e-3


def test_tunnel_duration_saturates_in_width(packet):
    # Hartman for the flux times: once the entry advance has levelled off,
    # the tunnel duration is width-independent to 5%
    taus = []
    for a in (4.0, 5.0, 6.0):
        taus.append(duration(rectangular(10.0, a), packet, "tunnelling").mean)
    assert (max(taus) - min(taus)) / min(taus) < 0.05


def test_exit_time_family_collapses_onto_one_curve():
    # <t_+(a)> for all five packets lands on one curve: the pairwise spread
    # is below 10% of the tunnelling-time scale the curves are plotted against
    # (the plateaus 2/(v kappa) of different energies differ by ~15% among
    # themselves, so the collapse statement is about the plotted scale)
    vals, tuns = [], []
    for (Eb, dk) in [(2.5, 0.02), (5.0, 0.02), (7.5, 0.02), (5.0, 0.04), (5.0, 0.06)]:
        pk = gaussian_packet(float(UNITS.wavenumber(Eb)), dk)
        prop = propagator(POT, pk)
        vals.append(mean_time(prop.flux_series(5.0), "+").mean)
        tuns.append(duration(POT, pk, "tunnelling").mean)
    scale = max(tuns)
    assert (max(vals) - min(vals)) / scale < 0.10


# ----------------------------------------------------------------- asymptotic

def test_asymptotic_transmission_matches_phase_time(packet):
    markers = RegionMarkers(-520.0, 530.0)
    rep = asymptotic_transmission(POT, packet, markers)
    assert rep.mean == pytest.approx(rep.components["phase_time_avg"], rel=0.01)


def test_asymptotic_precondition(packet):
    with pytest.raises(ContractViolation):
        asymptotic_transmission(POT, packet, RegionMarkers(-60.0, 70.0))


def test_projected_duration_matches_phase_time(packet):
    # the positive-momentum projection variant at the barrier markers
    tau_exp = projected_duration(POT, packet, RegionMarkers(0.0, 5.0))
    tau_ph = packet_averaged(lambda p, E: phase_time(p, E), POT, packet)
    assert tau_exp == pytest.approx(tau_ph, rel=0.01)


@pytest.mark.xfail(
    reason="the spectral variance formula (squared modulus-sensitivity time) "
    "cannot track the flux variance of Gaussian packets: a near-exponential "
    "|A_T(E)| filter translates a Gaussian spectrum without reshaping it, so "
    "the filter term it predicts never dominates any attainable scenario; "
    "kept as the documented comparison, see the asymptotic report fields",
    strict=False,
)
def test_spectral_variance_matches_flux_variance(packet):
    markers = RegionMarkers(-520.0, 530.0)
    rep = asymptotic_transmission(POT, packet, markers)
    spectral = rep.components["spectral_variance"]
    dynamic = rep.components["dynamic_excess"]
    assert dynamic == pytest.approx(spectral, rel=0.10)


def test_spectral_variance_is_squared_bl_time(packet):
    # what the spectral formula verifiably approaches: the squared
    # modulus-sensitivity (BL / spin-flip Larmor) time at the packet centre
    from tuntime.stationary_times import bl_time

    rep = asymptotic_transmission(POT, packet, RegionMarkers(-520.0, 530.0))
    assert rep.components["spectral_variance"] == pytest.approx(
        bl_time(POT, E_BAR) ** 2, rel=0.01
    )


# ------------------------------------------------------------------ causality

def test_causality_free_integral_zero_margin(packet):
    res = causality_check(FREE, packet, 20.0, "integral")
    assert res.passed
    assert abs(res.margin) < 1e-9


def test_causality_free_delay_zero_margin(packet):
    res = causality_check(FREE, packet, 20.0, "delay")
    assert res.passed
    assert abs(res.margin) < 1e-9


def test_causality_free_effective_nonnegative(packet):
    res = causality_check(FREE, packet, 20.0, "effective", x_i=20.0)
    assert res.passed
    assert res.margin >= 0.0


def test_causality_opaque_scenario(packet):
    # integral condition passes while the naive mean arrival is advanced
    res = causality_check(POT, packet, 5.0, "integral")
    assert res.passed
    prop = propagator(POT, packet)
    t_plus = mean_time(prop.flux_series(5.0), "+").mean
    t_in = mean_time(prop.flux_series(5.0, component="free"), "+").mean
    assert t_plus - t_in < 0.0  # superluminal mean, causal integral
    delay = causality_check(POT, packet, 5.0, "delay")
    assert delay.passed is None  # envelope stays beneath: inapplicable


def test_causality_delay_ignores_rounding_level_crossings():
    # the first post-peak sign change of J_fin,+ - J_in lies in the tail,
    # where both fluxes are ~1e-33 of the peak: no genuine crossing, so the
    # delay condition is inapplicable rather than failed
    pk = gaussian_packet(float(UNITS.wavenumber(3.0)), 0.03, n_k=256)
    res = causality_check(rectangular(8.0, 4.0), pk, 7.0, "delay")
    assert res.passed is None
    assert np.isnan(res.margin)


def test_causality_delay_genuine_crossing():
    # the final envelope crosses the free one well above the noise floor;
    # the margin is held to 1e-12, as the goldens are, since BLAS threading
    # moves its last digits
    pk = gaussian_packet(float(UNITS.wavenumber(4.5)), 0.06, n_k=256)
    res = causality_check(rectangular(6.0, 5.0), pk, 7.0, "delay")
    assert res.passed is False
    assert res.detail == "t0=5.1001 fs"
    assert res.margin == pytest.approx(-0.10229119940318993, rel=1e-12)


def test_causality_delay_slow_crossing_through_noise_floor():
    # a smooth crossing in the tail (fluxes ~1e-10 of the peak): the gap
    # passes through the noise-floor band over two samples, then stays above
    # it with the other sign, so it is still a crossing
    pk = gaussian_packet(float(UNITS.wavenumber(5.0)), 0.06, n_k=256)
    res = causality_check(rectangular(6.7, 4.8), pk, 7.2, "delay")
    assert res.passed is False
    assert res.detail == "t0=5.0600 fs"


def test_causality_effective_zaichenko_penetration(packet):
    # x_i = -a/5 and x_f inside (0, 2a/5): whatever sign the mean penetration
    # duration takes (reported negative in one later calculation, positive for
    # the packets here, consistent with the source's own plots), the
    # effective-instant condition t_eff(x_f) - t_eff(x_i) >= 0 must hold
    a = 5.0
    for x_f in np.linspace(0.0, 2 * a / 5, 4):
        rep = duration(POT, packet, "penetration", RegionMarkers(-a / 5, float(x_f)))
        eff = causality_check(POT, packet, float(x_f), "effective", x_i=-a / 5)
        assert np.isfinite(rep.mean)
        assert eff.passed
        assert eff.margin >= rep.mean  # the sigma terms only widen the window


def test_causality_bad_variant(packet):
    with pytest.raises(ContractViolation):
        causality_check(POT, packet, 5.0, "telepathic")
