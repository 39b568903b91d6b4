"""Stationary tunnelling-time definitions and their cross-route identities.

Frozen references (CODATA constants, V0 = 10 eV, E = 5 eV):
    kappa = k = 1.1455750187578737 1/A,  v = 13.262051136934193 A/fs,
    Hartman plateau 2/(v kappa) = 0.13164239138 fs,
    dwell plateau hbar k/(kappa V0) = 0.06582119569 fs,
    BL slope m/(hbar kappa) = 0.07540311748723745 fs/A.
"""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis.strategies import floats

from tuntime.core import UNITS, ContractViolation
from tuntime.potential import PiecewisePotential, RegionMarkers, double_rectangular, rectangular
from tuntime.scattering import rect_amplitude, solve
from tuntime.stationary_times import (
    bl_time,
    dwell_time_stationary,
    opaque_dwell_limits,
    phase_time,
    rect_dwell_closed,
    resonance_delay,
    time_catalog,
    two_phase_times,
)
from tuntime.wavepacket import gaussian_packet

V0, E = 10.0, 5.0
KAPPA = 1.1455750187578737
V_GROUP = 13.262051136934193
PLATEAU = 0.13164239138
DWELL_PLATEAU = 0.06582119569
BL_SLOPE = 0.07540311748723745


def test_frozen_reference_values():
    assert float(UNITS.decay_constant(V0, E)) == pytest.approx(KAPPA, rel=1e-12)
    assert float(UNITS.velocity(KAPPA)) == pytest.approx(V_GROUP, rel=1e-12)
    assert 2.0 / (V_GROUP * KAPPA) == pytest.approx(PLATEAU, rel=1e-9)
    assert UNITS.hbar * KAPPA / (KAPPA * V0) == pytest.approx(DWELL_PLATEAU, rel=1e-12)
    assert UNITS.hbar / (2 * UNITS.hbar2_over_2m * KAPPA) == pytest.approx(
        BL_SLOPE, rel=1e-12
    )


# --------------------------------------------------------------- phase time

def test_phase_time_free_ballistic():
    pot = PiecewisePotential(())
    tau = phase_time(pot, E, RegionMarkers(0.0, 10.0))
    assert tau == pytest.approx(10.0 / V_GROUP, rel=1e-12)


def test_phase_time_hartman_saturation():
    # within 2% of the plateau already at kappa a = 6, and flat beyond
    a6 = 6.0 / KAPPA
    assert phase_time(rectangular(V0, a6), E) == pytest.approx(PLATEAU, rel=0.02)
    for a in (8.0, 10.0, 12.0):
        tau = phase_time(rectangular(V0, a), E)
        assert tau == pytest.approx(PLATEAU, rel=0.02)
    taus = [phase_time(rectangular(V0, a), E) for a in (8.0, 12.0)]
    assert abs(taus[0] - taus[1]) / taus[1] < 1e-3


def test_phase_time_plateau_value_two_routes():
    # saturation value against 2/(v kappa) and against a finite difference of
    # the analytic amplitude's phase
    tau = phase_time(rectangular(V0, 10.0), E)
    assert tau == pytest.approx(PLATEAU, rel=1e-6)
    h = 1e-6 * E
    k = lambda Ee: float(UNITS.wavenumber(Ee))
    hi = rect_amplitude(V0, 10.0, E + h)[0] * np.exp(1j * k(E + h) * 10.0)
    lo = rect_amplitude(V0, 10.0, E - h)[0] * np.exp(1j * k(E - h) * 10.0)
    analytic_route = UNITS.hbar * np.angle(hi / lo) / (2 * h)
    assert tau == pytest.approx(analytic_route, rel=1e-9)
    # opaque barriers short of a subnormal |A_T| keep the plateau
    for kappa_a in (300.0, 700.0):
        assert phase_time(rectangular(V0, kappa_a / KAPPA), E) == pytest.approx(
            PLATEAU, rel=1e-6
        )


def test_array_energies_match_scalar_calls():
    # one stacked table for all 512 packet nodes gives the per-node values
    # exactly: each table row is independent of the other energies, also at
    # kappa a = 700, where the forward pass splits the barrier into chunks
    # (phase_time raises there by design: |A_T| is near underflow)
    Es = gaussian_packet(KAPPA, 0.02, n_k=512).E
    thin, opaque = rectangular(V0, 5.0), rectangular(V0, 700.0 / KAPPA)
    cases = [(phase_time, thin), (bl_time, thin), (bl_time, opaque),
             (lambda pot, E: dwell_time_stationary(pot, E, RegionMarkers(0.0, pot.x_right)),
              opaque)]
    for fn, pot in cases:
        taus = fn(pot, Es)
        assert isinstance(taus, np.ndarray) and taus.shape == Es.shape
        scalar = np.array([fn(pot, float(Ee)) for Ee in Es])
        assert np.array_equal(taus, scalar)


def _resonant_family():
    # the middle row sits on a cavity resonance of width ~1e-9 eV, so its
    # phase swings across the first steps and only its entries are refined
    from tuntime.double_barrier import find_resonances
    E_r = find_resonances(10.0, 6.0, 18.0, (0.5, 1.5))[0].E_r
    return [double_rectangular(10.0, 6.0, L) for L in (16.0, 18.0, 20.0)], E_r


def test_geometry_families_match_scalar_calls():
    # a sequence of potentials is one call per difference round, and every
    # row equals the scalar call on its own potential, with energies one for
    # all or one per row and markers one per row
    widths = np.array([0.5, 8.0, 299.0, 450.0, 700.0, 3000.0, 1e4]) / KAPPA
    rects = [rectangular(V0, a) for a in widths]
    heights = [rectangular(v, 3.0) for v in (4.0, 4.9, 5.0, 7.5, 12.0)]  # V0 = E is nudged
    resonant, E_r = _resonant_family()

    def dwell(pot, E):
        def mark(p):
            return RegionMarkers(p.x_left - 1.0, p.x_right)
        return dwell_time_stationary(pot, E, [mark(p) for p in pot] if isinstance(pot, list)
                                     else mark(pot))

    cases = [(phase_time, rects[:5], E), (phase_time, heights, E),
             (phase_time, resonant, E_r), (phase_time, rects[:4], np.linspace(2.0, 6.0, 4)),
             (bl_time, rects, E), (bl_time, heights[3:], np.array([5.5, 4.0])),
             (dwell, rects, E), (dwell, heights, E), (dwell, resonant, E_r)]
    for fn, pots, Es in cases:
        taus = fn(pots, Es)
        assert isinstance(taus, np.ndarray) and taus.shape == (len(pots),)
        scalar = [fn(pot, float(Ee)) for pot, Ee in zip(pots, np.broadcast_to(Es, len(pots)))]
        assert np.array_equal(taus, scalar)
    markers = [RegionMarkers(-2.0, p.x_right + 1.0) for p in rects[:5]]
    assert np.array_equal(phase_time(rects[:5], E, markers),
                          [phase_time(p, E, m) for p, m in zip(rects[:5], markers)])
    assert np.array_equal(dwell_time_stationary(rects[:5], E, markers),
                          [dwell_time_stationary(p, E, m) for p, m in zip(rects[:5], markers)])
    with pytest.raises(ContractViolation):
        bl_time(heights, E)  # V0 = 4 eV lies below E


# ------------------------------------------------------------------ BL time

def test_bl_time_width_proportionality():
    b1 = bl_time(rectangular(V0, 8.0), E)   # kappa a = 9.2
    b2 = bl_time(rectangular(V0, 16.0), E)
    assert b2 / b1 == pytest.approx(2.0, rel=0.01)


def test_bl_time_linear_fit():
    widths = np.linspace(8.0, 16.0, 9)
    times = np.array([bl_time(rectangular(V0, float(a)), E) for a in widths])
    slope, intercept = np.polyfit(widths, times, 1)
    resid = times - (slope * widths + intercept)
    assert np.max(np.abs(resid)) / np.max(times) < 0.01
    assert slope == pytest.approx(BL_SLOPE, rel=0.01)


def test_bl_time_vanishing_barrier():
    assert bl_time(rectangular(V0, 1e-6), E) < 1e-6


def test_bl_time_extreme_opacity():
    # log-magnitude route: kappa a ~ 900 still returns the linear growth
    tau = bl_time(rectangular(V0, 800.0), E)
    assert tau == pytest.approx(800.0 * BL_SLOPE, rel=1e-3)


def test_bl_time_contract():
    with pytest.raises(ContractViolation):
        bl_time(rectangular(V0, 5.0), 12.0)


# --------------------------------------------------------------- dwell time

def test_dwell_free_region():
    pot = PiecewisePotential(())
    d = 7.5
    tau = dwell_time_stationary(pot, E, RegionMarkers(0.0, d))
    assert tau == pytest.approx(d / V_GROUP, rel=1e-10)


def test_dwell_opaque_limit():
    a = 10.0 / KAPPA  # kappa a = 10
    tau = dwell_time_stationary(rectangular(V0, a), E, RegionMarkers(0.0, a))
    assert tau == pytest.approx(DWELL_PLATEAU, rel=0.01)


@example(V0=V0, ratio=E / V0, kappa_a=2.0 * KAPPA)
@example(V0=V0, ratio=E / V0, kappa_a=5.0 * KAPPA)
@example(V0=V0, ratio=E / V0, kappa_a=9.0 * KAPPA)
@example(V0=V0, ratio=E / V0, kappa_a=1e4)
@given(V0=floats(1.0, 20.0), ratio=floats(0.05, 0.95),
       kappa_a=floats(-1.0, 4.0).map(lambda p: 10.0**p))
def test_dwell_matches_closed_form(V0, ratio, kappa_a):
    # rectangular barriers up to kappa a = 1e4: the region integral equals the
    # independent closed form, follows the opaque limit hbar k/(kappa V0), an
    # energy array gives exactly the scalar values, and the solve stays
    # consistent
    Ed = ratio * V0
    a = kappa_a / float(UNITS.decay_constant(V0, Ed))
    pot, markers = rectangular(V0, a), RegionMarkers(0.0, a)
    tau = dwell_time_stationary(pot, Ed, markers)
    assert tau == pytest.approx(rect_dwell_closed(V0, a, Ed), abs=1e-9)
    if kappa_a >= 10.0:
        limit = opaque_dwell_limits(V0, Ed)["with_interference"]
        assert tau == pytest.approx(limit, rel=0.01)
    Es = np.array([0.5 * Ed, Ed, min(1.5 * Ed, 0.99 * V0)])
    scalar = [dwell_time_stationary(pot, float(e), markers) for e in Es]
    assert np.array_equal(dwell_time_stationary(pot, Es, markers), scalar)
    assert solve(pot, Ed).boundary_residual() < 1e-10


@pytest.mark.parametrize("kappa_a", [700.0, 745.0, 2000.0, 1e4])
def test_dwell_opaque_plateau_past_underflow(kappa_a):
    # |A_T| is subnormal or zero here; the dwell still saturates at
    # hbar k/(kappa V0) and the solve stays consistent at the entry joint
    a = kappa_a / KAPPA
    pot = rectangular(V0, a)
    tau = dwell_time_stationary(pot, E, RegionMarkers(0.0, a))
    assert tau == pytest.approx(DWELL_PLATEAU, rel=1e-9)
    assert solve(pot, E).boundary_residual() < 1e-10


def test_opaque_dwell_limits_side_by_side():
    lims = opaque_dwell_limits(V0, E)
    assert lims["with_interference"] == pytest.approx(DWELL_PLATEAU, rel=1e-12)
    # at k = kappa the separated-packet variant is exactly twice the other
    assert lims["separated"] == pytest.approx(2 * DWELL_PLATEAU, rel=1e-9)
    # the actual stationary dwell follows the interference-kept limit
    a = 10.0 / KAPPA
    tau = dwell_time_stationary(rectangular(V0, a), E, RegionMarkers(0.0, a))
    assert tau == pytest.approx(lims["with_interference"], rel=0.01)


def test_dwell_marker_inside_segment():
    # penetration-style marker inside the barrier
    tau_half = dwell_time_stationary(rectangular(V0, 6.0), E, RegionMarkers(0.0, 3.0))
    tau_full = dwell_time_stationary(rectangular(V0, 6.0), E, RegionMarkers(0.0, 6.0))
    assert 0 < tau_half < tau_full


# ------------------------------------------------------------ two-phase route

@pytest.mark.parametrize("a,Etest", [(3.0, 5.0), (2.0, 7.0), (5.0, 3.0)])
def test_two_phase_times_match_direct_routes(a, Etest):
    pot = rectangular(V0, a)
    tau_ph2, tau_z2 = two_phase_times(pot, Etest)
    assert tau_ph2 == pytest.approx(phase_time(pot, Etest), rel=1e-6)
    assert tau_z2 == pytest.approx(bl_time(pot, Etest), rel=1e-6)


def test_two_phase_route_grid_equality():
    # 50-point (E, a) grid: both routes agree to 1e-6 relative
    for a in (1.5, 3.0, 4.5, 6.0, 8.0):
        pot = rectangular(V0, a)
        for Etest in np.linspace(1.0, 9.0, 10):
            tau_ph2, tau_z2 = two_phase_times(pot, float(Etest))
            assert tau_ph2 == pytest.approx(phase_time(pot, float(Etest)), rel=1e-6)
            assert tau_z2 == pytest.approx(bl_time(pot, float(Etest)), rel=1e-6)


def test_two_phase_times_deep_opaque():
    # phi1 -> 0: the cot(phi1) product must stay finite and equal bl_time
    pot = rectangular(V0, 14.0)  # kappa a ~ 16
    _, tau_z = two_phase_times(pot, E)
    assert tau_z == pytest.approx(bl_time(pot, E), rel=1e-6)


def test_opaque_phi2_plateau_independent_of_width():
    # Hartman in the phi2 channel: d(phi2)/dE saturates in a
    t1, _ = two_phase_times(rectangular(V0, 9.0), E)
    t2, _ = two_phase_times(rectangular(V0, 12.0), E)
    assert t1 == pytest.approx(t2, rel=1e-3)


# ----------------------------------------------------------- resonance delay

def test_resonance_delay_peak():
    assert resonance_delay(2.0, 2.0, 0.1, 0.3) == pytest.approx(
        UNITS.hbar / 0.1 + 0.3, rel=1e-12
    )


def test_resonance_delay_background():
    assert resonance_delay(50.0, 2.0, 1e-4, 0.3) == pytest.approx(0.3, rel=1e-6)


def test_resonance_delay_half_maximum():
    E_r, G, bg = 2.0, 0.05, 0.0
    peak = resonance_delay(E_r, E_r, G, bg)
    assert resonance_delay(E_r + G, E_r, G, bg) == pytest.approx(peak / 2, rel=1e-12)
    assert resonance_delay(E_r - G, E_r, G, bg) == pytest.approx(peak / 2, rel=1e-12)


def test_resonance_delay_contract():
    with pytest.raises(ContractViolation):
        resonance_delay(1.0, 1.0, 0.0, 0.0)


# -------------------------------------------------------------- time catalog

def test_time_catalog_identities():
    a = 10.0 / KAPPA
    cat = time_catalog(V0, a, E)
    # Larmor-y equals dwell: two independent computation routes
    assert abs(cat.tau_larmor_y - cat.tau_dwell) < 1e-9
    # Larmor-z is the BL expression by definition
    assert abs(cat.tau_larmor_z - cat.tau_bl) < 1e-12
    assert all(
        np.isfinite(v)
        for v in (cat.tau_phase, cat.tau_bl, cat.tau_dwell, cat.tau_larmor_y)
    )


def test_time_catalog_opaque_plateaus():
    cat = time_catalog(V0, 10.0, E)
    assert cat.tau_phase == pytest.approx(PLATEAU, rel=1e-3)
    assert cat.tau_dwell == pytest.approx(DWELL_PLATEAU, rel=0.01)
    # printed opaque variants of the z-time compared against the direct value:
    # a mu/(hbar kappa) is the one the direct route follows
    assert cat.tau_larmor_z == pytest.approx(10.0 * BL_SLOPE, rel=1e-3)
