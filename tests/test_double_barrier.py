"""Double-barrier coefficients, the generalized Hartman effect, resonances."""

import cmath
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis.strategies import floats

from tuntime.core import UNITS, ContractViolation
from tuntime.double_barrier import (
    OpacityWarning,
    find_resonances,
    opaque_coefficients,
    opaque_phase_time,
    phase_time_total,
    resonance_denominator,
)
from tuntime.potential import double_rectangular, rectangular
from tuntime.scattering import SolutionTable, solve
from tuntime.stationary_times import phase_time, resonance_delay

from oracles import cavity_factor, mp_pole, solve_exact

V0 = 10.0
PLATEAU = 0.13164239138  # 2/(v chi) at E = 5 eV


def test_exact_total_matches_general_solver():
    for (a, L, E) in [(5.0, 15.0, 5.0), (4.0, 9.0, 2.0), (6.0, 6.0, 7.0)]:
        sol = solve_exact(V0, a, L, E)
        ref = solve(double_rectangular(V0, a, L), E)
        assert abs(sol.total_transmission - ref.A_T) < 1e-9
        assert abs(sol.A_R - ref.A_R) < 1e-9


def test_exact_unitarity():
    sol = solve_exact(V0, 5.0, 15.0, 5.0)
    assert abs(sol.total_transmission) ** 2 + abs(sol.A_R) ** 2 == pytest.approx(
        1.0, abs=1e-9
    )


def test_degenerate_gap_equals_merged_barrier():
    sol = solve_exact(V0, 5.0, 5.0, 5.0)
    merged = solve(rectangular(V0, 10.0), 5.0)
    assert abs(sol.total_transmission - merged.A_T) < 1e-10


def test_opaque_coefficients_agree_with_exact():
    E = 5.0
    chi = float(UNITS.decay_constant(V0, E))
    a = 10.0 / chi  # chi a = 10
    L = a + 7.0
    ex = solve_exact(V0, a, L, E)
    op = opaque_coefficients(V0, a, L, E)
    for name in ("alpha", "beta", "alphap", "betap", "A_R", "Ap_R", "A_T", "Ap_T"):
        rel = abs(getattr(ex, name) - getattr(op, name)) / abs(getattr(op, name))
        assert rel < 1e-6, name
    assert abs(ex.total_transmission - op.total_transmission) / abs(
        op.total_transmission
    ) < 1e-6


@pytest.mark.parametrize("chi_a", [100.0, 300.0, 800.0])
def test_exact_coefficients_at_high_opacity(chi_a):
    # every field is formed from the table's scaled joint values, so it
    # matches the opaque closed form wherever that is a normal double and is
    # 0 where it underflows: no overflow, and no field lost to another's
    # underflow
    E = 5.0
    a = chi_a / float(UNITS.decay_constant(V0, E))
    ex, op = solve_exact(V0, a, a + 7.0, E), opaque_coefficients(V0, a, a + 7.0, E)
    for name in ("alpha", "beta", "alphap", "betap", "A_R", "Ap_R", "A_T", "Ap_T",
                 "A_real_factor", "total_transmission", "delta"):
        got, want = getattr(ex, name), getattr(op, name)
        if abs(want) >= sys.float_info.min:
            assert abs(got - want) <= 1e-6 * abs(want), name
        else:
            assert got == want == 0, name


def test_opaque_error_decays_like_exp_minus_2_chi_a():
    E = 5.0
    chi = float(UNITS.decay_constant(V0, E))
    errs = []
    for target in (6.0, 8.0, 10.0):
        a = target / chi
        L = a + 7.0
        ex = solve_exact(V0, a, L, E)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", OpacityWarning)
            op = opaque_coefficients(V0, a, L, E)
        errs.append(
            abs(ex.total_transmission - op.total_transmission)
            / abs(op.total_transmission)
        )
    for (e1, e2) in zip(errs, errs[1:]):
        ratio = e1 / e2
        assert math.exp(2 * 2.0) / 5 < ratio < math.exp(2 * 2.0) * 5  # ~ e^{2 d(chi a)}


def test_A_is_real_in_opaque_regime():
    E = 5.0
    chi = float(UNITS.decay_constant(V0, E))
    a = 10.0 / chi
    ex = solve_exact(V0, a, a + 6.0, E)
    assert abs(ex.A_real_factor.imag) / abs(ex.A_real_factor) < 1e-8


def test_delta_closed_form_and_invariance():
    E = 5.0  # = V0/2, so k = chi and delta = arg(-i) = -pi/2
    deltas = []
    for a in (8.0, 10.0, 12.0):
        for gap in (5.0, 10.0, 20.0):
            sol = opaque_coefficients(V0, a, a + gap, E)
            deltas.append(sol.delta)
    assert max(deltas) - min(deltas) < 1e-9
    assert deltas[0] == pytest.approx(-math.pi / 2, abs=1e-12)


def test_delta_extraction_from_exact_solution():
    E = 4.0
    chi = float(UNITS.decay_constant(V0, E))
    a = 12.0 / chi
    sol = solve_exact(V0, a, a + 9.0, E)
    k = sol.k
    extracted = cmath.phase(sol.Ap_R * cmath.exp(-2j * k * sol.L))
    closed = cmath.phase((1j * k + chi) / (1j * k - chi))
    assert extracted == pytest.approx(closed, abs=1e-9)


def test_symmetric_point_trivia():
    # A at k(L-a) -> 0+ with chi = k equals 1; covered by the closed form
    E = 5.0
    a = 8.0
    assert cavity_factor(V0, a, a, E) == pytest.approx(1.0, rel=1e-12)


def test_opacity_contracts_and_warnings():
    E = 5.0
    chi = float(UNITS.decay_constant(V0, E))
    with pytest.raises(ContractViolation):
        opaque_coefficients(V0, 4.0 / chi, 10.0, E)
    with pytest.warns(OpacityWarning):
        opaque_coefficients(V0, 6.0 / chi, 12.0, E)


# ------------------------------------------------- generalized Hartman effect

def test_phase_time_total_independent_of_geometry():
    E = 5.0
    taus = [
        phase_time_total(V0, a, a + gap, E)
        for a in (8.0, 10.0, 12.0)
        for gap in (5.0, 10.0, 20.0)
    ]
    spread = (max(taus) - min(taus)) / min(taus)
    assert spread < 1e-3
    assert taus[-1] == pytest.approx(PLATEAU, rel=1e-3)


def test_phase_time_total_matches_closed_form_route():
    E = 5.0
    closed = opaque_phase_time(V0, E)
    full = phase_time_total(V0, 10.0, 20.0, E)
    assert full == pytest.approx(closed, rel=1e-6)


@pytest.mark.parametrize("ratio", [0.1, 0.5, 0.9999])
def test_opaque_phase_time_is_the_closed_form(ratio):
    # hbar d/dE arg[-4ik chi/(ik - chi)^2] = 2/(v chi) exactly, also where a
    # difference quotient loses digits next to the barrier top
    E = ratio * V0
    v = float(UNITS.velocity(UNITS.wavenumber(E)))
    expected = 2.0 / (v * float(UNITS.decay_constant(V0, E)))
    assert abs(opaque_phase_time(V0, E) - expected) <= 1e-15 * expected


def test_opaque_phase_time_scale():
    # dimensional sanity at E = V0/2: positive, equals 2/(v chi)
    E = 5.0
    chi = float(UNITS.decay_constant(V0, E))
    v = float(UNITS.velocity(UNITS.wavenumber(E)))
    tau = opaque_phase_time(V0, E)
    assert tau > 0
    assert tau == pytest.approx(2.0 / (v * chi), rel=1e-9)


@given(V0=floats(4.0, 20.0), ratio=floats(0.1, 0.9), chi_a=floats(5.0, 25.0),
       gap=floats(1.0, 20.0))
def test_two_barrier_hartman_effect_off_resonance(V0, ratio, chi_a, gap):
    # the generalized Hartman effect: off resonance the total phase time of
    # two opaque barriers is the one-barrier plateau 2/(v chi), whatever the
    # widths and the gap, to e^{-2 chi a} order; the cavity factor A grows
    # towards a resonance, and draws within 20 Gamma of a pole are skipped.
    # The bound is 100 A^2 e^{-2 chi a} + 1e-6 (the central difference's
    # floor), relative to the plateau; 300 random draws reached 0.38 of it
    E = ratio * V0
    a = chi_a / float(UNITS.decay_constant(V0, E))
    L = a + gap
    poles = find_resonances(V0, a, L, (0.05 * V0, 0.95 * V0))
    assume(all(abs(E - r.E_r) > 20.0 * (r.Gamma or 1e-12) for r in poles))
    plateau = opaque_phase_time(V0, E)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the ResonanceWarning's opaque test
        tau = phase_time_total(V0, a, L, E)
    A = cavity_factor(V0, a, L, E)
    assert abs(tau - plateau) / plateau <= 100.0 * A * A * math.exp(-2.0 * chi_a) + 1e-6


# ------------------------------------------------------------------ resonances

def test_find_resonances_match_denominator_roots():
    a, L = 5.0, 15.0
    res = find_resonances(V0, a, L, (0.5, 9.5))
    assert len(res) >= 3

    # independent oracle: sign-change bisection on the resonance denominator
    Es = np.linspace(0.5, 9.5, 20001)
    den = np.array([resonance_denominator(V0, a, L, float(E)) for E in Es])
    roots = []
    for i in range(len(Es) - 1):
        if den[i] * den[i + 1] < 0:
            lo, hi = float(Es[i]), float(Es[i + 1])
            for _ in range(100):
                mid = 0.5 * (lo + hi)
                if resonance_denominator(V0, a, L, lo) * resonance_denominator(
                    V0, a, L, mid
                ) <= 0:
                    hi = mid
                else:
                    lo = mid
            roots.append(0.5 * (lo + hi))
    assert len(roots) == len(res)
    for r, root in zip(res, roots):
        width = r.Gamma if r.Gamma is not None else 1e-6
        assert abs(r.E_r - root) < max(5 * width, 1e-3)


def test_resonance_peaks_dominate_background():
    a, L = 5.0, 15.0
    res = find_resonances(V0, a, L, (0.5, 9.5))
    for r in res:
        assert r.T_peak > 0.99  # symmetric barriers transmit fully on resonance
        off = abs(solve(double_rectangular(V0, a, L), r.E_r + 50 * r.Gamma).A_T) ** 2
        assert r.T_peak > 100 * off


def test_no_resonances_without_cavity():
    assert find_resonances(V0, 5.0, 5.0, (0.5, 9.5)) == []


@pytest.mark.parametrize("E_range", [(0.5, 9.5), (2.0, 6.0)])
def test_find_resonances_batches_its_solves(monkeypatch, E_range):
    # each round of each search is one table over every peak: no one-energy
    # solve, and a few dozen tables where scalar searches built hundreds
    from tuntime import double_barrier, scattering

    counts = {"tables": 0}
    init = scattering.SolutionTable.__init__

    def counted_init(self, *args, **kwargs):
        counts["tables"] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(scattering.SolutionTable, "__init__", counted_init)
    assert find_resonances(V0, 5.0, 15.0, E_range)
    assert "solve" not in vars(double_barrier)  # the module binds no one-energy solve
    assert counts["tables"] <= 8  # the scan, the Newton steps and the peak heights


def test_pole_independent_of_the_window():
    # a window ending half a width past the peak gives the same pole as a
    # wide one, to rounding: nothing is measured from the window's edges
    r = find_resonances(V0, 5.0, 15.0, (2.0, 6.0))[-1]
    window = (r.E_r - 10 * r.Gamma, r.E_r + 0.5 * r.Gamma)
    (one_sided,) = find_resonances(V0, 5.0, 15.0, window)
    assert abs(one_sided.E_r - r.E_r) <= 1e-12
    assert abs(one_sided.Gamma - r.Gamma) <= 1e-12


@pytest.mark.parametrize("case, E_range", [
    ((10.0, 3.0, 13.0), (4.0, 5.5)),  # Gamma 1.2e-3 eV
    ((11.0, 5.0, 15.0), (4.5, 5.0)),  # benchmark-like: Gamma 3.8e-6 eV
    ((10.0, 2.0, 12.0), (4.0, 5.5)),  # broad: Gamma 1.3e-2 eV
])
def test_pole_matches_a_60_digit_pole(case, E_range):
    # E_r - i Gamma against a 60-digit root of the transmission denominator,
    # to 1e-12 eV in both parts; (10, 3, 13) is 4.662968157 - 0.001183263i
    pytest.importorskip("mpmath")
    (r,) = find_resonances(*case, E_range)
    want = mp_pole(double_rectangular(*case), complex(r.E_r, -r.Gamma))
    assert abs(r.E_r - want.real) <= 1e-12 and abs(r.Gamma + want.imag) <= 1e-12
    assert r.resolved and 0.99 < r.T_peak < 1.01


def _winding(pot, Es):
    """The winding number of D along the closed polygon Es, one table; every
    step of its phase must stay below pi/2, so that none is missed."""
    turns = np.diff(np.unwrap(np.angle(SolutionTable(pot, np.append(Es, Es[:1])).D)))
    assert np.all(np.abs(turns) < 0.5 * np.pi)
    return turns.sum() / (2.0 * np.pi)


def test_argument_principle_counts_the_poles():
    # D winds once around each pole, and a contour around a window holds as
    # many zeros of D as find_resonances reports there (the real scale of the
    # table leaves the phase of D alone)
    a, L, lo, hi, depth = 3.0, 13.0, 0.5, 9.5, 0.05
    pot = double_rectangular(V0, a, L)
    res = find_resonances(V0, a, L, (lo, hi))
    assert len(res) == 4 and max(r.Gamma for r in res) < depth
    circle = np.exp(2j * np.pi * np.arange(64) / 64)
    for r in res:
        assert round(_winding(pot, complex(r.E_r, -r.Gamma) + 0.5 * r.Gamma * circle)) == 1
    x, y = np.linspace(lo, hi, 20001), np.linspace(-depth, depth, 201)
    box = np.concatenate([x - 1j * depth, hi + 1j * y, x[::-1] + 1j * depth, lo - 1j * y[::-1]])
    assert round(_winding(pot, box)) == len(res)


def test_pole_within_rounding_of_the_axis_is_position_only():
    # Gamma = 6.6e-13 eV at 60 digits, below the 1e-12 eV rounding level:
    # the position alone is reported, to 1e-12 eV
    pytest.importorskip("mpmath")
    case = (10.0, 8.0, 24.0)
    (r,) = find_resonances(*case, (0.45, 0.7))
    assert r.Gamma is None and not r.resolved and 0.99 < r.T_peak < 1.01
    want = mp_pole(double_rectangular(*case), r.E_r)
    assert 0.0 < -want.imag < 1e-12 and abs(r.E_r - want.real) <= 1e-12


def test_phase_time_fits_lorentzian_near_resonance():
    a, L = 5.0, 15.0
    res = find_resonances(V0, a, L, (2.0, 6.0))
    assert res
    r = res[-1]
    pot = double_rectangular(V0, a, L)
    Es = np.linspace(r.E_r - 3 * r.Gamma, r.E_r + 3 * r.Gamma, 13)
    rel_step = r.Gamma / (200.0 * r.E_r)
    taus = np.array([phase_time(pot, float(Ee), rel_step=rel_step) for Ee in Es])
    lor = np.array([resonance_delay(float(Ee), r.E_r, r.Gamma, 0.0) for Ee in Es])
    tau_nr = float(np.mean(taus - lor))
    resid = np.max(np.abs(taus - (lor + tau_nr)) / np.abs(taus))
    assert resid < 0.05
    # and the on-resonance peak value is hbar/Gamma + background
    peak = phase_time(pot, r.E_r, rel_step=rel_step)
    assert peak == pytest.approx(UNITS.hbar / r.Gamma + tau_nr, rel=0.01)
