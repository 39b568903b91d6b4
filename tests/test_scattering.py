"""Transfer-matrix solve against its independent oracles.

The rectangular barrier has closed-form amplitudes; composing analytic
single-barrier transfer matrices gives an independent route to the double
barrier; unitarity and reciprocity are parameter-free invariants.
"""

import cmath
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis.strategies import floats

from tuntime.core import UNITS, ContractViolation
from tuntime.potential import (
    PiecewisePotential,
    double_rectangular,
    rectangular,
)
from tuntime import scattering
from tuntime.scattering import (
    SolutionTable,
    s_matrix,
    solve,
    two_phase,
)
from tuntime.stationary_times import two_phase_times

from oracles import ORACLE_TOL, UNITARITY_TOL, mp_denominator, mp_sweep, rect_amplitude


def test_free_particle():
    sol = solve(PiecewisePotential(()), 4.2)
    assert sol.A_T == 1.0
    assert sol.A_R == 0.0


def test_energy_contract():
    with pytest.raises(ContractViolation):
        solve(rectangular(10, 5), -1.0)
    with pytest.raises(ContractViolation):
        solve(rectangular(10, 5), 0.0)
    with pytest.raises(ContractViolation, match="positive real part"):
        SolutionTable(rectangular(10, 5), [2.0 - 0.1j, -1.0 - 0.1j])


def test_rect_amplitude_matches_solve():
    sol = solve(rectangular(10.0, 5.0), 5.0)
    A_T, A_R = rect_amplitude(10.0, 5.0, 5.0)
    assert abs(sol.A_T - A_T) < ORACLE_TOL
    assert abs(sol.A_R - A_R) < ORACLE_TOL
    assert 0 < abs(A_T) ** 2 < 1


def test_oracle_equivalence_energy_grid():
    # analytic vs transfer matrix over 200 sub-barrier energies
    V0, a = 10.0, 3.0
    pot = rectangular(V0, a)
    for E in np.linspace(0.05, 9.95, 200):
        A_T, A_R = rect_amplitude(V0, a, float(E))
        sol = solve(pot, float(E))
        assert abs(sol.A_T - A_T) < ORACLE_TOL
        assert abs(sol.A_R - A_R) < ORACLE_TOL


def test_rect_amplitude_contracts():
    with pytest.raises(ContractViolation):
        rect_amplitude(10.0, 5.0, 10.0)  # E = V0
    with pytest.raises(ContractViolation):
        rect_amplitude(10.0, 5.0, 12.0)  # above barrier


def test_vanishing_barrier_limit():
    A_T, A_R = rect_amplitude(10.0, 1e-8, 5.0)
    assert abs(A_T - 1.0) < 1e-6
    assert abs(A_R) < 1e-6


def test_symmetric_point_matches_solve():
    # E = V0/2 puts k = kappa
    sol = solve(rectangular(10.0, 5.0), 5.0)
    A_T, _ = rect_amplitude(10.0, 5.0, 5.0)
    assert abs(sol.A_T - A_T) < ORACLE_TOL


def test_opaque_modulus_decay():
    # |A_T| decreases monotonically in a; the ratio approaches e^{-kappa a}
    V0, E = 10.0, 5.0
    kappa = float(UNITS.decay_constant(V0, E))
    mags = [abs(solve(rectangular(V0, a), E).A_T) for a in (4.0, 8.0, 12.0, 16.0)]
    assert all(m2 < m1 for m1, m2 in zip(mags, mags[1:]))
    ratio = abs(solve(rectangular(V0, 20.0), E).A_T) / abs(
        solve(rectangular(V0, 10.0), E).A_T
    )
    assert ratio == pytest.approx(np.exp(-kappa * 10.0), rel=1e-6)


def test_unitarity_random_potentials():
    rng = np.random.default_rng(7)
    for _ in range(10):
        n_seg = rng.integers(1, 5)
        edges = np.sort(rng.uniform(-10, 20, size=2 * n_seg))
        segs = tuple(
            (float(edges[2 * i]), float(edges[2 * i + 1]), float(rng.uniform(0.5, 15)))
            for i in range(n_seg)
        )
        pot = PiecewisePotential(segs)
        for E in np.linspace(0.08, 14.0, 50):
            sol = solve(pot, float(E))
            assert abs(abs(sol.A_T) ** 2 + abs(sol.A_R) ** 2 - 1.0) < UNITARITY_TOL


def test_reciprocity():
    # |A_T| identical for left and right incidence (mirror the potential)
    pot = PiecewisePotential(((0.0, 2.0, 8.0), (4.0, 5.5, 3.0)))
    mirrored = PiecewisePotential(
        tuple(sorted(((-hi, -lo, v) for (lo, hi, v) in pot.segments)))
    )
    for E in (0.9, 4.0, 9.5):
        assert abs(solve(pot, E).A_T) == pytest.approx(
            abs(solve(mirrored, E).A_T), abs=1e-12
        )


def test_composition_matches_product_of_transfers():
    """Double barrier == product of analytic single-barrier transfer matrices
    with free propagation encoded by the plane-wave phase references."""
    V0, a, L, E = 10.0, 3.0, 9.0, 5.0
    k = float(UNITS.wavenumber(E))
    t, r = rect_amplitude(V0, a, E)
    # right-incidence reflection of the symmetric barrier: mirroring x -> a - x
    # maps the left-incidence solution onto it, giving r~ = r e^{-2ika}
    r_t = r * cmath.exp(-2j * k * a)

    def transfer(shift):
        rs = r * cmath.exp(2j * k * shift)
        rts = r_t * cmath.exp(-2j * k * shift)
        return np.array(
            [[t - rs * rts / t, rts / t], [-rs / t, 1.0 / t]], dtype=complex
        )

    M = transfer(L) @ transfer(0.0)
    r_tot = -M[1, 0] / M[1, 1]
    t_tot = M[0, 0] + M[0, 1] * r_tot
    sol = solve(double_rectangular(V0, a, L), E)
    assert abs(sol.A_T - t_tot) < ORACLE_TOL
    assert abs(sol.A_R - r_tot) < ORACLE_TOL


def test_wavefunction_continuity_at_joints():
    # a joint belongs to the region on its right, and the float just left of
    # it to the region on its left: the two regions' carries of (psi, psi')
    # agree there to 1e-10 relative
    table = SolutionTable(double_rectangular(10.0, 4.0, 10.0), [2.0, 6.0, 9.0, 10.0])
    for edge in table.bounds[1:-1]:
        psiL, dpsiL = table.psi_dpsi(np.nextafter(edge, -np.inf))
        psiR, dpsiR = table.psi_dpsi(edge)
        assert np.all(np.abs(psiL - psiR) / np.maximum(np.abs(psiR), 1e-30) < 1e-10)
        assert np.all(np.abs(dpsiL - dpsiR) / np.maximum(np.abs(dpsiR), 1e-30) < 1e-10)


def test_psi_at_many_positions_matches_psi_dpsi():
    # psi_dpsi evaluates an array of positions in one call; each position's
    # psi and psi' equal its own scalar call bit for bit, in every region of
    # a double barrier, at the joints, in free space and whatever the order
    # of the positions, and an empty array gives empty results
    rng = np.random.default_rng(3)
    for pot in (double_rectangular(10.0, 4.0, 10.0), PiecewisePotential(())):
        table = SolutionTable(pot, np.linspace(1.0, 15.0, 64))
        xs = np.concatenate([rng.permutation(np.linspace(-10.0, 24.0, 97)), table.bounds[1:-1]])
        psi, dpsi = table.psi_dpsi(xs)
        assert psi.shape == dpsi.shape == (xs.size, 64)
        one = [table.psi_dpsi(x) for x in xs]
        assert one[0][0].shape == (64,)
        assert np.array_equal(psi, [p for p, _ in one])
        assert np.array_equal(dpsi, [d for _, d in one])
    assert all(a.shape == (0, 64) for a in table.psi_dpsi([]))


@pytest.mark.parametrize("V0, a", [(10.0, 3.0), (4.0, 7.5), (0.5, 40.0)])
def test_threshold_transmission_closed_form(V0, a):
    # at E = V0 exactly the barrier region's matrix is [[1, -a], [0, 1]]
    # (q = 0), so |A_T|^2 = 1/(1 + (ka/2)^2) with no nudge of the energy
    sol = solve(rectangular(V0, a), V0)
    assert sol.E[0] == V0
    k = float(UNITS.wavenumber(V0))
    assert abs(abs(sol.A_T[0]) ** 2 - 1.0 / (1.0 + (0.5 * k * a) ** 2)) < 1e-14


def test_extreme_opacity_log_form():
    # kappa a ~ 1300: |A_T| underflows but its log stays finite and linear in a
    V0, E = 10.0, 5.0
    kappa = float(UNITS.decay_constant(V0, E))
    s1 = solve(rectangular(V0, 1000.0), E)
    s2 = solve(rectangular(V0, 1200.0), E)
    assert np.isfinite(s1.log_abs_A_T)
    assert s2.log_abs_A_T - s1.log_abs_A_T == pytest.approx(-kappa * 200.0, rel=1e-9)


@pytest.mark.parametrize("kappa_a", [700.0, 2000.0, 1e4])
def test_arbitrarily_opaque_barrier(kappa_a):
    # the module docstring's claim: past the e^{-745} underflow line log|A_T|
    # stays exact, the solve is unitary, psi is finite and continuous across
    # the barrier (no warning is raised) and the entry joint reproduces the
    # incident and reflected waves
    V0, E = 10.0, 5.0  # k = kappa, so |A_T| = 2 e^{-kappa a} / (1 + e^{-2 kappa a})
    a = kappa_a / float(UNITS.decay_constant(V0, E))
    table = SolutionTable(rectangular(V0, a), [E])
    assert table.log_abs_A_T[0] == pytest.approx(np.log(2.0) - kappa_a, rel=1e-13)
    assert abs(abs(table.A_T[0]) ** 2 + abs(table.A_R[0]) ** 2 - 1.0) < UNITARITY_TOL
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        psi, dpsi = zip(*(table.psi_dpsi(x) for x in a * np.array([0.0, 1e-3, 0.5, 1.0])))
    assert np.all(np.isfinite(psi)) and np.all(np.isfinite(dpsi))
    A_R, k = table.A_R[0], table.k[0]
    assert abs(psi[0][0] - (1.0 + A_R)) < 1e-10
    assert abs(dpsi[0][0] - 1j * k * (1.0 - A_R)) < 1e-10
    kappa = float(UNITS.decay_constant(V0, E))
    assert psi[1][0] == pytest.approx(psi[0][0] * np.exp(-kappa * 1e-3 * a), rel=1e-10)


LATTICE = PiecewisePotential(tuple((10.0 * i, 10.0 * i + 4.0, 3.0) for i in range(40)))


def test_transmission_callers_skip_the_region_coefficients(monkeypatch):
    # phase, BL, resonance and mapped phase times read only the transmission,
    # so none of their tables, nor solve's, forms (psi, psi') at the region
    # ends; a region read needs it
    from tuntime.double_barrier import find_resonances
    from tuntime.emguide import WaveguideSpec, mapped_phase_time
    from tuntime.stationary_times import bl_time, phase_time

    def refuse(self):
        raise AssertionError("region values formed")

    monkeypatch.setattr(SolutionTable, "_at_ends", property(refuse))
    pot = double_rectangular(10.0, 4.0, 10.0)
    assert np.all(np.isfinite(phase_time(pot, np.array([2.0, 5.0, 9.0]))))
    assert np.isfinite(phase_time(LATTICE, 2.0)) and np.isfinite(bl_time(LATTICE, 2.0))
    assert np.isfinite(bl_time(pot, 5.0))
    assert find_resonances(10.0, 5.0, 15.0, (0.5, 9.5))
    assert np.isfinite(mapped_phase_time(WaveguideSpec(a=2.3, b=4.6, m=1, n=0, L=10.0, lam=6.0)))
    table = solve(pot, 5.0)
    with pytest.raises(AssertionError, match="region values"):
        table.psi_dpsi(1.0)

    # BL times and resonance searches read only log_abs_A_T, so none of them
    # derives the angle, the complex transmission or the reflection; a phase
    # time reads A_T
    def derived(self):
        raise AssertionError("derived column read")

    for name in ("A_R", "A_T", "arg_A_T"):
        monkeypatch.setattr(SolutionTable, name, property(derived))
    family = [rectangular(10.0, a) for a in (2.0, 5.0, 9.0)]
    assert np.isfinite(bl_time(pot, 5.0))
    assert np.all(np.isfinite(bl_time(LATTICE, np.array([1.0, 2.0, 2.5]))))
    assert np.all(np.isfinite(bl_time(family, 5.0)))
    assert find_resonances(10.0, 5.0, 15.0, (0.5, 9.5))
    with pytest.raises(AssertionError, match="derived column"):
        phase_time(pot, 5.0)


@pytest.mark.parametrize("pot", [rectangular(10.0, 5.0), double_rectangular(10.0, 4.0, 10.0),
                                 LATTICE], ids=["rectangular", "double", "lattice40"])
def test_region_coefficients_independent_of_read_order(pot):
    # the region values are formed once, on first use: psi, psi' and the
    # density read before the transmission equal those read after it, and
    # every row equals a one-energy table's
    Es = np.linspace(0.5, 9.5, 37)
    xs = np.linspace(pot.x_left - 3.0, pot.x_right + 3.0, 41)

    def regions(table):
        return (*table.psi_dpsi(xs), table.density_integral(pot.x_left - 1.0, pot.x_right))

    first = SolutionTable(pot, Es)
    coefficients = regions(first)
    later = SolutionTable(pot, Es)
    transmission = later.A_T, later.A_R, later.log_abs_A_T, later.arg_A_T
    for got, want in zip(regions(later), coefficients):
        assert np.array_equal(got, want)
    for got, want in zip((first.A_T, first.A_R, first.log_abs_A_T, first.arg_A_T), transmission):
        assert np.array_equal(got, want)
    assert first._at_ends is first._at_ends
    for i in (0, 17, 36):
        one = SolutionTable(pot, Es[i:i + 1])
        for got, want in zip((*regions(one), one.A_T), (*coefficients, first.A_T)):
            assert np.array_equal(got[..., 0], want[..., i])


@pytest.mark.parametrize("kappa_a", [300.0, 800.0, 1e4])
def test_rect_amplitude_opaque(kappa_a):
    # closed form past the sinh overflow: |A_R| = 1 and it matches the solve
    V0, E = 10.0, 3.0
    a = kappa_a / float(UNITS.decay_constant(V0, E))
    A_T, A_R = rect_amplitude(V0, a, E)
    sol = solve(rectangular(V0, a), E)
    assert abs(A_T) ** 2 + abs(A_R) ** 2 == pytest.approx(1.0, abs=1e-13)
    assert abs(A_R - sol.A_R) < ORACLE_TOL
    assert abs(A_T - sol.A_T) < ORACLE_TOL


# ---------------------------------------------------------------- two-phase

def test_two_phase_reconstruction_roundtrip():
    sol = solve(rectangular(10.0, 2.0), 5.0)
    A_T, A_R = two_phase(sol).reconstruct()
    assert abs(A_T[0] - sol.A_T[0]) < 1e-9
    assert abs(A_R[0] - sol.A_R[0]) < 1e-9


@example(V0=10.0, ratio=0.99, kappa_a=1e4, x_left=-50.0)
@given(V0=floats(0.5, 20.0), ratio=floats(0.001, 0.999),
       kappa_a=floats(-3.0, 4.0).map(lambda p: 10.0**p), x_left=floats(-50.0, 50.0))
def test_two_phase_reconstruction_holds_everywhere(V0, ratio, kappa_a, x_left):
    # (phi1, phi2) are read from the table's own columns, so the roundtrip
    # gives back its A_T and A_R on every sub-barrier rectangular barrier up
    # to kappa a = 1e4: to 1e-12 plus the rounding of the phase ka that
    # phi2 carries (8e-12 at ka = 5.5e4)
    E = ratio * V0
    a = kappa_a / float(UNITS.decay_constant(V0, E))
    table = solve(PiecewisePotential(((x_left, x_left + a, V0),)), E)
    k = table.k[0]
    A_T, A_R = two_phase(table).reconstruct()
    residual = abs(A_T[0] - table.A_T[0]) + abs(A_R[0] * np.exp(2j * k * x_left) - table.A_R[0])
    assert residual < 1e-12 + 4.0 * np.finfo(float).eps * k * a


def test_two_phase_matches_closed_form_phi1():
    # phi1 = arctan[2 sigma / ((1 + sigma^2) sinh(kappa a))], at every energy
    # of a table
    V0, Es = 10.0, np.linspace(0.5, 9.5, 19)
    for a in (2.0, 1.0, 3.0):
        tp = two_phase(SolutionTable(rectangular(V0, a), Es))
        k = UNITS.wavenumber(Es)
        kap = UNITS.decay_constant(V0, Es)
        sigma = kap / k
        phi1_closed = np.arctan(2 * sigma / ((1 + sigma**2) * np.sinh(kap * a)))
        np.testing.assert_allclose(tp.phi1, phi1_closed, rtol=1e-12, atol=0)
        assert np.all((0 < tp.phi1) & (tp.phi1 <= np.pi / 2))


def test_two_phase_opaque_phi1_scale():
    # opaque: phi1 ~ 4 sigma/(1+sigma^2) e^{-kappa a} -> |A_T| = sin(phi1) small
    V0, E = 10.0, 5.0
    kap = float(UNITS.decay_constant(V0, E))
    a = 10.0 / kap  # kappa a = 10
    sol = solve(rectangular(V0, a), E)
    phi1 = two_phase(sol).phi1[0]
    sigma = 1.0  # E = V0/2
    assert phi1 == pytest.approx(2 * sigma / (1 + sigma**2) * 2 * np.exp(-kap * a), rel=1e-3)
    assert np.sin(phi1) == pytest.approx(abs(sol.A_T[0]), rel=1e-12)


def test_two_phase_unitarity_identity():
    A_T, A_R = two_phase(solve(rectangular(10.0, 2.5), 6.0)).reconstruct()
    assert abs(A_T[0]) ** 2 + abs(A_R[0]) ** 2 == pytest.approx(1.0, abs=1e-15)


def test_two_phase_contracts():
    with pytest.raises(ContractViolation):  # one energy above the barrier
        two_phase(SolutionTable(rectangular(10.0, 2.0), [5.0, 12.0]))
    with pytest.raises(ContractViolation):
        two_phase(solve(double_rectangular(10.0, 2.0, 6.0), 5.0))


@pytest.mark.parametrize("x0", [-1.5, 2.0])
def test_two_phase_of_a_shifted_barrier(x0):
    # moving the barrier moves A_R by e^{2ik x0} and leaves A_T alone: the
    # angles agree with the barrier on (0, a) to rounding, and the times to
    # the central difference's amplification of it
    E = np.array([1.0, 2.0, 3.0])
    at_zero = PiecewisePotential(((0.0, 4.0, 5.0),))
    shifted = PiecewisePotential(((x0, x0 + 4.0, 5.0),))
    tp, tp0 = (two_phase(SolutionTable(pot, E)) for pot in (shifted, at_zero))
    np.testing.assert_allclose(tp.phi1, tp0.phi1, rtol=0, atol=1e-15)
    np.testing.assert_allclose(tp.phi2, tp0.phi2, rtol=0, atol=1e-15)
    for t, t0 in zip(two_phase_times(shifted, E), two_phase_times(at_zero, E)):
        np.testing.assert_allclose(t, t0, rtol=1e-8, atol=0)


# ----------------------------------------------------------------- s-matrix

def test_s_matrix_free_identity():
    S = s_matrix(solve(PiecewisePotential(()), 3.0))
    assert S.shape == (1, 2, 2) and np.allclose(S, np.eye(2))


S_ENERGIES = np.linspace(0.5, 15.0, 30)


def test_s_matrix_unitarity():
    S = s_matrix(SolutionTable(rectangular(10.0, 5.0), S_ENERGIES))
    assert S.shape == (30, 2, 2)
    assert np.max(np.abs(S @ S.conj().transpose(0, 2, 1) - np.eye(2))) < 1e-10


def test_s_matrix_row_orthogonality():
    S = s_matrix(SolutionTable(rectangular(10.0, 5.0), S_ENERGIES))
    A_T, A_R = S[:, 0, 0], S[:, 1, 0]
    assert np.max(np.abs(A_T * np.conj(A_R) + A_R * np.conj(A_T))) < 1e-10


def _mirrored(pot):
    """V(-x): the potential seen by a wave incident from the right."""
    return PiecewisePotential(tuple((-x1, -x0, v) for (x0, x1, v) in reversed(pot.segments)))


def _asymmetric_potentials():
    """A step barrier, two barriers of different heights and six random
    three-barrier lattices."""
    return [PiecewisePotential(((0.0, 3.0, 8.0), (3.0, 5.0, 4.0))),
            PiecewisePotential(((0.0, 1.0, 2.0), (2.0, 6.0, 7.0))),
            *_segment_family(np.random.default_rng(7), 6)]


def _with_heights(pot):
    """S_ENERGIES and every segment height of pot, where Q2 = 0 in that
    segment."""
    return np.concatenate([S_ENERGIES, [v for _, _, v in pot.segments]])


def test_s_matrix_unitary_on_asymmetric_potentials():
    # S01 is the reflection for incidence from the right, not a copy of A_R,
    # so S is unitary with no symmetry: to 1e-12 at every energy, those
    # equal to a segment height included
    for pot in _asymmetric_potentials():
        S = s_matrix(SolutionTable(pot, _with_heights(pot)))
        defect = np.abs(S.conj().transpose(0, 2, 1) @ S - np.eye(2)).max(axis=(1, 2))
        assert np.max(defect) < 1e-12
    S = s_matrix(solve(_asymmetric_potentials()[0], 3.0))[0]
    assert abs(S[0, 1] - S[1, 0]) > 0.1  # the two reflections differ in phase


def test_r_prime_is_the_mirrored_potentials_reflection():
    # the two reflections come from two sweeps, so they agree to rounding:
    # 1e-15 on the step barrier and 1e-14 over the seven regions of a
    # lattice, at segment heights too
    step = _asymmetric_potentials()[0]
    Es = [2.0, 3.0, 6.0, 9.0]
    table, mirror = SolutionTable(step, Es), SolutionTable(_mirrored(step), Es)
    assert np.max(np.abs(table.r_prime - mirror.A_R)) < 1e-15
    for pot in _asymmetric_potentials():
        Es = _with_heights(pot)
        table, mirror = SolutionTable(pot, Es), SolutionTable(_mirrored(pot), Es)
        assert np.max(np.abs(table.r_prime - mirror.A_R)) < 1e-14
    assert solve(PiecewisePotential(()), 3.0).r_prime == 0.0


def _segment_family(rng, n_rows):
    """Three barriers with random edges and heights: seven regions in every row."""
    rows = []
    for _ in range(n_rows):
        edges = np.cumsum(rng.uniform(0.3, 4.0, 6)) - 3.0
        rows.append(PiecewisePotential(tuple(
            (float(edges[2 * i]), float(edges[2 * i + 1]), float(rng.uniform(0.5, 15.0)))
            for i in range(3))))
    return rows


FAMILIES = {  # case: the potentials of the rows, their energies (one per row or one for all)
    # kappa a from 0.5 to 1e4, past the underflow of A_T, in one table
    "rect-a": ([rectangular(10.0, kappa_a / float(UNITS.decay_constant(10.0, 5.0)))
                for kappa_a in (0.5, 8.0, 299.0, 450.0, 800.0, 3000.0, 1e4)], 5.0),
    # V0 = E puts the fourth row's barrier at Q2 = 0
    "rect-V0": ([rectangular(V0, 3.0) for V0 in (2.0, 4.0, 4.9, 5.0, 7.5, 12.0)], 5.0),
    "double-a-gap": ([double_rectangular(10.0, a, a + gap) for a in (1.5, 4.0)
                      for gap in (1.0, 5.0, 9.0)], np.linspace(1.0, 9.0, 6)),
    "segments": (_segment_family(np.random.default_rng(11), 8), np.linspace(0.5, 16.0, 8)),
}


@pytest.mark.parametrize("case", FAMILIES)
def test_geometry_rows_equal_one_row_tables(case):
    # a family of potentials with one region count is one table whose every
    # row, in every field, is bit-identical to its own potential's one-row
    # table, with the dwell markers set per row
    pots, Es = FAMILIES[case]
    family = SolutionTable(pots, Es)
    Es = np.broadcast_to(Es, len(pots))
    x_i = np.array([p.x_left - 0.7 for p in pots])
    x_f = np.array([0.5 * (p.x_left + p.x_right) + 0.3 * i for i, p in enumerate(pots)])
    density = family.density_integral(x_i, x_f)
    for i, (pot, E) in enumerate(zip(pots, Es)):
        one = SolutionTable(pot, [E])
        for name in ("E", "k", "A_T", "A_R", "r_prime", "log_abs_A_T", "arg_A_T"):
            assert np.array_equal(getattr(family, name)[i], getattr(one, name)[0]), (i, name)
        for got, want in zip(family._at_ends, one._at_ends):
            assert np.array_equal(got[:, i], want[:, 0]), i
        assert np.array_equal(density[i], one.density_integral(x_i[i], x_f[i])[0])
        for name in ("ends", "bounds"):
            assert np.array_equal(getattr(family, name)[i], getattr(one, name)), (i, name)


def test_geometry_rows_refuse_single_geometry_reads():
    family = SolutionTable([rectangular(10.0, a) for a in (2.0, 3.0)], 5.0)
    for read in (lambda: family.psi_dpsi(1.0), lambda: family.psi_dpsi([0.5, 1.0]),
                 lambda: two_phase(family), lambda: s_matrix(family)):
        with pytest.raises(ContractViolation):
            read()
    with pytest.raises(ContractViolation, match="region count"):
        SolutionTable([rectangular(10.0, 2.0), double_rectangular(10.0, 2.0, 5.0)], 5.0)
    with pytest.raises(ContractViolation):
        SolutionTable([rectangular(10.0, 2.0)] * 3, [4.0, 5.0])


def _random_potential(rng, widen):
    """1-5 segments with random edges and heights; with widen, one segment is
    stretched by 100-3000 Angstrom.  Returns the potential and the height of
    the widened (or first) segment."""
    n_seg = int(rng.integers(1, 6))
    edges = np.cumsum(rng.uniform(0.2, 5.0, 2 * n_seg)) - 4.0
    heights = rng.uniform(0.5, 20.0, n_seg)
    i = int(rng.integers(n_seg))
    if widen:
        edges[2 * i + 1:] += rng.uniform(100.0, 3000.0)
    pot = PiecewisePotential(tuple((float(edges[2 * s]), float(edges[2 * s + 1]),
                                    float(heights[s])) for s in range(n_seg)))
    return pot, float(heights[i])


def test_sweep_matches_a_60_digit_product():
    # an independent high-precision reference: log|A_T| and arg A_T (mod 2 pi)
    # to 1e-12 relative to max(1, |value|) and A_R to 1e-11, on single
    # potentials (one segment at kappa d up to ~3800) at random energies and
    # at every segment height, and on a family's rows; psi at the joints, the
    # middle of each region and outside the potential to 1e-11 relative, and
    # on the first three potentials that are not widened the density integral
    # to 1e-11 of an mpmath quadrature of |psi|^2
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(29)
    tables = []
    for i in range(20):
        pot, V = _random_potential(rng, widen=i % 2 == 1)
        Es = [rng.uniform(0.02, 0.5) * V, *rng.uniform(0.05, 25.0, 3),
              *(v for _, _, v in pot.segments)]
        tables.append((SolutionTable(pot, Es), [pot] * len(Es), i < 6 and i % 2 == 0))
    family = _segment_family(np.random.default_rng(5), 6)
    tables.append((SolutionTable(family, np.linspace(0.5, 16.0, 6)), family, False))
    for table, pots, quad in tables:
        pot = pots[0]
        regions = pot.interior_regions()
        xs = np.array([pot.x_left - 1.3, pot.x_right, pot.x_right + 2.1,
                       *(x for lo, hi, _ in regions for x in (lo, 0.5 * (lo + hi)))])
        psi = None if table.family else table.psi_dpsi(xs)[0]
        cuts = [pot.x_left - 0.9, *(lo for lo, _, _ in regions), pot.x_right, pot.x_right + 0.7]
        if quad:
            density = table.density_integral(cuts[0], cuts[-1])
        for row, (pot, E) in enumerate(zip(pots, table.E)):
            want_log, want_arg, want_R, want_psi, mp_psi = mp_sweep(pot, E, xs)
            log_abs = table.log_abs_A_T[row]
            assert abs(log_abs - want_log) <= 1e-12 * max(1.0, abs(want_log)), (pot, E)
            arg = table.arg_A_T[row]
            turn = (arg - want_arg + np.pi) % (2 * np.pi) - np.pi
            assert abs(turn) <= 1e-12 * max(1.0, abs(arg)), (pot, E)
            assert abs(table.A_R[row] - want_R) <= 1e-11, (pot, E)
            if psi is None:
                continue
            for got, want in zip(psi[:, row], want_psi):
                assert abs(got - want) <= 1e-11 * abs(want), (pot, E, got, want)
            if quad:
                with mpmath.workdps(20):
                    want = mpmath.quad(lambda x: abs(mp_psi(x)) ** 2, cuts,
                                       method="gauss-legendre")
                assert abs(density[row] - want) <= 1e-11 * want, (pot, E)


def _phase_length(pot, E):
    """sum over regions of |Re q| d: the phase a sweep at E accumulates."""
    return sum(abs(np.sqrt((E - V) / UNITS.hbar2_over_2m).real) * (hi - lo)
               for lo, hi, V in pot.interior_regions())


def test_complex_energies_match_a_60_digit_product():
    # below the real axis, where the poles of A_T lie, the sweep's D
    # matches the 60-digit product's: ln|D|, through log_abs_A_T = ln|2/D|,
    # to 1e-12 relative to max(1, |value|), and its phase to 1e-14 of the
    # phase the sweep accumulates (up to ~2600 rad here; 3e-16 measured),
    # on single potentials (one segment at kappa d up to ~3800) and a
    # family's rows; on the real axis a complex table is the real one
    pytest.importorskip("mpmath")
    rng = np.random.default_rng(31)
    cases = []
    for i in range(12):
        pot, V = _random_potential(rng, widen=i % 2 == 1)
        Es = np.concatenate([rng.uniform(0.05, 25.0, 4), [0.3 * V]])
        cases.append((pot, [pot] * len(Es), Es - 1j * rng.uniform(0.0, 0.5, len(Es))))
    family = _segment_family(np.random.default_rng(7), 6)
    cases.append((family, family, np.linspace(0.5, 16.0, 6) - 0.05j))
    for pot_or_family, pots, Es in cases:
        table = SolutionTable(pot_or_family, Es)
        for row, (pot, E) in enumerate(zip(pots, Es)):
            log_D, arg_D = mp_denominator(pot, E)
            want_log, got_log = np.log(2.0) - log_D, table.log_abs_A_T[row]
            assert abs(got_log - want_log) <= 1e-12 * max(1.0, abs(want_log)), (pot, E)
            turn = (np.angle(table.D[row]) - arg_D + np.pi) % (2 * np.pi) - np.pi
            assert abs(turn) <= 1e-14 * max(1.0, _phase_length(pot, E)), (pot, E)
        real = SolutionTable(pot_or_family, Es.real).log_abs_A_T
        on_axis = SolutionTable(pot_or_family, Es.real + 0j).log_abs_A_T
        assert np.all(np.abs(on_axis - real) <= 1e-14 * np.maximum(1.0, np.abs(real)))


def test_rescale_runs_only_near_the_limit(monkeypatch):
    # within the growth and scale bounds no entry can leave the rescale
    # range, so rect, double and lattice tables, an opaque barrier included,
    # never call the rescale step; 400 barriers are
    # rescaled up in a pass band (their scale e^{-sum kappa d} would
    # underflow) and down in the gap at the barriers' height, and match the
    # 60-digit product to 1e-11 (800 regions in a pass band round to ~4e-12)
    pytest.importorskip("mpmath")
    logs = []
    original = scattering._rescale

    def traced(P, logscale):
        P, logscale = original(P, logscale)
        logs.append(logscale)
        return P, logscale

    monkeypatch.setattr(scattering, "_rescale", traced)
    for pot in (rectangular(10.0, 5.0), rectangular(10.0, 1e3),
                double_rectangular(10.0, 4.0, 10.0), LATTICE):
        SolutionTable(pot, np.linspace(0.5, 12.0, 9))
    assert logs == []
    long = PiecewisePotential(tuple((10.0 * i, 10.0 * i + 4.0, 3.0) for i in range(400)))
    table = SolutionTable(long, [2.0, 3.0])
    assert logs[-1][0] < 0.0 < logs[-1][1]
    for row, E in enumerate(table.E):
        want_log, want_arg, want_R, _, _ = mp_sweep(long, E)
        assert abs(table.log_abs_A_T[row] - want_log) <= 1e-11 * max(1.0, abs(want_log))
        assert abs(table.A_R[row] - want_R) < 1e-11
