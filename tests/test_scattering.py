"""Transfer-matrix solve against its independent oracles.

The rectangular barrier has closed-form amplitudes; composing analytic
single-barrier transfer matrices gives an independent route to the double
barrier; unitarity and reciprocity are parameter-free invariants.
"""

import cmath
import warnings

import numpy as np
import pytest

from tuntime.core import UNITS, ContractViolation
from tuntime.potential import (
    PiecewisePotential,
    double_rectangular,
    rectangular,
)
from tuntime import scattering
from tuntime.scattering import (
    _RESCALE_LIMIT,
    ORACLE_TOL,
    UNITARITY_TOL,
    SolutionTable,
    rect_amplitude,
    s_matrix,
    solve,
    two_phase,
)
from tuntime.stationary_times import two_phase_times


def test_free_particle():
    sol = solve(PiecewisePotential(()), 4.2)
    assert sol.A_T == 1.0
    assert sol.A_R == 0.0


def test_energy_contract():
    with pytest.raises(ContractViolation):
        solve(rectangular(10, 5), -1.0)
    with pytest.raises(ContractViolation):
        solve(rectangular(10, 5), 0.0)


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
            assert sol.boundary_residual() < 1e-10


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
    # evaluate the two adjoining region representations exactly at each joint:
    # psi and psi' must agree to 1e-10 relative
    # from the table's scaled pairs, psi_j = e^{s_j} (f_j e^{iq_j(x - l_j)}
    # + b_j e^{-iq_j(x - r_j)})
    table = SolutionTable(double_rectangular(10.0, 4.0, 10.0), [2.0, 6.0, 9.0])
    f, b, s, q = table.f, table.b, table.log_scale, table.q

    def psi_dpsi(j, x):
        ef = f[:, j] * np.exp(s[:, j] + 1j * q[:, j] * (x - table.refs[j]))
        eb = b[:, j] * np.exp(s[:, j] - 1j * q[:, j] * (x - table.ends[j]))
        return ef + eb, 1j * q[:, j] * (ef - eb)

    assert q.shape == (3, 5)
    for j in range(q.shape[1] - 1):
        edge = table.bounds[j + 1]
        (psiL, dpsiL), (psiR, dpsiR) = psi_dpsi(j, edge), psi_dpsi(j + 1, edge)
        assert np.all(np.abs(psiL - psiR) / np.maximum(np.abs(psiR), 1e-30) < 1e-10)
        assert np.all(np.abs(dpsiL - dpsiR) / np.maximum(np.abs(dpsiR), 1e-30) < 1e-10)


def test_psi_at_many_positions_matches_psi_dpsi():
    # SolutionTable.psi evaluates psi alone at many positions in one array;
    # each row is psi_dpsi(x)[0], in every region of a double barrier, at the
    # joints, in free space and whatever the order of the positions
    rng = np.random.default_rng(3)
    for pot in (double_rectangular(10.0, 4.0, 10.0), PiecewisePotential(())):
        table = SolutionTable(pot, np.linspace(1.0, 15.0, 64))
        xs = np.concatenate([rng.permutation(np.linspace(-10.0, 24.0, 97)), table.bounds[1:-1]])
        rows = table.psi(xs)
        assert rows.shape == (xs.size, 64)
        np.testing.assert_allclose(rows, [table.psi_dpsi(x)[0] for x in xs], rtol=1e-14, atol=0)
    assert table.psi([]).shape == (0, 64)


def test_degeneracy_shift_flag():
    sol = solve(rectangular(10.0, 2.0), 10.0)  # E exactly at the barrier top
    assert sol.shifted[0] and sol.E[0] > 10.0
    assert np.isfinite(sol.A_T[0])


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
    # stays exact, every region coefficient is finite, psi is finite and
    # continuous across the barrier (no warning is raised) and the entry
    # joint reproduces the incident wave
    V0, E = 10.0, 5.0  # k = kappa, so |A_T| = 2 e^{-kappa a} / (1 + e^{-2 kappa a})
    a = kappa_a / float(UNITS.decay_constant(V0, E))
    table = SolutionTable(rectangular(V0, a), [E])
    assert table.log_abs_A_T[0] == pytest.approx(np.log(2.0) - kappa_a, rel=1e-13)
    for column in (table.f, table.b, table.log_scale):
        assert np.all(np.isfinite(column))
    assert table.boundary_residual()[0] < 1e-10
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
    # so none of their tables, nor solve's, runs the backward substitution;
    # a region read needs it
    from tuntime.double_barrier import find_resonances
    from tuntime.emguide import WaveguideSpec, mapped_phase_time
    from tuntime.stationary_times import bl_time, phase_time

    def refuse(self):
        raise AssertionError("backward substitution run")

    monkeypatch.setattr(SolutionTable, "_regions", property(refuse))
    pot = double_rectangular(10.0, 4.0, 10.0)
    assert np.all(np.isfinite(phase_time(pot, np.array([2.0, 5.0, 9.0]))))
    assert np.isfinite(phase_time(LATTICE, 2.0)) and np.isfinite(bl_time(LATTICE, 2.0))
    assert np.isfinite(bl_time(pot, 5.0))
    assert find_resonances(10.0, 5.0, 15.0, (0.5, 9.5))
    assert np.isfinite(mapped_phase_time(WaveguideSpec(a=2.3, b=4.6, m=1, n=0, L=10.0, lam=6.0)))
    table = solve(pot, 5.0)
    with pytest.raises(AssertionError, match="backward substitution"):
        table.boundary_residual()


@pytest.mark.parametrize("pot", [rectangular(10.0, 5.0), double_rectangular(10.0, 4.0, 10.0),
                                 LATTICE], ids=["rectangular", "double", "lattice40"])
def test_region_coefficients_independent_of_read_order(pot):
    # the backward substitution runs once, on first use: the coefficients read
    # before the transmission equal those read after it, and every row equals
    # a one-energy table's (the per-region factors are formed for all energies)
    Es = np.linspace(0.5, 9.5, 37)
    first = SolutionTable(pot, Es)
    coefficients = first.f, first.b, first.log_scale
    later = SolutionTable(pot, Es)
    transmission = later.A_T, later.A_R, later.log_abs_A_T, later.arg_A_T
    for got, want in zip((later.f, later.b, later.log_scale), coefficients):
        assert np.array_equal(got, want)
    for got, want in zip((first.A_T, first.A_R, first.log_abs_A_T, first.arg_A_T), transmission):
        assert np.array_equal(got, want)
    assert first._regions is first._regions
    for i in (0, 17, 36):
        one = SolutionTable(pot, Es[i:i + 1])
        for got, want in zip((one.f, one.b, one.log_scale, one.A_T),
                             (first.f, first.b, first.log_scale, first.A_T)):
            assert np.array_equal(got[0], want[i])


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
    S, flags = s_matrix(solve(PiecewisePotential(()), 3.0))
    assert S.shape == (1, 2, 2) and np.allclose(S, np.eye(2))
    assert flags == ()


S_ENERGIES = np.linspace(0.5, 15.0, 30)


def test_s_matrix_unitarity():
    S, flags = s_matrix(SolutionTable(rectangular(10.0, 5.0), S_ENERGIES))
    assert S.shape == (30, 2, 2)
    assert np.max(np.abs(S @ S.conj().transpose(0, 2, 1) - np.eye(2))) < 1e-10
    assert flags == ()


def test_s_matrix_row_orthogonality():
    S, _ = s_matrix(SolutionTable(rectangular(10.0, 5.0), S_ENERGIES))
    A_T, A_R = S[:, 0, 0], S[:, 0, 1]
    assert np.max(np.abs(A_T * np.conj(A_R) + A_R * np.conj(A_T))) < 1e-10


def test_s_matrix_asymmetric_flagged():
    pot = PiecewisePotential(((0.0, 1.0, 2.0), (2.0, 6.0, 7.0)))
    S, flags = s_matrix(solve(pot, 3.0))
    assert "asymmetric" in flags


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
    # kappa a from 0.5 to 1e4: one chunk, several chunks and rescaled rows in one table
    "rect-a": ([rectangular(10.0, kappa_a / float(UNITS.decay_constant(10.0, 5.0)))
                for kappa_a in (0.5, 8.0, 299.0, 450.0, 800.0, 3000.0, 1e4)], 5.0),
    # V0 = E puts the fourth row on the degeneracy nudge
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
    residual = family.boundary_residual()
    if case == "rect-V0":
        assert family.shifted.tolist() == [False, False, False, True, False, False]
    for i, (pot, E) in enumerate(zip(pots, Es)):
        one = SolutionTable(pot, [E])
        for name in ("E", "k", "q", "A_T", "A_R", "log_abs_A_T", "arg_A_T", "f", "b",
                     "log_scale", "shifted"):
            assert np.array_equal(getattr(family, name)[i], getattr(one, name)[0]), (i, name)
        assert np.array_equal(residual[i], one.boundary_residual()[0])
        assert np.array_equal(density[i], one.density_integral(x_i[i], x_f[i])[0])
        for name in ("refs", "ends", "bounds"):
            assert np.array_equal(getattr(family, name)[i], getattr(one, name)), (i, name)


def test_geometry_rows_refuse_single_geometry_reads():
    family = SolutionTable([rectangular(10.0, a) for a in (2.0, 3.0)], 5.0)
    for read in (lambda: family.psi_dpsi(1.0), lambda: family.psi([0.5, 1.0]),
                 lambda: two_phase(family), lambda: s_matrix(family)):
        with pytest.raises(ContractViolation):
            read()
    with pytest.raises(ContractViolation, match="region count"):
        SolutionTable([rectangular(10.0, 2.0), double_rectangular(10.0, 2.0, 5.0)], 5.0)
    with pytest.raises(ContractViolation):
        SolutionTable([rectangular(10.0, 2.0)] * 3, [4.0, 5.0])


def _forward_reference(table):
    """The forward pass as first written: from the identity, with a rescale
    check after every step, on the table's own (nudged) energies."""
    q = table.q.T
    widths = table.ends - table.refs
    nreg, n = q.shape
    T = np.zeros((n, 2, 2), dtype=complex)
    T[:, 0, 0] = T[:, 1, 1] = 1.0
    logscale = np.zeros(n)

    def rescale(T):
        mags = np.abs(T).max(axis=(1, 2))
        big = mags > _RESCALE_LIMIT
        T[big] /= mags[big, None, None]
        logscale[big] += np.log(mags[big])

    for j in range(nreg - 1):
        if widths[j] > 0:
            chunks = 1 + (q[j].imag * (widths[j] / 300.0)).astype(int)
            ph = np.exp(1j * q[j] * (widths[j] / chunks))
            for step in range(chunks.max()):
                p = np.where(step < chunks, ph, 1.0)
                T[:, 0, :] *= p[:, None]
                T[:, 1, :] /= p[:, None]
                rescale(T)
        r = q[j] / q[j + 1]
        M = np.empty((n, 2, 2), dtype=complex)
        M[:, 0, 0] = M[:, 1, 1] = 0.5 * (1 + r)
        M[:, 0, 1] = M[:, 1, 0] = 0.5 * (1 - r)
        T = M @ T
        rescale(T)
    x1, xm, k = table.refs[0], table.ends[-1], table.k
    return (-logscale - np.log(np.abs(T[:, 1, 1])),
            -np.angle(T[:, 1, 1]) + k * (x1 - xm),
            -T[:, 1, 0] / T[:, 1, 1] * np.exp(2j * k * x1))


def test_trimmed_forward_pass_equals_the_reference():
    # the build starts from M[0] instead of M[0] @ identity and checks for a
    # rescale only when its growth bound nears the limit: neither changes a bit
    rng = np.random.default_rng(3)
    for _ in range(30):
        n_seg = int(rng.integers(1, 5))
        edges = np.cumsum(rng.uniform(0.2, 5.0, 2 * n_seg)) - 4.0
        heights = rng.uniform(0.5, 20.0, n_seg)
        opaque = int(rng.integers(n_seg))  # one segment at kappa d in [700, 1e4] at E = V/2
        stretch = rng.uniform(700.0, 1e4) / float(UNITS.decay_constant(heights[opaque],
                                                                       0.5 * heights[opaque]))
        edges[2 * opaque + 1:] += stretch - (edges[2 * opaque + 1] - edges[2 * opaque])
        pot = PiecewisePotential(tuple((float(edges[2 * i]), float(edges[2 * i + 1]),
                                        float(heights[i])) for i in range(n_seg)))
        Es = np.concatenate([[0.5 * heights[opaque]], rng.uniform(0.05, 25.0, 6)])
        table = SolutionTable(pot, Es)
        for got, want in zip((table.log_abs_A_T, table.arg_A_T, table.A_R),
                             _forward_reference(table)):
            assert np.array_equal(got, want)


def test_rescale_runs_only_near_the_limit(monkeypatch):
    # below the growth bound's reach no entry can pass _RESCALE_LIMIT, so
    # such a table never calls the rescale step; an opaque one does
    calls = []
    original = scattering._rescale
    monkeypatch.setattr(scattering, "_rescale",
                        lambda T, logscale: calls.append(1) or original(T, logscale))
    for pot in (rectangular(10.0, 5.0), double_rectangular(10.0, 4.0, 10.0), LATTICE):
        SolutionTable(pot, np.linspace(0.5, 12.0, 9))
    assert calls == []
    opaque = SolutionTable(rectangular(10.0, 1e3), [5.0])
    assert calls and opaque.log_abs_A_T[0] < -1000.0
