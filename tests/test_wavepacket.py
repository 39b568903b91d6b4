"""Spectral packets, wavefunction superposition, flux series.

The free spreading Gaussian is the independent oracle here: for
G = C exp[-(k - kb)^2/(2 dk)^2] the spectral integral has the closed form

    Psi(x, t) = C sqrt(pi/A) e^{i(kb x - E(kb) t/hbar)} e^{-B^2/(4A)},
    A = 1/(2 dk)^2 + i (hbar/2m) t,   B = x - v(kb) t,

which every evaluation must reproduce in free space.
"""

import gc
import math
import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tuntime import wavepacket
from tuntime.core import UNITS, ContractViolation, Grid1D, integrate
from tuntime.potential import PiecewisePotential, rectangular
from tuntime.wavepacket import (
    MASSIVE,
    PHOTON,
    Propagator,
    SpectralPacket,
    gaussian_packet,
    propagator,
)

from oracles import composite_gauss

E_BAR = 5.0
K_BAR = float(UNITS.wavenumber(E_BAR))  # 1.1455750187578737
FREE = PiecewisePotential(())


def free_gaussian_exact(pk, x, t):
    """Closed-form free propagation of the package's Gaussian packet."""
    C = pk.G[np.argmax(np.abs(pk.G))] / np.exp(
        -((pk.k[np.argmax(np.abs(pk.G))] - pk.k_bar) ** 2) / (2 * pk.delta_k) ** 2
    )
    A = 1.0 / (2 * pk.delta_k) ** 2 + 1j * UNITS.hbar2_over_2m * t / UNITS.hbar
    B = x - float(UNITS.velocity(pk.k_bar)) * t
    phase = pk.k_bar * x - float(UNITS.energy(pk.k_bar)) * t / UNITS.hbar
    return C * np.sqrt(np.pi / A) * np.exp(1j * phase) * np.exp(-(B**2) / (4 * A))


# ---------------------------------------------------------------- the packet

def test_kbar_for_5ev():
    assert K_BAR == pytest.approx(1.1455, abs=1e-4)
    pk = gaussian_packet(K_BAR, 0.02)
    assert pk.k_bar == K_BAR


def test_gauss_legendre_rule_solved_once_per_order(monkeypatch):
    # the n-node rule is a dense eigenvalue solve: solved once per n and
    # shared read-only, with packets bit-identical to a freshly solved rule
    calls = []
    solve_rule = np.polynomial.legendre.leggauss
    monkeypatch.setattr(np.polynomial.legendre, "leggauss",
                        lambda n: calls.append(n) or solve_rule(n))
    pk1 = gaussian_packet(K_BAR, 0.02, n_k=337)
    pk2 = gaussian_packet(K_BAR, 0.02, n_k=337)
    assert calls == [337]
    x, w = solve_rule(337)
    lo, hi = K_BAR - 12.0 * 0.02, K_BAR + 12.0 * 0.02
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    for pk in (pk1, pk2):
        assert np.array_equal(pk.k, mid + half * x)
        assert np.array_equal(pk.w, half * w)
    assert np.array_equal(pk1.G, pk2.G)
    from tuntime.core import _legendre_rule

    with pytest.raises(ValueError):
        _legendre_rule(337)[0][0] = 0.0


def test_packet_normalization():
    for dk in (0.02, 0.04, 0.06):
        pk = gaussian_packet(K_BAR, dk)
        assert abs(pk.norm_dE() - 1.0) < 1e-8


def test_packet_boundary_samples_negligible():
    pk = gaussian_packet(K_BAR, 0.02)
    peak = np.max(np.abs(pk.G))
    assert abs(pk.G[0]) < 1e-12 * peak
    assert abs(pk.G[-1]) < 1e-12 * peak
    assert pk.grid.lo > 0


def test_packet_contracts():
    with pytest.raises(ContractViolation):
        gaussian_packet(0.1, 0.02)  # k_bar <= 6 delta_k
    with pytest.raises(ContractViolation):
        gaussian_packet(K_BAR, 0.02, n_k=64)
    with pytest.raises(ContractViolation):
        # cutoff far below the packet: empty support
        gaussian_packet(K_BAR, 0.02, cutoff=1.0)


def test_packet_cutoff_clips_band():
    pk = gaussian_packet(float(UNITS.wavenumber(7.5)), 0.06, cutoff=10.0)
    assert pk.grid.hi <= float(UNITS.wavenumber(10.0)) + 1e-12
    assert pk.cutoff == 10.0


def test_energy_average_of_constant():
    pk = gaussian_packet(K_BAR, 0.02)
    assert pk.energy_average(np.ones_like(pk.k)) == pytest.approx(1.0, rel=1e-14)


# ------------------------------------------------------------------- psi/flux

def test_free_peak_at_reference_point():
    pk = gaussian_packet(K_BAR, 0.02)
    xs = np.linspace(-30, 30, 121)
    dens = np.abs(propagator(FREE, pk).psi_grid(xs, [0.0])[:, 0])
    assert abs(xs[int(np.argmax(dens))]) < 1.0  # peak at the x = 0 reference


def test_free_matches_analytic_gaussian():
    pk = gaussian_packet(K_BAR, 0.02)
    rng = np.random.default_rng(3)
    for _ in range(20):
        x = float(rng.uniform(-100, 100))
        t = float(rng.uniform(-10, 10))
        got = propagator(FREE, pk).psi_grid([x], [t])[0, 0]
        want = free_gaussian_exact(pk, x, t)
        assert abs(got - want) / abs(want) < 1e-6


def test_evanescent_decay_inside_opaque_barrier():
    pot = rectangular(10.0, 12.0)
    pk = gaussian_packet(K_BAR, 0.02)
    kappa_bar = float(UNITS.decay_constant(10.0, E_BAR))
    xs = np.linspace(1.0, 6.0, 11)
    vals = np.abs(propagator(pot, pk).psi_grid(xs, [0.0])[:, 0])
    slope = np.polyfit(xs, np.log(vals), 1)[0]
    assert slope == pytest.approx(-kappa_bar, rel=0.05)


def test_flux_plane_wave_limit():
    # very narrow packet in free space: J -> v |Psi|^2 > 0
    pk = gaussian_packet(K_BAR, 0.02)
    prop = propagator(FREE, pk)
    v_bar = float(UNITS.velocity(K_BAR))
    for (x, t) in [(0.0, 0.0), (10.0, 1.0), (-25.0, -2.0)]:
        J = float(prop.flux(x, [t])[0])
        rho = float(prop.density(x, [t])[0])
        assert J == pytest.approx(v_bar * rho, rel=2e-3)
        assert J >= 0.0


@pytest.mark.parametrize("dispersion", [MASSIVE, PHOTON], ids=["massive", "photon"])
def test_continuity_equation(dispersion):
    # the rate of the density Re[Psi* Psi_w] balances the flux, for the
    # photon packet too (2.1e-4 off with |Psi|^2); its times are scaled by
    # v_bar/c so that it sits at the barrier as the massive packet does
    pot = rectangular(10.0, 5.0)
    pk = gaussian_packet(K_BAR, 0.02, dispersion=dispersion)
    prop = propagator(pot, pk)
    x1, x2 = -12.0, 17.0
    xg = composite_gauss(x1, x2, panels=60, order=10)
    ts = np.array([-3.0, -1.0, 0.0, 0.8, 2.5]) * float(
        UNITS.velocity(K_BAR) / dispersion.velocity(K_BAR))
    drho = np.zeros(len(ts))
    for xx, ww in zip(xg.points, xg.weights):
        drho += ww * prop.density_rate(float(xx), ts)
    J1 = prop.flux(x1, ts)
    J2 = prop.flux(x2, ts)
    resid = np.abs(drho - (J1 - J2)) / np.max(np.abs(J1 - J2))
    assert np.max(resid) < 1e-6


def test_probability_conservation():
    pot = rectangular(10.0, 5.0)
    pk = gaussian_packet(K_BAR, 0.02)
    prop = propagator(pot, pk)
    # window wide enough to hold the packet at every probed time
    xg = composite_gauss(-420.0, 425.0, panels=700, order=10)
    norms = []
    for t in (-8.0, 0.0, 8.0):
        dens = np.abs(prop.psi_grid(xg.points, [t])[:, 0]) ** 2
        norms.append(float(integrate(dens, xg)))
    spread = (max(norms) - min(norms)) / norms[0]
    assert spread < 1e-6


# ----------------------------------------------------------------- the series

def test_flux_series_identities():
    pot = rectangular(10.0, 5.0)
    pk = gaussian_packet(K_BAR, 0.02)
    fs = propagator(pot, pk).flux_series(-5.0)
    assert fs.tail_captured
    assert np.all(fs.J_plus >= 0)
    assert np.all(fs.J_minus <= 0)
    assert np.allclose(fs.J, fs.J_plus + fs.J_minus)
    assert np.all(fs.J_plus * fs.J_minus == 0.0)


def test_flux_quiet_before_arrival():
    # packet reference reaches x=300 only at t ~ 22.6 fs; an early window is silent
    pk = gaussian_packet(K_BAR, 0.02)
    prop = propagator(FREE, pk)
    J = prop.flux(300.0, np.linspace(-40.0, -20.0, 301))
    assert np.max(np.abs(J)) < 1e-12


def test_phases_built_in_bounded_blocks(monkeypatch):
    # on a uniform grid an evaluation factors exp(-iEt/hbar) into a base of
    # B = 2^p steps, p = ceil(ceil(log2 n_t) / 2), and a step per block of B
    # samples, both filled by doubling from one ladder of exponentials at
    # 2^i dt, plus one start phase per batch of blocks: n_k (ceil(log2(nb B))
    # + batches) exponentials, never an n_k x n_t array.  With PHASE_BLOCK
    # patched small, B and the batches shrink so that no ladder or operand
    # exceeds it, and the shorter blocks give the same values to rounding.
    # The window keeps |Et/hbar| near 1e3 rad, where rounding the phase costs
    # well under 1e-13 of the peak
    # (test_contract_as_accurate_as_direct_sum_at_large_phases covers larger
    # phases)
    n_k, n_t = 128, 1001
    prop = Propagator(rectangular(10.0, 5.0), gaussian_packet(K_BAR, 0.02, n_k=n_k))
    ts = np.linspace(-60.0, 100.0, n_t)
    xs = [-30.0, 2.0, 30.0]
    builds, operands = [], []
    build, matmul = Propagator._phases, np.matmul
    monkeypatch.setattr(Propagator, "_phases",
                        lambda self, t: builds.append(t.size) or build(self, t))
    monkeypatch.setattr(np, "matmul",
                        lambda a, b, **kw: operands.append(a.size) or matmul(a, b, **kw))

    def exponentials(evaluate):
        builds.clear()
        operands.clear()
        tracemalloc.start()
        value = evaluate()
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < n_k * n_t * 16 / 4  # a complex n_k x n_t array is never held
        assert n_k * max(builds) <= wavepacket.PHASE_BLOCK
        assert max(operands) <= wavepacket.PHASE_BLOCK
        return value, builds[:]

    assert prop.flux(2.0, []).shape == (0,)
    # B = 32 and 32 blocks in one batch: a ladder of log2(1024) = 10 rungs
    # and one start phase, 11 n_k where the coarse and fine tables of the
    # base and the start phases took 24 n_k
    J, counts = exponentials(lambda: prop.flux(2.0, ts))
    assert counts == [10, 1] and len(operands) == 1
    grid, counts = exponentials(lambda: prop.psi_grid(xs, ts))
    assert counts == [10, 1] and len(operands) == 1

    # a fresh propagator, since prop's flux memo would answer the same window
    monkeypatch.setattr(wavepacket, "PHASE_BLOCK", n_k * 8)
    blocked = Propagator(prop.pot, prop.packet)
    # B = 8 and 126 blocks, 4 to a batch of two rows: rungs 1, 2, 4 dt for
    # the base and 8, 16 dt for the steps, then 32 start phases
    J_blocked, counts = exponentials(lambda: blocked.flux(2.0, ts))
    assert counts == [5] + [1] * 32
    assert np.max(np.abs(J_blocked - J)) <= 1e-13 * np.max(np.abs(J))
    # three rows: 2 blocks to a batch, 63 batches
    grid_blocked, counts = exponentials(lambda: blocked.psi_grid(xs, ts))
    assert counts == [4] + [1] * 63
    assert grid_blocked.shape == (3, 1001)
    assert np.max(np.abs(grid_blocked - grid)) <= 1e-13 * np.max(np.abs(grid))
    for x, row in zip(xs, grid_blocked):
        assert np.max(np.abs(row - blocked.psi_grid([x], ts)[0])) <= 1e-13 * np.max(np.abs(grid))


def test_start_phases_built_as_one_table(monkeypatch):
    # a two-row flux at n_t = 3073 (B = 64, 49 blocks) builds one ladder of
    # ceil(log2(49 * 64)) = 12 rungs and one start phase, 13 n_k
    # exponentials; the coarse and fine tables of the base and the start
    # phases took 2 (8 + 7) = 30 n_k
    n_k = 128
    prop = Propagator(rectangular(10.0, 5.0), gaussian_packet(K_BAR, 0.02, n_k=n_k))
    builds = []
    build = Propagator._phases
    monkeypatch.setattr(Propagator, "_phases",
                        lambda self, t: builds.append(t.size) or build(self, t))
    ts = np.linspace(-60.0, 100.0, 3073)
    J = prop.flux(2.0, ts)
    assert builds == [12, 1]
    _, J_direct, _, J_peak = _direct_sum(prop, 2.0, ts)
    assert np.max(np.abs(J - J_direct)) <= 1e-13 * J_peak


def _direct_sum(prop, x, ts):
    """Psi and J at x with exp(-iEt/hbar) built in full, and the bounds
    sum_k |c_k psi_k(x)| of |Psi| and (hbar/m) |c psi|_1 |c psi'|_1 of |J|."""
    cps, cdps = prop._cw * np.array(prop.table.psi_dpsi(x))
    phases = np.exp(-1j * np.multiply.outer(prop.packet.E, ts) / UNITS.hbar)
    Psi, dPsi = cps @ phases, cdps @ phases
    J = prop._flux_pref * np.imag(np.conj(Psi) * dPsi)
    l1 = np.sum(np.abs(cps))
    return Psi, J, l1, prop._flux_pref * l1 * np.sum(np.abs(cdps))


SLOW_K = float(UNITS.wavenumber(0.05))  # |Et/hbar| ~ 1e3 rad at |t| = 1e4 fs


@pytest.mark.parametrize("k_bar, x, ts", [
    (K_BAR, -30.0, np.array([-2.0])),
    *((K_BAR, -30.0, np.linspace(-60.0, 100.0, n))
      for n in (2, 3, 255, 256, 257, 1001, 4095, 4096, 4097)),
    (K_BAR, 2.0, np.linspace(-60.0, 100.0, 1001)),
    (SLOW_K, -50.0, np.linspace(-1e4, 1e4, 4097)),
    (SLOW_K, -50.0, np.linspace(-2e3, 1e4, 3001)),
    (K_BAR, -30.0, np.sort(np.random.default_rng(5).uniform(-60.0, 100.0, 1001))),
], ids=["n1", "n2", "n3", "n255", "n256", "n257", "n1001", "n4095", "n4096", "n4097",
        "in-barrier", "slow-1e4fs", "slow-late", "random-grid"])
def test_contract_matches_direct_phase_sum(k_bar, x, ts):
    # independent oracle for the factored contraction: |Psi| and J against the
    # sum over the full exp(-iEt/hbar) array, to 1e-13 of their peak bounds
    # (on the windows that hold the passage |Psi| peaks at 0.87 to 1.0 of its
    # bound).  B and the block count change at the edges n_t = 256 (B = 16,
    # 16 blocks), 257 (B = 32, 9 blocks), 4096 (64, 64) and 4097 (128, 33),
    # and 255, 1001 and 4095 pad their last block; the slow packet takes the window to |t| = 1e4 fs with E t/hbar ~ 1e3
    # rad (170 turns), and the sorted random grid is not uniform.  Psi's
    # phase is left out: the factored sum puts sample i at ts[mB] + j dt, a
    # few ulps of t from ts[i], which turns Psi by E dt/hbar ~ 2e-13 rad and
    # leaves |Psi| and J, all that the package reads, where they were
    prop = Propagator(rectangular(10.0, 5.0), gaussian_packet(k_bar, k_bar / 60.0, n_k=128))
    Psi, J, psi_peak, J_peak = _direct_sum(prop, x, ts)
    assert np.max(np.abs(np.abs(prop.psi_grid([x], ts)[0]) - np.abs(Psi))) <= 1e-13 * psi_peak
    assert np.max(np.abs(prop.flux(x, ts) - J)) <= 1e-13 * J_peak


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18, reason="needs extended precision")
@pytest.mark.parametrize("lo, hi, n_t", [(-400.0, 800.0, 1001), (-1e4, 1e4, 4097)])
def test_contract_as_accurate_as_direct_sum_at_large_phases(lo, hi, n_t):
    # at 5 eV, |Et/hbar| reaches 9e3 and 1e5 rad here: rounding E t/hbar puts
    # any float64 sum 1e-13 to 4e-12 of the peak from the exact one, the
    # direct sum included.  Against the exact sum of the same float64 inputs
    # (extended precision), the factored |Psi| and J are no further off than
    # the direct sum is
    prop = Propagator(rectangular(10.0, 5.0), gaussian_packet(K_BAR, 0.02, n_k=128))
    ts = np.linspace(lo, hi, n_t)
    ps, dps = prop.table.psi_dpsi(-30.0)
    rows = np.array([prop._cw * ps, prop._cw * dps])
    arg = np.multiply.outer(prop.packet.E.astype(np.longdouble), ts.astype(np.longdouble))
    exact = rows.astype(np.clongdouble) @ np.exp(-1j * (arg / np.longdouble(UNITS.hbar)))
    direct = rows @ np.exp(-1j * np.multiply.outer(prop.packet.E, ts) / UNITS.hbar)
    factored = prop._contract(rows, ts)

    def errors(Psi):
        J = np.imag(np.conj(Psi[0]) * Psi[1])
        J_exact = np.imag(np.conj(exact[0]) * exact[1]).astype(float)
        size = np.abs(exact[0]).astype(float)
        return (np.max(np.abs(np.abs(Psi[0]) - size)) / np.max(size),
                np.max(np.abs(J - J_exact)) / np.max(np.abs(J_exact)))

    for err, err_direct in zip(errors(factored), errors(direct)):
        assert err <= 2.0 * err_direct


@pytest.mark.parametrize("phase_block", [wavepacket.PHASE_BLOCK, 128 * 64])
def test_psi_grid_with_more_rows_than_base_steps(monkeypatch, phase_block):
    # 101 rows against B = 32 base steps of 257 samples (9 blocks), in one
    # batch and, with PHASE_BLOCK below the rows' own size, one block per
    # batch: |Psi| at every row to 1e-13 of its bound sum_k |c_k psi_k(x)|
    monkeypatch.setattr(wavepacket, "PHASE_BLOCK", phase_block)
    prop = Propagator(rectangular(10.0, 5.0), gaussian_packet(K_BAR, 0.02, n_k=128))
    xs = np.linspace(-20.0, 30.0, 101)
    ts = np.linspace(-60.0, 100.0, 257)
    rows = prop._cw * prop.table.psi_dpsi(xs)[0]
    direct = np.abs(rows @ np.exp(-1j * np.multiply.outer(prop.packet.E, ts) / UNITS.hbar))
    bound = np.sum(np.abs(rows), axis=1)[:, None]
    assert np.max(np.abs(np.abs(prop.psi_grid(xs, ts)) - direct) / bound) <= 1e-13


def test_psi_grid_rows_of_barrier_and_free_twin():
    # psi_grid builds its n_x x n_k rows in one array: they are the per-x
    # spectral rows psi_dpsi(x)[0], on the barrier and on its free twin,
    # whose rows are the plane waves e^{ikx}; the free twin's twin is itself,
    # without a reference cycle (reference counting alone frees it)
    prop = Propagator(rectangular(10.0, 5.0), gaussian_packet(K_BAR, 0.02, n_k=128))
    free = prop.free
    assert free.pot.is_free and free.packet is prop.packet and free.free is free
    assert prop.free is free  # built once
    twin = Propagator(FREE, prop.packet)
    assert twin.free is twin
    gc.disable()
    try:
        ref = weakref.ref(twin)
        del twin
        assert ref() is None
    finally:
        gc.enable()
    xs = np.linspace(-20.0, 30.0, 101)
    plane = np.array([np.exp(1j * prop.packet.k * x) for x in xs])
    np.testing.assert_allclose(free.table.psi_dpsi(xs)[0], plane, rtol=1e-14, atol=0)
    for p in (prop, free):
        rows = np.array([p.table.psi_dpsi(x)[0] for x in xs])
        grid = p.psi_grid(xs, [7.0])[:, 0]
        direct = (p._cw * rows) @ np.exp(-1j * p.packet.E * 7.0 / UNITS.hbar)
        assert np.max(np.abs(grid - direct)) <= 1e-13 * np.max(np.abs(direct))
    # 101 rows outnumber the B = 16 base steps of 256 samples (|Psi| only,
    # for the sample-position rounding noted above)
    ts = np.linspace(-60.0, 100.0, 256)
    direct = np.abs((prop._cw * prop.table.psi_dpsi(xs)[0]) @ np.exp(
        -1j * np.multiply.outer(prop.packet.E, ts) / UNITS.hbar))
    assert np.max(np.abs(np.abs(prop.psi_grid(xs, ts)) - direct)) <= 1e-13 * np.max(direct)


def _contract_spy(monkeypatch):
    calls = []
    contract = Propagator._contract
    monkeypatch.setattr(Propagator, "_contract",
                        lambda self, rows, ts: calls.append(len(ts)) or contract(self, rows, ts))
    return calls


def test_flux_memo_keys_on_position_and_samples(monkeypatch):
    # a repeated (x, samples) is answered from the memo with the same
    # read-only array; a changed x or grid is evaluated
    prop = Propagator(rectangular(10.0, 5.0), gaussian_packet(K_BAR, 0.02, n_k=128))
    calls = _contract_spy(monkeypatch)
    ts = np.linspace(-60.0, 100.0, 301)
    J = prop.flux(-30.0, ts)
    assert calls == [301]
    assert prop.flux(-30.0, list(ts)) is J and calls == [301]
    with pytest.raises(ValueError):
        J[0] = 0.0
    for x, t in [(-29.0, ts), (-30.0, ts[:-1]), (-30.0, ts + 1e-9)]:
        calls.clear()
        other = prop.flux(x, t)
        assert calls == [len(t)]
        assert not other.flags.writeable
        np.testing.assert_array_equal(other, Propagator(prop.pot, prop.packet).flux(x, t))


def test_flux_memo_holds_at_most_phase_block_samples(monkeypatch):
    # with PHASE_BLOCK patched to 700 samples the third 300-sample window
    # pushes out the first, and a window larger than the cap is not kept
    monkeypatch.setattr(wavepacket, "PHASE_BLOCK", 700)
    prop = Propagator(rectangular(10.0, 5.0), gaussian_packet(K_BAR, 0.02, n_k=128))
    calls = _contract_spy(monkeypatch)
    ts = np.linspace(-60.0, 100.0, 300)
    for x in (-30.0, 2.0, 30.0):
        prop.flux(x, ts)
    assert prop._memo_samples == sum(J.size for J in prop._memo.values()) == 600
    calls.clear()
    prop.flux(30.0, ts)
    prop.flux(2.0, ts)
    assert calls == []
    prop.flux(-30.0, ts)  # evicted first, so evaluated again
    assert calls == [300]
    prop.flux(-30.0, np.linspace(-60.0, 100.0, 701))
    assert prop._memo_samples == sum(J.size for J in prop._memo.values()) <= 700


def test_flux_memo_bookkeeping_survives_threads(monkeypatch):
    # four threads cycling through more two-sample windows than a cap of 16
    # samples holds, so every call evaluates, stores and evicts, with the
    # interpreter switching threads as often as it can: the sample count
    # stays the sum of what the memo holds, within the cap, and every result
    # is the single-thread one; the free twin, first read by all four at
    # once, is built once
    monkeypatch.setattr(wavepacket, "PHASE_BLOCK", 16)
    prop = Propagator(rectangular(10.0, 5.0), gaussian_packet(K_BAR, 0.02, n_k=128))
    ts = np.array([0.0, 2.0])
    xs = np.linspace(-30.0, 30.0, 24)
    expected = {x: Propagator(prop.pot, prop.packet).flux(x, ts) for x in xs}
    mismatches, finished, twins = [], [], []

    def work(offset):
        twins.append(prop.free)
        for i in range(1500):
            x = xs[(i + offset) % len(xs)]
            if not np.array_equal(prop.flux(x, ts), expected[x]):
                mismatches.append(x)
        finished.append(offset)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(6 * k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert sorted(finished) == [0, 6, 12, 18] and mismatches == []
    assert len(twins) == 4 and all(t is twins[0] for t in twins)
    assert prop._memo_samples == sum(J.size for J in prop._memo.values()) <= 16


def test_flux_series_autoextends_from_small_window():
    # the same early window handed to the series machinery gets grown until
    # the passage is captured
    pk = gaussian_packet(K_BAR, 0.02)
    fs = propagator(FREE, pk).flux_series(300.0, t_range=(-40.0, -20.0))
    assert fs.tail_captured
    assert fs.t_grid.hi > 25.0
    assert float(integrate(fs.J, fs.t_grid)) == pytest.approx(
        pk.incident_flux_mass(), rel=1e-4
    )


def _two_window_series(prop, x, t_range=None, n_t=2048, eps_tail=wavepacket.TAIL_TOL):
    """The tail rule that evaluates each round's window as well as its 25%
    widening, and compares the |J| masses of the two grids."""
    lo, hi = t_range if t_range is not None else prop.suggest_window(x)
    density = n_t / (hi - lo)

    def series(lo, hi):
        g = Grid1D.uniform(lo, hi, max(min(int(density * (hi - lo)) + 1, 1 << 17), 256))
        J = prop.flux(x, g.points)
        return g, J, float(integrate(np.abs(J), g))

    g, J, mass = series(lo, hi)
    for _ in range(wavepacket.MAX_TAIL_EXTENSIONS):
        pad = 0.25 * (hi - lo)
        lo, hi = lo - pad, hi + pad
        g, J, wide_mass = series(lo, hi)
        captured = abs(wide_mass - mass) <= eps_tail * max(wide_mass, 1e-300)
        mass = wide_mass
        if captured:
            break
    return g, J, mass, captured


# samples of round r's window, 1.5^r times the 2048 of the requested one
ROUND_SAMPLES = [3 ** r * 2 ** (11 - r) + 1 for r in range(1, 9)]


@pytest.mark.parametrize("pot, x, t_range, rounds, captured", [
    (rectangular(10.0, 5.0), -5.0, None, 1, True),
    (FREE, 300.0, (-40.0, -20.0), 6, True),
    (FREE, 300.0, (0.0, 2.0), 8, False),
], ids=["first-round", "multi-round", "uncaptured"])
def test_flux_series_evaluates_only_widened_windows(monkeypatch, pot, x, t_range, rounds,
                                                   captured):
    # each round evaluates only the widened window and reads the mass of the
    # window before from its own samples, so a tail captured in the first
    # round is one flux call; grid, J, |J| mass and verdict are those of the
    # rule that also evaluates each round's unwidened window
    prop = Propagator(pot, gaussian_packet(K_BAR, 0.02))
    made, flux = [], Propagator.flux
    monkeypatch.setattr(Propagator, "flux",
                        lambda self, x, ts, *a: made.append(len(ts)) or flux(self, x, ts, *a))
    fs = prop.flux_series(x, t_range)
    assert made == ROUND_SAMPLES[:rounds] and fs.tail_captured is captured
    g, J, mass, ref_captured = _two_window_series(Propagator(pot, prop.packet), x, t_range)
    np.testing.assert_array_equal(fs.t_grid.points, g.points)
    np.testing.assert_array_equal(fs.t_grid.weights, g.weights)
    np.testing.assert_array_equal(fs.J, J)
    assert fs.abs_mass == mass and fs.tail_captured is ref_captured


def test_free_packet_has_no_backward_flux():
    pk = gaussian_packet(K_BAR, 0.02)
    fs = propagator(FREE, pk).flux_series(10.0)
    assert abs(float(integrate(fs.J_minus, fs.t_grid))) < 1e-12 * fs.abs_mass


def test_reflection_region_late_time_flux_is_negative():
    # after the packet has bounced, only outgoing reflected flux remains
    pot = rectangular(10.0, 5.0)
    pk = gaussian_packet(K_BAR, 0.02)
    prop = propagator(pot, pk)
    J_late = prop.flux(-5.0, np.linspace(1.5, 6.0, 200))
    assert np.max(J_late) < 0.0


def test_barrier_face_has_both_signs():
    pot = rectangular(10.0, 5.0)
    pk = gaussian_packet(K_BAR, 0.02)
    fs = propagator(pot, pk).flux_series(-3.0)
    mp = float(integrate(fs.J_plus, fs.t_grid))
    mm = float(integrate(fs.J_minus, fs.t_grid))
    assert mp > 0 and mm < 0
    total = float(integrate(fs.J, fs.t_grid))
    assert total == pytest.approx(mp + mm, rel=1e-12)


def _off_centre_photon_packet(shift=0.02, dk=0.02):
    """A photon packet whose Gaussian |G|^2 sits `shift` above its k_bar, so it
    has the first moment about k_bar that a cutoff gives, without a cut's
    slowly decaying flux tail."""
    grid = Grid1D.gauss_legendre(K_BAR + shift - 12 * dk, K_BAR + shift + 12 * dk, 512)
    G = np.exp(-((grid.points - K_BAR - shift) ** 2) / (2 * dk) ** 2)
    return SpectralPacket(grid=grid, G=G, k_bar=K_BAR, delta_k=dk, dispersion=PHOTON)


@pytest.mark.parametrize("make", [
    lambda: gaussian_packet(K_BAR, 0.02),
    lambda: gaussian_packet(K_BAR, 0.02, dispersion=PHOTON),
    _off_centre_photon_packet,
], ids=["massive", "photon", "photon-off-centre"])
def test_incident_mass_matches_analytic(make):
    # the free flux summed over its tail-captured series is the all-time
    # mass; a photon flux carries c/k_bar, so its mass weighs |G|^2 by
    # k/k_bar, which moves it once |G|^2 has a first moment about k_bar (by
    # 1.7% for the off-centre packet)
    pk = make()
    fs = propagator(FREE, pk).flux_series(0.0)
    numeric = float(integrate(fs.J, fs.t_grid))
    assert numeric == pytest.approx(pk.incident_flux_mass(), rel=1e-12)


def test_transmitted_fraction_matches_weighted_T():
    # asymptotic flux partition: integral J(x_f) dt / integral J_in dt
    pot = rectangular(10.0, 5.0)
    pk = gaussian_packet(K_BAR, 0.002)  # narrow for the quasi-monochromatic limit
    prop = propagator(pot, pk)
    fs = prop.flux_series(8.0)
    ratio = float(integrate(fs.J, fs.t_grid)) / pk.incident_flux_mass()
    T_E = float(pk.energy_average(np.abs(prop.table.A_T) ** 2))
    assert abs(ratio - T_E) < 1e-4


@settings(max_examples=16)
@given(V0=st.one_of(st.floats(1.0, 3.0), st.floats(6.0, 15.0)), a=st.floats(1.0, 8.0),
       x=st.floats(-40.0, 40.0), dk=st.sampled_from([0.002, 0.02]),
       dispersion=st.sampled_from([MASSIVE, PHOTON]))
def test_all_time_flux_is_the_transmitted_mass(V0, a, x, dk, dispersion):
    # conservation over all time: at any x outside the barrier the signed
    # flux of a tail-captured series sums to 2 pi integral |G|^2 w |A_T|^2 dk,
    # w the density weight (k/k_bar for a photon packet); x >= 0 is read
    # past the barrier's right edge, x < 0 before its left edge.  The barrier
    # top stays 1 eV from the packet's 5 eV, above or below it: within a few
    # tenths of an eV the transmitted tail outlasts the window by up to
    # 1.4e-10 of N, which the tail rule (TAIL_TOL on the |J| mass) accepts
    pot = rectangular(V0, a)
    pk = gaussian_packet(K_BAR, dk, n_k=128, dispersion=dispersion)
    prop = Propagator(pot, pk)
    fs = prop.flux_series(x + a if x >= 0 else x)
    assert fs.tail_captured
    expected = 2 * math.pi * float(integrate(
        np.abs(pk.G) ** 2 * pk.density_weight * np.abs(prop.table.A_T) ** 2, pk.grid))
    assert abs(float(integrate(fs.J, fs.t_grid)) - expected) <= 1e-12 * pk.incident_flux_mass()


def test_narrow_packet_time_approaches_phase_time():
    # quasi-monochromatic limit of the flux time at the barrier exit
    from tuntime.flux_times import mean_time
    from tuntime.stationary_times import phase_time

    pot = rectangular(10.0, 5.0)
    pk = gaussian_packet(K_BAR, 0.005)
    fs = propagator(pot, pk).flux_series(5.0)
    stat = mean_time(fs, "+")
    assert stat.mean == pytest.approx(phase_time(pot, E_BAR), rel=0.02)


# -------------------------------------------------------------------- photon

def test_photon_packet_no_spreading():
    pk = gaussian_packet(K_BAR, 0.02, dispersion=PHOTON)
    prop = Propagator(FREE, pk)
    c = UNITS.c

    def width(t):
        xs = np.linspace(c * t - 300.0, c * t + 300.0, 3001)
        dens = np.abs(prop.psi_grid(xs, [t])[:, 0]) ** 2
        m0 = np.trapezoid(dens, xs)
        m1 = np.trapezoid(xs * dens, xs) / m0
        return math.sqrt(np.trapezoid((xs - m1) ** 2 * dens, xs) / m0)

    w0, w1 = width(0.0), width(0.4)
    assert abs(w1 - w0) / w0 < 1e-6


def test_massive_packet_does_spread():
    pk = gaussian_packet(K_BAR, 0.02)
    prop = Propagator(FREE, pk)
    v = float(UNITS.velocity(K_BAR))

    def width(t):
        xs = np.linspace(v * t - 300.0, v * t + 300.0, 3001)
        dens = np.abs(prop.psi_grid(xs, [t])[:, 0]) ** 2
        m0 = np.trapezoid(dens, xs)
        m1 = np.trapezoid(xs * dens, xs) / m0
        return math.sqrt(np.trapezoid((xs - m1) ** 2 * dens, xs) / m0)

    assert width(50.0) > 1.05 * width(0.0)


def test_dispersion_velocities():
    assert float(MASSIVE.velocity(K_BAR)) == pytest.approx(
        float(UNITS.velocity(K_BAR)), rel=1e-14
    )
    assert float(PHOTON.velocity(K_BAR)) == UNITS.c
    assert float(PHOTON.energy(2.0)) == pytest.approx(2 * UNITS.hbar * UNITS.c, rel=1e-14)
