"""Waveguide analogy: cutoffs, modes, photon times, barrier mapping."""

import math

import pytest
from hypothesis import given
from hypothesis.strategies import floats

from tuntime.core import UNITS, ContractViolation
from tuntime.emguide import (
    EvanescenceWarning,
    WaveguideSpec,
    cutoff_wavelength,
    map_to_barrier,
    mapped_phase_time,
    photon_phase_time,
    propagation_constant,
)

from oracles import rect_phase_slope

# standard X-band-style geometry used throughout: a = 2.3 cm, TE10
SPEC = WaveguideSpec(a=2.3, b=4.6, m=1, n=0, L=10.0, lam=6.0)
C_CM = UNITS.c / 1e8  # cm/fs


def test_spec_validation():
    with pytest.raises(ContractViolation):
        WaveguideSpec(a=4.6, b=2.3, m=1, n=0, L=10.0, lam=6.0)  # a > b
    with pytest.raises(ContractViolation):
        WaveguideSpec(a=2.3, b=4.6, m=0, n=0, L=10.0, lam=6.0)
    with pytest.raises(ContractViolation):
        WaveguideSpec(a=2.3, b=4.6, m=1, n=0, L=-1.0, lam=6.0)


def test_cutoff_te10():
    assert cutoff_wavelength(SPEC) == pytest.approx(2 * 2.3, rel=1e-12)


def test_cutoff_te11_square():
    spec = WaveguideSpec(a=2.0, b=2.0, m=1, n=1, L=5.0, lam=1.0)
    assert cutoff_wavelength(spec) == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-12)


def test_cutoff_scales_with_a():
    big = WaveguideSpec(a=4.6, b=9.2, m=1, n=0, L=10.0, lam=6.0)
    assert cutoff_wavelength(big) == pytest.approx(9.2, rel=1e-12)


def test_propagation_branches():
    prop = propagation_constant(WaveguideSpec(a=2.3, b=4.6, m=1, n=0, L=10.0, lam=3.0))
    assert not prop.evanescent
    assert prop.gamma == pytest.approx(
        2 * math.pi * math.sqrt(1 / 9.0 - 1 / 4.6**2), rel=1e-12
    )
    evan = propagation_constant(SPEC)
    assert evan.evanescent
    assert evan.kappa_em == pytest.approx(
        2 * math.pi * math.sqrt(1 / 4.6**2 - 1 / 36.0), rel=1e-12
    )
    with pytest.raises(ContractViolation):
        _ = evan.gamma


def test_propagation_limits():
    near = propagation_constant(
        WaveguideSpec(a=2.3, b=4.6, m=1, n=0, L=10.0, lam=4.6 * (1 + 1e-12))
    )
    assert "cutoff_degeneracy" in near.flags
    assert abs(near.value) < 1e-4
    far = propagation_constant(WaveguideSpec(a=2.3, b=4.6, m=1, n=0, L=10.0, lam=4000.0))
    assert far.kappa_em == pytest.approx(2 * math.pi / 4.6, rel=1e-5)


def test_dispersion_identity():
    # k_z^2 + k_y^2 + gamma^2 = (2 pi / lambda)^2 on the propagating branch
    for (m, n, lam) in [(1, 0, 3.0), (1, 1, 2.0), (2, 1, 1.5)]:
        spec = WaveguideSpec(a=2.3, b=4.6, m=m, n=n, L=10.0, lam=lam)
        prop = propagation_constant(spec)
        if prop.evanescent:
            continue
        k_z = m * math.pi / spec.a
        k_y = n * math.pi / spec.b
        lhs = k_z**2 + k_y**2 + prop.gamma**2
        assert lhs == pytest.approx((2 * math.pi / lam) ** 2, rel=1e-12)


def test_photon_phase_time_values():
    ph = photon_phase_time(SPEC)
    kap = propagation_constant(SPEC).kappa_em
    assert ph.L_kappa == pytest.approx(10.0 * kap, rel=1e-12)
    assert ph.L_kappa > 2.0 and ph.superluminal
    assert ph.tau == pytest.approx(2.0 / (C_CM * kap), rel=1e-12)
    assert ph.v_eff / C_CM == pytest.approx(ph.L_kappa / 2.0, rel=1e-12)


def test_superluminal_predicate_is_exact_boundary():
    kap = propagation_constant(SPEC).kappa_em
    L_boundary = 2.0 / kap
    ph = photon_phase_time(
        WaveguideSpec(a=2.3, b=4.6, m=1, n=0, L=8.0 / kap, lam=6.0)
    )
    assert ph.superluminal
    # at L kappa = 2 exactly the effective velocity equals c
    tau = 2.0 / (C_CM * kap)
    assert L_boundary / tau == pytest.approx(C_CM, rel=1e-12)


def test_photon_phase_time_guards():
    with pytest.raises(ContractViolation):
        photon_phase_time(WaveguideSpec(a=2.3, b=4.6, m=1, n=0, L=10.0, lam=3.0))
    with pytest.raises(ContractViolation):
        photon_phase_time(WaveguideSpec(a=2.3, b=4.6, m=1, n=0, L=1.0, lam=6.0))
    with pytest.warns(EvanescenceWarning):
        photon_phase_time(WaveguideSpec(a=2.3, b=4.6, m=1, n=0, L=7.0, lam=6.0))


def test_map_to_barrier_reproduces_decay_constant():
    bm = map_to_barrier(SPEC)
    kap_em = propagation_constant(SPEC).kappa_em  # 1/cm
    assert bm.kappa == pytest.approx(kap_em / 1e8, rel=1e-12)  # 1/Angstrom
    assert bm.a_eff == pytest.approx(SPEC.L * 1e8, rel=1e-12)
    # the mapped barrier's decay constant at the operating energy
    kappa_qm = math.sqrt(bm.V0_eff / UNITS.hbar2_over_2m - bm.k_op**2)
    assert kappa_qm == pytest.approx(bm.kappa, rel=1e-12)


def test_mapped_phase_time_matches_guide_formula():
    # structural check of the analogy at L kappa_em ~ 8.8
    ph = photon_phase_time(SPEC)
    assert mapped_phase_time(SPEC) == pytest.approx(ph.tau, rel=0.05)


def test_mapped_phase_time_tightens_with_opacity():
    spec = WaveguideSpec(a=2.3, b=4.6, m=1, n=0, L=25.0, lam=6.0)
    ph = photon_phase_time(spec)
    assert mapped_phase_time(spec) == pytest.approx(ph.tau, rel=1e-6)


@given(ratio=floats(1.05, 3.0, exclude_min=True, exclude_max=True),
       L_kappa=floats(5.0, 40.0))
def test_mapped_phase_time_matches_the_closed_form(ratio, L_kappa):
    # TE10 guides with lambda/lambda_c in (1.05, 3): the mapped barrier's
    # phase time is (1/c) d(arg A_T + kL)/dk of its closed form, well inside
    # the 5% that the opaque guide formula 2/(c kappa_em) is held to
    lam = ratio * cutoff_wavelength(SPEC)
    kappa_em = propagation_constant(WaveguideSpec(2.3, 4.6, 1, 0, 1.0, lam)).kappa_em
    spec = WaveguideSpec(a=2.3, b=4.6, m=1, n=0, L=L_kappa / kappa_em, lam=lam)
    bm = map_to_barrier(spec)
    closed = rect_phase_slope(bm.k_op, bm.kappa, bm.a_eff) / UNITS.c
    assert mapped_phase_time(spec) == pytest.approx(closed, rel=1e-7)


def test_photon_flux_machinery_reuse():
    # photon mean passage time through the shared flux code path: for a free
    # photon packet the flux-weighted mean at x is exactly x/c
    from tuntime.core import UNITS as U
    from tuntime.flux_times import mean_time
    from tuntime.potential import PiecewisePotential
    from tuntime.wavepacket import PHOTON, gaussian_packet, propagator

    pk = gaussian_packet(float(U.wavenumber(5.0)), 0.02, dispersion=PHOTON)
    fs = propagator(PiecewisePotential(()), pk).flux_series(1000.0)
    stat = mean_time(fs, "+")
    assert stat.mean == pytest.approx(1000.0 / U.c, rel=1e-9)

