"""Units, grids, quadrature and differentiation."""

import inspect

import numpy as np
import pytest

import tuntime
from tuntime.core import (
    UNITS,
    ContractViolation,
    Grid1D,
    QuadratureError,
    UnitSystem,
    central_difference,
    integrate,
)


def test_units_positive_and_velocity():
    assert UNITS.hbar > 0 and UNITS.hbar2_over_2m > 0 and UNITS.c > 0
    for k in (0.1, 1.0, 3.7):
        assert UNITS.velocity(k) > 0
    with pytest.raises(ContractViolation):
        UnitSystem(hbar=-1.0)


def test_no_signature_takes_a_unit_system_or_a_retired_knob():
    # the constants are fixed (UNITS) and the sampling and step options that
    # no caller set are module constants: no exported function, class or
    # method takes them
    retired = {"units", "rel_k_step", "eps_tail", "n_t", "span"}
    exported = [(name, obj) for name, obj in vars(tuntime).items() if callable(obj)]
    found = []
    for name, obj in exported:
        routines = [(name, obj)]
        if inspect.isclass(obj):
            routines += [(f"{name}.{m}", f) for m, f in vars(obj).items()
                         if isinstance(f, (classmethod, staticmethod)) or inspect.isfunction(f)]
        for label, fn in routines:
            fn = getattr(fn, "__func__", fn)
            try:
                params = inspect.signature(fn).parameters
            except (TypeError, ValueError):  # builtins without a signature
                continue
            found += [f"{label}({p})" for p in params if p in retired]
    assert len(exported) > 50
    assert found == []


def test_units_roundtrip():
    E = 5.0
    k = UNITS.wavenumber(E)
    assert UNITS.energy(k) == pytest.approx(E, rel=1e-14)
    # hbar k / m equals 2 (hbar^2/2m) k / hbar
    assert UNITS.velocity(k) == pytest.approx(UNITS.hbar * k / UNITS.mass, rel=1e-14)


def test_grid_validation():
    with pytest.raises(ContractViolation):
        Grid1D(np.array([0.0, 0.0, 1.0]), np.ones(3))
    with pytest.raises(ContractViolation):
        Grid1D(np.array([0.0, 1.0]), np.array([1.0, -1.0]))
    with pytest.raises(ContractViolation):
        Grid1D(np.array([0.0, 1.0]), np.ones(3))


@pytest.mark.parametrize("maker", [Grid1D.gauss_legendre, Grid1D.uniform])
def test_grid_integrates_constant(maker):
    g = maker(-1.5, 3.25, 64)
    assert integrate(np.ones(len(g)), g) == pytest.approx(4.75, rel=1e-12)


def test_integrate_zero_and_constant():
    g = Grid1D.gauss_legendre(0.0, 2.0, 32)
    assert integrate(np.zeros(len(g)), g) == 0.0
    assert integrate(np.ones(len(g)), g) == pytest.approx(2.0, rel=1e-12)


def test_integrate_quadratic_exact():
    g = Grid1D.gauss_legendre(0.0, 1.0, 64)
    assert integrate(g.points**2, g) == pytest.approx(1.0 / 3.0, abs=1e-14)


def test_integrate_length_mismatch():
    g = Grid1D.gauss_legendre(0.0, 1.0, 16)
    with pytest.raises(ContractViolation):
        integrate(np.ones(17), g)


def test_integrate_linear_in_f():
    g = Grid1D.gauss_legendre(0.0, 1.0, 32)
    f1 = np.sin(g.points)
    f2 = np.cos(3 * g.points)
    lhs = integrate(2.0 * f1 + 5.0 * f2, g)
    rhs = 2.0 * integrate(f1, g) + 5.0 * integrate(f2, g)
    assert lhs == pytest.approx(rhs, rel=1e-14)


def test_gauss_legendre_polynomial_exactness():
    # n nodes integrate polynomials of degree 2n-1 exactly
    n = 8
    g = Grid1D.gauss_legendre(-1.0, 1.0, n)
    for deg in range(2 * n):
        exact = (1.0 - (-1.0) ** (deg + 1)) / (deg + 1)
        assert integrate(g.points**deg, g) == pytest.approx(exact, abs=1e-12)


def test_composite_gauss_oscillatory():
    g = Grid1D.composite_gauss(0.0, 10.0, panels=40, order=12)
    assert integrate(np.sin(7.3 * g.points), g) == pytest.approx(
        (1 - np.cos(73.0)) / 7.3, abs=1e-12
    )


def test_ddE_linear():
    assert central_difference(lambda E, _: E, 3.7) == pytest.approx(1.0, abs=1e-9)


def test_ddE_quadratic():
    assert central_difference(lambda E, _: E**2, 2.0) == pytest.approx(4.0, rel=1e-6)


def test_ddE_constant():
    assert central_difference(lambda E, _: 0 * E + 42.0, 1.0) == pytest.approx(0.0, abs=1e-12)


def test_ddE_small_energy_step_reduction():
    # the step h = rel_step * E stays below E for every allowed rel_step, so
    # E - h > 0 holds without any step halving
    val = central_difference(lambda E, _: E**2, 0.5, rel_step=0.9)
    assert val == pytest.approx(1.0, rel=1e-12)
    for bad in (0.0, 1.0, 2.0):
        with pytest.raises(ContractViolation):
            central_difference(lambda E, _: E**2, 0.5, rel_step=bad)


def test_ddE_contract():
    for x in (0.0, -1.0, np.array([1.0, 0.0])):
        with pytest.raises(ContractViolation):
            central_difference(lambda E, _: E, x)
    with pytest.raises(ContractViolation):
        central_difference(lambda E, _: np.full_like(E, np.nan), 1.0)


def test_ddE_array_matches_scalar():
    xs = np.array([[0.5, 1.0], [2.0, 3.5]])
    d = central_difference(lambda x, _: np.sin(x), xs)
    assert d.shape == xs.shape
    for x, dx in zip(xs.ravel(), d.ravel()):
        assert dx == central_difference(lambda x, _: np.sin(x), x)
    assert np.allclose(d, np.cos(xs), rtol=1e-9)


def test_phase_derivative_plane_rotation():
    # g = e^{i w E}: d(arg)/dE = w, from the principal-value arg
    w = 0.7
    assert central_difference(
        lambda E, _: np.angle(np.exp(1j * w * E)), 5.0, periodic=True
    ) == pytest.approx(w, rel=1e-9)


def test_phase_difference_wraps_across_the_branch_cut():
    # arg = w E mod 2 pi jumps by -2 pi between E - h and E + h at E = pi / w
    w = 2.0
    E0 = np.pi / w
    d = central_difference(lambda E, _: np.angle(np.exp(1j * w * E)), E0, periodic=True)
    assert d == pytest.approx(w, rel=1e-9)


def test_phase_swing_refined_per_entry():
    # arg e^{i c x^2} turns by 4 c x h across the difference: 1 rad at x = 0.5,
    # but 4 and 16 rad at x = 1 and 2, which wrap to more than pi/2, so only
    # those two entries are evaluated again, at a hundredth of the step, and f
    # is told the row of each stacked entry
    c, calls = 1e6, []

    def phase(x, rows):
        calls.append(rows.tolist())
        return np.angle(np.exp(1j * c * x**2))

    x = np.array([0.5, 1.0, 2.0])
    assert central_difference(phase, x, periodic=True) == pytest.approx(2 * c * x, rel=1e-6)
    assert calls == [[0, 1, 2, 0, 1, 2], [1, 2, 1, 2]]


def test_unresolvable_phase_swing_raises():
    # a true discontinuity of 0.9 pi is never resolved by shrinking the step
    with pytest.raises(QuadratureError):
        central_difference(lambda x, _: np.where(x < 1.0, 0.0, 0.9 * np.pi), 1.0,
                           periodic=True)
