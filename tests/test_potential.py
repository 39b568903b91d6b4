"""Potential construction, geometry, and scattering-level equivalences."""

import numpy as np
import pytest

from tuntime.core import UNITS, ContractViolation
from tuntime.potential import (
    PiecewisePotential,
    RegionMarkers,
    double_rectangular,
    rectangular,
)
from tuntime.scattering import solve

KAPPA_REF = 1.1455750187578737  # sqrt((10-5)/3.8099821), 1/Angstrom


def test_rectangular_basic():
    pot = rectangular(10.0, 5.0)
    assert pot.segments == ((0.0, 5.0, 10.0),)
    assert rectangular(1.0, 1.0).segments == ((0.0, 1.0, 1.0),)


def test_rectangular_contracts():
    for bad in [(0.0, 5.0), (-1.0, 5.0), (10.0, 0.0), (10.0, -2.0)]:
        with pytest.raises(ContractViolation):
            rectangular(*bad)


def test_opacity_parameter():
    # kappa = sqrt(2m(V0-E))/hbar via the unit system, frozen reference value
    kappa = float(UNITS.decay_constant(10.0, 5.0))
    assert kappa == pytest.approx(KAPPA_REF, rel=1e-12)
    assert kappa * 5.0 == pytest.approx(5.7279, abs=2e-4)


def test_double_rectangular_geometry():
    pot = double_rectangular(10.0, 5.0, 15.0)
    assert pot.segments == ((0.0, 5.0, 10.0), (15.0, 20.0, 10.0))
    gap = pot.segments[1][0] - pot.segments[0][1]
    assert gap == 10.0


def test_double_rectangular_degenerate_gap():
    pot = double_rectangular(10.0, 5.0, 5.0)
    assert pot.segments == ((0.0, 5.0, 10.0), (5.0, 10.0, 10.0))
    with pytest.raises(ContractViolation):
        double_rectangular(10.0, 5.0, 4.0)


def test_adjacent_barriers_equal_merged():
    # |A_T| of double(10,5,5) equals rectangular(10,10) at E = 5
    merged = solve(rectangular(10.0, 10.0), 5.0)
    double = solve(double_rectangular(10.0, 5.0, 5.0), 5.0)
    assert abs(double.A_T - merged.A_T) < 1e-10
    assert abs(double.A_R - merged.A_R) < 1e-10


def test_adjacent_equivalence_over_energies():
    for E in np.linspace(0.5, 9.5, 19):
        merged = solve(rectangular(10.0, 4.0), float(E))
        double = solve(double_rectangular(10.0, 2.0, 2.0), float(E))
        assert abs(double.A_T - merged.A_T) < 1e-10


def test_zero_height_segment_is_noop():
    base = PiecewisePotential(((0.0, 5.0, 10.0),))
    padded = PiecewisePotential(((-4.0, -1.0, 0.0), (0.0, 5.0, 10.0), (7.0, 9.0, 0.0)))
    for E in (0.7, 5.0, 12.0):
        a = solve(base, E)
        b = solve(padded, E)
        assert abs(a.A_T - b.A_T) < 1e-12
        assert abs(a.A_R - b.A_R) < 1e-12


def test_segment_validation():
    with pytest.raises(ContractViolation):
        PiecewisePotential(((0.0, 1.0, 2.0), (0.5, 2.0, 1.0)))  # overlap
    with pytest.raises(ContractViolation):
        PiecewisePotential(((1.0, 1.0, 2.0),))  # empty
    with pytest.raises(ContractViolation):
        PiecewisePotential(((0.0, 1.0, -3.0),))  # below asymptotic level
    with pytest.raises(ContractViolation):
        PiecewisePotential(((0.0, float("inf"), 1.0),))


def test_value_half_open():
    pot = double_rectangular(10.0, 5.0, 15.0)
    assert pot.value(0.0) == 10.0
    assert pot.value(5.0) == 0.0  # right edge excluded
    assert pot.value(15.0) == 10.0
    assert pot.value(-1e-12) == 0.0


def test_markers():
    m = RegionMarkers(-10.0, 12.0)
    assert m.x_i == -10.0 and m.x_f == 12.0
    with pytest.raises(ContractViolation):
        RegionMarkers(3.0, -3.0)
