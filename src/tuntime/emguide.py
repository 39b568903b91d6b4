"""Undersized-waveguide analog of particle tunnelling, and FTIR shift relations.

An evanescent TE mode in a rectangular guide obeys the same stationary
equation as a sub-barrier particle: kappa_em^2 = k_c^2 - k^2 mirrors
kappa^2 = kappa_0^2 - k^2, so a guide maps onto an equivalent rectangular
barrier with kappa_0 = k_c and width L.  Photon wavepackets differ only
through the linear dispersion E = hbar c k, which removes spreading.
Geometry is specified in cm (waveguide practice); mapped quantities come out
in the package's eV / Angstrom / fs system.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .core import UNITS, ContractViolation, central_difference
from .potential import PiecewisePotential, rectangular
from .scattering import SolutionTable

CM = 1e8  # Angstrom per cm

LKAPPA_HARD_FLOOR = 5.0
LKAPPA_WARN_BELOW = 8.0


class EvanescenceWarning(UserWarning):
    """Opaque-guide formula applied at modest L * kappa_em."""


@dataclass(frozen=True)
class WaveguideSpec:
    """Rectangular guide: cross-section a x b (cm, a <= b), TE_mn mode,
    undersized-segment length L (cm), operating wavelength lam (cm)."""

    a: float
    b: float
    m: int
    n: int
    L: float
    lam: float

    def __post_init__(self):
        if not (self.a > 0 and self.b > 0 and self.L > 0 and self.lam > 0):
            raise ContractViolation("waveguide dimensions must be positive")
        if self.a > self.b:
            raise ContractViolation("convention requires a <= b (narrow side first)")
        if self.m == 0 and self.n == 0:
            raise ContractViolation("mode integers m, n must not both be zero")
        if self.m < 0 or self.n < 0:
            raise ContractViolation("mode integers must be non-negative")


def cutoff_wavelength(spec: WaveguideSpec) -> float:
    """lambda_c from (1/lambda_c)^2 = (m/2a)^2 + (n/2b)^2, in cm."""
    inv_sq = (spec.m / (2 * spec.a)) ** 2 + (spec.n / (2 * spec.b)) ** 2
    return 1.0 / math.sqrt(inv_sq)


@dataclass(frozen=True)
class PropagationBranch:
    """Mode propagation constant: real gamma below cutoff wavelength,
    evanescent kappa_em above it (both 1/cm)."""

    evanescent: bool
    value: float
    lambda_c: float
    flags: tuple = ()

    @property
    def gamma(self) -> float:
        if self.evanescent:
            raise ContractViolation("mode is evanescent; no real gamma")
        return self.value

    @property
    def kappa_em(self) -> float:
        if not self.evanescent:
            raise ContractViolation("mode is propagating; no kappa_em")
        return self.value


def propagation_constant(spec: WaveguideSpec) -> PropagationBranch:
    """gamma = 2 pi sqrt(1/lam^2 - 1/lam_c^2) or its evanescent counterpart."""
    lc = cutoff_wavelength(spec)
    flags = ()
    if abs(spec.lam - lc) / lc < 1e-9:
        flags = ("cutoff_degeneracy",)
    if spec.lam < lc:
        gamma = 2 * math.pi * math.sqrt(1 / spec.lam**2 - 1 / lc**2)
        return PropagationBranch(False, gamma, lc, flags)
    kap = 2 * math.pi * math.sqrt(1 / lc**2 - 1 / spec.lam**2)
    return PropagationBranch(True, kap, lc, flags)


def te_mode_fields(spec: WaveguideSpec, y: float, z: float):
    """TE_mn transverse field profile (arbitrary units): E_x = 0,
    E_y ~ sin(k_z z) cos(k_y y), E_z ~ -(k_y/k_z) cos(k_z z) sin(k_y y),
    vanishing on the walls z in {0, a}, y in {0, b}."""
    if not (0 <= z <= spec.a and 0 <= y <= spec.b):
        raise ContractViolation("field point outside the guide cross-section")
    k_z = spec.m * math.pi / spec.a
    k_y = spec.n * math.pi / spec.b
    E_y = math.sin(k_z * z) * math.cos(k_y * y)
    if spec.n == 0:
        return E_y, 0.0
    E_z = -(k_y / k_z) * math.cos(k_z * z) * math.sin(k_y * y)
    return E_y, E_z


@dataclass(frozen=True)
class PhotonTunnellingTime:
    """Opaque-guide photon phase time with its effective-velocity verdict."""

    tau: float            # fs
    v_eff: float          # cm / fs
    superluminal: bool    # exactly the condition L kappa_em > 2
    L_kappa: float
    flags: tuple = ()


def photon_phase_time(spec: WaveguideSpec) -> PhotonTunnellingTime:
    """tau = 2 / (c kappa_em) for an undersized segment with L kappa_em >> 1.

    The effective velocity L/tau = c * (L kappa_em) / 2 exceeds c exactly when
    L kappa_em > 2, the boundary case giving v_eff = c identically.
    """
    branch = propagation_constant(spec)
    if not branch.evanescent:
        raise ContractViolation("phase tunnelling time needs an evanescent mode")
    kap = branch.kappa_em            # 1/cm
    c_cm = UNITS.c / CM              # cm/fs
    lk = spec.L * kap
    flags = ()
    if lk < LKAPPA_HARD_FLOOR:
        raise ContractViolation(f"opaque-guide formula needs L kappa_em >= {LKAPPA_HARD_FLOOR}")
    if lk < LKAPPA_WARN_BELOW:
        warnings.warn(f"L kappa_em = {lk:.2f} below {LKAPPA_WARN_BELOW}; "
                      "saturation error not negligible", EvanescenceWarning,
                      stacklevel=2)
        flags = ("opaque_warning",)
    tau = 2.0 / (c_cm * kap)
    v_eff = spec.L / tau
    return PhotonTunnellingTime(tau=tau, v_eff=v_eff, superluminal=lk > 2.0,
                                L_kappa=lk, flags=flags)


@dataclass(frozen=True)
class BarrierMap:
    """Equivalent quantum barrier of an undersized guide.

    kappa_0 = k_c guarantees kappa(k_op) = kappa_em at the operating
    wavenumber, so the mapped barrier reproduces the guide's evanescent decay;
    the width is the undersized length.  All in eV / Angstrom.
    """

    V0_eff: float
    a_eff: float
    k_op: float        # operating wavenumber, 1/Angstrom
    kappa: float       # mapped decay constant, 1/Angstrom

    @property
    def potential(self) -> PiecewisePotential:
        return rectangular(self.V0_eff, self.a_eff)


def map_to_barrier(spec: WaveguideSpec) -> BarrierMap:
    branch = propagation_constant(spec)
    if not branch.evanescent:
        raise ContractViolation("only evanescent guides map to a barrier")
    k_c = 2 * math.pi / cutoff_wavelength(spec) / CM   # 1/Angstrom
    k_op = 2 * math.pi / spec.lam / CM
    V0_eff = UNITS.hbar2_over_2m * k_c**2
    a_eff = spec.L * CM
    return BarrierMap(V0_eff=V0_eff, a_eff=a_eff, k_op=k_op,
                      kappa=math.sqrt(k_c**2 - k_op**2))


def mapped_phase_time(spec: WaveguideSpec) -> float:
    """Photon phase time of the mapped barrier: d(arg A_T + k L)/dk / c, fs.

    The stationary amplitudes are the quantum ones of the mapped barrier; the
    linear photon dispersion turns hbar d/dE into (1/c) d/dk.
    """
    bm = map_to_barrier(spec)
    pot = bm.potential
    dphi = central_difference(lambda ks, _: SolutionTable(pot, UNITS.energy(ks)).arg_A_T,
                              bm.k_op, periodic=True)
    return (dphi + bm.a_eff) / UNITS.c


def ftir_shifts(tau_ph: float, v_z: float, tau_la_z: float, Omega: float):
    """Frustrated-total-internal-reflection observables.

    D = v_z * tau_ph (spatial shift of the transmitted beam along the
    interface) and delta_i = Omega * tau_la_z (angular deviation from the
    beam-direction rotation at frequency Omega).  Unit bookkeeping is the
    caller's: D inherits v_z's length unit, delta_i is in radians.
    """
    if tau_ph < 0 or v_z < 0 or tau_la_z < 0 or Omega < 0:
        raise ContractViolation("ftir inputs must be non-negative")
    return v_z * tau_ph, Omega * tau_la_z
