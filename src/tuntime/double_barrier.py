"""Closed-form analysis of two equal rectangular barriers.

The exact amplitudes of a double barrier are those of the general
transfer-matrix table (SolutionTable of double_rectangular).  The
opaque-limit closed forms follow the published coefficient set for the
second barrier; for the first barrier the printed source collapses the
region-III amplitude with the phase-referenced total, so the region-III
forms here are re-derived from the matching conditions:

    A_T  -> e^{-chi a} e^{-ikL} A,      A_R -> -(chi + ik)/(chi - ik),
    alpha -> 2ik/(ik - chi),            beta -> (A/2) e^{-2 chi a}
                                                e^{ik(a-L)} (chi+ik)/chi (1 - e^{2ik(L-a)})

with A = 2 chi k / [2 chi k cos k(L-a) + (chi^2 - k^2) sin k(L-a)] real, and
the total transmission A_T A'_T = -e^{-2 chi a} e^{-ik(L+a)} 4ik chi/(ik-chi)^2 A
whose phase reference e^{ik(L+a)} removes all a and L dependence off
resonance: the generalized Hartman effect.  On a resonance, a pole
E_r - i Gamma of the S-matrix (find_resonances), the delay is hbar/Gamma.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import (OPACITY_HARD_FLOOR, OPACITY_WARN_BELOW, UNITS, ContractViolation,
                   QuadratureError)
from .potential import double_rectangular
from .scattering import SolutionTable
from .stationary_times import phase_time

RESONANCE_DENOMINATOR_TOL = 1e-6
RESONANCE_SCAN = 2001  # energies of find_resonances' scan; its interior maxima seed Newton
# a seed within a scan step of its pole takes 3 or 4 Newton steps; a last
# step below NEWTON_TOL |E| leaves it at rounding level.  dD/dE over E +- h
NEWTON_STEPS, NEWTON_TOL, NEWTON_REL_STEP = 6, 1e-9, 1e-6  # h = NEWTON_REL_STEP Re E


class OpacityWarning(UserWarning):
    """Opaque-limit formula used at modest chi*a."""


class ResonanceWarning(UserWarning):
    """Evaluation at or near a cavity resonance; opaque forms unreliable."""


@dataclass(frozen=True)
class DoubleBarrierSolution:
    """All eight matching coefficients for barriers (0,a) and (L, L+a), in the
    opaque limit (opaque_coefficients).

    Region III carries A_T [e^{ikx} + A'_R e^{-ikx}]; region V carries
    A_T A'_T e^{ikx}.  A_real_factor is the cavity enhancement factor (real
    off resonance in the opaque regime); delta = arg[(ik+chi)/(ik-chi)] is the
    a- and L-independent reflection phase.
    """

    E: float
    k: float
    chi: float
    a: float
    L: float
    A_R: complex
    A_T: complex
    Ap_R: complex
    Ap_T: complex
    alpha: complex
    beta: complex
    alphap: complex
    betap: complex
    A_real_factor: complex
    delta: float
    flags: tuple = ()

    @property
    def total_transmission(self) -> complex:
        return self.A_T * self.Ap_T


def _kinematics(V0: float, a: float, L: float, E: float):
    if not (0 < E < V0):
        raise ContractViolation("double-barrier analysis needs 0 < E < V0")
    if not (a > 0 and L >= a):
        raise ContractViolation("need a > 0 and L >= a")
    k = float(UNITS.wavenumber(E))
    chi = float(UNITS.decay_constant(V0, E))
    return k, chi


def resonance_denominator(V0: float, a: float, L: float, E: float) -> float:
    """2 chi k cos k(L-a) + (chi^2 - k^2) sin k(L-a); zero at cavity resonances."""
    k, chi = _kinematics(V0, a, L, E)
    g = L - a
    return 2 * chi * k * math.cos(k * g) + (chi**2 - k**2) * math.sin(k * g)


def on_resonance(V0: float, a: float, L: float, E: float) -> bool:
    """True on a cavity resonance: |resonance_denominator| below
    RESONANCE_DENOMINATOR_TOL chi k."""
    k, chi = _kinematics(V0, a, L, E)
    return abs(resonance_denominator(V0, a, L, E)) < RESONANCE_DENOMINATOR_TOL * chi * k


def _delta(k: float, chi: float) -> float:
    return cmath.phase((1j * k + chi) / (1j * k - chi))


def opaque_coefficients(V0: float, a: float, L: float, E: float) -> DoubleBarrierSolution:
    """Opaque-limit (chi a -> infinity) closed-form coefficient set."""
    k, chi = _kinematics(V0, a, L, E)
    if chi * a < OPACITY_HARD_FLOOR:
        raise ContractViolation(f"opaque forms need chi*a >= {OPACITY_HARD_FLOOR}")
    flags = []
    if chi * a < OPACITY_WARN_BELOW:
        warnings.warn(f"chi*a = {chi*a:.2f} below {OPACITY_WARN_BELOW}; "
                      "opaque-form error ~ e^(-2 chi a) is not negligible",
                      OpacityWarning, stacklevel=2)
        flags.append("opaque_warning")
    ik = 1j * k
    g = L - a
    if on_resonance(V0, a, L, E):
        warnings.warn("on a cavity resonance; the real factor A is unreliable",
                      ResonanceWarning, stacklevel=2)
        flags.append("on_resonance")
    A = 2 * chi * k / resonance_denominator(V0, a, L, E)
    alphap = cmath.exp(1j * k * L) * 2 * ik / (ik - chi)
    betap = cmath.exp(1j * k * L - 2 * chi * a) * (-2 * ik * (ik + chi)) / (ik - chi) ** 2
    Ap_R = cmath.exp(2j * k * L) * (ik + chi) / (ik - chi)
    Ap_T = cmath.exp(-chi * a) * cmath.exp(-1j * k * a) * (-4 * ik * chi) / (ik - chi) ** 2
    A_T = math.exp(-chi * a) * cmath.exp(-1j * k * L) * A
    A_R = -(chi + ik) / (chi - ik)
    alpha = 2 * ik / (ik - chi)
    beta = (0.5 * A * math.exp(-2 * chi * a) * cmath.exp(1j * k * (a - L))
            * (chi + ik) / chi * (1 - cmath.exp(2j * k * g)))
    return DoubleBarrierSolution(
        E=E, k=k, chi=chi, a=a, L=L,
        A_R=A_R, A_T=A_T, Ap_R=Ap_R, Ap_T=Ap_T,
        alpha=alpha, beta=beta, alphap=alphap, betap=betap,
        A_real_factor=complex(A), delta=_delta(k, chi), flags=tuple(flags),
    )


def phase_time_total(V0: float, a: float, L: float, E: float) -> float:
    """Total two-barrier phase time hbar d arg[A_T A'_T e^{ik(L+a)}] / dE.

    Evaluated on the exact product amplitude; off resonance and opaque it is
    independent of both a and L and equals the single-barrier Hartman plateau
    2/(v chi).  On a resonance a warning is attached; to resolve the
    Lorentzian peak near one, call phase_time(double_rectangular(V0, a, L),
    E, rel_step=...) with rel_step below Gamma/E.
    """
    if on_resonance(V0, a, L, E):
        warnings.warn("phase_time_total evaluated on a cavity resonance",
                      ResonanceWarning, stacklevel=2)
    return phase_time(double_rectangular(V0, a, L), E)


def opaque_phase_time(V0: float, E: float) -> float:
    """hbar d/dE arg[-4 i k chi / (ik - chi)^2]: the closed-form route to the
    generalized-Hartman plateau, independent of every geometric parameter.

    The argument is 2 arctan(k/chi) - pi/2 (mod 2 pi), so hbar times its
    energy derivative is exactly 2/(v chi), the separated opaque dwell limit.
    """
    if not 0 < E < V0:
        raise ContractViolation("need 0 < E < V0")
    k = float(UNITS.wavenumber(E))
    return 2.0 / (float(UNITS.decay_constant(V0, E)) * float(UNITS.velocity(k)))


@dataclass(frozen=True)
class Resonance:
    """The S-matrix pole E_r - i Gamma and T_peak = |A_T(E_r)|^2.  Gamma is
    the peak's half-width at half maximum; below 1e-12 eV (rounding) it is
    None and resolved False: the pole is reported by its position alone."""

    E_r: float
    Gamma: float | None
    T_peak: float
    resolved: bool


def find_resonances(V0: float, a: float, L: float, E_range: tuple) -> list:
    """The Fabry-Perot resonances of the double barrier inside E_range, as
    poles of A_T in complex energy (Siegert, Phys. Rev. 56, 750 (1939)).

    Every interior maximum of log|A_T| on RESONANCE_SCAN energies (even a
    peak far narrower than the scan step is one) seeds Newton's method on
    the transmission denominator, D e^{scale} = 2 e^{-log_abs_A_T} D/|D|,
    all seeds in one table per step.  No convergence within NEWTON_STEPS, a
    pole above the real axis beyond 1e-12 eV and a pole farther from its
    seed than max(5 Gamma, scan step) raise QuadratureError.
    """
    lo, hi = float(E_range[0]), float(E_range[1])
    if not (0 < lo < hi < V0):
        raise ContractViolation("E_range must lie inside (0, V0)")
    pot = double_rectangular(V0, a, L)
    Es = np.linspace(lo, hi, RESONANCE_SCAN)
    scan = SolutionTable(pot, Es).log_abs_A_T
    seeds = Es[1 + np.nonzero((scan[1:-1] > scan[:-2]) & (scan[1:-1] >= scan[2:]))[0]]
    if not len(seeds):
        return []
    E, todo = seeds.astype(complex), np.ones(len(seeds), dtype=bool)
    for _ in range(NEWTON_STEPS):
        h = NEWTON_REL_STEP * E[todo].real
        t = SolutionTable(pot, np.concatenate([E[todo], E[todo] - h, E[todo] + h]))
        phase = (t.D / np.hypot(t.D.real, t.D.imag)).reshape(3, -1)
        log_abs = t.log_abs_A_T.reshape(3, -1)
        ratio = phase[1:] / phase[0] * np.exp(log_abs[0] - log_abs[1:])  # D(E +- h) / D(E)
        step = 2.0 * h / (ratio[1] - ratio[0])
        E[todo] -= step
        todo[todo] = ~(np.abs(step) <= NEWTON_TOL * np.abs(E[todo]))  # nan stays
        if not todo.any():
            break
    Gamma = -E.imag
    if todo.any() or (Gamma < -1e-12).any() or (
            np.abs(E - seeds) > np.maximum(5.0 * Gamma, Es[1] - Es[0])).any():
        raise QuadratureError(f"no pole of A_T converged near the peaks at {seeds} eV")
    T_peak = np.exp(2.0 * SolutionTable(pot, E.real).log_abs_A_T)
    return [Resonance(E_r=float(E_r), Gamma=float(G) if G >= 1e-12 else None,
                      T_peak=float(T), resolved=bool(G >= 1e-12))
            for E_r, G, T in zip(E.real, Gamma, T_peak)]
