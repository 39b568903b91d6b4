"""Reference values the correctness gate compares tuntime's outputs against.

Two independent routes, written here so that they share no code with the
package under test:

* closed forms for one rectangular barrier, kept in log form so that they
  stay finite for opacities far beyond the e^-745 underflow line;
* a small transfer-matrix solver for any list of constant segments,
  vectorised over energy, used for superlattices, double barriers and the
  above-barrier nodes of wavepacket spectra.  It matches psi and psi' at
  every joint from the transmitted side backwards, with no rescaling, so it
  is only used where the total evanescent growth stays below e^600.

All quantities are in tuntime's eV / Angstrom / fs system.
"""

from __future__ import annotations

import math

import numpy as np

HBAR = 0.6582119569
C_KIN = 3.8099821  # hbar^2 / 2m, eV Angstrom^2
C_LIGHT = 2997.92458  # Angstrom / fs

REL_STEP = 1e-6  # the package's default central-difference step, relative to E


def wavenumber(E):
    return np.sqrt(np.asarray(E, dtype=float) / C_KIN)


def velocity(k):
    return 2.0 * C_KIN * np.asarray(k, dtype=float) / HBAR


def decay(V0, E):
    return np.sqrt((np.asarray(V0, dtype=float) - np.asarray(E, dtype=float)) / C_KIN)


# ------------------------------------------------------- one rectangular barrier

def _rect_den(V0, a, E):
    k, kap = wavenumber(E), decay(V0, E)
    em = np.exp(-2.0 * kap * a)
    return (k**2 - kap**2) * -np.expm1(-2.0 * kap * a) + 2j * k * kap * (1.0 + em)


def rect_log_abs_AT(V0, a, E):
    """ln|A_T| of a rectangular barrier, 0 < E < V0, without forming A_T."""
    k, kap = wavenumber(E), decay(V0, E)
    return np.log(4.0 * k * kap) - np.log(np.abs(_rect_den(V0, a, E))) - kap * a


def rect_phase_time(V0, a, E, rel_step=REL_STEP):
    """Central difference of arg A_T + k a over (0, a), as phase_time takes it.

    arg A_T = pi/2 - arg(den) - k a; the k a term cancels against a/v up to
    O(h^2), and that remainder is evaluated without cancellation.
    """
    h = rel_step * E
    dphi = np.angle(_rect_den(V0, a, E + h) / _rect_den(V0, a, E - h))
    fd_dk = 2.0 * h / (math.sqrt(C_KIN) * (math.sqrt(E + h) + math.sqrt(E - h)))
    kinematic = a * (1.0 / float(velocity(wavenumber(E))) - HBAR * fd_dk / (2.0 * h))
    return float(-HBAR * dphi / (2.0 * h) + kinematic)


def rect_bl_time(V0, a, E, rel_step=REL_STEP):
    h = rel_step * E
    d = rect_log_abs_AT(V0, a, E + h) - rect_log_abs_AT(V0, a, E - h)
    return float(HBAR * abs(d) / (2.0 * h))


def hartman_plateau(V0, E):
    """Opaque-barrier phase time 2 / (v kappa)."""
    return float(2.0 / (velocity(wavenumber(E)) * decay(V0, E)))


def dwell_limit(V0, E):
    """Opaque-barrier stationary dwell hbar k / (kappa V0)."""
    return float(HBAR * wavenumber(E) / (decay(V0, E) * V0))


# ----------------------------------------------------- transfer-matrix oracle

def _regions(segments):
    regs = []
    for (x0, x1, v) in segments:
        if regs and x0 > regs[-1][1]:
            regs.append((regs[-1][1], x0, 0.0))
        regs.append((float(x0), float(x1), float(v)))
    return regs


def solve(segments, Es):
    """Unit-incidence A_T and the interior region coefficients over energies.

    Region j holds f_j e^{iq_j(x-x0_j)} + b_j e^{-iq_j(x-x0_j)}; returns
    (A_T, [(x0, x1, q, f, b), ...]) with arrays over energy.
    """
    Es = np.atleast_1d(np.asarray(Es, dtype=float))
    k = np.sqrt(Es / C_KIN).astype(complex)
    regs = _regions(segments)
    f, b, q_right = np.ones_like(k), np.zeros_like(k), k
    coeffs = []
    for (x0, x1, v) in reversed(regs):
        q = np.sqrt((Es - v + 0j) / C_KIN)
        psi, half = f + b, q_right * (f - b) / q
        grow = np.exp(1j * q * (x1 - x0))
        f, b = 0.5 * (psi + half) / grow, 0.5 * (psi - half) * grow
        coeffs.append((x0, x1, q, f, b))
        q_right = q
    psi, half = f + b, q_right * (f - b) / k
    F = 0.5 * (psi + half) * np.exp(-1j * k * regs[0][0])
    A_T = np.exp(-1j * k * regs[-1][1]) / F
    return A_T, [(x0, x1, q, f / F, b / F) for (x0, x1, q, f, b) in reversed(coeffs)]


def phase_time(segments, Es, x_i, x_f, rel_step=REL_STEP):
    """(x_f - x_i)/v + hbar d(arg A_T)/dE with phase_time's step rule: the
    step shrinks 100-fold wherever the phase moves by more than pi/2."""
    Es = np.atleast_1d(np.asarray(Es, dtype=float))
    out = np.empty(len(Es))
    todo = np.arange(len(Es))
    step = rel_step
    while len(todo):
        E = Es[todo]
        h = step * E
        dphi = np.angle(solve(segments, E + h)[0] / solve(segments, E - h)[0])
        ok = np.abs(dphi) <= 0.5 * math.pi
        tau = (x_f - x_i) / velocity(wavenumber(E)) + HBAR * dphi / (2.0 * h)
        out[todo[ok]] = tau[ok]
        todo = todo[~ok]
        step *= 0.01
        if step < 1e-15:
            out[todo] = np.nan
            break
    return out


def bl_time(segments, Es, rel_step=REL_STEP):
    Es = np.atleast_1d(np.asarray(Es, dtype=float))
    h = rel_step * Es
    hi = np.log(np.abs(solve(segments, Es + h)[0]))
    lo = np.log(np.abs(solve(segments, Es - h)[0]))
    return HBAR * np.abs(hi - lo) / (2.0 * h)


def _integral_exp(c, d):
    """integral_0^d e^{c s} ds for real c."""
    small = np.abs(c * d) < 1e-12
    safe = np.where(small, 1.0, c)
    return np.where(small, d, np.expm1(c * d) / safe)


def _integral_osc(c, d):
    """integral_0^d e^{i c s} ds for real c."""
    small = np.abs(c * d) < 1e-12
    safe = np.where(small, 1.0, c)
    return np.where(small, d + 0j, (np.exp(1j * c * d) - 1.0) / (1j * safe))


def dwell_time(segments, Es):
    """Stationary dwell over the whole structure: exact integral of |psi|^2
    region by region, divided by the incident velocity."""
    Es = np.atleast_1d(np.asarray(Es, dtype=float))
    _, regions = solve(segments, Es)
    total = np.zeros(len(Es))
    for (x0, x1, q, f, b) in regions:
        d = x1 - x0
        alpha, beta = q.imag, q.real
        total += (np.abs(f) ** 2 * _integral_exp(-2.0 * alpha, d)
                  + np.abs(b) ** 2 * _integral_exp(2.0 * alpha, d)
                  + 2.0 * np.real(f * np.conj(b) * _integral_osc(2.0 * beta, d)))
    return total / velocity(wavenumber(Es))


def transmitted_mean_time(segments, k, w, G, x):
    """<t_+(x)> of the transmitted packet at x past the last segment.

    For Psi = sum w G A_T e^{i(kx - Et/hbar)}, the first time moment of the
    flux equals the |G A_T|^2 dk average of hbar d(arg A_T)/dE + x/v, exactly
    in the continuum (Parseval in time).
    """
    E = C_KIN * k**2
    A_T = solve(segments, E)[0]
    tau = phase_time(segments, E, 0.0, x)
    wts = w * np.abs(G) ** 2 * np.abs(A_T) ** 2
    return float(np.dot(wts, tau) / np.sum(wts))


def packet_grid(k_bar, delta_k, n_k, span=12.0):
    """Nodes, weights and Gaussian weight of a default real-weight packet."""
    lo, hi = max(k_bar - span * delta_k, 1e-3 * k_bar), k_bar + span * delta_k
    x, w = np.polynomial.legendre.leggauss(int(n_k))
    k = 0.5 * (hi + lo) + 0.5 * (hi - lo) * x
    G = np.exp(-((k - k_bar) ** 2) / (2.0 * delta_k) ** 2)
    return k, 0.5 * (hi - lo) * w, G


def packet_phase_time(segments, k, w, G, x_i, x_f):
    """Phase time averaged with the v |G|^2 dE weight of energy_average."""
    tau = phase_time(segments, C_KIN * k**2, x_i, x_f)
    wts = w * velocity(k) ** 2 * np.abs(G) ** 2
    return float(np.dot(wts, tau) / np.sum(wts))
