"""Seeded inputs, operations and per-operation correctness checks.

A workload is a fixed list of operations ("ops") whose parameters are drawn
from the seed.  Every draw is stratified: a range is split into as many equal
bins as there are draws and each draw is jittered inside its own bin, so
that the amount of work in a pass barely depends on the seed while the
parameters still cover the whole range across seeds.

An op is one `tuntime.cli.main(["run", cfg, "--out", dir])` or one library
call.  Ops look tuntime's functions up as module attributes at call time, so
the tracing wrappers see every call.  Each op carries a check that runs
outside the timed region and returns a failure reason or None.
"""

from __future__ import annotations

import cmath
import contextlib
import csv
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass, field
from functools import cache, cached_property
from pathlib import Path
from typing import Callable

import numpy as np

import oracle

WORKLOADS = ("stationary-scan", "packet-family", "packet-dwell")

# tolerances, each the one the package's test suite uses for that quantity
REL_STATIONARY = 1e-6      # phase / BL / two-phase times vs an independent route
ABS_DWELL = 1e-9           # stationary dwell vs the closed form (fs)
REL_PLATEAU = 0.02         # Hartman plateau 2/(v kappa)
REL_DWELL_LIMIT = 0.01     # opaque dwell hbar k/(kappa V0)
REL_BL_LINEAR = 0.01       # BL linear-fit residual over its maximum
REL_TWO_BARRIER = 1e-3     # two-barrier total vs the opaque closed form
FORM_RESIDUAL = 1e-4       # dwell: space-time vs flux-moment form
RECON_RESIDUAL = 1e-3      # dwell decomposition closure
MEAN_TIME_WIDTHS = 1e-3    # packet mean times, in units of 1/(v delta_k)
OPAQUE_CHECK_FROM = 10.0   # kappa*a from which the opaque limits are checked

# kappa*a from which an opaque probe is known to fail at the commit that
# introduced the benchmark, where A_T underflows (ROADMAP item 4).  Measured
# over V0 in [4, 20] eV and E/V0 in [0.2, 0.6]: phase_time first fails
# between kappa a = 718.1 and 720.5 depending on E/V0, and the stationary
# dwell at 690.8 for every draw; bl_time never fails.  Every other probe
# failure is unexpected and sets `correct` to false.
KNOWN_FAILING_FROM = {"phase_time": 717.0, "dwell": 690.0}
# kappa*a bands the probes skip, each around a measured onset, so that every
# draw is either well below or well past it and the number of probes that
# fail is the same for every seed: (probes below, band, probes past)
PROBES = {"phase_time": (42, (715.0, 725.0), 6), "bl_time": (48, None, 0),
          "dwell": (14, (685.0, 695.0), 2)}
PROBE_KAPPA_A = (1.0, 2000.0)


class OpFailure(Exception):
    """An op raised, exited nonzero or returned a value the gate rejects."""


@dataclass
class Op:
    kind: str
    label: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    digest: Callable[[object], str]
    expected_failure: bool = False
    rows: Callable[[object], int] = field(default=lambda result: 0)


# ------------------------------------------------------------------ helpers

def strat(rng, lo, hi, n):
    """n draws, one jittered inside each of n equal bins of [lo, hi]."""
    edges = np.linspace(lo, hi, n + 1)
    return [float(x) for x in edges[:-1] + rng.uniform(0.0, 1.0, n) * np.diff(edges)]


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def _sha(*chunks) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(c if isinstance(c, bytes) else repr(c).encode())
    return h.hexdigest()[:16]


def _bad(got, ref, rel=0.0, abs_=0.0):
    """Failure text when got is not finite or misses ref by more than the
    larger of rel*|ref| and abs_; None otherwise."""
    if not (isinstance(got, (int, float)) and math.isfinite(got)):
        return f"non-finite value {got!r}"
    if abs(got - ref) > max(rel * abs(ref), abs_):
        return f"{got!r} vs reference {ref!r}"
    return None


def _first(*reasons):
    return next((r for r in reasons if r), None)


def _floats(row: dict, *keys):
    return [float(row[k]) for k in keys]


# ------------------------------------------------------------------ CLI ops

def _run_cli(cfg_path: Path, out_dir: Path):
    from tuntime import cli

    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = cli.main(["run", str(cfg_path), "--out", str(out_dir)])
    if rc != 0:
        raise OpFailure(f"exit code {rc}: {err.getvalue().strip()}")
    return out_dir


def _read_csv(out_dir: Path, name: str) -> list:
    with (out_dir / f"{name}.csv").open(newline="") as fh:
        return list(csv.DictReader(fh))


def _cli_digest(out_dir: Path) -> str:
    files = sorted(out_dir.glob("*.csv")) + [out_dir / "manifest.json"]
    return _sha(*(p.read_bytes() for p in files))


def _cli_rows(out_dir: Path) -> int:
    manifest = json.loads((out_dir / "manifest.json").read_text())
    return sum(o["rows"] for o in manifest["outputs"])


def cli_op(workdir: Path, name: str, cfg: dict, check_rows, label: str) -> Op:
    """One config through `tuntime run`; check_rows(rows) -> reason or None."""
    cfg_path = workdir / f"{name}.json"
    out_dir = workdir / f"{name}.out"
    cfg_path.write_text(json.dumps(cfg, indent=1, sort_keys=True))
    observable = cfg["observables"][0]

    def check(out):
        rows = _read_csv(out, observable)
        if not rows:
            return "no rows written"
        for row in rows:
            for flag in ("tail_captured", "on_resonance", "opaque_warning"):
                if row.get(flag) not in ("0", "1"):
                    return f"flag {flag}={row.get(flag)!r}"
        return check_rows(rows)

    return Op(kind=f"cli:{observable}", label=label,
              run=lambda: _run_cli(cfg_path, out_dir), check=check,
              digest=_cli_digest, rows=_cli_rows)


def _scan(param, lo, hi, steps):
    return {"parameter": param, "min": lo, "max": hi, "steps": steps}


def _scan_values(scan):
    return np.linspace(scan["min"], scan["max"], scan["steps"])


# -------------------------------------------------------- stationary checks

def _rect_row_checks(V0, a, E, tau_ph=None, tau_bl=None, tau_dw=None):
    kap_a = float(oracle.decay(V0, E)) * a
    reasons = []
    if tau_ph is not None:
        reasons.append(_bad(tau_ph, oracle.rect_phase_time(V0, a, E), REL_STATIONARY))
        if kap_a >= OPAQUE_CHECK_FROM:
            reasons.append(_bad(tau_ph, oracle.hartman_plateau(V0, E), REL_PLATEAU))
    if tau_bl is not None:
        reasons.append(_bad(tau_bl, oracle.rect_bl_time(V0, a, E), REL_STATIONARY))
    if tau_dw is not None:
        if kap_a < 300.0:
            ref = float(oracle.dwell_time(((0.0, a, V0),), E)[0])
            reasons.append(_bad(tau_dw, ref, REL_STATIONARY, ABS_DWELL))
        if kap_a >= OPAQUE_CHECK_FROM:
            reasons.append(_bad(tau_dw, oracle.dwell_limit(V0, E), REL_DWELL_LIMIT))
    reason = _first(*reasons)
    return f"V0={V0:.6g} a={a:.6g} E={E:.6g}: {reason}" if reason else None


def _check_hartman(V0, E):
    def check(rows):
        opaque_a, opaque_bl = [], []
        for row in rows:
            a, kap_a, ph, bl, dw = _floats(row, "a", "kappa_a", "tau_phase_fs",
                                           "tau_bl_fs", "tau_dwell_fs")
            reason = _first(
                _bad(kap_a, float(oracle.decay(V0, E)) * a, 1e-12),
                _rect_row_checks(V0, a, E, ph, bl, dw),
            )
            if reason:
                return reason
            if kap_a >= OPAQUE_CHECK_FROM:
                opaque_a.append(a)
                opaque_bl.append(bl)
        if len(opaque_a) >= 3:  # BL grows linearly in the width
            a_arr, bl_arr = np.array(opaque_a), np.array(opaque_bl)
            slope, icpt = np.polyfit(a_arr, bl_arr, 1)
            resid = np.max(np.abs(bl_arr - (slope * a_arr + icpt))) / np.max(bl_arr)
            if not resid < REL_BL_LINEAR:
                return f"BL not linear in a: fit residual {resid:.3e}"
        return None
    return check


def _check_rect_scan(pot, E0, scan, column, which):
    def check(rows):
        for row, v in zip(rows, _scan_values(scan)):
            V0, a, E = pot["V0"], pot["a"], E0
            if scan["parameter"] == "a":
                a = v
            elif scan["parameter"] == "E":
                E = v
            else:
                V0 = v
            value = float(row[column])
            reason = _rect_row_checks(V0, a, E, **{which: value})
            if reason:
                return reason
        return None if len(rows) == scan["steps"] else "row count"
    return check


def _check_segments_scan(segs, scan, column, which):
    def check(rows):
        Es = np.array([float(r["E_eV"]) for r in rows])
        got = np.array([float(r[column]) for r in rows])
        if which == "tau_ph":
            ref = oracle.phase_time(segs, Es, segs[0][0], segs[-1][1])
        elif which == "tau_bl":
            ref = oracle.bl_time(segs, Es)
        else:
            ref = oracle.dwell_time(segs, Es)
        for E, g, r in zip(Es, got, ref):
            reason = _bad(float(g), float(r), REL_STATIONARY)
            if reason:
                return f"{len(segs)} barriers, E={E:.6g}: {reason}"
        return None if len(rows) == scan["steps"] else "row count"
    return check


def _check_two_phase(V0, a):
    def check(rows):
        for row in rows:
            E, phi1, tau_ph, tau_z = _floats(row, "E_eV", "phi1_rad", "tau_phase_fs", "tau_z_fs")
            reason = _first(
                _bad(math.sin(phi1), math.exp(float(oracle.rect_log_abs_AT(V0, a, E))), 1e-9),
                _bad(tau_ph, oracle.rect_phase_time(V0, a, E), REL_STATIONARY),
                _bad(tau_z, oracle.rect_bl_time(V0, a, E), REL_STATIONARY),
            )
            if reason:
                return f"V0={V0:.6g} a={a:.6g} E={E:.6g}: {reason}"
        return None
    return check


def _check_double(V0, E):
    k, chi = float(oracle.wavenumber(E)), float(oracle.decay(V0, E))
    delta = cmath.phase((1j * k + chi) / (1j * k - chi))
    plateau = oracle.hartman_plateau(V0, E)

    def check(rows):
        for row in rows:
            a, gap, chi_a, tau, d_rad, im_ratio = _floats(
                row, "a", "L_minus_a", "chi_a", "tau_total_fs", "delta_rad", "A_im_over_abs")
            L = a + gap
            segs = ((0.0, a, V0), (L, L + a, V0))
            den = 2 * chi * k * math.cos(k * gap) + (chi**2 - k**2) * math.sin(k * gap)
            cavity = (2 * chi * k / den) ** 2 * math.exp(-2 * chi * a)
            reasons = [_bad(chi_a, chi * a, 1e-12),
                       _bad(tau, float(oracle.phase_time(segs, E, 0.0, L + a)[0]),
                            REL_STATIONARY)]
            if chi * a >= 5.0:
                reasons.append(_bad(d_rad, delta, 0.0, 1e-12))
            if chi * a >= OPAQUE_CHECK_FROM and cavity < 1e-6:
                reasons.append(None if im_ratio < 1e-8 else f"Im A / |A| = {im_ratio!r}")
                reasons.append(_bad(tau, plateau, REL_TWO_BARRIER))
            reason = _first(*reasons)
            if reason:
                return f"V0={V0:.6g} E={E:.6g} a={a:.6g} gap={gap:.6g}: {reason}"
        return None
    return check


def _check_waveguide(wg):
    lam_c = 2.0 * wg["a_cm"]  # TE10
    kappa = 2 * math.pi * math.sqrt(1 / lam_c**2 - 1 / wg["lambda_cm"] ** 2)
    c_cm = oracle.C_LIGHT / 1e8

    def check(rows):
        row = rows[0]
        lk, tau, v_ratio, mapped = _floats(row, "L_kappa", "tau_fs", "v_eff_over_c",
                                           "mapped_tau_fs")
        reason = _first(
            _bad(lk, wg["L_cm"] * kappa, 1e-12),
            _bad(tau, 2.0 / (c_cm * kappa), 1e-12),
            _bad(v_ratio, lk / 2.0, 1e-12),
            None if row["superluminal"] == str(int(lk > 2.0)) else "superluminal flag",
            _bad(mapped, tau, 0.05),
        )
        return f"waveguide {wg}: {reason}" if reason else None
    return check


@cache
def _resonance_peaks(V0, a, L, lo, hi, n=20001):
    """Interior maxima of the exact log T over [lo, hi] on a fine grid.

    The roots of the opaque-limit resonance denominator are no reference near
    the barrier top, where a predicted root need not be a transmission peak.
    """
    Es = np.linspace(lo, hi, n)
    logT = 2.0 * np.log(np.abs(oracle.solve(((0.0, a, V0), (L, L + a, V0)), Es)[0]))
    mid = logT[1:-1]
    return [float(E) for E in Es[1:-1][(mid > logT[:-2]) & (mid > logT[2:])]]


def _resonance_op(V0, a, L, E_range):
    def run():
        from tuntime import double_barrier
        return double_barrier.find_resonances(V0, a, L, E_range)

    def check(res):
        peaks = _resonance_peaks(V0, a, L, *E_range)  # cached after the first check
        if len(res) != len(peaks):
            return f"{len(res)} resonances, {len(peaks)} transmission peaks"
        for r, peak in zip(res, peaks):
            # symmetric barriers transmit fully on resonance; at an opaque
            # cavity's peak T itself is only good to ~eps e^{2 chi a}
            width = r.Gamma if r.Gamma is not None else 1e-6
            reason = _first(
                None if 0.99 < r.T_peak < 1.01 else f"peak transmission {r.T_peak!r}",
                None if abs(r.E_r - peak) < max(5 * width, 1e-3)
                else f"E_r={r.E_r!r} vs peak {peak!r}",
            )
            if reason:
                return reason
        return None

    label = (f"find_resonances V0={V0:.6g} a={a:.6g} L={L:.6g}"
             f" E_range=({E_range[0]:.6g}, {E_range[1]:.6g})")
    return Op(kind="lib:find_resonances", label=label, run=run, check=check,
              digest=lambda res: _sha([(r.E_r, r.Gamma, r.T_peak, r.resolved) for r in res]))


def _probe_op(fn, V0, r, kap_a):
    """Opaque-limit probe: one stationary time on a rectangular barrier at a
    chosen kappa*a.  Expected to fail only from KNOWN_FAILING_FROM on."""
    E = r * V0
    a = kap_a / float(oracle.decay(V0, E))

    def run():
        from tuntime import potential, stationary_times as st
        pot = potential.rectangular(V0, a)
        if fn == "phase_time":
            return st.phase_time(pot, E)
        if fn == "bl_time":
            return st.bl_time(pot, E)
        return st.dwell_time_stationary(pot, E, potential.RegionMarkers(0.0, a))

    which = {"phase_time": "tau_ph", "bl_time": "tau_bl"}.get(fn, "tau_dw")
    label = f"{fn} V0={V0:.6g} E={E:.6g} a={a:.6g} (kappa a={kap_a:.4g})"
    return Op(kind=f"probe:{fn}", label=label, run=run,
              check=lambda val: _rect_row_checks(V0, a, E, **{which: float(val)}),
              digest=_sha, expected_failure=kap_a >= KNOWN_FAILING_FROM.get(fn, math.inf))


def stationary_scan(rng, workdir: Path, small: bool) -> list:
    ops = []
    steps = 3 if small else 12

    # hartman-scan on single rectangular barriers
    n = 1 if small else 4
    for i, (V0, r) in enumerate(zip(strat(rng, 4, 20, n), strat(rng, 0.2, 0.6, n)[::-1])):
        a_lo, a_hi = rng.uniform(1, 3), rng.uniform(10, 15)
        cfg = {"potential": {"kind": "rectangular", "V0": V0, "a": a_lo},
               "energy": r * V0, "scan": _scan("a", a_lo, a_hi, steps),
               "observables": ["hartman-scan"]}
        ops.append(cli_op(workdir, f"hartman{i}", cfg, _check_hartman(V0, r * V0),
                          f"hartman-scan V0={V0:.6g} E={r * V0:.6g} a={a_lo:.4g}..{a_hi:.4g}"))

    # phase-time / bl-time / dwell over a, E and V0 on rectangular barriers
    steps = 3 if small else 6
    kinds = (("phase-time", "phase_time_fs", "tau_ph"), ("bl-time", "bl_time_fs", "tau_bl"),
             ("dwell", "dwell_fs", "tau_dw"))
    params = ("a",) if small else ("a", "E", "V0")
    for obs, column, which in kinds:
        for param in params:
            V0, r, a = rng.uniform(4, 20), rng.uniform(0.2, 0.6), rng.uniform(1, 15)
            E = r * V0
            if param == "a":
                scan = _scan("a", rng.uniform(1, 4), rng.uniform(8, 15), steps)
            elif param == "E":
                scan = _scan("E", 0.2 * V0 * rng.uniform(1.0, 1.2), 0.6 * V0 * rng.uniform(0.85, 1.0), steps)
            else:
                E = rng.uniform(2.4, 4.0)
                scan = _scan("V0", max(4.0, E / 0.6) * rng.uniform(1.0, 1.1),
                             min(20.0, E / 0.2) * rng.uniform(0.9, 1.0), steps)
            pot = {"kind": "rectangular", "V0": V0, "a": a}
            cfg = {"potential": pot, "energy": E, "scan": scan, "observables": [obs]}
            ops.append(cli_op(workdir, f"{obs}-{param}", cfg,
                              _check_rect_scan(pot, E, scan, column, which),
                              f"{obs} rect V0={V0:.6g} a={a:.6g} E={E:.6g} scan {param}"
                              f" {scan['min']:.4g}..{scan['max']:.4g}"))

    # two-phase over energy
    for i in range(1 if small else 2):
        V0, a = rng.uniform(4, 20), rng.uniform(1, 15)
        scan = _scan("E", 0.2 * V0 * rng.uniform(1.0, 1.2), 0.6 * V0 * rng.uniform(0.85, 1.0), steps)
        cfg = {"potential": {"kind": "rectangular", "V0": V0, "a": a}, "energy": 0.4 * V0,
               "scan": scan, "observables": ["two-phase"]}
        ops.append(cli_op(workdir, f"two-phase{i}", cfg, _check_two_phase(V0, a),
                          f"two-phase V0={V0:.6g} a={a:.6g} E {scan['min']:.4g}..{scan['max']:.4g}"))

    # double-barrier-scan over width x gap
    for i in range(1 if small else 2):
        V0, r = rng.uniform(4, 20), rng.uniform(0.2, 0.6)
        a_lo, g_lo = rng.uniform(2, 5), rng.uniform(4, 8)
        cfg = {"potential": {"kind": "rectangular", "V0": V0, "a": a_lo}, "energy": r * V0,
               "scan": _scan("a", a_lo, a_lo + rng.uniform(5, 10), 3),
               "scan2": _scan("L_minus_a", g_lo, g_lo + rng.uniform(5, 12), 3),
               "observables": ["double-barrier-scan"]}
        ops.append(cli_op(workdir, f"double{i}", cfg, _check_double(V0, r * V0),
                          f"double-barrier-scan V0={V0:.6g} E={r * V0:.6g}"))

    # E-scans on superlattices of 2 to 40 barriers
    counts = (2, 40) if small else (2, 5, 10, 20, 40)
    for obs, column, which in kinds:
        for nb in counts:
            V, w, g = rng.uniform(4, 12), rng.uniform(1, 3), rng.uniform(2, 6)
            segs = tuple((i * (w + g), i * (w + g) + w, V) for i in range(nb))
            scan = _scan("E", 0.2 * V * rng.uniform(1.0, 1.2), 0.6 * V * rng.uniform(0.85, 1.0), 2)
            cfg = {"potential": {"kind": "segments", "segments": [list(s) for s in segs]},
                   "energy": 0.4 * V, "scan": scan, "observables": [obs]}
            ops.append(cli_op(workdir, f"{obs}-sl{nb}", cfg,
                              _check_segments_scan(segs, scan, column, which),
                              f"{obs} superlattice n={nb} V={V:.6g} w={w:.4g} gap={g:.4g}"))

    # one evanescent waveguide, L kappa in the opaque comfort zone
    a_cm = rng.uniform(1.5, 3.0)
    lam = 2 * a_cm * rng.uniform(1.3, 2.5)
    kappa = 2 * math.pi * math.sqrt(1 / (2 * a_cm) ** 2 - 1 / lam**2)
    wg = {"a_cm": a_cm, "b_cm": 2 * a_cm, "m": 1, "n": 0,
          "L_cm": rng.uniform(8, 30) / kappa, "lambda_cm": lam}
    ops.append(cli_op(workdir, "waveguide", {"observables": ["waveguide"], "waveguide": wg},
                      _check_waveguide(wg), f"waveguide {wg}"))

    # find_resonances on double barriers, each window holding the two highest
    # transmission peaks below 0.98 V0, whose search cost depends least on
    # the draw
    for V0 in strat(rng, 6, 14, 1 if small else 3):
        a = rng.uniform(4, 6)
        L = a + rng.uniform(8, 12)
        peaks = _resonance_peaks(V0, a, L, 0.02 * V0, 0.98 * V0)
        lo = peaks[-3] if len(peaks) > 2 else 0.01 * V0
        E_range = (0.5 * (lo + peaks[-2]), 0.5 * (peaks[-1] + 0.99 * V0))
        ops.append(_resonance_op(V0, a, L, E_range))

    # opaque probes, kappa*a log-stratified over [1, 2000] below and past
    # each onset band, V0 and E/V0 stratified and shuffled; the cheap phase and BL probes outnumber the rest, so
    # the median op is one of them and op_p50_ms on this workload is the
    # latency of a direct library call
    lo, hi = (math.log(x) for x in PROBE_KAPPA_A)
    for fn, (n_below, band, n_past) in PROBES.items():
        if small:
            n_below, n_past = (1, 1) if band else (2, 0)
        n = n_below + n_past
        lkas = (strat(rng, lo, math.log(band[0]), n_below)
                + strat(rng, math.log(band[1]), hi, n_past)) if band else strat(rng, lo, hi, n)
        V0s, rs = rng.permutation(strat(rng, 4, 20, n)), rng.permutation(strat(rng, 0.2, 0.6, n))
        for V0, r, lka in zip(V0s, rs, lkas):
            ops.append(_probe_op(fn, V0, r, math.exp(lka)))
    return ops


# ---------------------------------------------------------------- packets

def _mean_time_tol(k_bar, delta_k):
    return MEAN_TIME_WIDTHS / (float(oracle.velocity(k_bar)) * delta_k)


def _check_or_times(V0, n_k):
    def check(rows):
        for row in rows:
            E_bar, dk, a, t0, ta, tun, ph_avg = _floats(
                row, "E_bar_eV", "delta_k", "a", "t_plus_0_fs", "t_plus_a_fs",
                "tau_tun_fs", "tau_phase_avg_fs")
            k_bar = float(oracle.wavenumber(E_bar))
            k, w, G = oracle.packet_grid(k_bar, dk, n_k)
            segs = ((0.0, a, V0),)
            reason = _first(
                None if row["tail_captured"] == "1" else "flux tail not captured",
                _bad(tun, ta - t0, 0.0, 1e-12 * max(abs(ta), abs(t0), 1.0)),
                _bad(ta, oracle.transmitted_mean_time(segs, k, w, G, a), 0.0,
                     _mean_time_tol(k_bar, dk)),
                _bad(ph_avg, oracle.packet_phase_time(segs, k, w, G, 0.0, a), REL_STATIONARY),
            )
            if reason:
                return f"V0={V0:.6g} E_bar={E_bar:.6g} delta_k={dk:.6g} n_k={n_k} a={a:.6g}: {reason}"
        return None
    return check


def packet_family(rng, workdir: Path, small: bool) -> list:
    ops = []
    per = 1 if small else 3
    for n_k in ((128,) if small else (128, 256, 512)):
        V0s, rs, dks = strat(rng, 5, 15, per), strat(rng, 0.25, 0.75, per), strat(rng, 0.02, 0.06, per)
        for i, (V0, r, dk) in enumerate(zip(V0s, rs[::-1], dks[1:] + dks[:1])):
            a_lo, a_hi = rng.uniform(3, 4), rng.uniform(6, 7)
            cfg = {"potential": {"kind": "rectangular", "V0": V0, "a": a_lo},
                   "packets": [{"E_bar": r * V0, "delta_k": dk, "n_k": n_k}],
                   "scan": _scan("a", a_lo, a_hi, 2), "observables": ["or-times"],
                   "workers": nproc()}
            ops.append(cli_op(workdir, f"or-times-{n_k}-{i}", cfg, _check_or_times(V0, n_k),
                              f"or-times V0={V0:.6g} E_bar={r * V0:.6g} delta_k={dk:.6g}"
                              f" n_k={n_k} a={a_lo:.4g},{a_hi:.4g}"))
    return ops


def _report_digest(rep) -> str:
    return _sha(rep.mean, rep.variance, rep.mean_square, sorted(rep.components.items()))


def _report_sane(rep):
    return _first(
        None if math.isfinite(rep.mean) else f"non-finite duration {rep.mean!r}",
        None if rep.variance >= 0.0 else f"negative variance {rep.variance!r}",
        _bad(rep.mean_square, rep.mean**2 + rep.variance, 1e-12),
    )


class Scenario:
    """One barrier and packet; the tuntime objects are rebuilt at the start
    of every pass so each pass builds its own cached Propagator."""

    def __init__(self, V0, a, E_bar, delta_k, n_k):
        self.V0, self.a, self.E_bar, self.delta_k, self.n_k = V0, a, E_bar, delta_k, n_k
        self.k_bar = float(oracle.wavenumber(E_bar))
        self.pot = self.packet = None

    @cached_property
    def grid(self):  # the reference's quadrature, built at the first check
        return oracle.packet_grid(self.k_bar, self.delta_k, self.n_k)

    def reset(self):
        from tuntime import potential, wavepacket
        self.pot = potential.rectangular(self.V0, self.a)
        self.packet = wavepacket.gaussian_packet(self.k_bar, self.delta_k, n_k=self.n_k)

    def transmitted_mean(self, x):
        return oracle.transmitted_mean_time(((0.0, self.a, self.V0),), *self.grid, x)

    def __str__(self):
        return (f"V0={self.V0:.6g} a={self.a:.6g} E_bar={self.E_bar:.6g}"
                f" delta_k={self.delta_k:.6g} n_k={self.n_k}")


def _dwell_ops(sc: Scenario, x_i, x_f) -> list:
    def dwell():
        from tuntime import flux_times, potential
        return flux_times.dwell(sc.pot, sc.packet, potential.RegionMarkers(x_i, x_f))

    def decomposition():
        from tuntime import flux_times, potential
        return flux_times.dwell_decomposition(sc.pot, sc.packet, potential.RegionMarkers(x_i, x_f))

    def check_dwell(rep):
        c = rep.components
        return _first(_report_sane(rep),
                      None if rep.mean > 0 else f"dwell {rep.mean!r}",
                      None if c["form_residual"] < FORM_RESIDUAL
                      else f"form residual {c['form_residual']!r}")

    def check_decomposition(rep):
        resid = rep.components["reconstruction_residual"]
        return _first(_report_sane(rep),
                      None if resid < RECON_RESIDUAL else f"reconstruction residual {resid!r}")

    where = f"{sc} markers=({x_i:.4g}, {x_f:.4g})"
    return [Op("lib:dwell", f"dwell {where}", dwell, check_dwell, _report_digest),
            Op("lib:dwell_decomposition", f"dwell_decomposition {where}", decomposition,
               check_decomposition, _report_digest)]


def _duration_op(sc: Scenario, kind, x_i=None, x_f=None) -> Op:
    def run():
        from tuntime import flux_times, potential
        markers = None if x_i is None else potential.RegionMarkers(x_i, x_f)
        return flux_times.duration(sc.pot, sc.packet, kind, markers)

    def check(rep):
        reasons = [_report_sane(rep)]
        if kind == "reflection":
            reasons.append(None if rep.mean > 0 else f"reflection duration {rep.mean!r}")
        else:  # the exit instant is that of a free transmitted packet
            x = sc.a if x_f is None else x_f
            reasons.append(_bad(rep.components["t_+(x_f)"], sc.transmitted_mean(x), 0.0,
                                _mean_time_tol(sc.k_bar, sc.delta_k)))
        return _first(*reasons)

    where = "" if x_i is None else f" markers=({x_i:.4g}, {x_f:.4g})"
    return Op(f"lib:duration.{kind}", f"duration {kind} {sc}{where}", run, check, _report_digest)


def _check_causality(rows):
    """The integral and effective-instant conditions must hold; the delay
    predicate may legitimately fail or not apply, but its verdict must agree
    with the sign of its margin."""
    by_variant = {row["variant"]: row for row in rows}
    for variant in ("integral", "delay", "effective"):
        row = by_variant.get(variant)
        if row is None:
            return f"no {variant} row"
        passed, margin = row["passed"], float(row["margin_fs"])
        if variant != "delay" and passed != "1":
            return f"{variant} causality failed: margin {margin!r} fs"
        consistent = {"1": margin >= -1e-9, "0": margin < 0, "-1": math.isnan(margin)}
        if not consistent.get(passed, False):
            return f"{variant}: passed={passed} disagrees with margin {margin!r} fs"
    return None


def packet_dwell(rng, workdir: Path, small: bool) -> tuple:
    """One scenario per n_k.  Each n_k slot draws every parameter from its own
    third of the range (a fixed assignment), so the costly n_k = 512 slot
    costs about the same for every seed while the three slots together
    cover every range."""
    ops, scenarios = [], []
    thirds = {"V0": (2, 0, 1), "r": (0, 2, 1), "dk": (1, 2, 0), "a": (0, 1, 2)}
    ranges = {"V0": (5, 15), "r": (0.25, 0.75), "dk": (0.02, 0.06), "a": (3, 7)}

    def draw(name, slot):
        lo, hi = ranges[name]
        third = (hi - lo) / 3.0
        return lo + third * (thirds[name][slot] + rng.uniform(0.0, 1.0))

    for i, n_k in enumerate((128,) if small else (128, 256, 512)):
        V0, r, dk, a = (draw(name, i) for name in ("V0", "r", "dk", "a"))
        sc = Scenario(V0, a, r * V0, dk, n_k)
        scenarios.append(sc)
        ops += _dwell_ops(sc, rng.uniform(-27, -23), a + rng.uniform(23, 27))
        ops.append(_duration_op(sc, "tunnelling"))
        ops.append(_duration_op(sc, "transmission", rng.uniform(-22, -18), a + rng.uniform(18, 22)))
        x_u = rng.uniform(-25, -20)
        ops.append(_duration_op(sc, "reflection", x_u, x_u))
        cfg = {"potential": {"kind": "rectangular", "V0": V0, "a": a},
               "packet": {"E_bar": r * V0, "delta_k": dk, "n_k": n_k},
               "markers": {"x_i": -30.0, "x_f": a + rng.uniform(0, 5)},
               "observables": ["causality"]}
        ops.append(cli_op(workdir, f"causality{i}", cfg, _check_causality, f"causality {sc}"))
    return ops, scenarios


def build(workload: str, seed: int, workdir: Path, small: bool = False):
    """(ops, reset): the workload's ops and the hook run before every pass."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    workdir.mkdir(parents=True, exist_ok=True)
    if workload == "stationary-scan":
        return stationary_scan(rng, workdir, small), lambda: None
    if workload == "packet-family":
        return packet_family(rng, workdir, small), lambda: None
    ops, scenarios = packet_dwell(rng, workdir, small)

    def reset():
        for sc in scenarios:
            sc.reset()
    return ops, reset
