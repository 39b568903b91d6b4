"""Scenario runner: declarative JSON config in, CSV tables plus a manifest out.

Numbers in the config are eV, Angstrom and fs; waveguide blocks are cm.  One
CSV per requested observable; every row carries the diagnostic flag columns
(tail_captured, on_resonance, opaque_warning) so downstream plotting can
filter; tail_captured is 1 on every row, since a flux series that misses its
tail fails the observable.  Outputs are deterministic for a fixed config; the
wall-clock data lives in a separate run_info.json so the CSVs and manifest
stay byte-stable.
A scan is one call per stationary time: a phase-time, bl-time, dwell or
two-phase scan over E on the array of its energies, and a width or height
scan (a or V0, hartman-scan, double-barrier-scan) on the family of its
potentials; the `workers` key is accepted and echoed in the manifest but
selects nothing.

Exit codes: 0 success (possibly with warnings), 1 config error, 2 numerical
failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import math
import sys
import time
import warnings
from pathlib import Path

import numpy as np

from . import emguide
from .core import OPACITY_HARD_FLOOR, OPACITY_WARN_BELOW, UNITS, ContractViolation
from .double_barrier import OpacityWarning, on_resonance, opaque_coefficients
from .flux_times import DWELL_FORM_TOL, causality_check, mean_time
from .potential import PiecewisePotential, RegionMarkers, double_rectangular, rectangular
from .scattering import SolutionTable, two_phase
from .stationary_times import bl_time, dwell_time_stationary, phase_time, two_phase_times
from .wavepacket import _CACHE, MIN_N_K, TAIL_TOL, gaussian_packet, propagator


class ConfigError(ValueError):
    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


_DEFAULTS = {
    "potential": {"kind": "rectangular", "V0": 10.0, "a": 5.0},
    "packet": {"E_bar": 5.0, "delta_k": 0.02, "n_k": 512, "cutoff": False,
               "standoff": 0.0},
    "energy": 5.0,
    "scan": {"parameter": "a", "min": 1.0, "max": 12.0, "steps": 23},
    "workers": 1,
    "output_dir": "tuntime-out",
}

# the parameters a scan may vary on each potential kind, so that every row
# sees its own value; the width scans build rectangular barriers and vary 'a'
_SCANNABLE = {"rectangular": {"a", "E", "V0"}, "double": {"E", "V0"}, "segments": {"E"}}
_WIDTH_SCANS = ("hartman-scan", "or-times", "double-barrier-scan")


def _fail(path: str, message: str):
    raise ConfigError(path, message)


def _object(path: str, value) -> dict:
    """value, refused as a config error on path unless it is a JSON object."""
    if not isinstance(value, dict):
        _fail(path, "must be a JSON object")
    return value


def _is_number(value, kind=(int, float)) -> bool:
    """True for a finite JSON number of the given kind; a bool is not one,
    nor are the NaN and Infinity that Python's json module reads."""
    return (isinstance(value, kind) and not isinstance(value, bool)
            and (isinstance(value, int) or math.isfinite(value)))


def load_config(config_path: str) -> dict:
    p = Path(config_path)
    if not p.exists():
        _fail(str(config_path), "config file does not exist")
    try:
        raw = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        _fail(str(config_path), f"not valid JSON ({exc})")
    if not isinstance(raw, dict):
        _fail("<root>", "config must be a JSON object")
    return raw


def resolve(raw: dict) -> dict:
    """Fill defaults and validate; returns the fully resolved config."""
    cfg = {}
    known = {"potential", "packet", "packets", "markers", "energy", "scan",
             "scan2", "observables", "waveguide", "workers", "output_dir"}
    for key in raw:
        if key not in known:
            _fail(key, "unknown configuration key")

    obs = raw.get("observables")
    if not (isinstance(obs, list) and obs):
        _fail("observables", f"a non-empty list, required; choose from {sorted(OBSERVABLES)}")
    for i, name in enumerate(obs):
        if not (isinstance(name, str) and name in OBSERVABLES):
            _fail(f"observables[{i}]", f"unknown observable {name!r}")
    cfg["observables"] = list(obs)

    pot_raw = dict(_object("potential", raw.get("potential", {})))
    kind = pot_raw.setdefault("kind", _DEFAULTS["potential"]["kind"])
    if kind == "rectangular":
        pot_raw = {**_DEFAULTS["potential"], **pot_raw}  # only this kind takes the default V0, a
        for key in ("V0", "a"):
            if not _is_number(pot_raw.get(key)) or pot_raw[key] <= 0:
                _fail(f"potential.{key}", "must be a positive number")
    elif kind == "double":
        for key in ("V0", "a", "L"):
            if not _is_number(pot_raw.get(key)):
                _fail(f"potential.{key}", "required for kind 'double'")
        if pot_raw["L"] < pot_raw["a"]:
            _fail("potential.L", "need L >= a")
    elif kind == "segments":
        segs = pot_raw.get("segments")
        if not (isinstance(segs, list) and segs and all(
                isinstance(seg, list) and len(seg) == 3
                and all(_is_number(v) for v in seg) for seg in segs)):
            _fail("potential.segments", "must be a non-empty list of [x0, x1, V]")
    else:
        _fail("potential.kind", "one of 'rectangular', 'double', 'segments'")
    pot = _built("potential", _build_potential, pot_raw)
    own = [name for name in _WIDTH_SCANS if name in obs]
    if own and kind != "rectangular":  # these build their own barriers from potential.V0
        _fail("potential.kind", f"{', '.join(own)} needs kind 'rectangular', not {kind!r}")
    if "two-phase" in obs and kind == "double":
        _fail("potential.kind", "two-phase needs a single barrier, not kind 'double'")
    if "two-phase" in obs and kind == "segments" and len(pot_raw["segments"]) != 1:
        _fail("potential.segments", "two-phase needs a single barrier")
    cfg["potential"] = pot_raw

    if "packet" in raw or "packets" in raw or {"or-times", "causality"} & set(obs):
        packets = raw.get("packets")
        if packets is None:
            packets = [_object("packet", raw.get("packet", {}))]
        elif not (isinstance(packets, list) and packets):
            _fail("packets", "must be a non-empty list of packet objects")
        cfg["packets"] = [_resolve_packet(f"packets[{i}]", p, pot.max_height)
                          for i, p in enumerate(packets)]

    cfg["energy"] = raw.get("energy", _DEFAULTS["energy"])
    if not (_is_number(cfg["energy"]) and cfg["energy"] > 0):
        _fail("energy", "must be a positive number")
    below = [name for name in ("hartman-scan", "double-barrier-scan") if name in obs]
    if below and not cfg["energy"] < pot_raw["V0"]:  # no kappa, no BL time
        _fail("energy", f"{below[0]} needs an energy below the barrier, V0 = {pot_raw['V0']!r}")

    readers = [name for name in obs if name not in ("causality", "waveguide")]
    allowed = {"a"} if own else _SCANNABLE[kind] if readers else {"a", "E", "V0", "L_minus_a"}
    cfg["scan"] = _resolve_scan("scan", raw.get("scan", _DEFAULTS["scan"]), allowed,
                                f"{', '.join(readers) or 'a scan'} on kind {kind!r}")
    if "scan2" in raw:
        cfg["scan2"] = _resolve_scan("scan2", raw["scan2"], {"L_minus_a"}, "the second axis")
    for name in ("bl-time", "two-phase"):
        if name in obs:
            _check_sub_barrier(name, cfg["scan"], cfg["energy"], pot.max_height)

    if "markers" in raw:
        m = _object("markers", raw["markers"])
        for key in ("x_i", "x_f"):
            if not _is_number(m.get(key)):
                _fail(f"markers.{key}", "a number, required when markers are given")
        cfg["markers"] = {"x_i": float(m["x_i"]), "x_f": float(m["x_f"])}
        _built("markers.x_i", lambda m: RegionMarkers(**m), cfg["markers"])
        if "causality" in obs and m["x_f"] < pot.x_right:
            _fail("markers.x_f", f"causality needs x_f at or past the right edge {pot.x_right!r}")

    if "waveguide" in raw or "waveguide" in cfg["observables"]:
        wg = raw.get("waveguide")
        if "waveguide" in cfg["observables"] and wg is None:
            _fail("waveguide", "observable 'waveguide' needs a waveguide block")
        if wg is not None:
            _object("waveguide", wg)
            for key in ("a_cm", "b_cm", "L_cm", "lambda_cm"):
                if not _is_number(wg.get(key)):
                    _fail(f"waveguide.{key}", "a number, required")
            for key in ("m", "n"):  # mode indices
                if not _is_number(wg.get(key), int):
                    _fail(f"waveguide.{key}", "an integer, required")
            spec = _built("waveguide", _waveguide_spec, wg)
            branch = emguide.propagation_constant(spec)
            if branch.evanescent and spec.L * branch.kappa_em < OPACITY_HARD_FLOOR:
                _fail("waveguide.L_cm", f"L kappa_em = {spec.L * branch.kappa_em:.3g} is below "
                                        f"{OPACITY_HARD_FLOOR}, the opaque-guide formula's floor")
            cfg["waveguide"] = wg

    cfg["workers"] = raw.get("workers", _DEFAULTS["workers"])
    if not (_is_number(cfg["workers"], int) and cfg["workers"] >= 1):
        _fail("workers", "must be an integer >= 1")
    cfg["output_dir"] = str(raw.get("output_dir", _DEFAULTS["output_dir"]))
    return cfg


def _check_sub_barrier(name: str, scan: dict, energy: float, top: float):
    """bl-time and two-phase exist only below the barrier top: refuse a
    config whose highest energy reaches the lowest barrier top it runs, on
    the field that sets either one.  two-phase runs E over [0.5, 1.5] x
    energy unless it scans E, and never scans V0."""
    if scan["parameter"] == "E":
        field, E_max, V_min = "scan.max", scan["max"], top
    elif scan["parameter"] == "V0" and name == "bl-time":
        field, E_max, V_min = "scan.min", energy, scan["min"]
    else:
        field, E_max, V_min = "energy", energy * (1.5 if name == "two-phase" else 1.0), top
    if not E_max < V_min:
        _fail(field, f"{name} needs energies below the barrier: E up to {E_max!r} "
                     f"reaches a barrier of {V_min!r}")


def _resolve_packet(path: str, p: dict, top: float) -> dict:
    p = {**_DEFAULTS["packet"], **_object(path, p)}
    if "k_bar" in p:
        if not (_is_number(p["k_bar"]) and p["k_bar"] > 0):
            _fail(f"{path}.k_bar", "must be a positive number (1/Angstrom)")
        k_bar = float(p["k_bar"])
    else:
        E_bar = p.get("E_bar")
        if not _is_number(E_bar) or E_bar <= 0:
            _fail(f"{path}.E_bar", "positive E_bar (eV) or k_bar (1/Angstrom) required")
        k_bar = float(UNITS.wavenumber(E_bar))
    delta_k = p.get("delta_k")
    if not _is_number(delta_k) or delta_k <= 0:
        _fail(f"{path}.delta_k", "must be a positive number (1/Angstrom)")
    if not k_bar > 6 * delta_k:
        _fail(f"{path}.delta_k", f"needs k_bar > 6 delta_k (k_bar = {k_bar:.4f})")
    if p.get("cutoff") and UNITS.energy(k_bar) >= top:
        _fail(f"{path}.cutoff", "sub-barrier cutoff with mean energy above the barrier")
    if not (_is_number(p["n_k"], int) and p["n_k"] >= MIN_N_K):
        _fail(f"{path}.n_k", f"must be an integer >= {MIN_N_K}")
    if not _is_number(p["standoff"]):
        _fail(f"{path}.standoff", "must be a number (Angstrom)")
    return {"k_bar": k_bar, "delta_k": float(delta_k), "n_k": p["n_k"],
            "cutoff": bool(p.get("cutoff", False)), "standoff": float(p["standoff"]),
            "E_bar": float(UNITS.energy(k_bar))}


def _resolve_scan(path: str, s: dict, allowed: set, why: str) -> dict:
    param = _object(path, s).get("parameter")
    if param not in allowed:
        _fail(f"{path}.parameter", f"must be one of {sorted(allowed)} for {why}")
    lo, hi, steps = s.get("min"), s.get("max"), s.get("steps")
    if not (_is_number(lo) and _is_number(hi) and _is_number(steps, int)):
        _fail(f"{path}", "needs numeric min, max and integer steps")
    if not hi > lo:
        _fail(f"{path}.max", "must exceed min")
    if steps < 2:
        _fail(f"{path}.steps", "must be >= 2")
    if param == "L_minus_a" and lo < 0:
        _fail(f"{path}.min", "a gap L - a must be >= 0")
    if param != "L_minus_a" and not lo > 0:
        _fail(f"{path}.min", f"{param} must be positive on every row")
    return {"parameter": param, "min": float(lo), "max": float(hi), "steps": steps}


def _built(path: str, build, cfg: dict):
    """build(cfg), its ContractViolation refused as a config error on path."""
    try:
        return build(cfg)
    except ContractViolation as exc:
        _fail(path, str(exc))


def _waveguide_spec(wg: dict) -> emguide.WaveguideSpec:
    return emguide.WaveguideSpec(a=wg["a_cm"], b=wg["b_cm"], m=wg["m"], n=wg["n"],
                                 L=wg["L_cm"], lam=wg["lambda_cm"])


def _build_potential(pot: dict) -> PiecewisePotential:
    kind = pot["kind"]
    if kind == "rectangular":
        return rectangular(pot["V0"], pot["a"])
    if kind == "double":
        return double_rectangular(pot["V0"], pot["a"], pot["L"])
    return PiecewisePotential(tuple(tuple(s) for s in pot["segments"]))


def _build_packet(p: dict, top: float):
    """The packet of p, cut to the band below the barrier top when p asks."""
    cutoff = top if p["cutoff"] else None
    return gaussian_packet(p["k_bar"], p["delta_k"], n_k=p["n_k"], cutoff=cutoff,
                           x0=-abs(p["standoff"]) if p["standoff"] else 0.0)


def _scan_values(scan: dict) -> np.ndarray:
    return np.linspace(scan["min"], scan["max"], scan["steps"])


FLAGS = ("tail_captured", "on_resonance", "opaque_warning")
_OK_FLAGS = {"tail_captured": 1, "on_resonance": 0, "opaque_warning": 0}


def _fmt(value) -> str:
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(path: Path, header: list, rows: list):
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


# ---------------------------------------------------------------- observables

def _obs_stationary(cfg: dict, which: str):
    """phase-time / bl-time / dwell over the scan axis at fixed parameters.

    A scan is one call: an energy scan on the array of its energies, an a or
    V0 scan on the family of its potentials, so one table per
    central-difference round serves every row."""
    scan = cfg["scan"]
    E0 = cfg["energy"]
    pot_cfg = cfg["potential"]

    def evaluate(pot, E, markers):
        if which == "phase-time":
            return phase_time(pot, E)
        if which == "bl-time":
            return bl_time(pot, E)
        return dwell_time_stationary(pot, E, markers)

    header = [scan["parameter"], "E_eV", f"{which.replace('-', '_')}_fs", *FLAGS]
    values = _scan_values(scan)
    if scan["parameter"] == "E":
        pot = _build_potential(pot_cfg)
        taus = evaluate(pot, values, RegionMarkers(pot.x_left, pot.x_right))
        return header, [[E, E, tau, *_OK_FLAGS.values()] for E, tau in zip(values, taus)]
    pots = [_build_potential({**pot_cfg, scan["parameter"]: v}) for v in values]
    taus = evaluate(pots, E0, [RegionMarkers(p.x_left, p.x_right) for p in pots])
    return header, [[v, E0, tau, *_OK_FLAGS.values()] for v, tau in zip(values, taus)]


def _obs_two_phase(cfg: dict):
    """Two-phase angles and times over an E scan (around the configured energy
    when the scan axis is another parameter), from one table and one
    two_phase_times call on the array of its energies."""
    scan = cfg["scan"]
    if scan["parameter"] != "E":
        scan = {"parameter": "E", "min": 0.5 * cfg["energy"], "max": 1.5 * cfg["energy"],
                "steps": scan["steps"]}
    pot = _build_potential(cfg["potential"])
    Es = _scan_values(scan)
    tp = two_phase(SolutionTable(pot, Es))
    tau_ph, tau_z = two_phase_times(pot, Es)
    header = ["E_eV", "phi1_rad", "phi2_rad", "tau_phase_fs", "tau_z_fs", *FLAGS]
    return header, [[*row, *_OK_FLAGS.values()]
                    for row in zip(Es, tp.phi1, tp.phi2, tau_ph, tau_z)]


def _obs_hartman(cfg: dict):
    """Phase, BL and dwell times over the width scan: one call each on the
    family of its barriers."""
    E = cfg["energy"]
    V0 = cfg["potential"]["V0"]
    kappa = float(UNITS.decay_constant(V0, E))
    widths = _scan_values(cfg["scan"])
    pots = [rectangular(V0, a) for a in widths]
    tau_ph = phase_time(pots, E)
    tau_bl = bl_time(pots, E)
    tau_dw = dwell_time_stationary(pots, E, [RegionMarkers(0.0, a) for a in widths])
    header = ["a", "kappa_a", "tau_phase_fs", "tau_bl_fs", "tau_dwell_fs", *FLAGS]
    return header, [[a, kappa * a, ph, bl, dw, 1, 0, int(kappa * a < OPACITY_WARN_BELOW)]
                    for a, ph, bl, dw in zip(widths, tau_ph, tau_bl, tau_dw)]


def _obs_or_times(cfg: dict):
    V0 = cfg["potential"]["V0"]
    rows = []
    for pk_cfg in cfg["packets"]:
        packet = _build_packet(pk_cfg, V0)

        def row(a, packet=packet, pk_cfg=pk_cfg):
            pot = rectangular(V0, a)
            prop = propagator(pot, packet)
            s0 = mean_time(prop.flux_series(0.0), "+")
            sa = mean_time(prop.flux_series(a), "+")
            tau_ph = phase_time(pot, prop.table.E)
            return [pk_cfg["E_bar"], pk_cfg["delta_k"], a, s0.mean, sa.mean,
                    sa.mean - s0.mean, float(packet.energy_average(tau_ph)),
                    *_OK_FLAGS.values()]

        rows.extend(row(a) for a in _scan_values(cfg["scan"]))
    header = ["E_bar_eV", "delta_k", "a", "t_plus_0_fs", "t_plus_a_fs",
              "tau_tun_fs", "tau_phase_avg_fs", *FLAGS]
    return header, rows


def _obs_causality(cfg: dict):
    pot = _build_potential(cfg["potential"])
    packet = _build_packet(cfg["packets"][0], pot.max_height)
    markers = cfg.get("markers", {})
    rows = []
    for variant in ("integral", "delay", "effective"):
        res = causality_check(pot, packet, markers.get("x_f", pot.x_right), variant,
                              x_i=markers.get("x_i"))
        passed = -1 if res.passed is None else int(res.passed)
        rows.append([variant, passed, res.margin, res.detail, *_OK_FLAGS.values()])
    header = ["variant", "passed", "margin_fs", "detail", *FLAGS]
    return header, rows


def _obs_double(cfg: dict):
    """Total two-barrier phase time over width and gap: one phase_time call
    on the family of the scan's double barriers (a zero gap joins the two
    barriers, so those rows, with one region fewer, make a family of their
    own).  A row with chi a below OPACITY_HARD_FLOOR writes nan in the
    opaque columns and raises one OpacityWarning."""
    pot_cfg = cfg["potential"]
    V0 = pot_cfg["V0"]
    E = cfg["energy"]
    scan_g = cfg.get("scan2", {"parameter": "L_minus_a", "min": 5.0, "max": 20.0, "steps": 4})
    pairs = [(a, g) for a in _scan_values(cfg["scan"]) for g in _scan_values(scan_g)]
    chi = float(UNITS.decay_constant(V0, E))
    pots = [double_rectangular(V0, a, a + gap) for a, gap in pairs]
    taus = np.empty(len(pairs))
    for joined in (False, True):
        rows = [i for i, (_, gap) in enumerate(pairs) if (gap == 0) == joined]
        if rows:
            taus[rows] = phase_time([pots[i] for i in rows], E)

    def row(pair, tau):
        a, gap = pair
        L = a + gap
        on_res = int(on_resonance(V0, a, L, E))
        sol = opaque_coefficients(V0, a, L, E) if chi * a >= OPACITY_HARD_FLOOR else None
        if sol is None:
            warnings.warn(f"chi*a = {chi * a:.2f} below {OPACITY_HARD_FLOOR}; the opaque "
                          "columns delta_rad and A_im_over_abs are not computed", OpacityWarning)
        opaque_warn = int(chi * a < OPACITY_WARN_BELOW)
        delta = sol.delta if sol is not None else float("nan")
        im_ratio = (abs(sol.A_real_factor.imag) / abs(sol.A_real_factor)
                    if sol is not None else float("nan"))
        return [a, gap, chi * a, tau, delta, im_ratio, 1, on_res, opaque_warn]

    header = ["a", "L_minus_a", "chi_a", "tau_total_fs", "delta_rad",
              "A_im_over_abs", *FLAGS]
    return header, [row(pair, tau) for pair, tau in zip(pairs, taus)]


def _obs_waveguide(cfg: dict):
    spec = _waveguide_spec(cfg["waveguide"])
    lc = emguide.cutoff_wavelength(spec)
    branch = emguide.propagation_constant(spec)
    if not branch.evanescent:
        return (["lambda_cm", "lambda_c_cm", "gamma_per_cm", *FLAGS],
                [[spec.lam, lc, branch.gamma, *_OK_FLAGS.values()]])
    ph = emguide.photon_phase_time(spec)  # an EvanescenceWarning counts in the manifest
    bm = emguide.map_to_barrier(spec)
    mapped_tau = emguide.mapped_phase_time(spec)
    c_cm = UNITS.c / 1e8
    header = ["lambda_cm", "lambda_c_cm", "kappa_em_per_cm", "L_kappa",
              "tau_fs", "v_eff_over_c", "superluminal",
              "mapped_V0_eV", "mapped_a_A", "mapped_tau_fs", *FLAGS]
    row = [spec.lam, lc, branch.kappa_em, ph.L_kappa, ph.tau, ph.v_eff / c_cm,
           int(ph.superluminal), bm.V0_eff, bm.a_eff, mapped_tau,
           1, 0, int("opaque_warning" in ph.flags)]
    return header, [row]


# each observable's name: (its description, the handler that returns its
# CSV header and rows)
OBSERVABLES = {
    "phase-time": ("stationary phase time over the scan axis",
                   lambda cfg: _obs_stationary(cfg, "phase-time")),
    "bl-time": ("modulus-sensitivity (Buttiker-Landauer) time over the scan axis",
                lambda cfg: _obs_stationary(cfg, "bl-time")),
    "dwell": ("stationary dwell time over the scan axis",
              lambda cfg: _obs_stationary(cfg, "dwell")),
    "two-phase": ("two-phase angles and the times they generate, over energy",
                  _obs_two_phase),
    "hartman-scan": ("phase/BL/dwell times vs barrier width at fixed energy", _obs_hartman),
    "or-times": ("flux-weighted packet times vs width for each packet in the family",
                 _obs_or_times),
    "causality": ("all three causality predicates for the packet scenario", _obs_causality),
    "double-barrier-scan": ("total two-barrier phase time over width and gap", _obs_double),
    "waveguide": ("undersized-guide photon times and the mapped-barrier check",
                  _obs_waveguide),
}


# ------------------------------------------------------------------ commands

def cmd_validate(args) -> int:
    try:
        cfg = resolve(load_config(args.config))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    print("ok")
    print(json.dumps(cfg, indent=2, sort_keys=True))
    return 0


def cmd_run(args) -> int:
    try:
        cfg = resolve(load_config(args.config))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    out_dir = Path(args.out) if args.out else Path(cfg["output_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)

    t_start = time.time()
    outputs = []
    warning_count = 0
    for name in cfg["observables"]:
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                header, rows = OBSERVABLES[name][1](cfg)
            warning_count += len(caught)
        except Exception as exc:  # numerical failure
            print(f"numerical failure in observable {name!r}: {exc}", file=sys.stderr)
            return 2
        finally:  # no observable reuses another's propagators: drop them and their memos
            _CACHE.clear()
        path = out_dir / f"{name}.csv"
        _write_csv(path, header, rows)
        outputs.append({"observable": name, "file": path.name, "rows": len(rows)})

    manifest = {
        "config": cfg,
        "constants": dataclasses.asdict(UNITS),
        "tolerances": {
            "dwell_form_agreement": DWELL_FORM_TOL,
            "tail_capture": TAIL_TOL,
        },
        "outputs": outputs,
        "warning_count": warning_count,
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))
    (out_dir / "run_info.json").write_text(json.dumps({
        "started_unix": t_start,
        "wall_time_s": time.time() - t_start,
    }, indent=2))
    print(f"wrote {len(outputs)} observable file(s) to {out_dir} "
          f"({warning_count} warning(s))")
    return 0


def cmd_constants(_args) -> int:
    print(json.dumps(dataclasses.asdict(UNITS), indent=2))
    return 0


def cmd_list(_args) -> int:
    for name, (description, _) in sorted(OBSERVABLES.items()):
        print(f"{name:22s} {description}")
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parsing leaves it
    unchanged, so every main() call can reuse it."""
    parser = argparse.ArgumentParser(
        prog="tuntime",
        description="Tunnelling-time scenario runner (eV / Angstrom / fs).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario config and write CSVs")
    p_run.add_argument("config")
    p_run.add_argument("--out", default=None)
    p_run.set_defaults(fn=cmd_run)

    p_val = sub.add_parser("validate", help="validate a config without running")
    p_val.add_argument("config")
    p_val.set_defaults(fn=cmd_validate)

    p_con = sub.add_parser("constants", help="print the unit system")
    p_con.set_defaults(fn=cmd_constants)

    p_lst = sub.add_parser("list-observables", help="list observable names")
    p_lst.set_defaults(fn=cmd_list)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
