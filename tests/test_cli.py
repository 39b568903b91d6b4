"""CLI: config validation, scenario runs, CSV outputs, determinism."""

import csv
import json
from pathlib import Path

import numpy as np
import pytest

from tuntime import cli, wavepacket
from tuntime.cli import main
from tuntime.potential import PiecewisePotential
from tuntime.scattering import SolutionTable

FIG2_CONFIG = {
    "potential": {"kind": "rectangular", "V0": 10.0, "a": 5.0},
    "packets": [
        {"E_bar": 2.5, "delta_k": 0.02},
        {"E_bar": 5.0, "delta_k": 0.02},
        {"E_bar": 7.5, "delta_k": 0.02},
        {"E_bar": 5.0, "delta_k": 0.04},
        {"E_bar": 5.0, "delta_k": 0.06},
    ],
    "scan": {"parameter": "a", "min": 4.0, "max": 6.0, "steps": 2},
    "observables": ["or-times"],
}


def write(tmp_path: Path, name: str, payload: dict) -> str:
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


def read_csv(path: Path):
    with path.open() as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def test_validate_missing_file(capsys):
    assert main(["validate", "/nonexistent/conf.json"]) == 1
    assert "config error" in capsys.readouterr().err


def test_validate_empty_config(tmp_path, capsys):
    cfg = write(tmp_path, "empty.json", {})
    assert main(["validate", cfg]) == 1
    err = capsys.readouterr().err
    assert "observables" in err


def test_validate_unknown_observable(tmp_path, capsys):
    cfg = write(tmp_path, "bad.json", {"observables": ["nonsense"]})
    assert main(["validate", cfg]) == 1
    assert "observables[0]" in capsys.readouterr().err


def test_validate_cutoff_above_barrier(tmp_path, capsys):
    cfg = write(tmp_path, "bad.json", {
        "observables": ["or-times"],
        "potential": {"kind": "rectangular", "V0": 10.0, "a": 5.0},
        "packet": {"E_bar": 12.0, "delta_k": 0.02, "cutoff": True},
    })
    assert main(["validate", cfg]) == 1
    assert "cutoff" in capsys.readouterr().err
    # a segments barrier's top is its highest segment
    cfg = write(tmp_path, "seg.json", {
        "observables": ["causality"],
        "potential": {"kind": "segments", "segments": [[0, 5, 4], [8, 9, 2]]},
        "packet": {"E_bar": 5.0, "delta_k": 0.02, "cutoff": True},
    })
    assert main(["validate", cfg]) == 1
    assert "packets[0].cutoff" in capsys.readouterr().err


def test_cutoff_reads_the_built_barrier_top(tmp_path):
    # the cutoff height is the built potential's top, whatever its kind: a
    # segments barrier cuts its packet as the same rectangular barrier does
    packet = {"E_bar": 5.0, "delta_k": 0.02, "cutoff": True}
    csvs = []
    for name, potential in [("seg", {"kind": "segments", "segments": [[0, 5, 10]]}),
                            ("rect", {"kind": "rectangular", "V0": 10, "a": 5})]:
        cfg = write(tmp_path, f"{name}.json", {"observables": ["causality"],
                                                "potential": potential, "packet": packet})
        assert main(["run", cfg, "--out", str(tmp_path / name)]) == 0
        csvs.append((tmp_path / name / "causality.csv").read_bytes())
    assert csvs[0] == csvs[1]


def test_validate_scan_steps(tmp_path, capsys):
    cfg = write(tmp_path, "bad.json", {
        "observables": ["hartman-scan"],
        "scan": {"parameter": "a", "min": 1.0, "max": 2.0, "steps": 1},
    })
    assert main(["validate", cfg]) == 1
    assert "scan.steps" in capsys.readouterr().err


SCAN_MIN_REFUSALS = {  # case: (config keys, the field named)
    "a-zero": ({"observables": ["hartman-scan"],
                "scan": {"parameter": "a", "min": 0.0, "max": 2.0, "steps": 3}}, "scan.min"),
    "V0-negative": ({"observables": ["phase-time"],
                     "scan": {"parameter": "V0", "min": -1.0, "max": 8.0, "steps": 3}},
                    "scan.min"),
    "E-zero": ({"observables": ["phase-time"],
                "scan": {"parameter": "E", "min": 0.0, "max": 4.0, "steps": 3}}, "scan.min"),
    "gap-negative": ({"observables": ["double-barrier-scan"],
                      "scan": {"parameter": "a", "min": 4.0, "max": 6.0, "steps": 2},
                      "scan2": {"parameter": "L_minus_a", "min": -1.0, "max": 5.0, "steps": 3}},
                     "scan2.min"),
}


@pytest.mark.parametrize("case", SCAN_MIN_REFUSALS)
def test_validate_refuses_scans_that_leave_the_domain(tmp_path, capsys, case):
    # a width, height or energy scan that starts at or below 0, or a gap scan
    # below 0, would pass validate and fail run: validate refuses it, naming
    # the field
    keys, field = SCAN_MIN_REFUSALS[case]
    cfg = write(tmp_path, "scan.json", keys)
    assert main(["validate", cfg]) == 1
    assert f"config error: {field}:" in capsys.readouterr().err


RUN_FAILURES_REFUSED = {  # case: (config keys, the field named)
    "n_k-below-128": ({"observables": ["or-times"],
                       "packets": [{"E_bar": 5.0, "delta_k": 0.02, "n_k": 64}]},
                      "packets[0].n_k"),
    "n_k-text": ({"observables": ["or-times"],
                  "packets": [{"E_bar": 5.0, "delta_k": 0.02, "n_k": "many"}]},
                 "packets[0].n_k"),
    "n_k-fraction": ({"observables": ["or-times"],
                      "packets": [{"E_bar": 5.0, "delta_k": 0.02, "n_k": 256.5}]},
                     "packets[0].n_k"),
    "standoff-non-numeric": ({"observables": ["or-times"],
                              "packet": {"E_bar": 5.0, "delta_k": 0.02, "standoff": "far"}},
                             "packets[0].standoff"),
    "k_bar-non-numeric": ({"observables": ["or-times"],
                           "packet": {"k_bar": "fast", "delta_k": 0.02}}, "packets[0].k_bar"),
    "energy-non-numeric": ({"observables": ["hartman-scan"], "energy": "5 eV"}, "energy"),
    "workers-non-numeric": ({"observables": ["hartman-scan"], "workers": "two"}, "workers"),
    "marker-non-numeric": ({"observables": ["causality"],
                            "packet": {"E_bar": 5.0, "delta_k": 0.02},
                            "markers": {"x_i": "left", "x_f": 8.0}}, "markers.x_i"),
    "marker-x_i-past-x_f": ({"observables": ["causality"],
                             "packet": {"E_bar": 5.0, "delta_k": 0.02},
                             "markers": {"x_i": 9.0, "x_f": 8.0}}, "markers.x_i"),
    "causality-x_f-inside": ({"observables": ["causality"],
                              "packet": {"E_bar": 5.0, "delta_k": 0.02},
                              "markers": {"x_i": -30.0, "x_f": 2.0}}, "markers.x_f"),
    "double-V0-negative": ({"observables": ["phase-time"],
                            "potential": {"kind": "double", "V0": -1.0, "a": 2.0, "L": 6.0},
                            "scan": {"parameter": "E", "min": 1.0, "max": 4.0, "steps": 3}},
                           "potential"),
    "double-a-negative": ({"observables": ["phase-time"],
                           "potential": {"kind": "double", "V0": 10.0, "a": -3.0, "L": 6.0},
                           "scan": {"parameter": "E", "min": 1.0, "max": 4.0, "steps": 3}},
                          "potential"),
    "segment-reversed": ({"observables": ["phase-time"],
                          "potential": {"kind": "segments", "segments": [[5.0, 2.0, 3.0]]},
                          "scan": {"parameter": "E", "min": 1.0, "max": 2.0, "steps": 3}},
                         "potential"),
    "waveguide-below-opaque-floor": ({"observables": ["waveguide"],
                                      "waveguide": {"a_cm": 2.3, "b_cm": 4.6, "m": 1, "n": 0,
                                                    "L_cm": 0.3, "lambda_cm": 6.0}},
                                     "waveguide.L_cm"),
    "waveguide-non-numeric": ({"observables": ["waveguide"],
                               "waveguide": {"a_cm": 2.3, "b_cm": 4.6, "m": 1, "n": 0,
                                             "L_cm": "long", "lambda_cm": 6.0}},
                              "waveguide.L_cm"),
    # a bool or a non-finite value is not a number and a count is a JSON
    # integer: each of these used to run, as 1 eV, as a truncated count, or
    # into a numerical failure
    "V0-true": ({"observables": ["hartman-scan"], "potential": {"V0": True}}, "potential.V0"),
    "double-L-true": ({"observables": ["phase-time"],
                       "potential": {"kind": "double", "V0": 10.0, "a": 1.0, "L": True},
                       "scan": {"parameter": "E", "min": 1.0, "max": 4.0, "steps": 3}},
                      "potential.L"),
    "segment-height-true": ({"observables": ["phase-time"],
                             "potential": {"kind": "segments", "segments": [[0.0, 2.0, True]]},
                             "scan": {"parameter": "E", "min": 1.0, "max": 2.0, "steps": 3}},
                            "potential.segments"),
    "E_bar-true": ({"observables": ["or-times"], "packet": {"E_bar": True, "delta_k": 0.02}},
                   "packets[0].E_bar"),
    "delta_k-true": ({"observables": ["or-times"], "packet": {"k_bar": 10.0, "delta_k": True}},
                     "packets[0].delta_k"),
    "steps-text": ({"observables": ["phase-time"],
                    "scan": {"parameter": "a", "min": 1.0, "max": 4.0, "steps": "7"}}, "scan"),
    "steps-fraction": ({"observables": ["phase-time"],
                        "scan": {"parameter": "a", "min": 1.0, "max": 4.0, "steps": 7.9}}, "scan"),
    "scan-min-text": ({"observables": ["phase-time"],
                       "scan": {"parameter": "a", "min": "1", "max": 4.0, "steps": 7}}, "scan"),
    "scan2-steps-fraction": ({"observables": ["double-barrier-scan"],
                              "scan": {"parameter": "a", "min": 4.0, "max": 6.0, "steps": 2},
                              "scan2": {"parameter": "L_minus_a", "min": 1.0, "max": 5.0,
                                        "steps": 2.5}}, "scan2"),
    "scan-max-infinite": ({"observables": ["phase-time"],
                           "scan": {"parameter": "a", "min": 1.0, "max": float("inf"),
                                    "steps": 3}}, "scan"),
    "standoff-nan": ({"observables": ["causality"],
                      "packet": {"E_bar": 5.0, "delta_k": 0.02, "standoff": float("nan")}},
                     "packets[0].standoff"),
    "waveguide-m-fraction": ({"observables": ["waveguide"],
                              "waveguide": {"a_cm": 2.3, "b_cm": 4.6, "m": 1.5, "n": 0,
                                            "L_cm": 10.0, "lambda_cm": 6.0}},
                             "waveguide.m"),
    # a block of the wrong JSON type used to end in a Python traceback, and
    # an empty packet list in a traceback's message (causality, exit 2) or in
    # a CSV that held only its header (or-times, exit 0)
    "markers-list": ({"observables": ["causality"], "packet": {"E_bar": 5.0, "delta_k": 0.02},
                      "markers": [1, 2]}, "markers"),
    "potential-number": ({"observables": ["phase-time"], "potential": 5}, "potential"),
    "packet-text": ({"observables": ["or-times"], "packet": "wide"}, "packet"),
    "scan-number": ({"observables": ["phase-time"], "scan": 3}, "scan"),
    "scan2-text": ({"observables": ["double-barrier-scan"],
                    "scan": {"parameter": "a", "min": 4.0, "max": 6.0, "steps": 2},
                    "scan2": "x"}, "scan2"),
    "waveguide-number": ({"observables": ["waveguide"], "waveguide": 3}, "waveguide"),
    "observables-number": ({"observables": 5}, "observables"),
    "packets-object": ({"observables": ["or-times"], "packets": {"E_bar": 5.0}}, "packets"),
    "packets-entry-number": ({"observables": ["or-times"],
                              "packets": [{"E_bar": 5.0, "delta_k": 0.02}, 3]}, "packets[1]"),
    "packets-empty-causality": ({"observables": ["causality"], "packets": []}, "packets"),
    "packets-empty-or-times": ({"observables": ["or-times"], "packets": []}, "packets"),
}


@pytest.mark.parametrize("case", RUN_FAILURES_REFUSED)
def test_resolve_refuses_configs_that_would_fail_in_run(tmp_path, capsys, case):
    # each of these used to pass validate and then exit 2 in run (n_k below
    # 128, causality's x_f inside the barrier, a potential its builder
    # refuses, a guide too short for the opaque formula), raise a Python
    # traceback (a non-numeric value), run a bool as 1 or truncate a
    # fractional count: validate and run refuse them as config errors
    keys, field = RUN_FAILURES_REFUSED[case]
    cfg = write(tmp_path, "bad.json", keys)
    for argv in (["validate", cfg], ["run", cfg, "--out", str(tmp_path / "out")]):
        assert main(argv) == 1
        assert f"config error: {field}:" in capsys.readouterr().err


def test_validate_fig2_ok_with_echo(tmp_path, capsys):
    cfg = write(tmp_path, "fig2.json", FIG2_CONFIG)
    assert main(["validate", cfg]) == 0
    out = capsys.readouterr().out
    assert out.startswith("ok")
    echoed = json.loads(out[2:])
    # resolved defaults are echoed back
    assert echoed["energy"] == 5.0
    assert echoed["packets"][0]["n_k"] == 512


def test_constants_and_list(capsys):
    assert main(["constants"]) == 0
    consts = json.loads(capsys.readouterr().out)
    assert consts["hbar"] == pytest.approx(0.6582119569)
    assert main(["list-observables"]) == 0
    out = capsys.readouterr().out
    assert "hartman-scan" in out and "waveguide" in out


def test_run_hartman_scan(tmp_path, capsys):
    cfg = write(tmp_path, "hartman.json", {
        "potential": {"kind": "rectangular", "V0": 10.0, "a": 5.0},
        "energy": 5.0,
        "scan": {"parameter": "a", "min": 1.0, "max": 12.0, "steps": 23},
        "observables": ["hartman-scan"],
    })
    out_dir = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out_dir)]) == 0
    header, rows = read_csv(out_dir / "hartman-scan.csv")
    assert header == ["a", "kappa_a", "tau_phase_fs", "tau_bl_fs", "tau_dwell_fs",
                      "tail_captured", "on_resonance", "opaque_warning"]
    assert len(rows) == 23
    a = np.array([float(r[0]) for r in rows])
    tau_ph = np.array([float(r[2]) for r in rows])
    tau_bl = np.array([float(r[3]) for r in rows])
    tau_dw = np.array([float(r[4]) for r in rows])
    # phase and dwell saturate, BL grows linearly
    wide = a >= 8.0
    assert np.ptp(tau_ph[wide]) / tau_ph[wide].mean() < 1e-3
    assert np.ptp(tau_dw[wide]) / tau_dw[wide].mean() < 1e-3
    slope = np.polyfit(a[wide], tau_bl[wide], 1)[0]
    assert slope == pytest.approx(0.0754, rel=0.01)
    # manifest is written and carries the constants
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["constants"]["hbar"] == pytest.approx(0.6582119569)
    assert (out_dir / "run_info.json").exists()


def test_hartman_scan_flags_thin_barriers(tmp_path):
    # configs/hartman.json scans a in [1, 12] at kappa = 1.1456 / A: the
    # opaque warning is raised exactly where kappa a < 8, i.e. a < 6.98 A
    cfg = Path(__file__).resolve().parents[1] / "configs" / "hartman.json"
    out_dir = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out_dir)]) == 0
    header, rows = read_csv(out_dir / "hartman-scan.csv")
    col = header.index("opaque_warning")
    thin = [float(r[0]) < 6.98 for r in rows]
    assert any(thin) and not all(thin)
    assert [r[col] for r in rows] == ["1" if t else "0" for t in thin]


@pytest.mark.parametrize("energy", [10.0, 12.0])
def test_hartman_scan_above_barrier_is_a_config_error(tmp_path, capsys, energy):
    # kappa and the BL time exist only below the barrier: E >= V0 is refused
    # on `energy` (exit 1, no table) rather than written as nan
    cfg = write(tmp_path, "hartman.json", {
        "potential": {"kind": "rectangular", "V0": 10.0, "a": 5.0},
        "energy": energy,
        "scan": {"parameter": "a", "min": 1.0, "max": 2.0, "steps": 2},
        "observables": ["hartman-scan"],
    })
    out_dir = tmp_path / "out"
    for argv in (["validate", cfg], ["run", cfg, "--out", str(out_dir)]):
        assert main(argv) == 1
        assert "config error: energy:" in capsys.readouterr().err
    assert not (out_dir / "hartman-scan.csv").exists()


@pytest.mark.parametrize("potential", [
    {"kind": "segments", "segments": [[0.0, 5.0, 1.0]]},
    {"kind": "double", "V0": 10.0, "a": 3.0, "L": 9.0},
], ids=["segments", "double"])
@pytest.mark.parametrize("observable", ["hartman-scan", "or-times", "double-barrier-scan"])
def test_rectangle_scans_refuse_other_potentials(tmp_path, capsys, potential, observable):
    # these observables build rectangular barriers from potential.V0, so on
    # any other kind they would scan a barrier the config does not describe
    cfg = write(tmp_path, "scan.json", {
        "potential": potential, "energy": 0.5,
        "scan": {"parameter": "a", "min": 1.0, "max": 2.0, "steps": 2},
        "observables": [observable],
    })
    out_dir = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out_dir)]) == 1
    assert "config error: potential.kind:" in capsys.readouterr().err
    assert not (out_dir / f"{observable}.csv").exists()


SEGMENTS = {"kind": "segments", "segments": [[0.0, 5.0, 8.0]]}
DOUBLE = {"kind": "double", "V0": 10.0, "a": 3.0, "L": 9.0}
RECTANGLE = {"kind": "rectangular", "V0": 10.0, "a": 3.0}
SCAN_REFUSALS = {  # case: potential, scan parameter, observable, the field named
    "phase-time-segments-a": (SEGMENTS, "a", "phase-time", "scan.parameter"),
    "dwell-segments-a": (SEGMENTS, "a", "dwell", "scan.parameter"),
    "bl-time-double-a": (DOUBLE, "a", "bl-time", "scan.parameter"),
    "bl-time-segments-V0": (SEGMENTS, "V0", "bl-time", "scan.parameter"),
    "phase-time-L_minus_a": (RECTANGLE, "L_minus_a", "phase-time", "scan.parameter"),
    "two-phase-double": (DOUBLE, "E", "two-phase", "potential.kind"),
    "hartman-scan-E": (RECTANGLE, "E", "hartman-scan", "scan.parameter"),
}


@pytest.mark.parametrize("case", SCAN_REFUSALS)
def test_scans_the_potential_cannot_vary_are_config_errors(tmp_path, capsys, case):
    # a scan over a parameter the potential does not take would write one
    # value on every row, or fail only once running: validate and run both
    # refuse it, naming the field, and no table is written
    potential, parameter, observable, field = SCAN_REFUSALS[case]
    cfg = write(tmp_path, "scan.json", {
        "potential": potential, "energy": 4.0,
        "scan": {"parameter": parameter, "min": 1.0, "max": 2.0, "steps": 2},
        "observables": [observable],
    })
    out_dir = tmp_path / "out"
    for argv in (["validate", cfg], ["run", cfg, "--out", str(out_dir)]):
        assert main(argv) == 1
        assert f"config error: {field}:" in capsys.readouterr().err
    assert not (out_dir / f"{observable}.csv").exists()


def test_resolve_fills_only_what_the_config_uses():
    # the default barrier fills in a rectangular potential only, and a packet
    # is resolved only when one is given or an observable builds one
    segments = {"kind": "segments", "segments": [[0.0, 5.0, 1.0]]}
    cfg = cli.resolve({"potential": segments, "observables": ["phase-time"],
                       "scan": {"parameter": "E", "min": 0.2, "max": 0.8, "steps": 3}})
    assert cfg["potential"] == segments and "packets" not in cfg
    cfg = cli.resolve({"potential": {"a": 3.0}, "observables": ["hartman-scan"]})
    assert cfg["potential"] == {"kind": "rectangular", "V0": 10.0, "a": 3.0}
    assert "packets" not in cfg
    for extra in ({"observables": ["causality"]}, {"observables": ["or-times"]},
                  {"observables": ["dwell"], "packet": {"E_bar": 2.0}}):
        assert len(cli.resolve(extra)["packets"]) == 1, extra
    with pytest.raises(cli.ConfigError, match="potential.V0"):
        cli.resolve({"potential": {"kind": "double", "a": 1.0, "L": 4.0},
                     "observables": ["phase-time"]})


def test_run_causality_reads_markers_x_i(tmp_path):
    # the effective check starts at the configured x_i, not the barrier edge
    cfg = write(tmp_path, "causality.json", {
        "observables": ["causality"], "potential": {"kind": "rectangular", "V0": 10.0, "a": 5.0},
        "packet": {"E_bar": 5.0, "delta_k": 0.02, "n_k": 128},
        "markers": {"x_i": -30.0, "x_f": 5.0},
    })
    assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 0
    with (tmp_path / "out" / "causality.csv").open() as fh:
        rows = {row["variant"]: row for row in csv.DictReader(fh)}
    assert rows["effective"]["detail"] == "x_i=-30.0"
    assert rows["effective"]["passed"] == "1"


def test_run_deterministic_csv(tmp_path):
    cfg = write(tmp_path, "hartman.json", {
        "observables": ["hartman-scan"],
        "scan": {"parameter": "a", "min": 2.0, "max": 10.0, "steps": 5},
    })
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["run", cfg, "--out", str(out1)]) == 0
    assert main(["run", cfg, "--out", str(out2)]) == 0
    assert (out1 / "hartman-scan.csv").read_bytes() == (out2 / "hartman-scan.csv").read_bytes()
    assert (out1 / "manifest.json").read_text() != ""


def test_run_fig2_family(tmp_path):
    cfg = write(tmp_path, "fig2.json", FIG2_CONFIG)
    out_dir = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out_dir)]) == 0
    assert wavepacket._CACHE == {}  # the run's propagators and flux memos are gone
    header, rows = read_csv(out_dir / "or-times.csv")
    assert header[:7] == ["E_bar_eV", "delta_k", "a", "t_plus_0_fs", "t_plus_a_fs",
                          "tau_tun_fs", "tau_phase_avg_fs"]
    assert len(rows) == 10  # 5 packets x 2 scan points
    t_plus_0 = np.array([float(r[3]) for r in rows])
    assert np.all(t_plus_0 < 0.0)  # the advance columns are all negative
    tau_tun = np.array([float(r[5]) for r in rows])
    assert np.all(tau_tun > 0.0)


def test_run_double_scan(tmp_path):
    cfg = write(tmp_path, "double.json", {
        "potential": {"kind": "rectangular", "V0": 10.0, "a": 8.0},
        "energy": 5.0,
        "scan": {"parameter": "a", "min": 8.0, "max": 12.0, "steps": 3},
        "scan2": {"parameter": "L_minus_a", "min": 5.0, "max": 20.0, "steps": 4},
        "observables": ["double-barrier-scan"],
    })
    out_dir = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out_dir)]) == 0
    header, rows = read_csv(out_dir / "double-barrier-scan.csv")
    assert len(rows) == 12
    on_res = np.array([int(r[-2]) for r in rows])
    tau = np.array([float(r[3]) for r in rows])
    off = tau[on_res == 0]
    assert np.ptp(off) / off.mean() < 1e-3  # constant off resonance


def test_run_double_scan_counts_its_warnings(tmp_path):
    # chi a = 5.7 to 6.9 lies in [5, 8): each row's opaque coefficients
    # raise an OpacityWarning, which sets its opaque_warning flag and counts
    # in the manifest like every other observable's
    cfg = write(tmp_path, "double.json", {
        "potential": {"kind": "rectangular", "V0": 10.0, "a": 5.0},
        "energy": 5.0,
        "scan": {"parameter": "a", "min": 5.0, "max": 6.0, "steps": 3},
        "scan2": {"parameter": "L_minus_a", "min": 5.0, "max": 20.0, "steps": 4},
        "observables": ["double-barrier-scan"],
    })
    out_dir = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out_dir)]) == 0
    header, rows = read_csv(out_dir / "double-barrier-scan.csv")
    flags = [dict(zip(header, r)) for r in rows]
    assert all(f["opaque_warning"] == "1" and f["on_resonance"] == "0" for f in flags)
    assert json.loads((out_dir / "manifest.json").read_text())["warning_count"] == len(rows) == 12


def test_run_double_scan_counts_a_warning_per_thin_row(tmp_path):
    # chi a = 3.4 and 4.6 lie below the opaque forms' floor of 5: no opaque
    # coefficients are computed there, so delta_rad is nan, and each of the
    # four flagged rows counts one OpacityWarning in the manifest
    cfg = write(tmp_path, "double.json", {
        "potential": {"kind": "rectangular", "V0": 10.0, "a": 3.0},
        "energy": 5.0,
        "scan": {"parameter": "a", "min": 3.0, "max": 4.0, "steps": 2},
        "scan2": {"parameter": "L_minus_a", "min": 5.0, "max": 6.0, "steps": 2},
        "observables": ["double-barrier-scan"],
    })
    out_dir = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out_dir)]) == 0
    header, rows = read_csv(out_dir / "double-barrier-scan.csv")
    flags = [dict(zip(header, r)) for r in rows]
    assert all(f["opaque_warning"] == "1" and f["delta_rad"] == "nan" for f in flags)
    assert json.loads((out_dir / "manifest.json").read_text())["warning_count"] == len(rows) == 4


def test_run_waveguide(tmp_path):
    cfg = write(tmp_path, "wg.json", {
        "observables": ["waveguide"],
        "waveguide": {"a_cm": 2.3, "b_cm": 4.6, "m": 1, "n": 0,
                      "L_cm": 10.0, "lambda_cm": 6.0},
    })
    out_dir = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out_dir)]) == 0
    header, rows = read_csv(out_dir / "waveguide.csv")
    row = dict(zip(header, rows[0]))
    assert int(row["superluminal"]) == 1
    assert float(row["v_eff_over_c"]) == pytest.approx(float(row["L_kappa"]) / 2, rel=1e-9)
    assert float(row["mapped_tau_fs"]) == pytest.approx(float(row["tau_fs"]), rel=0.05)


def test_run_waveguide_flags_a_guide_below_the_opaque_comfort_zone(tmp_path):
    # L kappa_em = 6.5 (L = 7.4 cm) lies in [5, 8): the opaque-guide phase
    # time is still computed, its EvanescenceWarning sets the row's
    # opaque_warning flag and counts once in the manifest
    cfg = write(tmp_path, "wg.json", {
        "observables": ["waveguide"],
        "waveguide": {"a_cm": 2.3, "b_cm": 4.6, "m": 1, "n": 0,
                      "L_cm": 7.4, "lambda_cm": 6.0},
    })
    out_dir = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out_dir)]) == 0
    header, rows = read_csv(out_dir / "waveguide.csv")
    row = dict(zip(header, rows[0]))
    assert 5.0 <= float(row["L_kappa"]) < 8.0
    assert row["opaque_warning"] == "1"
    assert json.loads((out_dir / "manifest.json").read_text())["warning_count"] == 1


def test_run_waveguide_requires_block(tmp_path, capsys):
    cfg = write(tmp_path, "wg.json", {"observables": ["waveguide"]})
    assert main(["run", cfg]) == 1
    assert "waveguide" in capsys.readouterr().err


def test_run_numerical_failure_exit_code(tmp_path, capsys):
    # the phase of A_T is lost once |A_T| underflows (kappa a past about
    # 717): a phase-time scan at kappa a ~ 800 sails through validation but
    # fails numerically
    cfg = write(tmp_path, "bad-run.json", {
        "potential": {"kind": "rectangular", "V0": 10.0, "a": 700.0},
        "scan": {"parameter": "E", "min": 4.5, "max": 5.5, "steps": 3},
        "observables": ["phase-time"],
    })
    assert main(["validate", cfg]) == 0
    assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "numerical failure" in capsys.readouterr().err


AT_THE_BARRIER = {  # case: observable, potential, energy, scan, the field named
    "double-barrier-scan": ("double-barrier-scan", RECTANGLE, 10.0, ("a", 3.0, 5.0), "energy"),
    "bl-time-E": ("bl-time", RECTANGLE, 4.0, ("E", 2.0, 10.0), "scan.max"),
    "bl-time-V0": ("bl-time", RECTANGLE, 4.0, ("V0", 4.0, 12.0), "scan.min"),
    "bl-time-a": ("bl-time", RECTANGLE, 11.0, ("a", 1.0, 2.0), "energy"),
    "bl-time-segments-E": ("bl-time", SEGMENTS, 4.0, ("E", 2.0, 8.5), "scan.max"),
    "two-phase-E": ("two-phase", RECTANGLE, 4.0, ("E", 2.0, 12.0), "scan.max"),
    "two-phase-a": ("two-phase", RECTANGLE, 7.0, ("a", 1.0, 2.0), "energy"),
}


@pytest.mark.parametrize("case", AT_THE_BARRIER)
def test_energies_at_the_barrier_are_config_errors(tmp_path, capsys, case):
    # these observables exist only below the barrier top; a config whose
    # energies reach it is refused by validate and run alike, naming the
    # field, instead of failing numerically once running (two-phase scans E
    # over [0.5, 1.5] x energy when its scan is not over E)
    observable, potential, energy, (parameter, lo, hi), field = AT_THE_BARRIER[case]
    cfg = write(tmp_path, "scan.json", {
        "potential": potential, "energy": energy,
        "scan": {"parameter": parameter, "min": lo, "max": hi, "steps": 3},
        "observables": [observable],
    })
    out_dir = tmp_path / "out"
    for argv in (["validate", cfg], ["run", cfg, "--out", str(out_dir)]):
        assert main(argv) == 1
        assert f"config error: {field}:" in capsys.readouterr().err
    assert not (out_dir / f"{observable}.csv").exists()


def test_flag_columns_on_every_csv(tmp_path):
    cfg = write(tmp_path, "multi.json", {
        "observables": ["phase-time", "bl-time", "dwell", "two-phase"],
        "scan": {"parameter": "a", "min": 2.0, "max": 6.0, "steps": 3},
    })
    out_dir = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out_dir)]) == 0
    for name in ("phase-time", "bl-time", "dwell", "two-phase"):
        header, rows = read_csv(out_dir / f"{name}.csv")
        assert header[-3:] == ["tail_captured", "on_resonance", "opaque_warning"]
        assert rows


def test_parser_reused_without_state(tmp_path):
    # main() builds its parser once per process: an --out given to one call
    # does not carry over, and the next run writes to the config's output_dir
    cfg = write(tmp_path, "w.json", {"observables": ["phase-time"],
                                     "output_dir": str(tmp_path / "b"),
                                     "scan": {"parameter": "E", "min": 2.0, "max": 4.0,
                                              "steps": 3}})
    assert main(["run", cfg, "--out", str(tmp_path / "a")]) == 0
    assert not (tmp_path / "b").exists()
    assert main(["run", cfg]) == 0
    csvs = [(tmp_path / d / "phase-time.csv").read_bytes() for d in ("a", "b")]
    assert csvs[0] == csvs[1]
    assert cli._parser() is cli._parser()


ENERGY_SCANS = {  # observable: the library call of its times, a potential it accepts
    "phase-time": ("phase_time", [[12.0 * i, 12.0 * i + 4.0, 3.0] for i in range(6)]),
    "two-phase": ("two_phase_times", [[0.0, 3.0, 4.0]]),
}


@pytest.mark.parametrize("observable", ENERGY_SCANS)
def test_energy_scan_is_one_call(tmp_path, monkeypatch, observable):
    # an E scan evaluates its stationary times once, on the array of its
    # energies, and each row equals the library's array output, which equals
    # the scalar call at its energy
    name, segs = ENERGY_SCANS[observable]
    library = getattr(cli, name)
    cfg = write(tmp_path, "scan.json", {
        "potential": {"kind": "segments", "segments": segs},
        "scan": {"parameter": "E", "min": 0.5, "max": 2.5, "steps": 9},
        "observables": [observable]})
    calls = []
    monkeypatch.setattr(cli, name, lambda pot, E: calls.append(np.shape(E)) or library(pot, E))
    assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 0
    assert calls == [(9,)]
    header, rows = read_csv(tmp_path / "out" / f"{observable}.csv")
    times = [i for i, column in enumerate(header) if column.endswith("_fs")]
    pot = PiecewisePotential(tuple(tuple(s) for s in segs))
    Es = np.linspace(0.5, 2.5, 9)
    expected = np.transpose(library(pot, Es)).reshape(9, -1).tolist()
    assert [[float(r[i]) for i in times] for r in rows] == expected
    assert np.reshape([library(pot, E) for E in Es], (9, -1)).tolist() == expected


GEOMETRY_SCANS = {  # case: observable, potential, scan parameter and range, tables per scan
    "hartman-scan": ("hartman-scan", RECTANGLE, ("a", 1.0, 12.0), 3),
    "phase-time-a": ("phase-time", RECTANGLE, ("a", 1.0, 12.0), 1),
    "phase-time-V0": ("phase-time", DOUBLE, ("V0", 6.0, 20.0), 1),
    "bl-time-a": ("bl-time", RECTANGLE, ("a", 1.0, 12.0), 1),
    "bl-time-V0": ("bl-time", RECTANGLE, ("V0", 6.0, 20.0), 1),
    "dwell-a": ("dwell", RECTANGLE, ("a", 1.0, 12.0), 1),
    "dwell-V0": ("dwell", DOUBLE, ("V0", 6.0, 20.0), 1),
    "double-barrier-scan": ("double-barrier-scan", RECTANGLE, ("a", 8.0, 12.0), 1),
}


@pytest.mark.parametrize("case", GEOMETRY_SCANS)
def test_geometry_scan_is_one_table(tmp_path, monkeypatch, case):
    # a width or height scan builds one table per observable and difference
    # round, for the family of its potentials, however many rows it has
    observable, potential, (parameter, lo, hi), tables = GEOMETRY_SCANS[case]
    builds = []
    build = SolutionTable.__init__
    monkeypatch.setattr(SolutionTable, "__init__",
                        lambda self, pot, Es: builds.append(1) or build(self, pot, Es))
    for steps in (3, 30):
        builds.clear()
        cfg = write(tmp_path, "scan.json", {
            "potential": potential, "energy": 5.0,
            "scan": {"parameter": parameter, "min": lo, "max": hi, "steps": steps},
            "scan2": {"parameter": "L_minus_a", "min": 5.0, "max": 7.0, "steps": 3},
            "observables": [observable]})
        assert main(["run", cfg, "--out", str(tmp_path / f"out{steps}")]) == 0
        assert len(builds) == tables, steps
