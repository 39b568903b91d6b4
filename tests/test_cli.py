"""CLI: config validation, scenario runs, CSV outputs, determinism."""

import csv
import json
from pathlib import Path

import numpy as np
import pytest

from tuntime import wavepacket
from tuntime.cli import main

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


def test_validate_scan_steps(tmp_path, capsys):
    cfg = write(tmp_path, "bad.json", {
        "observables": ["hartman-scan"],
        "scan": {"parameter": "a", "min": 1.0, "max": 2.0, "steps": 1},
    })
    assert main(["validate", cfg]) == 1
    assert "scan.steps" in capsys.readouterr().err


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


def test_run_deterministic_csv(tmp_path):
    cfg = write(tmp_path, "hartman.json", {
        "observables": ["hartman-scan"],
        "scan": {"parameter": "a", "min": 2.0, "max": 10.0, "steps": 5},
    })
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["run", cfg, "--out", str(out1)]) == 0
    assert main(["run", cfg, "--out", str(out2), "--workers", "4"]) == 0
    assert (out1 / "hartman-scan.csv").read_bytes() == (out2 / "hartman-scan.csv").read_bytes()
    assert (out1 / "manifest.json").read_text() != ""


def test_run_fig2_family(tmp_path):
    cfg = write(tmp_path, "fig2.json", FIG2_CONFIG)
    out_dir = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out_dir), "--workers", "2"]) == 0
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


def test_run_waveguide_requires_block(tmp_path, capsys):
    cfg = write(tmp_path, "wg.json", {"observables": ["waveguide"]})
    assert main(["run", cfg]) == 1
    assert "waveguide" in capsys.readouterr().err


def test_run_numerical_failure_exit_code(tmp_path, capsys):
    # two-phase extraction is only defined for single rectangular barriers;
    # a double potential sails through validation but fails numerically
    cfg = write(tmp_path, "bad-run.json", {
        "potential": {"kind": "double", "V0": 10.0, "a": 3.0, "L": 9.0},
        "scan": {"parameter": "E", "min": 2.0, "max": 8.0, "steps": 3},
        "observables": ["two-phase"],
    })
    assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "numerical failure" in capsys.readouterr().err


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
