"""Self-check of the benchmark: every workload runs at its smallest size and
emits every metric BENCHMARK.json names, and the correctness gate rejects
deliberately perturbed outputs."""

import csv
import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run as bench_run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--small"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smallest_workload_emits_end_to_end_metrics(workload):
    res = _run(workload, 0)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in res["metrics"].values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smallest_workload_emits_layer_metrics(workload):
    res = _run(workload, 1)
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == expected
    counts = {k: v["value"] for k, v in res["metrics"].items() if k.endswith(".calls")}
    if workload == "stationary-scan":
        assert all(v == 0 for k, v in counts.items()
                   if k.startswith(("wavepacket.", "flux_times.")))
    if workload == "packet-dwell":
        assert all(v == 0 for k, v in counts.items() if k.startswith("stationary_times."))
        assert res["metrics"]["wavepacket.propagator.hit_ratio"]["value"] > 0


def _scale_csv_cell(path: Path, column: str, factor: float):
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    col = rows[0].index(column)
    rows[1][col] = repr(float(rows[1][col]) * factor)
    with path.open("w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def _first_op(ops, kind):
    return next(op for op in ops if op.kind == kind)


def test_gate_flags_perturbed_phase_time(tmp_path):
    ops, reset = workloads.build("stationary-scan", 3, tmp_path, small=True)
    op = _first_op(ops, "cli:hartman-scan")
    out = op.run()
    assert op.check(out) is None
    _scale_csv_cell(out / "hartman-scan.csv", "tau_phase_fs", 1.0 + 1e-3)
    assert op.check(out) is not None


def test_gate_flags_perturbed_packet_phase_time(tmp_path):
    ops, reset = workloads.build("packet-family", 3, tmp_path, small=True)
    op = _first_op(ops, "cli:or-times")
    out = op.run()
    assert op.check(out) is None
    _scale_csv_cell(out / "or-times.csv", "tau_phase_avg_fs", 1.0 + 1e-3)
    assert op.check(out) is not None


def test_gate_flags_shifted_exit_instant(tmp_path):
    ops, reset = workloads.build("packet-dwell", 3, tmp_path, small=True)
    reset()
    op = _first_op(ops, "lib:duration.tunnelling")
    rep = op.run()
    assert op.check(rep) is None
    # 0.01 fs exceeds the exit-instant tolerance 1e-3/(v delta_k) everywhere
    # in the drawn range (at most 7.6e-3 fs)
    shifted = dataclasses.replace(
        rep, components={**rep.components, "t_+(x_f)": rep.components["t_+(x_f)"] + 0.01})
    assert op.check(shifted) is not None


def test_only_probes_past_the_known_onset_may_fail():
    assert workloads._probe_op("phase_time", 10.0, 0.5, 800.0).expected_failure
    assert workloads._probe_op("dwell", 10.0, 0.5, 800.0).expected_failure
    assert not workloads._probe_op("phase_time", 10.0, 0.5, 700.0).expected_failure
    assert not workloads._probe_op("dwell", 10.0, 0.5, 600.0).expected_failure
    assert not workloads._probe_op("bl_time", 10.0, 0.5, 2000.0).expected_failure


@pytest.mark.parametrize("fn", ["phase_time", "bl_time", "dwell"])
def test_perturbed_probe_below_onset_makes_run_incorrect(fn):
    op = workloads._probe_op(fn, 10.0, 0.5, 100.0)
    value = op.run()
    assert op.check(value) is None
    perturbed = dataclasses.replace(op, run=lambda: value * (1.0 + 1e-3))
    run = bench_run.Run([perturbed], lambda: None)
    run.one_pass(traced=False)
    assert run.failed == 1 and run.unexpected


def test_expected_failures_do_not_depend_on_the_seed(tmp_path):
    """Probes skip a band around each onset, so every seed has the same
    number of expected failures and runs of one commit agree on `failed`."""
    counts = set()
    for seed in (1, 2, 3):
        ops, reset = workloads.build("stationary-scan", seed, tmp_path / str(seed))
        probes = [op for op in ops if op.kind.startswith("probe:")]
        counts.add((len(ops), sum(op.expected_failure for op in probes)))
    n_past = sum(n for _, band, n in workloads.PROBES.values() if band)
    assert counts == {(148, n_past)}


def test_failed_counts_ops_not_passes():
    op = workloads._probe_op("phase_time", 10.0, 0.5, 800.0)
    run = bench_run.Run([op], lambda: None)
    run.one_pass(traced=False)
    run.one_pass(traced=False)
    assert (run.attempted, run.failed, run.unexpected) == (1, 1, False)
