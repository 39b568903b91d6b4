"""Seeded, single-process, closed-loop benchmark for tuntime.

    python3 bench/run.py --workload stationary-scan --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 35

One client runs one op at a time; the next op starts when the previous one
returns.  A pass runs every op of the workload once; passes repeat while
another one still fits in --seconds.  Each op's output is checked after the
pass, outside the timed region.  With --trace 0 the last line of stdout is a
JSON object carrying the end-to-end metrics, with --trace 1 the per-layer
metrics from a separate traced run in which traced and untraced passes
alternate.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "tuntime-bench"

END_TO_END = [  # (name, unit)
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
]
# op_tail_ms percentile, fixed per workload so that every run of every
# commit reports the same statistic; each leaves at least ten ops above it at
# the op counts a 35 s run usually makes (about 3500 on stationary-scan, 54
# on packet-family, 72 on packet-dwell), and the record shows how many it left
TAIL_PERCENTILE = {"stationary-scan": 99.0, "packet-family": 75.0, "packet-dwell": 75.0}
SETUP_REPEATS = 11


def percentile(values, p: float) -> float:
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


# ------------------------------------------------------------- environment

def _openblas():
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    version = deps.get("blas", {}).get("version")
    threads = None
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = int(fn())
                break
    return version, threads


def _git_commit():
    if not (ROOT / ".git").exists():  # not a checkout of its own
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(seed: int) -> dict:
    version, threads = _openblas()
    return {"nproc": workloads.nproc(), "python": platform.python_version(),
            "numpy": np.__version__, "openblas": version, "openblas_threads": threads,
            "git_commit": _git_commit(), "seed": seed}


# ------------------------------------------------------------------ set-up

def setup_probe(args) -> int:
    """Child process: import tuntime, generate the inputs, report ready."""
    import tuntime  # noqa: F401
    import tuntime.cli  # noqa: F401

    workdir = WORK / f"setup-{os.getpid()}"
    try:
        ops, reset = workloads.build(args.workload, args.seed, workdir, args.small)
        reset()
        print("ready", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


class SetupTimer:
    """Times fresh interpreters from spawn until their first op is ready.

    The probes are spread over the run, between passes, so that their median
    sees the machine at the same moments as the passes do; a burst of probes
    at the start would see only the machine's speed of those few seconds.
    """

    def __init__(self, args, repeats: int):
        self.cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
                    "--workload", args.workload, "--seed", str(args.seed)]
        if args.small:
            self.cmd.append("--small")
        self.repeats, self.times = repeats, []

    def probe(self):
        t0 = time.perf_counter()
        with subprocess.Popen(self.cmd, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - t0
            child.stdout.read()
            rc = child.wait(timeout=120)
        if line.strip() != "ready" or rc != 0:
            raise RuntimeError(f"set-up probe failed (exit {rc})")
        self.times.append(elapsed)

    def catch_up(self, fraction: float):
        """Probe until the share of probes done matches the share of the run done."""
        while len(self.times) < min(self.repeats, round(self.repeats * fraction)):
            self.probe()

    def median(self) -> float:
        self.catch_up(1.0)
        return statistics.median(self.times)


# ------------------------------------------------------------------ passes

class Run:
    """Executes passes over a workload's ops and gates their outputs.

    `attempted` is the number of ops in the workload and `failed` the number
    of them that failed on any pass.  Both depend only on the seed, not on
    how many passes fit, so runs of one commit report the same counts.
    """

    def __init__(self, ops, reset, tracer=None):
        self.ops, self.reset, self.tracer = ops, reset, tracer
        self.latencies = []
        self.walls, self.cpus = [], []
        self.traced_walls, self.layer = [], []
        self.failures = {}        # op index -> [reason, passes it failed on]
        self.digests = None       # per-op digests of the first pass
        self.unexpected = False

    def one_pass(self, traced: bool):
        self.reset()
        results = []
        if traced:
            self.tracer.install()
            first_span = len(self.tracer.spans)
        cpu0 = time.process_time()
        t_start = time.perf_counter()
        for i, op in enumerate(self.ops):
            if traced:
                self.tracer.begin_op(i)
            t0 = time.perf_counter()
            try:
                results.append((op.run(), None))
            except Exception as exc:  # an op failure is data, not a crash
                results.append((None, f"{type(exc).__name__}: {exc}"))
            t1 = time.perf_counter()
            if traced:
                self.tracer.end_op()
            if not traced:
                self.latencies.append(t1 - t0)
        wall = time.perf_counter() - t_start
        cpu = time.process_time() - cpu0
        if traced:
            self.tracer.uninstall()
            self.traced_walls.append(wall)
        else:
            self.walls.append(wall)
            self.cpus.append(cpu)
        rows = self.gate(results)
        if traced:
            self.layer.append(tracing.layer_metrics(self.tracer.spans[first_span:], rows))

    def gate(self, results) -> int:
        digests, rows = [], 0
        for i, (op, (result, error)) in enumerate(zip(self.ops, results)):
            digest = None
            reason = error
            if reason is None:
                try:
                    digest = op.digest(result)
                    rows += op.rows(result)
                    reason = op.check(result)
                except Exception as exc:
                    reason = f"check raised {type(exc).__name__}: {exc}"
            if reason is None and self.digests is not None and digest != self.digests[i]:
                reason = "output differs from the first pass"
            digests.append(digest)
            if reason is not None:
                entry = self.failures.setdefault(i, [reason, 0])
                entry[1] += 1
                if not op.expected_failure:
                    self.unexpected = True
        if self.digests is None:
            self.digests = digests
        return rows

    @property
    def attempted(self) -> int:
        return len(self.ops)

    @property
    def failed(self) -> int:
        return len(self.failures)


def run_passes(run: Run, seconds: float, trace: bool, setup: SetupTimer | None = None):
    """Passes until another one would end after `seconds`; with tracing,
    untraced and traced passes alternate and at least one of each runs.
    Set-up probes run between passes, off the passes' clock."""
    run.reset()
    try:  # warm-up: lazy imports, BLAS threads, allocator
        run.ops[0].run()
    except Exception:
        pass  # the timed passes record the failure
    t_begin = time.perf_counter()
    traced = False
    while True:
        run.one_pass(traced)
        elapsed = time.perf_counter() - t_begin
        if setup is not None:
            t_pause = time.perf_counter()
            setup.catch_up(elapsed / seconds)
            t_begin += time.perf_counter() - t_pause
        if trace:
            traced = not traced
            if not run.layer:
                continue
        if elapsed + statistics.median(run.walls + run.traced_walls) > seconds:
            return


def end_to_end(run: Run, setup_s: float, p_tail: float) -> dict:
    ms = [1e3 * t for t in run.latencies]
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(run.walls),
        "op_p50_ms": percentile(ms, 50.0),
        "op_tail_ms": percentile(ms, p_tail),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def layer_values(run: Run) -> dict:
    values = {name: statistics.median(p[name] for p in run.layer)
              for name, _, _ in tracing.PER_LAYER if name in run.layer[0]}
    wall_s, cpu_s = statistics.median(run.walls), statistics.median(run.cpus)
    values["proc.cpu_s"] = cpu_s
    values["proc.cpu_over_wall"] = cpu_s / wall_s
    values["trace.overhead_s"] = statistics.median(run.traced_walls) - wall_s
    return values


def run_workload(args) -> int:
    warnings.simplefilter("ignore")
    env = environment(args.seed)
    setup = None if args.trace else SetupTimer(args, 1 if args.small else SETUP_REPEATS)
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        ops, reset = workloads.build(args.workload, args.seed, workdir, args.small)
        tracer = tracing.Tracer() if args.trace else None
        run = Run(ops, reset, tracer)
        run_passes(run, args.seconds, args.trace, setup)
        setup_s = None if setup is None else setup.median()
        if tracer is not None:
            traces = WORK / "traces"
            traces.mkdir(parents=True, exist_ok=True)
            tracer.write(traces / f"{args.workload}-seed{args.seed}.csv")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    n_ops = len(run.latencies)
    p_tail = TAIL_PERCENTILE[args.workload]
    ops_beyond = int(n_ops * (100.0 - p_tail) / 100.0)
    if args.trace:
        values = layer_values(run)
        units = {name: unit for name, unit, _ in tracing.PER_LAYER}
    else:
        values = end_to_end(run, setup_s, p_tail)
        units = dict(END_TO_END)

    fail_ratio = run.failed / run.attempted
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(run.walls)} untraced / {len(run.traced_walls)} traced  "
          f"ops {n_ops}  tail percentile p{p_tail:g} ({ops_beyond} ops beyond)")
    for name, value in values.items():
        print(f"  {name:52s} {value:14.6g} {units[name]}")
    print(f"  {'fail_ratio':52s} {fail_ratio:14.6g} 1  ({run.failed} of {run.attempted} ops)")
    for i, (reason, count) in sorted(run.failures.items()):
        op = run.ops[i]
        tag = "expected" if op.expected_failure else "UNEXPECTED"
        print(f"  failed op {i} [{op.kind}, {tag}, {count} of {len(run.walls) + len(run.traced_walls)}"
              f" passes] {op.label}: {reason}")
    record = {
        "workload": args.workload, "env": env, "passes": len(run.walls),
        "pass_walls_s": [round(w, 4) for w in run.walls],
        "traced_passes": len(run.traced_walls), "ops": n_ops,
        "tail_percentile": p_tail, "ops_beyond_tail": ops_beyond, "fail_ratio": fail_ratio,
        "failures": [{"op": i, "kind": run.ops[i].kind, "input": run.ops[i].label,
                      "reason": reason, "failed_passes": count,
                      "expected": run.ops[i].expected_failure}
                     for i, (reason, count) in sorted(run.failures.items())],
        "digest": hashlib.sha256(json.dumps(run.digests).encode()).hexdigest()[:16],
        "op_digests": run.digests,
        "op_median_ms": [round(1e3 * statistics.median(run.latencies[i::len(run.ops)]), 4)
                         for i in range(len(run.ops))],
    }
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": not run.unexpected,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": float(v), "unit": units[name]} for name, v in values.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--small"] if args.small else [])
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(line for line in lines[:-1] if not line.startswith("record ")))
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for metric, v in res["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = v
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="smallest instance of the workload (self-check)")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "tuntime" / "__init__.py").is_file():
        print(f"error: tuntime sources not found at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload != "all" and args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)} or all", file=sys.stderr)
        return 2
    if args.setup_probe:
        return setup_probe(args)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
