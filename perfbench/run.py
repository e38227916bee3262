#!/usr/bin/env python3
"""Benchmark of the cavitygates pipeline, end to end and per layer.

    python3 perfbench/run.py --workload verify-all --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40

Run from any directory of a source checkout; the package is imported
from the checkout's `src/`.  One caller, one thread, closed loop: each
operation starts when the previous one has been checked.  See README.md
for the metrics, the workloads and the held-out seed check.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  With --trace 0 the metrics are
the end-to-end ones, with --trace 1 the per-layer ones.  The exit code
is 1 if any output check failed.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads the library.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import contextlib
import importlib
import io
import json
import platform
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

#: Fresh interpreters timed for setup_s; the median is reported.
SETUP_REPS = 5
#: Fresh `cavitygates.cli verify all` processes timed per run.
CLI_REPS = 7
#: In-process cli.main calls timed for cli.overhead_ms.
CLI_OVERHEAD_REPS = 3
#: Rounds of each other workload's operation measured in every run, so
#: that every run reports every end-to-end metric.
SECONDARY_ROUNDS = {"verify-all": 21, "synthesize": 16, "random-compose": 30}
#: Fewest samples the workload's own operation gets in a run.
MIN_SAMPLES = 21
#: Operations whose layer call counts are reported, per workload: the
#: first traced round, or enough rounds to cover this many operations.
COUNT_OPS = {"verify-all": 1, "synthesize": 11, "random-compose": 20}
#: Stop the traced phase once this many spans are held in memory.
MAX_SPANS = 150_000
#: Seconds after which a child process is killed and counted as failed.
CHILD_TIMEOUT = 120
#: Reference operations timed between any two measured units of a run.
REFERENCE_CALLS = 3
#: Scale of the gated times: they are the times on a machine where
#: `reference_op` takes this long (about its fast-phase median on the
#: machine the bounds were set on).
REFERENCE_NS = 1_300_000

#: Per operation kind: metric name prefix, unit of its p50 and tail, ns
#: per unit, and the (name, unit) of its throughput metric.
E2E = {
    "verify-all": ("verify_all", "s", 1e9, None),
    "synthesize": ("synth", "ms", 1e6, ("synth_seq_per_s", "1/s")),
    "random-compose": ("compose", "ms", 1e6, ("compose_steps_per_s", "steps/s")),
}
#: The end-to-end metrics of the result line, which BENCHMARK.json gates.
#: synth_tail_ms and compose_tail_ms go to the detail line only: across
#: the steadiness runs they did not repeat within a tenth (README.md).
GATED = (
    "setup_s", "cli_verify_all_p50_s", "verify_all_p50_s", "verify_all_tail_s",
    "synth_p50_ms", "synth_seq_per_s", "compose_p50_ms", "compose_steps_per_s",
)


class Tally:
    """Operations attempted and failed in this run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def check_sources() -> None:
    if not (SRC / "cavitygates" / "__init__.py").is_file():
        fail(f"no cavitygates sources under {SRC}")
    sys.path.insert(0, str(SRC))


def import_package():
    cg = importlib.import_module("cavitygates")
    if Path(cg.__file__).resolve().parent != (SRC / "cavitygates").resolve():
        fail(f"imported cavitygates from {cg.__file__}, not from {SRC}")
    return cg


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


# -- statistics -----------------------------------------------------------

def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it: the
    eleventh largest sample, and the percentile it stands at."""
    ordered = sorted(samples)
    n = len(ordered)
    return ordered[n - 11], 100.0 * (n - 10) / n


def timing_metrics(kind: str, samples: list[tuple[int, int]]) -> tuple[dict, dict]:
    """End-to-end metrics of one operation kind from (ns, units) samples."""
    prefix, unit, ns_per_unit, rate = E2E[kind]
    ns = [t for t, _ in samples]
    value, pct = tail(ns)
    metrics = {
        f"{prefix}_p50_{unit}": (statistics.median(ns) / ns_per_unit, unit),
        f"{prefix}_tail_{unit}": (value / ns_per_unit, unit),
    }
    if rate:
        metrics[rate[0]] = (sum(u for _, u in samples) / (sum(ns) / 1e9), rate[1])
    return metrics, {"samples": len(ns), "tail_percentile": round(pct, 1)}


# -- reference speed --------------------------------------------------------

_SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)


def reference_op():
    """Fixed work of the kind the library does (8x8 complex algebra and
    interpreted Python), which does not touch the library.  Its speed
    follows the machine's, so dividing by it removes the machine's drift."""
    acc = np.eye(8, dtype=complex)
    for k in range(20):
        op = np.kron(np.kron(np.eye(2), _SIGMA_X), np.eye(2)) * (0.1 * k)
        w, v = np.linalg.eigh(op + op.conj().T)
        acc = (v * np.exp(-1j * w)) @ v.conj().T @ acc
    total = 0
    for i in range(3000):
        total += i * i % 7
    return acc, total


def reference_round() -> list[int]:
    times = []
    for _ in range(REFERENCE_CALLS):
        start = time.perf_counter_ns()
        reference_op()
        times.append(time.perf_counter_ns() - start)
    return times


# -- environment ----------------------------------------------------------

def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None
    when the checkout is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def blas() -> dict:
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": info.get("name"), "version": info.get("version")}
    except (TypeError, KeyError):
        return {"name": None, "version": None}


def environment(seed: int) -> dict:
    return {
        "cpu_model": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas(),
        "blas_threads": 1,
        "blas_threads_set": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "git_commit": git_commit(),
        "seed": seed,
    }


# -- in-process operations --------------------------------------------------

def timed_op(cg, wl, item, tally: Tally, trace: tracer.Tracer | None = None):
    """Prepare, time, and check one operation; returns its duration in ns."""
    args = wl.prepare(cg, item)
    result = None
    try:
        if trace:
            trace.begin()
        start = time.perf_counter_ns()
        try:
            result = wl.run(cg, args)
        finally:
            elapsed = time.perf_counter_ns() - start
            if trace:
                trace.end()
        ok = wl.check(cg, item, args, result)
    except Exception:
        traceback.print_exc()
        ok = False
    tally.add(ok)
    return elapsed


def run_round(cg, wl, seed: int, stream: str, index: int, tally: Tally, trace=None):
    """Run round `index` of a workload's inputs; returns (ns, units) samples."""
    return [(timed_op(cg, wl, item, tally, trace), wl.units(item))
            for item in wl.round(seed, stream, index)]


def cli_overhead_ms(cg, tally: Tally) -> float:
    """In-process cli.main(["verify", "all"]) minus the run_checks call
    inside it, median over CLI_OVERHEAD_REPS calls."""
    cli, verify = cg.cli, cg.verify
    original = verify.run_checks
    inner = []

    def timed_run_checks(target):
        start = time.perf_counter_ns()
        try:
            return original(target)
        finally:
            inner.append(time.perf_counter_ns() - start)

    overheads = []
    verify.run_checks = timed_run_checks
    try:
        for _ in range(CLI_OVERHEAD_REPS):
            out = io.StringIO()
            start = time.perf_counter_ns()
            with contextlib.redirect_stdout(out):
                code = cli.main(["verify", "all"])
            overheads.append(time.perf_counter_ns() - start - inner[-1])
            tally.add(code == 0 and cli_output_ok(out.getvalue()))
    finally:
        verify.run_checks = original
    return statistics.median(overheads) / 1e6


def cli_output_ok(text: str) -> bool:
    lines = text.splitlines()
    return sum(line.startswith("[PASS]") for line in lines) == 12 and not any(
        line.startswith("[FAIL]") for line in lines
    )


# -- child processes ----------------------------------------------------------

def cold_start(workload: str, seed: int, index: int) -> None:
    """Child process: time `import cavitygates` plus one cold operation
    (the index-th input of the set-up stream), numpy already imported."""
    check_sources()
    start = time.perf_counter()
    cg = importlib.import_module("cavitygates")
    imported = time.perf_counter() - start
    wl = WORKLOADS[workload]()
    per_round = len(wl.round(seed, "setup", 0))
    item = wl.round(seed, "setup", index // per_round)[index % per_round]
    tally = Tally()
    ns = timed_op(cg, wl, item, tally)
    print(json.dumps({"setup_s": imported + ns / 1e9, "ok": tally.failed == 0}))


def setup_once(workload: str, seed: int, index: int, tally: Tally) -> float | None:
    """setup_s of one fresh interpreter running `cold_start`."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--cold-start", str(index),
           "--workload", workload, "--seed", str(seed)]
    seconds = None
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT)
        sys.stderr.write(proc.stderr)
        if proc.returncode == 0:
            result = json.loads(proc.stdout.splitlines()[-1])
            if result["ok"]:
                seconds = result["setup_s"]
    except (subprocess.TimeoutExpired, ValueError, IndexError, KeyError) as exc:
        print(f"perfbench: set-up child failed: {exc!r}", file=sys.stderr)
    tally.add(seconds is not None)
    return seconds


def cli_once(tally: Tally) -> float | None:
    """Wall time of one fresh `python -m cavitygates.cli verify all` process."""
    seconds = None
    start = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, "-m", "cavitygates.cli", "verify", "all"],
                              cwd=ROOT, env=child_env(), capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT)
        elapsed = time.perf_counter() - start
        sys.stderr.write(proc.stderr)
        if proc.returncode == 0 and cli_output_ok(proc.stdout):
            seconds = elapsed
    except subprocess.TimeoutExpired as exc:
        print(f"perfbench: cli child failed: {exc!r}", file=sys.stderr)
    tally.add(seconds is not None)
    return seconds


# -- runs ---------------------------------------------------------------------

def warm_up(cg, seed: int, tally: Tally) -> dict:
    """One round of every operation kind, so caches are warm; not timed."""
    kinds = {name: cls() for name, cls in WORKLOADS.items()}
    for wl in kinds.values():
        run_round(cg, wl, seed, "warmup", 0, tally)
    return kinds


def untraced_run(cg, workload: str, seed: int, seconds: float, tally: Tally):
    """Measure every end-to-end metric within one window of `seconds`.

    The fixed-count units (set-up children, CLI children, rounds of the
    other workloads' operations) are spread evenly through the window,
    and rounds of the workload's own operation fill the time between
    them.  The machine's speed drifts over seconds to minutes, so
    reference operations run between any two units, and each unit's
    times are scaled by REFERENCE_NS over the median reference time
    around it.  Returns the scaled metrics; the unscaled ones go in the
    detail.
    """
    kinds = warm_up(cg, seed, tally)

    def child(measure):
        def run(index):
            value = measure(index)
            return [] if value is None else [(value * 1e9, 1)]
        return run

    def rounds(kind, stream):
        return lambda index: run_round(cg, kinds[kind], seed, stream, index, tally)

    tasks = {
        "setup": (SETUP_REPS, child(lambda i: setup_once(workload, seed, i, tally))),
        "cli": (CLI_REPS, child(lambda i: cli_once(tally))),
        **{kind: (SECONDARY_ROUNDS[kind], rounds(kind, "secondary"))
           for kind in kinds if kind != workload},
    }
    primary = rounds(workload, "primary")
    raw = {name: [] for name in (*tasks, workload)}
    scaled = {name: [] for name in raw}
    done = dict.fromkeys(tasks, 0)
    primary_round = 0
    before = reference_round()
    reference = list(before)
    start = time.perf_counter()
    while True:
        elapsed = (time.perf_counter() - start) / seconds
        # unit n of a task is due once the window is (n + 1/2)/quota through
        due = [name for name, (quota, _) in tasks.items()
               if done[name] < quota and done[name] + 0.5 <= quota * elapsed]
        if due:
            name = min(due, key=lambda name: done[name] / tasks[name][0])
            found = tasks[name][1](done[name])
            done[name] += 1
        elif elapsed < 1 or len(raw[workload]) < MIN_SAMPLES:
            name, found = workload, primary(primary_round)
            primary_round += 1
        else:
            break
        after = reference_round()
        reference += after
        scale = REFERENCE_NS / statistics.median(before + after)
        raw[name] += found
        scaled[name] += [(ns * scale, units) for ns, units in found]
        before = after

    metrics, detail = summarize(scaled)
    raw_metrics, _ = summarize(raw)
    detail["raw"] = {name: value for name, (value, _) in raw_metrics.items()}
    detail["reference_ms"] = statistics.median(reference) / 1e6
    detail["window_s"] = round(time.perf_counter() - start, 2)
    return metrics, detail


def summarize(samples: dict) -> tuple[dict, dict]:
    """End-to-end metrics from the (ns, units) samples of one run."""
    metrics, detail = {}, {}
    for kind in WORKLOADS:
        found, detail[kind] = timing_metrics(kind, samples[kind])
        metrics.update(found)
    for name, key in (("setup_s", "setup"), ("cli_verify_all_p50_s", "cli")):
        times = [ns for ns, _ in samples[key]]
        metrics[name] = (statistics.median(times) / 1e9 if times else float("nan"), "s")
    return metrics, detail


def traced_run(cg, workload: str, seed: int, seconds: float, tally: Tally):
    """Alternate untraced and traced rounds of the workload's operation,
    so that drift in machine speed affects both alike."""
    kinds = warm_up(cg, seed, tally)
    wl = kinds[workload]
    overhead_ms = cli_overhead_ms(cg, tally)
    trace = tracer.Tracer()
    per_round = len(wl.round(seed, "trace", 0))
    count_rounds = -(-COUNT_OPS[workload] // per_round)
    untraced, traced = [], []
    deadline = time.perf_counter() + seconds
    index = 0
    while index < count_rounds or (
        time.perf_counter() < deadline and len(trace.spans) < MAX_SPANS
    ):
        untraced += run_round(cg, wl, seed, "primary", index, tally)
        trace.install()
        try:
            traced += run_round(cg, wl, seed, "trace", index, tally, trace)
        finally:
            trace.uninstall()
        index += 1
    OUT.mkdir(exist_ok=True)
    trace.write(OUT / f"trace-{workload}-seed{seed}.jsonl")

    count_ops = set(range(count_rounds * per_round))
    found = tracer.layer_metrics(trace.spans, count_ops, len(traced))
    found["cli.overhead_ms"] = overhead_ms
    found["trace.overhead_frac"] = (
        statistics.median(t for t, _ in traced) / statistics.median(t for t, _ in untraced) - 1
    )
    units = dict(tracer.metric_names())
    metrics = {name: (value, units[name]) for name, value in found.items()}
    detail = {"rounds": index, "traced_samples": len(traced), "spans": len(trace.spans)}
    return metrics, detail


def run_workload(args) -> int:
    check_sources()
    cg = import_package()
    importlib.import_module("cavitygates.cli")
    print(json.dumps({"environment": environment(args.seed)}), flush=True)
    tally = Tally()
    if args.trace:
        metrics, detail = traced_run(cg, args.workload, args.seed, args.seconds, tally)
        names = [name for name, _ in tracer.metric_names()]
    else:
        metrics, detail = untraced_run(cg, args.workload, args.seed, args.seconds, tally)
        names = GATED
        detail["not_gated"] = {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items() if name not in GATED
        }
    detail["failed_frac"] = tally.failed / tally.attempted
    print(json.dumps({"detail": detail}), flush=True)
    correct = tally.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]} for name in names},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload, untraced then traced, as a table on stdout."""
    script = str(Path(__file__).resolve())
    code = 0
    for workload in WORKLOADS:
        results = {}
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, script, "--workload", workload, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True,
            )
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.splitlines()
            if proc.returncode not in (0, 1) or not lines:
                print(f"{workload}: run failed with exit code {proc.returncode}")
                return 2
            code = max(code, proc.returncode)
            results[trace] = (json.loads(lines[-2])["detail"], json.loads(lines[-1]))
        (detail, result), (_, traced) = results[0], results[1]
        print(f"== {workload}  seed {args.seed}  attempted {result['attempted']}  "
              f"failed {result['failed']}  correct {result['correct']}")
        rows = [("failed_frac", detail["failed_frac"], "frac", "")]
        rows += [(name, m["value"], m["unit"], "") for name, m in result["metrics"].items()]
        rows += [(name, m["value"], m["unit"], "not gated")
                 for name, m in detail["not_gated"].items()]
        overhead = traced["metrics"]["trace.overhead_frac"]
        rows.append(("trace.overhead_frac", overhead["value"], overhead["unit"], "traced run"))
        for name, value, unit, note in rows:
            print(f"   {name:24s} {value:<14.6g} {unit:8s} {note}")
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--cold-start", type=int, metavar="INDEX", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.cold_start is not None:
        cold_start(args.workload, args.seed, args.cold_start)
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
