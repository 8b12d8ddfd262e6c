"""pvbs benchmark: named workloads run through the `pvbs` CLI as fresh
processes, with every output checked against recorded references.

    python3 bench/run.py --workload gap --seed 0 --seconds 30 --trace 0

Run from the repository root; the program is taken from `src/`.

With `--trace 0` the run measures, with tracing off:

- setup_s: median wall time of SETUP_CALLS `pvbs info` invocations
  (interpreter start plus imports);
- wall_s: median wall time of one pass over the workload's invocations;
  passes repeat while the next one is expected to end within `--seconds`
  (at least one pass);
- cpu_s: median user plus system CPU time of a pass's child processes;
- peak_rss_mb: largest peak RSS of any workload child in the run.

The share of invocations that failed (non-zero exit or wrong output) is
printed as failed_frac and carried by the result's `failed`/`attempted`.

With `--trace 1` the run makes one untraced pass and two traced passes
(see tracer.py) and reports per-layer counts and self times, checking
that traced stdout is byte-identical to untraced stdout, that both
traced passes count the same work, and that the self times add up to no
more than the traced wall time.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics. BLAS threads are pinned to BLAS_THREADS in every child.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

import tracer
import workloads

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
HERE = os.path.dirname(os.path.abspath(__file__))
WORK = os.path.join(HERE, "_work")
TRACER = os.path.join(HERE, "tracer.py")

# fixed so that both sides of a comparison use the same count
BLAS_THREADS = min(2, os.cpu_count() or 1)
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_CALLS = 11
# every child is killed once the run is this old, to stay inside 180 s
DEADLINE_S = 170.0

# per-layer metrics taken from spans: wrapped function -> fields reported
SPAN_METRICS = {
    "spectra.lowest_eigenvalues": ("calls", "self_s"),
    "spectra.hamiltonian_norm": ("calls", "self_s"),
    "operators.assemble_sector_hamiltonian": ("calls", "self_s"),
    "fock.enumerate_sector": ("calls", "self_s"),
    "analytic.ground_state_vector": ("calls", "self_s"),
    "operators.ground_projector_action": ("calls", "self_s"),
    "operators.apply": ("calls", "self_s"),
    "operators.operator_norm_of_product": ("self_s",),
    "martingale.verify_condition_i": ("self_s",),
    "martingale.verify_condition_iii": ("total_s",),
    "martingale.compute_gamma_ell": ("total_s",),
    "lattice.edges": ("calls", "self_s"),
    "model.select_tilt": ("self_s",),
    "model.choose_ell": ("self_s",),
    "cli.cache_get": ("calls",),
    "cli.cache_put": ("calls", "self_s"),
    "cli.emit": ("self_s",),
}
COUNTERS = ("spectra.lowest_eigenvalues.dim_sum", "operators.nnz",
            "fock.states", "cli.cache_hits")


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PVBS_CACHE_DIR"}
    env["PYTHONPATH"] = SRC
    for key in BLAS_ENV:
        env[key] = str(BLAS_THREADS)
    return env


def pvbs_command(argv) -> list[str]:
    return [sys.executable, "-m", "pvbs.cli", *argv]


def require_program() -> None:
    if not os.path.isfile(os.path.join(SRC, "pvbs", "cli.py")):
        sys.exit("bench: src/pvbs not found; run from the repository root")


@dataclass
class Call:
    argv: tuple
    code: int
    stdout: str
    wall_s: float
    cpu_s: float
    rss_mb: float
    error: str | None = None


class Runner:
    """Runs child processes one at a time and counts failed invocations."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = child_env()
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self._n = 0

    def spawn(self, command: list[str], argv: tuple, check) -> Call:
        """Run `command` to completion; `check(stdout)` judges the output."""
        self._n += 1
        out_path = os.path.join(WORK, f"{self._n}.out")
        err_path = os.path.join(WORK, f"{self._n}.err")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(command, stdout=out, stderr=err,
                                    env=self.env, cwd=ROOT)
            timer = threading.Timer(
                max(self.deadline - time.monotonic(), 0.1), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path, encoding="utf-8", errors="replace") as fh:
            stdout = fh.read()
        call = Call(argv, proc.returncode, stdout, wall,
                    usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)
        if call.code != 0:
            with open(err_path, encoding="utf-8", errors="replace") as fh:
                tail = fh.read().strip().splitlines()[-1:]
            call.error = f"exit {call.code}: {' '.join(tail)}"
        else:
            call.error = check(stdout)
        self.attempted += 1
        if call.error:
            self.failed += 1
            self.errors.append(f"{' '.join(argv)} -> {call.error}")
        return call

    def pvbs(self, argv, check) -> Call:
        return self.spawn(pvbs_command(argv), argv, check)

    def traced(self, argv, check, spans_path: str) -> Call:
        command = [sys.executable, TRACER, spans_path, "--", *argv]
        return self.spawn(command, argv, check)

    def time_left(self) -> float:
        return self.deadline - time.monotonic()


def workload_pass(workload: str, seed: int, reference: dict, index: int):
    """The (argv, check) steps of one pass, with its own fresh cache."""
    cache = os.path.join(WORK, f"cache-{index}")
    os.makedirs(cache)
    return workloads.invocations(workload, seed, cache, reference)


def spans_path(index: int, step: int) -> str:
    return os.path.join(WORK, f"spans-{index}-{step}.json")


def measure(runner: Runner, workload: str, seed: int, seconds: float,
            reference: dict) -> tuple[dict, list[float]]:
    """End-to-end metrics with tracing off, and each pass's wall time."""
    runner.pvbs(workloads.INFO, workloads.check_info)  # compiles bytecode
    setup = [runner.pvbs(workloads.INFO, workloads.check_info).wall_s
             for _ in range(SETUP_CALLS)]
    passes: list[list[Call]] = []
    start = time.monotonic()
    while True:
        calls = [runner.pvbs(argv, check) for argv, check in
                 workload_pass(workload, seed, reference, len(passes))]
        passes.append(calls)
        elapsed = time.monotonic() - start
        per_pass = elapsed / len(passes)
        if elapsed + per_pass > seconds or runner.time_left() < 1.5 * per_pass:
            break
    walls = [sum(c.wall_s for c in p) for p in passes]
    return {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(sum(c.cpu_s for c in p) for p in passes),
        "peak_rss_mb": max(c.rss_mb for p in passes for c in p),
        "setup_s": statistics.median(setup),
    }, walls


def layer_metrics(summary: dict, counts: dict) -> dict:
    metrics = {}
    for name, fields in SPAN_METRICS.items():
        row = summary.get(name, {})
        for field in fields:
            metrics[f"{name}.{field}"] = row.get(field, 0)
    for key in COUNTERS:
        metrics[key] = counts.get(key, 0)
    gets = metrics["cli.cache_get.calls"]
    metrics["cli.cache_hit_ratio"] = metrics["cli.cache_hits"] / gets if gets else 0.0
    for layer in tracer.LAYERS:
        rows = [r for n, r in summary.items() if n.startswith(layer + ".")]
        metrics[f"{layer}.self_s"] = sum(r["self_s"] for r in rows)
        metrics[f"{layer}.errors"] = sum(r["errors"] for r in rows)
    return metrics


def trace(runner: Runner, workload: str, seed: int, reference: dict):
    """Per-layer metrics and self-check failures from two traced passes.

    Each untraced invocation is followed by its two traced runs, so that
    load on the machine affects both sides of the overhead alike.
    """
    runner.pvbs(workloads.INFO, workloads.check_info)  # compiles bytecode
    steps = zip(*(workload_pass(workload, seed, reference, index)
                  for index in range(3)))
    plain, traced = [], ([], [])
    for step, ((argv, check), *traced_steps) in enumerate(steps):
        plain.append(runner.pvbs(argv, check))
        for index, (argv, check) in enumerate(traced_steps):
            traced[index].append(
                runner.traced(argv, check, spans_path(index, step)))

    per_pass, problems = [], []
    for index, calls in enumerate(traced):
        spans, counts = [], {}
        for step, call in enumerate(calls):
            path = spans_path(index, step)
            if not os.path.isfile(path):
                problems.append(f"no spans written: {' '.join(call.argv)}")
                continue
            with open(path) as fh:
                data = json.load(fh)
            offset = len(spans)  # parent indices are local to one file
            for span in data["spans"]:
                if span[tracer.PARENT] >= 0:
                    span[tracer.PARENT] += offset
            spans.extend(data["spans"])
            for key, n in data["counts"].items():
                counts[key] = counts.get(key, 0) + n
        per_pass.append(layer_metrics(tracer.summarize(spans), counts))

    for calls in traced:
        for plain_call, call in zip(plain, calls):
            if call.stdout != plain_call.stdout:
                problems.append(f"traced stdout differs: {' '.join(call.argv)}")
    for key, value in per_pass[0].items():
        exact = key.endswith((".calls", ".errors")) or key in COUNTERS
        if exact and value != per_pass[1][key]:
            problems.append(f"traced passes disagree on {key}")
    for calls, metrics in zip(traced, per_pass):
        self_sum = sum(metrics[f"{layer}.self_s"] for layer in tracer.LAYERS)
        if self_sum > sum(c.wall_s for c in calls):
            problems.append("self times exceed the traced wall time")

    metrics = {}
    for key, value in per_pass[0].items():
        if isinstance(value, float):
            value = statistics.median([value, per_pass[1][key]])
        metrics[key] = value
    traced_wall = statistics.median(sum(c.wall_s for c in p) for p in traced)
    plain_wall = sum(c.wall_s for c in plain)
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.overhead_s"] = traced_wall - plain_wall
    return metrics, problems


def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, read from .git."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(ROOT, ".git", ref)
        if os.path.isfile(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_record() -> dict:
    os.environ.update({key: str(BLAS_THREADS) for key in BLAS_ENV})
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas,
            "blas_threads": BLAS_THREADS, "commit": git_commit()}


UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    require_program()
    reference = workloads.load_reference()

    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    runner = Runner(time.monotonic() + DEADLINE_S)
    problems: list[str] = []
    try:
        if args.trace:
            metrics, problems = trace(runner, args.workload, args.seed,
                                      reference)
            passes = "one untraced and two traced passes"
        else:
            metrics, walls = measure(runner, args.workload, args.seed,
                                     args.seconds, reference)
            passes = "pass wall times " + ", ".join(f"{w:.3f}" for w in walls)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    print("machine: " + json.dumps(machine_record(), sort_keys=True))
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{passes}")
    for name, value in metrics.items():
        print(f"  {name:48s} {value:>14.6g} {unit_of(name)}")
    print(f"  {'failed_frac':48s} {runner.failed / runner.attempted:>14.6g} "
          f"share ({runner.failed} of {runner.attempted} invocations)")
    for line in runner.errors + problems:
        print(f"  FAIL {line}")
    result = {
        "correct": runner.failed == 0 and not problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
