"""Workloads of the pvbs benchmark and the oracle that checks their output.

Each workload is a fixed list of `pvbs` invocations, run closed loop, one
at a time, from a single client process. The seed only draws the `sweep`
lambda_a values and the order of invocations within a workload, from
pools whose outputs are recorded in `reference.json`; seed 0 gives the
canonical lists below. The program sees nothing but the generated argv.

Why these workloads:

- `gap` stresses the large-sector eigensolve. box:10 has dense sectors up
  to dimension 2520, where `spectra.lowest_eigenvalues` is most of the
  time; the 2D box:3x3 raises the share of Hamiltonian assembly.
- `sweep` stresses the per-sector overhead of many small problems (every
  sector dimension is at most a few hundred): assembly, the norm estimate
  and the analytic ground vector. A cold pass over 8 lambda_a values is
  followed by the same grid plus 2 more on the same cache, so the cli
  cache is read and written. A dense/Lanczos crossover that helps `gap`
  must not hurt here.
- `certify` stresses the matrix-free path: `verify-projection` at 3^10
  ambient states is almost all `operator_norm_of_product` and projector
  applies, with no sector eigensolve; the two certificates run the whole
  martingale pipeline (tilt, ell, seed gap, conditions (i) and (iii)).

Left out, on purpose:

- `gap` on box:12 and box:3x4: over a minute each at the time of writing,
  too long for the number of runs a comparison needs. Add them once the
  eigen layer makes them cheap.
- `sweep --workers 2`: it exits with a traceback (a local closure cannot
  be pickled), so it is excluded by name. Add it with the fix.
- The test-suite wall time: a cost of the tests, not a user workload.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import random

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

# Eigenvalues and analytic constants: far looser than a dense or Lanczos
# solve errs (about 1e-12 here), far tighter than the distance between
# the lowest levels of two different sectors.
EIG_RTOL = 1e-6
# ||G_slab E_n|| comes from a power iteration that stops about 9e-6
# (relative) below the converged value; leave room for a better solver.
NORM_RTOL = 1e-4

GAP_RUNS = (
    ("gap", "--lambda-a", "2", "--lambda-b", "1/2", "--volume", "box:10"),
    ("gap", "--lambda-a", "2,3", "--lambda-b", "1/2,1/2",
     "--volume", "box:3x3"),
)
CERTIFY_RUNS = (
    ("verify-projection", "--lambda-a", "10", "--lambda-b", "1/10",
     "--n", "9", "--ell", "7"),
    ("certify", "--lambda-a", "10", "--lambda-b", "1/10"),
    ("certify", "--lambda-a", "4", "--lambda-b", "1/4"),
)
SWEEP_LAMBDA_B = "1/2"
SWEEP_SIZES = (4, 5, 6, 7, 8)
# the first 8 are the cold grid at seed 0, the next 2 its extension
SWEEP_POOL = ("3/2", "2", "5/2", "3", "4", "5", "8", "10",
              "6", "1/3", "1/4", "2/3", "3/4", "2/5", "7/2", "3/5")
SWEEP_COLD, SWEEP_EXTRA = 8, 2

WORKLOADS = ("gap", "sweep", "certify")
INFO = ("info",)


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def run_key(argv) -> str:
    return " ".join(argv)


def sweep_argv(grid, cache_dir: str | None) -> tuple[str, ...]:
    argv = ("sweep", "--grid-a", ",".join(grid), "--lambda-b", SWEEP_LAMBDA_B,
            "--sizes", ",".join(map(str, SWEEP_SIZES)), "--format", "csv")
    return argv + ("--cache-dir", cache_dir) if cache_dir else argv


def invocations(workload: str, seed: int, cache_dir: str,
                reference: dict) -> list:
    """The workload's (argv, check) pairs for `seed`, in run order.

    `check(stdout)` returns None when the output is correct and a short
    reason otherwise. `cache_dir` must be fresh for every pass.
    """
    rng = random.Random(seed)
    if workload == "sweep":
        if seed == 0:
            values = list(SWEEP_POOL[:SWEEP_COLD + SWEEP_EXTRA])
        else:
            values = rng.sample(SWEEP_POOL, SWEEP_COLD + SWEEP_EXTRA)
        cold = values[:SWEEP_COLD]
        extended = list(values)
        if seed != 0:
            rng.shuffle(extended)
        points = reference["sweep"]["gap"]
        return [(sweep_argv(grid, cache_dir),
                 lambda out, grid=grid: check_sweep(out, grid, points))
                for grid in (cold, extended)]
    runs = {"gap": GAP_RUNS, "certify": CERTIFY_RUNS}[workload]
    runs = list(runs)
    if seed != 0:
        rng.shuffle(runs)
    return [(argv, lambda out, ref=reference["runs"][run_key(argv)]:
             check_json(out, ref)) for argv in runs]


def check_info(stdout: str) -> str | None:
    try:
        record = json.loads(stdout)
    except ValueError:
        return "info: stdout is not JSON"
    if not isinstance(record, dict) or "version" not in record:
        return "info: no version field"
    return None


# ---------------------------------------------------------------- oracle

def _mismatch(value, ref, path: str) -> str | None:
    """First difference between an output and its reference.

    Integers, flags and strings compare exactly; floats within EIG_RTOL,
    or NORM_RTOL under a key named `measured`. Keys absent from the
    reference are allowed, so that outputs may gain fields.
    """
    if isinstance(ref, dict):
        if not isinstance(value, dict):
            return f"{path}: expected an object"
        for key, item in ref.items():
            if key == "version":  # names library versions, not a result
                continue
            if key not in value:
                return f"{path}.{key}: missing"
            bad = _mismatch(value[key], item, f"{path}.{key}")
            if bad:
                return bad
        return None
    if isinstance(ref, list):
        if not isinstance(value, list) or len(value) != len(ref):
            return f"{path}: expected a list of {len(ref)}"
        for i, (item, ref_item) in enumerate(zip(value, ref)):
            bad = _mismatch(item, ref_item, f"{path}[{i}]")
            if bad:
                return bad
        return None
    if isinstance(ref, float) and not isinstance(value, bool) \
            and isinstance(value, (int, float)):
        rtol = NORM_RTOL if path.endswith(".measured") else EIG_RTOL
        if abs(value - ref) <= rtol * abs(ref):
            return None
        return f"{path}: {value!r} differs from {ref!r} beyond rtol {rtol:g}"
    if value != ref or type(value) is not type(ref):
        return f"{path}: {value!r} != {ref!r}"
    return None


def _conditions(record: dict) -> list:
    if "conditions" in record:
        return record["conditions"]
    return [record[k] for k in ("condition_i", "condition_iii") if k in record]


def check_json(stdout: str, ref: dict) -> str | None:
    try:
        record = json.loads(stdout)
    except ValueError:
        return "stdout is not JSON"
    bad = _mismatch(record, ref, "$")
    if bad:
        return bad
    if "kernel_total" in record and record["kernel_total"] != 4:
        return "kernel_total != 4"
    for cond in _conditions(record):
        if cond["pass"] is not True or not cond["measured"] <= cond["bound"]:
            return f"condition {cond['condition']} {cond['inputs']} fails"
    return None


def sweep_point(row: dict) -> tuple[str, int, float]:
    """(lambda_a, size, gap) of an ok sweep CSV row, read by header name;
    the size column is `L` or `size`."""
    if row["status"] != "ok":
        raise ValueError(f"sweep point failed: {row['status']}")
    size = row["size"] if "size" in row else row["L"]
    return row["lambda_a"], int(size), float(row["gap"])


def check_sweep(stdout: str, grid, points: dict) -> str | None:
    """CSV rows looked up by header name: one ok row per (lambda_a, size)."""
    want = {(la, size) for la in grid for size in SWEEP_SIZES}
    seen = set()
    for row in csv.DictReader(io.StringIO(stdout)):
        try:
            la, size, gap = sweep_point(row)
        except (KeyError, TypeError, ValueError):
            return f"sweep: malformed row {row}"
        key = (la, size)
        if key not in want or key in seen or row["lambda_b"] != SWEEP_LAMBDA_B:
            return f"sweep: unexpected row {row}"
        seen.add(key)
        ref = points[la][str(size)]
        if not math.isclose(gap, ref, rel_tol=EIG_RTOL, abs_tol=0.0):
            return f"sweep: gap {gap!r} at {key} differs from {ref!r}"
    if seen != want:
        return f"sweep: {len(want - seen)} points missing"
    return None
