"""Record the benchmark's reference outputs from the current checkout.

    python3 bench/record.py

Run from the repository root. Runs every gap and certify invocation and
one sweep over the whole lambda_a pool, and writes bench/reference.json.
Re-record only when a change is meant to alter the program's results,
and say so where the change is described.
"""

from __future__ import annotations

import csv
import io
import json
import os
import subprocess
import sys

import run
import workloads


def pvbs(argv) -> str:
    proc = subprocess.run(run.pvbs_command(argv), env=run.child_env(),
                          capture_output=True, text=True, check=True)
    return proc.stdout


def main() -> int:
    run.require_program()
    runs = {workloads.run_key(argv): json.loads(pvbs(argv))
            for argv in workloads.GAP_RUNS + workloads.CERTIFY_RUNS}
    argv = workloads.sweep_argv(workloads.SWEEP_POOL, None)
    points: dict[str, dict[str, float]] = {}
    for row in csv.DictReader(io.StringIO(pvbs(argv))):
        la, size, gap = workloads.sweep_point(row)
        points.setdefault(la, {})[str(size)] = gap
    reference = {"runs": runs,
                 "sweep": {"lambda_b": workloads.SWEEP_LAMBDA_B,
                           "sizes": list(workloads.SWEEP_SIZES),
                           "gap": points}}
    with open(workloads.REFERENCE_PATH, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {os.path.relpath(workloads.REFERENCE_PATH)}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
