"""Per-layer spans for one pvbs CLI invocation, recorded from outside the package.

Run as

    python3 bench/tracer.py SPANS.json -- <pvbs arguments>

with `src` on PYTHONPATH. The script imports pvbs in its own process,
wraps every public function of each layer module, runs `pvbs.cli.main`
on the arguments and writes the spans and counters to SPANS.json. Stdout
and the exit code are the program's own, so a traced invocation can be
compared byte for byte with an untraced one.

The package calls its functions through module globals and through names
bound by `from ... import` (operators and martingale import `edges`,
martingale imports `select_tilt` and `choose_ell`, cli dispatches through
the `VERBS` table). A wrapper is therefore installed under every name, in
every pvbs module namespace and module-level dict, that refers to the
original function; otherwise those calls would go uncounted.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

LAYERS = ("cli", "lattice", "model", "fock", "operators", "analytic",
          "spectra", "martingale")

# span fields, stored as lists to keep the per-call cost low
NAME, START, END, PARENT, ERROR = range(5)


class Tracer:
    """Spans (name, start, end, parent index, raised) and named counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + int(n)

    def wrap(self, name: str, fn, after=None):
        """`fn` recording one span per call; `after(args, kwargs, result)`
        runs once the span has ended."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, False]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[ERROR] = True
                raise
            finally:
                span[END] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced


def _hooks(tracer: Tracer) -> dict:
    """Counters taken at layer boundaries, keyed by wrapped function."""

    def wrap_apply(args, kwargs, action):
        # each projector apply is one span; en_projector_action's apply
        # calls two of these, so only ground projector applies are counted
        action.apply = tracer.wrap("operators.apply", action.apply)

    return {
        "spectra.lowest_eigenvalues": lambda a, k, r: tracer.count(
            "spectra.lowest_eigenvalues.dim_sum",
            (a[0] if a else k["h"]).shape[0]),
        "operators.assemble_sector_hamiltonian": lambda a, k, r: tracer.count(
            "operators.nnz", r.nnz),
        "fock.enumerate_sector": lambda a, k, r: tracer.count(
            "fock.states", r.dim),
        "cli.cache_get": lambda a, k, r: tracer.count(
            "cli.cache_hits", r is not None),
        "operators.ground_projector_action": wrap_apply,
    }


def install(tracer: Tracer) -> None:
    """Replace every reference to a public layer function with its wrapper."""
    package = importlib.import_module("pvbs")
    modules = [importlib.import_module(f"pvbs.{layer}") for layer in LAYERS]
    hooks = _hooks(tracer)
    wrapped = {}
    for layer, mod in zip(LAYERS, modules):
        for name, fn in vars(mod).items():
            if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                    and not name.startswith("_")):
                key = f"{layer}.{name}"
                wrapped[id(fn)] = tracer.wrap(key, fn, hooks.get(key))

    def replacement(value):
        if inspect.isfunction(value):
            return wrapped.get(id(value))
        return None

    for mod in (package, *modules):
        namespace = vars(mod)
        for name, value in list(namespace.items()):
            if name.startswith("__"):
                continue
            new = replacement(value)
            if new is not None:
                namespace[name] = new
            elif isinstance(value, dict):
                for key, item in value.items():
                    new = replacement(item)
                    if new is not None:
                        value[key] = new


def summarize(spans: list) -> dict:
    """Per span name: calls, total seconds, self seconds and errors.

    Self time is a span's duration minus the time its child spans cover;
    the program is single-threaded, so children never overlap.
    """
    covered = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            covered[span[PARENT]] += span[END] - span[START]
    out: dict[str, dict] = {}
    for i, span in enumerate(spans):
        duration = span[END] - span[START]
        row = out.setdefault(span[NAME], {"calls": 0, "total_s": 0.0,
                                          "self_s": 0.0, "errors": 0})
        row["calls"] += 1
        row["total_s"] += duration
        row["self_s"] += duration - covered[i]
        row["errors"] += bool(span[ERROR])
    return out


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py SPANS.json -- <pvbs arguments>", file=sys.stderr)
        return 2
    tracer = Tracer()
    install(tracer)
    cli = importlib.import_module("pvbs.cli")
    try:
        code = cli.main(argv[2:])
    except SystemExit as exc:  # argparse rejects its input this way
        code = exc.code
    finally:
        sys.stdout.flush()
        with open(argv[0], "w") as fh:
            json.dump({"spans": tracer.spans, "counts": tracer.counts}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
