"""Command-line front end: classification, gaps, certificates, lemma
checks, scaling studies, and cached parameter sweeps.

Output is canonical JSON (sorted keys, 17-significant-digit floats) so
identical invocations are byte-identical; CSV rows of the tabular verbs
go through the `csv` module, which quotes a field that holds a comma.
Results go to stdout, diagnostics and timings to stderr. Sweep cache
entries are named by a SHA-256 from CPython's built-in module, so no
verb loads hashlib and with it OpenSSL. BLAS runs on one thread, set
before numpy loads, so neither the CPU time nor the output depends on the
caller's OPENBLAS_NUM_THREADS. Exit codes: 0 success, 2 on an
`InputError` (the input has no answer), 3 on a `ComputeError` (no
certificate at these settings, or a solve or check failed), 141
(128 + SIGPIPE) when the reader closes stdout before it is written.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import math
import os
import random
import re
import sys
import tempfile
import time

# BLAS runs on one thread, whatever the caller set. A second OpenBLAS
# thread gains no wall time on these matrices, busy-waits after every
# threaded call, and changes the last digits that `gap` prints on box:11
# and larger (see the README, "BLAS threads"). With one thread OpenBLAS
# starts no worker at all. It reads the count once, when numpy loads it,
# so it is set here, above `import numpy`; `pvbs/__init__`, `model` and
# `lattice` import no numpy.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy  # noqa: E402

from . import (ComputeError, InputError, __version__, analytic,  # noqa: E402
               fock, martingale, model, spectra)
from .lattice import (Volume, VolumeFamilySpec, build_box,  # noqa: E402
                      build_tilted, site_count)
from .model import Params  # noqa: E402

# import-time objects live as long as the process; no GC pass need scan them
gc.freeze()


# ---------------------------------------------------------------- output

def dumps_canonical(obj) -> str:
    """Deterministic JSON: sorted keys, floats at 17 significant digits."""
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, float):
        if obj != obj or obj in (float("inf"), float("-inf")):
            raise ValueError("non-finite float in output")
        if obj == int(obj) and abs(obj) < 1e16:
            return f"{obj:.1f}"
        return format(obj, ".17g")
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(dumps_canonical(x) for x in obj) + "]"
    if isinstance(obj, dict):
        items = sorted(obj.items())
        return "{" + ",".join(
            json.dumps(str(k)) + ":" + dumps_canonical(v)
            for k, v in items) + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def emit(record: dict, fmt: str) -> None:
    if fmt == "json":
        print(dumps_canonical(record))
    elif "rows" not in record:  # a table of one record
        for k in sorted(record):
            print(f"{k}: {dumps_canonical(record[k])}")
    else:  # csv, offered only by the tabular verbs, or a table of rows
        cols = record["columns"]
        lines = [cols] + [[dumps_canonical(r[c]).strip('"') for c in cols]
                          for r in record["rows"]]
        if fmt == "csv":
            import csv  # here, so that only csv output loads it
            csv.writer(sys.stdout, lineterminator="\n").writerows(lines)
        else:
            print("\n".join("  ".join(line) for line in lines))


# ---------------------------------------------------------------- parsing

# what int() accepts in base 10, so that a failure to read it can only be
# the interpreter's digit limit
_INT_LITERAL = re.compile(r"\s*[-+]?\d+(_\d+)*\s*")


def _listed(values: tuple, option: str) -> tuple:
    """values, or InputError naming the option that listed none."""
    if not values:
        raise InputError(f"{option} lists no values")
    return values


def parse_lambda(text: str, option: str) -> tuple[str, ...]:
    """The comma-separated decimals/fractions of a parameter vector, which
    `Params` parses exactly; InputError naming `option` if there are none."""
    return _listed(tuple(s.strip() for s in text.split(",") if s.strip()),
                   option)


def parse_ints(text: str, what: str) -> tuple[int, ...]:
    """The comma-separated integers of `text`, skipping empty entries;
    InputError naming `what` and the entry at fault, also for an integer
    written with more digits than int() reads (4300 by default)."""
    entries = [s for s in text.split(",") if s.strip()]
    values = []
    for i, entry in enumerate(entries, 1):
        try:
            values.append(int(entry))
        except ValueError:
            if not _INT_LITERAL.fullmatch(entry):
                raise InputError(f"{what} entry {i} is not an integer: "
                                 f"{entry.strip()[:20]!r}") from None
            digits = sum(c.isdigit() for c in entry)
            raise InputError(f"{what} entry {i} has {digits} digits, more "
                             f"than the {sys.get_int_max_str_digits()} an "
                             "integer may be written with") from None
    return tuple(values)


def parse_volume(text: str) -> Volume:
    """Volume spec: box:2x3, case1:v1,v2@L1xL2xL3, case2:@L1xL2."""
    kind, _, rest = text.partition(":")
    if kind == "box":
        v_txt, l_txt = "", rest
    elif kind in ("case1", "case2"):
        v_txt, _, l_txt = rest.partition("@")
    else:
        raise InputError(f"unknown volume spec {text!r}")
    if "," in l_txt:
        raise InputError(f"volume spec {text!r} separates its extents with "
                         "a comma, not with 'x'")
    l_txt = l_txt.replace("x", ",")
    # unlike --sizes, a volume spec skips no empty entry
    for what, entries in (("extent", l_txt), ("tilt", v_txt)):
        if entries.strip() and not all(s.strip() for s in entries.split(",")):
            raise InputError(f"volume spec {text!r} has an empty {what} "
                             "entry")
    dims = parse_ints(l_txt, "--volume extents")
    if not dims:
        raise InputError(f"volume spec {text!r} has no extents")
    # sector enumeration refuses a volume over the site limit, so refuse
    # it before building its sites; a non-positive extent is left to the
    # builders, whose message names it
    case = 2 if kind == "case2" else 1
    fock.check_site_count(site_count(case, dims))
    if kind == "box":
        return build_box(dims)
    return build_tilted(case, parse_ints(v_txt, "--volume vector"), dims)


def _params(args) -> Params:
    return Params(parse_lambda(args.lambda_a, "--lambda-a"),
                  parse_lambda(args.lambda_b, "--lambda-b"))


def _checked(option: str, check, *inputs):
    """check(*inputs), whose InputError is re-raised naming `option`."""
    try:
        return check(*inputs)
    except InputError as exc:
        raise InputError(f"{option}: {exc}") from None


def _eta(args) -> float:
    if not 0 <= args.eta < math.inf:
        raise InputError(f"--eta must be finite and nonnegative, "
                         f"got {args.eta}")
    return args.eta


def _budget(args) -> int:
    """--budget, clamped to the sector enumeration cap: a sector over
    either is skipped, never an error."""
    if args.budget < 1:
        raise InputError(f"--budget must be at least 1, got {args.budget}")
    return min(args.budget, fock.DEFAULT_SECTOR_CAP)


# ---------------------------------------------------------------- cache

def _unusable_cache(exc: OSError) -> str:
    """Why the operating system refused the sweep cache directory."""
    return f"--cache-dir is unusable as a sweep cache: {exc}"


@functools.cache
def _sha256():
    """CPython's built-in SHA-256, which hashlib also falls back to: hashlib
    itself would load OpenSSL for a few short strings. Looked up once, as
    a failed import searches sys.path again on every attempt."""
    try:
        from _sha2 import sha256  # Python 3.12 and later
    except ImportError:
        try:
            from _sha256 import sha256  # Python 3.10 and 3.11
        except ImportError:
            from hashlib import sha256
    return sha256


def cache_key(inputs: dict) -> str:
    payload = dumps_canonical({"inputs": inputs, "version": __version__})
    return _sha256()(payload.encode()).hexdigest()


def cache_get(cdir: str | None, key: str | None, point: dict):
    """The sweep row cached under key for `point`, or None on a miss: when
    the entry cannot be read or parsed, when its keys are not those of
    `point` plus gap and status or its values differ from `point`'s, or
    when its gap is neither a finite float nor null or its status is not
    a string. The caller then recomputes it and overwrites the entry."""
    if not cdir:
        return None
    try:
        with open(os.path.join(cdir, key + ".json")) as fh:
            record = json.load(fh)
    except (OSError, ValueError):
        return None
    if not (isinstance(record, dict)
            and set(record) == {*point, "gap", "status"}
            and all(type(record[k]) is type(v) and record[k] == v
                    for k, v in point.items())
            and (record["gap"] is None or isinstance(record["gap"], float)
                 and math.isfinite(record["gap"]))
            and isinstance(record["status"], str)):
        return None
    return record


def cache_put(cdir: str | None, key: str | None, record: dict) -> None:
    """Write `record` under key in the existing directory cdir, through a
    temporary file that is removed if the write fails."""
    if not cdir:
        return
    fd, tmp = tempfile.mkstemp(dir=cdir, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(dumps_canonical(record))
        os.replace(tmp, os.path.join(cdir, key + ".json"))
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# ---------------------------------------------------------------- verbs

def cmd_classify(args) -> dict:
    p = _params(args)
    return {"classification": model.classify_zd(p),
            "log_lambda_a": list(model.log_lambda(p, "a")),
            "log_lambda_b": list(model.log_lambda(p, "b"))}


def cmd_census(args) -> dict:
    p = _params(args)
    states = model.infinite_gs_census(args.region, p)
    out = {"region": args.region, "states": sorted(states)}
    if args.region == "orthant":
        out["c_a"] = model.c_orthant(p, "a")
        out["c_b"] = model.c_orthant(p, "b")
    return out


def cmd_gap(args) -> dict:
    """Floor-free `total_gap`: floors would print null for bounded sectors."""
    p = _params(args)
    vol = parse_volume(args.volume)
    if vol.dim != p.dim:
        raise InputError(
            f"volume dimension {vol.dim} != parameter dimension {p.dim}")
    record, _ = spectra.total_gap(vol, p, sector_cap=_budget(args))
    return {**record, "volume": args.volume, "sites": len(vol)}


def cmd_certify(args) -> dict:
    if args.ell_cap < 1:
        raise InputError(f"--ell-cap must be at least 1, got {args.ell_cap}")
    return martingale.certify(_params(args), eta=_eta(args),
                              ell_cap=args.ell_cap,
                              gamma_budget=_budget(args))


def cmd_verify_lemmas(args) -> dict:
    if args.trials < 1:
        raise InputError(f"--trials must be at least 1, got {args.trials}")
    p = _params(args)
    t = model.select_tilt(p, eta=_eta(args))
    rng = random.Random(args.seed)
    reports = []
    for _ in range(args.trials):
        j = rng.randrange(t.dim)
        ell = rng.randint(3, 8)
        n = rng.randint(ell, ell + 6)
        fam = VolumeFamilySpec(
            t, tuple(rng.randint(2, 6) for _ in range(t.dim)), j)
        reports.extend(analytic.check_product_bounds(fam, n - ell, n))
        loga = t.log_tilde("a")[j]
        logb = t.log_tilde("b")[j]
        if loga * logb < 0:
            reports.append(analytic.check_diagonal_bound(fam, n - ell, n))
        reports.extend(analytic.check_ratio_bounds(fam, n, ell))
    return {"trials": args.trials, "checks": len(reports),
            "all_pass": all(r["pass"] for r in reports),
            "reports": reports}


def cmd_verify_projection(args) -> dict:
    p = _params(args)
    if args.ell < 1:
        raise InputError(f"--ell must be at least 1, got {args.ell}")
    if args.n < args.ell:
        raise InputError(f"--n must be at least --ell, got --n {args.n} "
                         f"--ell {args.ell}")
    if not 0 <= args.j < p.dim:
        raise InputError(f"-j must be in 0..{p.dim - 1} for dimension "
                         f"{p.dim}, got {args.j}")
    if args.lead < 1:
        raise InputError(f"--lead must be at least 1, got {args.lead}")
    t = model.select_tilt(p, eta=_eta(args))
    return {"condition_i": martingale.verify_condition_i(t, args.j, args.ell),
            "condition_iii": martingale.verify_condition_iii(
                martingale.sweep_family(t, args.j, args.ell, args.lead),
                args.n, args.ell)}


def cmd_scaling(args) -> dict:
    p = _params(args)
    sizes = _listed(parse_ints(args.sizes, "--sizes"), "--sizes")
    if any(s > 0 and p.dim / s < sys.float_info.min for s in sizes):
        raise InputError("--sizes entries must keep the trial energy "
                         "d/size inside double range")
    return {"columns": ["size", "sites", "trial_energy", "numeric_gap"],
            "rows": spectra.gapless_scaling(p, sizes)}


def cmd_sweep(args) -> dict:
    grid_a = dict.fromkeys(parse_lambda(args.grid_a, "--grid-a"))
    lambda_b = parse_lambda(args.lambda_b, "--lambda-b")
    if len(lambda_b) != 1:
        raise InputError("--lambda-b must list one value: every sweep point "
                         "is a chain")
    lambda_b = _checked("--lambda-b", Params, lambda_b, lambda_b).lambda_b
    sizes = sorted(set(_listed(parse_ints(args.sizes, "--sizes"), "--sizes")))
    # each input is checked once, before the cache or any volume: a point
    # with no answer exits 2, so every row is an answer
    params = {la: _checked("--grid-a", Params, (la,), lambda_b)
              for la in grid_a}
    for size in sizes:
        if size < 2:
            raise InputError(f"--sizes: a chain's gap needs >= 2 sites, "
                             f"got {size}")
        _checked("--sizes", fock.check_site_count, size)
    columns = ["lambda_a", "lambda_b", "L", "gap", "status"]
    cdir = args.cache_dir
    if cdir:
        try:
            os.makedirs(cdir, exist_ok=True)
        except OSError as exc:
            raise InputError(_unusable_cache(exc)) from None
    rows, todo = [], []  # todo: each lambda_a's Params and points to solve
    hits = solves = solved = bounded = 0
    for la, p in params.items():
        wanted = {}
        for size in sizes:
            point = {"lambda_a": la, "lambda_b": args.lambda_b, "L": size}
            key = cache_key({"verb": "sweep-point", **point}) if cdir else None
            row = cache_get(cdir, key, point)
            if row is None:
                wanted[size] = point, key
            else:
                hits += 1
                rows.append(row)
        if wanted:
            todo.append((p, wanted))
    # one climb, one length at a time, takes every lambda_a left to solve
    # to the longest size that any of them has to solve
    chains = [build_box((n,)) for n in sorted({n for _, w in todo for n in w})]
    for v, records in spectra.climb([p for p, _ in todo], chains):
        for (_, wanted), rec in zip(todo, records):
            if len(v) not in wanted:
                continue
            point, key = wanted[len(v)]
            # a partial row keeps the upper bound in its gap column
            row = {**point, "gap": rec.get("gap_upper_bound", rec["gap"]),
                   "status": "partial" if rec["partial"] else "ok"}
            try:
                cache_put(cdir, key, row)
            except OSError as exc:
                raise InputError(_unusable_cache(exc)) from None
            rows.append(row)
            solves += 1
            # a bounded sector is the only unskipped one left without a
            # value: ground sectors have a kernel, others an excitation
            low = sum(s["lowest_excited"] is None and not s["kernel"]
                      and not s["skipped"] for s in rec["sectors"])
            bounded += low
            solved += sum(not s["skipped"] for s in rec["sectors"]) - low
    rows.sort(key=lambda r: (r["lambda_a"], r["L"]))
    print(f"sweep: {hits} cache hits, {solves} solves, {solved} sectors "
          f"solved, {bounded} bounded", file=sys.stderr)
    return {"columns": columns, "rows": rows}


def cmd_info(_args) -> dict:
    return {
        "version": __version__,
        "numpy": numpy.__version__,
        "dense_cap": spectra.DENSE_CAP,
        "sector_cap": fock.DEFAULT_SECTOR_CAP,
        "gamma_budget": martingale.DEFAULT_GAMMA_BUDGET,
        "eta": model.DEFAULT_ETA,
        "ell_cap": model.DEFAULT_ELL_CAP,
        "kernel_tol_rel": spectra.KERNEL_TOL_REL,
        "lanczos_seed": spectra.LANCZOS_SEED,
    }


# ------------------------------------------------------------- dispatch

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="pvbs",
        description="Two-species PVBS models: gaps and gap certificates.")
    sub = ap.add_subparsers(dest="verb", required=True)
    # csv needs rows, which only the tabular verbs (scaling, sweep) print
    text, tabular = ["json", "table"], ["json", "csv", "table"]

    def common(sp, formats=text):
        sp.add_argument("--lambda-a", required=True,
                        help="comma-separated decimals, one per dimension")
        sp.add_argument("--lambda-b", required=True)
        sp.add_argument("--format", choices=formats, default="json")

    sp = sub.add_parser("classify", help="gapped/gapless classification")
    common(sp)

    sp = sub.add_parser("census", help="infinite-volume ground state census")
    common(sp)
    sp.add_argument("--region", choices=["zd", "orthant"],
                    default="zd")

    sp = sub.add_parser("gap", help="total spectral gap of a finite volume")
    common(sp)
    sp.add_argument("--volume", required=True,
                    help="box:2x3 | case1:v@LxL | case2:v@LxL")
    sp.add_argument("--budget", type=int, default=fock.DEFAULT_SECTOR_CAP)

    sp = sub.add_parser("certify", help="martingale-method gap certificate")
    common(sp)
    sp.add_argument("--eta", type=float, default=model.DEFAULT_ETA)
    sp.add_argument("--ell-cap", type=int, default=model.DEFAULT_ELL_CAP)
    sp.add_argument("--budget", type=int,
                    default=martingale.DEFAULT_GAMMA_BUDGET)

    sp = sub.add_parser("verify-lemmas",
                        help="randomized normalization-bound checks")
    common(sp)
    sp.add_argument("--trials", type=int, default=25)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--eta", type=float, default=model.DEFAULT_ETA)

    sp = sub.add_parser("verify-projection",
                        help="measure ||G_slab E_n|| vs the analytic bound")
    common(sp)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--ell", type=int, required=True)
    sp.add_argument("-j", type=int, default=0, help="sweep direction (0-based)")
    sp.add_argument("--lead", type=int, default=2)
    sp.add_argument("--eta", type=float, default=model.DEFAULT_ETA)

    sp = sub.add_parser("scaling", help="gapless trial energies vs box size")
    common(sp, tabular)
    sp.add_argument("--sizes", required=True, help="comma-separated box sizes")

    sp = sub.add_parser("sweep", help="gap over a parameter/size grid")
    sp.add_argument("--grid-a", required=True,
                    help="comma-separated lambda_a values")
    sp.add_argument("--lambda-b", required=True)
    sp.add_argument("--sizes", required=True)
    sp.add_argument("--format", choices=tabular, default="csv")
    sp.add_argument("--cache-dir", default=None)

    sp = sub.add_parser("info", help="caps, tolerances, seeds, versions")
    sp.add_argument("--format", choices=text, default="json")
    return ap


VERBS = {
    "classify": cmd_classify,
    "census": cmd_census,
    "gap": cmd_gap,
    "certify": cmd_certify,
    "verify-lemmas": cmd_verify_lemmas,
    "verify-projection": cmd_verify_projection,
    "scaling": cmd_scaling,
    "sweep": cmd_sweep,
    "info": cmd_info,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    verb = VERBS[args.verb]
    start = time.monotonic()
    try:
        record = verb(args)
    except (InputError, ComputeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, InputError) else 3
    elapsed = time.monotonic() - start
    if sys.stdout is None:  # started with fd 1 closed: as a closed pipe
        return 141
    try:
        emit(record, getattr(args, "format", "json"))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout: point it at devnull, so that the
        # interpreter's flush at exit cannot fail again (the "Note on
        # SIGPIPE" in Python's `signal` docs), and exit 128 + SIGPIPE, as
        # a shell reports a process that SIGPIPE ended
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    print(f"{args.verb}: {elapsed:.2f}s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
