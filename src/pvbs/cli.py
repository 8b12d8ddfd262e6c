"""Command-line front end: classification, gaps, certificates, lemma
checks, scaling studies, and cached parameter sweeps.

Output is canonical JSON (sorted keys, 17-significant-digit floats) so
identical invocations are byte-identical. Results go to stdout,
diagnostics and timings to stderr. Exit codes: 0 success, 2 input
validation, 3 budget or convergence failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import sys
import tempfile
import time
from fractions import Fraction

import numpy
import scipy
import scipy.sparse.linalg as spla

from . import __version__, analytic, fock, martingale, model, operators, spectra
from .lattice import (LatticeError, Volume, VolumeFamilySpec, build_box,
                      build_tilted_case1, build_tilted_case2)
from .model import ModelError, Params

VALIDATION_ERRORS = (ModelError, LatticeError, fock.FockError, ValueError)
BUDGET_ERRORS = (operators.OperatorError, spectra.SpectraError,
                 martingale.MartingaleError, spla.ArpackError)


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
    if isinstance(obj, Fraction):
        return json.dumps(str(obj))
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
    elif fmt == "csv":
        rows = record.get("rows")
        if rows is None:
            raise ValueError("csv format is only available for tabular output")
        cols = record["columns"]
        print(",".join(cols))
        for r in rows:
            print(",".join(dumps_canonical(r[c]).strip('"') for c in cols))
    elif fmt == "table":
        rows = record.get("rows")
        if rows is None:
            for k in sorted(record):
                print(f"{k}: {dumps_canonical(record[k])}")
        else:
            cols = record["columns"]
            print("  ".join(cols))
            for r in rows:
                print("  ".join(dumps_canonical(r[c]).strip('"') for c in cols))
    else:
        raise ValueError(f"unknown format {fmt!r}")


# ---------------------------------------------------------------- parsing

def parse_lambda(text: str) -> tuple[Fraction, ...]:
    """Comma-separated decimals/fractions, parsed exactly."""
    parts = [s.strip() for s in text.split(",") if s.strip()]
    if not parts:
        raise ValueError("empty parameter vector")
    return tuple(Fraction(s) for s in parts)


def parse_volume(text: str) -> Volume:
    """Volume spec: box:2x3, case1:v1,v2@L1xL2xL3, case2:@L1xL2."""
    kind, _, rest = text.partition(":")
    if kind == "box":
        dims = tuple(int(s) for s in rest.replace("x", ",").split(",") if s)
        return build_box(dims, label=text)
    if kind in ("case1", "case2"):
        v_txt, _, l_txt = rest.partition("@")
        v_tail = tuple(int(s) for s in v_txt.split(",") if s.strip())
        dims = tuple(int(s) for s in l_txt.replace("x", ",").split(",") if s)
        if not dims:
            raise ValueError("volume spec is missing extents after '@'")
        build = build_tilted_case1 if kind == "case1" else build_tilted_case2
        vol = build(v_tail, dims)
        return Volume(vol.dim, vol.sites, label=text)
    raise ValueError(f"unknown volume spec {text!r}")


def _params(args) -> Params:
    return Params(parse_lambda(args.lambda_a), parse_lambda(args.lambda_b))


# ---------------------------------------------------------------- cache

def cache_dir(args) -> str | None:
    return args.cache_dir or os.environ.get("PVBS_CACHE_DIR")


def cache_key(inputs: dict) -> str:
    payload = dumps_canonical({"inputs": inputs, "version": __version__})
    return hashlib.sha256(payload.encode()).hexdigest()


def cache_get(cdir: str | None, key: str, fields):
    """The record cached under key, or None on a miss. An entry that cannot
    be read, does not parse, or lacks one of `fields` is a miss too, so
    the caller recomputes it and overwrites the entry."""
    if not cdir:
        return None
    try:
        with open(os.path.join(cdir, key + ".json")) as fh:
            record = json.load(fh)
    except (OSError, ValueError):
        return None
    if not isinstance(record, dict) or set(record) != set(fields):
        return None
    return record


def cache_put(cdir: str | None, key: str, record: dict) -> None:
    if not cdir:
        return
    os.makedirs(cdir, exist_ok=True)
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
    return {"classification": model.classify_zd(p).value,
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
    p = _params(args)
    vol = parse_volume(args.volume)
    if vol.dim != p.dim:
        raise ModelError(
            f"volume dimension {vol.dim} != parameter dimension {p.dim}")
    rep = spectra.total_gap(vol, p, sector_cap=args.budget)
    out = rep.to_json()
    out["volume"] = args.volume
    out["sites"] = len(vol)
    return out


def cmd_certify(args) -> dict:
    p = _params(args)
    if args.dim is not None and args.dim != p.dim:
        raise ModelError(
            f"--dim {args.dim} contradicts parameter dimension {p.dim}")
    if model.classify_zd(p) is not model.GapClass.GAPPED:
        raise ModelError("certify requires gapped parameters")
    return martingale.certify(p, eta=args.eta, ell_cap=args.ell_cap,
                              gamma_budget=args.budget).to_json()


def cmd_verify_lemmas(args) -> dict:
    if args.trials < 1:
        raise ModelError(f"--trials must be at least 1, got {args.trials}")
    p = _params(args)
    t = model.select_tilt(p, eta=args.eta)
    rng = random.Random(args.seed)
    reports = []
    for _ in range(args.trials):
        j = rng.randrange(t.dim)
        ell = rng.randint(3, 8)
        n = rng.randint(ell, ell + 6)
        extents = tuple(rng.randint(2, 6) for _ in range(t.dim))
        fam = VolumeFamilySpec(t, extents, j, n, n - ell)
        reports.extend(check.to_json() for check in
                       analytic.check_product_bounds(t, fam))
        loga = t.log_tilde("a")[j]
        logb = t.log_tilde("b")[j]
        if loga * logb < 0:
            reports.append(analytic.check_diagonal_bound(t, fam).to_json())
        reports.extend(check.to_json() for check in
                       analytic.check_ratio_bounds(t, extents, j, n, ell))
    return {"trials": args.trials, "checks": len(reports),
            "all_pass": all(r["pass"] for r in reports),
            "reports": reports}


def cmd_verify_projection(args) -> dict:
    p = _params(args)
    t = model.select_tilt(p, eta=args.eta)
    pp = martingale.permuted_params(p, t)
    fam = martingale.sweep_family(t, args.j, args.ell, args.lead,
                                  upper=args.ell)
    rep_i = martingale.verify_condition_i(
        martingale.sweep_family(t, args.j, args.ell, 2 * args.ell,
                                upper=2 * args.ell),
        args.ell, 2 * args.ell)
    rep_iii = martingale.verify_condition_iii(fam, args.n, args.ell, pp)
    return {"condition_i": rep_i.to_json(),
            "condition_iii": rep_iii.to_json()}


def cmd_scaling(args) -> dict:
    p = _params(args)
    sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
    pts = spectra.gapless_scaling(p, sizes)
    return {"columns": ["size", "sites", "trial_energy", "numeric_gap"],
            "rows": [pt.to_json() for pt in pts]}


def _sweep_point(la_txt: str, lb_txt: str, size: int):
    p = Params(parse_lambda(la_txt), parse_lambda(lb_txt))
    vol = build_box((size,) * p.dim)
    rep = spectra.total_gap(vol, p)
    return {"lambda_a": la_txt, "lambda_b": lb_txt, "L": size,
            "gap": rep.gap, "status": "partial" if rep.partial else "ok"}


def cmd_sweep(args) -> dict:
    grid_a = [s.strip() for s in args.grid_a.split(",") if s.strip()]
    sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
    columns = ["lambda_a", "lambda_b", "L", "gap", "status"]
    cdir = cache_dir(args)
    rows = []
    hits = solves = 0
    for la in grid_a:
        for size in sizes:
            key = cache_key({"verb": "sweep-point", "lambda_a": la,
                             "lambda_b": args.lambda_b, "L": size})
            row = cache_get(cdir, key, columns)
            if row is not None:
                hits += 1
            else:
                try:
                    row = _sweep_point(la, args.lambda_b, size)
                except BUDGET_ERRORS + VALIDATION_ERRORS as exc:
                    row = {"lambda_a": la, "lambda_b": args.lambda_b,
                           "L": size, "gap": None, "status": f"failed: {exc}"}
                else:
                    cache_put(cdir, key, row)
                    solves += 1
            rows.append(row)
    rows.sort(key=lambda r: (r["lambda_a"], r["L"]))
    print(f"sweep: {hits} cache hits, {solves} solves", file=sys.stderr)
    return {"columns": columns, "rows": rows}


def cmd_info(_args) -> dict:
    return {
        "version": __version__,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
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

    def common(sp, lambdas=True):
        if lambdas:
            sp.add_argument("--lambda-a", required=True,
                            help="comma-separated decimals, one per dimension")
            sp.add_argument("--lambda-b", required=True)
        sp.add_argument("--format", choices=["json", "csv", "table"],
                        default="json")

    sp = sub.add_parser("classify", help="gapped/gapless classification")
    common(sp)

    sp = sub.add_parser("census", help="infinite-volume ground state census")
    common(sp)
    sp.add_argument("--region", choices=["zd", "halfspace", "orthant"],
                    default="zd")

    sp = sub.add_parser("gap", help="total spectral gap of a finite volume")
    common(sp)
    sp.add_argument("--volume", required=True,
                    help="box:2x3 | case1:v@LxL | case2:v@LxL")
    sp.add_argument("--budget", type=int, default=fock.DEFAULT_SECTOR_CAP)

    sp = sub.add_parser("certify", help="martingale-method gap certificate")
    common(sp)
    sp.add_argument("-d", "--dim", type=int, default=None)
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
    common(sp)
    sp.add_argument("--sizes", required=True, help="comma-separated box sizes")

    sp = sub.add_parser("sweep", help="gap over a parameter/size grid")
    sp.add_argument("--grid-a", required=True,
                    help="comma-separated lambda_a values")
    sp.add_argument("--lambda-b", required=True)
    sp.add_argument("--sizes", required=True)
    sp.add_argument("--format", choices=["json", "csv", "table"],
                    default="csv")
    sp.add_argument("--cache-dir", default=None)

    sp = sub.add_parser("info", help="caps, tolerances, seeds, versions")
    sp.add_argument("--format", choices=["json", "csv", "table"],
                    default="json")
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
    except BUDGET_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except VALIDATION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    elapsed = time.monotonic() - start
    emit(record, getattr(args, "format", "json"))
    print(f"{args.verb}: {elapsed:.2f}s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
