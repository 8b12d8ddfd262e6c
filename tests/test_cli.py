import argparse
import csv
import errno
import functools
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pvbs import (ComputeError, InputError, analytic, cli, fock, martingale,
                  model, operators, spectra)
from pvbs.lattice import build_box
from strategies import chain_params


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify(capsys):
    code, out, _ = run_cli(capsys, "classify", "--lambda-a", "1,1",
                           "--lambda-b", "2,3")
    assert code == 0
    assert json.loads(out)["classification"] == "gapless"


def test_classify_validation_error(capsys):
    code, _, err = run_cli(capsys, "classify", "--lambda-a", "0",
                           "--lambda-b", "2")
    assert code == 2
    assert "error" in err


def test_gap_box(capsys):
    code, out, _ = run_cli(capsys, "gap", "--volume", "box:3",
                           "--lambda-a", "2", "--lambda-b", "0.5")
    assert code == 0
    rec = json.loads(out)
    assert rec["kernel_total"] == 4
    assert rec["gap"] > 0
    assert not rec["partial"]
    assert "gap_upper_bound" not in rec


def test_gap_partial_is_upper_bound(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, "gap", "--volume", "box:6", "--lambda-a",
                           "2", "--lambda-b", "1/2", "--budget", "10")
    assert code == 0
    rec = json.loads(out)
    assert rec["partial"] is True
    assert rec["kernel_total"] == 3
    assert rec["gap"] is None
    solved = [s["lowest_excited"] for s in rec["sectors"]
              if s["lowest_excited"] is not None]
    assert rec["gap_upper_bound"] == min(solved)
    # a sweep point whose record is partial is labelled so: ground sector
    # (1,1) has 30 states, and no floor bounds a ground sector
    monkeypatch.setattr(spectra, "total_gap", functools.partial(
        spectra.total_gap, sector_cap=10))
    code, out, _ = run_cli(capsys, "sweep", "--grid-a", "2",
                           "--lambda-b", "1/2", "--sizes", "6",
                           "--format", "json")
    assert code == 0
    [row] = json.loads(out)["rows"]
    assert row["status"] == "partial"
    assert row["gap"] == rec["gap_upper_bound"]


def test_gap_dimension_mismatch(capsys):
    code, _, _ = run_cli(capsys, "gap", "--volume", "box:2x2",
                         "--lambda-a", "2", "--lambda-b", "0.5")
    assert code == 2


# invalid inputs whose exit-2 message must name the option or spec at fault
NAMED_IN_MESSAGE = {
    ("verify-projection", "--lambda-a", "10", "--lambda-b", "1/10",
     "--n", "7", "--ell", "-1"): "--ell must be at least 1",
    ("verify-projection", "--lambda-a", "10", "--lambda-b", "1/10",
     "--n", "2", "--ell", "7"): "--n must be at least --ell",
    ("verify-projection", "--lambda-a", "10", "--lambda-b", "1/10",
     "--n", "7", "--ell", "7", "-j", "1"): "-j must be in 0..0",
    ("verify-projection", "--lambda-a", "10,10", "--lambda-b", "1/10,1/10",
     "--n", "7", "--ell", "7", "-j", "-1"): "-j must be in 0..1",
    ("verify-projection", "--lambda-a", "10", "--lambda-b", "1/10",
     "--n", "7", "--ell", "7", "--lead", "0"): "--lead must be at least 1",
    ("gap", "--lambda-a", "2", "--lambda-b", "1/2",
     "--volume", "box:"): "volume spec 'box:' has no extents",
    ("sweep", "--grid-a", ",", "--lambda-b", "1/2",
     "--sizes", "3"): "--grid-a lists no values",
    ("sweep", "--grid-a", "2", "--lambda-b", "1/2",
     "--sizes", ","): "--sizes lists no values",
    ("scaling", "--lambda-a", "1", "--lambda-b", "2",
     "--sizes", ","): "--sizes lists no values",
    ("certify", "--lambda-a", "10", "--lambda-b", "1/10",
     "--ell-cap", "0"): "--ell-cap must be at least 1",
    ("certify", "--lambda-a", "10", "--lambda-b", "1/10",
     "--ell-cap", "-1"): "--ell-cap must be at least 1",
    ("classify", "--lambda-a", ",", "--lambda-b", "2"):
        "--lambda-a lists no values",
    ("sweep", "--grid-a", "2", "--lambda-b", ",",
     "--sizes", "3"): "--lambda-b lists no values",
    ("sweep", "--grid-a", "2", "--lambda-b", "1/2,1/2",
     "--sizes", "3"): "--lambda-b must list one value",
    # every sweep point shares --lambda-b, so a bad one is no row's fault
    ("sweep", "--grid-a", "2", "--lambda-b", "0", "--sizes", "3"):
        "--lambda-b: parameters must be strictly positive",
    ("sweep", "--grid-a", "2", "--lambda-b", "-1", "--sizes", "3"):
        "--lambda-b: parameters must be strictly positive",
    ("sweep", "--grid-a", "2", "--lambda-b", "abc", "--sizes", "3"):
        "--lambda-b: cannot parse parameter 'abc'",
    ("sweep", "--grid-a", "2", "--lambda-b", "1e400", "--sizes", "3"):
        "--lambda-b: parameter ~1e+400 is outside double range",
    # 2 / 10^2500 underflows, and 10^5000 sites could not be printed
    ("scaling", "--lambda-a", "1,1", "--lambda-b", "2,3",
     "--sizes", "2," + "1" + "0" * 2500): "--sizes entries must keep",
    # int() reads at most 4300 digits; the interpreter limit stays
    ("scaling", "--lambda-a", "1,1", "--lambda-b", "2,3",
     "--sizes", "2," + "1" + "0" * 5000):
        "--sizes entry 2 has 5001 digits, more than the 4300",
    ("sweep", "--grid-a", "2", "--lambda-b", "1/2",
     "--sizes", "1" + "0" * 5000 + ",3"):
        "--sizes entry 1 has 5001 digits, more than the 4300",
    ("gap", "--lambda-a", "2,3", "--lambda-b", "1/2,1/2",
     "--volume", "box:3x1" + "0" * 5000):
        "--volume extents entry 2 has 5001 digits, more than the 4300",
    ("gap", "--lambda-a", "2,3", "--lambda-b", "1/2,1/2",
     "--volume", "case1:1,z@3x3"): "--volume vector entry 2 is not an "
                                   "integer: 'z'",
}


@pytest.mark.parametrize("argv", [
    ("gap", "--lambda-a", "2", "--lambda-b", "1/2", "--volume", "box:1"),
    ("scaling", "--lambda-a", "2", "--lambda-b", "1/2", "--sizes", "2,3"),
    ("scaling", "--lambda-a", "1", "--lambda-b", "2", "--sizes", "0,2"),
    ("gap", "--lambda-a", "2", "--lambda-b", "1/2", "--volume", "box:4",
     "--budget", "0"),
    ("gap", "--lambda-a", "2", "--lambda-b", "1/2", "--volume", "box:4",
     "--budget", "-5"),
    ("verify-lemmas", "--lambda-a", "2", "--lambda-b", "1/2",
     "--trials", "-1"),
    ("verify-lemmas", "--lambda-a", "2", "--lambda-b", "1/2",
     "--trials", "0"),
    # parameters outside double range: overflow, a NaN edge block, log(0)
    ("classify", "--lambda-a", "1e400", "--lambda-b", "2"),
    ("gap", "--lambda-a", "1e400", "--lambda-b", "1/2", "--volume", "box:4"),
    ("certify", "--lambda-a", "1e400", "--lambda-b", "1/2"),
    ("scaling", "--lambda-a", "1e400", "--lambda-b", "1", "--sizes", "2"),
    ("gap", "--lambda-a", "1e200", "--lambda-b", "1/2", "--volume", "box:4"),
    ("classify", "--lambda-a", "1e-400", "--lambda-b", "2"),
    # inside double range, but a normalization sum or c~^(3/2) is not
    ("verify-lemmas", "--lambda-a", "1e154", "--lambda-b", "1/2",
     "--trials", "2"),
    ("certify", "--lambda-a", "1e-154", "--lambda-b", "1e154"),
    # a zero denominator
    ("classify", "--lambda-a", "1/0", "--lambda-b", "2"),
    ("gap", "--lambda-a", "2", "--lambda-b", "1/0", "--volume", "box:4"),
    # an orthant constant 1/(1 - lambda^2) ~ 5e399
    ("census", "--region", "orthant", "--lambda-a",
     f"{10 ** 400 - 1}/{10 ** 400}", "--lambda-b", "1/2"),
    # eta must be finite and nonnegative
    ("certify", "--lambda-a", "10", "--lambda-b", "1/10", "--eta", "nan"),
    ("certify", "--lambda-a", "10", "--lambda-b", "1/10", "--eta", "-1"),
    ("verify-lemmas", "--lambda-a", "2", "--lambda-b", "1/2",
     "--eta", "nan"),
    ("verify-lemmas", "--lambda-a", "2", "--lambda-b", "1/2",
     "--eta", "-1"),
    ("certify", "--lambda-a", "10", "--lambda-b", "1/10", "--eta", "inf"),
    ("verify-projection", "--lambda-a", "10", "--lambda-b", "1/10",
     "--n", "7", "--ell", "7", "--eta", "nan"),
    # the certificate's seed-gap budget, like gap's, must be at least 1
    ("certify", "--lambda-a", "10", "--lambda-b", "1/10", "--budget", "0"),
    ("certify", "--lambda-a", "10", "--lambda-b", "1/10", "--budget", "-4"),
    # integers and parameter vectors that do not parse
    ("gap", "--lambda-a", "2", "--lambda-b", "1/2", "--volume", "box:a"),
    ("gap", "--lambda-a", "2", "--lambda-b", "1/2", "--volume", "case1:x@2"),
    ("scaling", "--lambda-a", "1", "--lambda-b", "2", "--sizes", "2,x"),
    ("sweep", "--grid-a", "2", "--lambda-b", "1/2", "--sizes", "3,y"),
    ("classify", "--lambda-a", "", "--lambda-b", "2"),
    *NAMED_IN_MESSAGE,
])
def test_invalid_input_is_validation_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: " + NAMED_IN_MESSAGE.get(argv, ""))


# one small valid invocation per verb
SMALL_ARGV = {
    "classify": ("--lambda-a", "2", "--lambda-b", "1/2"),
    "census": ("--region", "orthant", "--lambda-a", "1/2",
               "--lambda-b", "1/3"),
    "gap": ("--lambda-a", "2", "--lambda-b", "1/2", "--volume", "box:3"),
    "certify": ("--lambda-a", "10", "--lambda-b", "1/10"),
    "verify-lemmas": ("--lambda-a", "2", "--lambda-b", "1/2",
                      "--trials", "2"),
    "verify-projection": ("--lambda-a", "10", "--lambda-b", "1/10",
                          "--n", "7", "--ell", "7"),
    "scaling": ("--lambda-a", "1", "--lambda-b", "2", "--sizes", "2,3"),
    "sweep": ("--grid-a", "2", "--lambda-b", "1/2", "--sizes", "3"),
    "info": (),
}


def _verb_formats():
    """(verb, format) for every --format choice each verb's parser offers."""
    [sub] = [a for a in cli.build_parser()._actions
             if isinstance(a, argparse._SubParsersAction)]
    for verb in cli.VERBS:
        [fmt] = [a for a in sub.choices[verb]._actions if a.dest == "format"]
        for choice in fmt.choices:
            yield verb, choice


@pytest.mark.parametrize("verb,fmt", list(_verb_formats()))
def test_every_offered_format_exits_cleanly(capsys, verb, fmt):
    # a format a verb offers must print its record, never a traceback
    try:
        code = cli.main([verb, *SMALL_ARGV[verb], "--format", fmt])
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr().out
    assert code == 0
    assert out


def test_eigensolver_failure(capsys, monkeypatch):
    # one restart cycle of 20 Lanczos vectors does not converge the
    # sectors of box:8 with 560 states, above the dense cap
    monkeypatch.setattr(spectra, "LANCZOS_MAX_CYCLES", 1)
    code, out, err = run_cli(capsys, "gap", "--lambda-a", "10",
                             "--lambda-b", "0.1", "--volume", "box:8")
    assert code == 3
    assert out == ""
    assert err.startswith("error: Lanczos did not converge in 1 restart")
    # sweep sectors are small enough for the dense path; a zero dense cap
    # sends them to Lanczos, which converges on them in one cycle, so no
    # cycle at all is allowed
    monkeypatch.setattr(spectra, "DENSE_CAP", 0)
    monkeypatch.setattr(spectra, "LANCZOS_MAX_CYCLES", 0)
    code, out, err = run_cli(capsys, "sweep", "--grid-a", "2",
                             "--lambda-b", "2", "--sizes", "3",
                             "--format", "json")
    assert code == 3
    assert out == ""
    assert err == "error: Lanczos did not converge in 0 restart cycles\n"


def test_lanczos_residual_failure(capsys, monkeypatch, perturbed_lanczos):
    monkeypatch.setattr(spectra, "DENSE_CAP", 0)
    code, out, err = run_cli(capsys, "gap", "--volume", "box:4",
                             "--lambda-a", "2", "--lambda-b", "1/2")
    assert code == 3
    assert out == ""
    assert err.startswith("error: Lanczos eigenpair residual")
    code, out, err = run_cli(capsys, "sweep", "--grid-a", "2",
                             "--lambda-b", "2", "--sizes", "3",
                             "--format", "json")
    assert code == 3
    assert out == ""
    assert err.startswith("error: Lanczos eigenpair residual")


def test_a_wrong_analytic_ground_vector_exits_3(capsys, monkeypatch):
    # the true ground vector rolled by one state is no kernel vector
    real = analytic.ground_state_vector
    monkeypatch.setattr(analytic, "ground_state_vector",
                        lambda p, basis: np.roll(real(p, basis), 1))
    code, out, err = run_cli(capsys, "gap", "--volume", "box:4",
                             "--lambda-a", "2", "--lambda-b", "1/2")
    assert code == 3
    assert out == ""
    assert err.startswith(
        "error: analytic ground vector fails in sector (0,1): residual")


# prints the modules a fresh interpreter has imported and the files it
# has mapped (on Linux) after running the verbs of `argvs`
LOADED_SCRIPT = """
import contextlib, io, json, os, sys
argvs = {argvs}
if argvs:
    from pvbs import cli
for argv in argvs:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
maps = set()
if os.path.exists("/proc/self/maps"):
    with open("/proc/self/maps") as fh:
        maps = {{os.path.basename(line.split()[-1]) for line in fh
                 if len(line.split()) > 5}}
print(json.dumps([sorted(sys.modules), sorted(maps)]))
"""
FOOTPRINT_ARGVS = [
    ["info"],
    ["gap", "--lambda-a", "2", "--lambda-b", "1/2", "--volume", "box:8"],
    ["verify-projection", "--lambda-a", "10", "--lambda-b", "1/10",
     "--n", "7", "--ell", "7"],
    ["certify", "--lambda-a", "10", "--lambda-b", "1/10"],
]
# what the answers of those verbs never use: scipy (the tests' oracle),
# numpy.random, and hashlib with OpenSSL, since the sweep cache key takes
# the interpreter's built-in SHA-256
UNUSED = ("scipy", "numpy.random", "hashlib", "_hashlib")
UNMAPPED = ("libcrypto", "libssl", "_hashlib")


def _child_env(**preset):
    """The environment of a fresh interpreter that runs this checkout's
    pvbs, with `preset` on top."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    return dict(os.environ, PYTHONPATH=src, **preset)


def _loaded(argvs):
    done = subprocess.run(
        [sys.executable, "-c", LOADED_SCRIPT.format(argvs=argvs)],
        env=_child_env(), capture_output=True, text=True, check=True)
    modules, maps = json.loads(done.stdout)
    return set(modules), set(maps)


# prints whether numpy is loaded once pvbs is, whether the library modules
# wrote to the environment, and the BLAS thread count pvbs.cli leaves
ORDER_SCRIPT = """
import json, os, sys
before = dict(os.environ)
import pvbs
numpy_loaded = "numpy" in sys.modules
from pvbs import (analytic, fock, lattice, martingale, model, operators,
                  spectra)
library_wrote = dict(os.environ) != before
import pvbs.cli
print(json.dumps([numpy_loaded, library_wrote,
                  os.environ.get("OPENBLAS_NUM_THREADS")]))
"""


@pytest.mark.parametrize("unbuffered", [None, "1"],
                         ids=["buffered", "unbuffered"])
def test_a_closed_stdout_exits_141_without_a_traceback(unbuffered):
    # the reader of the pipe is gone before the verb writes; a pipe's
    # stdout is block-buffered unless PYTHONUNBUFFERED is set, and then
    # fails only at the flush
    env = _child_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "pvbs.cli", "classify", "--lambda-a", "2",
             "--lambda-b", "1/2"],
            env=env, stdout=write, stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write)
    assert "Traceback" not in done.stderr
    assert "Exception ignored" not in done.stderr
    assert done.returncode == 141


def test_a_process_started_without_stdout_flushes_nothing():
    # with fd 1 closed at start-up, Python's sys.stdout is None
    done = subprocess.run(
        f"{sys.executable} -m pvbs.cli classify --lambda-a 2 "
        "--lambda-b 1/2 >&-", shell=True, env=_child_env(),
        stderr=subprocess.PIPE, text=True)
    assert "Traceback" not in done.stderr


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_process_started_without_stdout_exits_141(fmt):
    # no reader gets the record, whether csv would write it through a
    # writer object or json through print
    done = subprocess.run(
        f"{sys.executable} -m pvbs.cli scaling --lambda-a 1 --lambda-b 2 "
        f"--sizes 2,3 --format {fmt} >&-", shell=True, env=_child_env(),
        stderr=subprocess.PIPE, text=True)
    assert (done.returncode, done.stderr) == (141, "")


@pytest.mark.parametrize("preset", [{}, {"OPENBLAS_NUM_THREADS": "2"}],
                         ids=["unset", "preset-2"])
def test_cli_pins_blas_to_one_thread_before_numpy_loads(preset):
    # OpenBLAS reads the thread count once, when numpy loads it; `python -m
    # pvbs.cli` and the `pvbs` script both import the package first, so
    # that import must not load numpy
    env = _child_env(**preset)
    if not preset:
        env.pop("OPENBLAS_NUM_THREADS", None)
    done = subprocess.run([sys.executable, "-c", ORDER_SCRIPT], env=env,
                          capture_output=True, text=True, check=True)
    assert json.loads(done.stdout) == [False, False, "1"]


def test_gap_stdout_does_not_depend_on_the_callers_blas_threads():
    # on box:11 a second BLAS thread changes the last digits of the
    # Lanczos values, unless pvbs.cli pins one thread
    argv = [sys.executable, "-m", "pvbs.cli", "gap", "--lambda-a", "2",
            "--lambda-b", "1/2", "--volume", "box:11"]
    one, two = (subprocess.run(argv, env=_child_env(OPENBLAS_NUM_THREADS=n),
                               capture_output=True, text=True, check=True)
                for n in ("1", "2"))
    assert one.stdout == two.stdout


def test_cli_leaves_no_blas_worker_spinning():
    """An idle OpenBLAS worker that busy-waits after `import numpy` adds
    about 0.13 s of CPU to a process whose main thread works alone; with
    the one BLAS thread that pvbs.cli pins, the CPU time stays within the
    wall time. A loaded machine only widens the wall time."""
    if not hasattr(os, "wait4"):
        pytest.skip("needs os.wait4 for the child's CPU time")
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pytest.skip("numpy does not name its BLAS")
    if "openblas" not in str(blas.get("name", "")).lower():
        pytest.skip("numpy's BLAS is not OpenBLAS")
    start = time.perf_counter()
    child = subprocess.Popen([sys.executable, "-m", "pvbs.cli", "info"],
                             env=_child_env(OPENBLAS_NUM_THREADS="2"),
                             stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(child.pid, 0)
    wall = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)
    assert child.returncode == 0
    assert usage.ru_utime + usage.ru_stime <= wall + 0.05


def test_program_imports_no_scipy(tmp_path):
    # a fresh interpreter, since the test process imports scipy for its
    # oracles; box:8 has sectors above the dense cap, so Lanczos runs too
    sweep = ["sweep", "--grid-a", "2,3", "--lambda-b", "1/2",
             "--sizes", "3,4", "--cache-dir", str(tmp_path)]
    bare_modules, bare_maps = _loaded([])
    # a cold sweep solves and writes every point, a warm one reads them
    modules, maps = _loaded(FOOTPRINT_ARGVS + [sweep, sweep])
    assert len(os.listdir(tmp_path)) == 4
    assert not [m for m in modules - bare_modules
                if any(m == u or m.startswith(u + ".") for u in UNUSED)]
    assert not [f for f in maps - bare_maps
                if any(f.startswith(u) for u in UNMAPPED)]


@pytest.mark.parametrize("builtin", [True, False])
def test_cache_key_matches_hashlib(monkeypatch, builtin):
    # the built-in SHA-256 and hashlib's, which cache_key falls back to
    # where neither _sha2 (3.12 and later) nor _sha256 can be imported
    real, calls = hashlib.sha256, []

    def spy(data):
        calls.append(data)
        return real(data)

    if not builtin:
        monkeypatch.setitem(sys.modules, "_sha2", None)
        monkeypatch.setitem(sys.modules, "_sha256", None)
    monkeypatch.setattr(hashlib, "sha256", spy)
    # a fresh lookup under these imports; the process's own comes back after
    monkeypatch.setattr(cli, "_sha256",
                        functools.cache(cli._sha256.__wrapped__))
    for inputs in ({}, {"verb": "sweep-point", "lambda_a": "2",
                        "lambda_b": "1/2", "L": 4},
                   {"lambda_a": "1e-154", "text": "\u03bb,\n\"x\""},
                   {"n": list(range(1000))}):
        payload = cli.dumps_canonical({"inputs": inputs,
                                       "version": cli.__version__}).encode()
        assert cli.cache_key(inputs) == real(payload).hexdigest()
    assert len(calls) == (0 if builtin else 4)


def test_cache_file_names_are_pinned(capsys, tmp_path):
    # a sweep cache entry is named by the SHA-256 of its canonical inputs
    point = {"lambda_a": "2", "lambda_b": "1/2", "L": 4}
    digest = ("b9fc35fc9c5d7e6e2cd84784215ebd80"
              "3e2dc01e19731afcb01afffd6d6bba57")
    assert cli.cache_key({"verb": "sweep-point", **point}) == digest
    code, _, _ = run_cli(capsys, "sweep", "--grid-a", "2", "--lambda-b",
                         "1/2", "--sizes", "4", "--cache-dir", str(tmp_path))
    assert code == 0
    assert os.listdir(tmp_path) == [digest + ".json"]


def test_certify_d1(capsys):
    code, out, _ = run_cli(capsys, "certify",
                           "--lambda-a", "10", "--lambda-b", "0.1")
    assert code == 0
    rec = json.loads(out)
    assert rec["ell"] == 7
    assert rec["final_bound"] > 0
    assert all(c["pass"] for c in rec["conditions"])
    assert rec["version"].startswith("pvbs ")
    assert "scipy" not in rec["version"]
    # the dimension is that of the parameter vectors; there is no -d
    with pytest.raises(SystemExit):
        cli.main(["certify", "-d", "1", "--lambda-a", "10",
                  "--lambda-b", "0.1"])


def test_budget_above_the_sector_cap_skips_sectors(capsys, monkeypatch):
    # a sector over the enumeration cap is skipped like one over --budget,
    # so a larger --budget never turns a partial report into an error
    monkeypatch.setattr(fock, "DEFAULT_SECTOR_CAP", 10)
    gap = ("gap", "--lambda-a", "2", "--lambda-b", "1/2", "--volume", "box:4")
    code, out, _ = run_cli(capsys, *gap, "--budget", "10")
    assert code == 0
    assert json.loads(out)["partial"] is True
    assert run_cli(capsys, *gap, "--budget", "100")[:2] == (0, out)
    # the certificate's seed sectors (90090 states at ell = 13) are over
    # the cap and its default budget, condition (iii)'s are within both
    monkeypatch.setattr(fock, "DEFAULT_SECTOR_CAP", 10_000)
    code, out, _ = run_cli(capsys, "certify", "--lambda-a", "2",
                           "--lambda-b", "1/2")
    assert code == 0
    rec = json.loads(out)
    assert rec["gamma_ell"] == "symbolic"
    assert any("(dimension 90090)" in note for note in rec["notes"])
    assert all(c["pass"] for c in rec["conditions"])


def test_certify_d3_leaves_the_seed_symbolic(capsys):
    # ell = 10: the seed volume has 1000 sites, and its largest sector
    # (334 a's, 333 b's) is noted exactly
    code, out, _ = run_cli(capsys, "certify", "--lambda-a", "2,3,4",
                           "--lambda-b", "1/2,1/2,1/2")
    assert code == 0
    rec = json.loads(out)
    assert rec["ell"] == 10
    assert rec["gamma_ell"] == rec["final_bound"] == "symbolic"
    worst = fock.sector_dimension(1000, 334, 333)
    assert f"(dimension {worst})" in rec["notes"][0]


@pytest.mark.parametrize("la,lb,case", [
    ("2,3,4,5", "1/2,1/2,1/2,1/2", 1),
    ("2,1,1", "1,3,1", 2),
    ("2,1,1,1", "1,3,1,1", 2),
])
def test_certify_d3_and_d4_end_to_end(capsys, la, lb, case):
    # condition (i) in closed form: a Case-1 tilt with a zero tilt
    # integer, or a Case-2 tilt, puts some edge in ell slabs in every
    # direction
    code, out, _ = run_cli(capsys, "certify", "--lambda-a", la,
                           "--lambda-b", lb)
    assert code == 0
    rec = json.loads(out)
    d, ell = len(la.split(",")), rec["ell"]
    assert rec["tilt"]["case"] == case
    cond_i = [c for c in rec["conditions"] if c["condition"] == "i"]
    assert [c["inputs"]["j"] for c in cond_i] == list(range(d))
    assert all(c["measured"] == c["bound"] == ell for c in cond_i)
    assert all(c["pass"] for c in rec["conditions"])
    if d == 4 and case == 1:
        assert rec["notes"][0].endswith("(dimension 10^4767.1)")


@pytest.mark.parametrize("la,lb,dimension", [
    # 4768 digits, past 4300: the power of ten
    ("2,3,4,5", "1/2,1/2,1/2,1/2", r"10\^4767\.1"),
    # 1143 digits: the exact integer
    ("4,4,4,4", "1/4,1/4,1/4,1/4", r"[1-9]\d{1142}"),
], ids=["power-of-ten", "exact"])
def test_certify_note_does_not_depend_on_the_int_str_limit(la, lb,
                                                           dimension):
    # the interpreter's int-to-str limit, 4300 digits unless
    # PYTHONINTMAXSTRDIGITS sets it (0 lifts it), must not move the note
    argv = [sys.executable, "-m", "pvbs.cli", "certify", "--lambda-a", la,
            "--lambda-b", lb]
    outs = []
    for limit in (None, "0", "640"):
        env = _child_env()
        env.pop("PYTHONINTMAXSTRDIGITS", None)
        if limit:
            env["PYTHONINTMAXSTRDIGITS"] = limit
        outs.append(subprocess.run(argv, env=env, capture_output=True,
                                   text=True, check=True).stdout)
    assert outs[1] == outs[0] == outs[2]
    note = json.loads(outs[0])["notes"][0]
    assert re.fullmatch(rf".*\(dimension {dimension}\)", note)


def test_certify_notes_a_huge_seed_dimension_as_a_power_of_ten(
        capsys, monkeypatch):
    # 10^5000 has more digits than the 4300 that a note writes in full,
    # but the 7-site seed's log-gammas put its largest sector, (3, 2), far
    # below the cut-off past which only the power of ten is computed
    real = fock.sector_dimension
    monkeypatch.setattr(fock, "sector_dimension", lambda n, n_a, n_b: (
        10 ** 5000 if (n, n_a, n_b) == (7, 3, 2) else real(n, n_a, n_b)))
    code, out, _ = run_cli(capsys, "certify", "--lambda-a", "10",
                           "--lambda-b", "1/10")
    assert code == 0
    rec = json.loads(out)
    assert rec["ell"] == 7
    assert rec["notes"][0] == (
        "seed gap left symbolic: largest particle sector exceeds the "
        "eigensolver budget (dimension 10^5000.0)")


# sha256 of `verify-lemmas --trials 25` stdout, recorded before the
# analytic checks took a sweep family and its cuts: about 200 bound
# reports of pure-Python floats each, in d = 1, d = 2 (Case 2) and d = 3
LEMMA_DIGESTS = {
    ("2", "1/2", "0"):
        "ffd1c637e2799ce8076df52923c3f539096ffb1d65d4ab115a1fcc4f7564b9e3",
    ("2", "1/2", "1"):
        "a0ab96ffad1caeffef7b3530b72b59f21c99815007bf7e524e93e30804c96abf",
    ("2,1", "1,1/2", "0"):
        "f201a13ad405ffd11cac00d05ed454578992e4fc590f8b6cee743142139312a2",
    ("2,1", "1,1/2", "1"):
        "4e3561db6e851b4be637020370217a4bc2e87a251a3572d6cccb5b903f9f1904",
    ("2,3,1/2", "1/2,1/2,3", "0"):
        "82b649a3b3e3500b333c65bfb9fca7577cc931f1121e6f80e91acb5c05e50e0c",
    ("2,3,1/2", "1/2,1/2,3", "1"):
        "dab65fc55af7e58d39aac902050ba80eba6a4d588c6d632ac16e9c76ac77ab82",
}


@pytest.mark.parametrize("la,lb,seed", list(LEMMA_DIGESTS))
def test_verify_lemmas_stdout_is_pinned(capsys, la, lb, seed):
    code, out, _ = run_cli(capsys, "verify-lemmas", "--lambda-a", la,
                           "--lambda-b", lb, "--trials", "25", "--seed", seed)
    assert code == 0
    assert json.loads(out)["all_pass"] is True
    assert hashlib.sha256(out.encode()).hexdigest() == \
        LEMMA_DIGESTS[la, lb, seed]


# sha256 of stdout, recorded while each verb still built its record from a
# class of its own (`gap`, `sweep` and the d = 4 `certify` while the gap
# report and the symbolic seed were still classes), with numpy's version,
# which a certificate names, set to "0.0.0"; the floats of eigensolves and
# norm iterations are those of numpy 2.4 on OpenBLAS with one thread
VERB_DIGESTS = {
    ("gap", "--volume", "box:4", "--lambda-a", "2", "--lambda-b", "0.5"):
        "b0628ac861b46d0115e6aa8fa30f1da7fdc6321b0c92296354afc6bf93be702f",
    ("gap", "--volume", "box:10", "--lambda-a", "2", "--lambda-b", "1/2"):
        "31e32198e1a43e621da47b917635491557bf0930d917d67e2cc2114476d6c2d4",
    ("gap", "--volume", "box:3x3", "--lambda-a", "2,3",
     "--lambda-b", "1/2,1/2"):
        "a6eed33623939188da136e3e4de243567a3cdec82f923fcb528fbaf0ca79ec5d",
    # partial: sectors over 100 states are skipped
    ("gap", "--volume", "box:9", "--lambda-a", "2", "--lambda-b", "1/2",
     "--budget", "100"):
        "5877095e3d64814136327f0d10450e8e0631cc2886c45bc6f5556db4b3ca02d4",
    ("gap", "--volume", "box:8", "--lambda-a", "2", "--lambda-b", "2",
     "--format", "table"):
        "c25d95bf05dbe74ae6d9b393a411418b63bf44054c62360e3d2fc5b83aba179c",
    # failed rows (bad lambda_a, fewer than 2 sites, over 39) beside ok ones
    ("sweep", "--grid-a", "2,0,x", "--lambda-b", "1/2",
     "--sizes", "1,0,-2,4,40"):
        "92aa674d0c3219ca3f4fdf75d8206098f2e0cbd12fbefa42eb3ed246d365609f",
    # the seed is left symbolic, noted as "dimension 10^4767.1"
    ("certify", "--lambda-a", "2,3,4,5", "--lambda-b", "1/2,1/2,1/2,1/2"):
        "b9ce26da7f0b1d2ef65e2d183c19393af2a2aff0b71a13989092a3edbec8f29f",
    ("certify", "--lambda-a", "10", "--lambda-b", "1/10"):
        "91dd5d5328d29e323c8931e4df54b939d2bea3adddc1dbf210b3ab2c61d02cb4",
    ("certify", "--lambda-a", "4", "--lambda-b", "1/4"):
        "f400054af09eae2adcbf1ef20c08191e031a2ba39b14ac1d9e4348d6bc152e0a",
    ("certify", "--lambda-a", "2", "--lambda-b", "1/2"):
        "c5dcc2f776c90bc8abb79f895467dedf241cadc8f1524f11828e8c1c11ced93d",
    ("certify", "--lambda-a", "2,3", "--lambda-b", "1/2,1/2"):
        "111e59505942d19cddab7267c04c8749936ffee0871fcb4746d0861f441f24a4",
    ("certify", "--lambda-a", "10,10", "--lambda-b", "1/10,1/10"):
        "0c0559430817aa6a85e5c371e20f6f3951f7b20502db988fc3a1f6de2c5e280e",
    ("verify-projection", "--lambda-a", "10", "--lambda-b", "1/10",
     "--n", "9", "--ell", "7"):
        "56e7d0d2e74c94aab21e7aae5312c0ccdea36117176524cfef078de006bf3241",
    ("scaling", "--lambda-a", "1", "--lambda-b", "2", "--sizes", "2,3,4,6"):
        "484f3ddff2ac4e2e8b8cd7ad046a1a9cbbe63456b3a21c6d6a6688310ad9df8e",
    ("scaling", "--lambda-a", "1", "--lambda-b", "2", "--sizes", "2,3,4,6",
     "--format", "csv"):
        "c633853c69093c961c56c1d351b02c4a2984fadadf602682115ce1cdf3fc2e08",
    # d >= 2 boxes, recorded while each was still solved without floors
    ("scaling", "--lambda-a", "1,1", "--lambda-b", "2,3", "--sizes", "2,3"):
        "7dc98d2934283e152aa4db020e68cab13f3274bbfb40e8531712f6491e2e24ab",
    ("scaling", "--lambda-a", "1,1,1", "--lambda-b", "2,3,4",
     "--sizes", "2"):
        "993324d46d851277a6a18daf4727d080e9a47d13f77e4b9423111ac92e980464",
    # recorded while `classify_zd` still returned a member of an enum
    ("classify", "--lambda-a", "2,3", "--lambda-b", "1/2,1/2"):
        "6a390c1d07e7f765d319c93fc8ff8b134a53079a61389e76f2a4dce5755868ae",
    ("classify", "--lambda-a", "2,3", "--lambda-b", "1/2,1/2",
     "--format", "table"):
        "58a8a38160165e3de9171e5954157f5b8e5086cc763149bea736590784564849",
    ("classify", "--lambda-a", "1,1", "--lambda-b", "2,3"):
        "b1b697fcd9b52898c073beade0d82f23dee5a44c6692c4a11723f8d3c2650e9a",
    ("classify", "--lambda-a", "1,1", "--lambda-b", "2,3",
     "--format", "table"):
        "0a7a98069d3661ee229e119b121f286518065b12dc311bc192ef69bc71b59388",
    ("census", "--region", "zd", "--lambda-a", "2", "--lambda-b", "1/2"):
        "26d2c20007949f4650143582887daf57c7c8db16ef59aec29211010268a7d190",
    # every orthant state, then a divergent constant
    ("census", "--region", "orthant", "--lambda-a", "1/2,1/3",
     "--lambda-b", "1/5,1/4"):
        "8698a70ff94f6465c230f725e4699f47aebba9cdc37ab4fce5fbc4d9903adb9b",
    ("census", "--region", "orthant", "--lambda-a", "1/2,1/3",
     "--lambda-b", "2,1/4"):
        "a547310a9160bb345fff6a5d5621f417308dcc95b94feb5b7487770dbe2bc6bf",
}


@pytest.mark.parametrize("argv", list(VERB_DIGESTS), ids=" ".join)
def test_verb_stdout_is_pinned(capsys, monkeypatch, argv):
    monkeypatch.setattr(np, "__version__", "0.0.0")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == VERB_DIGESTS[argv]


def test_certify_strong_weights_bounds_hold_without_slack(capsys):
    code, out, _ = run_cli(capsys, "certify", "--lambda-a", "1e-102",
                           "--lambda-b", "1e102")
    assert code == 0
    rec = json.loads(out)
    assert rec["eps_ell"] == pytest.approx(1.8973665961e-101, rel=1e-9)
    iii = [c for c in rec["conditions"] if c["condition"] == "iii"]
    assert iii
    for cond in iii:
        assert cond["bound"] == rec["eps_ell"]
        assert 0 < cond["measured"] <= cond["bound"]


def test_certify_gapless_is_validation_error(capsys):
    code, _, _ = run_cli(capsys, "certify", "--lambda-a", "1",
                         "--lambda-b", "2")
    assert code == 2


def test_certify_margin_failure_is_budget_error(capsys):
    code, _, err = run_cli(capsys, "certify", "--lambda-a", "1.001",
                           "--lambda-b", "1.001")
    assert code == 3
    assert "gapless manifold" in err


@pytest.mark.parametrize("argv", [
    ("verify-lemmas",),
    ("verify-projection", "--n", "7", "--ell", "7"),
])
def test_tilt_margin_failure_is_budget_error_in_every_verb(capsys, argv):
    # |log 1.01| is below the tilt margin eta = 0.05
    code, out, err = run_cli(capsys, *argv, "--lambda-a", "1.01",
                             "--lambda-b", "1/2")
    assert code == 3
    assert out == ""
    assert "gapless manifold" in err


def test_program_fault_is_not_an_exit_code(capsys, monkeypatch):
    # only InputError and ComputeError become exit codes; any other
    # exception is a fault of the program and propagates
    def fault(p):
        raise ValueError("a fault of the program")

    monkeypatch.setattr(model, "classify_zd", fault)
    with pytest.raises(ValueError, match="a fault of the program"):
        cli.main(["classify", "--lambda-a", "2", "--lambda-b", "1/2"])


@pytest.mark.parametrize("weight", ["1e4000000", "1e-4000000",
                                    "1e-99999999999999999999"])
def test_huge_written_exponent_is_rejected_early(capsys, weight):
    # Fraction would build 10**k before any range check
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "classify", "--lambda-a", weight,
                             "--lambda-b", "2")
    assert time.perf_counter() - start < 0.5
    assert code == 2
    assert out == ""
    assert "outside double range" in err


def test_verify_lemmas(capsys):
    code, out, _ = run_cli(capsys, "verify-lemmas", "--lambda-a", "2",
                           "--lambda-b", "0.5", "--trials", "5")
    assert code == 0
    rec = json.loads(out)
    assert rec["all_pass"] is True
    assert rec["checks"] > 0


def test_verify_projection(capsys):
    code, out, _ = run_cli(capsys, "verify-projection", "--lambda-a", "10",
                           "--lambda-b", "0.1", "--n", "7", "--ell", "7")
    assert code == 0
    rec = json.loads(out)
    assert rec["condition_i"]["pass"] and rec["condition_iii"]["pass"]


def test_verify_projection_refuses_large_n_unbuilt(capsys, monkeypatch):
    def member(self, n):
        raise AssertionError(f"member {n} built")

    monkeypatch.setattr(martingale.VolumeFamilySpec, "member", member)
    code, out, err = run_cli(capsys, "verify-projection", "--lambda-a", "10",
                             "--lambda-b", "1/10", "--ell", "7",
                             "--n", "200000")
    assert code == 2
    assert out == ""
    assert err == ("error: base-3 codes of 200000 sites overflow int64 "
                   "(at most 39 sites)\n")


def test_scaling(capsys):
    code, out, _ = run_cli(capsys, "scaling", "--lambda-a", "1",
                           "--lambda-b", "2", "--sizes", "2,3,4")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [r["trial_energy"] for r in rows] == [0.5, 1 / 3, 0.25]


def test_scaling_builds_no_large_box(capsys, monkeypatch):
    # the trial energy d/size is closed form: only the boxes whose exact
    # gap is attached are built
    real = spectra.build_box

    def small_box(dims):
        assert math.prod(dims) <= spectra.SCALING_NUMERIC_CAP, dims
        return real(dims)

    monkeypatch.setattr(spectra, "build_box", small_box)
    code, out, _ = run_cli(capsys, "scaling", "--lambda-a", "1,1,1",
                           "--lambda-b", "2,3,1/2", "--sizes", "300")
    assert code == 0
    assert json.loads(out)["rows"] == [
        {"size": 300, "sites": 27000000, "trial_energy": 0.01,
         "numeric_gap": None}]


def test_scaling_ignores_the_other_species(capsys):
    # lambda_a = 1e154 overflows only the a normalization, which the
    # trial energy of the flat species b never reads
    code, out, _ = run_cli(capsys, "scaling", "--lambda-a", "1e154",
                           "--lambda-b", "1", "--sizes", "2,3")
    assert code == 0
    assert out == (
        '{"columns":["size","sites","trial_energy","numeric_gap"],"rows":['
        '{"numeric_gap":1.0,"sites":2,"size":2,"trial_energy":0.5},'
        '{"numeric_gap":0.49999999999999989,"sites":3,"size":3,'
        '"trial_energy":0.33333333333333331}]}\n')


def test_sweep_with_cache(capsys, tmp_path):
    cdir = str(tmp_path / "cache")
    args = ("sweep", "--grid-a", "0.5,1.0,2.0", "--lambda-b", "2",
            "--sizes", "4,6", "--cache-dir", cdir, "--format", "json")
    code, out, err = run_cli(capsys, *args)
    assert code == 0
    rows = json.loads(out)["rows"]
    assert len(rows) == 6
    assert all(r["status"] == "ok" for r in rows)
    # gapless column has the smallest gap at each size
    for size in (4, 6):
        col = {r["lambda_a"]: r["gap"] for r in rows if r["L"] == size}
        assert col["1.0"] == min(col.values())
    # second run: all cache hits, byte-identical output
    code2, out2, err2 = run_cli(capsys, *args)
    assert out2 == out
    assert "6 cache hits, 0 solves" in err2
    assert len(os.listdir(cdir)) == 6
    # an unreadable entry is a miss: re-solved, overwritten, same output;
    # so is one whose fields do not match its point or have the wrong type
    def edit(key, change):
        def damage(text):
            record = json.loads(text)
            record[key] = change(record[key])
            return json.dumps(record)
        return damage

    entry = os.path.join(cdir, sorted(os.listdir(cdir))[0])
    for damage in (lambda text: text[:len(text) // 2], lambda text: '{"x":1}',
                   edit("L", str), edit("L", lambda size: size + 2),
                   edit("lambda_a", lambda la: "3.0"),
                   edit("lambda_b", lambda lb: "1/2"), edit("gap", str),
                   edit("gap", lambda gap: float("nan")),
                   edit("status", lambda status: 1)):
        with open(entry) as fh:
            text = fh.read()
        with open(entry, "w") as fh:
            fh.write(damage(text))
        code3, out3, err3 = run_cli(capsys, *args)
        assert code3 == 0
        assert out3 == out
        assert "5 cache hits, 1 solves" in err3
        with open(entry) as fh:
            assert fh.read() == text


def test_sweep_points_share_patterns_but_not_weights(capsys):
    # at each size, lambda_a = 3 reuses the sector patterns built for
    # lambda_a = 2; its rows must be those of a sweep over 3 alone
    def rows_at_3(grid):
        code, out, _ = run_cli(capsys, "sweep", "--grid-a", grid,
                               "--lambda-b", "1/2", "--sizes", "3,4",
                               "--format", "csv")
        assert code == 0
        return [line for line in out.splitlines() if line.startswith("3,")]

    alone = rows_at_3("3")
    assert len(alone) == 2
    assert rows_at_3("2,3") == alone


# opposite sides with and without mirror twins, the same side, flat and
# near 1, each with lambda_b = 1/2
FLOOR_GRID = "1/3,1,11/10,2,3,10"


def _sweep_twice(capsys, monkeypatch, sizes, before=None):
    """stdout and stderr of a sweep over FLOOR_GRID with floors, and of
    the same sweep without them (`grown_floors` patched to give none),
    with `before(m)` applied to both."""
    outs = []
    for floored in (True, False):
        with monkeypatch.context() as m:
            if before:
                before(m)
            if not floored:
                m.setattr(spectra, "grown_floors", lambda shorter: None)
            code, out, err = run_cli(capsys, "sweep", "--grid-a", FLOOR_GRID,
                                     "--lambda-b", "1/2", "--sizes", sizes,
                                     "--format", "json")
        assert code == 0
        outs.append((out, err))
    return outs


def _bounded(err: str) -> int:
    return int(re.search(r"(\d+) bounded", err).group(1))


@pytest.mark.parametrize("sizes", ["4,5,6,7,8", "8,4,6,5", "4,6,9", "3,3"])
def test_sweep_floors_keep_rows_byte_identical(capsys, monkeypatch, sizes):
    (out, err), (free, free_err) = _sweep_twice(capsys, monkeypatch, sizes)
    assert out == free
    assert _bounded(err) > 0 == _bounded(free_err)


@pytest.mark.parametrize("lam", [("4", "1/4"), ("10", "1/10")],
                         ids=["4,1/4", "10,1/10"])
def test_certify_seed_climb_keeps_stdout(capsys, monkeypatch, lam):
    outs = []
    for floored in (True, False):
        with monkeypatch.context() as m:
            if not floored:
                m.setattr(spectra, "grown_floors", lambda shorter: None)
            code, out, _ = run_cli(capsys, "certify", "--lambda-a", lam[0],
                                   "--lambda-b", lam[1])
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_certify_seed_climbs_the_chain(capsys, monkeypatch):
    # the 13-site seed at (2, 1/2) has sectors of 90090 states; floored by
    # the 12-site chain, none over 858 is built
    dims = []
    real = operators.sector_pattern

    def spy(basis):
        dims.append(basis.dim)
        return real(basis)

    monkeypatch.setattr(operators, "sector_pattern", spy)
    code, out, _ = run_cli(capsys, "certify", "--lambda-a", "2",
                           "--lambda-b", "1/2")
    assert code == 0 and json.loads(out)["ell"] == 13
    assert max(dims) <= 858


def _recording_total_gap(m, seen, fail_at=None, **fixed):
    """Patch total_gap to record (L, whether floors were given) per call,
    to fail at chain length fail_at, and to take the keywords fixed."""
    real = spectra.total_gap

    def spy(v, p, **kwargs):
        seen.append((len(v), kwargs["floors"] is not None))
        if len(v) == fail_at:
            raise ComputeError("refused for the test")
        return real(v, p, **{**kwargs, **fixed})

    m.setattr(spectra, "total_gap", spy)


def test_sweep_after_a_cache_hit_climbs(capsys, monkeypatch, tmp_path):
    # size 5 is cached, so every point climbs through it to 6 and 7, all
    # of them one length at a time
    caches = [str(tmp_path / name) for name in ("floored", "free")]
    for cdir in caches:
        code, _, _ = run_cli(capsys, "sweep", "--grid-a", FLOOR_GRID,
                             "--lambda-b", "1/2", "--sizes", "5",
                             "--cache-dir", cdir)
        assert code == 0
    outs, seen = [], []
    for cdir, floored in zip(caches, (True, False)):
        with monkeypatch.context() as m:
            _recording_total_gap(m, seen)
            if not floored:
                m.setattr(spectra, "grown_floors", lambda shorter: None)
            code, out, err = run_cli(capsys, "sweep", "--grid-a", FLOOR_GRID,
                                     "--lambda-b", "1/2", "--sizes", "4,5,6,7",
                                     "--format", "json", "--cache-dir", cdir)
        assert code == 0
        assert "6 cache hits, 18 solves" in err
        outs.append(out)
    assert outs[0] == outs[1]
    assert seen[:36] == [(n, n > 2) for n in range(2, 8) for _ in range(6)]


def test_sweep_climbs_a_partly_cached_point_to_the_longest_size(
        capsys, monkeypatch, tmp_path):
    # lambda_a = 3 has 9 sites cached and 5 to solve: it climbs beside
    # lambda_a = 2 to 9 sites, with the rows and counts of a cold run
    cdir = str(tmp_path)
    grid = ("sweep", "--lambda-b", "1/2", "--format", "json")
    code, _, _ = run_cli(capsys, *grid, "--grid-a", "3", "--sizes", "9",
                         "--cache-dir", cdir)
    assert code == 0
    seen = []
    real = spectra.total_gap

    def spy(v, p, **kwargs):
        seen.append((len(v), str(p.lambda_a[0])))
        return real(v, p, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(spectra, "total_gap", spy)
        code, out, err = run_cli(capsys, *grid, "--grid-a", "2,3",
                                 "--sizes", "5,9", "--cache-dir", cdir)
    assert code == 0
    assert err.startswith("sweep: 1 cache hits, 3 solves, 24 sectors "
                          "solved, 73 bounded\n")
    assert seen == [(n, la) for n in range(2, 10) for la in ("2", "3")]
    assert out == run_cli(capsys, *grid, "--grid-a", "2,3",
                          "--sizes", "5,9")[1]


def test_sweep_exits_3_when_a_climbed_solve_fails(capsys, monkeypatch):
    # the first point to reach the failing 5-site chain stops the sweep,
    # as a failed solve stops every verb
    seen = []
    _recording_total_gap(monkeypatch, seen, fail_at=5)
    code, out, err = run_cli(capsys, "sweep", "--grid-a", FLOOR_GRID,
                             "--lambda-b", "1/2", "--sizes", "4,5,6")
    assert (code, out, err) == (3, "", "error: refused for the test\n")
    assert seen == [(n, n > 2) for n in range(2, 5) for _ in range(6)] + [
        (5, True)]


def test_sweep_floors_keep_partial_rows_partial(capsys, monkeypatch):
    # (2,1) and (1,2) take floor 0 from the shorter chain's ground sector
    # (1,1), so no floor bounds them, and from 5 sites on they have over
    # 20 states
    (out, err), (free, _) = _sweep_twice(
        capsys, monkeypatch, "4,5,6,7",
        before=lambda m: _recording_total_gap(m, [], sector_cap=20))
    assert out == free
    assert _bounded(err) > 0
    status = {r["L"]: r["status"] for r in json.loads(out)["rows"]}
    assert status == {4: "ok", 5: "partial", 6: "partial", 7: "partial"}


def test_sweep_counts_solved_and_bounded_sectors(capsys):
    # every point's own chain is floored, 4 sites included, so each solves
    # only the four ground sectors and (2,0), (0,2), (2,1), (1,2); the
    # shorter chains a point climbs through are not counted
    code, _, err = run_cli(capsys, "sweep", "--grid-a", "3", "--lambda-b",
                           "1/2", "--sizes", "4,5,6,7,8")
    assert code == 0
    assert err.startswith("sweep: 0 cache hits, 5 solves, "
                          "40 sectors solved, 105 bounded\n")


@given(chain_params(), st.lists(st.integers(2, 10), min_size=1, max_size=4))
@settings(max_examples=10, deadline=None)
def test_sweep_rows_are_floor_free_gaps(p, sizes):
    # whatever the order and repeats of --sizes, each point climbs to a
    # row whose gap is a floor-free solve's, bit for bit
    args = cli.build_parser().parse_args([
        "sweep", "--grid-a", str(p.lambda_a[0]),
        "--lambda-b", str(p.lambda_b[0]),
        "--sizes", ",".join(map(str, sizes))])
    rows = cli.cmd_sweep(args)["rows"]
    assert [r["L"] for r in rows] == sorted(set(sizes))
    plain = {n: spectra.total_gap(build_box((n,)), p)[0]["gap"]
             for n in set(sizes)}
    assert [(r["gap"], r["status"]) for r in rows] == [
        (plain[r["L"]], "ok") for r in rows]


def test_sweep_solves_a_repeated_size_once(capsys):
    grid = ("sweep", "--grid-a", "1/3,1,11/10,2,3,10", "--lambda-b", "1/2")
    code, out, err = run_cli(capsys, *grid, "--sizes", "3,3")
    assert code == 0
    assert err.startswith("sweep: 0 cache hits, 6 solves, ")
    assert (code, out) == run_cli(capsys, *grid, "--sizes", "3")[:2]


def test_sweep_solves_a_repeated_lambda_once(capsys):
    grid = ("sweep", "--lambda-b", "1/2", "--sizes", "3")
    code, out, err = run_cli(capsys, *grid, "--grid-a", "2,2")
    assert code == 0
    assert out.splitlines() == ["lambda_a,lambda_b,L,gap,status",
                                "2,1/2,3,0.59999999999999976,ok"]
    assert err.startswith("sweep: 0 cache hits, 1 solves, ")


def test_sweep_builds_each_pattern_once(capsys, monkeypatch):
    # the bench's cold grid: every lambda_a climbs through the same chain
    # lengths, and each length's sector patterns serve all of them
    built = []
    real = operators.sector_pattern

    def spy(basis):
        built.append((len(basis.volume), basis.n_a, basis.n_b))
        return real(basis)

    monkeypatch.setattr(operators, "sector_pattern", spy)
    code, _, _ = run_cli(capsys, "sweep", "--grid-a", "3/2,2,5/2,3,4,5,8,10",
                         "--lambda-b", "1/2", "--sizes", "4,5,6,7,8")
    assert code == 0
    assert len(built) == len(set(built)) == 54


def test_sweep_climbs_to_its_first_size(capsys, monkeypatch):
    # the 14-site chain has sectors of up to 252252 states; floored by the
    # 13-site chain, none over 1092 is built
    dims = []
    real = operators.sector_pattern

    def spy(basis):
        dims.append(basis.dim)
        return real(basis)

    monkeypatch.setattr(operators, "sector_pattern", spy)
    code, out, _ = run_cli(capsys, "sweep", "--grid-a", "2", "--lambda-b",
                           "1/2", "--sizes", "14", "--format", "json")
    assert code == 0 and json.loads(out)["rows"][0]["status"] == "ok"
    assert max(dims) <= 1092


def test_sweep_rows_below_two_sites_fail(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--grid-a", "2", "--lambda-b",
                           "1/2", "--sizes", "1,0,-2,4", "--format", "json")
    assert code == 0
    assert [(r["L"], r["gap"], r["status"])
            for r in json.loads(out)["rows"]] == [
        (-2, None, "failed: extents must be >= 1, got (-2,)"),
        (0, None, "failed: extents must be >= 1, got (0,)"),
        (1, None, "failed: total_gap needs a connected volume with >= 2 sites"),
        (4, 0.43431457505076193, "ok")]


def test_sweep_failed_point_is_a_row(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--grid-a", "0,1/0,2",
                           "--lambda-b", "2", "--sizes", "3",
                           "--format", "json")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [r["lambda_a"] for r in rows] == ["0", "1/0", "2"]
    for row in rows[:2]:
        assert row["gap"] is None
        assert row["status"].startswith("failed: ")
    assert rows[2]["status"] == "ok"


def _refuse_to_build(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("volume built")

    for name in ("build_box", "build_tilted"):
        monkeypatch.setattr(cli, name, refuse)


@pytest.mark.parametrize("la,lb,spec,sites", [
    ("2", "1/2", "box:99999999999", 99999999999),
    ("2", "1/2", "box:40", 40),
    ("2,3", "1/2,1/2", "box:7x6", 42),
    ("2,3", "1/2,1/2", "case1:1@5x8", 40),
    ("2,3", "1/2,1/2", "case2:@4x5", 40),
    # disconnected: its columns are 5 apart
    ("2,3", "1/2,1/2", "case1:5@2x20", 40),
])
def test_gap_refuses_an_oversized_volume_before_building_it(
        capsys, monkeypatch, la, lb, spec, sites):
    _refuse_to_build(monkeypatch)
    code, out, err = run_cli(capsys, "gap", "--lambda-a", la,
                             "--lambda-b", lb, "--volume", spec)
    assert code == 2
    assert out == ""
    assert err == (f"error: base-3 codes of {sites} sites overflow int64 "
                   f"(at most 39 sites)\n")


def test_sweep_refuses_an_oversized_chain_before_building_it(
        capsys, monkeypatch):
    _refuse_to_build(monkeypatch)
    code, out, _ = run_cli(capsys, "sweep", "--grid-a", "2", "--lambda-b",
                           "1/2", "--sizes", "100000000,40",
                           "--format", "json")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [(r["L"], r["gap"], r["status"]) for r in rows] == [
        (40, None, "failed: base-3 codes of 40 sites overflow int64 "
                   "(at most 39 sites)"),
        (100000000, None, "failed: base-3 codes of 100000000 sites "
                          "overflow int64 (at most 39 sites)"),
    ]


def test_sweep_without_cache_computes_no_key(capsys, monkeypatch):
    def no_key(inputs):
        raise AssertionError("cache_key called with no cache directory")

    monkeypatch.setattr(cli, "cache_key", no_key)
    code, out, err = run_cli(capsys, "sweep", "--grid-a", "2,3",
                             "--lambda-b", "1/2", "--sizes", "3,4")
    assert code == 0
    assert len(out.splitlines()) == 5
    assert "0 cache hits, 4 solves" in err


def _unsolvable(monkeypatch):
    def unsolvable(*args, **kwargs):
        raise AssertionError("point solved")

    monkeypatch.setattr(spectra, "total_gap", unsolvable)


def test_sweep_cache_on_a_regular_file_exits_2_before_solving(
        capsys, monkeypatch, tmp_path):
    # the directory is made once, before any point is solved
    _unsolvable(monkeypatch)
    path = tmp_path / "file"
    path.write_text("")
    code, out, err = run_cli(capsys, "sweep", "--grid-a", "2", "--lambda-b",
                             "1/2", "--sizes", "3", "--cache-dir", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: --cache-dir is unusable as a sweep cache: "
                          f"[Errno {errno.EEXIST}] ")
    assert os.listdir(tmp_path) == ["file"]


def test_sweep_cache_that_cannot_be_made_exits_2(capsys, monkeypatch,
                                                 tmp_path):
    _unsolvable(monkeypatch)
    (tmp_path / "file").write_text("")
    code, out, err = run_cli(capsys, "sweep", "--grid-a", "2",
                             "--lambda-b", "1/2", "--sizes", "3",
                             "--cache-dir", str(tmp_path / "file" / "sub"))
    assert code == 2
    assert out == ""
    assert err.startswith("error: --cache-dir is unusable as a sweep cache: "
                          f"[Errno {errno.ENOTDIR}] ")
    assert os.listdir(tmp_path) == ["file"]


def test_sweep_cache_entry_that_is_a_directory_exits_2(capsys, tmp_path):
    # the entry cannot be read, so the point is solved; writing it fails
    # too, and the temporary file is removed
    point = {"lambda_a": "2", "lambda_b": "1/2", "L": 3}
    entry = tmp_path / (cli.cache_key({"verb": "sweep-point", **point})
                        + ".json")
    entry.mkdir()
    code, out, err = run_cli(capsys, "sweep", "--grid-a", "2",
                             "--lambda-b", "1/2", "--sizes", "3",
                             "--cache-dir", str(tmp_path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: --cache-dir is unusable as a sweep cache: "
                          f"[Errno {errno.EISDIR}] ")
    assert os.listdir(tmp_path) == [entry.name]
    assert os.listdir(entry) == []


def test_sweep_csv(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--grid-a", "2",
                           "--lambda-b", "0.5", "--sizes", "3",
                           "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "lambda_a,lambda_b,L,gap,status"
    assert len(lines) == 2


def test_sweep_csv_quotes_a_field_with_a_comma(capsys):
    # a failed point's status names its extents, "(0,)"; the row must
    # still read back as the five columns
    message = "extents must be >= 1, got (0,)"
    code, out, _ = run_cli(capsys, "sweep", "--grid-a", "2",
                           "--lambda-b", "1/2", "--sizes", "0",
                           "--format", "csv")
    assert code == 0
    assert f'"failed: {message}"' in out
    [row] = list(csv.DictReader(io.StringIO(out)))
    assert list(row) == ["lambda_a", "lambda_b", "L", "gap", "status"]
    assert None not in row.values()
    assert row["gap"] == "null"
    assert row["status"] == f"failed: {message}"


def test_bench_tracer_counts_the_assembled_nonzeros(capsys, monkeypatch,
                                                    tmp_path):
    # the benchmark's traced mode reads `nnz` off every assembled sector
    # matrix; run it as the benchmark does and count the same in-process
    argv = ["gap", "--lambda-a", "2", "--lambda-b", "1/2", "--volume", "box:6"]
    root = os.path.dirname(os.path.dirname(os.path.dirname(cli.__file__)))
    spans = tmp_path / "spans.json"
    traced = subprocess.run(
        [sys.executable, os.path.join(root, "bench", "tracer.py"),
         str(spans), "--", *argv],
        env=_child_env(), capture_output=True, text=True)
    assert traced.returncode == 0, traced.stderr
    nnz = []
    assemble = operators.assemble_sector_hamiltonian

    def spy(*args):
        h = assemble(*args)
        nnz.append(h.nnz)
        return h

    monkeypatch.setattr(operators, "assemble_sector_hamiltonian", spy)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert traced.stdout == out
    counts = json.loads(spans.read_text())["counts"]
    assert counts["operators.nnz"] == sum(nnz) == 1905


def test_dense_solves_stay_within_the_cap(capsys, monkeypatch):
    """No matrix over DENSE_CAP reaches dense eigvalsh on the benchmark's
    gap, certify and sweep inputs. Where numpy loaded with two BLAS
    threads before pvbs.cli could pin one, OpenBLAS's eigvalsh wakes its
    second thread above 64 states, which gains no wall time at these
    sizes and then busy-waits for about 135 ms (see the comment above
    spectra.DENSE_CAP); test_info pins the cap."""
    real = np.linalg.eigvalsh
    sizes = []

    def recording(a, *args, **kwargs):
        sizes.append(a.shape[0])
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    for argv in (
            ("gap", "--lambda-a", "2", "--lambda-b", "1/2",
             "--volume", "box:10"),
            ("gap", "--lambda-a", "2,3", "--lambda-b", "1/2,1/2",
             "--volume", "box:3x3"),
            ("certify", "--lambda-a", "4", "--lambda-b", "1/4"),
            ("sweep", "--grid-a", "3/2,2,10", "--lambda-b", "1/2",
             "--sizes", "4,5,6,7,8"),
            # the 4..8 sweep bounds most 8-site sectors without solving
            # them; alone, every 8-site sector is solved
            ("sweep", "--grid-a", "3/2,2,10", "--lambda-b", "1/2",
             "--sizes", "8")):
        code, _, _ = run_cli(capsys, *argv)
        assert code == 0
    assert sizes
    assert max(sizes) <= spectra.DENSE_CAP


def test_info(capsys):
    code, out, _ = run_cli(capsys, "info")
    rec = json.loads(out)
    assert code == 0
    assert rec["dense_cap"] == 64
    assert rec["eta"] == 0.05
    assert rec["lanczos_seed"] == 0x5EED
    for gone in ("power_iteration_tol", "action_cap_log3", "lanczos_ncv",
                 "scipy"):
        assert gone not in rec


def test_parse_volume():
    v = cli.parse_volume("case1:1@2x2")
    assert len(v) == 4
    v2 = cli.parse_volume("case2:@1x1")
    assert len(v2) == 2
    # only Case 1 checks the sign of its tilt entries
    assert len(cli.parse_volume("case2:-1@1x1x2")) == 4
    # a spec that writes no tilt entry at all has none
    assert len(cli.parse_volume("case1:@4")) == 4
    assert len(cli.parse_volume("case2:@2x2")) == 8
    with pytest.raises(ValueError):
        cli.parse_volume("sphere:3")


@pytest.mark.parametrize("spec,message", [
    ("case2:@4", "Case-2 volumes need d >= 2"),
    ("case1:@3x2", "tilt vector length must be d - 1"),
    ("case2:1@3x2", "tilt vector length must be d - 2"),
    ("case1:-1@3x2", "tilt entries must be nonnegative"),
    ("case1:1@0x2", "extents must be >= 1, got (0, 2)"),
    # --sizes skips an empty entry, a volume spec does not
    ("box:3xx3", "volume spec 'box:3xx3' has an empty extent entry"),
    ("box:3x", "volume spec 'box:3x' has an empty extent entry"),
    ("case1:1,@3x3x3", "volume spec 'case1:1,@3x3x3' has an empty tilt entry"),
])
def test_parse_volume_builder_messages(spec, message):
    with pytest.raises(InputError) as info:
        cli.parse_volume(spec)
    assert str(info.value) == message


def test_canonical_json_17_digits():
    s = cli.dumps_canonical({"x": 1 / 3, "y": [2.0, True, None, "s"]})
    assert s == '{"x":0.33333333333333331,"y":[2.0,true,null,"s"]}'
