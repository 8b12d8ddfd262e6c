import functools
import json
import os

import pytest
import scipy.sparse.linalg as spla

from pvbs import cli, spectra


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
    # a sweep point whose report is partial is labelled so
    monkeypatch.setattr(spectra, "total_gap", functools.partial(
        spectra.total_gap, sector_cap=10))
    code, out, _ = run_cli(capsys, "sweep", "--grid-a", "2",
                           "--lambda-b", "1/2", "--sizes", "6",
                           "--format", "json")
    assert code == 0
    [row] = json.loads(out)["rows"]
    assert row["status"] == "partial"
    assert row["gap"] == rec["gap_upper_bound"]


def test_gap_deterministic_bytes(capsys):
    args = ("gap", "--volume", "box:4", "--lambda-a", "2",
            "--lambda-b", "0.5")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_gap_dimension_mismatch(capsys):
    code, _, _ = run_cli(capsys, "gap", "--volume", "box:2x2",
                         "--lambda-a", "2", "--lambda-b", "0.5")
    assert code == 2


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
    ("scaling", "--lambda-a", "1e154", "--lambda-b", "1", "--sizes", "2,3"),
    ("verify-lemmas", "--lambda-a", "1e154", "--lambda-b", "1/2",
     "--trials", "2"),
    ("certify", "--lambda-a", "1e-154", "--lambda-b", "1e154"),
])
def test_invalid_input_is_validation_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_eigensolver_failure(capsys, monkeypatch):
    def no_convergence(*args, **kwargs):
        raise spla.ArpackNoConvergence("no convergence", [], [])

    monkeypatch.setattr(spla, "eigsh", no_convergence)
    # box:8 has sectors of 560 states, above the dense cap
    code, out, err = run_cli(capsys, "gap", "--lambda-a", "10",
                             "--lambda-b", "0.1", "--volume", "box:8")
    assert code == 3
    assert out == ""
    assert err.startswith("error: ARPACK error -1: no convergence")
    # sweep sectors are small enough for the dense path; a zero dense cap
    # sends them to Lanczos
    monkeypatch.setattr(spectra, "lowest_eigenvalues", functools.partial(
        spectra.lowest_eigenvalues, dense_cap=0))
    code, out, _ = run_cli(capsys, "sweep", "--grid-a", "2",
                           "--lambda-b", "2", "--sizes", "3",
                           "--format", "json")
    assert code == 0
    [row] = json.loads(out)["rows"]
    assert row["gap"] is None
    assert row["status"] == "failed: ARPACK error -1: no convergence"


def test_lanczos_residual_failure(capsys, monkeypatch, perturbed_eigsh):
    monkeypatch.setattr(spectra, "lowest_eigenvalues", functools.partial(
        spectra.lowest_eigenvalues, dense_cap=0))
    code, out, err = run_cli(capsys, "gap", "--volume", "box:4",
                             "--lambda-a", "2", "--lambda-b", "1/2")
    assert code == 3
    assert out == ""
    assert err.startswith("error: Lanczos eigenpair residual")
    code, out, _ = run_cli(capsys, "sweep", "--grid-a", "2",
                           "--lambda-b", "2", "--sizes", "3",
                           "--format", "json")
    assert code == 0
    [row] = json.loads(out)["rows"]
    assert row["gap"] is None
    assert row["status"].startswith("failed: Lanczos eigenpair residual")


def test_certify_d1(capsys):
    code, out, _ = run_cli(capsys, "certify", "-d", "1",
                           "--lambda-a", "10", "--lambda-b", "0.1")
    assert code == 0
    rec = json.loads(out)
    assert rec["ell"] == 7
    assert rec["final_bound"] > 0
    assert all(c["pass"] for c in rec["conditions"])


def test_certify_gapless_is_validation_error(capsys):
    code, _, _ = run_cli(capsys, "certify", "--lambda-a", "1",
                         "--lambda-b", "2")
    assert code == 2


def test_certify_margin_failure_is_budget_error(capsys):
    code, _, err = run_cli(capsys, "certify", "--lambda-a", "1.001",
                           "--lambda-b", "1.001")
    assert code == 3
    assert "gapless manifold" in err


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


def test_scaling(capsys):
    code, out, _ = run_cli(capsys, "scaling", "--lambda-a", "1",
                           "--lambda-b", "2", "--sizes", "2,3,4")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [r["trial_energy"] for r in rows] == [0.5, 1 / 3, 0.25]


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
    # an unreadable entry is a miss: re-solved, overwritten, same output
    entry = os.path.join(cdir, sorted(os.listdir(cdir))[0])
    for damage in (lambda text: text[:len(text) // 2], lambda text: '{"x":1}'):
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


def test_sweep_failed_point_is_a_row(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--grid-a", "0,2",
                           "--lambda-b", "2", "--sizes", "3",
                           "--format", "json")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [r["lambda_a"] for r in rows] == ["0", "2"]
    assert rows[0]["gap"] is None
    assert rows[0]["status"].startswith("failed: ")
    assert rows[1]["status"] == "ok"


def test_sweep_env_cache(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("PVBS_CACHE_DIR", str(tmp_path))
    run_cli(capsys, "sweep", "--grid-a", "2", "--lambda-b", "2",
            "--sizes", "3")
    assert len(os.listdir(tmp_path)) == 1


def test_sweep_csv(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--grid-a", "2",
                           "--lambda-b", "0.5", "--sizes", "3",
                           "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "lambda_a,lambda_b,L,gap,status"
    assert len(lines) == 2


def test_info(capsys):
    code, out, _ = run_cli(capsys, "info")
    rec = json.loads(out)
    assert code == 0
    assert rec["dense_cap"] == 200
    assert rec["eta"] == 0.05
    assert rec["lanczos_seed"] == 0x5EED
    for gone in ("power_iteration_tol", "action_cap_log3", "lanczos_ncv"):
        assert gone not in rec


def test_parse_volume():
    v = cli.parse_volume("case1:1@2x2")
    assert len(v) == 4
    v2 = cli.parse_volume("case2:@1x1")
    assert len(v2) == 2
    with pytest.raises(ValueError):
        cli.parse_volume("sphere:3")


def test_canonical_json_17_digits():
    s = cli.dumps_canonical({"x": 1 / 3, "y": [2.0, True, None, "s"]})
    assert s == '{"x":0.33333333333333331,"y":[2.0,true,null,"s"]}'
