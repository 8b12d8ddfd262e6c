"""Acceptance suite: ten standalone criteria, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v` (each test name is one
criterion; the printed line repeats the verdict with the measured
numbers).
"""

import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest

import oracles
import projector_oracle
from pvbs import analytic, cli, fock, martingale, operators, spectra
from pvbs.lattice import VolumeFamilySpec, build_box, build_tilted
from pvbs.model import GapClass, Params, classify_zd, select_tilt

TOL_RESIDUAL = 1e-10
GROUND = ((0, 0), (1, 0), (0, 1), (1, 1))


def verdict(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def random_params(rng, d):
    vals = [Fraction(n, m) for n in range(1, 6) for m in range(1, 6)]
    return Params(tuple(rng.choice(vals) for _ in range(d)),
                  tuple(rng.choice(vals) for _ in range(d)))


def test_c01_ground_space_dimension_is_four():
    rng = random.Random(2024)
    volumes = [build_box((6,)), build_box((2, 3)),
               build_tilted(1, (1,), (3, 2))]
    worst_resid = 0.0
    for vol in volumes:
        for _ in range(10):
            p = random_params(rng, vol.dim)
            weights = operators.edge_weights(p)
            n = len(vol)
            kernel = 0
            for na in range(n + 1):
                for nb in range(n + 1 - na):
                    basis = fock.enumerate_sector(vol, na, nb)
                    h = operators.assemble_sector_hamiltonian(
                        operators.sector_pattern(basis), weights)
                    # the kernel counted in the full dense spectrum
                    thresh = spectra.KERNEL_TOL_REL * max(1.0, h.norm)
                    kernel += int(np.count_nonzero(
                        np.linalg.eigvalsh(h.toarray()) < thresh))
                    if (na, nb) in GROUND:
                        psi = analytic.ground_state_vector(p, basis)
                        worst_resid = max(worst_resid,
                                          float(np.linalg.norm(h @ psi)))
            assert kernel == 4, (vol.sites, p.to_json(), kernel)
    verdict(1, worst_resid <= TOL_RESIDUAL,
            f"kernel total 4 on 30 volume/parameter draws, "
            f"max ||H psi|| = {worst_resid:.2e} <= 1e-10")


def test_c02_same_species_exclusion():
    rng = random.Random(42)
    vol = build_box((6,))
    worst = math.inf
    for _ in range(10):
        p = random_params(rng, 1)
        for na, nb in ((2, 0), (0, 2), (2, 1)):
            basis = fock.enumerate_sector(vol, na, nb)
            h = operators.assemble_sector_hamiltonian(
                operators.sector_pattern(basis), operators.edge_weights(p))
            worst = min(worst, float(spectra.lowest_eigenvalues(h)[0]))
    verdict(2, worst > 1e-6,
            f"min eigenvalue over multi-particle sectors = {worst:.3e} > 1e-6")


def test_c03_edge_projector_algebra():
    rng = random.Random(7)
    worst_idem = worst_trace = worst_kernel = 0.0
    for _ in range(100):
        la = math.exp(rng.uniform(-2.5, 2.5))
        lb = math.exp(rng.uniform(-2.5, 2.5))
        h = operators.edge_projection_block(la, lb)
        worst_idem = max(worst_idem, float(np.max(np.abs(h @ h - h))))
        worst_trace = max(worst_trace, abs(float(np.trace(h)) - 5.0))
        kv = oracles.edge_kernel_vectors(la, lb)
        worst_kernel = max(worst_kernel, float(np.max(np.abs(h @ kv.T))))
        assert np.max(np.abs(kv @ kv.T - np.eye(4))) < 1e-12
    ok = worst_idem <= 1e-14 and worst_trace <= 1e-13 and worst_kernel <= 1e-13
    verdict(3, ok, f"100 draws: |h^2-h| <= {worst_idem:.1e}, "
                   f"|tr h - 5| <= {worst_trace:.1e}, "
                   f"|h kernel| <= {worst_kernel:.1e}")


def _random_gapped_tilt(rng, d):
    vals = [Fraction(1, 3), Fraction(1, 2), Fraction(2), Fraction(3),
            Fraction(5), Fraction(1)]
    while True:
        p = Params(tuple(rng.choice(vals) for _ in range(d)),
                   tuple(rng.choice(vals) for _ in range(d)))
        try:
            return p, select_tilt(p)
        except Exception:
            continue


def test_c04_closed_form_normalizations():
    rng = random.Random(31415)
    cases_seen = {1: 0, 2: 0}
    checked = 0
    worst = 0.0
    while checked < 200:
        d = rng.choice([1, 2, 3])
        p, t = _random_gapped_tilt(rng, d)
        j = rng.randrange(d)
        width = rng.randint(1, 4)
        n = rng.randint(width, width + 3)
        extents = tuple(rng.randint(1, 3) for _ in range(d))
        fam = VolumeFamilySpec(t, extents, j)
        sl = fam.member(n).difference(fam.member(n - width))
        if len(sl) == 0:
            continue
        nd = oracles.normalization_direct(sl, t.params)
        nc = analytic.normalization_closed_form(fam, n - width, n)
        for key in ("a", "b", "d", "ab"):
            x, y = nd[key], nc[key]
            scale = max(abs(x), abs(y),
                        nd["a"] * nd["b"] if key == "ab" else 0.0)
            worst = max(worst, abs(x - y) / scale)
        cases_seen[t.case] += 1
        checked += 1
    ok = worst <= 1e-12 and min(cases_seen.values()) > 0
    verdict(4, ok, f"200 tilt/slab pairs (case1 x{cases_seen[1]}, "
                   f"case2 x{cases_seen[2]}): worst rel dev {worst:.2e}")


def test_c05_normalization_bound_lemmas():
    rng = random.Random(999)
    counts = {"product": 0, "diagonal": 0, "ratio": 0}
    min_slack = math.inf
    while min(counts.values()) < 500:
        d = rng.choice([1, 2])
        p, t = _random_gapped_tilt(rng, d)
        j = rng.randrange(d)
        ell = rng.randint(2, 6)
        n = rng.randint(ell, ell + 4)
        fam = VolumeFamilySpec(t, tuple(rng.randint(2, 4) for _ in range(d)),
                               j)
        for r in analytic.check_product_bounds(fam, n - ell, n):
            assert r["pass"], r
            min_slack = min(min_slack, r["slack"])
            counts["product"] += 1
        if t.log_tilde("a")[j] * t.log_tilde("b")[j] < 0:
            r = analytic.check_diagonal_bound(fam, n - ell, n)
            assert r["pass"], r
            min_slack = min(min_slack, r["slack"])
            counts["diagonal"] += 1
        for r in analytic.check_ratio_bounds(fam, n, ell):
            assert r["pass"], r
            min_slack = min(min_slack, r["slack"])
            counts["ratio"] += 1
    verdict(5, min_slack > 0,
            f"{counts} bound checks all pass, min slack {min_slack:.3e}")


def _measure_condition_iii(la, lb, n, ell):
    p = Params((la,), (lb,))
    t = select_tilt(p)
    fam = martingale.sweep_family(t, 0, ell, 2)
    rep = martingale.verify_condition_iii(fam, n, ell)
    return rep, fam, t.params


def test_c06_projection_norm_vs_analytic_bound():
    # anchor point: bound evaluates to ~0.0222 and dominates the measurement
    rep0, _, _ = _measure_condition_iii("10", "1/10", 8, 8)
    assert rep0["bound"] == pytest.approx(0.0222, abs=2e-4)
    assert rep0["measured"] <= 0.0222

    grid = [("10", "1/10", 6, 6), ("10", "1/10", 7, 7), ("10", "1/10", 8, 7),
            ("10", "1/10", 9, 7), ("5", "1/5", 4, 4), ("5", "1/5", 5, 5),
            ("5", "1/5", 6, 4), ("3", "1/3", 4, 3), ("3", "1/3", 5, 4),
            ("3", "1/3", 6, 5), ("8", "1/2", 5, 4), ("8", "1/2", 6, 5)]
    assert len(grid) == 12
    worst_rel = 0.0
    dense_checks = 0
    for la, lb, n, ell in grid:
        rep, fam, pp = _measure_condition_iii(la, lb, n, ell)
        assert rep["measured"] <= rep["bound"] * (1 + 1e-10), (la, lb, n, ell)
        # dense cross-check on all 3^(n+1) ambient states
        ambient = fam.member(n + 1)
        ref = projector_oracle.projection_norm(
            ambient.difference(fam.member(n + 1 - ell)), fam.member(n),
            ambient, pp)
        worst_rel = max(worst_rel, abs(ref - rep["measured"]) / ref)
        dense_checks += 1
    ok = worst_rel <= 1e-10 and dense_checks == 12
    verdict(6, ok, f"12 grid points below bound; {dense_checks} dense "
                   f"cross-checks, worst |sector - dense| / dense = "
                   f"{worst_rel:.2e}")


def test_c07_end_to_end_certificate_d1():
    p = Params(("10",), ("1/10",))
    cert = martingale.certify(p)
    assert cert["ell"] == 7
    assert cert["eps_ell"] == pytest.approx(0.2080, abs=1e-4)
    assert cert["gamma_ell"] > 0
    assert cert["final_bound"] == pytest.approx(
        cert["gamma_ell"] * 0.0289, abs=1e-4 * cert["gamma_ell"])
    ok = True
    gaps = {}
    for L in (8, 9, 10):
        gaps[L] = spectra.total_gap(build_box((L,)), p)[0]["gap"]
        ok = ok and cert["final_bound"] <= gaps[L]
    verdict(7, ok, f"ell=7, eps={cert['eps_ell']:.4f}, "
                   f"final_bound={cert['final_bound']:.4e} <= gaps "
                   f"{ {L: round(g, 4) for L, g in gaps.items()} }")


def test_c08_gapless_scaling(monkeypatch):
    # exact gaps on the boxes of up to 8 sites only
    monkeypatch.setattr(spectra, "SCALING_NUMERIC_CAP", 8)
    p = Params(("1",), ("2",))
    pts = spectra.gapless_scaling(p, range(2, 41))
    exact = all(pt["trial_energy"] == 1.0 / pt["size"] for pt in pts)
    gaps = [pt["numeric_gap"] for pt in pts if 3 <= pt["size"] <= 8]
    decreasing = all(a > b for a, b in zip(gaps, gaps[1:]))
    bounded = True
    for pt in pts:
        L, trial = pt["size"], pt["trial_energy"]
        inner = build_box((L,))
        ambient = oracles.translate(build_box((L + 2,)), (-1,))
        c_boundary = sum(oracles.lambda_power(p, "a", x) ** 2
                         for x in oracles.boundary_sites(inner, ambient))
        c_inner = sum(oracles.lambda_power(p, "a", x) ** 2
                      for x in inner.sites)
        bounded = bounded and trial <= 1 * c_boundary / c_inner + 1e-15
    verdict(8, exact and decreasing and bounded,
            f"trial = 1/L exactly for L=2..40; gaps strictly decrease "
            f"({gaps[0]:.3f} -> {gaps[-1]:.3f}); boundary-ratio bound holds")


def test_c09_classifier_exactness_grid():
    vals = [Fraction(1, 2), Fraction(1), Fraction(2)]
    mismatches = 0
    for a1 in vals:
        for a2 in vals:
            for b1 in vals:
                for b2 in vals:
                    p = Params((a1, a2), (b1, b2))
                    expect = (a1 == a2 == 1) or (b1 == b2 == 1)
                    got = classify_zd(p) is GapClass.GAPLESS
                    mismatches += got != expect
    verdict(9, mismatches == 0,
            f"3^4 grid at d=2: {mismatches} classification mismatches")


def test_c10_byte_identical_output(capsys):
    outs = []
    for _ in range(2):
        cli.main(["gap", "--volume", "box:4", "--lambda-a", "2",
                  "--lambda-b", "0.5"])
        outs.append(capsys.readouterr().out)
    certs = []
    for _ in range(2):
        cli.main(["certify", "--lambda-a", "10", "--lambda-b", "0.1"])
        certs.append(capsys.readouterr().out)
    ok = outs[0] == outs[1] and certs[0] == certs[1]
    json.loads(outs[0])  # well-formed
    verdict(10, ok, "repeated gap and certify runs byte-identical")
