import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from pvbs import InputError, analytic, fock, spectra
from pvbs.lattice import Volume, VolumeFamilySpec, build_box
from pvbs.martingale import sweep_family
from pvbs.model import Params, select_tilt

P_CHAIN = Params(("2",), ("1/2",))

frac = st.sampled_from([Fraction(1, 5), Fraction(1, 3), Fraction(1, 2),
                        Fraction(2, 3), Fraction(3, 2), Fraction(2),
                        Fraction(3), Fraction(5)])


def test_lambda_power():
    p = Params(("2", "3"), ("1/2", "1/3"))
    assert oracles.lambda_power(p, "a", (2, 1)) == pytest.approx(12.0)
    assert oracles.lambda_power(p, "b", (-1, 0)) == pytest.approx(2.0)


def test_normalization_direct_chain3():
    # chain {0,1,2}: C_a = 1+4+16 = 21, C_b = 1+1/4+1/16, D = 3
    c = oracles.normalization_direct(build_box((3,)), P_CHAIN)
    assert c["a"] == pytest.approx(21.0, rel=1e-14)
    assert c["b"] == pytest.approx(21.0 / 16.0, rel=1e-14)
    assert c["d"] == pytest.approx(3.0, rel=1e-14)
    assert c["ab"] == pytest.approx(393.0 / 16.0, rel=1e-13)


def test_geometric_sum():
    assert analytic.geometric_sum(1.0, 0, 5) == 5.0
    assert analytic.geometric_sum(2.0, 0, 3) == pytest.approx(1 + 4 + 16)
    assert analytic.geometric_sum(0.5, 2, 4) == pytest.approx(
        0.5 ** 4 + 0.5 ** 6)
    assert analytic.geometric_sum(3.0, 0, 0) == 0.0


@given(st.floats(0.1, 10.0), st.integers(0, 6), st.integers(0, 6))
@settings(max_examples=100, deadline=None)
def test_geometric_sum_matches_direct(ratio, lo, width):
    got = analytic.geometric_sum(ratio, lo, lo + width)
    want = sum(ratio ** (2 * x) for x in range(lo, lo + width))
    assert got == pytest.approx(want, rel=1e-12, abs=1e-300)


def _random_gapped(rng, d):
    vals = [Fraction(1, 3), Fraction(1, 2), Fraction(2), Fraction(3),
            Fraction(5), Fraction(1)]
    while True:
        la = tuple(rng.choice(vals) for _ in range(d))
        lb = tuple(rng.choice(vals) for _ in range(d))
        p = Params(la, lb)
        try:
            return p, select_tilt(p)
        except Exception:
            continue


def test_closed_form_matches_direct_randomized():
    rng = random.Random(12345)
    checked = 0
    while checked < 200:
        d = rng.choice([1, 2, 3])
        p, t = _random_gapped(rng, d)
        j = rng.randrange(d)
        ell = rng.randint(1, 4)
        n = rng.randint(ell, ell + 3)
        extents = tuple(rng.randint(1, 3) for _ in range(d))
        fam = VolumeFamilySpec(t, extents, j)
        sl = fam.member(n).difference(fam.member(n - ell))
        if len(sl) == 0:
            continue
        nd = oracles.normalization_direct(sl, t.params)
        nc = analytic.normalization_closed_form(fam, n - ell, n)
        for key in ("a", "b", "d", "ab"):
            x, y = nd[key], nc[key]
            # C_ab is a difference of products; measure against its scale
            scale = nd["a"] * nd["b"] if key == "ab" else 0.0
            assert abs(x - y) <= 1e-12 * max(abs(x), abs(y), scale), \
                (key, d, t.case, extents, j, n, ell)
        checked += 1


def test_ground_state_vector_normalized_and_sector_checked():
    v = build_box((4,))
    b = fock.enumerate_sector(v, 1, 1)
    psi = analytic.ground_state_vector(P_CHAIN, b)
    assert np.linalg.norm(psi) == pytest.approx(1.0, rel=1e-14)
    with pytest.raises(InputError):
        analytic.ground_state_vector(P_CHAIN, fock.enumerate_sector(v, 2, 0))
    apart = fock.enumerate_sector(Volume(1, ((0,), (2,))), 1, 1)
    with pytest.raises(InputError, match="connected"):
        analytic.ground_state_vector(P_CHAIN, apart)


def test_ground_state_extreme_parameters_stable():
    # amplitudes span ~1e24 in ratio; max-shifted logs must not overflow
    v = build_box((9,))
    p = Params(("1000",), ("1/1000",))
    b = fock.enumerate_sector(v, 1, 0)
    psi = analytic.ground_state_vector(p, b)
    assert np.isfinite(psi).all()
    assert np.linalg.norm(psi) == pytest.approx(1.0, rel=1e-14)


def test_trial_energy_flat_species_is_one_over_l(monkeypatch):
    # trial energies only: no box is solved
    monkeypatch.setattr(spectra, "SCALING_NUMERIC_CAP", 1)
    p = Params(("1",), ("2",))
    pts = spectra.gapless_scaling(p, range(2, 41))
    assert [pt["trial_energy"] for pt in pts] == [1.0 / L for L in range(2, 41)]


def test_product_bounds_chain():
    t = select_tilt(Params(("10",), ("1/10",)))
    reports = analytic.check_product_bounds(sweep_family(t, 0, 7, 7), 3, 9)
    assert all(r["pass"] for r in reports)
    assert all(r["slack"] >= 0 for r in reports)


def test_diagonal_bound_needs_opposite_signs():
    t_same = select_tilt(Params(("10",), ("5",)))
    with pytest.raises(InputError):
        analytic.check_diagonal_bound(sweep_family(t_same, 0, 5, 5), 1, 6)
    t_opp = select_tilt(Params(("10",), ("1/10",)))
    rep = analytic.check_diagonal_bound(sweep_family(t_opp, 0, 5, 5), 1, 6)
    assert rep["pass"]


def test_ratio_bounds_frozen_oracles():
    # growing species lambda~=2: C(n+1-ell)/C(n) at n=6, ell=4 is 21/1365
    t = select_tilt(Params(("2",), ("1/2",)))
    chain = sweep_family(t, 0, 1, 1)  # in d = 1 no extent is read
    reports = {r["name"]: r for r in analytic.check_ratio_bounds(chain, 6, 4)}
    r1 = reports["4R1[a]"]
    assert r1["lhs"] == pytest.approx(21.0 / 1365.0, rel=1e-12)
    assert r1["rhs"] == pytest.approx(2.0 ** -6, rel=1e-12)
    assert r1["pass"]
    # shrinking species 1/2: corrected bound e^(-2n|log|) at n=4
    reports4 = {r["name"]: r
                for r in analytic.check_ratio_bounds(chain, 4, 3)}
    l3 = reports4["4L3[b]"]
    assert l3["lhs"] == pytest.approx((0.5 ** 8) / (85.0 / 64.0), rel=1e-12)
    assert l3["rhs"] == pytest.approx(0.5 ** 8, rel=1e-12)
    assert l3["pass"]


def test_ratio_bounds_randomized():
    rng = random.Random(99)
    checked = 0
    while checked < 120:
        d = rng.choice([1, 2])
        p, t = _random_gapped(rng, d)
        j = rng.randrange(d)
        ell = rng.randint(2, 6)
        n = rng.randint(ell, ell + 4)
        fam = VolumeFamilySpec(t, tuple(rng.randint(2, 4) for _ in range(d)),
                               j)
        for r in analytic.check_ratio_bounds(fam, n, ell):
            assert r["pass"], (r, p.to_json(), j, n, ell)
        checked += 1


def test_bound_report_slack_sign():
    rep = analytic._check("x", 2.0, 1.0)
    assert not rep["pass"] and rep["slack"] < 0
