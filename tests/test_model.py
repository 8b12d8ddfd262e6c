import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pvbs import ComputeError, InputError
from pvbs.model import (DIVERGENT, GapClass, Params, c_orthant,
                        c_tilde, choose_ell, classify_zd,
                        infinite_gs_census, log_lambda, projection_bound,
                        TiltScheme, select_tilt)


def test_params_parsing_is_exact():
    p = Params(("0.1", "1"), ("2", "1/3"))
    assert p.lambda_a == (Fraction(1, 10), Fraction(1))
    assert p.lambda_b == (Fraction(2), Fraction(1, 3))
    assert log_lambda(p, "a")[1] == 0.0  # exactly zero at 1


def test_params_validation():
    with pytest.raises(InputError):
        Params(("0",), ("1",))
    with pytest.raises(InputError):
        Params(("-2",), ("1",))
    with pytest.raises(InputError):
        Params(("1", "2"), ("1",))  # length mismatch
    for text in ("1/0", "x", ""):
        with pytest.raises(InputError, match="cannot parse"):
            Params((text,), ("1",))


def test_classify_zd():
    assert classify_zd(Params(("1", "1"), ("2", "3"))) is GapClass.GAPLESS
    assert classify_zd(Params(("2", "1"), ("1", "3"))) is GapClass.GAPPED
    assert classify_zd(Params(("1",), ("1",))) is GapClass.GAPLESS


def test_classifier_grid_exactness():
    # gapless exactly when one species' vector is all ones
    vals = [Fraction(1, 2), Fraction(1), Fraction(2)]
    for a1 in vals:
        for a2 in vals:
            for b1 in vals:
                for b2 in vals:
                    p = Params((a1, a2), (b1, b2))
                    expect = (a1 == a2 == 1) or (b1 == b2 == 1)
                    got = classify_zd(p) is GapClass.GAPLESS
                    assert got == expect, (a1, a2, b1, b2)


def test_census_zd():
    # particles escape to infinity: only the vacuum survives
    p = Params(("2",), ("3",))
    assert infinite_gs_census("zd", p) == {"vacuum"}
    with pytest.raises(InputError, match="unknown region"):
        infinite_gs_census("halfspace", p)


def test_orthant_census_and_constant():
    p = Params((Fraction(1, 2), Fraction(1, 3)), (Fraction(2), Fraction(3)))
    assert c_orthant(p, "a") == pytest.approx(
        (1 / (1 - 0.25)) * (1 / (1 - 1 / 9)))
    assert c_orthant(p, "b") == DIVERGENT
    states = infinite_gs_census("orthant", p)
    assert "omega_a" in states and "omega_b" not in states


def test_orthant_constant_is_exact_near_one():
    # lambda = 1 - 1e-17 is 1.0 in double precision; 1 - lambda^2 is not 0
    near = "0.99999999999999999"
    lam = Fraction(near)
    assert c_orthant(Params((near,), ("2",)), "a") == float(
        1 / (1 - lam * lam)) == pytest.approx(5e16, rel=1e-15)
    # 1/(1 - lambda^2) ~ 5e399 is outside double range
    big = 10 ** 400
    with pytest.raises(InputError, match="outside double range"):
        c_orthant(Params((f"{big - 1}/{big}",), ("2",)), "a")


def test_select_tilt_case1_d1():
    t = select_tilt(Params(("10",), ("1/10",)))
    assert t.case == 1
    assert t.lambda_tilde_a == (Fraction(10),)
    assert c_tilde(t) == pytest.approx(101.0, rel=1e-12)


def test_select_tilt_case1_multidim_margin():
    # shared coordinate 0; coordinate 1 needs a tilt integer since both are 1
    p = Params(("10", "1"), ("1/10", "1"))
    t = select_tilt(p)
    assert t.case == 1
    assert t.v == (1,)
    assert t.lambda_tilde_a[1] == Fraction(1, 10)
    assert t.lambda_tilde_b[1] == Fraction(10)


def test_select_tilt_case2():
    p = Params(("10", "1"), ("1", "1/10"))
    t = select_tilt(p)
    assert t.case == 2
    assert t.lambda_tilde_a == (Fraction(10), Fraction(1, 10))
    assert t.lambda_tilde_b == (Fraction(1, 10), Fraction(1, 10))
    assert t.kappa_a == pytest.approx(2.0)  # 1 + 1^2
    assert t.kappa_b == pytest.approx(1.01)


@pytest.mark.parametrize("la,lb", [("2", "1/2"), ("1/3", "3"),
                                   ("5/4", "7")])
def test_select_tilt_case2_tildes_are_the_leading_parameters(la, lb):
    # pa[1] = pb[0] = 1 after the permutation, so the tilde margins are
    # the leading margins, whichever coordinates lead
    for p in (Params((la, "1"), ("1", lb)), Params(("1", la), (lb, "1"))):
        t = select_tilt(p)
        assert t.case == 2
        assert t.lambda_tilde_a[:2] == (Fraction(la), 1 / Fraction(la))
        assert t.lambda_tilde_b[:2] == (Fraction(lb), Fraction(lb))


F = Fraction


@pytest.mark.parametrize("la,lb,expected", [
    (("2", "1", "1"), ("1", "3", "1"), TiltScheme(
        2, (0, 1, 2), (1,), (F(2), F(1, 2), F(1, 2)), (F(3), F(3), F(1, 3)),
        kappa_a=2.0, kappa_b=10.0, kappa_d=10.0,
        params=Params(("2", "1", "1"), ("1", "3", "1")))),
    (("2", "1", "1", "1/2"), ("1", "3", "1", "1"), TiltScheme(
        2, (0, 1, 2, 3), (1, 1), (F(2), F(1, 2), F(1, 2), F(1, 4)),
        (F(3), F(3), F(1, 3), F(1, 3)),
        kappa_a=2.0, kappa_b=10.0, kappa_d=10.0,
        params=Params(("2", "1", "1", "1/2"), ("1", "3", "1", "1")))),
    (("1", "1/3", "1", "1"), ("5/4", "1", "1", "2"), TiltScheme(
        2, (1, 3, 0, 2), (1, 1), (F(1, 3), F(3), F(3), F(3)),
        (F(2), F(2), F(5, 8), F(1, 2)),
        kappa_a=2.0, kappa_b=5.0, kappa_d=5.0,
        params=Params(("1/3", "1", "1", "1"), ("1", "2", "5/4", "1")))),
])
def test_select_tilt_case2_tilts_the_tail(la, lb, expected):
    # the coordinates after the two leads are tilted against the first
    # tilde pair, as in Case 1
    assert select_tilt(Params(la, lb)) == expected


def test_select_tilt_case2_margin_failure():
    # |log 1.05| ~ 0.0488, just below eta = 0.05
    with pytest.raises(ComputeError, match="leading margins"):
        select_tilt(Params(("1.05", "1"), ("1", "2")))


def test_select_tilt_params_in_tilt_order():
    # the shared coordinate 1 leads, and params follow the permutation
    t = select_tilt(Params(("1", "10"), ("1", "1/10")))
    assert t.permutation == (1, 0)
    assert t.params == Params(("10", "1"), ("1/10", "1"))


def test_select_tilt_rejects_gapless():
    with pytest.raises(InputError):
        select_tilt(Params(("1",), ("2",)))


def test_select_tilt_margin_failure():
    close = Fraction(101, 100)  # |log| ~ 0.00995 < eta
    with pytest.raises(ComputeError):
        select_tilt(Params((close,), (close,)))


def test_c_tilde_values():
    t10 = select_tilt(Params(("10",), ("1/10",)))
    assert c_tilde(t10) == pytest.approx(101.0, rel=1e-12)
    t2 = select_tilt(Params(("2",), ("1/2",)))
    assert c_tilde(t2) == pytest.approx(5.0, rel=1e-12)


def test_choose_ell_frozen_values():
    t10 = select_tilt(Params(("10",), ("1/10",)))
    ell, eps = choose_ell(t10)
    assert ell == 7
    assert eps == pytest.approx(0.2080, abs=1e-4)
    assert eps < 1 / math.sqrt(7)
    # one step earlier must fail
    assert projection_bound(t10, 6, t10.min_log) > 1 / math.sqrt(6)

    t2 = select_tilt(Params(("2",), ("1/2",)))
    ell2, eps2 = choose_ell(t2)
    assert ell2 == 13
    assert projection_bound(t2, 12, t2.min_log) > 1 / math.sqrt(12)
    assert eps2 < 1 / math.sqrt(13)


def test_projection_bound_is_the_direct_product_where_that_is_in_range():
    for la, lb in (("10", "1/10"), ("4", "1/4")):
        t = select_tilt(Params((la,), (lb,)))
        ell, eps = choose_ell(t)
        direct = (math.sqrt(60.0 * ell) * c_tilde(t) ** 1.5
                  * math.exp(-(ell - 2) * t.min_log))
        assert eps == pytest.approx(direct, rel=1e-14, abs=0)


def test_projection_bound_strong_weights_do_not_underflow():
    # c~ = 1 + 1e204 and exp(-4 min|log|) = 1e-408: the last factor alone
    # underflows, the bound sqrt(360) * 1e-102 does not
    t = select_tilt(Params(("1e-102",), ("1e102",)))
    assert choose_ell(t) == (6, pytest.approx(math.sqrt(360) * 1e-102,
                                              rel=1e-12))


def test_projection_bound_hypothesis():
    t = select_tilt(Params(("10",), ("1/10",)))
    with pytest.raises(ComputeError):
        projection_bound(t, 2, t.margins[0])
    assert projection_bound(t, 8, t.margins[0]) == pytest.approx(0.0222,
                                                                 abs=2e-4)


def test_margins_per_direction():
    # Case 1 leads with the coordinate of margin log 3 and needs no tilt
    t = select_tilt(Params(("2", "3"), ("1/2", "1/3")))
    assert t.permutation == (1, 0) and t.v == (0,)
    assert t.margins == pytest.approx((math.log(3), math.log(2)), rel=1e-15)
    assert t.min_log == t.margins[1]


def test_choose_ell_cap():
    t = select_tilt(Params(("10",), ("1/10",)))
    with pytest.raises(ComputeError):
        choose_ell(t, cap=4)


@given(st.sampled_from([Fraction(1, 3), Fraction(1, 2), Fraction(2),
                        Fraction(3), Fraction(5)]),
       st.sampled_from([Fraction(1, 3), Fraction(1, 2), Fraction(2),
                        Fraction(3), Fraction(5)]))
@settings(max_examples=25, deadline=None)
def test_epsilon_monotone_in_ell(la, lb):
    t = select_tilt(Params((la,), (lb,)))
    # min|log| >= log 2 here, so the hypothesis (ell-2) min|log| > 1
    # holds from ell = 4 on
    vals = [projection_bound(t, ell, t.min_log) for ell in range(4, 12)]
    assert all(x > y for x, y in zip(vals, vals[1:]))
