import math

import numpy as np
import pytest

from pvbs import cli, martingale, spectra
from pvbs.lattice import Volume, VolumeFamilySpec, build_box, slab
from pvbs.model import Params, select_tilt

P10 = Params(("10",), ("1/10",))


def tilt10():
    return select_tilt(P10)


def test_permuted_params():
    p = Params(("1", "10"), ("1", "1/10"))
    t = select_tilt(p)
    pp = martingale.permuted_params(p, t)
    assert pp.lambda_a[0] == 10  # shared coordinate moved to the front


def test_condition_i_1d_counts():
    # width-ell slabs stepping by one: an edge along the sweep lies in
    # exactly ell-1 of them in the interior
    t = tilt10()
    fam = martingale.sweep_family(t, 0, 3, 6, upper=6)
    rep = martingale.verify_condition_i(fam, 3, 6)
    assert rep.measured == 2.0
    assert rep.bound == 3.0
    assert rep.passed
    rep2 = martingale.verify_condition_i(
        martingale.sweep_family(t, 0, 2, 6, upper=6), 2, 6)
    assert rep2.measured == 1.0


def test_condition_i_perpendicular_edges_hit_ell():
    # d=2: edges perpendicular to the sweep keep a fixed sweep coordinate
    # and sit in exactly ell consecutive slabs
    p = Params(("10", "10"), ("1/10", "1/10"))
    t = select_tilt(p)
    ell = 3
    fam = martingale.sweep_family(t, 0, ell, 2 * ell, upper=2 * ell)
    rep = martingale.verify_condition_i(fam, ell, 2 * ell)
    assert rep.measured == float(ell)
    assert rep.passed


def test_condition_iii_measured_below_bound():
    t = tilt10()
    pp = martingale.permuted_params(P10, t)
    fam = martingale.sweep_family(t, 0, 7, 2, upper=7)
    rep = martingale.verify_condition_iii(fam, 7, 7, pp)
    assert rep.passed
    assert rep.measured <= rep.bound


def test_condition_iii_full_slab_is_zero():
    # slab = whole ambient volume: G_slab annihilates E_n exactly
    t = tilt10()
    pp = martingale.permuted_params(P10, t)
    fam = martingale.sweep_family(t, 0, 8, 2, upper=8)
    rep = martingale.verify_condition_iii(fam, 7, 8, pp)
    assert rep.measured == pytest.approx(0.0, abs=1e-12)


def test_condition_iii_hypothesis_guard():
    t = select_tilt(Params(("2",), ("1/2",)))
    pp = martingale.permuted_params(Params(("2",), ("1/2",)), t)
    fam = martingale.sweep_family(t, 0, 3, 2, upper=3)
    with pytest.raises(martingale.MartingaleError):
        martingale.verify_condition_iii(fam, 3, 3, pp)  # (3-2)*log2 < 1


def test_condition_iii_cap_guard(capsys):
    # the only size limit is fock's: base-3 codes of 40 sites overflow int64
    code = cli.main(["verify-projection", "--lambda-a", "10", "--lambda-b",
                     "1/10", "--n", "39", "--ell", "7"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: base-3 codes of 40 sites")
    assert "at most 39 sites" in captured.err


class CrossedFamily(VolumeFamilySpec):
    """A family whose member 1 is not inside member n for n > 1."""

    def member(self, n):
        return Volume(1, ((0,), (7,))) if n == 1 else super().member(n)


def test_condition_iii_cover_guard():
    t = tilt10()
    pp = martingale.permuted_params(P10, t)
    # slab = sites 1..6 and inner = sites 0..6 miss ambient site 7
    with pytest.raises(martingale.MartingaleError, match="make up"):
        martingale.verify_condition_iii(CrossedFamily(t, (7,), 0, 7), 7, 7,
                                        pp)


def test_translated_slabs_share_spectrum():
    # condition (ii) rationale: slab Hamiltonians are translates
    t = tilt10()
    fam1 = martingale.sweep_family(t, 0, 3, 2, upper=7, lower=4)
    fam2 = martingale.sweep_family(t, 0, 3, 2, upper=9, lower=6)
    p = P10
    r1 = spectra.total_gap(slab(fam1), p)
    r2 = spectra.total_gap(slab(fam2), p)
    assert r1.gap == pytest.approx(r2.gap, rel=1e-10)


def test_compute_gamma_ell_numeric_and_symbolic():
    t = tilt10()
    pp = martingale.permuted_params(P10, t)
    rep = martingale.compute_gamma_ell(t, pp, 3)
    assert not isinstance(rep, martingale.Symbolic)
    assert rep.gap > 0

    p2 = Params(("10", "10"), ("1/10", "1/10"))
    t2 = select_tilt(p2)
    pp2 = martingale.permuted_params(p2, t2)
    sym = martingale.compute_gamma_ell(t2, pp2, 7)
    assert isinstance(sym, martingale.Symbolic)
    assert sym.blocking_dimension > martingale.DEFAULT_GAMMA_BUDGET


def test_certify_d1_frozen_values():
    cert = martingale.certify(P10)
    assert cert.ell == 7
    assert cert.d_ell == 7
    assert cert.eps_ell == pytest.approx(0.2080, abs=1e-4)
    assert cert.eps_ell < 1 / math.sqrt(cert.ell)
    assert cert.c_tilde == pytest.approx(101.0, rel=1e-10)
    assert cert.factor_per_direction == pytest.approx(0.0289, abs=1e-4)
    assert cert.gamma_ell > 0
    assert cert.final_bound == pytest.approx(
        cert.gamma_ell * cert.factor_per_direction, rel=1e-12)
    assert all(c.passed for c in cert.conditions)
    kinds = {c.condition for c in cert.conditions}
    assert kinds == {"i", "iii"}


def test_certify_lower_bound_consistency_small():
    cert = martingale.certify(P10, check_conditions=False)
    g8 = spectra.total_gap(build_box((8,)), P10).gap
    assert cert.final_bound <= g8


def test_certify_d2_symbolic():
    p = Params(("10", "10"), ("1/10", "1/10"))
    cert = martingale.certify(p)
    assert isinstance(cert.gamma_ell, martingale.Symbolic)
    assert isinstance(cert.final_bound, martingale.Symbolic)
    assert cert.eps_ell < 1 / math.sqrt(cert.ell)
    # condition (i) verified in both directions
    assert sum(1 for c in cert.conditions if c.condition == "i") == 2
    j = cert.to_json()
    assert j["gamma_ell"] == "symbolic"
    assert j["final_bound"] == "symbolic"


def test_certify_d2_condition_iii():
    cert = martingale.certify(Params(("10", "10"), ("1/10", "1/10")))
    iii = [c for c in cert.conditions if c.condition == "iii"]
    # direction 1 with spot_lead 2: 16 and 18 ambient sites
    assert [(c.inputs["j"], c.inputs["n"]) for c in iii] == [(1, 7), (1, 8)]
    assert all(0 < c.measured <= c.bound for c in iii)
    # direction 0 sweeps 7-site columns: 56 ambient sites at n = 7
    [note] = [s for s in cert.notes if "condition (iii)" in s]
    assert "direction 0" in note
    assert "56 sites" in note and "39-site limit" in note


def test_certify_rejects_gapless():
    with pytest.raises(martingale.MartingaleError):
        martingale.certify(Params(("1",), ("2",)))


def test_certificate_json_roundtrips():
    import json
    cert = martingale.certify(P10, check_conditions=False)
    blob = json.dumps(cert.to_json(), sort_keys=True)
    assert json.loads(blob)["ell"] == 7
