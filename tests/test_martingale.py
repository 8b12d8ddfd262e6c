import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest

from pvbs import ComputeError, InputError, cli, fock, martingale, spectra
from pvbs.lattice import Volume, VolumeFamilySpec, build_box
from pvbs.model import Params, select_tilt

import oracles

P10 = Params(("10",), ("1/10",))


def tilt10():
    return select_tilt(P10)


def test_condition_i_1d_counts():
    # width-ell slabs stepping by one: an edge along the sweep lies in
    # exactly ell-1 of them in the interior
    t = tilt10()
    rep = martingale.verify_condition_i(t, 0, 3)
    assert rep == {"condition": "i", "inputs": {"j": 0, "ell": 3, "L": 6},
                   "measured": 2.0, "bound": 3.0, "pass": True}
    assert martingale.verify_condition_i(t, 0, 2)["measured"] == 1.0


def test_condition_i_perpendicular_edges_hit_ell():
    # d=2: edges perpendicular to the sweep keep a fixed sweep coordinate
    # and sit in exactly ell consecutive slabs
    p = Params(("10", "10"), ("1/10", "1/10"))
    t = select_tilt(p)
    ell = 3
    rep = martingale.verify_condition_i(t, 0, ell)
    assert rep["measured"] == float(ell)
    assert rep["pass"]


def _stand_in_tilts():
    """Tilts of both cases in d = 1..3 with every tilt integer in 0..3;
    the sweep family reads only case, v and dim."""
    for d in (1, 2, 3):
        for case in (1, 2):
            free = d - case
            if free < 0:
                continue
            for v in itertools.product(range(4), repeat=free):
                yield SimpleNamespace(case=case, v=v, dim=d)


@pytest.mark.parametrize("t", list(_stand_in_tilts()),
                         ids=lambda t: f"case{t.case}-v{t.v}-d{t.dim}")
def test_condition_i_closed_form_matches_the_lattice_count(t):
    for j in range(t.dim):
        for ell in range(1, 6):
            rep = martingale.verify_condition_i(t, j, ell)
            count = oracles.slab_membership_count(t, j, ell)
            assert rep["measured"] == count, (j, ell)
            assert rep["inputs"] == {"j": j, "ell": ell, "L": 2 * ell}
            assert rep["bound"] == float(ell)


def test_condition_i_builds_no_volume(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("condition (i) built a volume")

    t = select_tilt(Params(("2", "3", "4", "5"), ("1/2",) * 4))
    monkeypatch.setattr(VolumeFamilySpec, "member", refuse)
    monkeypatch.setattr(Volume, "__post_init__", refuse)
    for j in range(4):
        assert martingale.verify_condition_i(t, j, 10)["pass"]


def test_condition_iii_measured_below_bound():
    fam = martingale.sweep_family(tilt10(), 0, 7, 2)
    rep = martingale.verify_condition_iii(fam, 7, 7)
    assert rep["pass"]
    assert rep["measured"] <= rep["bound"]


def test_condition_iii_full_slab_is_zero():
    # slab = whole ambient volume: G_slab annihilates E_n exactly
    fam = martingale.sweep_family(tilt10(), 0, 8, 2)
    rep = martingale.verify_condition_iii(fam, 7, 8)
    assert rep["measured"] == pytest.approx(0.0, abs=1e-12)


def test_condition_iii_hypothesis_guard():
    t = select_tilt(Params(("2",), ("1/2",)))
    fam = martingale.sweep_family(t, 0, 3, 2)
    with pytest.raises(ComputeError):
        martingale.verify_condition_iii(fam, 3, 3)  # (3-2)*log2 < 1


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
    # slab = sites 1..6 and inner = sites 0..6 miss ambient site 7
    with pytest.raises(ComputeError, match="make up"):
        martingale.verify_condition_iii(CrossedFamily(tilt10(), (7,), 0),
                                        7, 7)


def test_translated_slabs_share_spectrum():
    # condition (ii) rationale: slab Hamiltonians are translates
    fam = martingale.sweep_family(tilt10(), 0, 3, 2)
    r1, _ = spectra.total_gap(fam.member(7).difference(fam.member(4)), P10)
    r2, _ = spectra.total_gap(fam.member(9).difference(fam.member(6)), P10)
    assert r1["gap"] == pytest.approx(r2["gap"], rel=1e-10)


def _noted_dimension(note: str):
    """The dimension that a symbolic seed's note names: an int, or the
    string "10^x.x"."""
    prefix = ("seed gap left symbolic: largest particle sector exceeds the "
              "eigensolver budget (dimension ")
    assert note.startswith(prefix) and note.endswith(")"), note
    shown = note[len(prefix):-1]
    return shown if shown.startswith("10^") else int(shown)


def test_compute_gamma_ell_numeric_and_symbolic():
    rep = martingale.compute_gamma_ell(tilt10(), 3)
    assert not isinstance(rep, str)
    assert rep["gap"] > 0

    p2 = Params(("10", "10"), ("1/10", "1/10"))
    note = martingale.compute_gamma_ell(select_tilt(p2), 7)
    assert isinstance(note, str)
    assert _noted_dimension(note) > martingale.DEFAULT_GAMMA_BUDGET


def test_d2_seed_is_climbed_to_a_floor_free_gap():
    # the 3x3 seed is floored by its 8-site prefix, which bounds sectors
    # without changing the gap by a bit
    t = select_tilt(Params(("2", "3"), ("1/2", "1/3")))
    seed = martingale.compute_gamma_ell(t, 3)
    v = martingale.sweep_family(t, 0, 3, 3).member(3)
    assert len(v) == 9
    assert seed["gap"] == spectra.total_gap(v, t.params)[0]["gap"]
    assert any(s["lowest_excited"] is None and not s["kernel"]
               for s in seed["sectors"])


def test_largest_seed_sector_is_the_most_even_split():
    # with no budget, the note names the largest sector dimension of the
    # ell-site seed chain
    t = tilt10()
    for n in range(1, 61):
        worst = max(fock.sector_dimension(n, na, nb)
                    for na in range(n + 1) for nb in range(n + 1 - na))
        note = martingale.compute_gamma_ell(t, n, budget=0)
        assert _noted_dimension(note) == worst, n


def test_a_seed_over_the_sector_cap_is_symbolic_at_any_budget(monkeypatch):
    # the 17-site chain's largest sector, (6, 6), has 5717712 states, more
    # than any solve enumerates, so a larger budget still leaves the seed
    # symbolic rather than solving it with that sector skipped
    def refuse(*args, **kwargs):
        raise AssertionError("seed solved")

    monkeypatch.setattr(spectra, "climb", refuse)
    note = martingale.compute_gamma_ell(tilt10(), 17, budget=10 ** 7)
    assert _noted_dimension(note) == 5717712 > fock.DEFAULT_SECTOR_CAP


def test_a_huge_seed_is_over_budget_without_its_dimension(monkeypatch):
    # past the digits Python writes an int with, the largest sector is a
    # power of ten from log-gammas, the same one the exact integer gives;
    # the 34^4 sites are those of certify at 6/5 and 1/2 in d = 4
    exact = {n: fock.sector_dimension(n, (n + 2) // 3, (n + 1) // 3)
             for n in (9100, 10 ** 4)}
    real = fock.sector_dimension

    def refuse(n, n_a, n_b):
        assert n <= 10 ** 4, "exact dimension over 10^4 sites"
        return real(n, n_a, n_b)

    monkeypatch.setattr(fock, "sector_dimension", refuse)
    p4 = Params(("6/5",) * 4, ("1/2",) * 4)
    note = martingale.compute_gamma_ell(select_tilt(p4), 34)
    assert _noted_dimension(note) == "10^637588.1"
    for n, worst in exact.items():
        note = martingale.compute_gamma_ell(tilt10(), n)
        assert _noted_dimension(note) == f"10^{math.log10(worst):.1f}"


def test_certify_d1_frozen_values():
    cert = martingale.certify(P10)
    assert cert["ell"] == 7
    assert cert["d_ell"] == 7
    assert cert["eps_ell"] == pytest.approx(0.2080, abs=1e-4)
    assert cert["eps_ell"] < 1 / math.sqrt(cert["ell"])
    assert cert["c_tilde"] == pytest.approx(101.0, rel=1e-10)
    assert cert["factor_per_direction"] == pytest.approx(0.0289, abs=1e-4)
    assert cert["gamma_ell"] > 0
    assert cert["final_bound"] == pytest.approx(
        cert["gamma_ell"] * cert["factor_per_direction"], rel=1e-12)
    assert all(c["pass"] for c in cert["conditions"])
    kinds = {c["condition"] for c in cert["conditions"]}
    assert kinds == {"i", "iii"}


def test_certify_lower_bound_consistency_small():
    cert = martingale.certify(P10)
    g8 = spectra.total_gap(build_box((8,)), P10)[0]["gap"]
    assert cert["final_bound"] <= g8


@pytest.mark.parametrize("la,lb", [("10", "1/10"), ("4", "1/4")])
def test_certify_d1_lies_below_the_one_particle_limit(la, lb):
    # min (1 - lambda)^2 / (1 + lambda^2) over species and directions is
    # the L -> infinity limit of `oracles.one_particle_gap`, which bounds
    # the gap of every chain from above
    p = Params((la,), (lb,))
    limit = min((1.0 - lam) ** 2 / (1.0 + lam * lam)
                for s in "ab" for lam in p.floats(s))
    assert 0 < martingale.certify(p)["final_bound"] < limit


def test_certify_d2_symbolic():
    p = Params(("10", "10"), ("1/10", "1/10"))
    cert = martingale.certify(p)
    assert cert["gamma_ell"] == "symbolic"
    assert cert["final_bound"] == "symbolic"
    assert cert["eps_ell"] < 1 / math.sqrt(cert["ell"])
    # condition (i) verified in both directions
    assert sum(1 for c in cert["conditions"] if c["condition"] == "i") == 2


def test_certify_d2_condition_iii():
    cert = martingale.certify(Params(("10", "10"), ("1/10", "1/10")))
    iii = [c for c in cert["conditions"] if c["condition"] == "iii"]
    # direction 1 with SPOT_LEAD 2: 16 and 18 ambient sites
    assert [(c["inputs"]["j"], c["inputs"]["n"]) for c in iii] == [
        (1, 7), (1, 8)]
    assert all(0 < c["measured"] <= c["bound"] for c in iii)
    # direction 0 sweeps 7-site columns: 56 ambient sites at n = 7
    [note] = [s for s in cert["notes"] if "condition (iii)" in s]
    assert "direction 0" in note
    assert "56 sites" in note and "39-site limit" in note


def test_certify_rejects_gapless():
    with pytest.raises(InputError):
        martingale.certify(Params(("1",), ("2",)))


def test_certificate_json_roundtrips():
    import json
    cert = martingale.certify(P10)
    blob = json.dumps(cert, sort_keys=True)
    assert json.loads(blob)["ell"] == 7
