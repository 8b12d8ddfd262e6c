import functools

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from pvbs import (ComputeError, InputError, analytic, fock, lattice, operators,
                  spectra)
from pvbs.lattice import Volume, build_box, build_tilted
from pvbs.model import Params
from oracles import chain_sector_lowest, one_particle_gap, splitmix64
from strategies import chain_params, volumes_and_params

P_CHAIN = Params(("2",), ("1/2",))
P2_SELF_DUAL = Params(("2", "3"), ("1/2", "1/3"))
# direction 1 has lambda_a = lambda_b = 3, so only direction 0 is reflected
P2_FLIP_0 = Params(("2", "3"), ("1/2", "3"))
TILTED = build_tilted(1, (1,), (3, 2))


def test_dense_eigenvalues_sorted():
    v = build_box((3,))
    b = fock.enumerate_sector(v, 1, 0)
    h = operators.assemble_sector_hamiltonian(
        operators.sector_pattern(b), operators.edge_weights(P_CHAIN))
    vals = spectra.lowest_eigenvalues(h, k=h.shape[0])
    assert list(vals) == sorted(vals)
    assert vals[0] == pytest.approx(0.0, abs=1e-12)


def test_lowest_eigenvalues_dense_vs_lanczos(monkeypatch):
    # one sector just below DENSE_CAP (dense by default) and one just
    # above it (Lanczos by default), each solved by both branches
    assert 56 <= spectra.DENSE_CAP < 70
    for n, n_a, n_b, dim in ((8, 0, 3, 56), (8, 0, 4, 70)):
        v = build_box((n,))
        b = fock.enumerate_sector(v, n_a, n_b)
        h = operators.assemble_sector_hamiltonian(
            operators.sector_pattern(b), operators.edge_weights(P_CHAIN))
        assert h.shape[0] == dim
        dense = np.linalg.eigvalsh(h.toarray())[:3]
        default = spectra.lowest_eigenvalues(h, k=3)
        with monkeypatch.context() as m:
            m.setattr(spectra, "DENSE_CAP", 0)
            lanczos = spectra.lowest_eigenvalues(h, k=3)
        assert np.allclose(lanczos, dense, rtol=1e-10, atol=0)
        assert list(default) == list(
            dense if dim <= spectra.DENSE_CAP else lanczos)


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("volume, p, sector", [
    (build_box((8,)), P_CHAIN, (1, 3)),
    (build_box((15,)), P_CHAIN, (1, 1)),  # a ground sector
    (build_box((3, 3)), Params(("2", "3"), ("1/2", "1/3")), (1, 3)),
    (build_tilted(1, (1,), (3, 3)), Params(("2", "3"), ("1/2", "1/3")),
     (2, 1)),
    # 65 to 200 states: a dense solve takes little wall time there, but it
    # wakes OpenBLAS's second thread, so these go to Lanczos too
    (build_box((8,)), P_CHAIN, (0, 4)),  # 70 states
    (build_box((10,)), P_CHAIN, (1, 1)),  # a ground sector, 90 states
    (build_box((8,)), P_CHAIN, (1, 2)),  # 168 states
    (build_box((3, 3)), P2_SELF_DUAL, (0, 4)),  # 126 states
], ids=["d1", "d1-ground-sector", "d2", "tilted", "d1-70", "d1-ground-90",
        "d1-168", "d2-126"])
def test_lanczos_matches_arpack_and_dense(volume, p, sector, k):
    """The default solve of a sector above DENSE_CAP, which is Lanczos,
    against dense eigvalsh and against scipy's ARPACK on the same matrix."""
    h = operators.assemble_sector_hamiltonian(
        operators.sector_pattern(fock.enumerate_sector(volume, *sector)),
        operators.edge_weights(p))
    dim = h.shape[0]
    assert dim > spectra.DENSE_CAP
    got = spectra.lowest_eigenvalues(h, k)
    dense = np.linalg.eigvalsh(h.toarray())[:k]
    arpack = np.sort(spla.eigsh(sp.csr_matrix(h.toarray()), k=k, which="SA",
                                v0=spectra.lanczos_start(dim))[0])
    for ref in (dense, arpack):
        assert np.allclose(got, ref, rtol=1e-10, atol=1e-12)


def test_lanczos_start_is_splitmix64():
    # the published first output of splitmix64 seeded with 0
    assert splitmix64(0, 1) == [0xE220A8397B1DCDAF]
    outputs = splitmix64(spectra.LANCZOS_SEED, 3 * 7)
    for draw in range(3):
        ref = np.array([(z >> 11) * 2.0 ** -53 - 0.5
                        for z in outputs[7 * draw:7 * draw + 7]])
        assert np.array_equal(spectra.lanczos_start(7, draw),
                              ref / np.linalg.norm(ref))


def _diagonal(diag):
    dim = len(diag)
    return operators.SectorMatrix(np.arange(dim)[None, :], diag[None, :],
                                  dim, float(np.abs(diag).max()))


def test_lanczos_leaves_an_invariant_subspace(monkeypatch):
    # three distinct values: every Krylov space has dimension 3, so
    # Lanczos finds a twofold lowest value only by going on outside the
    # first one. It draws a fresh start vector (draw >= 1) where the
    # residual counts as zero, which turns on rounding: it does on the
    # 300 states here and on 3 of the 8 layouts of 100 states with
    # numpy's OpenBLAS on x86-64, so it must on at least one of them
    draws = []
    real = spectra.lanczos_start
    monkeypatch.setattr(spectra, "lanczos_start", lambda dim, draw=0: (
        draws.append(draw), real(dim, draw))[1])
    h = _diagonal(np.repeat([1.0, 2.0, 3.0], 100))
    assert list(spectra.lowest_eigenvalues(h, k=2)) == pytest.approx(
        [1.0, 1.0], rel=1e-12)
    diag = np.resize([3.0, 1.0, 2.0], 100)
    for shift in range(8):
        h = _diagonal(np.roll(diag, shift))
        for k in (1, 2):
            assert list(spectra.lowest_eigenvalues(h, k)) == pytest.approx(
                list(np.sort(diag)[:k]), rel=1e-12)
    assert max(draws) >= 1
    # with H = 0 the residual of every step is exactly zero, and each
    # basis vector after the first is a fresh one orthogonal to the others
    vals, vecs = spectra._lanczos(_diagonal(np.zeros(300)), 2, 1.0)
    assert list(vals) == [0.0, 0.0]
    assert np.allclose(vecs.T @ vecs, np.eye(2), rtol=0, atol=1e-14)


def test_total_gap_checks_the_analytic_ground_vector(monkeypatch):
    # the true ground vector rolled by one state is no kernel vector; the
    # one state of sector (0,0) rolls onto itself, so (0,1) is the first
    # to fail
    real = analytic.ground_state_vector
    monkeypatch.setattr(analytic, "ground_state_vector",
                        lambda p, basis: np.roll(real(p, basis), 1))
    with pytest.raises(ComputeError, match=r"analytic ground vector fails "
                                           r"in sector \(0,1\): residual"):
        spectra.total_gap(build_box((4,)), P_CHAIN)


def test_lanczos_residual_check(perturbed_lanczos, monkeypatch):
    v = build_box((7,))
    b = fock.enumerate_sector(v, 2, 2)
    h = operators.assemble_sector_hamiltonian(
        operators.sector_pattern(b), operators.edge_weights(P_CHAIN))
    monkeypatch.setattr(spectra, "DENSE_CAP", 0)
    with pytest.raises(ComputeError, match="residual"):
        spectra.lowest_eigenvalues(h, k=2)


def test_total_gap_lanczos_matches_dense(monkeypatch):
    """Every sector solved by Lanczos (for the kernel and the next
    eigenvalue where it bears a ground state) matches a run with every
    sector dense."""
    # the ground sectors (1,0), (0,1) and (1,1) of 6 sites go to Lanczos
    # for two eigenvalues each, but where (1,0) is the mirror twin of
    # (0,1) it is not solved: on the self-dual boxes, and on the tilted
    # parallelogram, which is its own image when both directions are
    # reflected; with lambda_a = lambda_b = 3 in direction 1, only
    # direction 0 is reflected, and that image is another volume
    cases = ((build_box((6,)), P_CHAIN, 2),
             (build_box((2, 3)), P2_SELF_DUAL, 2),
             (TILTED, P2_SELF_DUAL, 2), (TILTED, P2_FLIP_0, 3))
    real = spectra._lanczos
    ks = []

    def counting(h, k, scale):
        ks.append(k)
        return real(h, k, scale)

    for v, p, ground_solves in cases:
        with monkeypatch.context() as m:
            m.setattr(spectra, "DENSE_CAP", 10**9)
            dense, _ = spectra.total_gap(v, p)
        ks.clear()
        with monkeypatch.context() as m:
            m.setattr(spectra, "_lanczos", counting)
            m.setattr(spectra, "DENSE_CAP", 0)
            lanczos, _ = spectra.total_gap(v, p)
        assert ks.count(2) == ground_solves
        assert lanczos["kernel_total"] == dense["kernel_total"] == 4
        for s, t in zip(dense["sectors"], lanczos["sectors"]):
            assert (s["n_a"], s["n_b"], s["kernel"]) == \
                (t["n_a"], t["n_b"], t["kernel"])
            if s["lowest_excited"] is None:
                assert t["lowest_excited"] is None
            else:
                assert t["lowest_excited"] == pytest.approx(
                    s["lowest_excited"], rel=1e-10)


def _solve(monkeypatch, v, p, **kwargs):
    """total_gap's record and floors, and the sectors it built a pattern
    for."""
    real = operators.sector_pattern
    built = []

    def counting(basis):
        built.append((basis.n_a, basis.n_b))
        return real(basis)

    with monkeypatch.context() as m:
        m.setattr(operators, "sector_pattern", counting)
        rec, floors = spectra.total_gap(v, p, **kwargs)
    return rec, floors, built


def _direct(monkeypatch, v, p, **kwargs):
    """total_gap's record with every sector solved."""
    with monkeypatch.context() as m:
        m.setattr(spectra, "_mirror_twins", lambda v, p: False)
        rec, _, built = _solve(monkeypatch, v, p, **kwargs)
    assert built == [(s["n_a"], s["n_b"]) for s in rec["sectors"]
                     if not s["skipped"]]
    return rec


def _assert_same_records(rep, direct):
    """Same sectors, dimensions, kernels and skips; floats to 1e-12."""
    keys = ("n_a", "n_b", "dim", "kernel", "skipped")
    for s, t in zip(rep["sectors"], direct["sectors"], strict=True):
        assert [s[k] for k in keys] == [t[k] for k in keys]
        if t["lowest_excited"] is None:
            assert s["lowest_excited"] is None
        else:
            assert s["lowest_excited"] == pytest.approx(
                t["lowest_excited"], rel=1e-12, abs=0)
    assert (rep["kernel_total"], rep["partial"]) == \
        (direct["kernel_total"], direct["partial"])
    assert rep.keys() == direct.keys()
    # the gap, or a partial record's upper bound on it
    gap = "gap_upper_bound" if rep["partial"] else "gap"
    assert rep[gap] == pytest.approx(direct[gap], rel=1e-12, abs=0)


@pytest.mark.parametrize("v, p", [
    (build_box((7,)), P_CHAIN),
    (build_box((7,)), Params(("10",), ("1/10",))),
    (build_box((2, 3)), P2_SELF_DUAL),
    (build_box((3, 3)), P2_FLIP_0),
    # a parallelogram is its own image when both directions are reflected
    (TILTED, P2_SELF_DUAL),
], ids=["box7-2", "box7-10", "box2x3", "box3x3-flip-0", "tilted"])
def test_mirror_twin_records_equal_direct_solves(monkeypatch, v, p):
    rep, _, built = _solve(monkeypatch, v, p)
    assert built == [(s["n_a"], s["n_b"]) for s in rep["sectors"]
                     if s["n_a"] <= s["n_b"]]
    _assert_same_records(rep, _direct(monkeypatch, v, p))
    assert rep["kernel_total"] == 4
    # a copied record carries its twin's float, bit for bit
    own = {(s["n_a"], s["n_b"]): s["lowest_excited"] for s in rep["sectors"]}
    assert all(own[n_a, n_b] == own[n_b, n_a] for n_a, n_b in own)


@pytest.mark.parametrize("v, p", [
    (build_box((3, 3)), Params(("2", "3"), ("1/2", "1/2"))),
    (TILTED, P2_FLIP_0),
], ids=["box3x3", "tilted-flip-0"])
def test_no_mirror_solves_every_sector(monkeypatch, v, p):
    assert not spectra._mirror_twins(v, p)
    rep, _, built = _solve(monkeypatch, v, p)
    assert built == [(s["n_a"], s["n_b"]) for s in rep["sectors"]]


def test_mirror_twins_over_budget_are_both_skipped(monkeypatch):
    # (1,2) and (2,1) of 6 sites have 60 states each
    v = build_box((6,))
    rep, _, built = _solve(monkeypatch, v, P_CHAIN, sector_cap=50)
    skipped = {(s["n_a"], s["n_b"]) for s in rep["sectors"] if s["skipped"]}
    assert {(1, 2), (2, 1)} <= skipped
    assert all((n_b, n_a) in skipped for n_a, n_b in skipped)
    assert built == [(s["n_a"], s["n_b"]) for s in rep["sectors"]
                     if s["n_a"] <= s["n_b"] and not s["skipped"]]
    _assert_same_records(rep, _direct(monkeypatch, v, P_CHAIN,
                                      sector_cap=50))


@pytest.mark.parametrize("la, lb, mirrored", [
    ("0.1", "10", True),  # exactly 1/10 * 10 = 1
    ("2", "0.5000000000000001", False),
    ("1", "1", True),  # the species exchange alone
    ("2,3", "1/2,1/3", True),
    ("2,3", "1/2,2", False),
])
def test_mirror_twins_compares_exact_weights(la, lb, mirrored):
    p = Params(tuple(la.split(",")), tuple(lb.split(",")))
    v = build_box((3,) * p.dim)
    assert spectra._mirror_twins(v, p) is mirrored


def test_total_gap_chain_frozen():
    rep, _ = spectra.total_gap(build_box((4,)), P_CHAIN)
    assert rep["kernel_total"] == 4
    assert not rep["partial"]
    assert rep["gap"] == pytest.approx(0.43431457505076165, rel=1e-10)


def test_total_gap_matches_bruteforce():
    # oracle: full 3^n dense spectrum, gap = smallest nonzero eigenvalue
    v = build_box((2, 2))
    p = Params(("2", "3"), ("1/2", "1/3"))
    full = np.zeros((81, 81))
    weights = operators.edge_weights(p)
    for na in range(5):
        for nb in range(5 - na):
            b = fock.enumerate_sector(v, na, nb)
            h = operators.assemble_sector_hamiltonian(
                operators.sector_pattern(b), weights).toarray()
            full[np.ix_(b.states, b.states)] = h
    vals = np.linalg.eigvalsh(full)
    kernel = int(np.count_nonzero(vals < 1e-8))
    oracle_gap = vals[kernel]
    rep, _ = spectra.total_gap(v, p)
    assert kernel == 4 == rep["kernel_total"]
    assert rep["gap"] == pytest.approx(oracle_gap, rel=1e-9)


@pytest.mark.parametrize("la,lb,dims", [
    *((la, lb, (n,)) for la, lb in [(("2",), ("1/2",)),
                                    (("10",), ("1/10",)),
                                    (("2",), ("3",))]
      for n in (6, 9, 11)),
    (("2", "3"), ("1/2", "1/2"), (3, 3)),
    (("2", "3"), ("1/2", "1/2"), (3, 4)),
])
def test_one_particle_sectors_match_the_closed_form(la, lb, dims):
    # the cap skips every sector larger than the one-particle ones
    p = Params(la, lb)
    vol = build_box(dims)
    rep, _ = spectra.total_gap(vol, p, sector_cap=len(vol))
    records = {(r["n_a"], r["n_b"]): r for r in rep["sectors"]}
    assert records[1, 0]["lowest_excited"] == pytest.approx(
        one_particle_gap(p, "a", dims), abs=1e-13)
    assert records[0, 1]["lowest_excited"] == pytest.approx(
        one_particle_gap(p, "b", dims), abs=1e-13)


def test_total_gap_tilted_volume():
    v = build_tilted(1, (1,), (3, 2))
    p = Params(("2", "3"), ("1/2", "1/3"))
    rep, _ = spectra.total_gap(v, p)
    assert rep["kernel_total"] == 4
    assert rep["gap"] > 0


def test_total_gap_sector_cap_marks_partial():
    rep, _ = spectra.total_gap(build_box((6,)), P_CHAIN, sector_cap=50)
    assert rep["partial"]
    assert any(s["skipped"] for s in rep["sectors"])


def test_total_gap_rejects_extra_kernel_vector(monkeypatch):
    # a second kernel vector beside the analytic one in ground sector (0,1)
    monkeypatch.setattr(spectra, "lowest_eigenvalues",
                        lambda h, k=1, **kwargs: np.zeros(k))
    with pytest.raises(ComputeError,
                       match=r"unexpected kernel vector.*\(0,1\)"):
        spectra.total_gap(build_box((3,)), P_CHAIN)


def test_total_gap_rejects_disconnected():
    from pvbs.lattice import Volume
    with pytest.raises(InputError):
        spectra.total_gap(Volume(1, ((0,), (2,))), P_CHAIN)


def test_total_gap_builds_one_edge_list(monkeypatch):
    # the connectivity check, every sector pattern and every analytic
    # ground vector share the edge list the volume keeps
    built = []

    def counting(v):
        built.append(v)
        return real(v)

    real = lattice.Volume.links.func
    links = functools.cached_property(counting)
    links.__set_name__(lattice.Volume, "links")
    monkeypatch.setattr(lattice.Volume, "links", links)
    v = build_box((8,))
    spectra.total_gap(v, P_CHAIN)
    assert built == [v]


@given(chain_params(), st.integers(3, 8))
@settings(max_examples=25, deadline=None)
def test_chain_floors_bound_every_sector(p, n):
    # the shorter chain is itself solved with floors where it has room,
    # so that its bounded sectors feed the floors too
    floors = None
    if n - 2 >= 2:
        floors = spectra.grown_floors(
            spectra.total_gap(build_box((n - 2,)), p)[1])
    _, shorter = spectra.total_gap(build_box((n - 1,)), p, floors=floors)
    lowest = chain_sector_lowest(p, n)
    got = spectra.grown_floors(shorter)
    assert got.keys() == lowest.keys()
    for sector, floor in got.items():
        # to the rounding of the oracle's own solve, which can put a
        # ground sector's zero just below 0
        assert floor <= lowest[sector] + 1e-12, sector


@pytest.mark.parametrize("n, p", [(8, P_CHAIN), (8, Params(("3",), ("1/2",))),
                                  (7, Params(("1/3",), ("1/2",)))],
                         ids=["mirror", "opposite", "same-side"])
def test_floors_bound_sectors_without_building_them(monkeypatch, n, p):
    # one site longer than the floors' chain: only the ground sectors and
    # the four two-particle sectors that border them are solved
    floors = spectra.grown_floors(
        spectra.total_gap(build_box((n - 1,)), p)[1])
    rep, low, built = _solve(monkeypatch, build_box((n,)), p, floors=floors)
    plain, _ = spectra.total_gap(build_box((n,)), p)
    assert rep["gap"] == plain["gap"]
    assert (rep["kernel_total"], rep["partial"]) == \
        (plain["kernel_total"], False)
    solved = {(s["n_a"], s["n_b"]) for s in rep["sectors"]
              if s["kernel"] or s["lowest_excited"] is not None}
    assert solved == {*analytic.GROUND_SECTORS, (2, 0), (0, 2), (2, 1), (1, 2)}
    assert set(built) <= solved
    for s, t in zip(rep["sectors"], plain["sectors"], strict=True):
        sector = s["n_a"], s["n_b"]
        assert not s["skipped"]
        if sector in solved:
            assert s == t
        else:
            assert s["lowest_excited"] is None and s["kernel"] == 0
            assert low[sector] > rep["gap"]
            assert low[sector] <= t["lowest_excited"]


@pytest.mark.parametrize("cap, skipped", [(50, {(2, 1), (1, 2)}),
                                          (60, set())],
                         ids=["partial", "exact"])
def test_floors_outrank_the_cap(cap, skipped):
    # a sector over the cap that its floor puts above the gap is bounded,
    # not skipped; (2,1) and (1,2), of 60 states, have floor 0 from the
    # ground sector (1,1), so under a cap of 50 they stay skipped and the
    # record partial, while under 60 only bounded sectors are over the cap
    p = Params(("3",), ("1/2",))
    floors = spectra.grown_floors(spectra.total_gap(build_box((5,)), p)[1])
    rep, low = spectra.total_gap(build_box((6,)), p, sector_cap=cap,
                                 floors=floors)
    plain, _ = spectra.total_gap(build_box((6,)), p, sector_cap=cap)
    # the least solved excitation: the gap, or a partial record's bound
    least = rep.get("gap_upper_bound", rep["gap"])
    assert {(s["n_a"], s["n_b"]) for s in rep["sectors"]
            if s["skipped"]} == skipped
    assert (least, rep["partial"]) == \
        (plain["gap_upper_bound"], bool(skipped))
    assert rep["gap"] == (None if skipped else least)
    if not skipped:
        assert rep["gap"] == spectra.total_gap(build_box((6,)), p)[0]["gap"]
    assert plain["partial"]
    for s, t in zip(rep["sectors"], plain["sectors"], strict=True):
        assert t["skipped"] == (s["dim"] > cap)
        if t["skipped"] and not s["skipped"]:
            assert low[s["n_a"], s["n_b"]] > least
            assert s["lowest_excited"] is None and s["kernel"] == 0


@given(chain_params(), chain_params(),
       st.sets(st.integers(2, 9), min_size=1, max_size=4))
@settings(max_examples=15, deadline=None)
def test_climb_is_a_floor_free_solve(p, q, lengths):
    # two points climbed together share each length's patterns; the
    # climb passes every length up to the longest but yields only the
    # chains asked for, and each record is a floor-free solve's
    chains = [build_box((k,)) for k in sorted(lengths)]
    seen = []
    for v, records in spectra.climb([p, q], chains):
        seen.append(v)
        assert [rep["gap"] for rep in records] == [
            spectra.total_gap(v, point)[0]["gap"] for point in (p, q)]
    assert seen == chains


def _bounded(rep: dict) -> int:
    return sum(s["lowest_excited"] is None and not s["kernel"]
               and not s["skipped"] for s in rep["sectors"])


@pytest.mark.parametrize("volumes", [
    [build_box((2, 2)), build_box((3, 3))], [build_box((2, 2, 2))],
    [build_tilted(1, (1,), (3, 3))], [build_tilted(2, (), (2, 2))]],
    ids=["box:2x2,3x3", "box:2x2x2", "case-1 3x3 v=1", "case-2 2x2"])
def test_climb_in_any_dimension_is_a_floor_free_solve(volumes):
    # a gapped and a gapless point climb to the last volume; every gap is
    # a floor-free solve's, though the floors bound sectors on every volume
    d = volumes[0].dim
    gapped = Params(("2", "3", "4")[:d], ("1/2", "1/3", "1/4")[:d])
    gapless = Params(("1",) * d, ("2", "3", "4")[:d])
    seen = []
    for v, records in spectra.climb([gapped, gapless], volumes):
        seen.append(v)
        for p, rep in zip((gapped, gapless), records, strict=True):
            assert rep["gap"] == spectra.total_gap(v, p)[0]["gap"]
            assert _bounded(rep) > 0
    assert seen == volumes


def test_climb_needs_nested_connected_volumes():
    # the second chain misses the first one's site 0; the next volume has
    # a hole at 2; one site has no gap
    for volumes in ([build_box((3,)), Volume(1, ((1,), (2,), (3,), (4,)))],
                    [Volume(1, ((0,), (1,), (3,)))], [build_box((1, 1))]):
        with pytest.raises(InputError, match="nested connected volumes of 2"):
            next(spectra.climb([P_CHAIN], volumes))


def test_gapless_scaling_flat_species():
    p = Params(("1",), ("2",))
    pts = spectra.gapless_scaling(p, [2, 3, 4])
    assert [pt["trial_energy"] for pt in pts] == [0.5, 1 / 3, 0.25]
    assert all(pt["numeric_gap"] is not None for pt in pts)


def test_gapless_scaling_needs_flat_species():
    with pytest.raises(InputError):
        spectra.gapless_scaling(P_CHAIN, [2, 3])


@given(volumes_and_params())
@settings(max_examples=40, deadline=None)
def test_norm_bound_and_kernel_on_random_volumes(case):
    v, p = case
    n = len(v)
    excited = {}
    for na in range(n + 1):
        for nb in range(n + 1 - na):
            b = fock.enumerate_sector(v, na, nb)
            h = operators.assemble_sector_hamiltonian(
                operators.sector_pattern(b), operators.edge_weights(p))
            vals = np.linalg.eigvalsh(h.toarray())
            norm = h.norm
            assert norm == pytest.approx(
                float(abs(h.toarray()).sum(axis=1).max()), rel=1e-15, abs=0)
            # slack for the rounding of the dense eigensolve
            assert vals[-1] <= norm * (1 + 1e-12)
            # one kernel vector in each ground sector, none elsewhere
            kernel = int((na, nb) in analytic.GROUND_SECTORS)
            thresh = spectra.KERNEL_TOL_REL * max(1.0, norm)
            assert np.count_nonzero(vals < thresh) == kernel
            if len(vals) > kernel:
                excited[na, nb] = vals[kernel]
    rep, _ = spectra.total_gap(v, p)
    assert rep["kernel_total"] == 4
    for s in rep["sectors"]:
        sector = s["n_a"], s["n_b"]
        if s["lowest_excited"] is None:
            assert sector not in excited
        else:
            assert s["lowest_excited"] == pytest.approx(excited[sector],
                                                        rel=1e-10)
