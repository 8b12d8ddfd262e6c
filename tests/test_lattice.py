import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import boundary_sites, is_connected_bfs, translate
from pvbs import InputError
from pvbs.cli import parse_volume
from pvbs.lattice import (Volume, VolumeFamilySpec, build_box, build_tilted,
                          growth_order)
from strategies import nested_volumes


class FakeTilt:
    """Minimal stand-in for a TiltScheme in pure-geometry tests."""

    def __init__(self, case, v):
        self.case = case
        self.v = v


def box_family(extents, sweep):
    return VolumeFamilySpec(FakeTilt(1, (0,) * (len(extents) - 1)),
                            extents, sweep)


def test_box_basic():
    v = build_box((3,))
    assert [s for s in v.sites] == [(0,), (1,), (2,)]
    assert len(v.links) == 2

    v = build_box((2, 2))
    assert len(v) == 4
    assert len(v.links) == 4

    v = build_box((2, 3))
    assert len(v) == 6
    es = v.links
    assert len(es) == 7
    assert sum(1 for _, _, j in es if j == 0) == 3
    assert sum(1 for _, _, j in es if j == 1) == 4


def test_box_bad_dims():
    with pytest.raises(InputError):
        build_box(())
    with pytest.raises(InputError):
        build_box((2,) * 5)
    with pytest.raises(InputError):
        build_box((0, 3))


def test_tilted_case1_zero_tilt_is_box():
    assert build_tilted(1, (0,), (2, 2)).sites == build_box((2, 2)).sites


def test_tilted_case1_example():
    v = build_tilted(1, (1,), (2, 2))
    assert set(v.sites) == {(0, 0), (1, 0), (-1, 1), (0, 1)}
    assert len(v) == 4


def test_tilted_case1_d1_is_chain():
    assert build_tilted(1, (), (5,)).sites == build_box((5,)).sites


def test_tilted_case2_examples():
    v = build_tilted(2, (), (1, 1))
    assert set(v.sites) == {(0, 0), (0, 1)}
    v = build_tilted(2, (), (2, 1))
    assert len(v) == 4
    with pytest.raises(InputError):
        build_tilted(2, (), (2, 0))


@given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 2))
@settings(max_examples=30, deadline=None)
def test_tilted_case2_site_count(l1, l2, vtail_flag):
    # |volume| = 2 * prod(L) in any dimension
    if vtail_flag == 0:
        v = build_tilted(2, (), (l1, l2))
        assert len(v) == 2 * l1 * l2
    else:
        v = build_tilted(2, (vtail_flag,), (l1, l2, 2))
        assert len(v) == 2 * l1 * l2 * 2


@given(st.integers(1, 3), st.integers(1, 3), st.integers(0, 2))
@settings(max_examples=20, deadline=None)
def test_tilted_case1_site_count(l1, l2, vj):
    v = build_tilted(1, (vj,), (l1, l2))
    assert len(v) == l1 * l2
    assert v.connected or l1 < vj + 1  # thin volumes may disconnect


def test_slab():
    # a slab is the difference of two family members
    fam = box_family((6,), 0)
    assert fam.member(6).difference(fam.member(3)).sites == ((3,), (4,), (5,))
    assert len(fam.member(4).difference(fam.member(4))) == 0
    assert len(fam.member(0)) == 0
    with pytest.raises(InputError):
        box_family((6,), 1)


def test_slab_tilted_row():
    fam = VolumeFamilySpec(FakeTilt(1, (1,)), (2, 2), 1)
    assert set(fam.member(2).difference(fam.member(1)).sites) == {
        (-1, 1), (0, 1)}


def test_volumes_with_the_same_sites_are_equal():
    # a volume is its dimension and sites, whatever built it
    chains = [build_box((3,)), build_tilted(1, (), (3,)),
              parse_volume("case1:@3"), Volume(1, ((0,), (1,), (2,)))]
    assert all(v == chains[0] for v in chains)
    assert len(set(chains)) == 1
    assert build_box((3,)) != Volume(2, ((0, 0), (1, 0), (2, 0)))


@st.composite
def site_sets(draw):
    """A volume of up to 12 sites drawn from the cube {-2..2}^d, d <= 3."""
    d = draw(st.integers(1, 3))
    sites = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * d),
                          max_size=12, unique=True))
    return Volume(d, tuple(sites))


@given(site_sets())
@settings(max_examples=200, deadline=None)
def test_edges_list_each_adjacent_pair_once(v):
    assert [v.position[s] for s in v.sites] == list(range(len(v)))
    es = v.links
    for i, k, j in es:
        step = tuple(int(a == j) for a in range(v.dim))
        assert v.sites[k] == tuple(x + e for x, e in zip(v.sites[i], step))
    adjacent = [(a, b) for a in v.sites for b in v.sites if a < b
                and sum(abs(x - y) for x, y in zip(a, b)) == 1]
    assert sorted((v.sites[i], v.sites[k]) for i, k, _ in es) == adjacent
    # the one neighbour rule decides connectivity as the site BFS does
    assert v.connected == is_connected_bfs(v)


def test_connectivity():
    assert build_box((4, 2)).connected
    assert not Volume(1, ((0,), (2,))).connected
    assert Volume(2, ()).connected  # vacuously


def _check_growth(volumes):
    """growth_order(volumes) is a permutation of the last volume's sites
    whose every prefix is connected, and each volume is one prefix."""
    order = growth_order(volumes)
    assert sorted(order) == list(volumes[-1].sites)
    for k in range(1, len(order)):
        assert any(sum(abs(x - y) for x, y in zip(order[k], s)) == 1
                   for s in order[:k])
    for v in volumes:
        assert set(order[:len(v)]) == set(v.sites)
    return order


@given(nested_volumes())
@settings(max_examples=100, deadline=None)
def test_growth_order_passes_each_nested_volume(volumes):
    _check_growth(volumes)


@given(st.lists(st.integers(1, 4), min_size=1, max_size=3),
       st.lists(st.integers(1, 6), min_size=1, max_size=4))
@settings(max_examples=50, deadline=None)
def test_growth_order_of_boxes_and_chains_is_canonical(dims, lengths):
    box = build_box(tuple(dims))
    assert _check_growth([box]) == box.sites
    chains = [build_box((n,)) for n in sorted(set(lengths))]
    assert _check_growth(chains) == chains[-1].sites


def test_growth_order_keeps_tilted_prefixes_connected():
    # in canonical order the tilted 3x3 starts at (-2, 2) and then (-1, 1),
    # which are not adjacent
    for v in (build_tilted(1, (1,), (3, 3)), build_tilted(2, (), (2, 2)),
              build_tilted(1, (2, 1), (3, 2, 2))):
        assert v.connected
        assert _check_growth([v]) != v.sites


def test_boundary_sites():
    inner = translate(build_box((5,)), (0,))
    ambient = translate(build_box((7,)), (-1,))
    assert boundary_sites(inner, ambient) == [(0,), (4,)]
    inner2 = translate(build_box((2, 2)), (1, 1))
    ambient2 = build_box((4, 4))
    assert len(boundary_sites(inner2, ambient2)) == 4
    assert boundary_sites(ambient2, ambient2) == []
    with pytest.raises(InputError):
        boundary_sites(ambient2, inner2)


@given(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                min_size=1, max_size=10, unique=True))
@settings(max_examples=50, deadline=None)
def test_translate_preserves_structure(sites):
    v = Volume(2, tuple(sites))
    w = translate(v, (5, -7))
    assert len(w) == len(v)
    assert len(w.links) == len(v.links)
    assert w.connected == v.connected


@st.composite
def families(draw):
    """A Case-1 (d <= 3) or Case-2 (2 <= d <= 3) sweep family with tilt
    integers 0..3 and extents 1..3."""
    case = draw(st.sampled_from((1, 2)))
    d = draw(st.integers(case, 3))
    v = tuple(draw(st.integers(0, 3)) for _ in range(d - case))
    extents = tuple(draw(st.integers(1, 3)) for _ in range(d))
    return VolumeFamilySpec(FakeTilt(case, v), extents,
                            draw(st.integers(0, d - 1)))


@given(families(), st.integers(0, 4))
@settings(max_examples=200, deadline=None)
def test_member_sites_counts_the_built_member(family, n):
    assert family.member_sites(n) == len(family.member(n))

