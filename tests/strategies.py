"""Hypothesis strategies shared by the test modules."""

from fractions import Fraction

from hypothesis import strategies as st

from pvbs.lattice import Volume
from pvbs.model import Params


@st.composite
def nested_volumes(draw):
    """Connected volumes of 2 to 6 sites in d = 1 or 2, ascending, each
    grown from the one before one neighbour at a time; the largest is
    always among them."""
    d = draw(st.integers(1, 2))
    sites, grown = [(0,) * d], []
    for _ in range(draw(st.integers(1, 5))):
        free = sorted({s[:j] + (s[j] + step,) + s[j + 1:]
                       for s in sites for j in range(d)
                       for step in (1, -1)} - set(sites))
        sites.append(draw(st.sampled_from(free)))
        grown.append(Volume(d, tuple(sites)))
    keep = draw(st.lists(st.booleans(), min_size=len(grown) - 1,
                         max_size=len(grown) - 1)) + [True]
    return [v for v, k in zip(grown, keep) if k]


def connected_volumes():
    """A connected volume of 2 to 6 sites in d = 1 or 2, grown one
    neighbour at a time."""
    return nested_volumes().map(lambda volumes: volumes[-1])


def params(d: int):
    """Parameters in d dimensions with rational entries in [1/5, 5]."""
    lam = st.lists(st.fractions(Fraction(1, 5), 5, max_denominator=5),
                   min_size=d, max_size=d).map(tuple)
    return st.builds(Params, lam, lam)


@st.composite
def volumes_and_params(draw):
    v = draw(connected_volumes())
    return v, draw(params(v.dim))


def chain_params():
    """d = 1 parameters whose two weights lie on opposite sides of 1, on
    the same side, with one of them flat (exactly 1), or both near 1."""
    above = st.fractions(Fraction(11, 10), 5, max_denominator=10)
    below = above.map(lambda w: 1 / w)
    side = st.one_of(above, below)
    near = st.fractions(Fraction(19, 20), Fraction(21, 20),
                        max_denominator=100)
    pair = st.one_of(st.tuples(above, below), st.tuples(below, above),
                     st.tuples(above, above), st.tuples(below, below),
                     st.tuples(st.just(Fraction(1)), side),
                     st.tuples(side, st.just(Fraction(1))),
                     st.tuples(near, near))
    return pair.map(lambda ab: Params((ab[0],), (ab[1],)))
