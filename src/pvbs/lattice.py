"""Finite subvolumes of Z^d: boxes, tilted parallelepipeds, sweep families.

Sites are tuples of ints in lexicographic (canonical) order, so every
derived object (edges, bases, serializations) is deterministic.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property

from . import InputError

MAX_DIM = 4

Site = tuple[int, ...]


def _check_dim(d: int) -> None:
    if not 1 <= d <= MAX_DIM:
        raise InputError(f"dimension must be in 1..{MAX_DIM}, got {d}")


@dataclass(frozen=True)
class Volume:
    """Sites of Z^d in canonical order; site s is `sites[position[s]]`.
    A volume never changes, so its edge list and its connectivity are each
    computed once, on first use, and kept as `links` and `connected`."""

    dim: int
    sites: tuple[Site, ...]
    position: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_dim(self.dim)
        ordered = tuple(sorted(set(self.sites)))
        if len(ordered) != len(self.sites):
            raise InputError("duplicate sites in volume")
        object.__setattr__(self, "sites", ordered)
        object.__setattr__(self, "position",
                           {s: i for i, s in enumerate(ordered)})

    def __len__(self) -> int:
        return len(self.sites)

    def __contains__(self, site: Site) -> bool:
        return site in self.position

    def difference(self, other: "Volume") -> "Volume":
        return Volume(self.dim, tuple(self.position.keys() - other.position))

    @cached_property
    def links(self) -> tuple[tuple[int, int, int], ...]:
        """All nearest-neighbor pairs as position triples (i, k, j), ordered
        by i and then j: sites[k] = sites[i] + e_j, j 0-based."""
        return tuple((i, self.position[t], j)
                     for i, s in enumerate(self.sites)
                     for j, t in enumerate(_neighbours(s)[:self.dim])
                     if t in self.position)

    @cached_property
    def connected(self) -> bool:
        """Whether `growth_order` reaches every site along `links`."""
        return len(growth_order([self])) == len(self)


def growth_order(volumes) -> tuple[Site, ...]:
    """The sites of the nested `volumes` in the order a climb adds them:
    from the first volume's least site, always the least site adjacent to
    one placed, from the first volume not yet full. Every prefix is
    connected, connected nested volumes are prefixes, and on a box (every
    site but the first a step up from an earlier one) it is canonical."""
    order = {}  # an ordered set
    for v in volumes:
        todo = [t for s in order for t in _neighbours(s)] or [*v.sites[:1]]
        heapq.heapify(todo)
        while todo:
            s = heapq.heappop(todo)
            if s in v and s not in order:
                order[s] = None
                for t in _neighbours(s):
                    heapq.heappush(todo, t)
    return tuple(order)


def _neighbours(s: Site) -> list[Site]:
    return [s[:j] + (s[j] + e,) + s[j + 1:]
            for e in (1, -1) for j in range(len(s))]


def build_box(dims: tuple[int, ...]) -> Volume:
    """Axis-aligned box {x : 0 <= x_j <= dims_j - 1}: the Case-1 volume
    with a zero tilt."""
    return build_tilted(1, (0,) * (len(dims) - 1), dims)


# --- tilted constructions -------------------------------------------------
#
# Case 1 volumes: {x : 0 <= v.x <= L_1 - 1, 0 <= x_j <= L_j - 1 for j >= 2}
# with v = (1, v2, ..., vd).
# Case 2 volumes: {x : 0 <= v.x <= L_1 - 1/2, 0 <= w.x <= L_2 - 1/2,
# 0 <= x_j <= L_j - 1 for j >= 3} with v = (1/2, 1/2, v3, ...),
# w = (-1/2, 1/2, 0, ...). Membership is decided on inequalities scaled
# by 2, in integer arithmetic, to avoid boundary misclassification.


def build_tilted(case: int, v_tail: tuple[int, ...],
                 extents: tuple[int, ...]) -> Volume:
    """The Case-1 parallelepiped with tilt vector v = (1, *v_tail), or
    the Case-2 diamond parallelepiped with v = (1/2, 1/2, *v_tail).

    With L = extents, both walk the tail coordinates x_j, j > case, over
    0..L_j - 1 and place the leading ones against shift = sum(v(j) x_j).
    Case 1 takes v.x = x1 + shift in 0..L_1 - 1. Case 2's constraints,
    scaled by 2:
      0 <= x1 + x2 + 2 shift <= 2 L_1 - 1
      0 <= -x1 + x2          <= 2 L_2 - 1
    """
    d = len(extents)
    _check_dim(d)
    if case == 2 and d < 2:
        raise InputError("Case-2 volumes need d >= 2")
    if len(v_tail) != d - case:
        raise InputError(f"tilt vector length must be d - {case}")
    if any(n < 1 for n in extents):
        raise InputError(f"extents must be >= 1, got {extents}")
    if case == 1 and any(t < 0 for t in v_tail):
        raise InputError("tilt entries must be nonnegative")
    sites = []
    for tail in itertools.product(*(range(n) for n in extents[case:])):
        shift = sum(vt * x for vt, x in zip(v_tail, tail))
        if case == 1:
            for vx in range(extents[0]):
                sites.append((vx - shift,) + tail)
        else:
            # s = x1 + x2 ranges so that 2 v.x = s + 2 shift is in bounds,
            # and t = x2 - x1 has the parity of s
            for s in range(-2 * shift, 2 * extents[0] - 2 * shift):
                for t in range(2 * extents[1]):
                    if (s + t) % 2 == 0:
                        sites.append(((s - t) // 2, (s + t) // 2) + tail)
    return Volume(d, tuple(sites))


def site_count(case: int, extents: tuple[int, ...]) -> int:
    """The number of sites of the box or Case-1 volume (case 1) or the
    Case-2 volume (case 2) with these extents, without building it:
    prod(extents) in Case 1, where each tail and each v.x gives one site,
    and twice that in Case 2, where each tail has 2 L_1 x 2 L_2 pairs
    (s, t) of which the half with s + t even are sites. An extent below 1
    counts as 0."""
    return (2 if case == 2 else 1) * math.prod(max(n, 0) for n in extents)


@dataclass(frozen=True)
class VolumeFamilySpec:
    """Sweep family Lambda^(j)_n of Nachtergaele's martingale method: the
    tilted volumes with the j-th extent replaced by n.

    ``tilt`` is a model.TiltScheme, whose case and tilt integers shape
    every member. The j-th entry of ``extents`` is never read. Every slab
    is the difference Lambda^(j)_n \\ Lambda^(j)_m of two members, so
    the cuts m <= n are passed where a slab quantity is computed.
    """

    tilt: object
    extents: tuple[int, ...]
    sweep: int  # 0-based coordinate index

    def __post_init__(self):
        if not 0 <= self.sweep < len(self.extents):
            raise InputError("sweep direction out of range")

    def _extents(self, n: int) -> tuple[int, ...]:
        ext = list(self.extents)
        ext[self.sweep] = n
        return tuple(ext)

    def member(self, n: int) -> Volume:
        """The family volume with the sweep extent set to n (empty when n=0)."""
        ext = self._extents(n)
        if n == 0:
            return Volume(len(ext), ())
        return build_tilted(self.tilt.case, self.tilt.v, ext)

    def member_sites(self, n: int) -> int:
        """len(self.member(n)), without building it."""
        return site_count(self.tilt.case, self._extents(n))
