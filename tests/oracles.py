"""Scalar reference implementations that only the tests use.

Each is the plain, slow definition of something the package computes in
a vectorized or closed form, kept here to check it against; `translate`
shifts the volumes that tests place off the origin.
"""

import itertools
import math
from collections import deque

import numpy as np

from pvbs import InputError
from pvbs.lattice import Volume
from pvbs.martingale import sweep_family
from pvbs.model import Params
from pvbs.operators import edge_projection_block


def encode(symbols) -> int:
    """Base-3 code of a configuration; symbols[i] is the digit at
    canonical site i. Scalar reference for `fock.place`."""
    return sum(s * 3 ** i for i, s in enumerate(symbols))


def decode(code: int, n: int) -> tuple[int, ...]:
    """The n base-3 digits of code, site 0 first. Scalar reference for
    `fock.digits`."""
    out = []
    for _ in range(n):
        code, r = divmod(code, 3)
        out.append(r)
    return tuple(out)


def lambda_power(p, species: str, x) -> float:
    """lambda_s^x = prod_j lambda_{s,j}^(x_j)."""
    return math.exp(sum(xj * math.log(lj)
                        for xj, lj in zip(x, p.floats(species))))


def translate(v, offset) -> Volume:
    """v moved by the vector `offset`."""
    moved = tuple(tuple(x + o for x, o in zip(s, offset)) for s in v.sites)
    return Volume(v.dim, moved)


def is_connected_bfs(v: Volume) -> bool:
    """True iff the nearest-neighbor graph on v is connected (BFS over the
    +-e_j neighbours of each site). Scalar reference for
    `Volume.connected`."""
    if len(v) <= 1:
        return True
    seen = {v.sites[0]}
    queue = deque([v.sites[0]])
    while queue:
        s = queue.popleft()
        for j in range(v.dim):
            for step in (1, -1):
                nb = list(s)
                nb[j] += step
                nb = tuple(nb)
                if nb in v and nb not in seen:
                    seen.add(nb)
                    queue.append(nb)
    return len(seen) == len(v)


def _stable_sum_exp(exponents) -> float:
    """sum of exp(e) over exponents, factored by the maximum."""
    m = max(exponents)
    return math.exp(m) * sum(math.exp(e - m) for e in exponents)


def normalization_direct(v: Volume, p: Params) -> dict[str, float]:
    """C(v, s) and D(v) by direct summation over sites, keyed like
    `analytic.normalization_closed_form`: {"a": C_a, "b": C_b,
    "ab": C_a C_b - D, "d": D}. Scalar reference for that function."""
    if len(v) < 1:
        raise InputError("normalization of the empty volume is undefined")
    log_a = [math.log(x) for x in p.floats("a")]
    log_b = [math.log(x) for x in p.floats("b")]
    ea = [2.0 * sum(xj * lj for xj, lj in zip(x, log_a)) for x in v.sites]
    eb = [2.0 * sum(xj * lj for xj, lj in zip(x, log_b)) for x in v.sites]
    c_a = _stable_sum_exp(ea)
    c_b = _stable_sum_exp(eb)
    d = _stable_sum_exp([x + y for x, y in zip(ea, eb)])
    return {"a": c_a, "b": c_b, "ab": c_a * c_b - d, "d": d}


def boundary_sites(inner, ambient) -> list:
    """Sites of inner with at least one ambient neighbor outside inner."""
    if not set(inner.sites) <= set(ambient.sites):
        raise InputError("inner volume is not a subset of the ambient volume")
    out = []
    for s in inner.sites:
        neighbors = (s[:j] + (s[j] + step,) + s[j + 1:]
                     for j in range(inner.dim) for step in (1, -1))
        if any(nb in ambient and nb not in inner for nb in neighbors):
            out.append(s)
    return out


def edge_kernel_vectors(lam_a: float, lam_b: float) -> np.ndarray:
    """The four normalized kernel vectors of the edge projector, as rows:
    |00>, lam_a|0a> + |a0>, lam_b|0b> + |b0>, lam_b|ab> + lam_a|ba>."""
    out = np.zeros((4, 9))
    out[0, 0] = 1.0
    out[1, [1, 3]] = lam_a, 1.0
    out[2, [2, 6]] = lam_b, 1.0
    out[3, [5, 7]] = lam_b, lam_a
    return out / np.linalg.norm(out, axis=1)[:, None]


def splitmix64(seed: int, count: int) -> list[int]:
    """The first `count` outputs of the splitmix64 generator seeded with
    `seed`, in Python integers. Scalar reference for
    `spectra.lanczos_start`."""
    mask = 2 ** 64 - 1
    out = []
    for i in range(1, count + 1):
        z = (seed + i * 0x9E3779B97F4A7C15) & mask
        z = ((z ^ z >> 30) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ z >> 27) * 0x94D049BB133111EB) & mask
        out.append(z ^ z >> 31)
    return out


def slab_membership_count(t, j: int, ell: int) -> int:
    """The most width-ell slabs Lambda_n \\ Lambda_(n - ell),
    ell <= n <= 2 ell, that one edge of member 2 ell of the direction-j
    sweep family lies in, counted member by member. Scalar reference for
    `martingale.verify_condition_i`; the members read only `t.case`,
    `t.v` and `t.dim`."""
    big = 2 * ell
    family = sweep_family(t, j, ell, big)
    full = family.member(big)
    counts = {(full.sites[i], full.sites[k]): 0 for i, k, _ in full.links}
    for n in range(ell, big + 1):
        outer_sites = set(family.member(n).sites)
        inner_sites = set(family.member(n - ell).sites)
        slab_sites = outer_sites - inner_sites
        for base, head in counts:
            if base in slab_sites and head in slab_sites:
                counts[base, head] += 1
    return max(counts.values()) if counts else 0


def one_particle_gap(p, species: str, dims) -> float:
    """Lowest excitation of one particle of `species` on the box `dims`:
    min_j [1 - 2 lambda_j cos(pi / L_j) / (1 + lambda_j^2)]. The sector
    Hamiltonian is a sum over directions of tridiagonal hops, each with
    a zero ground energy, so its gap is the least one-direction gap."""
    return min(1.0 - 2.0 * lam * math.cos(math.pi / n) / (1.0 + lam * lam)
               for lam, n in zip(p.floats(species), dims))


def chain_sector_lowest(p, n: int) -> dict:
    """The lowest eigenvalue of every particle sector (n_a, n_b) of the
    n-site chain, by dense eigvalsh of a sector block built entry by entry
    from the 9x9 edge projector. Scalar reference for the floors of
    `spectra.grown_floors`."""
    block = edge_projection_block(*p.floats("a"), *p.floats("b"))
    # the nonzero entries of each column: (left, right) digits and value
    column = [[(divmod(out, 3), float(block[out, pair]))
               for out in range(9) if block[out, pair]] for pair in range(9)]
    sectors = {}
    for c in itertools.product(range(3), repeat=n):
        sectors.setdefault((c.count(1), c.count(2)), []).append(c)
    lowest = {}
    for sector, configs in sectors.items():
        index = {c: i for i, c in enumerate(configs)}
        h = np.zeros((len(configs),) * 2)
        for c, col in index.items():
            for i in range(n - 1):
                for ends, value in column[3 * c[i] + c[i + 1]]:
                    h[index[c[:i] + ends + c[i + 2:]], col] += value
        lowest[sector] = float(np.linalg.eigvalsh(h)[0])
    return lowest
