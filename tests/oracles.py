"""Scalar reference implementations that only the tests use.

Each is the plain, slow definition of something the package computes in
a vectorized or closed form, kept here to check it against.
"""

import math

import numpy as np

from pvbs import InputError


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


def boundary_sites(inner, ambient) -> list:
    """Sites of inner with at least one ambient neighbor outside inner."""
    if not inner.issubset(ambient):
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
