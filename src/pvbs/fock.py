"""Fixed-particle-number occupation bases.

Configurations are base-3 integers over the volume's canonical site
order: digit 0 = empty, 1 = species a, 2 = species b. This module is the
only one that knows that format: other modules read digits with
`digits`, build codes with `place`, and look codes up with
`SectorBasis.positions`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, combinations

import numpy as np

from .lattice import Volume

EMPTY, A, B = 0, 1, 2
DEFAULT_SECTOR_CAP = 5_000_000
# base-3 codes of MAX_SITES + 1 sites overflow int64
MAX_SITES = 39


class FockError(ValueError):
    pass


def sector_dimension(n: int, n_a: int, n_b: int) -> int:
    if n_a < 0 or n_b < 0 or n_a + n_b > n:
        raise FockError(f"invalid sector ({n_a}, {n_b}) for {n} sites")
    return math.comb(n, n_a) * math.comb(n - n_a, n_b)


def encode(symbols) -> int:
    """Base-3 encoding; symbols[i] is the digit at canonical site i.

    Scalar reference for the vectorized `place`."""
    code = 0
    for i, s in enumerate(symbols):
        code += s * 3 ** i
    return code


def decode(code: int, n: int) -> tuple[int, ...]:
    """Scalar reference for the vectorized `digits`."""
    out = []
    for _ in range(n):
        code, r = divmod(code, 3)
        out.append(r)
    return tuple(out)


def digits(codes, positions):
    """Yield the digit array of `codes` at each site position in turn.

    One position at a time, so no (codes x positions) block is built."""
    codes = np.asarray(codes, dtype=np.int64)
    for pos in positions:
        yield codes // 3 ** pos % 3


def place(digit_arrays, positions) -> np.ndarray:
    """Codes with each digit array at its site position and 0 elsewhere.

    Linear in the digits, so digit differences give code differences."""
    return sum(np.asarray(d, dtype=np.int64) * 3 ** pos
               for d, pos in zip(digit_arrays, positions))


@dataclass(frozen=True)
class SectorBasis:
    volume: Volume
    n_a: int
    n_b: int
    states: np.ndarray  # sorted, read-only int64 base-3 codes

    @property
    def dim(self) -> int:
        return len(self.states)

    def positions(self, codes) -> np.ndarray:
        """Basis positions of `codes`; FockError if one is not a state."""
        codes = np.asarray(codes, dtype=np.int64)
        pos = np.searchsorted(self.states, codes)
        found = self.states[np.minimum(pos, self.dim - 1)] == codes
        if not found.all():
            raise FockError(f"configuration {codes[~found].flat[0]} not in "
                            f"sector ({self.n_a}, {self.n_b})")
        return pos

    def index_of(self, code: int) -> int:
        return int(self.positions(code))


def _combinations(n: int, k: int) -> np.ndarray:
    """All k-subsets of range(n) as rows, in lexicographic order."""
    count = math.comb(n, k)
    flat = np.fromiter(chain.from_iterable(combinations(range(n), k)),
                       dtype=np.int64, count=count * k)
    return flat.reshape(count, k)


def enumerate_sector(v: Volume, n_a: int, n_b: int,
                     cap: int = DEFAULT_SECTOR_CAP) -> SectorBasis:
    """Complete sorted basis of the (n_a, n_b) particle sector on v.

    Each state is a set of occupied sites times a choice of which of them
    hold species b."""
    n = len(v)
    dim = sector_dimension(n, n_a, n_b)
    if n > MAX_SITES:
        raise FockError(f"base-3 codes of {n} sites overflow int64 "
                        f"(at most {MAX_SITES} sites)")
    if dim > cap:
        raise FockError(
            f"sector ({n_a}, {n_b}) on {n} sites has dimension {dim} > cap {cap}")
    k = n_a + n_b
    occupied = _combinations(n, k)
    pattern = np.full((math.comb(k, n_b), k), A, dtype=np.int64)
    np.put_along_axis(pattern, _combinations(k, n_b), B, axis=1)
    states = np.sort(3 ** occupied @ pattern.T, axis=None)
    states.setflags(write=False)
    return SectorBasis(v, n_a, n_b, states)
