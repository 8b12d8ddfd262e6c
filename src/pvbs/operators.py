"""Sector Hamiltonians and the norm of a product of ground projectors.

The two-site interaction blocks are 9x9 and conserve particle numbers, so
assembly restricted to a fixed-count sector is exact. Each block is
diagonal plus one exchange of the two end digits when they differ (0a
with a0, 0b with b0, ab with ba), so a sector Hamiltonian is built in two
parts: a parameter-independent `SectorPattern` (a padded-row layout with
the diagonal in slot 0 and the exchange on edge e in slot 1 + e, and each
state's pair code on each edge), and a cheap fill from the edge weights
of one parameter value into a `SectorMatrix`, which multiplies vectors
with numpy alone. `spectra.total_gap` drops each pattern once its sector
is solved; `spectra.climb` keeps each volume's patterns for every
parameter point that it climbs through that volume. Ground projectors
are never materialized: `projection_product_norm` works in the nine
particle sectors that can carry ||G_slab E_n||, on orthonormal bases
built from the four analytic ground vectors of each volume.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ComputeError, analytic, fock
from .lattice import Volume
from .model import Params


def edge_projection_block(lam_a: float, lam_b: float) -> np.ndarray:
    """Rank-5 projector on C^3 x C^3; pair basis index is 3*left + right."""
    if lam_a <= 0 or lam_b <= 0:
        raise ComputeError("edge parameters must be positive")
    h = np.zeros((9, 9))
    raw = [
        # (indices, coefficients): |0,a> - lam_a |a,0>, etc.
        ([1, 3], [1.0, -lam_a]),
        ([2, 6], [1.0, -lam_b]),
        ([5, 7], [lam_a, -lam_b]),
        ([4], [1.0]),
        ([8], [1.0]),
    ]
    for idx, coef in raw:
        u = np.zeros(9)
        u[idx] = coef
        h += np.outer(u, u) / (u @ u)
    return h


def edge_weights(p: Params) -> tuple[np.ndarray, np.ndarray]:
    """(diagonal, exchange): the entries of the edge terms h_j of H for
    parameters p, indexed by kind 9 j + c, where c = 3 * left + right is
    the pair code of an edge's end digits.

    Every h_j is diagonal plus one exchange of the two end digits when they
    differ: its only off-diagonal entries pair 0a with a0, 0b with b0 and
    ab with ba. So `diagonal[kind]` is <c|h_j|c>, and `exchange[kind]` is
    <swap(c)|h_j|c>, or 0.0 when the end digits are equal; both have 9 d
    entries. h_j is symmetric, so the exchange weight of a state and of its
    swapped state is the same, and each row of a `SectorPattern` reads
    both weights of an edge from its own pair code.
    """
    blocks = np.array([edge_projection_block(a, b)
                       for a, b in zip(p.floats("a"), p.floats("b"))])
    pair = np.arange(9)
    swap = 3 * (pair % 3) + pair // 3
    exchange = np.where(swap != pair, blocks[:, swap, pair], 0.0)
    return blocks[:, pair, pair].ravel(), exchange.ravel()


@dataclass(frozen=True)
class SectorPattern:
    """The parameter-independent part of H^v on one particle sector.

    A padded-row (ELL) layout, stored slot by slot and edge by edge:
    cols[i, s] is the column of slot i of row s. Slot 0 holds the
    diagonal, and slot 1 + e the exchange of edge e = `v.links[e]`,
    joining s to the state with the end digits of edge e swapped; where
    those digits are equal, the slot is padding and points at the row
    itself. `kinds[e]` gives each state's kind on edge e (9 * direction
    + its pair code), the index into both weight arrays of
    `edge_weights`; `nnz` counts the slots that are not padding.
    One pattern serves every parameter value on the same basis.
    """

    basis: fock.SectorBasis
    cols: np.ndarray  # (1 + edges, states)
    kinds: np.ndarray  # uint8, (edges, states)
    nnz: int


def sector_pattern(basis: fock.SectorBasis) -> SectorPattern:
    """The `SectorPattern` of H on the volume and sector of `basis`. Each
    exchange is looked up once, from the state whose left end digit is
    the smaller, and its slot mirrored."""
    dim = basis.dim
    vol_edges = basis.volume.links
    kinds = np.empty((len(vol_edges), dim), dtype=np.uint8)
    cols = np.tile(np.arange(dim), (1 + len(vol_edges), 1))
    nnz = dim
    for e, (i, k, j) in enumerate(vol_edges):
        dx, dy = fock.digits(basis.states, (i, k))
        kinds[e] = 9 * j + 3 * dx + dy
        low = np.flatnonzero(dx < dy)
        step = dy[low] - dx[low]
        high = basis.positions(basis.states[low]
                               + fock.place((step, -step), (i, k)))
        cols[1 + e, low] = high
        cols[1 + e, high] = low
        nnz += 2 * len(low)
    # shared with every matrix filled from the pattern; cols stays
    # writeable because `take` copies a read-only index array on every call
    kinds.setflags(write=False)
    return SectorPattern(basis, cols, kinds, nnz)


@dataclass(frozen=True)
class SectorMatrix:
    """H^v on one particle sector, in the ELL layout of its
    `SectorPattern`: row s holds vals[i, s] in column cols[i, s], its
    diagonal in slot i = 0 and zeros in the padding. `nnz` counts the
    stored entries without the padding, and `norm`, the largest absolute
    row sum, bounds every eigenvalue of H."""

    cols: np.ndarray
    vals: np.ndarray
    nnz: int
    norm: float

    @property
    def shape(self) -> tuple[int, int]:
        return (self.cols.shape[1],) * 2

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        """H x for a vector x."""
        return np.einsum("ij,ij->j", self.vals, x.take(self.cols))

    def toarray(self) -> np.ndarray:
        rows = np.arange(self.shape[0])
        out = np.zeros(self.shape)
        # the padding writes zeros on the diagonal, so the diagonal goes last
        out[rows, self.cols[1:]] = self.vals[1:]
        out[rows, rows] = self.vals[0]
        return out


def assemble_sector_hamiltonian(pattern: SectorPattern,
                                weights: tuple[np.ndarray, np.ndarray]
                                ) -> SectorMatrix:
    """H^v restricted to the particle-number sector of `pattern.basis`,
    filled from `pattern` (from `sector_pattern(basis)`) and `weights`
    (from `edge_weights(p)`), so that a caller can reuse a pattern
    across parameters and weights across sectors. The diagonal is summed
    edge by edge, so every run gives the same bits."""
    diagonal, exchange = weights
    vals = np.zeros(pattern.cols.shape)
    for kinds in pattern.kinds:
        vals[0] += diagonal[kinds]
    vals[1:] = exchange[pattern.kinds]
    return SectorMatrix(pattern.cols, vals, pattern.nnz,
                        float(np.abs(vals).sum(axis=0).max()))


def _ground_vectors(v: Volume, p: Params) -> dict:
    """(basis, analytic ground vector) of each ground sector of v."""
    out = {}
    for sector in analytic.GROUND_SECTORS:
        basis = fock.enumerate_sector(v, *sector)
        out[sector] = basis, analytic.ground_state_vector(p, basis)
    return out


def _ground_columns(part: Volume, ground: dict, basis: fock.SectorBasis
                    ) -> tuple[np.ndarray, np.ndarray, int]:
    """Orthonormal columns psi_k (x) phi spanning range(G_part x 1) in the
    ambient sector of `basis`: psi_k runs over the ground vectors of part
    (`ground`, from `_ground_vectors`), phi over the configurations of the
    rest of the ambient volume that complete the sector's particle
    counts. An ambient state restricts to one configuration of part and
    one of the rest, so it lies in at most one column: the columns are
    returned row by row as (col, val, width), state s holding val[s] in
    column col[s], or nothing where col[s] is -1."""
    ambient = basis.volume
    rest = ambient.difference(part)
    part_pos = [ambient.position[s] for s in part.sites]
    rest_pos = [ambient.position[s] for s in rest.sites]
    col = np.full(basis.dim, -1)
    val = np.zeros(basis.dim)
    width = 0
    for (k_a, k_b), (own, psi) in ground.items():
        r_a, r_b = basis.n_a - k_a, basis.n_b - k_b
        if min(r_a, r_b) < 0 or r_a + r_b > len(rest):
            continue
        phi = fock.enumerate_sector(rest, r_a, r_b)
        codes = np.add.outer(
            fock.place(fock.digits(own.states, range(len(part))), part_pos),
            fock.place(fock.digits(phi.states, range(len(rest))), rest_pos))
        rows = basis.positions(codes.ravel())
        col[rows] = np.tile(width + np.arange(phi.dim), own.dim)
        val[rows] = np.repeat(psi, phi.dim)
        width += phi.dim
    return col, val, width


def projection_product_norm(slab: Volume, inner: Volume, p: Params) -> float:
    """||G_slab E_n|| on the ambient volume slab + inner, with
    E_n = (G_inner x 1) - G_ambient.

    slab and inner must be connected volumes of at least 2 sites. Every
    projector conserves (N_a, N_b), so the norm is the largest over the
    sectors. range(G_inner x 1) holds at most one a inside inner, so with
    N_a >= 3 two a's sit outside inner, hence in the slab, where
    G_slab x 1 removes them (likewise for b): only the 9 sectors with
    N_a, N_b <= 2 contribute. In each, `_ground_columns` gives an
    orthonormal basis V_X of range(G_X x 1), and G_ambient projects onto
    the sector's analytic ground vector Psi, if it has one; so
    E_n = Q Q^T for an orthonormal basis Q of range(V_inner) minus Psi,
    and the norm is that of the small dense matrix V_slab^T Q. Building Q
    orthogonal to Psi, rather than subtracting Psi Psi^T, keeps the
    relative accuracy of a small norm. Each state holds at most one
    entry of V_slab and one of V_inner, so V_slab^T V_inner and
    V_inner^T Psi are sums over the states, one `np.bincount` each, taken
    in the order of the states.
    """
    for part in (slab, inner):
        if len(part) < 2 or not part.connected:
            raise ComputeError(
                "projectors need connected volumes with >= 2 sites")
    ambient = Volume(slab.dim, tuple(set(slab.sites + inner.sites)))
    ground_inner = _ground_vectors(inner, p)
    ground_slab = _ground_vectors(slab, p)
    norm = 0.0
    for n_a in range(3):
        for n_b in range(min(3, len(ambient) + 1 - n_a)):
            basis = fock.enumerate_sector(ambient, n_a, n_b)
            col_i, val_i, width_i = _ground_columns(inner, ground_inner, basis)
            col_s, val_s, width_s = _ground_columns(slab, ground_slab, basis)
            both = (col_s >= 0) & (col_i >= 0)
            m = np.bincount(col_s[both] * width_i + col_i[both],
                            weights=val_s[both] * val_i[both],
                            minlength=width_s * width_i
                            ).reshape(width_s, width_i)
            if (n_a, n_b) in analytic.GROUND_SECTORS and m.size:
                psi = analytic.ground_state_vector(p, basis)
                has = col_i >= 0
                overlap = np.bincount(col_i[has],
                                      weights=val_i[has] * psi[has],
                                      minlength=width_i)
                # the complete QR's first column is along the overlap with
                # Psi, the others span its orthogonal complement
                q = np.linalg.qr(overlap[:, None], mode="complete")[0]
                m = m @ q[:, 1:]
            if m.size:
                norm = max(norm, float(np.linalg.norm(m, 2)))
    return norm
