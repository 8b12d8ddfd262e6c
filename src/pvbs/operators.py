"""Sector Hamiltonians and the norm of a product of ground projectors.

The two-site interaction blocks are 9x9 and conserve particle numbers, so
assembly restricted to a fixed-count sector is exact. Each block is
diagonal plus one exchange of the two end digits when they differ (0a
with a0, 0b with b0, ab with ba), so a sector Hamiltonian is built in two
parts: a parameter-independent `SectorPattern` (the CSR layout, each
slot's weight index and each edge's pair codes), and a cheap fill from
the `EdgeWeights` of one parameter value. `spectra.total_gap` drops each
pattern once its sector is solved; `pvbs sweep` keeps a size's patterns
for every lambda of its grid. Ground projectors
are never materialized: `projection_product_norm` works in the nine
particle sectors that can carry ||G_slab E_n||, on orthonormal bases
built from the four analytic ground vectors of each volume.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import ComputeError, analytic, fock
from .lattice import Volume, edges, is_connected
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


def edge_kernel_vectors(lam_a: float, lam_b: float) -> np.ndarray:
    """The four (normalized) kernel vectors of the edge projector, as rows."""
    raw = [
        ([0], [1.0]),
        ([1, 3], [lam_a, 1.0]),
        ([2, 6], [lam_b, 1.0]),
        ([5, 7], [lam_b, lam_a]),
    ]
    out = np.zeros((4, 9))
    for r, (idx, coef) in enumerate(raw):
        u = np.zeros(9)
        u[idx] = coef
        out[r] = u / np.linalg.norm(u)
    return out


@dataclass(frozen=True)
class EdgeWeights:
    """The entries of the edge terms h_j, indexed by kind 9 j + c, where
    c = 3 * left + right is the pair code of an edge's end digits.

    Every h_j is diagonal plus one exchange of the two end digits when they
    differ: its only off-diagonal entries pair 0a with a0, 0b with b0 and
    ab with ba. So `diagonal[kind]` is <c|h_j|c>, and `exchange[kind]` is
    <swap(c)|h_j|c>, or 0.0 when the end digits are equal; `exchange` has
    one more entry, 0.0, for the diagonal slots of a `SectorPattern`.
    """

    exchange: np.ndarray
    diagonal: np.ndarray


def edge_weights(p: Params) -> EdgeWeights:
    """The edge-term entries of H for parameters p, one 9x9 block per
    direction."""
    blocks = np.array([edge_projection_block(a, b)
                       for a, b in zip(p.floats("a"), p.floats("b"))])
    pair = np.arange(9)
    swap = 3 * (pair % 3) + pair // 3
    exchange = np.where(swap != pair, blocks[:, swap, pair], 0.0)
    return EdgeWeights(np.append(exchange.ravel(), 0.0),
                       blocks[:, pair, pair].ravel())


@dataclass(frozen=True)
class SectorPattern:
    """The parameter-independent part of H^v on one particle sector.

    A CSR layout with every diagonal slot and one slot per exchange: state
    s is joined to the state with the end digits of edge e swapped when
    they differ. `kinds` gives each slot's index into
    `EdgeWeights.exchange` (9 * direction + the pair code of the column
    state, or 9 * dim on the diagonal); `edge_kinds[e]` gives each state's
    index into `EdgeWeights.diagonal` for edge e. One pattern serves every
    parameter value on the same basis.
    """

    basis: fock.SectorBasis
    indptr: np.ndarray
    indices: np.ndarray
    kinds: np.ndarray  # uint8, one per slot
    diag_slots: np.ndarray  # the slot of each row's diagonal entry
    edge_kinds: np.ndarray  # uint8, (edges, states)


def sector_pattern(basis: fock.SectorBasis) -> SectorPattern:
    """The `SectorPattern` of H on the volume and sector of `basis`. Each
    exchange is looked up once, from the state whose left end digit is
    the smaller, and its slot mirrored."""
    v = basis.volume
    site_pos = {s: i for i, s in enumerate(v.sites)}
    dim = basis.dim
    vol_edges = edges(v)
    edge_kinds = np.empty((len(vol_edges), dim), dtype=np.uint8)
    diagonal = np.arange(dim)
    rows, cols = [diagonal], [diagonal]
    kinds = [np.full(dim, 9 * v.dim, dtype=np.uint8)]
    for e, edge in enumerate(vol_edges):
        ends = (site_pos[edge.base], site_pos[edge.head])
        dx, dy = fock.digits(basis.states, ends)
        edge_kinds[e] = 9 * edge.direction + 3 * dx + dy
        low = np.flatnonzero(dx < dy)
        step = dy[low] - dx[low]
        high = basis.positions(basis.states[low]
                               + fock.place((step, -step), ends))
        rows += [high, low]
        cols += [low, high]
        kinds += [edge_kinds[e, low], edge_kinds[e, high]]
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    order = np.argsort(rows * dim + cols)
    itype = np.int32 if len(order) <= np.iinfo(np.int32).max else np.int64
    indptr = np.zeros(dim + 1, dtype=itype)
    np.cumsum(np.bincount(rows, minlength=dim), out=indptr[1:])
    kinds = np.concatenate(kinds)[order]
    arrays = (indptr, cols[order].astype(itype), kinds,
              np.flatnonzero(kinds == 9 * v.dim), edge_kinds)
    for a in arrays:  # shared with every matrix filled from the pattern
        a.setflags(write=False)
    return SectorPattern(basis, *arrays)


def assemble_sector_hamiltonian(pattern: SectorPattern,
                                weights: EdgeWeights) -> sp.csr_matrix:
    """H^v restricted to the particle-number sector of `pattern.basis`,
    filled from `pattern` (from `sector_pattern(basis)`) and `weights`
    (from `edge_weights(p)`), so that a caller can reuse a pattern
    across parameters and weights across sectors. The diagonal is summed
    edge by edge, so every run gives the same bits."""
    dim = pattern.basis.dim
    diag = np.zeros(dim)
    for kinds in pattern.edge_kinds:
        diag += weights.diagonal[kinds]
    data = weights.exchange[pattern.kinds]
    data[pattern.diag_slots] = diag
    return sp.csr_matrix((data, pattern.indices, pattern.indptr),
                         shape=(dim, dim))


def _ground_vectors(v: Volume, p: Params) -> dict:
    """(basis, analytic ground vector) of each ground sector of v."""
    out = {}
    for sector, which in analytic.GROUND_SECTORS.items():
        basis = fock.enumerate_sector(v, *sector)
        out[sector] = basis, analytic.ground_state_vector(v, p, which, basis)
    return out


def _ground_columns(part: Volume, ground: dict, ambient: Volume,
                    basis: fock.SectorBasis) -> sp.csc_matrix:
    """Orthonormal columns psi_k (x) phi spanning range(G_part x 1) in the
    ambient sector of `basis`: psi_k runs over the ground vectors of part
    (`ground`, from `_ground_vectors`), phi over the configurations of the
    rest of the ambient volume that complete the sector's particle
    counts."""
    at = {s: i for i, s in enumerate(ambient.sites)}
    rest = ambient.difference(part)
    part_pos = [at[s] for s in part.sites]
    rest_pos = [at[s] for s in rest.sites]
    rows, cols, vals = [], [], []
    width = 0
    for (k_a, k_b), (own, psi) in ground.items():
        r_a, r_b = basis.n_a - k_a, basis.n_b - k_b
        if min(r_a, r_b) < 0 or r_a + r_b > len(rest):
            continue
        phi = fock.enumerate_sector(rest, r_a, r_b)
        codes = np.add.outer(
            fock.place(fock.digits(own.states, range(len(part))), part_pos),
            fock.place(fock.digits(phi.states, range(len(rest))), rest_pos))
        rows.append(basis.positions(codes.ravel()))
        cols.append(np.tile(width + np.arange(phi.dim), own.dim))
        vals.append(np.repeat(psi, phi.dim))
        width += phi.dim
    if not vals:
        return sp.csc_matrix((basis.dim, 0))
    return sp.csc_matrix((np.concatenate(vals), (np.concatenate(rows),
                                                 np.concatenate(cols))),
                         shape=(basis.dim, width))


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
    relative accuracy of a small norm.
    """
    for part in (slab, inner):
        if len(part) < 2 or not is_connected(part):
            raise ComputeError(
                "projectors need connected volumes with >= 2 sites")
    ambient = Volume(slab.dim, tuple(set(slab.sites + inner.sites)))
    ground_inner = _ground_vectors(inner, p)
    ground_slab = _ground_vectors(slab, p)
    norm = 0.0
    for n_a in range(3):
        for n_b in range(min(3, len(ambient) + 1 - n_a)):
            basis = fock.enumerate_sector(ambient, n_a, n_b)
            v_inner = _ground_columns(inner, ground_inner, ambient, basis)
            m = (_ground_columns(slab, ground_slab, ambient, basis).T
                 @ v_inner).toarray()
            which = analytic.GROUND_SECTORS.get((n_a, n_b))
            if which is not None and m.size:
                psi = analytic.ground_state_vector(ambient, p, which, basis)
                # the complete QR's first column is along the overlap with
                # Psi, the others span its orthogonal complement
                q = np.linalg.qr((v_inner.T @ psi)[:, None], mode="complete")[0]
                m = m @ q[:, 1:]
            if m.size:
                norm = max(norm, float(np.linalg.norm(m, 2)))
    return norm
