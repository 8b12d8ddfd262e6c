"""Sector Hamiltonians and the norm of a product of ground projectors.

The two-site interaction blocks are 9x9 and conserve particle numbers, so
assembly restricted to a fixed-count sector is exact. Ground projectors
are never materialized: `projection_product_norm` works in the nine
particle sectors that can carry ||G_slab E_n||, on orthonormal bases
built from the four analytic ground vectors of each volume.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from . import analytic, fock
from .lattice import Volume, edges, is_connected
from .model import Params


class OperatorError(ValueError):
    pass


def edge_projection_block(lam_a: float, lam_b: float) -> np.ndarray:
    """Rank-5 projector on C^3 x C^3; pair basis index is 3*left + right."""
    if lam_a <= 0 or lam_b <= 0:
        raise OperatorError("edge parameters must be positive")
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


def assemble_sector_hamiltonian(v: Volume, p: Params,
                                basis: fock.SectorBasis) -> sp.csr_matrix:
    """H^v restricted to the particle-number sector of `basis`.

    Entries are listed edge by edge, then by column state, then by block
    row, so duplicates are summed in the same order on every run."""
    if basis.volume is not v and basis.volume != v:
        raise OperatorError("basis was not built on this volume")
    la = p.floats("a")
    lb = p.floats("b")
    blocks = [edge_projection_block(la[j], lb[j]) for j in range(v.dim)]
    site_pos = {s: i for i, s in enumerate(v.sites)}

    rows, cols, vals = [], [], []
    for e in edges(v):
        h = blocks[e.direction]
        ends = (site_pos[e.base], site_pos[e.head])
        dx, dy = fock.digits(basis.states, ends)
        pair = 3 * dx + dy
        col, q = np.nonzero((h != 0.0).T[pair])
        shift = fock.place((q // 3 - dx[col], q % 3 - dy[col]), ends)
        rows.append(basis.positions(basis.states[col] + shift))
        cols.append(col)
        vals.append(h[q, pair[col]])
    dim = basis.dim
    if not vals:
        return sp.csr_matrix((dim, dim))
    return sp.csr_matrix((np.concatenate(vals), (np.concatenate(rows),
                                                 np.concatenate(cols))),
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
            raise OperatorError(
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
