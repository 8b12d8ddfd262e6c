"""Sector Hamiltonians and matrix-free ground-space projector actions.

The two-site interaction blocks are 9x9 and conserve particle numbers, so
assembly restricted to a fixed-count sector is exact. Ground projectors
are never materialized: amplitudes are grouped by the configuration
outside the projected region and each interior block is projected onto
the four analytic ground vectors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import analytic, fock
from .lattice import Volume, edges, is_connected
from .model import Params

DEFAULT_ACTION_CAP = 3 ** 13
LANCZOS_SEED = 0x5EED
# Lanczos basis size for operator norms: ARPACK's default of 20 vectors
# raises the peak memory of a 3^11-state check by about 9 %
LANCZOS_NCV = 8


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


@dataclass
class LinearOperatorAction:
    """Matrix-free symmetric operator: dim plus an apply contract."""

    dim: int
    apply: callable
    description: str = ""

    def __call__(self, vec: np.ndarray) -> np.ndarray:
        return self.apply(vec)


def _ground_sectors(inner: Volume, p: Params):
    """(indices, amplitudes) of the four analytic ground vectors on inner,
    indexed by base-3 codes over inner's canonical site order."""
    out = []
    for (na, nb), which in analytic.GROUND_SECTORS.items():
        basis = fock.enumerate_sector(inner, na, nb)
        amp = analytic.ground_state_vector(inner, p, which, basis)
        out.append((basis.states, amp))
    return out


def ground_projector_action(inner: Volume, p: Params, ambient: Volume,
                            cap: int = DEFAULT_ACTION_CAP) -> LinearOperatorAction:
    """Action of (ground projector of inner) x identity on H^ambient."""
    if not inner.issubset(ambient):
        raise OperatorError("inner volume is not contained in the ambient one")
    if len(inner) < 2 or not is_connected(inner):
        raise OperatorError("projector needs a connected inner volume with >= 2 sites")
    n_amb = len(ambient)
    dim = 3 ** n_amb
    if dim > cap:
        raise OperatorError(f"ambient dimension 3^{n_amb} exceeds cap {cap}")

    inner_set = set(inner.sites)
    inner_pos = [i for i, s in enumerate(ambient.sites) if s in inner_set]
    ext_pos = [i for i, s in enumerate(ambient.sites) if s not in inner_set]
    dim_in, dim_ext = 3 ** len(inner_pos), 3 ** len(ext_pos)

    # codes over the sites reordered exterior first: the high digits are
    # the inner configuration, the row of the (dim_in, dim_ext) view below
    perm = fock.place(fock.digits(np.arange(dim), ext_pos + inner_pos),
                      range(n_amb))
    sectors = _ground_sectors(inner, p)

    def apply(vec: np.ndarray) -> np.ndarray:
        vec = np.asarray(vec, dtype=float)
        if vec.shape != (dim,):
            raise OperatorError(f"expected vector of length {dim}")
        w = np.empty(dim)
        w[perm] = vec
        w = w.reshape(dim_in, dim_ext)
        out = np.zeros_like(w)
        for idxs, amp in sectors:
            coeff = amp @ w[idxs]  # overlap per exterior configuration
            out[idxs] += np.outer(amp, coeff)
        return out.reshape(-1)[perm]

    return LinearOperatorAction(
        dim, apply, f"G[{inner.label or len(inner)} sites] in 3^{n_amb}")


def en_projector_action(inner: Volume, outer: Volume, p: Params,
                        cap: int = DEFAULT_ACTION_CAP) -> LinearOperatorAction:
    """E_n = (G_inner x I) - G_outer on H^outer, for nested ground spaces."""
    g_small = ground_projector_action(inner, p, outer, cap)
    g_big = ground_projector_action(outer, p, outer, cap)

    def apply(vec: np.ndarray) -> np.ndarray:
        return g_small(vec) - g_big(vec)

    return LinearOperatorAction(g_small.dim, apply,
                                f"E[{len(inner)}->{len(outer)} sites]")


def lanczos_start(dim: int) -> np.ndarray:
    """Deterministic but generic unit start vector for ARPACK: a constant
    vector can be an exact eigenvector, which ARPACK rejects."""
    v0 = np.random.default_rng(LANCZOS_SEED).standard_normal(dim)
    return v0 / np.linalg.norm(v0)


def operator_norm_of_product(a: LinearOperatorAction,
                             b: LinearOperatorAction) -> float:
    """Largest singular value of a . b, by Lanczos on b.a.b.

    Both actions must be symmetric; a must be idempotent (a projector),
    so that ||ab||^2 equals the top eigenvalue of b a b.
    """
    if a.dim != b.dim:
        raise OperatorError("operator dimensions do not match")
    bab = spla.LinearOperator((a.dim, a.dim), matvec=lambda x: b(a(b(x))),
                              dtype=float)
    v0 = lanczos_start(a.dim)
    if not (bab @ v0).any():
        return 0.0  # ARPACK refuses an operator that kills its start vector
    top = spla.eigsh(bab, k=1, which="LA", v0=v0, ncv=LANCZOS_NCV,
                     return_eigenvectors=False)[0]
    return float(np.sqrt(max(top, 0.0)))


def materialize(action: LinearOperatorAction) -> np.ndarray:
    """Dense matrix of an action, for small-dimension oracle checks."""
    out = np.empty((action.dim, action.dim))
    basis_vec = np.zeros(action.dim)
    for i in range(action.dim):
        basis_vec[i] = 1.0
        out[:, i] = action(basis_vec)
        basis_vec[i] = 0.0
    return out

