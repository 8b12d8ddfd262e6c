"""Spectral-gap computation on finite volumes.

Dense diagonalization below a size cutoff, Lanczos with explicit
deflation above it. Ground-bearing particle sectors deflate the known
analytic ground vector instead of re-finding the kernel numerically.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import analytic, fock, operators
from .lattice import Volume, is_connected
from .model import Params

DENSE_CAP = 4096
KERNEL_TOL_REL = 1e-8


class SpectraError(ValueError):
    pass


def dense_eigenvalues(h) -> np.ndarray:
    """All eigenvalues of a (sparse or dense) symmetric matrix, ascending."""
    mat = h.toarray() if sp.issparse(h) else np.asarray(h, dtype=float)
    return np.linalg.eigvalsh(mat)


def _start_vector(dim: int) -> np.ndarray:
    # deterministic but generic: a constant vector can be an exact
    # eigenvector, which ARPACK rejects
    v0 = np.random.default_rng(0x5EED).standard_normal(dim)
    return v0 / np.linalg.norm(v0)


def hamiltonian_norm(h) -> float:
    """Operator norm estimate of a symmetric PSD sparse matrix."""
    dim = h.shape[0]
    if dim <= 64:
        return float(np.max(np.abs(dense_eigenvalues(h)))) if dim else 0.0
    val = spla.eigsh(h, k=1, which="LA", v0=_start_vector(dim),
                     return_eigenvectors=False)
    return float(max(val[0], 0.0))


def _deflated(h, vectors: np.ndarray | None, shift: float):
    """H plus a rank-k shift pushing `vectors` (columns) out of the bottom."""
    if vectors is None:
        return h
    v = np.atleast_2d(vectors.T).T  # ensure (dim, k)
    if sp.issparse(h):
        dim = h.shape[0]

        def mv(x):
            return h @ x + shift * (v @ (v.T @ x))

        return spla.LinearOperator((dim, dim), matvec=mv, dtype=float)
    return h + shift * (v @ v.T)


def lowest_eigenvalues(h, k: int = 1, deflate: np.ndarray | None = None,
                       dense_cap: int = DENSE_CAP) -> np.ndarray:
    """The k smallest eigenvalues, optionally after deflating some vectors.

    Deflation adds a large positive rank-one shift per deflated vector, so
    the returned values are eigenvalues of H restricted to the orthogonal
    complement (up to the usual iterative tolerances).
    """
    dim = h.shape[0]
    if k < 1 or k > dim:
        raise SpectraError(f"need 1 <= k <= dim, got k={k}, dim={dim}")
    shift = 10.0 * max(1.0, hamiltonian_norm(h))
    if dim <= dense_cap or k >= dim - 1:
        hd = h.toarray() if sp.issparse(h) else np.asarray(h, dtype=float)
        if deflate is not None:
            v = np.atleast_2d(deflate.T).T
            hd = hd + shift * (v @ v.T)
        return np.linalg.eigvalsh(hd)[:k]
    op = _deflated(h, deflate, shift)
    vals = spla.eigsh(op, k=k, which="SA", v0=_start_vector(dim),
                      return_eigenvectors=False)
    return np.sort(vals)


def kernel_dimension(h, tol_rel: float = KERNEL_TOL_REL,
                     dense_cap: int = DENSE_CAP) -> int:
    """Number of eigenvalues below tol_rel * max(1, ||H||)."""
    dim = h.shape[0]
    if dim == 0:
        return 0
    thresh = tol_rel * max(1.0, hamiltonian_norm(h))
    if dim <= dense_cap:
        return int(np.count_nonzero(dense_eigenvalues(h) < thresh))
    k = 4
    while True:
        k = min(k, dim - 1)
        vals = lowest_eigenvalues(h, k=k, dense_cap=dense_cap)
        if vals[-1] >= thresh or k == dim - 1:
            return int(np.count_nonzero(vals < thresh))
        k *= 2


@dataclass
class SectorRecord:
    n_a: int
    n_b: int
    dim: int
    kernel: int
    lowest_excited: float | None
    skipped: bool = False

    def to_json(self) -> dict:
        return {"n_a": self.n_a, "n_b": self.n_b, "dim": self.dim,
                "kernel": self.kernel, "lowest_excited": self.lowest_excited,
                "skipped": self.skipped}


@dataclass
class SpectrumReport:
    gap: float
    kernel_total: int
    partial: bool
    sectors: list[SectorRecord] = field(default_factory=list)

    def to_json(self) -> dict:
        return {"gap": self.gap, "kernel_total": self.kernel_total,
                "partial": self.partial,
                "sectors": [s.to_json() for s in self.sectors]}


def total_gap(v: Volume, p: Params, dense_cap: int = DENSE_CAP,
              sector_cap: int = fock.DEFAULT_SECTOR_CAP,
              tol_rel: float = KERNEL_TOL_REL) -> SpectrumReport:
    """Gap of H^v over all particle sectors, with the analytic kernel deflated.

    Requires a connected volume, where the kernel is exactly the four
    analytic ground vectors; sectors whose dimension exceeds sector_cap
    are skipped and the report is flagged partial.
    """
    n = len(v)
    if n < 2 or not is_connected(v):
        raise SpectraError("total_gap needs a connected volume with >= 2 sites")
    records = []
    partial = False
    candidates = []
    kernel_total = 0
    for n_a in range(n + 1):
        for n_b in range(n + 1 - n_a):
            dim = fock.sector_dimension(n, n_a, n_b)
            if dim > sector_cap:
                partial = True
                records.append(SectorRecord(n_a, n_b, dim, 0, None, True))
                continue
            basis = fock.enumerate_sector(v, n_a, n_b)
            h = operators.assemble_sector_hamiltonian(v, p, basis)
            which = analytic.GROUND_SECTORS.get((n_a, n_b))
            if which is not None:
                psi = analytic.ground_state_vector(v, p, which, basis)
                resid = np.linalg.norm(h @ psi)
                if resid > tol_rel * max(1.0, hamiltonian_norm(h) if dim > 1 else 1.0):
                    raise SpectraError(
                        f"analytic ground vector fails in sector ({n_a},{n_b}): "
                        f"residual {resid:.3e}")
                kernel_total += 1
                if dim == 1:
                    rec = SectorRecord(n_a, n_b, dim, 1, None)
                else:
                    low = lowest_eigenvalues(h, k=1, deflate=psi[:, None],
                                             dense_cap=dense_cap)
                    rec = SectorRecord(n_a, n_b, dim, 1, float(low[0]))
                    candidates.append(rec.lowest_excited)
            else:
                low = lowest_eigenvalues(h, k=1, dense_cap=dense_cap)
                e0 = float(low[0])
                thresh = tol_rel * max(1.0, hamiltonian_norm(h))
                if e0 < thresh:
                    raise SpectraError(
                        f"unexpected kernel vector in sector ({n_a},{n_b})")
                rec = SectorRecord(n_a, n_b, dim, 0, e0)
                candidates.append(e0)
            records.append(rec)
    if not candidates:
        raise SpectraError("no excited states found (volume too small?)")
    return SpectrumReport(float(min(candidates)), kernel_total, partial, records)


@dataclass
class ScalingPoint:
    size: int
    sites: int
    trial_energy: float
    numeric_gap: float | None

    def to_json(self) -> dict:
        return {"size": self.size, "sites": self.sites,
                "trial_energy": self.trial_energy,
                "numeric_gap": self.numeric_gap}


def gapless_scaling(p: Params, sizes, species: str | None = None,
                    numeric_cap: int = 12) -> list[ScalingPoint]:
    """Variational evidence of gaplessness on growing boxes.

    Uses the single-particle trial state of a species whose parameter
    vector is identically one (so the state spreads uniformly). For boxes
    with at most numeric_cap sites the exact sector gap is attached too.
    """
    from .lattice import build_box
    from .model import log_lambda

    if species is None:
        for s in ("a", "b"):
            if all(x == 0.0 for x in log_lambda(p, s)):
                species = s
                break
        else:
            raise SpectraError("no species with a flat parameter vector")
    d = p.dim
    out = []
    for size in sorted(sizes):
        if size < 1:
            raise SpectraError("box sizes must be positive")
        inner = build_box((size,) * d)
        ambient = build_box((size + 2,) * d).translate((-1,) * d)
        trial = analytic.trial_state_energy(inner, ambient, p, species)
        gap = None
        if len(inner) >= 2 and len(inner) <= numeric_cap:
            gap = total_gap(inner, p).gap
        out.append(ScalingPoint(size, len(inner), trial, gap))
    return out
