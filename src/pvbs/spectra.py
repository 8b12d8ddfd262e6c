"""Spectral-gap computation on finite volumes.

Dense diagonalization for sectors of at most DENSE_CAP (200) states,
Lanczos above it, both with explicit deflation; every Lanczos eigenpair
is checked by its residual. Ground-bearing particle sectors deflate the
known analytic ground vector instead of re-finding the kernel
numerically.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import analytic, fock, operators
from .lattice import LatticeError, Volume, build_box, is_connected
from .model import ModelError, Params, log_lambda

# Dense/Lanczos crossover for one lowest eigenvalue of a d=1 sector,
# measured on a 2-vCPU Xeon VM with BLAS on 2 threads (median of 7
# repeats, 3 at 2520 states; dense includes the conversion to an array):
#    dim   dense eigvalsh   eigsh(k=1)
#    120       0.9 ms         2.8 ms
#    168       2.0 ms         3.1 ms
#    210       3.9 ms         3.2 ms
#    252       5.6 ms         3.8 ms
#    420      16.3 ms         7.3 ms
#   2520      1214 ms          10 ms
DENSE_CAP = 200
KERNEL_TOL_REL = 1e-8


class SpectraError(ValueError):
    pass


def hamiltonian_norm(h) -> float:
    """Upper bound on ||H||: the largest absolute row sum, which bounds
    every eigenvalue of H."""
    return float(abs(h).sum(axis=1).max())


def _deflated(h, vectors: np.ndarray, shift: float):
    """H plus a rank-k shift pushing `vectors` (columns) out of the bottom:
    a dense matrix for dense H, matrix-free for sparse H."""
    if not sp.issparse(h):
        return h + shift * (vectors @ vectors.T)

    def mv(x):
        return h @ x + shift * (vectors @ (vectors.T @ x))

    return spla.LinearOperator(h.shape, matvec=mv, dtype=float)


def lowest_eigenvalues(h, k: int = 1, deflate: np.ndarray | None = None,
                       dense_cap: int = DENSE_CAP) -> np.ndarray:
    """The k smallest eigenvalues, optionally after deflating some vectors.

    Deflation adds a large positive rank-one shift per deflated vector, so
    the returned values are eigenvalues of H restricted to the orthogonal
    complement (up to the usual iterative tolerances). Sectors up to
    dense_cap (default DENSE_CAP = 200) states are diagonalized densely,
    larger ones by Lanczos, whose Ritz pairs must have a residual
    ||Ax - theta x|| of at most KERNEL_TOL_REL * max(1, ||H||) against the
    operator solved, deflation included, or SpectraError is raised.
    """
    dim = h.shape[0]
    if k < 1 or k > dim:
        raise SpectraError(f"need 1 <= k <= dim, got k={k}, dim={dim}")
    dense = dim <= dense_cap or k >= dim - 1
    if dense and sp.issparse(h):
        h = h.toarray()
    if deflate is not None or not dense:
        # sizes the deflation shift and the Lanczos residual test
        scale = max(1.0, hamiltonian_norm(h))
    if deflate is not None:
        h = _deflated(h, deflate.reshape(dim, -1), 10.0 * scale)
    if dense:
        return np.linalg.eigvalsh(h)[:k]
    vals, vecs = spla.eigsh(h, k=k, which="SA",
                            v0=operators.lanczos_start(dim))
    resid = float(np.linalg.norm(h @ vecs - vecs * vals, axis=0).max())
    if resid > KERNEL_TOL_REL * scale:
        raise SpectraError(
            f"Lanczos eigenpair residual {resid:.3e} exceeds "
            f"{KERNEL_TOL_REL:g} * {scale:.3e}")
    return np.sort(vals)


def kernel_dimension(h, tol_rel: float = KERNEL_TOL_REL) -> int:
    """Number of eigenvalues below tol_rel * max(1, ||H||)."""
    dim = h.shape[0]
    if dim == 0:
        return 0
    thresh = tol_rel * max(1.0, hamiltonian_norm(h))
    k = 4
    while True:
        k = min(k, dim)
        vals = lowest_eigenvalues(h, k=k)
        if vals[-1] >= thresh or k == dim:
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
        """A partial report's minimum over the solved sectors is only an
        upper bound on the gap, so it is `gap_upper_bound` and `gap` is
        null."""
        out = {"gap": self.gap, "kernel_total": self.kernel_total,
               "partial": self.partial,
               "sectors": [s.to_json() for s in self.sectors]}
        if self.partial:
            out["gap"] = None
            out["gap_upper_bound"] = self.gap
        return out


def total_gap(v: Volume, p: Params,
              sector_cap: int = fock.DEFAULT_SECTOR_CAP,
              tol_rel: float = KERNEL_TOL_REL) -> SpectrumReport:
    """Gap of H^v over all particle sectors, with the analytic kernel deflated.

    Requires a connected volume, where the kernel is exactly the four
    analytic ground vectors; sectors whose dimension exceeds sector_cap
    are skipped and the report is flagged partial.
    """
    n = len(v)
    if n < 2 or not is_connected(v):
        raise LatticeError("total_gap needs a connected volume with >= 2 sites")
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
                if resid > tol_rel * max(1.0, hamiltonian_norm(h)):
                    raise SpectraError(
                        f"analytic ground vector fails in sector ({n_a},{n_b}): "
                        f"residual {resid:.3e}")
                kernel_total += 1
                if dim == 1:
                    rec = SectorRecord(n_a, n_b, dim, 1, None)
                else:
                    low = lowest_eigenvalues(h, k=1, deflate=psi[:, None])
                    rec = SectorRecord(n_a, n_b, dim, 1, float(low[0]))
                    candidates.append(rec.lowest_excited)
            else:
                low = lowest_eigenvalues(h, k=1)
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
    if species is None:
        for s in ("a", "b"):
            if all(x == 0.0 for x in log_lambda(p, s)):
                species = s
                break
        else:
            raise ModelError("no species with a flat parameter vector")
    d = p.dim
    out = []
    for size in sorted(sizes):
        if size < 1:
            raise LatticeError("box sizes must be positive")
        inner = build_box((size,) * d)
        ambient = build_box((size + 2,) * d).translate((-1,) * d)
        trial = analytic.trial_state_energy(inner, ambient, p, species)
        gap = None
        if len(inner) >= 2 and len(inner) <= numeric_cap:
            gap = total_gap(inner, p).gap
        out.append(ScalingPoint(size, len(inner), trial, gap))
    return out
