"""Spectral-gap computation on finite volumes.

Dense diagonalization for sectors of at most DENSE_CAP (200) states,
Lanczos above it; every Lanczos eigenpair is checked by its residual.
Every particle sector is solved the same way: its kernel (one analytic
ground vector in a ground-bearing sector, none elsewhere) is counted
among the lowest kernel + 1 eigenvalues, and the next one is its lowest
excitation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import ComputeError, InputError, analytic, fock, operators
from .lattice import Volume, build_box, is_connected
from .model import Params, log_lambda

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
SCALING_NUMERIC_CAP = 12
LANCZOS_SEED = 0x5EED


def hamiltonian_norm(h) -> float:
    """Upper bound on ||H||: the largest absolute row sum, which bounds
    every eigenvalue of H. Summed from the CSR arrays, slot by slot."""
    h = sp.csr_matrix(h)
    rows = np.repeat(np.arange(h.shape[0]), np.diff(h.indptr))
    return float(np.bincount(rows, weights=np.abs(h.data),
                             minlength=h.shape[0]).max())


def lanczos_start(dim: int) -> np.ndarray:
    """Deterministic but generic unit start vector for ARPACK: a constant
    vector can be an exact eigenvector, which ARPACK rejects."""
    v0 = np.random.default_rng(LANCZOS_SEED).standard_normal(dim)
    return v0 / np.linalg.norm(v0)


def lowest_eigenvalues(h, k: int = 1) -> np.ndarray:
    """The k smallest eigenvalues of H, in ascending order.

    Sectors up to DENSE_CAP states are diagonalized densely, larger ones
    by Lanczos, whose Ritz pairs must have a residual ||Hx - theta x|| of
    at most KERNEL_TOL_REL * max(1, ||H||), or ComputeError is raised, as
    it is for an ARPACK error.
    """
    dim = h.shape[0]
    if k < 1 or k > dim:
        raise ComputeError(f"need 1 <= k <= dim, got k={k}, dim={dim}")
    if dim <= DENSE_CAP or k >= dim - 1:
        return np.linalg.eigvalsh(h.toarray() if sp.issparse(h) else h)[:k]
    try:
        vals, vecs = spla.eigsh(h, k=k, which="SA", v0=lanczos_start(dim))
    except spla.ArpackError as exc:
        raise ComputeError(str(exc)) from exc
    scale = max(1.0, hamiltonian_norm(h))
    resid = float(np.linalg.norm(h @ vecs - vecs * vals, axis=0).max())
    if resid > KERNEL_TOL_REL * scale:
        raise ComputeError(
            f"Lanczos eigenpair residual {resid:.3e} exceeds "
            f"{KERNEL_TOL_REL:g} * {scale:.3e}")
    return np.sort(vals)


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
              patterns: dict | None = None) -> SpectrumReport:
    """Gap of H^v over all particle sectors.

    Requires a connected volume, where the kernel is exactly the four
    analytic ground vectors, one in each sector of analytic.GROUND_SECTORS.
    Each solved sector's lowest kernel + 1 eigenvalues must hold exactly
    its kernel below KERNEL_TOL_REL * max(1, ||H||), and the next one is
    its lowest excitation. Sectors whose dimension exceeds sector_cap
    (at least 1) are skipped and the report is flagged partial.

    Each sector's `operators.sector_pattern` is dropped once the sector is
    solved, unless the caller passes `patterns`: a dict, kept by the
    caller for one volume v, that holds them by (n_a, n_b) for the next
    call with other parameters.
    """
    n = len(v)
    if n < 2 or not is_connected(v):
        raise InputError("total_gap needs a connected volume with >= 2 sites")
    weights = operators.edge_weights(p)
    records = []
    for n_a in range(n + 1):
        for n_b in range(n + 1 - n_a):
            dim = fock.sector_dimension(n, n_a, n_b)
            if dim > sector_cap:
                records.append(SectorRecord(n_a, n_b, dim, 0, None, True))
                continue
            pattern = None if patterns is None else patterns.get((n_a, n_b))
            if pattern is None:
                pattern = operators.sector_pattern(
                    fock.enumerate_sector(v, n_a, n_b))
                if patterns is not None:
                    patterns[n_a, n_b] = pattern
            basis = pattern.basis
            h = operators.assemble_sector_hamiltonian(pattern, weights)
            thresh = KERNEL_TOL_REL * max(1.0, hamiltonian_norm(h))
            which = analytic.GROUND_SECTORS.get((n_a, n_b))
            kernel = 0
            if which is not None:
                kernel = 1
                psi = analytic.ground_state_vector(v, p, which, basis)
                resid = np.linalg.norm(h @ psi)
                if resid > thresh:
                    raise ComputeError(
                        f"analytic ground vector fails in sector ({n_a},{n_b}): "
                        f"residual {resid:.3e}")
            excited = None
            if dim > kernel:
                vals = lowest_eigenvalues(h, k=kernel + 1)
                found = int(np.count_nonzero(vals < thresh))
                if found != kernel:
                    raise ComputeError(
                        f"unexpected kernel vector count {found} (expected "
                        f"{kernel}) in sector ({n_a},{n_b})")
                excited = float(vals[kernel])
            records.append(SectorRecord(n_a, n_b, dim, kernel, excited))
    gap = min(r.lowest_excited for r in records if r.lowest_excited is not None)
    return SpectrumReport(gap, sum(r.kernel for r in records),
                          any(r.skipped for r in records), records)


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


def gapless_scaling(p: Params, sizes) -> list[ScalingPoint]:
    """Variational evidence of gaplessness on growing boxes.

    Uses the single-particle trial state of a species whose parameter
    vector is identically one (so the state spreads uniformly). For boxes
    with at most SCALING_NUMERIC_CAP sites the exact total gap is attached
    too.
    """
    for species in ("a", "b"):
        if all(x == 0.0 for x in log_lambda(p, species)):
            break
    else:
        raise InputError("no species with a flat parameter vector")
    d = p.dim
    out = []
    for size in sorted(sizes):
        if size < 1:
            raise InputError("box sizes must be positive")
        inner = build_box((size,) * d)
        ambient = build_box((size + 2,) * d).translate((-1,) * d)
        trial = analytic.trial_state_energy(inner, ambient, p, species)
        gap = None
        if 2 <= len(inner) <= SCALING_NUMERIC_CAP:
            gap = total_gap(inner, p).gap
        out.append(ScalingPoint(size, len(inner), trial, gap))
    return out
