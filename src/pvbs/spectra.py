"""Spectral-gap computation on finite volumes.

Dense diagonalization for sectors of at most DENSE_CAP (64) states (see
the comment above it), and above it a thick-restart Lanczos in numpy
(K. Wu and H. Simon, SIAM J. Matrix Anal. Appl. 22, 602 (2000)), whose
eigenpairs are each checked by their residual. Every particle sector is
solved the same way: its kernel (one analytic ground vector in a
ground-bearing sector, none elsewhere) is counted among the lowest
kernel + 1 eigenvalues, and the next one is its lowest excitation. Where
a mirror symmetry maps sector (n_a, n_b) onto (n_b, n_a) (see
`_mirror_twins`), only the sectors with n_a <= n_b are solved, and each
other one takes its twin's record. `climb` solves nested volumes of any
dimension for many parameter points at once, one site at a time, each
prefix floored by the one before it (`grown_floors`).
"""

from __future__ import annotations

import math

import numpy as np

from . import ComputeError, InputError, analytic, fock, operators
from .lattice import Volume, build_box, growth_order
from .model import GapClass, Params, classify_zd

# Dense eigvalsh against Lanczos for the lowest eigenvalue of a d=1
# sector, per call in ms, with BLAS on one thread as `pvbs.cli` runs it,
# measured on a 2-vCPU Xeon VM with numpy's OpenBLAS 0.3.31
# (scipy-openblas64, DYNAMIC_ARCH, Haswell kernels); median of 4 runs,
# each a median of 15 repeats (3 at 2520 states); dense includes the
# conversion to an array, Lanczos the residual check:
#            dense          Lanczos(k=1)
#    dim   wall    cpu     wall    cpu
#     56   0.20    0.20    1.01    1.01
#     70   0.32    0.32    0.92    0.92
#     90   0.46    0.47    1.01    1.01
#    120   0.63    0.63    0.93    0.93
#    168   1.50    1.50    1.25    1.25
#    210   2.77    2.77    1.45    1.45
#    252   4.08    4.08    1.57    1.57
#   2520   1899    1898    9.06    9.07
# So at one thread dense is faster up to about 150 states. The cap stays
# at 64, where it was set for two threads, because moving it changes the
# last digits of the sectors between the two. It still serves a library
# caller whose numpy loaded with more than one BLAS thread before
# `pvbs.cli` could pin it: eigvalsh of an n x n matrix wakes OpenBLAS's
# second thread from n = 65 on (bisected on 56..72), which gains no wall
# time at these sizes and then busy-waits, about 135 ms of CPU after
# every such call at OpenBLAS's default timeout. Up to 64 states, as in
# Lanczos's numpy calls at these sizes, that thread stays asleep.
DENSE_CAP = 64
KERNEL_TOL_REL = 1e-8
SCALING_NUMERIC_CAP = 12
LANCZOS_SEED = 0x5EED
# the increment and the two multiply steps of splitmix64's output hash
SPLITMIX_GAMMA = np.uint64(0x9E3779B97F4A7C15)
SPLITMIX_MIX = ((np.uint64(30), np.uint64(0xBF58476D1CE4E5B9)),
                (np.uint64(27), np.uint64(0x94D049BB133111EB)))
# no sector of box:10 to box:12, box:3x4, box:3x3 or the 13-site certify
# seed, near-gapless and gapless weights included, needs over 25 cycles
LANCZOS_MAX_CYCLES = 1000
# a Gram-Schmidt pass that leaves less than this share of the norm is
# repeated once (the DGKS criterion, with ARPACK's constant)
DGKS_RATIO = 0.717


def lanczos_start(dim: int, draw: int = 0) -> np.ndarray:
    """Deterministic but generic unit start vector for Lanczos: a constant
    vector can be an exact eigenvector, whose Krylov space sees nothing
    else. Entry i is output draw * dim + i + 1 of the splitmix64 generator
    seeded with LANCZOS_SEED (G. Steele, D. Lea and C. Flood, OOPSLA 2014),
    taken as a uniform float in [-1/2, 1/2); `draw` numbers the further
    vectors that `_lanczos` needs after a breakdown."""
    z = np.arange(draw * dim + 1, (draw + 1) * dim + 1, dtype=np.uint64)
    z = z * SPLITMIX_GAMMA + np.uint64(LANCZOS_SEED)
    for shift, mult in SPLITMIX_MIX:
        z = (z ^ (z >> shift)) * mult
    z ^= z >> np.uint64(31)
    v0 = (z >> np.uint64(11)) * 2.0 ** -53 - 0.5
    return v0 / np.linalg.norm(v0)


def _orthogonalize(w: np.ndarray, q: np.ndarray):
    """w minus its projection on the orthonormal rows of q, by classical
    Gram-Schmidt with one DGKS correction (Daniel, Gragg, Kaufman and
    Stewart, Math. Comp. 30, 772 (1976)), in place. Returns w, the
    projection coefficients and the norm of w, 0.0 when w lies in the
    span of q to rounding. The norms are np.linalg.norm's arithmetic for
    a real vector, without its dispatch."""
    norm = math.sqrt(w.dot(w))
    coef = q @ w
    w -= coef @ q
    norm, before = math.sqrt(w.dot(w)), norm
    if norm < DGKS_RATIO * before:
        again = q @ w
        w -= again @ q
        coef += again
        norm, before = math.sqrt(w.dot(w)), norm
        if norm < DGKS_RATIO * before:
            norm = 0.0
    return w, coef, norm


def _lanczos(h, k: int, scale: float):
    """The k lowest Ritz values of H, ascending, and their Ritz vectors as
    columns, by thick-restart Lanczos: a basis of at most
    m = max(2k + 1, 20) vectors plus the residual direction, each vector
    orthogonalized against all before it, restarted from the lowest m // 2
    Ritz vectors until every wanted Ritz residual estimate is at most
    KERNEL_TOL_REL / 10 * scale. ComputeError after LANCZOS_MAX_CYCLES
    cycles."""
    dim = h.shape[0]
    m = min(dim, max(2 * k + 1, 20))
    basis = np.zeros((m + 1, dim))
    basis[0] = lanczos_start(dim)
    t = np.zeros((m, m))
    kept = draws = 0
    for _ in range(LANCZOS_MAX_CYCLES):
        for j in range(kept, m):
            w, coef, beta = _orthogonalize(h @ basis[j], basis[:j + 1])
            t[j, j] = coef[j]
            if j + 1 < m:
                t[j, j + 1] = t[j + 1, j] = beta
            if beta:
                basis[j + 1] = w / beta
            elif j + 1 < m:  # an invariant subspace: go on outside it
                draws += 1
                w, _, norm = _orthogonalize(lanczos_start(dim, draws),
                                            basis[:j + 1])
                basis[j + 1] = w / norm
        theta, s = np.linalg.eigh(t)
        if np.abs(beta * s[-1, :k]).max() <= KERNEL_TOL_REL / 10 * scale:
            return theta[:k], (s[:, :k].T @ basis[:m]).T
        kept = m // 2
        basis[:kept] = s[:, :kept].T @ basis[:m]
        basis[kept] = basis[m]
        t[:] = 0.0
        t[range(kept), range(kept)] = theta[:kept]
        t[kept, :kept] = t[:kept, kept] = beta * s[-1, :kept]
    raise ComputeError(
        f"Lanczos did not converge in {LANCZOS_MAX_CYCLES} restart cycles")


def lowest_eigenvalues(h: operators.SectorMatrix, k: int = 1) -> np.ndarray:
    """The k smallest eigenvalues of H, in ascending order.

    Sectors up to DENSE_CAP states are diagonalized densely, larger ones
    by `_lanczos`, whose Ritz pairs must have a residual ||Hx - theta x||
    of at most KERNEL_TOL_REL * max(1, ||H||), with ||H|| bounded by
    `h.norm`, or ComputeError is raised, as it is when Lanczos does not
    converge. Lanczos from one start vector can miss the further copies
    of a repeated eigenvalue, so on that path a kernel of two or more
    vectors could be counted as one: there `total_gap`'s kernel count
    rests on the analytic kernel, one vector in each ground sector.
    """
    dim = h.shape[0]
    if k < 1 or k > dim:
        raise ComputeError(f"need 1 <= k <= dim, got k={k}, dim={dim}")
    if dim <= DENSE_CAP or k >= dim - 1:
        return np.linalg.eigvalsh(h.toarray())[:k]
    scale = max(1.0, h.norm)
    vals, vecs = _lanczos(h, k, scale)
    resid = float(np.linalg.norm(h @ vecs - vecs * vals, axis=0).max())
    if resid > KERNEL_TOL_REL * scale:
        raise ComputeError(
            f"Lanczos eigenpair residual {resid:.3e} exceeds "
            f"{KERNEL_TOL_REL:g} * {scale:.3e}")
    return vals


def _mirror_twins(v: Volume, p: Params) -> bool:
    """Whether H^v on sector (n_a, n_b) is a permutation of H^v on
    (n_b, n_a), so that the two have one spectrum.

    Exchanging the species maps the edge term at (lambda_a, lambda_b) to
    the one at (lambda_b, lambda_a), and sector (n_a, n_b) to (n_b, n_a).
    Reflecting direction j reverses the order of every edge along it,
    which maps the edge term at (lambda_a, lambda_b) to the one at
    (1/lambda_a, 1/lambda_b). So the exchange, followed by the reflection
    through v's bounding box of every direction with lambda_a != lambda_b,
    maps H^v to itself if each of those directions has
    lambda_a * lambda_b = 1 and v is its own image. Compared exactly, in
    the Fractions of p.
    """
    flip = []
    for a, b in zip(p.lambda_a, p.lambda_b):
        if a != b and a * b != 1:
            return False
        flip.append(a != b)
    ends = [min(axis) + max(axis) for axis in zip(*v.sites)]
    return all(tuple(e - x if f else x for x, f, e in zip(s, flip, ends)) in v
               for s in v.sites)


def total_gap(v: Volume, p: Params,
              sector_cap: int = fock.DEFAULT_SECTOR_CAP,
              patterns: dict | None = None,
              floors: dict | None = None) -> tuple[dict, dict]:
    """Gap of H^v over all particle sectors, as (record, floors).

    The record is what `pvbs gap` prints of it: `gap`, `kernel_total`,
    `partial` and `sectors`, one dict per sector with `n_a`, `n_b`,
    `dim`, `kernel`, `lowest_excited` and `skipped`. A partial record's
    minimum over the solved sectors is only an upper bound on the gap, so
    it is `gap_upper_bound` and `gap` is None.

    Requires a connected volume, where the kernel is exactly the four
    analytic ground vectors, one in each sector of analytic.GROUND_SECTORS.
    Each solved sector's lowest kernel + 1 eigenvalues must hold exactly
    its kernel below KERNEL_TOL_REL * max(1, h.norm), and the next one is
    its lowest excitation. A sector over sector_cap (at least 1) that no
    floor bounds (below) is skipped, and the record flagged partial. When
    `_mirror_twins(v, p)` holds, a sector with n_a > n_b is not solved: it
    takes the record of its twin (n_b, n_a), floats included.

    `floors` holds a lower bound on the lowest eigenvalue of sectors, such
    as `grown_floors` makes from v less one site; a sector it omits (all
    of them when it is None) has floor 0. The sectors are visited in
    ascending floor order, ties in sector order, keeping the least
    excitation solved so far, and a sector outside analytic.GROUND_SECTORS
    whose floor exceeds it is bounded, not solved, over sector_cap or not:
    no basis, pattern or matrix is built for it, and its record has
    `lowest_excited` None and `skipped` False. Its lowest eigenvalue is
    its lowest excitation, so it lies above the gap, which stays the
    minimum over the same solved floats as without floors. A floor of 0
    never bounds a sector, since every solved excitation is at least the
    positive kernel threshold.

    The returned floors bound each sector's lowest eigenvalue, by
    (n_a, n_b): 0 in a ground sector (H >= 0) and in a skipped one; the
    given floor in a bounded one; and in a solved one its lowest
    excitation less KERNEL_TOL_REL * max(1, h.norm). That is the residual
    bound on a Lanczos value, which is then within it of an eigenvalue of
    H; what is trusted, as for the gap itself, is that this eigenvalue is
    the sector's lowest. A dense solve errs far less.

    Each sector's `operators.sector_pattern` is dropped once the sector is
    solved, unless the caller passes `patterns`: a dict, kept by the
    caller for one volume v, that holds them by (n_a, n_b) for the next
    call with other parameters.
    """
    n = len(v)
    if n < 2 or not v.connected:
        raise InputError("total_gap needs a connected volume with >= 2 sites")
    weights = operators.edge_weights(p)
    mirror = _mirror_twins(v, p)
    sectors = [(n_a, n_b) for n_a in range(n + 1) for n_b in range(n + 1 - n_a)]
    floors = floors or {}
    visit = sorted((s for s in sectors if not (mirror and s[0] > s[1])),
                   key=lambda s: floors.get(s, 0.0))
    records, bounds = {}, {}
    least = math.inf
    for n_a, n_b in visit:
        dim = fock.sector_dimension(n, n_a, n_b)
        ground = (n_a, n_b) in analytic.GROUND_SECTORS
        floor = floors.get((n_a, n_b), 0.0)
        rec = records[n_a, n_b] = {"n_a": n_a, "n_b": n_b, "dim": dim,
                                   "kernel": 0, "lowest_excited": None,
                                   "skipped": False}
        if not ground and floor > least:
            bounds[n_a, n_b] = floor
            continue
        if dim > sector_cap:
            rec["skipped"] = True
            bounds[n_a, n_b] = 0.0
            continue
        pattern = None if patterns is None else patterns.get((n_a, n_b))
        if pattern is None:
            pattern = operators.sector_pattern(
                fock.enumerate_sector(v, n_a, n_b))
            if patterns is not None:
                patterns[n_a, n_b] = pattern
        basis = pattern.basis
        h = operators.assemble_sector_hamiltonian(pattern, weights)
        thresh = KERNEL_TOL_REL * max(1.0, h.norm)
        kernel = rec["kernel"] = int(ground)
        if ground:
            psi = analytic.ground_state_vector(p, basis)
            resid = np.linalg.norm(h @ psi)
            if resid > thresh:
                raise ComputeError(
                    f"analytic ground vector fails in sector ({n_a},{n_b}): "
                    f"residual {resid:.3e}")
        if dim > kernel:
            vals = lowest_eigenvalues(h, k=kernel + 1)
            found = int(np.count_nonzero(vals < thresh))
            if found != kernel:
                raise ComputeError(
                    f"unexpected kernel vector count {found} (expected "
                    f"{kernel}) in sector ({n_a},{n_b})")
            excited = rec["lowest_excited"] = float(vals[kernel])
            least = min(least, excited)
        bounds[n_a, n_b] = 0.0 if kernel else excited - thresh
    for n_a, n_b in sectors:
        if (n_a, n_b) not in records:
            records[n_a, n_b] = {**records[n_b, n_a], "n_a": n_a, "n_b": n_b}
            bounds[n_a, n_b] = bounds[n_b, n_a]
    records = [records[s] for s in sectors]
    partial = any(r["skipped"] for r in records)
    record = {"gap": None if partial else least,
              "kernel_total": sum(r["kernel"] for r in records),
              "partial": partial, "sectors": records}
    if partial:
        record["gap_upper_bound"] = least
    return record, bounds


def grown_floors(low: dict) -> dict:
    """Floors for `total_gap` on v + s, the volume v with a site s added,
    from `low`, v's `total_gap` floors: for each sector (n_a, n_b), the
    least of them over v's sectors (n_a, n_b), (n_a - 1, n_b) and
    (n_a, n_b - 1) that exist.

    Proof. Each edge term is an orthogonal projector, so dropping those
    that touch s leaves H_(v+s) >= H_v (x) 1, whatever the shape of v.
    Both conserve the particle numbers, and on sector (n_a, n_b) the
    right side is the direct sum, over s empty, holding a or holding b,
    of H_v on its sector (n_a, n_b), (n_a - 1, n_b) or (n_a, n_b - 1). So
    the lowest eigenvalue of H_(v+s) there is at least the least lowest
    eigenvalue of those sectors, and so at least the least of their
    floors: 0 for a ground sector or one over the cap, its own floor for
    a bounded one (v may have been solved with floors too), and for a
    solved one its eigenvalue less its error (see `total_gap`).
    """
    n = max(n_a + n_b for n_a, n_b in low) + 1
    return {(n_a, n_b): min(low[s] for s in ((n_a, n_b), (n_a - 1, n_b),
                                             (n_a, n_b - 1)) if s in low)
            for n_a in range(n + 1) for n_b in range(n + 1 - n_a)}


def climb(ps, volumes, tops):
    """Climb each point ps[i] through the nested, connected `volumes`,
    ascending, to its top, tops[i] sites (one volume's count): yield each
    volume with its `total_gap` records, None past a point's top. Sites
    come one at a time in `growth_order` from 2 on; each prefix after the
    first is floored by `grown_floors` of the one before it, and its
    sector patterns serve every point. Floors change no gap by a bit: see
    `total_gap`."""
    order = growth_order(volumes)
    if any(len(v) < 2 or v.position.keys() != set(order[:len(v)])
           for v in volumes):
        raise InputError("a climb needs nested connected volumes of 2+ sites")
    floors = [None] * len(ps)
    for n in range(2, max(tops, default=0) + 1):
        v, patterns = Volume(len(order[0]), order[:n]), {}
        records, floors = zip(*(
            total_gap(v, p, patterns=patterns,
                      floors=None if low is None else grown_floors(low))
            if n <= top else (None, None)
            for p, top, low in zip(ps, tops, floors)))
        if any(len(u) == n for u in volumes):
            yield v, records


def gapless_scaling(p: Params, sizes) -> list[dict]:
    """Variational evidence of gaplessness on growing boxes: the energy
    d / size of one particle of a flat species (one whose parameter vector
    is identically 1), spread uniformly over the box {0..size-1}^d in the
    vacuum, the trial state of S. Bishop, B. Nachtergaele and A. Young,
    J. Stat. Phys. 162, 1485 (2016). For boxes of 2 to
    SCALING_NUMERIC_CAP sites the exact total gap is attached too. One
    row per size, ascending: size, sites, trial_energy and numeric_gap
    (None where no gap is attached).

    Proof. The unnormalized state is sum_x lambda^x |x>, one particle at
    site x of the box, with weight lambda^(2x) = 1 at every site, so its
    squared norm is the site count size^d. An edge inside the box
    annihilates it, since it is a ground state there, and an edge outside
    sees only the vacuum. Each of the 2 d size^(d-1) edges that leave the
    box holds the particle at one end with weight 1, and costs
    w / (1 + w) at the lower end or 1 / (1 + w) at the upper one, both
    1/2 at w = lambda_j^2 = 1. So the energy is
    d size^(d-1) / size^d = d / size, one correctly rounded division.
    """
    if classify_zd(p) is not GapClass.GAPLESS:
        raise InputError("no species with a flat parameter vector")
    d = p.dim
    sizes = sorted(sizes)
    if any(s < 1 for s in sizes):
        raise InputError("box sizes must be positive")
    boxes = [build_box((s,) * d) for s in sorted(set(sizes))
             if 2 <= s ** d <= SCALING_NUMERIC_CAP]
    gaps = {len(v): rec["gap"]
            for v, [rec] in climb([p], boxes, [len(v) for v in boxes[-1:]])}
    return [{"size": s, "sites": s ** d, "trial_energy": d / s,
             "numeric_gap": gaps.get(s ** d)} for s in sizes]
