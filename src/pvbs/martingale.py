"""Finite-size gap certification by the martingale method.

The pipeline: pick a tilt making all normalization sums nontrivially
geometric, choose a slab width ell, evaluate the projection-product
bound eps_ell, compute (or mark symbolic) the seed gap on the
ell-sized volume, and chain the per-direction contraction factor into
a lower bound on the gap of arbitrarily large volumes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy
import scipy

from . import __version__ as _pkg_version
from . import analytic, fock, operators, spectra
from .lattice import VolumeFamilySpec, edges
from .model import (DEFAULT_ELL_CAP, DEFAULT_ETA, GapClass, ModelError,
                    Params, TiltScheme, c_tilde, choose_ell, classify_zd,
                    select_tilt)

DEFAULT_GAMMA_BUDGET = 150_000
PASS_SLACK = 1e-10


class MartingaleError(ValueError):
    pass


@dataclass(frozen=True)
class Symbolic:
    """Marker for a quantity that is provably positive but out of numeric
    reach; carries the dimension that blocked the computation."""

    reason: str
    blocking_dimension: int

    def to_json(self):
        return "symbolic"


def permuted_params(p: Params, t: TiltScheme) -> Params:
    """Parameters reordered to the tilt's coordinate convention."""
    return Params(tuple(p.lambda_a[j] for j in t.permutation),
                  tuple(p.lambda_b[j] for j in t.permutation))


def sweep_family(t: TiltScheme, j: int, ell: int, lead: int,
                 upper: int, lower: int = 0) -> VolumeFamilySpec:
    """Family swept in direction j: extents are `lead` before j and ell
    after it (the swept extent itself is a placeholder)."""
    ext = tuple(lead if k < j else ell for k in range(t.dim))
    return VolumeFamilySpec(t, ext, j, upper, lower)


@dataclass
class ConditionReport:
    condition: str  # "i" or "iii"
    inputs: dict
    measured: float
    bound: float

    @property
    def passed(self) -> bool:
        return self.measured <= self.bound * (1.0 + PASS_SLACK) + PASS_SLACK

    def to_json(self) -> dict:
        return {"condition": self.condition, "inputs": dict(self.inputs),
                "measured": self.measured, "bound": self.bound,
                "pass": self.passed}


def verify_condition_i(family: VolumeFamilySpec, ell: int,
                       big: int) -> ConditionReport:
    """Each edge of the largest volume must lie in at most ell of the
    width-ell sweep slabs; pure lattice counting."""
    if ell > big:
        raise MartingaleError("need ell <= L for the slab sweep")
    full = family.member(big)
    counts = {e: 0 for e in edges(full)}
    for n in range(ell, big + 1):
        outer_sites = set(family.member(n).sites)
        inner_sites = set(family.member(n - ell).sites)
        slab_sites = outer_sites - inner_sites
        for e in counts:
            if e.base in slab_sites and e.head in slab_sites:
                counts[e] += 1
    measured = max(counts.values()) if counts else 0
    return ConditionReport(
        "i", {"j": family.sweep, "ell": ell, "L": big},
        float(measured), float(ell))


def verify_condition_iii(family: VolumeFamilySpec, n: int, ell: int,
                         p: Params) -> ConditionReport:
    """Measure ||G_slab E_n|| and compare it with the analytic projection
    bound.

    The ambient volume is member n + 1, inner is member n, and the slab
    is the ambient volume minus member n + 1 - ell. Slab and inner must
    make up the ambient volume: with (N_a, N_b) conserved, only the 9
    sectors with N_a, N_b <= 2 then carry the norm, and in each
    E_n = Q Q^T for an orthonormal Q built from analytic ground vectors
    (see `operators.projection_product_norm`). No 3^N vector is formed;
    the only size limit is fock's 39 sites for base-3 codes.

    `p` must already be in the tilt's coordinate order.
    """
    t = family.tilt
    j = family.sweep
    if not (ell - 2) * t.min_log_direction(j) > 1.0:
        raise MartingaleError(
            "projection bound hypothesis fails: (ell-2)*min|log| <= 1")
    ambient = family.member(n + 1)
    inner = family.member(n)
    slab_vol = ambient.difference(family.member(n + 1 - ell), label="slab")
    if set(slab_vol.sites + inner.sites) != set(ambient.sites):
        raise MartingaleError("sweep slab and inner volume do not make up "
                              "the ambient volume")
    measured = operators.projection_product_norm(slab_vol, inner, p)
    bound = analytic.lemma1_bound(t, ell, j)
    return ConditionReport(
        "iii", {"j": j, "n": n, "ell": ell}, measured, bound)


def compute_gamma_ell(t: TiltScheme, p: Params, ell: int,
                      budget: int = DEFAULT_GAMMA_BUDGET):
    """Seed gap on the all-ell volume, or a Symbolic marker when the
    largest particle sector is out of budget."""
    family = sweep_family(t, 0, ell, ell, upper=ell)
    vol = family.member(ell)
    n_sites = len(vol)
    worst = max(fock.sector_dimension(n_sites, na, nb)
                for na in range(n_sites + 1)
                for nb in range(n_sites + 1 - na))
    if worst > budget:
        return Symbolic("largest particle sector exceeds the eigensolver "
                        "budget", worst)
    return spectra.total_gap(vol, p, sector_cap=budget)


@dataclass
class GapCertificate:
    params: Params
    tilt: TiltScheme
    ell: int
    c_tilde: float
    eps_ell: float
    gamma_ell: object  # float or Symbolic
    factor_per_direction: float
    final_bound: object  # float or Symbolic
    conditions: list[ConditionReport] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    version: str = ""

    @property
    def d_ell(self) -> int:
        return self.ell

    def to_json(self) -> dict:
        def val(x):
            return x.to_json() if isinstance(x, Symbolic) else x

        return {
            "params": self.params.to_json(),
            "tilt": self.tilt.to_json(),
            "ell": self.ell,
            "d_ell": self.d_ell,
            "c_tilde": self.c_tilde,
            "eps_ell": self.eps_ell,
            "gamma_ell": val(self.gamma_ell),
            "factor_per_direction": self.factor_per_direction,
            "final_bound": val(self.final_bound),
            "conditions": [c.to_json() for c in self.conditions],
            "notes": list(self.notes),
            "version": self.version,
        }


def _spot_checks(t: TiltScheme, pp: Params, ell: int, j: int,
                 spot_lead: int, how_many: int):
    """The smallest feasible sweep positions n for a direction-j check."""
    reports, notes = [], []
    family = sweep_family(t, j, ell, spot_lead, upper=ell)
    for n in range(ell, ell + how_many):
        sites = len(family.member(n + 1))
        if sites > fock.MAX_SITES:
            notes.append(
                f"condition (iii) not numerically checkable in direction "
                f"{j} from n = {n}: the ambient volume has {sites} sites, "
                f"over the {fock.MAX_SITES}-site limit of base-3 codes")
            break
        reports.append(verify_condition_iii(family, n, ell, pp))
    return reports, notes


def certify(p: Params, eta: float = DEFAULT_ETA,
            ell_cap: int = DEFAULT_ELL_CAP,
            gamma_budget: int = DEFAULT_GAMMA_BUDGET,
            spot_lead: int = 2, spot_checks: int = 2,
            check_conditions: bool = True) -> GapCertificate:
    """Run the full certification pipeline for gapped parameters."""
    if classify_zd(p) is not GapClass.GAPPED:
        raise MartingaleError(
            "certification requires gapped parameters (both log vectors "
            "nonzero)")
    # a margin or ell-cap failure means no certificate at these settings
    # (budget exit); a c~ out of double range is invalid input
    try:
        t = select_tilt(p, eta)
    except ModelError as exc:
        raise MartingaleError(str(exc)) from exc
    ct = c_tilde(t)
    try:
        ell, eps = choose_ell(t, ell_cap)
    except ModelError as exc:
        raise MartingaleError(str(exc)) from exc
    pp = permuted_params(p, t)
    d = p.dim

    gamma = compute_gamma_ell(t, pp, ell, gamma_budget)
    factor = (1.0 - eps * math.sqrt(ell)) ** 2 / ell
    notes = []
    if isinstance(gamma, Symbolic):
        gamma_val: object = gamma
        final: object = Symbolic("positive multiple of a symbolic seed gap",
                                 gamma.blocking_dimension)
        notes.append(f"seed gap left symbolic: {gamma.reason} "
                     f"(dimension {gamma.blocking_dimension})")
    else:
        gamma_val = gamma.gap
        final = gamma.gap * factor ** d

    conditions = []
    if check_conditions:
        for j in range(d):
            fam = sweep_family(t, j, ell, 2 * ell, upper=2 * ell)
            conditions.append(verify_condition_i(fam, ell, 2 * ell))
        for j in range(d):
            reps, more = _spot_checks(t, pp, ell, j, spot_lead, spot_checks)
            conditions.extend(reps)
            notes.extend(more)
        bad = [c for c in conditions if not c.passed]
        if bad:
            raise MartingaleError(
                f"certificate invalid: condition {bad[0].condition} failed "
                f"with inputs {bad[0].inputs}")

    version = (f"pvbs {_pkg_version}; numpy {numpy.__version__}; "
               f"scipy {scipy.__version__}")
    return GapCertificate(p, t, ell, ct, eps, gamma_val, factor, final,
                          conditions, notes, version)
