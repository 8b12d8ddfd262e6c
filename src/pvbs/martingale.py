"""Finite-size gap certification by the martingale method.

The pipeline: pick a tilt making all normalization sums nontrivially
geometric, choose a slab width ell, evaluate the projection-product
bound eps_ell, compute (or mark symbolic) the seed gap on the
ell-sized volume, and chain the per-direction contraction factor into
a lower bound on the gap of arbitrarily large volumes. The sweep
conditions are checked per direction: condition (i), the slab overlap,
in closed form from the tilt; condition (iii), the projection product,
by measuring it at the smallest sweep positions.
"""

from __future__ import annotations

import math

import numpy

from . import __version__ as _pkg_version
from . import ComputeError, fock, operators, spectra
from .lattice import VolumeFamilySpec
from .model import (DEFAULT_ELL_CAP, DEFAULT_ETA, Params, TiltScheme,
                    c_tilde, choose_ell, projection_bound, select_tilt)

DEFAULT_GAMMA_BUDGET = 150_000
# the longest sector dimension that a note writes in full: CPython's
# default int-to-str limit, fixed so that no interpreter setting moves it
STR_DIGITS = 4300
PASS_SLACK = 1e-10
# condition (iii) is checked at the SPOT_CHECKS smallest sweep positions
# of each direction, with extent SPOT_LEAD in the directions before it
SPOT_LEAD = 2
SPOT_CHECKS = 2


def sweep_family(t: TiltScheme, j: int, ell: int,
                 lead: int) -> VolumeFamilySpec:
    """Family swept in direction j: extents are `lead` before j and ell
    after it."""
    ext = tuple(lead if k < j else ell for k in range(t.dim))
    return VolumeFamilySpec(t, ext, j)


def _condition(condition: str, inputs: dict, measured: float,
               bound: float) -> dict:
    """The record of sweep condition "i" or "iii": it passes when measured
    is at most bound, up to PASS_SLACK both relative and absolute."""
    return {"condition": condition, "inputs": inputs, "measured": measured,
            "bound": bound,
            "pass": measured <= bound * (1.0 + PASS_SLACK) + PASS_SLACK}


def verify_condition_i(t: TiltScheme, j: int, ell: int) -> dict:
    """Each edge of member L = 2 ell of the direction-j sweep family
    (extent 2 ell before j, ell after it) must lie in at most ell of the
    width-ell slabs Lambda_n \\ Lambda_(n - ell), ell <= n <= L. This is
    a fact about the lattice, independent of lambda, and the largest
    count over the edges has a closed form: ell - 1 in Case 1 with j = 0
    when ell = 1 or every tilt integer in t.v is >= 1, and ell otherwise.

    Proof. Member n is the full volume cut at layer < n, where the layer
    of a site x is
      Case 1: v.x (with v_0 = 1) for j = 0, and x_j for j >= 1;
      Case 2: floor((x_0 + x_1 + 2 sum_(k>=2) v_k x_k) / 2) for j = 0,
              floor((x_1 - x_0) / 2) for j = 1, and x_j for j >= 2.
    The full volume holds the layers 0 .. 2 ell - 1, and slab n holds
    the layers n - ell .. n - 1. So an edge whose end layers are a <= b
    lies in the slabs n in [max(ell, b + 1), min(2 ell, a + ell)]: at
    most ell - (b - a) of them, with equality when
    ell - 1 - (b - a) <= a <= ell. The count is therefore ell exactly
    when some edge keeps its layer at layer ell - 1, and such an edge
    exists in every case but the one above (other coordinates 0):
      Case 1, j = 0: along a direction k >= 1 with v_k = 0, from
        x_0 = ell - 1; it needs extent ell >= 2 in direction k;
      Case 1, j >= 1: along direction 0, whose extent is 2 ell, from
        x_j = ell - 1 and x_0 = -v_j (ell - 1);
      Case 2: along direction 1 (for j <= 1 from an even layer numerator
        to the odd one above it), from x_0 = x_1 = ell - 1 for j = 0,
        from x_1 = 2 ell - 2 for j = 1, and from x_0 = x_1 =
        -v_j (ell - 1), x_j = ell - 1 for j >= 2.
    In the remaining case every edge moves the layer v.x by v_k >= 1
    (with ell = 1 no edge runs along a direction k >= 1), and the least
    step, 1, is taken along direction 0 from layer ell - 1 to ell, in
    ell - 1 slabs. The tests keep the member-by-member count as the
    oracle of this formula.
    """
    tight = t.case == 1 and j == 0 and (
        ell == 1 or all(vk >= 1 for vk in t.v))
    return _condition(
        "i", {"j": j, "ell": ell, "L": 2 * ell},
        float(ell - 1 if tight else ell), float(ell))


def verify_condition_iii(family: VolumeFamilySpec, n: int,
                         ell: int) -> dict:
    """Measure ||G_slab E_n|| and compare it with the analytic projection
    bound.

    The ambient volume is member n + 1, inner is member n, and the slab
    is the ambient volume minus member n + 1 - ell. Slab and inner must
    make up the ambient volume: with (N_a, N_b) conserved, only the 9
    sectors with N_a, N_b <= 2 then carry the norm, and in each
    E_n = Q Q^T for an orthonormal Q built from analytic ground vectors
    (see `operators.projection_product_norm`). No 3^N vector is formed;
    the only size limit is fock's 39 sites for base-3 codes, checked
    before any member is built.
    """
    t, j = family.tilt, family.sweep
    # first, so that an ell failing the bound's hypothesis costs nothing
    bound = projection_bound(t, ell, t.margins[j])
    # fock meets the inner volume first and then the ambient one; the
    # slab, ell / n of the inner volume's sites, is never the first over
    for m in (n, n + 1):
        fock.check_site_count(family.member_sites(m))
    ambient = family.member(n + 1)
    inner = family.member(n)
    slab_vol = ambient.difference(family.member(n + 1 - ell))
    if set(slab_vol.sites + inner.sites) != set(ambient.sites):
        raise ComputeError("sweep slab and inner volume do not make up "
                           "the ambient volume")
    measured = operators.projection_product_norm(slab_vol, inner, t.params)
    return _condition("iii", {"j": j, "n": n, "ell": ell}, measured, bound)


def compute_gamma_ell(t: TiltScheme, ell: int,
                      budget: int = DEFAULT_GAMMA_BUDGET):
    """Seed gap on the all-ell volume as `spectra.total_gap`'s record, or,
    when the largest particle sector is over the budget (at most the
    sector cap, so that no seed sector is skipped), the note that leaves
    the seed symbolic. The note names that sector's dimension: the exact
    integer up to STR_DIGITS digits, else its power of ten "10^x.x". The
    volume is climbed to by `spectra.climb` in any d; a sector's dimension
    grows with the site count, so the budget bounds every prefix too."""
    family = sweep_family(t, 0, ell, ell)
    n_sites = family.member_sites(ell)
    budget = min(budget, fock.DEFAULT_SECTOR_CAP)
    # the multinomial n! / (n_a! n_b! n_0!) is largest at the most even
    # split of the sites between a, b and empty
    n_a, n_b = (n_sites + 2) // 3, (n_sites + 1) // 3
    note = ("seed gap left symbolic: largest particle sector exceeds the "
            "eigensolver budget (dimension {})")
    # exact, it takes seconds past a million sites: a digit past the
    # budget and STR_DIGITS, only its power of ten is kept, from
    # log-gammas that err far below the 0.1 shown
    log10 = (math.lgamma(n_sites + 1) - sum(math.lgamma(k + 1) for k in (
        n_a, n_b, n_sites - n_a - n_b))) / math.log(10)
    if log10 > max(STR_DIGITS, math.log10(max(budget, 1))) + 1:
        return note.format(f"10^{log10:.1f}")
    worst = fock.sector_dimension(n_sites, n_a, n_b)
    if worst > budget:
        # Decimal writes an int of any length, whatever the interpreter's
        # int-to-str limit; imported here, off the start-up path
        import decimal
        exact = str(decimal.Decimal(worst))
        return note.format(exact if len(exact) <= STR_DIGITS
                           else f"10^{math.log10(worst):.1f}")
    *_, (_, [seed]) = spectra.climb([t.params], [family.member(ell)],
                                    [n_sites])
    return seed


def _spot_checks(t: TiltScheme, ell: int, j: int):
    """The smallest feasible sweep positions n for a direction-j check."""
    reports, notes = [], []
    family = sweep_family(t, j, ell, SPOT_LEAD)
    for n in range(ell, ell + SPOT_CHECKS):
        sites = family.member_sites(n + 1)
        if sites > fock.MAX_SITES:
            notes.append(
                f"condition (iii) not numerically checkable in direction "
                f"{j} from n = {n}: the ambient volume has {sites} sites, "
                f"over the {fock.MAX_SITES}-site limit of base-3 codes")
            break
        reports.append(verify_condition_iii(family, n, ell))
    return reports, notes


def certify(p: Params, eta: float = DEFAULT_ETA,
            ell_cap: int = DEFAULT_ELL_CAP,
            gamma_budget: int = DEFAULT_GAMMA_BUDGET) -> dict:
    """Run the full certification pipeline for gapped parameters and
    return the certificate: params, tilt, ell (also as d_ell), c_tilde,
    eps_ell, the seed gap gamma_ell, the factor_per_direction, final_bound
    = gamma_ell * factor_per_direction ** d (both "symbolic" when the seed
    is out of budget), the condition records, notes and version."""
    t = select_tilt(p, eta)
    ct = c_tilde(t)
    ell, eps = choose_ell(t, ell_cap)
    d = p.dim

    gamma = compute_gamma_ell(t, ell, gamma_budget)
    factor = (1.0 - eps * math.sqrt(ell)) ** 2 / ell
    notes = []
    if isinstance(gamma, str):
        gamma_val = final = "symbolic"
        notes.append(gamma)
    else:
        gamma_val = gamma["gap"]
        final = gamma_val * factor ** d

    conditions = [verify_condition_i(t, j, ell) for j in range(d)]
    for j in range(d):
        reps, more = _spot_checks(t, ell, j)
        conditions.extend(reps)
        notes.extend(more)
    bad = [c for c in conditions if not c["pass"]]
    if bad:
        raise ComputeError(
            f"certificate invalid: condition {bad[0]['condition']} failed "
            f"with inputs {bad[0]['inputs']}")

    return {"params": p.to_json(), "tilt": t.to_json(), "ell": ell,
            "d_ell": ell, "c_tilde": ct, "eps_ell": eps,
            "gamma_ell": gamma_val, "factor_per_direction": factor,
            "final_bound": final, "conditions": conditions, "notes": notes,
            "version": f"pvbs {_pkg_version}; numpy {numpy.__version__}"}
