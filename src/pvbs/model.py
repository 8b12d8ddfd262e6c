"""Model parameters, gap classification, and certifier constants.

Parameters are carried as exact fractions parsed from decimal strings, so
tests against the gapless manifold (any lambda equal to 1) are exact; all
spectral work downstream converts to float.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .lattice import MAX_DIM

DEFAULT_ETA = 0.05
V_MAX = 8
DEFAULT_ELL_CAP = 64


class ModelError(ValueError):
    pass


class GapClass(str, Enum):
    GAPPED = "gapped"
    GAPLESS = "gapless"
    CONJECTURED_GAPPED = "conjectured_gapped"


def _parse_vec(values) -> tuple[Fraction, ...]:
    out = []
    for v in values:
        if isinstance(v, Fraction):
            f = v
        elif isinstance(v, int):
            f = Fraction(v)
        elif isinstance(v, str):
            f = Fraction(v)
        elif isinstance(v, float) and math.isfinite(v):
            f = Fraction(v).limit_denominator(10**12)
        else:
            raise ModelError(f"cannot parse parameter {v!r}")
        if f <= 0:
            raise ModelError(f"parameters must be strictly positive, got {v}")
        try:
            x = float(f)
        except OverflowError:
            x = math.inf
        # spectral work squares the parameters in double precision
        if x == 0 or not math.isfinite(x * x):
            exponent = math.log10(f.numerator) - math.log10(f.denominator)
            raise ModelError(f"parameter ~1e{exponent:+.0f} is outside "
                             "double range (it must be nonzero and its "
                             "square finite)")
        out.append(f)
    return tuple(out)


@dataclass(frozen=True)
class Params:
    """Two positive parameter vectors, one per particle species."""

    lambda_a: tuple[Fraction, ...]
    lambda_b: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "lambda_a", _parse_vec(self.lambda_a))
        object.__setattr__(self, "lambda_b", _parse_vec(self.lambda_b))
        if len(self.lambda_a) != len(self.lambda_b):
            raise ModelError("lambda_a and lambda_b must have the same dimension")
        if not 1 <= self.dim <= MAX_DIM:
            raise ModelError(f"dimension must be in 1..{MAX_DIM}")

    @property
    def dim(self) -> int:
        return len(self.lambda_a)

    def species(self, s: str) -> tuple[Fraction, ...]:
        if s == "a":
            return self.lambda_a
        if s == "b":
            return self.lambda_b
        raise ModelError(f"unknown species {s!r}")

    def floats(self, s: str) -> tuple[float, ...]:
        return tuple(float(v) for v in self.species(s))

    def to_json(self) -> dict:
        return {
            "lambda_a": [str(v) for v in self.lambda_a],
            "lambda_b": [str(v) for v in self.lambda_b],
        }


def log_lambda(p: Params, species: str) -> tuple[float, ...]:
    """Componentwise log, with exact zero whenever the entry is exactly 1."""
    return tuple(0.0 if v == 1 else math.log(v) for v in p.species(species))


def _is_one_vector(vec: tuple[Fraction, ...]) -> bool:
    return all(v == 1 for v in vec)


def classify_zd(p: Params) -> GapClass:
    """Gapped iff neither species has the all-ones parameter vector."""
    if _is_one_vector(p.lambda_a) or _is_one_vector(p.lambda_b):
        return GapClass.GAPLESS
    return GapClass.GAPPED


def classify_halfspace(p: Params, normal: tuple[float, ...],
                       tol: float = 1e-12) -> GapClass:
    """Half-space {x : m.x >= 0} classification.

    Gapless when some log lambda_s is zero or points along the outward
    normal (a negative multiple of m). The gapped direction is only
    conjectured, so everything else is CONJECTURED_GAPPED.
    """
    if all(abs(c) <= 0 for c in normal):
        raise ModelError("half-space normal must be nonzero")
    mnorm = math.sqrt(sum(c * c for c in normal))
    for s in ("a", "b"):
        ll = log_lambda(p, s)
        if all(v == 0.0 for v in ll):
            return GapClass.GAPLESS
        lnorm = math.sqrt(sum(v * v for v in ll))
        # negative multiple of m: unit vectors opposite to within tol
        if all(abs(v / lnorm + c / mnorm) <= tol for v, c in zip(ll, normal)):
            return GapClass.GAPLESS
    return GapClass.CONJECTURED_GAPPED


DIVERGENT = "divergent"


def c_orthant(p: Params, species: str):
    """Single-particle normalization on the orthant: prod 1/(1-lambda^2).

    Returns the DIVERGENT marker unless every entry is < 1.
    """
    vec = p.species(species)
    if any(v >= 1 for v in vec):
        return DIVERGENT
    out = 1.0
    for v in vec:
        out *= 1.0 / (1.0 - float(v) ** 2)
    return out


def infinite_gs_census(region: str, p: Params) -> set[str]:
    """Ground-state census on Z^d, a half-space, or the positive orthant."""
    region = region.lower()
    if region in ("zd", "halfspace"):
        return {"vacuum"}
    if region != "orthant":
        raise ModelError(f"unknown region {region!r}")
    out = {"vacuum"}
    conv_a = all(v < 1 for v in p.lambda_a)
    conv_b = all(v < 1 for v in p.lambda_b)
    if conv_a:
        out.add("omega_a")
    if conv_b:
        out.add("omega_b")
    if conv_a and conv_b:
        out.add("omega_ab")
    return out


@dataclass(frozen=True)
class TiltScheme:
    """Volume tilt making every normalization a nontrivial geometric product.

    All tilde parameters are exact fractions; v holds the free tilt
    integers (indices >= 1 for Case 1, >= 2 for Case 2, 0-based).
    """

    case: int
    permutation: tuple[int, ...]  # new index -> original coordinate
    v: tuple[int, ...]
    lambda_tilde_a: tuple[Fraction, ...]
    lambda_tilde_b: tuple[Fraction, ...]
    kappa_a: float
    kappa_b: float
    kappa_d: float  # diagonal-term prefactor

    @property
    def dim(self) -> int:
        return len(self.lambda_tilde_a)

    def tilde(self, s: str) -> tuple[Fraction, ...]:
        return self.lambda_tilde_a if s == "a" else self.lambda_tilde_b

    def kappa(self, s: str) -> float:
        return self.kappa_a if s == "a" else self.kappa_b

    def log_tilde(self, s: str) -> tuple[float, ...]:
        return tuple(math.log(v) for v in self.tilde(s))

    @property
    def min_log(self) -> float:
        return min(
            abs(math.log(v))
            for vec in (self.lambda_tilde_a, self.lambda_tilde_b)
            for v in vec
        )

    def min_log_direction(self, j: int) -> float:
        return min(abs(math.log(self.lambda_tilde_a[j])),
                   abs(math.log(self.lambda_tilde_b[j])))

    def to_json(self) -> dict:
        return {
            "case": self.case,
            "permutation": list(self.permutation),
            "v": list(self.v),
            "lambda_tilde_a": [str(x) for x in self.lambda_tilde_a],
            "lambda_tilde_b": [str(x) for x in self.lambda_tilde_b],
            "kappa_a": self.kappa_a,
            "kappa_b": self.kappa_b,
        }


def _margin(x: Fraction, eta: float) -> bool:
    return x != 1 and abs(math.log(x)) >= eta


def _pick_v(la: Fraction, lb: Fraction, base_a: Fraction, base_b: Fraction,
            eta: float):
    """Smallest v in 0..V_MAX with both tilted parameters off the margin."""
    for v in range(V_MAX + 1):
        ta = la * base_a ** -v
        tb = lb * base_b ** -v
        if _margin(ta, eta) and _margin(tb, eta):
            return v, ta, tb
    raise ModelError(
        "parameters too close to gapless manifold: no tilt integer "
        f"<= {V_MAX} achieves margin eta={eta}")


def select_tilt(p: Params, eta: float = DEFAULT_ETA) -> TiltScheme:
    """Choose a Case-1 or Case-2 tilt scheme for gapped parameters."""
    if classify_zd(p) is not GapClass.GAPPED:
        raise ModelError("tilt selection requires gapped parameters")
    d = p.dim
    la, lb = p.lambda_a, p.lambda_b

    shared = [j for j in range(d) if la[j] != 1 and lb[j] != 1]
    if shared:
        # Case 1: put the best shared coordinate first
        lead = max(shared, key=lambda j: min(abs(math.log(la[j])),
                                             abs(math.log(lb[j]))))
        if min(abs(math.log(la[lead])), abs(math.log(lb[lead]))) < eta:
            raise ModelError(
                "parameters too close to gapless manifold: leading "
                f"coordinate margin below eta={eta}")
        perm = (lead,) + tuple(j for j in range(d) if j != lead)
        pa = [la[j] for j in perm]
        pb = [lb[j] for j in perm]
        vs, ta, tb = [], [pa[0]], [pb[0]]
        for j in range(1, d):
            v, a, b = _pick_v(pa[j], pb[j], pa[0], pb[0], eta)
            vs.append(v)
            ta.append(a)
            tb.append(b)
        return TiltScheme(1, perm, tuple(vs), tuple(ta), tuple(tb),
                          kappa_a=1.0, kappa_b=1.0, kappa_d=1.0)

    # Case 2: lambda_a and lambda_b are never jointly != 1 on a coordinate
    a_free = [j for j in range(d) if la[j] != 1]
    b_free = [j for j in range(d) if lb[j] != 1]
    lead_a = max(a_free, key=lambda j: abs(math.log(la[j])))
    lead_b = max(b_free, key=lambda j: abs(math.log(lb[j])))
    if abs(math.log(la[lead_a])) < eta or abs(math.log(lb[lead_b])) < eta:
        raise ModelError(
            "parameters too close to gapless manifold: Case-2 leading "
            f"margins below eta={eta}")
    perm = (lead_a, lead_b) + tuple(
        j for j in range(d) if j not in (lead_a, lead_b))
    pa = [la[j] for j in perm]
    pb = [lb[j] for j in perm]
    # after permutation: pa[0] != 1, pb[1] != 1, pa[1] = pb[0] = 1
    ta = [pa[0] * pa[1], pa[0] ** -1 * pa[1]]
    tb = [pb[0] * pb[1], pb[0] ** -1 * pb[1]]
    if not all(_margin(x, eta) for x in (*ta, *tb)):
        raise ModelError(
            "parameters too close to gapless manifold: Case-2 tilde "
            f"margins below eta={eta}")
    vs = []
    for j in range(2, d):
        v, a, b = _pick_v(pa[j], pb[j], ta[0], tb[0], eta)
        vs.append(v)
        ta.append(a)
        tb.append(b)
    return TiltScheme(
        2, perm, tuple(vs), tuple(ta), tuple(tb),
        kappa_a=1.0 + float(pa[1]) ** 2,
        kappa_b=1.0 + float(pb[1]) ** 2,
        kappa_d=1.0 + float(pa[1] * pb[1]) ** 2,
    )


def c_tilde(t: TiltScheme) -> float:
    """Product-bound constant 1 / (1 - prod_j 1/(1 + x_j)) with
    x_j = exp(-2 min_s |log lambda~_s,j|); always > 1. 1 - prod is taken
    as -expm1(-sum log1p(x_j)), accurate even for x_j below double
    epsilon; ModelError when c~^(3/2), which the bounds take, overflows."""
    x = [math.exp(-2.0 * min(abs(math.log(a)), abs(math.log(b))))
         for a, b in zip(t.lambda_tilde_a, t.lambda_tilde_b)]
    one_minus_prod = -math.expm1(-math.fsum(math.log1p(v) for v in x))
    if one_minus_prod < sys.float_info.max ** (-2.0 / 3.0):
        raise ModelError(f"c~ = 1/{one_minus_prod:.3g} is outside double "
                         "range: the parameters are too far from 1")
    return 1.0 / one_minus_prod


def epsilon_ell(t: TiltScheme, ell: int) -> float:
    """Projection-product bound sqrt(60 l) c~^(3/2) exp(-(l-2) min|log|)."""
    if ell < 3:
        raise ModelError("epsilon_ell needs ell >= 3")
    ct = c_tilde(t)
    return math.sqrt(60.0 * ell) * ct ** 1.5 * math.exp(-(ell - 2) * t.min_log)


def choose_ell(t: TiltScheme, cap: int = DEFAULT_ELL_CAP) -> tuple[int, float]:
    """Smallest slab width satisfying connectivity, the projection-bound
    hypothesis, and eps_ell < 1/sqrt(ell)."""
    vmax = max(t.v) if t.v else 0
    mlog = t.min_log
    for ell in range(3, cap + 1):
        if ell < vmax + 1:
            continue
        if not (ell - 2) * mlog > 1.0:
            continue
        eps = epsilon_ell(t, ell)
        if eps < 1.0 / math.sqrt(ell):
            return ell, eps
    raise ModelError(
        f"certificate infeasible at this margin: no ell <= {cap} satisfies "
        "the martingale conditions")
