"""Model parameters, gap classification, and certifier constants.

Parameters are carried as exact fractions parsed from decimal strings, so
tests against the gapless manifold (any lambda equal to 1) are exact; all
spectral work downstream converts to float.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import ComputeError, InputError
from .lattice import MAX_DIM

DEFAULT_ETA = 0.05
V_MAX = 8
DEFAULT_ELL_CAP = 64


# the exponent of a decimal such as 2.5e-3, where Fraction reads it
_EXPONENT = re.compile(r"e[-+]?([\d_]+)\s*\Z", re.IGNORECASE)


def _far_outside_double_range(text: str) -> bool:
    """Whether the exponent written in `text` puts it beyond 1e+-1000
    whatever its mantissa, which moves it by fewer decades than the text
    has characters. Read from the text: Fraction("1e<k>") builds 10**k."""
    written = _EXPONENT.search(text)
    # ten digits exceed any text's length; int() reads at most 4300
    digits = written[1].replace("_", "").lstrip("0")[:10] if written else ""
    return int(digits or "0") > len(text) + 1000


def _parse_vec(values) -> tuple[Fraction, ...]:
    out = []
    for v in values:
        if isinstance(v, Fraction):
            f = v
        elif isinstance(v, str):
            if _far_outside_double_range(v):
                raise InputError("parameter's written exponent puts it far "
                                 "outside double range")
            try:
                f = Fraction(v)
            except (ValueError, ZeroDivisionError) as exc:
                raise InputError(f"cannot parse parameter {v!r}") from exc
        else:
            raise InputError(f"cannot parse parameter {v!r}")
        if f <= 0:
            raise InputError(f"parameters must be strictly positive, got {v}")
        try:
            x = float(f)
        except OverflowError:
            x = math.inf
        # spectral work squares the parameters in double precision
        if x == 0 or not math.isfinite(x * x):
            exponent = math.log10(f.numerator) - math.log10(f.denominator)
            raise InputError(f"parameter ~1e{exponent:+.0f} is outside "
                             "double range (it must be nonzero and its "
                             "square finite)")
        out.append(f)
    return tuple(out)


@dataclass(frozen=True)
class Params:
    """Two positive parameter vectors, one per particle species, each
    entry a decimal string or a Fraction."""

    lambda_a: tuple[Fraction, ...]
    lambda_b: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "lambda_a", _parse_vec(self.lambda_a))
        object.__setattr__(self, "lambda_b", _parse_vec(self.lambda_b))
        if len(self.lambda_a) != len(self.lambda_b):
            raise InputError("lambda_a and lambda_b must have the same dimension")
        if not 1 <= self.dim <= MAX_DIM:
            raise InputError(f"dimension must be in 1..{MAX_DIM}")

    @property
    def dim(self) -> int:
        return len(self.lambda_a)

    def species(self, s: str) -> tuple[Fraction, ...]:
        if s == "a":
            return self.lambda_a
        if s == "b":
            return self.lambda_b
        raise InputError(f"unknown species {s!r}")

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


def classify_zd(p: Params) -> str:
    """What `pvbs classify` prints: "gapped" iff neither species has the
    all-ones parameter vector, else "gapless"."""
    if _is_one_vector(p.lambda_a) or _is_one_vector(p.lambda_b):
        return "gapless"
    return "gapped"


DIVERGENT = "divergent"


def c_orthant(p: Params, species: str):
    """Single-particle normalization on the orthant: prod 1/(1-lambda^2),
    taken in exact fractions, since lambda just below 1 rounds to 1.0 in
    double precision; InputError when the product is outside double
    range.

    Returns the DIVERGENT marker unless every entry is < 1.
    """
    vec = p.species(species)
    if any(v >= 1 for v in vec):
        return DIVERGENT
    try:
        return float(math.prod(1 / (1 - v * v) for v in vec))
    except OverflowError:
        raise InputError(f"orthant constant of species {species} is "
                         "outside double range") from None


def infinite_gs_census(region: str, p: Params) -> set[str]:
    """Ground-state census on Z^d or the positive orthant."""
    region = region.lower()
    if region == "zd":
        return {"vacuum"}
    if region != "orthant":
        raise InputError(f"unknown region {region!r}")
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
    integers (indices >= 1 for Case 1, >= 2 for Case 2, 0-based). params
    holds the model's parameters in the tilt's coordinate order, in which
    coordinate k is the original coordinate permutation[k]; every volume
    built from the tilt is in that order too.
    """

    case: int
    permutation: tuple[int, ...]  # new index -> original coordinate
    v: tuple[int, ...]
    lambda_tilde_a: tuple[Fraction, ...]
    lambda_tilde_b: tuple[Fraction, ...]
    kappa_a: float
    kappa_b: float
    kappa_d: float  # diagonal-term prefactor
    params: Params

    @property
    def dim(self) -> int:
        return len(self.lambda_tilde_a)

    def tilde(self, s: str) -> tuple[Fraction, ...]:
        return self.lambda_tilde_a if s == "a" else self.lambda_tilde_b

    def log_tilde(self, s: str) -> tuple[float, ...]:
        return tuple(math.log(v) for v in self.tilde(s))

    @property
    def margins(self) -> tuple[float, ...]:
        """min_s |log lambda~_s,j| for each direction j."""
        return tuple(min(abs(math.log(a)), abs(math.log(b)))
                     for a, b in zip(self.lambda_tilde_a, self.lambda_tilde_b))

    @property
    def min_log(self) -> float:
        return min(self.margins)

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
    raise ComputeError(
        "parameters too close to gapless manifold: no tilt integer "
        f"<= {V_MAX} achieves margin eta={eta}")


def select_tilt(p: Params, eta: float = DEFAULT_ETA) -> TiltScheme:
    """Choose a Case-1 or Case-2 tilt scheme for gapped parameters. The
    cases differ only in their leading coordinates, tildes and kappas."""
    if classify_zd(p) != "gapped":
        raise InputError("tilt selection requires gapped parameters")
    d = p.dim
    la, lb = p.lambda_a, p.lambda_b

    shared = [j for j in range(d) if la[j] != 1 and lb[j] != 1]
    if shared:
        # Case 1: put the best shared coordinate first
        lead = max(shared, key=lambda j: min(abs(math.log(la[j])),
                                             abs(math.log(lb[j]))))
        if min(abs(math.log(la[lead])), abs(math.log(lb[lead]))) < eta:
            raise ComputeError(
                "parameters too close to gapless manifold: leading "
                f"coordinate margin below eta={eta}")
        case, leads = 1, (lead,)
        ta, tb = [la[lead]], [lb[lead]]
        kappas = (1.0, 1.0, 1.0)
    else:
        # Case 2: no coordinate has both lambda_a and lambda_b != 1
        a_free = [j for j in range(d) if la[j] != 1]
        b_free = [j for j in range(d) if lb[j] != 1]
        lead_a = max(a_free, key=lambda j: abs(math.log(la[j])))
        lead_b = max(b_free, key=lambda j: abs(math.log(lb[j])))
        if (abs(math.log(la[lead_a])) < eta
                or abs(math.log(lb[lead_b])) < eta):
            raise ComputeError(
                "parameters too close to gapless manifold: Case-2 leading "
                f"margins below eta={eta}")
        case, leads = 2, (lead_a, lead_b)
        # the weights on the two leads: a1 = b0 = 1, so the tilde
        # parameters are a0^(+-1) and b1, whose margins are the leading
        # margins just checked
        a0, a1, b0, b1 = la[lead_a], la[lead_b], lb[lead_a], lb[lead_b]
        ta = [a0 * a1, a0 ** -1 * a1]
        tb = [b0 * b1, b0 ** -1 * b1]
        kappas = (1.0 + float(a1) ** 2, 1.0 + float(b1) ** 2,
                  1.0 + float(a1 * b1) ** 2)
    perm = leads + tuple(j for j in range(d) if j not in leads)
    pa = [la[j] for j in perm]
    pb = [lb[j] for j in perm]
    vs = []
    for j in range(case, d):
        v, a, b = _pick_v(pa[j], pb[j], ta[0], tb[0], eta)
        vs.append(v)
        ta.append(a)
        tb.append(b)
    return TiltScheme(case, perm, tuple(vs), tuple(ta), tuple(tb), *kappas,
                      params=Params(tuple(pa), tuple(pb)))


def c_tilde(t: TiltScheme) -> float:
    """Product-bound constant 1 / (1 - prod_j 1/(1 + x_j)) with
    x_j = exp(-2 min_s |log lambda~_s,j|); always > 1. 1 - prod is taken
    as -expm1(-sum log1p(x_j)), accurate even for x_j below double
    epsilon; InputError when c~^(3/2), which the bounds take, overflows."""
    x = [math.exp(-2.0 * m) for m in t.margins]
    one_minus_prod = -math.expm1(-math.fsum(math.log1p(v) for v in x))
    if one_minus_prod < sys.float_info.max ** (-2.0 / 3.0):
        raise InputError(f"c~ = 1/{one_minus_prod:.3g} is outside double "
                         "range: the parameters are too far from 1")
    return 1.0 / one_minus_prod


def projection_bound(t: TiltScheme, ell: int, margin: float) -> float:
    """The projection-product bound sqrt(60 l) c~^(3/2) exp(-(l-2) margin)
    on ||G_slab E_n|| at slab width l, for `margin` one of t.margins (or
    their minimum, t.min_log, for every direction at once). ComputeError
    unless its hypothesis (l-2) margin > 1 holds.

    Taken as the exponential of the sum of the logs: for strong weights
    c~^(3/2) is huge and the last factor underflows on its own, though the
    product is in range. The sum cannot overflow: c~ <= 1 + exp(2 margin)
    and c_tilde caps c~^(3/2) at double range, so it stays below about
    500."""
    if not (ell - 2) * margin > 1.0:
        raise ComputeError("projection bound needs (ell-2) min|log| > 1")
    return math.exp(0.5 * math.log(60.0 * ell) + 1.5 * math.log(c_tilde(t))
                    - (ell - 2) * margin)


def choose_ell(t: TiltScheme, cap: int = DEFAULT_ELL_CAP) -> tuple[int, float]:
    """Smallest slab width satisfying connectivity, the projection-bound
    hypothesis, and eps_ell < 1/sqrt(ell)."""
    vmax = max(t.v) if t.v else 0
    for ell in range(max(3, vmax + 1), cap + 1):
        try:
            eps = projection_bound(t, ell, t.min_log)
        except ComputeError:
            continue
        if eps < 1.0 / math.sqrt(ell):
            return ell, eps
    raise ComputeError(
        f"certificate infeasible at this margin: no ell <= {cap} satisfies "
        "the martingale conditions")
