"""Closed-form engine: ground-state vectors, normalization constants,
trial-state energies, and the bound evaluators behind the gap certifier.

All normalization sums factor out the largest exponent before summing, so
they survive the dynamic range of lambda^(2x) on big tilted volumes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fock
from .lattice import Volume, VolumeFamilySpec, boundary_edges, is_connected
from .model import Params, TiltScheme, c_tilde


# the particle-number sectors that carry the four ground states
GROUND_SECTORS = {(0, 0): "vac", (1, 0): "a", (0, 1): "b", (1, 1): "ab"}


class AnalyticError(ValueError):
    pass


def lambda_power(p: Params, species: str, x) -> float:
    """lambda_s^x = exp(x . log lambda_s)."""
    expo = _log_power(p.floats(species), x)
    if expo > 700.0:
        raise AnalyticError(
            "lambda^x overflows double precision; use log-space quantities")
    return math.exp(expo)


def _log_power(lam: tuple[float, ...], x) -> float:
    return sum(xj * math.log(lj) for xj, lj in zip(x, lam))


def _stable_sum_exp(exponents) -> float:
    """sum of exp(e) over exponents, factored by the maximum."""
    exponents = list(exponents)
    if not exponents:
        return 0.0
    m = max(exponents)
    return _in_double_range(
        lambda: math.exp(m) * sum(math.exp(e - m) for e in exponents),
        "normalization sum")


def _in_double_range(compute, what: str) -> float:
    """compute(), a positive sum, or AnalyticError when it overflows or
    underflows to 0 in double precision."""
    try:
        value = compute()
    except OverflowError:
        value = math.inf
    if not 0.0 < value < math.inf:
        raise AnalyticError(f"{what} is outside double range")
    return value


@dataclass(frozen=True)
class NormalizationSet:
    c_a: float
    c_b: float
    d_diag: float
    c_ab: float

    def c(self, s: str) -> float:
        return {"a": self.c_a, "b": self.c_b, "ab": self.c_ab}[s]


def _norm_from_parts(c_a: float, c_b: float, d_diag: float) -> NormalizationSet:
    return NormalizationSet(c_a, c_b, d_diag, c_a * c_b - d_diag)


def normalization_direct(v: Volume, p: Params) -> NormalizationSet:
    """C(v, s) and D(v) by direct summation over sites."""
    if len(v) < 1:
        raise AnalyticError("normalization of the empty volume is undefined")
    la = p.floats("a")
    lb = p.floats("b")
    ea = [2.0 * _log_power(la, x) for x in v.sites]
    eb = [2.0 * _log_power(lb, x) for x in v.sites]
    c_a = _stable_sum_exp(ea)
    c_b = _stable_sum_exp(eb)
    d = _stable_sum_exp([x + y for x, y in zip(ea, eb)])
    return _norm_from_parts(c_a, c_b, d)


def geometric_sum(ratio: float, lo: int, hi: int) -> float:
    """sum_{x=lo}^{hi-1} ratio^(2x), stable for ratio above or below 1.

    AnalyticError when the sum is outside double range."""
    if hi <= lo:
        return 0.0
    n = hi - lo
    r2 = ratio * ratio

    def compute():
        if ratio == 1.0:
            inner = float(n)
        elif ratio < 1.0:
            inner = (1.0 - r2 ** n) / (1.0 - r2)
        else:
            # factor the top term so nothing overflows before it must
            inner = r2 ** (n - 1) * (1.0 - r2 ** -n) / (1.0 - r2 ** -1)
        return r2 ** lo * inner

    return _in_double_range(
        compute, f"sum of {ratio:.3g}^(2x) over {lo} <= x < {hi}")


def normalization_closed_form(t: TiltScheme, spec: VolumeFamilySpec) -> NormalizationSet:
    """Geometric-product form of the slab normalization constants.

    The sweep-direction factor runs m..n-1; all others run over the full
    extent. Agrees with normalization_direct on the slab volume.
    """
    if t is not spec.tilt and t != spec.tilt:
        raise AnalyticError("tilt scheme does not match the family spec")
    d = t.dim
    ta = [float(x) for x in t.lambda_tilde_a]
    tb = [float(x) for x in t.lambda_tilde_b]
    c_a, c_b, d_diag = t.kappa_a, t.kappa_b, t.kappa_d
    for j in range(d):
        lo, hi = (spec.lower_cut, spec.upper_cut) if j == spec.sweep \
            else (0, spec.extents[j])
        c_a *= geometric_sum(ta[j], lo, hi)
        c_b *= geometric_sum(tb[j], lo, hi)
        d_diag *= geometric_sum(ta[j] * tb[j], lo, hi)
    return _norm_from_parts(c_a, c_b, d_diag)


def ground_state_vector(v: Volume, p: Params, which: str,
                        basis: fock.SectorBasis) -> np.ndarray:
    """Unit ground vector of the (vac|a|b|ab) sector on a connected volume."""
    if not is_connected(v):
        raise AnalyticError("ground states are only defined on connected volumes")
    if GROUND_SECTORS.get((basis.n_a, basis.n_b)) != which:
        raise AnalyticError(f"basis sector {basis.n_a, basis.n_b} does not "
                            f"match ground state {which!r}")
    la = p.floats("a")
    lb = p.floats("b")
    # log amplitude contributed by each site, indexed by its digit
    weights = np.array([(0.0, _log_power(la, x), _log_power(lb, x))
                        for x in v.sites])
    log_amp = np.zeros(basis.dim)
    for w, dig in zip(weights, fock.digits(basis.states, range(len(v)))):
        log_amp += w[dig]
    log_amp -= log_amp.max()
    vec = np.exp(log_amp)
    return vec / np.linalg.norm(vec)


def trial_state_energy(inner: Volume, ambient: Volume, p: Params,
                       species: str) -> float:
    """Closed-form Rayleigh quotient of Psi_s^inner (x) vacuum in H^ambient.

    Only edges crossing the inner boundary contribute; each edge with the
    particle at x costs lambda^(2x) times the local projector weight.
    """
    if not inner.issubset(ambient) or len(inner) == len(ambient):
        raise AnalyticError("inner must be strictly contained in ambient")
    if not is_connected(inner):
        raise AnalyticError("inner volume must be connected")
    lam = p.floats(species)
    c = normalization_direct(inner, p).c(species)
    total = 0.0
    for e in boundary_edges(inner, ambient):
        j = e.direction
        w = lam[j] ** 2
        if e.base in inner:
            # particle at e.base, hopping weight lambda^2/(1+lambda^2)
            total += math.exp(2.0 * _log_power(lam, e.base)) * w / (1.0 + w)
        else:
            total += math.exp(2.0 * _log_power(lam, e.head)) / (1.0 + w)
    return total / c


# --- lemma evaluators -----------------------------------------------------


@dataclass(frozen=True)
class BoundReport:
    name: str
    lhs: float
    rhs: float

    @property
    def passed(self) -> bool:
        return self.lhs <= self.rhs * (1.0 + 1e-10)

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs

    def to_json(self) -> dict:
        return {"name": self.name, "lhs": self.lhs, "rhs": self.rhs,
                "pass": self.passed, "slack": self.slack}


def check_product_bounds(t: TiltScheme, spec: VolumeFamilySpec) -> list[BoundReport]:
    """C(ab) <= C(a)C(b) <= c~ C(ab) on the given slab."""
    if spec.upper_cut - spec.lower_cut < 2:
        raise AnalyticError("product bounds need slab length >= 2")
    ns = normalization_closed_form(t, spec)
    ct = c_tilde(t)
    return [
        BoundReport("product_upper", ns.c_ab, ns.c_a * ns.c_b),
        BoundReport("product_lower", ns.c_a * ns.c_b, ct * ns.c_ab),
    ]


def check_diagonal_bound(t: TiltScheme, spec: VolumeFamilySpec) -> BoundReport:
    """D/(C_a C_b) <= (n-m) exp(-2(n-m-1) min|log tilde|) on the slab.

    Requires opposite signs of log tilde in the sweep direction.
    """
    j = spec.sweep
    loga = math.log(t.lambda_tilde_a[j])
    logb = math.log(t.lambda_tilde_b[j])
    if loga * logb >= 0:
        raise AnalyticError("diagonal bound needs opposite-sign log parameters")
    n, m = spec.upper_cut, spec.lower_cut
    if n <= m:
        raise AnalyticError("diagonal bound needs n > m")
    ns = normalization_closed_form(t, spec)
    lhs = ns.d_diag / (ns.c_a * ns.c_b)
    rhs = (n - m) * math.exp(-2.0 * (n - m - 1) * min(abs(loga), abs(logb)))
    return BoundReport("diagonal", lhs, rhs)


def check_ratio_bounds(t: TiltScheme, extents, j: int, n: int,
                       ell: int) -> list[BoundReport]:
    """The eight normalization-ratio inequalities along sweep direction j.

    Exponent conventions: growing parameters get 4R1 <= e^(-2(l-1)|log|),
    4R3 <= tilde^2, 4R2/4R4 <= 1; shrinking parameters get 4L2 with the
    same exponential, 4L3 <= e^(-2n|log|), 4L1/4L4 <= 1.
    """
    if not n >= ell >= 2:
        raise AnalyticError("ratio bounds need n >= ell >= 2")
    out = []
    for s in ("a", "b"):
        lam = float(t.tilde(s)[j])
        alog = abs(math.log(lam))

        def c(hi, lo=0):
            spec = VolumeFamilySpec(t, tuple(extents), j, hi, lo)
            return normalization_closed_form(t, spec).c(s)

        decay = math.exp(-2.0 * (ell - 1) * alog)
        if lam > 1:
            out.extend([
                BoundReport(f"4R1[{s}]", c(n + 1 - ell) / c(n), decay),
                BoundReport(f"4R2[{s}]", c(n + 1, n) / c(n + 1, n + 1 - ell), 1.0),
                BoundReport(f"4R3[{s}]", c(n + 1, n) / c(n), lam ** 2),
                BoundReport(f"4R4[{s}]", c(n, n + 1 - ell) / c(n), 1.0),
            ])
        else:
            out.extend([
                BoundReport(f"4L1[{s}]", c(n + 1 - ell) / c(n), 1.0),
                BoundReport(f"4L2[{s}]", c(n + 1, n) / c(n + 1, n + 1 - ell), decay),
                BoundReport(f"4L3[{s}]", c(n + 1, n) / c(n),
                            math.exp(-2.0 * n * alog)),
                BoundReport(f"4L4[{s}]", c(n, n + 1 - ell) / c(n), 1.0),
            ])
    return out


def lemma1_bound(t: TiltScheme, ell: int, j: int) -> float:
    """Analytic bound on ||G_slab E_n|| for sweep direction j."""
    mlog = t.min_log_direction(j)
    if not (ell - 2) * mlog > 1.0:
        raise AnalyticError("projection bound needs (ell-2) min|log| > 1")
    ct = c_tilde(t)
    return math.sqrt(60.0 * ell) * ct ** 1.5 * math.exp(-(ell - 2) * mlog)
