"""Closed-form engine: ground-state vectors, normalization constants,
and the bound evaluators behind the gap certifier.

Normalization sums are products of geometric sums, each factored by its
largest term, so they survive the dynamic range of lambda^(2x) on big
tilted volumes.
"""

from __future__ import annotations

import math

import numpy as np

from . import InputError, fock
from .lattice import VolumeFamilySpec
from .model import Params, c_tilde


# the particle-number sectors that carry the four ground states
GROUND_SECTORS = ((0, 0), (1, 0), (0, 1), (1, 1))


def _log_power(lam: tuple[float, ...], x) -> float:
    return sum(xj * math.log(lj) for xj, lj in zip(x, lam))


def geometric_sum(ratio: float, lo: int, hi: int) -> float:
    """sum_{x=lo}^{hi-1} ratio^(2x), stable for ratio above or below 1.

    InputError when the sum is outside double range."""
    if hi <= lo:
        return 0.0
    n = hi - lo
    r2 = ratio * ratio
    try:
        if ratio == 1.0:
            inner = float(n)
        elif ratio < 1.0:
            inner = (1.0 - r2 ** n) / (1.0 - r2)
        else:
            # factor the top term so nothing overflows before it must
            inner = r2 ** (n - 1) * (1.0 - r2 ** -n) / (1.0 - r2 ** -1)
        value = r2 ** lo * inner
    except OverflowError:
        value = math.inf
    if not 0.0 < value < math.inf:
        raise InputError(
            f"sum of {ratio:.3g}^(2x) over {lo} <= x < {hi} is outside "
            f"double range")
    return value


def normalization_closed_form(family: VolumeFamilySpec, lo: int,
                              hi: int) -> dict[str, float]:
    """Geometric-product form of the normalization constants of the slab
    Lambda_hi \\ Lambda_lo of `family`, for 0 <= lo <= hi, keyed by
    species: {"a": C_a, "b": C_b, "ab": C_a C_b - D, "d": D}.

    The sweep-direction factor runs lo..hi-1; all others run over the
    full extent. Agrees with the direct sum over the sites of the slab
    volume, in the tilt's parameters `family.tilt.params`.
    """
    t = family.tilt
    ta = [float(x) for x in t.lambda_tilde_a]
    tb = [float(x) for x in t.lambda_tilde_b]
    c_a, c_b, d_diag = t.kappa_a, t.kappa_b, t.kappa_d
    for j in range(t.dim):
        cut = (lo, hi) if j == family.sweep else (0, family.extents[j])
        c_a *= geometric_sum(ta[j], *cut)
        c_b *= geometric_sum(tb[j], *cut)
        d_diag *= geometric_sum(ta[j] * tb[j], *cut)
    return {"a": c_a, "b": c_b, "ab": c_a * c_b - d_diag, "d": d_diag}


def ground_state_vector(p: Params, basis: fock.SectorBasis) -> np.ndarray:
    """Unit ground vector of the sector of `basis`, one of GROUND_SECTORS,
    on its volume, which must be connected."""
    v = basis.volume
    if not v.connected:
        raise InputError("ground states are only defined on connected volumes")
    if (basis.n_a, basis.n_b) not in GROUND_SECTORS:
        raise InputError(f"basis sector {basis.n_a, basis.n_b} holds no "
                         f"ground state")
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


# --- lemma evaluators -----------------------------------------------------


def _check(name: str, lhs: float, rhs: float) -> dict:
    """The record of the inequality lhs <= rhs, which passes up to a
    relative 1e-10; its slack is rhs - lhs."""
    return {"name": name, "lhs": lhs, "rhs": rhs,
            "pass": lhs <= rhs * (1.0 + 1e-10), "slack": rhs - lhs}


def check_product_bounds(family: VolumeFamilySpec, lo: int,
                         hi: int) -> list[dict]:
    """C(ab) <= C(a)C(b) <= c~ C(ab) on the slab Lambda_hi \\ Lambda_lo
    of `family`."""
    if hi - lo < 2:
        raise InputError("product bounds need slab length >= 2")
    c = normalization_closed_form(family, lo, hi)
    ct = c_tilde(family.tilt)
    return [
        _check("product_upper", c["ab"], c["a"] * c["b"]),
        _check("product_lower", c["a"] * c["b"], ct * c["ab"]),
    ]


def check_diagonal_bound(family: VolumeFamilySpec, lo: int,
                         hi: int) -> dict:
    """D/(C_a C_b) <= (hi-lo) exp(-2(hi-lo-1) min|log tilde|) on the slab
    Lambda_hi \\ Lambda_lo of `family`.

    Requires opposite signs of log tilde in the sweep direction.
    """
    t, j = family.tilt, family.sweep
    loga = math.log(t.lambda_tilde_a[j])
    logb = math.log(t.lambda_tilde_b[j])
    if loga * logb >= 0:
        raise InputError("diagonal bound needs opposite-sign log parameters")
    if hi <= lo:
        raise InputError("diagonal bound needs hi > lo")
    c = normalization_closed_form(family, lo, hi)
    lhs = c["d"] / (c["a"] * c["b"])
    rhs = (hi - lo) * math.exp(-2.0 * (hi - lo - 1) * t.margins[j])
    return _check("diagonal", lhs, rhs)


def check_ratio_bounds(family: VolumeFamilySpec, n: int,
                       ell: int) -> list[dict]:
    """The eight normalization-ratio inequalities of `family` at sweep
    position n and slab width ell.

    Exponent conventions: growing parameters get 4R1 <= e^(-2(l-1)|log|),
    4R3 <= tilde^2, 4R2/4R4 <= 1; shrinking parameters get 4L2 with the
    same exponential, 4L3 <= e^(-2n|log|), 4L1/4L4 <= 1.
    """
    if not n >= ell >= 2:
        raise InputError("ratio bounds need n >= ell >= 2")
    t, j = family.tilt, family.sweep
    out = []
    for s in ("a", "b"):
        lam = float(t.tilde(s)[j])
        alog = abs(math.log(lam))

        def c(hi, lo=0):
            return normalization_closed_form(family, lo, hi)[s]

        decay = math.exp(-2.0 * (ell - 1) * alog)
        if lam > 1:
            out.extend([
                _check(f"4R1[{s}]", c(n + 1 - ell) / c(n), decay),
                _check(f"4R2[{s}]", c(n + 1, n) / c(n + 1, n + 1 - ell), 1.0),
                _check(f"4R3[{s}]", c(n + 1, n) / c(n), lam ** 2),
                _check(f"4R4[{s}]", c(n, n + 1 - ell) / c(n), 1.0),
            ])
        else:
            out.extend([
                _check(f"4L1[{s}]", c(n + 1 - ell) / c(n), 1.0),
                _check(f"4L2[{s}]", c(n + 1, n) / c(n + 1, n + 1 - ell), decay),
                _check(f"4L3[{s}]", c(n + 1, n) / c(n),
                       math.exp(-2.0 * n * alog)),
                _check(f"4L4[{s}]", c(n, n + 1 - ell) / c(n), 1.0),
            ])
    return out

