"""Combining p-values from independent subtests.

Two families live here:

* ``combine_stable`` — map each p-value through the quantile function of an
  alpha-stable law, average, and read the combined p-value off the CDF of the
  averaged law (closed under averaging, so the null is exact for any K).
* ``combine_classical`` — the usual meta-analysis combiners (Tippett,
  Edgington, Fisher, Pearson, Mudholkar-George, Stouffer, Liptak), each with
  its exact null distribution.

All combiners are normalized so that *small* combined p-values are evidence
against the null, regardless of the natural direction of the underlying
statistic.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.special import chdtr, chdtrc, ndtr, ndtri, stdtr

from .errors import ConfigError, DataError
from .stable import StableParams, aggregate_params, stable_cdf, stable_quantile

__all__ = [
    "CombinedResult",
    "CLASSICAL_METHODS",
    "clamp_pvalues",
    "combine_classical",
    "combine_stable",
]

CLASSICAL_METHODS = (
    "tippett",
    "edgington",
    "fisher",
    "pearson",
    "mudholkar",
    "stouffer",
    "liptak",
)

_EDGINGTON_EXACT_MAX_K = 30


@dataclass(frozen=True)
class CombinedResult:
    """Outcome of a p-value combination."""

    statistic: float
    p_combined: float
    method: str
    K: int


def _as_pvector(pvals):
    """Validate a sequence of p-values: 1-D, length >= 1, entries in (0,1).

    Entries are returned sorted so that floating-point summation order, and
    hence every combined p-value, is exactly invariant under permutation of
    the input.
    """
    p = np.atleast_1d(np.asarray(pvals, dtype=float))
    if p.ndim != 1 or p.size < 1:
        raise DataError("expected a non-empty 1-D sequence of p-values")
    if not np.all(np.isfinite(p)):
        raise DataError("p-values must be finite")
    if np.any(p <= 0.0) or np.any(p >= 1.0):
        bad = p[(p <= 0.0) | (p >= 1.0)]
        raise DataError(
            f"p-values must lie strictly inside (0, 1); got {bad[:5].tolist()} "
            "(clamp_pvalues can enforce this)"
        )
    return np.sort(p)


def clamp_pvalues(pvals, epsilon=1e-12, jitter_seed=None, permutations=None):
    """Clip p-values into [epsilon, 1-epsilon], optionally smoothing lattice values.

    Permutation tests with m permutations produce p-values on the lattice
    {j/(m+1)}.  When ``jitter_seed`` is given, lattice entries are smoothed by
    subtracting a Uniform(0, 1/(m+1)) perturbation, which restores exact
    uniformity under the null before clipping.  The lattice spacing is taken
    from ``permutations`` when provided, otherwise inferred as the least common
    denominator of the entries (no jitter is applied if the entries do not
    share a modest common denominator).
    """
    if not (0.0 < epsilon <= 0.01):
        raise ConfigError(f"epsilon must be in (0, 0.01], got {epsilon}")
    p = np.atleast_1d(np.asarray(pvals, dtype=float))
    if p.ndim != 1 or p.size < 1:
        raise DataError("expected a non-empty 1-D sequence of p-values")
    if not np.all(np.isfinite(p)) or np.any(p < 0.0) or np.any(p > 1.0):
        raise DataError("raw p-values must lie in [0, 1]")

    if jitter_seed is not None:
        m = permutations if permutations is not None else _infer_permutations(p)
        if m is not None:
            if m < 1:
                raise ConfigError(f"permutations must be >= 1, got {m}")
            width = 1.0 / (m + 1)
            scaled = p * (m + 1)
            on_lattice = np.abs(scaled - np.round(scaled)) < 1e-9
            rng = np.random.default_rng(jitter_seed)
            u = rng.uniform(0.0, width, size=p.shape)
            p = np.where(on_lattice, p - u, p)

    return np.clip(p, epsilon, 1.0 - epsilon)


def _infer_permutations(p):
    """Infer the permutation count m from lattice p-values {j/(m+1)}.

    Returns None when the entries do not share a common denominator small
    enough to plausibly come from a permutation test.
    """
    from fractions import Fraction
    from math import lcm

    denom = 1
    for v in p:
        frac = Fraction(float(v)).limit_denominator(1_000_000)
        if abs(float(frac) - float(v)) > 1e-12:
            return None
        denom = lcm(denom, frac.denominator)
        if denom > 1_000_000:
            return None
    if denom < 2:  # all entries are 0 or 1; nothing to smooth
        return None
    return denom - 1


def combine_stable(pvals, params):
    """Combine p-values via stable-quantile averaging.

    Each p_k is mapped to T_k = F^{-1}(p_k) under the stable law ``params``;
    the statistic is the mean of the T_k, whose null law is again stable with
    the aggregated scale, so p_e = F'(mean) is exact for every K.  Lower-tail:
    small p-values drag the statistic left.
    """
    p = _as_pvector(pvals)
    k = int(p.size)
    quantiles = stable_quantile(p, params)
    statistic = float(np.mean(quantiles))
    agg = aggregate_params(params, k)
    p_e = float(stable_cdf(statistic, agg))
    return CombinedResult(statistic=statistic, p_combined=min(max(p_e, 0.0), 1.0),
                          method="stable", K=k)


def combine_classical(method, pvals, normal_approx=False):
    """Combine p-values with one of the classical methods.

    ``normal_approx`` only affects Edgington: the exact Irwin-Hall null is
    limited to K <= 30, beyond which the Normal(K/2, K/12) approximation must
    be requested explicitly.
    """
    name = str(method).strip().lower()
    if name not in CLASSICAL_METHODS:
        raise ConfigError(
            f"unknown combination method {method!r}; expected one of {', '.join(CLASSICAL_METHODS)}"
        )
    p = _as_pvector(pvals)
    k = int(p.size)

    if name == "tippett":
        statistic = float(np.min(p))
        # P(min <= t) = 1 - (1-t)^K
        p_comb = -np.expm1(k * np.log1p(-statistic))
    elif name == "edgington":
        statistic = float(np.sum(p))
        if k > _EDGINGTON_EXACT_MAX_K and not normal_approx:
            raise ConfigError(
                f"edgington's exact Irwin-Hall null is numerically unstable beyond "
                f"K={_EDGINGTON_EXACT_MAX_K} (got K={k}); pass normal_approx=True "
                "(CLI: --edgington-normal) to use the Normal(K/2, K/12) approximation"
            )
        if k > _EDGINGTON_EXACT_MAX_K:
            p_comb = float(ndtr((statistic - k / 2.0) / np.sqrt(k / 12.0)))
        else:
            p_comb = _irwin_hall_cdf(statistic, k)
    elif name == "fisher":
        statistic = float(-2.0 * np.sum(np.log(p)))
        p_comb = float(chdtrc(2 * k, statistic))
    elif name == "pearson":
        # small p_i keep -2*sum(log(1-p_i)) near zero, hence the lower tail
        statistic = float(-2.0 * np.sum(np.log1p(-p)))
        p_comb = float(chdtr(2 * k, statistic))
    elif name == "mudholkar":
        statistic = float(np.sum(np.log(p) - np.log1p(-p)))
        df = 5 * k + 4
        scale = np.sqrt(3.0 * df / (k * np.pi ** 2 * (5 * k + 2)))
        p_comb = float(stdtr(df, scale * statistic))
    elif name == "stouffer":
        statistic = float(np.sum(ndtri(p)))
        p_comb = float(ndtr(statistic / np.sqrt(k)))
    else:  # liptak: the 1-p mirror of stouffer, rejecting for large statistic
        statistic = float(np.sum(ndtri(1.0 - p)))
        p_comb = float(1.0 - ndtr(statistic / np.sqrt(k)))

    return CombinedResult(statistic=statistic, p_combined=min(max(float(p_comb), 0.0), 1.0),
                          method=name, K=k)


def _irwin_hall_cdf(x, k):
    """Exact CDF of the sum of k iid Uniform(0,1), correctly rounded.

    The alternating series suffers catastrophic float64 cancellation already
    around k ~ 15, so it is summed in exact rational arithmetic: a float x is
    a rational number, and the one rounding is the final conversion.
    """
    if x <= 0.0:
        return 0.0
    if x >= k:
        return 1.0
    xq = Fraction(x)
    total = sum((-1) ** j * math.comb(k, j) * (xq - j) ** k for j in range(math.floor(x) + 1))
    return float(total / math.factorial(k))
