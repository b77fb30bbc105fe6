"""Combining p-values from independent subtests.

Two families live here:

* ``combine_stable`` — map each p-value through the quantile function of an
  alpha-stable law, average, and read the combined p-value off the CDF of the
  averaged law (closed under averaging, so the null is exact for any K).
* ``combine_classical`` — the usual meta-analysis combiners (Tippett,
  Edgington, Fisher, Pearson, Mudholkar-George, Stouffer), each with its
  exact null distribution, except the Student-t approximation of
  Mudholkar-George and the normal one of Edgington above K = 30.  Liptak's
  inverse-normal method is Stouffer's by algebra and is not kept twice.

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
from .stable import aggregate_params, stable_cdf, stable_quantile

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
)

# The exact Irwin-Hall sum is rational arithmetic on K-th powers, and its cost
# grows steeply with K: at a statistic near K/2, one call takes 0.6 ms at
# K = 30, 6 ms at K = 100 and 3 s at K = 1000 on one core of a Xeon server.
# Above K = 30 the normal approximation takes over.
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


def clamp_pvalues(pvals, epsilon=1e-12):
    """Clip raw p-values in [0, 1] into [epsilon, 1 - epsilon].

    The stable quantile is infinite at 0 and 1, so a saturated subtest
    (p = 0 or 1) must be moved inside before it is pooled.
    """
    if not (0.0 < epsilon <= 0.01):
        raise ConfigError(f"epsilon must be in (0, 0.01], got {epsilon}")
    p = np.atleast_1d(np.asarray(pvals, dtype=float))
    if p.ndim != 1 or p.size < 1:
        raise DataError("expected a non-empty 1-D sequence of p-values")
    if not np.all(np.isfinite(p)) or np.any(p < 0.0) or np.any(p > 1.0):
        raise DataError("raw p-values must lie in [0, 1]")
    return np.clip(p, epsilon, 1.0 - epsilon)


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


def combine_classical(method, pvals):
    """Combine p-values with one of the classical methods.

    Edgington's null is the exact Irwin-Hall CDF up to K = 30 and the
    Normal(K/2, K/12) approximation above.
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
    else:  # stouffer
        statistic = float(np.sum(ndtri(p)))
        p_comb = float(ndtr(statistic / np.sqrt(k)))

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
