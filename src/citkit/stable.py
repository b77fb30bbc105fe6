"""Numerics for symmetric alpha-stable laws S(alpha, 0, gamma, delta).

The characteristic function is

    E[exp(iuX)] = exp(-gamma^alpha |u|^alpha + i delta u).

At beta = 0 Nolan's S0 and S1 parameterizations coincide, so delta is the
median and no location shift is needed.  Skewed laws are not supported: the
ensemble and every combiner pool p-values with a symmetric law only.

CDF evaluation strategy
-----------------------
* closed forms for alpha = 2 (Gaussian) and alpha = 1 (Cauchy);
* for alpha in [1.05, 1.99], the fast path: a vectorized three-zone scheme
  (power series around the origin, a cached Chebyshev interpolant on the
  mid band, asymptotic tail series).  Where the band meets the tail
  series the CDF jumps by less than 2e-14 on a grid of alpha in
  [1.05, 1.99] with step 0.01; where the origin series meets the band it
  jumps by up to about 4e-13, the rounding of the series' largest terms
  near the end of its zone.  Closer to alpha = 2 the band and the tail
  series part: by 1.5e-9 at alpha = 1.995, so the fast path stops at 1.99;
* every other alpha: adaptive quadrature of Nolan's single-integral
  representation, point by point.

The Chebyshev table is built once per alpha from the same single integral:
all 130 nodes at once, each split on the ladder of the integrand's
transition and integrated by fixed Gauss-Legendre rules of orders 48 and
96.  A node whose two values differ by more than 1e-13 is recomputed by the
adaptive path.  For alpha in [1.05, 1.9] no node falls back and the table
agrees with adaptive quadrature to 3e-16 at every node; toward alpha = 2
the integrand sharpens, the fixed rules stop agreeing and most nodes fall
back, to the same 3e-16.

Quantiles take the same three routes.  Closed forms at alpha = 1 and 2.  On
the fast path the tail zone inverts its series directly (Newton's method in
|z|^-alpha), so quantiles keep full relative accuracy down to p ~ 1e-300;
below the tail zone a cubic Hermite interpolant of the inverse CDF, built
with the table, gives a start, and one Newton step with the density
finishes it: |F(q) - p| stays within about 2e-13 for alpha in
[1.05, 1.99].  Every other alpha uses a bracketed root search on the CDF.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.typing import ArrayLike
from scipy import special

from .errors import ConfigError, NumericalError

__all__ = [
    "StableParams",
    "stable_cdf",
    "stable_quantile",
    "stable_sample",
    "aggregate_params",
]

_QUAD_EPSABS = 1e-10
_QUAD_EPSREL = 1e-8
# float64 cancellation guard for the origin series: largest admissible
# magnitude (in CDF units) of any single term.  Calibrated so the summed
# series stays within ~1e-12 of an extended-precision evaluation.
_TAYLOR_TERM_CAP = 50.0
_TAYLOR_TRUNC_TOL = 1e-16
_TAIL_TERM_FLOOR = 5e-17
# Gauss-Legendre orders of the vectorized node quadrature, and how far apart
# their two CDF values may be before the node falls back to QUADPACK.
_FIXED_QUAD_ORDERS = (48, 96)
_FIXED_QUAD_AGREE = 1e-13
_TAIL_NEWTON_MAX_STEPS = 30
_SERIES_DROP = 1e-30
# evenly spaced nodes on [0, x_tail] of the fast path's inverse-CDF interpolant
_INVERSE_NODES = 257


@dataclass(frozen=True)
class StableParams:
    """Parameters of a symmetric stable law S(alpha, 0, gamma, delta).

    alpha : tail index, in (0, 2]
    beta  : skewness; only 0 is supported
    gamma : scale, > 0
    delta : location
    """

    alpha: float
    beta: float = 0.0
    gamma: float = 1.0
    delta: float = 0.0

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma", "delta"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v)):
                raise ConfigError(f"StableParams.{name} must be a finite real, got {v!r}")
            object.__setattr__(self, name, float(v))
        if not 0.0 < self.alpha <= 2.0:
            raise ConfigError(f"alpha must lie in (0, 2], got {self.alpha}")
        if self.beta != 0.0:
            raise ConfigError(
                f"only symmetric stable laws (beta = 0) are supported, got beta = {self.beta}")
        if not self.gamma > 0.0:
            raise ConfigError(f"gamma must be positive, got {self.gamma}")


# ---------------------------------------------------------------------------
# general-case CDF: Nolan's single-integral representation
# ---------------------------------------------------------------------------

def _nolan_logV(alpha):
    """log V(theta) of the symmetric integral representation, alpha != 1.

    V is taken on the log scale: near alpha = 1 its dynamic range exceeds
    float64 wildly, but log V is a sum of large terms that cancel to modest
    absolute error, which is exactly what exp(-exp(log c + log V)) needs.
    """
    expo = alpha / (alpha - 1.0)

    def logV(th):
        th = np.asarray(th, dtype=float)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            cos_th = np.maximum(np.cos(th), 1e-300)
            sin_a = np.maximum(np.sin(alpha * th), 1e-300)
            cos_shift = np.maximum(np.cos((alpha - 1.0) * th), 1e-300)
            out = (expo * (np.log(cos_th) - np.log(sin_a))
                   + np.log(cos_shift) - np.log(cos_th))
        return out

    return logV


# Values of c * V(theta) that bracket the exp(-c V) transition of the integrand.
# The ladder must be dense: with sparse points the rise can hide at the edge of
# a wide subinterval where no quadrature node sees it.
_SPLIT_TARGETS = np.array([1e4, 1e3, 100.0, 50.0, 10.0, 3.0, 1.0, 0.3, 0.05, 0.005, 5e-4])


def _split_ladder(logV, lo, hi, log_targets):
    """Bisect for logV(theta) = log_target on (lo, hi), elementwise over an
    array of targets; logV is monotone there.  NaN where a target lies
    outside the range of logV."""
    a = np.full(log_targets.shape, lo + 1e-13)
    b = np.full(log_targets.shape, hi - 1e-13)
    va, vb = float(logV(lo + 1e-13)), float(logV(hi - 1e-13))
    increasing = vb > va
    f_lo, f_hi = (va, vb) if increasing else (vb, va)
    inside = (f_lo < log_targets) & (log_targets < f_hi)
    for _ in range(90):
        m = 0.5 * (a + b)
        step_up = (logV(m) < log_targets) == increasing
        a = np.where(step_up, m, a)
        b = np.where(step_up, b, m)
    return np.where(inside, 0.5 * (a + b), np.nan)


def _cdf_quad_std(z, alpha):
    """CDF of S(alpha, 0, 1, 0) at scalar z, for alpha other than 1 and 2,
    by adaptive quadrature of the single integral."""
    if abs(z) < 1e-10:
        return 0.5
    if z < 0.0:
        return 1.0 - _cdf_quad_std(-z, alpha)
    logV = _nolan_logV(alpha)
    log_c = (alpha / (alpha - 1.0)) * math.log(z)
    lo, hi = 0.0, np.pi / 2.0

    def integrand(th):
        return np.exp(-np.exp(np.minimum(log_c + logV(th), 709.0)))

    # Bracket the exp(-c V) transition region so QUADPACK resolves the spike
    # even deep in the tails, where it collapses to a sliver of (lo, hi); on
    # a sparse ladder the reported error estimate is wildly optimistic.
    splits = _split_ladder(logV, lo, hi, np.log(_SPLIT_TARGETS) - log_c)
    val = _quad(integrand, lo, hi, splits)
    if alpha < 1.0:
        return 0.5 + val / np.pi
    return 1.0 - val / np.pi


def _cdf_fixed_quad_symmetric(zs, alpha):
    """CDF of S(alpha, 0, 1, 0), 1 < alpha < 2, at an array of positive zs.

    The same integral as :func:`_cdf_quad_std`, split on the same ladder,
    but all points at once: every ladder interval is integrated by fixed
    Gauss-Legendre rules of two orders.  Where the two disagree by more
    than ``_FIXED_QUAD_AGREE`` the point is recomputed by the adaptive
    path, which is what happens for most points as alpha nears 2.
    """
    zs = np.asarray(zs, dtype=float)
    logV = _nolan_logV(alpha)
    lo, hi = 0.0, np.pi / 2.0
    log_c = (alpha / (alpha - 1.0)) * np.log(zs)
    splits = _split_ladder(logV, lo, hi, np.log(_SPLIT_TARGETS) - log_c[:, None])
    # a target the ladder misses becomes an empty interval at lo
    column = np.ones((zs.size, 1))
    edges = np.sort(np.hstack([lo * column, np.where(np.isnan(splits), lo, splits), hi * column]),
                    axis=1)
    mid = 0.5 * (edges[:, 1:] + edges[:, :-1])
    half = 0.5 * (edges[:, 1:] - edges[:, :-1])
    cdfs = []
    for order in _FIXED_QUAD_ORDERS:
        t, w = np.polynomial.legendre.leggauss(order)
        theta = mid[..., None] + half[..., None] * t
        f = np.exp(-np.exp(np.minimum(log_c[:, None, None] + logV(theta), 709.0)))
        cdfs.append(1.0 - (half * (f @ w)).sum(axis=1) / np.pi)
    coarse, fine = cdfs
    redo = ~(np.abs(fine - coarse) <= _FIXED_QUAD_AGREE)
    fine[redo] = [_cdf_quad_std(z, alpha) for z in zs[redo]]
    return fine


def _quad(f, lo, hi, splits):
    # imported on first use: only laws off the fast path and the node
    # fallback near alpha = 2 come here, and the import costs about 50 ms
    from scipy import integrate

    pts = np.unique(splits[np.isfinite(splits)]).tolist() or None
    try:
        with np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.simplefilter("ignore", integrate.IntegrationWarning)
            val, abserr = integrate.quad(f, lo, hi, points=pts, limit=200,
                                         epsabs=_QUAD_EPSABS, epsrel=_QUAD_EPSREL)
    except Exception as exc:  # pragma: no cover - quad raising is itself the failure
        raise NumericalError(f"stable CDF quadrature failed: {exc}") from exc
    if not math.isfinite(val) or abserr > 1e-6:
        raise NumericalError(
            f"stable CDF quadrature did not converge (estimate {val}, error {abserr})")
    return val


# ---------------------------------------------------------------------------
# fast path: symmetric laws with alpha in (1, 2)
# ---------------------------------------------------------------------------

def _power_series(u, coefs):
    """sum_k coefs[k] u^k at every entry of the 1-D array u, 0 <= u <= 1.

    One table of powers and a row sum, where a Horner loop would cost a
    numpy call per coefficient.
    """
    return (np.power(u[:, None], np.arange(coefs.size)) * coefs).sum(axis=1)


def _chebyshev_series(t, coefs):
    """sum_k coefs[k] T_k(t) at every entry of the 1-D array t, |t| < 1,
    by T_k(cos th) = cos(k th): one table instead of a Clenshaw loop."""
    return (np.cos(np.arccos(t)[:, None] * np.arange(coefs.size)) * coefs).sum(axis=1)


class _SymmetricMachine:
    """Vectorized CDF, density and inverse CDF for S(alpha, 0, 1, 0), 1 < alpha < 2.

    Three zones on |z|: an origin power series in z (entire, float64-safe up
    to a calibrated cancellation bound), a Chebyshev interpolant in log|z| on
    the mid band, and the asymptotic tail series in |z|^-alpha truncated at
    its smallest term.  The interpolant's nodes come from one vectorized
    two-order fixed quadrature with adaptive fallback
    (:func:`_cdf_fixed_quad_symmetric`).  Each series is stored in a
    variable that spans [0, 1] on its zone, u = |z| / x_taylor and
    v = (|z| / x_tail)^-alpha, so that no power overflows.

    The inverse: the tail zone inverts its series by Newton's method.  Below
    it, a cubic Hermite interpolant of |z| against F on evenly spaced nodes
    of [0, x_tail], with slopes 1 / density, gives a start, and one Newton
    step on the CDF finishes it.
    """

    def __init__(self, alpha: float):
        self.alpha = alpha
        # --- origin series coefficients: F(z) = 1/2 + sum_j c_j z^(2j+1)
        j = np.arange(260)
        logc = special.gammaln((2 * j + 1) / alpha) - special.gammaln(2 * j + 2)
        c = (-1.0) ** j * np.exp(logc) / (np.pi * alpha)
        nz = np.nonzero(np.abs(c) > 1e-300)[0]
        self._taylor_c = c[: nz.max() + 1]
        self._x_taylor = self._calibrate_taylor()
        # F(z) = 1/2 + sum_j a_j u^(2j+1); terms below _SERIES_DROP on the
        # whole zone are left out
        odd = 2 * np.arange(self._taylor_c.size) + 1
        origin = self._taylor_c * self._x_taylor ** odd
        size = np.flatnonzero(np.abs(origin) >= _SERIES_DROP)[-1] + 1
        self._origin = origin[:size]
        self._origin_slope = origin[:size] * odd[:size] / self._x_taylor
        # --- tail series: 1 - F(z) = sum_k d_k z^(-alpha k), optimal truncation,
        # stored as sum_k e_k v^k with e_k = d_k x_tail^(-alpha k)
        self._x_tail, tail_d = self._calibrate_tail()
        powers = np.arange(1, tail_d.size + 1)
        self._tail = tail_d * self._x_tail ** (-alpha * powers)
        self._tail_slope = self._tail * powers
        self.tail_zone_mass = float(self._tail_mass(np.ones(1))[0])
        # --- Chebyshev band in t = log z
        self._band_lo = 0.95 * self._x_taylor
        self._band_hi = 1.05 * self._x_tail
        self._cheb = self._build_cheb()
        self._cheb_slope = np.polynomial.chebyshev.chebder(self._cheb)
        # --- inverse below the tail zone
        nodes = np.linspace(0.0, self._x_tail, _INVERSE_NODES)
        self._inverse = (self.cdf(nodes), nodes, 1.0 / self.pdf(nodes))

    def _taylor_ok(self, x):
        """Rounding (max term) and truncation (last term) both negligible at x."""
        with np.errstate(over="ignore"):
            logt = np.log(np.abs(self._taylor_c)) + (2 * np.arange(self._taylor_c.size) + 1) * math.log(x)
        return (logt.max() < math.log(_TAYLOR_TERM_CAP)
                and logt[-1] < math.log(_TAYLOR_TRUNC_TOL))

    def _calibrate_taylor(self):
        lo, hi = 0.25, 0.5
        while self._taylor_ok(hi) and hi < 64.0:
            lo, hi = hi, 2.0 * hi
        for _ in range(60):
            m = 0.5 * (lo + hi)
            if self._taylor_ok(m):
                lo = m
            else:
                hi = m
        return lo

    def _calibrate_tail(self):
        # The sine factor has exact zeros for rational alpha, so the
        # truncation point must come from the sine-free envelope.
        a = self.alpha
        k = np.arange(1, 200)
        logenv = special.gammaln(a * k) - special.gammaln(k + 1)
        sines = np.sin(k * np.pi * a / 2.0)
        for x in np.geomspace(max(2.0, self._x_taylor), 4096.0, 240):
            env = logenv - a * k * math.log(x)
            cut = int(np.argmin(env)) + 1
            if env[cut - 1] < math.log(_TAIL_TERM_FLOOR):
                d = (-1.0) ** (k[:cut] - 1) * np.exp(logenv[:cut]) * sines[:cut] / np.pi
                return x, d
        raise NumericalError(f"no usable tail-series onset for alpha={a}")

    def _build_cheb(self):
        """Chebyshev coefficients of F on the band, in t = log z mapped to [-1, 1]."""
        n = 130
        tlo, thi = math.log(self._band_lo), math.log(self._band_hi)
        self._cheb_scale = (tlo, thi)
        nodes = np.cos(np.pi * (np.arange(n) + 0.5) / n)
        xs = np.exp(0.5 * (tlo + thi) + 0.5 * (thi - tlo) * nodes)
        vals = _cdf_fixed_quad_symmetric(xs, self.alpha)
        series = np.polynomial.chebyshev.Chebyshev.fit(self._cheb_t(xs), vals, n - 1, domain=[-1, 1])
        return series.coef

    def _cheb_t(self, az):
        tlo, thi = self._cheb_scale
        return 2.0 * (np.log(az) - 0.5 * (tlo + thi)) / (thi - tlo)

    def _zones(self, z):
        az = np.abs(z)
        near = az <= self._x_taylor
        far = az >= self._x_tail
        return az, near, ~(near | far), far

    def cdf(self, z):
        """CDF at array z (any shape)."""
        z = np.asarray(z, dtype=float)
        out = np.empty_like(z)
        az, near, mid, far = self._zones(z)
        if near.any():
            u = az[near] / self._x_taylor
            out[near] = 0.5 + u * _power_series(u * u, self._origin)
        if mid.any():
            out[mid] = _chebyshev_series(self._cheb_t(az[mid]), self._cheb)
        if far.any():
            # the lower tail takes the series value itself: 1 - (1 - s) would
            # round a tail mass of 1e-12 to four digits
            tail = self._tail_mass((az[far] / self._x_tail) ** (-self.alpha))
            out[far] = np.where(z[far] < 0, tail, 1.0 - tail)
        neg = (z < 0) & ~far
        out[neg] = 1.0 - out[neg]
        return np.clip(out, 0.0, 1.0)

    def pdf(self, z):
        """Density at array z (any shape): the derivative of each zone's approximant."""
        z = np.asarray(z, dtype=float)
        out = np.empty_like(z)
        az, near, mid, far = self._zones(z)
        if near.any():
            u = az[near] / self._x_taylor
            out[near] = _power_series(u * u, self._origin_slope)
        if mid.any():
            tlo, thi = self._cheb_scale
            x = az[mid]
            out[mid] = _chebyshev_series(self._cheb_t(x), self._cheb_slope) * 2.0 / ((thi - tlo) * x)
        if far.any():
            x = az[far]
            v = (x / self._x_tail) ** (-self.alpha)
            out[far] = self.alpha * v / x * _power_series(v, self._tail_slope)
        return out

    def _tail_mass(self, v):
        """1 - F(|z|) = sum_k e_k v^k at v = (|z| / x_tail)^-alpha, in the tail zone."""
        return v * _power_series(v, self._tail)

    def tail_quantile(self, q):
        """|z| >= x_tail with 1 - F(|z|) = q, for q up to the tail zone's mass.

        Newton's method on the tail series in v = (|z| / x_tail)^-alpha, from
        v = q / e_1.  The series is increasing and convex there (e_2 > 0), so
        the iterates fall monotonically onto the root.
        """
        q = np.asarray(q, dtype=float)
        v = q / self._tail[0]
        for _ in range(_TAIL_NEWTON_MAX_STEPS):
            step = (self._tail_mass(v) - q) / _power_series(v, self._tail_slope)
            v = v - step
            if (np.abs(step) <= 4e-16 * v).all():
                break
        return self._x_tail * v ** (-1.0 / self.alpha)

    def central_quantile(self, p):
        """z with F(z) = p, for min(p, 1 - p) above the tail zone's mass."""
        qs, zs, slopes = self._inverse
        q = np.maximum(p, 1.0 - p)
        i = np.clip(np.searchsorted(qs, q) - 1, 0, qs.size - 2)
        h = qs[i + 1] - qs[i]
        t = (q - qs[i]) / h
        s = 1.0 - t
        # cubic Hermite basis on [q_i, q_(i+1)]
        z = (s * s * ((1.0 + 2.0 * t) * zs[i] + t * h * slopes[i])
             + t * t * ((3.0 - 2.0 * t) * zs[i + 1] - s * h * slopes[i + 1]))
        z = np.where(p < 0.5, -z, z)
        return z - (self.cdf(z) - p) / self.pdf(z)


@functools.lru_cache(maxsize=64)
def _symmetric_machine(alpha: float) -> _SymmetricMachine:
    return _SymmetricMachine(alpha)


def _has_fast_path(alpha: float) -> bool:
    # below ~1.05 the origin series converges too slowly for a useful zone;
    # above 1.99 the band and tail series disagree where they meet
    return 1.05 <= alpha <= 1.99


# ---------------------------------------------------------------------------
# public CDF / quantile
# ---------------------------------------------------------------------------

def stable_cdf(x: ArrayLike, params: StableParams):
    """Cumulative distribution function of S(alpha, 0, gamma, delta).

    Accepts a scalar or array ``x``; non-finite entries are rejected.  Raises
    :class:`NumericalError` when the underlying quadrature cannot reach its
    tolerance, rather than returning a doubtful value.
    """
    a, g, d = params.alpha, params.gamma, params.delta
    x_arr = np.asarray(x, dtype=float)
    scalar = x_arr.ndim == 0
    x_arr = np.atleast_1d(x_arr)
    if not np.isfinite(x_arr).all():
        raise ConfigError("stable_cdf requires finite x")

    if a == 2.0:
        out = special.ndtr((x_arr - d) / (g * math.sqrt(2.0)))
    elif a == 1.0:
        out = 0.5 + np.arctan((x_arr - d) / g) / np.pi
    elif _has_fast_path(a):
        out = _symmetric_machine(a).cdf((x_arr - d) / g)
    else:
        z = (x_arr - d) / g
        out = np.array([_cdf_quad_std(t, a) for t in z.ravel()]).reshape(z.shape)
    out = np.clip(out, 0.0, 1.0)
    return float(out[0]) if scalar else out


def stable_quantile(p: ArrayLike, params: StableParams):
    """Inverse CDF. ``p`` must lie strictly inside (0, 1).

    The result satisfies |stable_cdf(q) - p| <= 1e-10 or a
    :class:`NumericalError` is raised.  On the fast path, quantiles in the
    tail zone also hold min(p, 1 - p) to a relative ~1e-13.
    """
    a, g, d = params.alpha, params.gamma, params.delta
    p_arr = np.asarray(p, dtype=float)
    scalar = p_arr.ndim == 0
    p_arr = np.atleast_1d(p_arr)
    if not np.isfinite(p_arr).all() or (p_arr <= 0.0).any() or (p_arr >= 1.0).any():
        raise ConfigError("stable_quantile requires 0 < p < 1 (clamp first)")

    if a == 2.0:
        out = d + g * math.sqrt(2.0) * special.ndtri(p_arr)
    elif a == 1.0:
        out = d + g * np.tan(np.pi * (p_arr - 0.5))
    elif _has_fast_path(a):
        out = _quantile_fast_symmetric(p_arr, params)
    else:
        out = np.array([_quantile_scalar(t, params) for t in p_arr.ravel()]).reshape(p_arr.shape)
    return float(out[0]) if scalar else out


def _bracket_hint(p_arr, params):
    """Generous two-sided bracket: stable tails sit between the Gaussian and
    Cauchy envelopes in the regimes we invert, padded and then verified."""
    g, d = params.gamma, params.delta
    cauchy = np.tan(np.pi * (p_arr - 0.5))
    gauss = math.sqrt(2.0) * special.ndtri(p_arr)
    width = 3.0 * (np.abs(cauchy) + np.abs(gauss)) + 4.0
    return d - g * width, d + g * width


def _quantile_fast_symmetric(p_arr, params):
    machine = _symmetric_machine(params.alpha)
    g, d = params.gamma, params.delta
    x = np.empty_like(p_arr)
    # Tail zone: invert the tail series directly.  A root search on the CDF
    # stops once |F(x) - p| <= fatol, which deep in the tail admits points
    # whose CDF is off by orders of magnitude.
    tail_p = np.minimum(p_arr, 1.0 - p_arr)
    far = tail_p <= machine.tail_zone_mass
    if far.any():
        z = machine.tail_quantile(tail_p[far])
        x[far] = d + g * np.where(p_arr[far] < 0.5, -z, z)
    if not far.all():
        x[~far] = d + g * machine.central_quantile(p_arr[~far])
    resid = np.abs(machine.cdf((x - d) / g) - p_arr)
    if (resid > 1e-10).any():
        raise NumericalError(
            f"quantile inversion residual {float(resid.max()):.2e} exceeds 1e-10")
    return x


def _quantile_scalar(p, params):
    # imported on first use: the fast path needs no root search, and
    # scipy.optimize costs about 0.2 s of import
    from scipy.optimize import brentq

    lo, hi = (float(v) for v in _bracket_hint(np.asarray(p), params))
    f = lambda x: stable_cdf(x, params) - p
    flo, fhi = f(lo), f(hi)
    tries = 0
    while flo > 0.0 or fhi < 0.0:
        span = hi - lo
        if flo > 0.0:
            lo -= span
            flo = f(lo)
        if fhi < 0.0:
            hi += span
            fhi = f(hi)
        tries += 1
        if tries > 200:
            raise NumericalError("quantile bracket expansion failed")
    try:
        x = brentq(f, lo, hi, xtol=1e-13, rtol=4 * np.finfo(float).eps, maxiter=300)
    except Exception as exc:
        raise NumericalError(f"quantile root finding failed: {exc}") from exc
    # brentq converges in x to machine precision; the residual then measures
    # CDF evaluation noise, not inversion failure.  Below alpha ~ 0.4 the
    # Nolan integrand limits the quadrature to ~1e-8 absolute, so demanding
    # 1e-10 there would reject correctly converged roots.
    tol = 1e-10 if params.alpha >= 0.4 else 5e-7
    if abs(f(x)) > tol:
        raise NumericalError(f"quantile inversion residual {abs(f(x)):.2e} exceeds {tol:g}")
    return x


# ---------------------------------------------------------------------------
# sampling and closure under averaging
# ---------------------------------------------------------------------------

def stable_sample(params: StableParams, n: int, seed: int) -> np.ndarray:
    """Draw ``n`` i.i.d. variates by the Chambers-Mallows-Stuck transform.

    Deterministic for a given seed.  At alpha = 1 the transform is
    gamma * tan(U) + delta, a Cauchy draw.
    """
    if n < 1:
        raise ConfigError(f"sample size must be >= 1, got {n}")
    a, g, d = params.alpha, params.gamma, params.delta
    rng = np.random.default_rng(seed)
    U = rng.uniform(-np.pi / 2.0, np.pi / 2.0, size=n)
    W = rng.exponential(1.0, size=n)
    if a == 1.0:
        return g * np.tan(U) + d
    Z = (np.sin(a * U) / np.cos(U) ** (1.0 / a)
         * (np.cos(U - a * U) / W) ** ((1.0 - a) / a))
    return g * Z + d


def aggregate_params(params: StableParams, K: int) -> StableParams:
    """Distribution of the mean of K i.i.d. draws: scale shrinks to
    K^(1/alpha - 1) * gamma, location stays."""
    if K < 1:
        raise ConfigError(f"K must be >= 1, got {K}")
    a, g, d = params.alpha, params.gamma, params.delta
    return StableParams(a, 0.0, g * K ** (1.0 / a - 1.0), d)
