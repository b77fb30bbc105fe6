"""Tests for alpha-stable numerics: closed forms, external oracles, and invariants.

The high-precision reference values below were computed with mpmath (dps=40)
by direct quadrature of the characteristic-function inversion integral, i.e.
a route completely independent of the implementation under test.
"""

import numpy as np
import pytest
import scipy.stats as st
from hypothesis import given, settings, strategies as hst
from numpy.testing import assert_allclose

from citkit import stable
from citkit import (
    ConfigError,
    NumericalError,
    StableParams,
    aggregate_params,
    stable_cdf,
    stable_quantile,
    stable_sample,
)

# (alpha, beta, x, F(x)) for the standard S(alpha, 0, 1, 0) law, mpmath dps=40.
MPMATH_CDF_TABLE = [
    (1.75, 0.0, 0.5, 0.6383741773680689),
    (1.75, 0.0, 2.0, 0.9097503633214365),
    (1.75, 0.0, 6.5, 0.9951166584572559),
    (1.75, 0.0, 12.0, 0.9984865063379092),
    (1.75, 0.0, 25.0, 0.9995945976497867),
    (1.5, 0.0, 0.5, 0.6394042264814259),
    (1.5, 0.0, 3.0, 0.9484021964408255),
    (1.5, 0.0, 5.0, 0.9793309128598887),
    (1.5, 0.0, 20.0, 0.9977294469600493),
    (1.25, 0.0, 1.0, 0.7539711127264227),
    (1.25, 0.0, 4.0, 0.9490192431485459),
]


def std(alpha):
    return StableParams(alpha=alpha, beta=0.0, gamma=1.0, delta=0.0)


# ---------------------------------------------------------------------------
# parameter validation


class TestStableParams:
    def test_valid_construction(self):
        p = StableParams(1.5, 0.0, 2.0, -1.0)
        assert (p.alpha, p.beta, p.gamma, p.delta) == (1.5, 0.0, 2.0, -1.0)
        assert StableParams(1.5) == StableParams(1.5, 0.0, 1.0, 0.0)

    @pytest.mark.parametrize(
        "alpha,beta,gamma,delta",
        [
            (0.0, 0.0, 1.0, 0.0),
            (2.1, 0.0, 1.0, 0.0),
            (-0.5, 0.0, 1.0, 0.0),
            (1.5, 1.2, 1.0, 0.0),
            (1.5, -1.01, 1.0, 0.0),
            (1.5, 0.5, 1.0, 0.0),
            (1.5, 0.0, 0.0, 0.0),
            (1.5, 0.0, -1.0, 0.0),
            (np.nan, 0.0, 1.0, 0.0),
            (1.5, 0.0, np.inf, 0.0),
            (1.5, 0.0, 1.0, np.nan),
        ],
    )
    def test_invalid_construction(self, alpha, beta, gamma, delta):
        with pytest.raises(ConfigError):
            StableParams(alpha, beta, gamma, delta)

    def test_frozen(self):
        p = std(1.5)
        with pytest.raises(Exception):
            p.alpha = 1.9


# ---------------------------------------------------------------------------
# CDF: closed forms


class TestCdfClosedForms:
    def test_gaussian(self):
        p = std(2.0)
        # S(2,0,1,0) is N(0, 2)
        assert stable_cdf(1.0, p) == pytest.approx(st.norm.cdf(1.0 / np.sqrt(2)), abs=1e-14)
        assert stable_cdf(0.0, p) == pytest.approx(0.5, abs=1e-15)

    def test_gaussian_with_scale_shift(self):
        p = StableParams(2.0, 0.0, 1.5, -2.0)
        x = np.linspace(-20, 20, 101)
        assert_allclose(stable_cdf(x, p), st.norm.cdf(x, loc=-2.0, scale=1.5 * np.sqrt(2)), atol=1e-14)

    def test_cauchy(self):
        p = std(1.0)
        assert stable_cdf(1.0, p) == pytest.approx(0.75, abs=1e-15)
        x = np.linspace(-20, 20, 101)
        assert_allclose(stable_cdf(x, p), st.cauchy.cdf(x), atol=1e-14)

    def test_median_symmetric(self):
        for alpha in [0.6, 1.0, 1.3, 1.75, 2.0]:
            assert stable_cdf(0.0, std(alpha)) == pytest.approx(0.5, abs=1e-12)


class TestCdfOracles:
    @pytest.mark.parametrize("alpha,beta,x,expected", MPMATH_CDF_TABLE)
    def test_mpmath_reference(self, alpha, beta, x, expected):
        got = stable_cdf(x, StableParams(alpha, beta, 1.0, 0.0))
        assert got == pytest.approx(expected, abs=5e-11)

    @pytest.mark.parametrize("alpha", [0.7, 1.1, 1.4, 1.75, 1.9])
    def test_scipy_grid_symmetric(self, alpha):
        # scipy.stats.levy_stable as an independent implementation; restrict to
        # moderate |x| where it is itself reliable.
        p = std(alpha)
        x = np.linspace(-25, 25, 41)
        ref = st.levy_stable.cdf(x, alpha, 0.0)
        assert_allclose(stable_cdf(x, p), ref, atol=5e-9)

    def test_deep_tail_quad_vs_series(self):
        # The quadrature path and the asymptotic series are built independently;
        # force both on the same points and compare.
        from citkit.stable import _cdf_quad_std

        p = std(1.75)
        for x in [15.0, 40.0, 120.0, 800.0]:
            series = 1.0 - stable_cdf(x, p)
            quad = 1.0 - _cdf_quad_std(x, 1.75)
            assert series == pytest.approx(quad, rel=1e-7)

    def test_tail_values_are_not_flushed_to_zero(self):
        # survival mass far out must stay positive and follow ~ x^{-alpha}
        p = std(1.5)
        s1 = 1.0 - stable_cdf(1e3, p)
        s2 = 1.0 - stable_cdf(4e3, p)
        assert s1 > 0 and s2 > 0
        assert s1 / s2 == pytest.approx(4.0 ** 1.5, rel=1e-3)


class TestCdfInvariants:
    def test_monotone_and_bounded_random_params(self):
        rng = np.random.default_rng(42)
        for _ in range(40):
            alpha = rng.uniform(0.6, 2.0)
            p = StableParams(alpha, 0.0, rng.uniform(0.5, 3), rng.uniform(-2, 2))
            x = np.sort(rng.uniform(-50, 50, size=25))
            f = stable_cdf(x, p)
            assert np.all(f >= 0) and np.all(f <= 1)
            assert np.all(np.diff(f) >= -1e-12)

    def test_reflection_symmetric(self):
        for alpha in [0.8, 1.3, 1.75, 1.95]:
            p = std(alpha)
            x = np.array([0.2, 1.0, 3.0, 8.0, 30.0])
            assert_allclose(stable_cdf(-x, p), 1.0 - stable_cdf(x, p), atol=1e-12)

    def test_mass_over_wide_window(self):
        # F(50g+d) - F(-50g+d) should equal 1 minus the true tail mass; bound the
        # tail with the leading term of the series expansion (factor 2.6 covers
        # both tails plus higher-order corrections).
        from scipy.special import gamma as gamma_fn

        for alpha in [1.0, 1.25, 1.5, 1.75, 2.0]:
            p = StableParams(alpha, 0.0, 2.0, 1.0)
            lo, hi = -50 * 2.0 + 1.0, 50 * 2.0 + 1.0
            mass = stable_cdf(hi, p) - stable_cdf(lo, p)
            if alpha == 2.0:
                tail_bound = 1e-4
            else:
                c = gamma_fn(alpha) * np.sin(np.pi * alpha / 2) / np.pi
                tail_bound = 2.6 * c * 50.0 ** (-alpha) + 1e-4
            assert 1.0 - tail_bound <= mass <= 1.0

    def test_density_from_differencing_integrates_to_window_mass(self):
        p = std(1.75)
        x = np.linspace(-40, 40, 20001)
        f = stable_cdf(x, p)
        riemann = np.sum(np.diff(f))
        assert riemann == pytest.approx(stable_cdf(40, p) - stable_cdf(-40, p), abs=1e-12)
        assert riemann == pytest.approx(1.0, abs=2e-3)

    def test_scale_shift_standardization(self):
        base = std(1.6)
        p = StableParams(1.6, 0.0, 3.0, -2.5)
        x = np.array([-7.0, -1.0, 0.0, 2.0, 11.0])
        assert_allclose(stable_cdf(x, p), stable_cdf((x + 2.5) / 3.0, base), atol=1e-12)

    def test_alpha_one_skewed_rejected(self):
        with pytest.raises(ConfigError, match="symmetric"):
            StableParams(1.0, 0.5, 1.0, 0.0)

    def test_nonfinite_x_rejected(self):
        with pytest.raises(ConfigError):
            stable_cdf(np.nan, std(1.5))


# ---------------------------------------------------------------------------
# quantile


class TestQuantile:
    def test_gaussian_p90(self):
        q = stable_quantile(0.9, std(2.0))
        assert q == pytest.approx(np.sqrt(2) * st.norm.ppf(0.9), abs=1e-12)

    def test_cauchy_closed_form(self):
        p = std(1.0)
        for prob in [0.01, 0.25, 0.5, 0.75, 0.99]:
            assert stable_quantile(prob, p) == pytest.approx(np.tan(np.pi * (prob - 0.5)), abs=1e-12)

    def test_roundtrip_symmetric(self):
        p = std(1.75)
        probs = np.concatenate([
            np.geomspace(1e-6, 0.4, 25),
            [0.5],
            1 - np.geomspace(1e-6, 0.4, 25),
        ])
        q = stable_quantile(probs, p)
        assert_allclose(stable_cdf(q, p), probs, atol=1e-8)

    def test_monotone_in_p(self):
        p = std(1.5)
        probs = np.linspace(0.001, 0.999, 300)
        q = stable_quantile(probs, p)
        assert np.all(np.diff(q) > 0)

    @pytest.mark.parametrize("prob", [0.0, 1.0, -0.1, 1.1, np.nan])
    def test_invalid_p_rejected(self, prob):
        with pytest.raises(ConfigError):
            stable_quantile(prob, std(1.5))

    def test_vector_agrees_with_scalar(self):
        p = std(1.42)
        probs = np.array([0.03, 0.4, 0.77, 0.999])
        vec = stable_quantile(probs, p)
        for pr, qv in zip(probs, vec):
            assert qv == pytest.approx(stable_quantile(float(pr), p), abs=1e-10)

    def test_alpha_above_1_99_round_trips_off_the_fast_path(self):
        assert stable._has_fast_path(1.99) and not stable._has_fast_path(1.995)
        params = std(1.995)
        probs = np.array([1e-6, 0.01, 0.3, 0.5, 0.8, 1.0 - 1e-6])
        q = stable_quantile(probs, params)
        assert np.abs(stable_cdf(q, params) - probs).max() <= 1e-10

    @pytest.mark.parametrize("alpha", [1.5, 1.75, 1.95])
    def test_far_tail_relative_accuracy(self, alpha):
        # ecit clamps saturated subtests to 1e-12, so the deep tail is common
        params = std(alpha)
        for p in (1e-12, 1e-11, 1e-10, 1e-6):
            for prob in (p, 1.0 - p):
                tail = min(prob, 1.0 - prob)  # exact: the mass 1 - prob carries in float64
                q = stable_quantile(prob, params)
                assert np.sign(q) == np.sign(prob - 0.5)
                assert stable_cdf(-abs(q), params) / tail == pytest.approx(1.0, abs=1e-8)


# ---------------------------------------------------------------------------
# the symmetric fast path's Chebyshev table


class TestSymmetricTable:
    @pytest.mark.parametrize("alpha", [1.05, 1.5, 1.75, 1.95, 1.98, 1.995])
    def test_vectorized_nodes_match_adaptive_quadrature(self, alpha, monkeypatch):
        n = 130
        tlo, thi = stable._symmetric_machine(alpha)._cheb_scale
        nodes = np.cos(np.pi * (np.arange(n) + 0.5) / n)
        xs = np.exp(0.5 * (tlo + thi) + 0.5 * (thi - tlo) * nodes)
        adaptive = np.array([stable._cdf_quad_std(x, alpha) for x in xs])

        fallbacks = []
        quad_std = stable._cdf_quad_std

        def counted(z, a):
            fallbacks.append(z)
            return quad_std(z, a)

        monkeypatch.setattr(stable, "_cdf_quad_std", counted)
        fixed = stable._cdf_fixed_quad_symmetric(xs, alpha)
        assert_allclose(fixed, adaptive, rtol=0, atol=1e-13)
        if alpha <= 1.75:
            assert not fallbacks  # the whole table from the two fixed rules
        if alpha >= 1.98:
            assert len(fallbacks) > n // 2  # the two orders disagree near alpha = 2


# ---------------------------------------------------------------------------
# sampling


class TestSymmetricMachine:
    """The fast path's zone evaluators, density and inverse."""

    @pytest.mark.parametrize("alpha", [1.05, 1.5, 1.75, 1.95])
    def test_zones_match_loop_evaluation(self, alpha):
        # reference: Horner on the unscaled origin series, Clenshaw on the
        # Chebyshev band, Horner on the tail series; the sums run in another
        # order, so agreement is to rounding of terms up to _TAYLOR_TERM_CAP
        m = stable._symmetric_machine(alpha)
        x = np.linspace(0.0, m._x_taylor, 41)
        horner = np.zeros_like(x)
        for coef in m._taylor_c[::-1]:
            horner = horner * x * x + coef
        assert_allclose(m.cdf(x), 0.5 + x * horner, rtol=0, atol=2e-13)

        x = np.linspace(m._x_taylor, m._x_tail, 43)[1:-1]
        t = m._cheb_t(x)
        assert_allclose(m.cdf(x), np.polynomial.chebyshev.chebval(t, m._cheb), rtol=0, atol=1e-15)

        v = np.geomspace(1e-12, 1.0, 25)
        horner = np.zeros_like(v)
        for coef in m._tail[::-1]:
            horner = horner * v + coef
        assert_allclose(m._tail_mass(v), v * horner, rtol=1e-14)

    @pytest.mark.parametrize("alpha", [1.05, 1.5, 1.75, 1.95, 1.995])
    def test_density_is_the_cdf_slope(self, alpha):
        m = stable._symmetric_machine(alpha)
        # all three zones and both signs; the grid misses +-x_tail, where
        # the mid and tail approximants meet with a jump of up to 1.5e-9
        z = np.linspace(-1.5, 1.5, 60) * m._x_tail
        h = 1e-5
        slope = (m.cdf(z + h) - m.cdf(z - h)) / (2.0 * h)
        assert_allclose(m.pdf(z), slope, rtol=1e-6, atol=1e-8)

    @pytest.mark.parametrize("alpha", [1.95, 1.97, 1.99])
    def test_cdf_is_continuous_where_the_zones_meet(self, alpha):
        # band and tail series meet within 1e-13 up to alpha = 1.99 (1.5e-9 at
        # 1.995); the origin series meets the band within the rounding of its
        # largest terms, 4.2e-13 at worst on alpha in [1.5, 1.99]
        m = stable._symmetric_machine(alpha)
        for edge, tol in ((m._x_tail, 1e-13), (m._x_taylor, 5e-13)):
            below, above = m.cdf(edge * np.array([1.0 - 1e-15, 1.0 + 1e-15]))
            assert abs(above - below) <= tol

    @pytest.mark.parametrize("alpha", [1.05, 1.3, 1.75, 1.95, 1.995])
    def test_central_quantile_residual(self, alpha):
        m = stable._symmetric_machine(alpha)
        edge = m.tail_zone_mass
        p = np.concatenate([np.linspace(edge, 1.0 - edge, 2001)[1:-1],
                            0.5 + np.geomspace(1e-15, 1e-3, 13)])
        q = m.central_quantile(p)
        assert np.abs(m.cdf(q) - p).max() <= 1e-12
        assert np.all(np.diff(q[:1999]) > 0)
        assert np.all(np.sign(q) == np.sign(p - 0.5))


class TestSampling:
    def test_deterministic_given_seed(self):
        p = StableParams(1.7, 0.0, 1.0, 0.0)
        a = stable_sample(p, 1000, seed=7)
        b = stable_sample(p, 1000, seed=7)
        assert np.array_equal(a, b)
        c = stable_sample(p, 1000, seed=8)
        assert not np.array_equal(a, c)

    def test_gaussian_ks(self):
        x = stable_sample(std(2.0), 20000, seed=1)
        stat = st.kstest(x, lambda v: st.norm.cdf(v, scale=np.sqrt(2))).statistic
        assert stat < 0.012

    def test_cauchy_ks(self):
        x = stable_sample(std(1.0), 20000, seed=2)
        assert st.kstest(x, st.cauchy.cdf).statistic < 0.012

    @pytest.mark.parametrize("alpha,beta", [(1.75, 0.0)])
    def test_ks_against_own_cdf(self, alpha, beta):
        p = StableParams(alpha, beta, 1.0, 0.0)
        n = 20000
        x = stable_sample(p, n, seed=11)
        stat = st.kstest(x, lambda v: stable_cdf(v, p)).statistic
        assert stat < 1.6 * 1.36 / np.sqrt(n)

    def test_heavy_tail_empirical_char_fn(self):
        # below alpha = 1 the CDF route is scalar quadrature, too slow for a
        # KS test, so the draws are checked against the characteristic
        # function E cos(uX) = exp(-(gamma |u|)^alpha) instead.  The window
        # of 4 standard errors rejects alpha = 0.75 and 0.85 at this n.
        p = StableParams(0.8, 0.0, 1.5, 0.0)
        n = 40000
        x = stable_sample(p, n, seed=11)
        for u in (0.05, 0.2, 0.7, 2.0):
            c = np.cos(u * x)
            assert abs(c.mean() - np.exp(-(1.5 * u) ** 0.8)) < 4.0 * c.std() / np.sqrt(n)

    def test_shapes_and_validation(self):
        x = stable_sample(std(1.5), 17, seed=0)
        assert x.shape == (17,)
        with pytest.raises(ConfigError):
            stable_sample(std(1.5), 0, seed=0)
        with pytest.raises(ConfigError):
            stable_sample(std(1.5), -3, seed=0)


# ---------------------------------------------------------------------------
# closure under averaging / summation


class TestAggregateParams:
    def test_identity_at_k1(self):
        p = StableParams(1.3, 0.0, 2.0, 0.7)
        q = aggregate_params(p, 1)
        assert (q.alpha, q.beta, q.gamma, q.delta) == (p.alpha, p.beta, p.gamma, p.delta)

    def test_gaussian_scaling(self):
        # mean of 4 iid S(2,0,1,0): gamma' = 4^{1/2-1} = 0.5
        q = aggregate_params(std(2.0), 4)
        assert q.gamma == pytest.approx(0.5, abs=1e-15)
        assert q.delta == 0.0

    def test_cauchy_scaling(self):
        # mean of Cauchy is Cauchy with the same scale
        q = aggregate_params(std(1.0), 9)
        assert q.gamma == pytest.approx(1.0, abs=1e-15)

    def test_heavy_scaling(self):
        q = aggregate_params(StableParams(0.75, 0.0, 2.0, 0.0), 8)
        assert q.gamma == pytest.approx(8.0 ** (1 / 0.75 - 1) * 2.0, rel=1e-14)

    def test_invalid_k(self):
        with pytest.raises(ConfigError):
            aggregate_params(std(1.5), 0)

    def test_monte_carlo_agreement(self):
        # empirical distribution of the mean matches the analytic parameters
        p = StableParams(1.75, 0.0, 1.0, 0.0)
        k, reps = 10, 20000
        rng_seed = 202
        draws = stable_sample(p, k * reps, seed=rng_seed).reshape(reps, k).mean(axis=1)
        agg = aggregate_params(p, k)
        stat = st.kstest(draws, lambda v: stable_cdf(v, agg)).statistic
        assert stat < 0.015

@given(
    alpha=hst.floats(0.5, 2.0),
    gamma=hst.floats(0.1, 5.0),
    k=hst.integers(1, 50),
)
@settings(max_examples=100, deadline=None)
def test_aggregate_gamma_power_law(alpha, gamma, k):
    p = StableParams(alpha, 0.0, gamma, 0.0)
    q = aggregate_params(p, k)
    assert q.gamma == pytest.approx(k ** (1 / alpha - 1) * gamma, rel=1e-12)
    assert q.alpha == alpha and q.beta == 0.0 and q.delta == 0.0

