"""Tests for p-value combination: frozen oracles, null exactness, invariants.

Reference values were computed with mpmath (dps=30) from the closed-form null
CDFs, independently of the scipy routines used in the implementation.
"""

import numpy as np
import pytest
import scipy.stats as st
from hypothesis import given, settings, strategies as hst

from citkit import (
    CLASSICAL_METHODS,
    ConfigError,
    DataError,
    StableParams,
    clamp_pvalues,
    combine_classical,
    combine_stable,
)
from citkit.cli import main

STD175 = StableParams(1.75, 0.0, 1.0, 0.0)
STD2 = StableParams(2.0, 0.0, 1.0, 0.0)

pvec = hst.lists(
    hst.floats(1e-6, 1.0 - 1e-6, allow_nan=False), min_size=1, max_size=12
)


# ---------------------------------------------------------------------------
# clamp_pvalues


class TestClamp:
    def test_clipping(self):
        out = clamp_pvalues([0.0, 0.5, 1.0], epsilon=1e-12)
        assert out[0] == 1e-12
        assert out[1] == 0.5
        assert out[2] == 1.0 - 1e-12

    def test_interior_unchanged(self):
        assert clamp_pvalues([0.5])[0] == 0.5

    def test_epsilon_range(self):
        with pytest.raises(ConfigError):
            clamp_pvalues([0.5], epsilon=0.5)
        with pytest.raises(ConfigError):
            clamp_pvalues([0.5], epsilon=0.0)

    def test_out_of_range_rejected(self):
        with pytest.raises(DataError):
            clamp_pvalues([-0.1, 0.5])
        with pytest.raises(DataError):
            clamp_pvalues([0.5, 1.3])
        with pytest.raises(DataError):
            clamp_pvalues([np.nan])


# ---------------------------------------------------------------------------
# combine_stable


class TestCombineStable:
    def test_symmetric_fixed_point(self):
        out = combine_stable([0.5] * 5, STD175)
        assert out.statistic == pytest.approx(0.0, abs=1e-10)
        assert out.p_combined == pytest.approx(0.5, abs=1e-10)
        assert out.K == 5 and out.method == "stable"

    def test_alpha2_reduces_to_stouffer_example(self):
        # mpmath: Phi(sqrt(2) * Phi^{-1}(0.1)) = 0.0349631633602531546
        out = combine_stable([0.1, 0.1], STD2)
        assert out.p_combined == pytest.approx(0.0349631633602532, abs=1e-9)

    def test_k1_identity(self):
        for params in (STD175, STD2, StableParams(1.0, 0.0, 1.0, 0.0),
                       StableParams(0.9, 0.0, 2.0, -1.0)):
            out = combine_stable([0.3], params)
            assert out.p_combined == pytest.approx(0.3, abs=1e-10)
            assert out.K == 1

    def test_domain_errors_for_boundary_p(self):
        with pytest.raises((ConfigError, DataError)):
            combine_stable([0.5, 0.0], STD175)
        with pytest.raises((ConfigError, DataError)):
            combine_stable([1.0], STD175)

    @given(pv=pvec)
    @settings(max_examples=60, deadline=None)
    def test_stouffer_reduction(self, pv):
        mine = combine_stable(pv, STD2)
        ref = combine_classical("stouffer", pv)
        assert mine.p_combined == pytest.approx(ref.p_combined, abs=1e-10)

    @given(pv=pvec, idx=hst.integers(0, 11), factor=hst.floats(0.1, 0.99))
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_each_coordinate(self, pv, idx, factor):
        idx = idx % len(pv)
        lowered = list(pv)
        lowered[idx] = lowered[idx] * factor
        hi = combine_stable(pv, STD175).p_combined
        lo = combine_stable(lowered, STD175).p_combined
        assert lo <= hi + 1e-12

    def test_permutation_invariance(self):
        pv = [0.01, 0.2, 0.77, 0.4, 0.03]
        a = combine_stable(pv, STD175)
        b = combine_stable(pv[::-1], STD175)
        assert a.p_combined == b.p_combined
        assert a.statistic == b.statistic

    def test_gamma_invariance_conjecture(self):
        # With delta = 0, the combined p-value should not depend on the
        # scale: quantiles and the aggregated CDF rescale together.
        pv = [0.04, 0.3, 0.6, 0.11]
        for alpha in (1.2, 1.75, 2.0):
            base = combine_stable(pv, StableParams(alpha, 0.0, 1.0, 0.0)).p_combined
            for gamma in (0.5, 2.0, 7.0):
                other = combine_stable(pv, StableParams(alpha, 0.0, gamma, 0.0)).p_combined
                assert other == pytest.approx(base, abs=1e-9)

    def test_uniform_null_light(self):
        # light version of the validity property (the acceptance suite runs
        # the full 1e5-replicate version across alpha)
        rng = np.random.default_rng(99)
        k, reps = 5, 8000
        u = rng.uniform(size=(reps, k))
        quant = np.asarray([combine_stable(row, STD175).p_combined for row in u])
        assert st.kstest(quant, "uniform").statistic < 0.02

    def test_power_increases_with_k(self):
        # under Beta(5, 95) alternatives the ensemble gets stronger with K
        rng = np.random.default_rng(7)
        reps = 800
        rates = {}
        for k in (1, 5, 20):
            pk = rng.beta(5.0, 95.0, size=(reps, k))
            rej = [combine_stable(row, STD175).p_combined <= 0.05 for row in pk]
            rates[k] = np.mean(rej)
        assert rates[5] > rates[1] + 0.05
        assert rates[20] > rates[5] - 0.02
        assert rates[20] > 0.9


# ---------------------------------------------------------------------------
# combine_classical


class TestCombineClassical:
    def test_fisher_example(self):
        out = combine_classical("fisher", [0.05, 0.05])
        assert out.statistic == pytest.approx(11.982929094215964, rel=1e-12)
        assert out.p_combined == pytest.approx(0.017478661367769955, abs=1e-12)

    def test_pearson_example(self):
        out = combine_classical("pearson", [0.05, 0.05])
        assert out.statistic == pytest.approx(0.205173177550202134, rel=1e-12)
        assert out.p_combined == pytest.approx(0.00491560363047128717, abs=1e-12)

    def test_tippett_example(self):
        out = combine_classical("tippett", [0.05, 0.05])
        assert out.statistic == 0.05
        assert out.p_combined == pytest.approx(0.0975, abs=1e-14)
        single = combine_classical("tippett", [0.05])
        assert single.p_combined == pytest.approx(0.05, abs=1e-14)

    def test_edgington_example(self):
        out = combine_classical("edgington", [0.1, 0.2, 0.3])
        assert out.statistic == pytest.approx(0.6)
        assert out.p_combined == pytest.approx(0.036, abs=1e-12)

    def test_mudholkar_example(self):
        out = combine_classical("mudholkar", [0.1, 0.2, 0.3])
        assert out.statistic == pytest.approx(-4.43081679884331362, rel=1e-12)
        assert out.p_combined == pytest.approx(0.0761849281385780721, abs=1e-9)

    def test_stouffer_examples(self):
        out = combine_classical("stouffer", [0.5, 0.5, 0.5])
        assert out.statistic == pytest.approx(0.0, abs=1e-12)
        assert out.p_combined == pytest.approx(0.5, abs=1e-12)
        out = combine_classical("stouffer", [0.1, 0.2, 0.3])
        assert out.statistic == pytest.approx(-2.64757331182555546, rel=1e-12)
        assert out.p_combined == pytest.approx(0.0631846503341941328, abs=1e-12)

    def test_liptak_is_rejected(self):
        # Liptak's p is Stouffer's by algebra, computed with cancellation
        # through 1 - p; stouffer is the one kept
        assert "liptak" not in CLASSICAL_METHODS
        with pytest.raises(ConfigError, match="unknown combination method 'liptak'"):
            combine_classical("liptak", [1e-12, 1e-12, 1e-12])
        with pytest.raises(SystemExit) as exit_info:
            main(["combine", "--method", "liptak", "1e-12", "1e-12", "1e-12"])
        assert exit_info.value.code == 2

    def test_unknown_method(self):
        with pytest.raises(ConfigError):
            combine_classical("acat", [0.5])

    def test_boundary_p_rejected(self):
        for method in CLASSICAL_METHODS:
            with pytest.raises(DataError):
                combine_classical(method, [0.0, 0.5])

    def test_edgington_k_limit(self):
        # above K = 30 the Normal(K/2, K/12) approximation takes over
        out = combine_classical("edgington", [0.5] * 31)
        assert out.p_combined == pytest.approx(0.5, abs=1e-9)

    def test_edgington_matches_scipy_irwinhall(self):
        rng = np.random.default_rng(3)
        for k in (2, 5, 12, 30):
            pv = rng.uniform(0.01, 0.99, size=k)
            out = combine_classical("edgington", pv)
            ref = st.irwinhall.cdf(np.sum(pv), k)
            assert out.p_combined == pytest.approx(float(ref), abs=1e-10)

    def test_irwin_hall_is_the_rounded_exact_sum(self):
        # the alternating sum at 60 digits, rounded once, is what exact
        # rational arithmetic must reproduce bit for bit
        mpmath = pytest.importorskip("mpmath")
        from citkit.combine import _irwin_hall_cdf

        def reference(x, k):
            with mpmath.workdps(60):
                xm = mpmath.mpf(x)
                total = sum((-1) ** j * mpmath.binomial(k, j) * (xm - j) ** k
                            for j in range(int(mpmath.floor(xm)) + 1))
                return float(total / mpmath.factorial(k))

        rng = np.random.default_rng(30)
        for k in range(1, 31):
            for x in np.concatenate([np.linspace(0, k, 9)[1:-1], rng.uniform(0, k, 12),
                                     [1e-4, k - 1e-4]]):
                assert _irwin_hall_cdf(float(x), k) == reference(float(x), k), (x, k)

    @pytest.mark.parametrize("method", CLASSICAL_METHODS)
    def test_uniform_null(self, method):
        # every classical combiner must hand back U(0,1) under the null
        rng = np.random.default_rng(21)
        k, reps = 6, 4000
        u = rng.uniform(size=(reps, k))
        out = np.asarray([combine_classical(method, row).p_combined for row in u])
        assert st.kstest(out, "uniform").statistic < 0.03

    @pytest.mark.parametrize("method", ["fisher", "stouffer", "edgington"])
    @given(pv=pvec, idx=hst.integers(0, 11), factor=hst.floats(0.1, 0.99))
    @settings(max_examples=40, deadline=None)
    def test_monotone(self, method, pv, idx, factor):
        idx = idx % len(pv)
        lowered = list(pv)
        lowered[idx] = lowered[idx] * factor
        hi = combine_classical(method, pv).p_combined
        lo = combine_classical(method, lowered).p_combined
        assert lo <= hi + 1e-12

    @pytest.mark.parametrize("method", CLASSICAL_METHODS)
    @given(pv=hst.permutations([0.03, 0.2, 0.55, 0.81, 0.44]))
    @settings(max_examples=20, deadline=None)
    def test_permutation_invariance(self, method, pv):
        a = combine_classical(method, pv)
        b = combine_classical(method, [0.03, 0.2, 0.55, 0.81, 0.44])
        assert a.p_combined == b.p_combined

    @pytest.mark.parametrize("method,null", [
        ("fisher", lambda stat, k: st.chi2.sf(stat, df=2 * k)),
        ("pearson", lambda stat, k: st.chi2.cdf(stat, df=2 * k)),
        ("mudholkar", lambda stat, k: st.t.cdf(
            np.sqrt(3.0 * (5 * k + 4) / (k * np.pi ** 2 * (5 * k + 2))) * stat, df=5 * k + 4)),
    ])
    def test_null_equals_scipy_stats_bit_for_bit(self, method, null):
        grid = np.concatenate([np.geomspace(1e-12, 0.5, 12), 1.0 - np.geomspace(1e-12, 0.5, 12)])
        rng = np.random.default_rng(8)
        for k in (1, 2, 3, 7, 20, 100):
            for _ in range(10):
                out = combine_classical(method, rng.choice(grid, size=k))
                assert out.p_combined == min(max(float(null(out.statistic, k)), 0.0), 1.0)

    def test_k1_each_method_near_identity(self):
        # at K=1 every combiner's null is the p-value itself, except the
        # Mudholkar-George t-approximation, which is only close
        for method in CLASSICAL_METHODS:
            out = combine_classical(method, [0.2])
            tol = 0.01 if method == "mudholkar" else 1e-9
            assert out.p_combined == pytest.approx(0.2, abs=tol), method
