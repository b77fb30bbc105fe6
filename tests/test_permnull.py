"""Tests for the permutation-cumulant null of the trace statistic.

The moment tables are tied to brute-force enumeration over all n!
permutations in exact rational arithmetic, the compiled evaluator to a plain
walk over the table dicts and to exact rational cumulants, and the
feature-space invariants to the dense ones of the materialized Gram matrix.
The two nulls the kernel tests end in are pinned: the moment fallback on an
input that reaches it, and the sampled permutation p of kcit and rcit.
"""

from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from citkit import _moment_derivation as md
from citkit._moment_tables import T1, T2, T3, T4
from citkit.cit import CITestSpec, kcit, rcit
from citkit.datagen import PnlConfig, gen_pnl
from citkit.errors import DataError
from citkit.permnull import (_gamma_upper_p, analytic_null_p, dense_invariants,
                             feature_invariants, permutation_cumulants, sampled_null_p)

TABLES = {1: T1, 2: T2, 3: T3, 4: T4}


def _walk(table, inv_a, inv_b, n):
    """Reference evaluator: a float walk over the table dict, entry by entry."""
    total = 0.0
    for (mon_a, mon_b, blocks), coeff in table.items():
        term = float(coeff)
        for name in mon_a:
            term *= inv_a[name]
        for name in mon_b:
            term *= inv_b[name]
        fall = 1.0
        for i in range(blocks):
            fall *= n - i
        total += term / fall
    return total


def _cumulants(e1, e2, e3, e4):
    k2 = e2 - e1 * e1
    k3 = e3 - 3 * e1 * e2 + 2 * e1 ** 3
    k4 = e4 - 4 * e1 * e3 + 6 * e1 * e1 * e2 - 3 * e1 ** 4 - 3 * k2 * k2
    return e1, k2, k3, k4


def _centered_gram(points):
    n = len(points)
    sq = ((points[:, None, :] - points[None, :, :]) ** 2).sum(axis=-1)
    C = np.eye(n) - 1.0 / n
    return C @ np.exp(-sq / 2.0) @ C


class TestMomentTables:
    @pytest.mark.parametrize("n", [5, 6])
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_table_matches_enumeration(self, m, n):
        rng = np.random.default_rng((m, n))
        A = md.random_centered(n, rng)
        B = md.random_centered(n, rng)
        exact = md.evaluate_table(TABLES[m], md.rational_invariants(A),
                                  md.rational_invariants(B), n)
        assert exact == md.brute_raw_moment(A, B, m)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_derivation_reproduces_shipped_table(self, m):
        assert md.derive_table(m) == TABLES[m]


class TestPermutationCumulants:
    @pytest.mark.parametrize("n", [8, 50, 200])
    def test_bit_identical_to_dict_walk(self, n):
        rng = np.random.default_rng(n)
        inv_a = dense_invariants(_centered_gram(rng.standard_normal((n, 2))))
        inv_b = dense_invariants(_centered_gram(rng.standard_normal((n, 1))))
        e1, k2, k3, k4, _ = permutation_cumulants(inv_a, inv_b, n)
        walked = _cumulants(*(_walk(TABLES[m], inv_a, inv_b, n) for m in (1, 2, 3, 4)))
        assert (e1, k2, k3, k4) == walked

    @pytest.mark.parametrize("n", [8, 12])
    def test_matches_exact_rational_cumulants(self, n):
        rng = np.random.default_rng(100 + n)
        A = md.random_centered(n, rng)
        B = md.random_centered(n, rng)
        ra, rb = md.rational_invariants(A), md.rational_invariants(B)
        exact = _cumulants(*(md.evaluate_table(TABLES[m], ra, rb, n) for m in (1, 2, 3, 4)))
        fa = {name: float(v) for name, v in ra.items()}
        fb = {name: float(v) for name, v in rb.items()}
        got = permutation_cumulants(fa, fb, n)
        for value, ref in zip(got[:4], exact):
            assert ref != 0
            assert abs(value - float(ref)) <= 1e-9 * abs(float(ref))
        v_lin = (ra["d"] - ra["t"] ** 2 / n) * (rb["d"] - rb["t"] ** 2 / n) / Fraction(n - 1)
        assert got[4] == pytest.approx(float(v_lin), rel=1e-12)

    def test_refuses_n_below_table_order(self):
        inv = dense_invariants(_centered_gram(np.arange(7.0)[:, None]))
        with pytest.raises(ValueError, match="n >= 8"):
            permutation_cumulants(inv, inv, 7)


class TestDenseInvariants:
    @pytest.mark.parametrize("n", [8, 65, 300])
    def test_scratch_buffers_change_nothing(self, n):
        M = _centered_gram(np.random.default_rng(n).standard_normal((n, 2)))
        want = {name: value.hex() for name, value in dense_invariants(M).items()}
        scratch = tuple(np.full((n, n), np.nan) for _ in range(3))
        for _ in range(2):  # NaN-filled buffers, then the ones the first pass left
            got = dense_invariants(M, _scratch=scratch)
            assert {name: value.hex() for name, value in got.items()} == want


class TestFeatureInvariants:
    @pytest.mark.parametrize("n, k", [(8, 5), (65, 3), (300, 20)])
    def test_scratch_buffer_changes_nothing(self, n, k):
        ex = np.random.default_rng((n, k)).standard_normal((n, k))
        want = {name: value.hex() for name, value in feature_invariants(ex).items()}
        # NaN-filled buffers of the exact size and larger, then the ones the
        # first pass left; a buffer too small is not used
        for size in (n * (k + 128), n * n + 3 * n * (k + 128), n * (k + 128) - 1):
            scratch = np.full(size, np.nan)
            for _ in range(2):
                got = feature_invariants(ex, _scratch=scratch)
                assert {name: value.hex() for name, value in got.items()} == want

    # n below, on and across one and two row blocks of the triangle sweep
    @pytest.mark.parametrize("k", [5, 100])
    @pytest.mark.parametrize("n", [8, 63, 64, 65, 127, 128, 129, 300, 2001])
    def test_matches_dense_invariants_of_gram(self, n, k):
        rng = np.random.default_rng((n, k))
        ex = rng.standard_normal((n, k))
        ex -= ex.mean(axis=0)
        A = ex @ ex.T
        dense = dense_invariants(A)
        scale = dense_invariants(np.abs(A))
        got = feature_invariants(ex)
        assert set(got) == set(dense)
        for name, ref in dense.items():
            assert abs(got[name] - ref) <= 1e-12 * scale[name], name


class TestGammaUpperP:
    def test_equals_scipy_stats_gamma_sf_bit_for_bit(self):
        for stat in (-5.0, -1e-12, 0.0, 1e-300, 1e-8, 0.3, 1.0, 2.5, 10.0, 50.0, 1e3):
            for mean, var in ((1.0, 1.0), (0.5, 2.0), (3.0, 0.2), (1e-3, 1e-7), (40.0, 5.0)):
                ref = stats.gamma.sf(stat, a=mean * mean / var, scale=var / mean)
                assert _gamma_upper_p(stat, mean, var) == float(ref)


class TestAnalyticNull:
    @staticmethod
    def fallback_input():
        """A = centred(a a' + diag(u)), B = centred(3 I - b b') at n = 12.

        B is indefinite, and its trace statistic has a negative third cumulant,
        which no normal-gamma convolution can match.
        """
        n = 12
        C = np.eye(n) - 1.0 / n
        rng = np.random.default_rng(0)
        a, b, u = rng.standard_normal(n), rng.standard_normal(n), rng.uniform(size=n)
        A = C @ (np.outer(a, a) + np.diag(u)) @ C
        B = C @ (3.0 * np.eye(n) - np.outer(b, b)) @ C
        return float((A * B).sum()), dense_invariants(A), dense_invariants(B), n

    def test_negative_third_cumulant_takes_the_flagged_gamma_fallback(self):
        stat, inv_a, inv_b, n = self.fallback_input()
        k1, k2, k3, _, _ = permutation_cumulants(inv_a, inv_b, n)
        assert k1 > 0 and k2 > 0 and k3 < 0
        p, flags = analytic_null_p(stat, inv_a, inv_b, n)
        assert flags == ("moment_fallback",)
        assert p == float(stats.gamma.sf(stat, a=k1 * k1 / k2, scale=k2 / k1))
        # the value the moment fallback gave before it moved into permnull
        assert (stat.hex(), p.hex()) == ("0x1.e05937ca23608p+4", "0x1.da2ab608c6192p-3")

    def test_fallback_with_non_positive_mean_raises(self):
        rng = np.random.default_rng(0)
        A = _centered_gram(rng.standard_normal((20, 1)))
        B = -_centered_gram(rng.standard_normal((20, 1)))
        k1, _, k3, _, _ = permutation_cumulants(dense_invariants(A), dense_invariants(B), 20)
        assert k1 <= 0 and k3 <= 0
        with pytest.raises(DataError, match="degenerate null moments"):
            analytic_null_p(float((A * B).sum()), dense_invariants(A), dense_invariants(B), 20)


class TestSampledNull:
    def test_p_counts_hits_with_the_finite_permutation_floor(self):
        def permuted(perm):
            return float(perm[0])
        assert sampled_null_p(np.inf, permuted, 10, 99, 0) == (0.01, ("permutation_null",))
        assert sampled_null_p(-np.inf, permuted, 10, 99, 0) == (1.0, ("permutation_null",))
        # perm[0] is uniform on 0..9, so about half the draws reach 5
        p, _ = sampled_null_p(5.0, permuted, 10, 999, 0)
        assert 0.4 < p < 0.6

    # p-values the tests' own permutation loops gave before they moved here
    @pytest.mark.parametrize("method, permutations, want", [
        ("kcit", 200, "0x1.978feb9f34381p-1"),
        ("rcit", 100, "0x1.f0cac5b3f5dc8p-2"),
    ])
    def test_kernel_tests_reproduce_their_pinned_p(self, method, permutations, want):
        data = gen_pnl(PnlConfig(hypothesis="H0", n=150, seed=2))
        test = kcit if method == "kcit" else rcit
        out = test(data, CITestSpec(method=method, permutations=permutations, seed=4))
        assert out.flags == ("permutation_null",)
        assert out.p.hex() == want
