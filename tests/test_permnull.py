"""Tests for the permutation-cumulant null of the trace statistic.

The moment tables are tied to brute-force enumeration over all n!
permutations in exact rational arithmetic, the compiled evaluator to a plain
walk over the table dicts and to exact rational cumulants, and the
feature-space invariants to the dense ones of the materialized Gram matrix.
"""

from fractions import Fraction

import numpy as np
import pytest

from citkit import _moment_derivation as md
from citkit._moment_tables import T1, T2, T3, T4
from citkit.permnull import dense_invariants, feature_invariants, permutation_cumulants

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
