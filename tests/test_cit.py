"""Tests for the base conditional independence tests.

Statistical claims are checked against independent oracles: closed-form
quantities (the half-normal median for the bandwidth heuristic, perfect
correlation for saturation), and Monte Carlo calibration windows under
generators whose ground truth is known by construction.  Seeds are fixed so
every rate below is a frozen, reproducible number.
"""

import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats
from scipy.linalg import cho_factor, cho_solve, lapack, solve_triangular
from scipy.spatial.distance import pdist, squareform

from citkit import cit, ensemble
from citkit.cit import (
    CITestSpec,
    _center,
    _gaussian_gram,
    _standardize,
    _whiten,
    _Workspace,
    DataTriple,
    fisher_z,
    kcit,
    median_heuristic,
    rcit,
    run_cit,
)
from citkit.cit import TestOutcome as CitOutcome
from citkit.datagen import PnlConfig, gen_pnl, gen_random_dag, simulate_scm
from citkit.ensemble import EnsembleConfig, ecit, partition
from citkit.errors import ConfigError, DataError, NumericalError
from citkit.permnull import (analytic_null_p, dense_invariants, feature_invariants,
                             sampled_null_p)


def _rep_seed(*key):
    return int(np.random.SeedSequence(key).generate_state(1, np.uint64)[0])


def gaussian_triple(n, seed, d_z=1):
    """x, y, z jointly independent standard normal: exact H0."""
    rng = np.random.default_rng(seed)
    return DataTriple(rng.standard_normal((n, 1)), rng.standard_normal((n, 1)),
                      rng.standard_normal((n, d_z)))


def rejection_rate(test, hypothesis, n, reps, level=0.05, tag=0):
    hits = 0
    for rep in range(reps):
        seed = _rep_seed(tag, n, hypothesis == "H1", rep)
        data = gen_pnl(PnlConfig(hypothesis=hypothesis, n=n, seed=seed))
        hits += test(data, seed).p <= level
    return hits / reps


class TestDataTriple:
    def test_rejects_mismatched_rows(self):
        with pytest.raises(DataError, match="row counts differ"):
            DataTriple(np.zeros((10, 1)), np.zeros((9, 1)), np.zeros((10, 1)))

    def test_rejects_non_finite(self):
        x = np.zeros((10, 1))
        x[3] = np.nan
        with pytest.raises(DataError, match="non-finite"):
            DataTriple(x, np.zeros((10, 1)), np.zeros((10, 1)))

    def test_rejects_tiny_samples(self):
        with pytest.raises(DataError, match="at least 8 rows"):
            DataTriple(np.zeros((7, 1)), np.zeros((7, 1)), np.zeros((7, 1)))

    def test_empty_conditioning_set_allowed(self):
        d = DataTriple(np.arange(10.0), np.arange(10.0), None)
        assert d.z.shape == (10, 0)

    def test_vectors_promoted_to_columns(self):
        d = DataTriple(np.arange(12.0), np.arange(12.0), np.arange(12.0))
        assert d.x.shape == (12, 1)
        assert d.n == 12

    def test_take_subsets_rows(self):
        d = gaussian_triple(20, seed=0)
        sub = d.take(np.arange(8))
        assert sub.n == 8
        assert np.array_equal(sub.x, d.x[:8])


class TestCITestSpec:
    def test_defaults(self):
        spec = CITestSpec()
        assert spec.method == "kcit"
        assert spec.num_features_xy == 100
        assert spec.ridge == 1e-3

    @pytest.mark.parametrize("kwargs", [
        {"method": "cmiknn"},
        {"num_features_xy": 4},
        {"num_features_z": 2},
        {"ridge": 0.0},
        {"ridge": 1.0},
        {"permutations": -1},
    ])
    def test_rejects_bad_settings(self, kwargs):
        with pytest.raises(ConfigError):
            CITestSpec(**kwargs)


class TestMedianHeuristic:
    def test_single_pair_distance(self):
        assert median_heuristic(np.array([[0.0], [3.0]])) == 3.0

    def test_three_point_enumeration(self):
        # pairwise distances of {0, 1, 2} are {1, 1, 2}; median is 1
        assert median_heuristic(np.array([[0.0], [1.0], [2.0]])) == 1.0

    def test_standard_normal_matches_half_normal_median(self):
        # |X - X'| with X, X' ~ N(0,1) is half-normal with scale sqrt(2),
        # whose median is sqrt(2) * PhiInv(0.75) = 0.95387.
        rng = np.random.default_rng(7)
        med = median_heuristic(rng.standard_normal((10_000, 1)))
        assert abs(med - np.sqrt(2.0) * stats.norm.ppf(0.75)) < 0.02

    def test_identical_rows_error(self):
        with pytest.raises(DataError, match="identical"):
            median_heuristic(np.ones((50, 2)))

    def test_needs_two_rows(self):
        with pytest.raises(DataError):
            median_heuristic(np.ones((1, 2)))

    def test_deterministic_thinning_beyond_1000_rows(self):
        rng = np.random.default_rng(3)
        pts = rng.standard_normal((5000, 2))
        assert median_heuristic(pts) == median_heuristic(pts)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 200, 201, 202, 1000, 1001, 2500])
    def test_equals_numpy_median_of_distances_bit_for_bit(self, n):
        # inputs rounded to one decimal, so that many distances tie; the
        # reference is the two-order-statistic np.median of Euclidean pdist
        rng = np.random.default_rng(n)
        for d in (1, 3):
            pts = np.round(rng.standard_normal((n, d)), 1)
            if n > 1000:
                ref_pts = pts[np.unique(np.linspace(0, n - 1, 1000).astype(int))]
            else:
                ref_pts = pts
            ref = float(np.median(pdist(ref_pts)))
            assert median_heuristic(pts).hex() == ref.hex()

    @pytest.mark.parametrize("value, name", [(np.nan, "nan"), (np.inf, "inf"), (-np.inf, "-inf")])
    def test_non_finite_points_are_named(self, value, name):
        pts = np.random.default_rng(4).standard_normal((50, 2))
        pts[7, 1] = value
        with pytest.raises(DataError, match=f"1 non-finite value\\(s\\): {name}$"):
            median_heuristic(pts)

    def test_overflowing_distances_raise(self):
        with pytest.raises(DataError, match="overflows"):
            median_heuristic(np.array([[0.0], [1e200], [2e200]]))

    def test_non_finite_rows_thinned_away_still_raise(self):
        pts = np.random.default_rng(5).standard_normal((2500, 1))
        pts[1] = np.nan  # not among the 1000 evenly spaced rows
        with pytest.raises(DataError, match="non-finite"):
            median_heuristic(pts)


class TestGaussianGram:
    @staticmethod
    def reference(block):
        # the construction before the shared pdist: a bandwidth from
        # np.median of Euclidean pdist, then the kernel on the square matrix
        pts = block
        if block.shape[0] > 1000:
            pts = block[np.unique(np.linspace(0, block.shape[0] - 1, 1000).astype(int))]
        sigma = 2.0 * float(np.median(pdist(pts)))
        K = squareform(pdist(block, "sqeuclidean"))
        np.negative(K, out=K)
        K /= 2.0 * sigma * sigma
        return np.exp(K, out=K)

    @pytest.mark.parametrize("n", [8, 9, 200, 201, 1000, 1001, 1500])
    def test_equals_square_matrix_construction_bit_for_bit(self, n):
        rng = np.random.default_rng(n)
        out, scratch = np.full((n, n), np.nan), np.full((n, n), np.nan)
        for d in (1, 3):
            block = np.round(rng.standard_normal((n, d)), 1)
            ref = self.reference(block)
            K = _gaussian_gram(block)
            assert K.dtype == np.float64 and K.flags.c_contiguous
            assert np.array_equal(K, ref)
            assert (K.diagonal() == 1.0).all()
            # into buffers a reused workspace hands out: NaN-filled on the
            # first pass, then holding the previous pass's Gram and distances
            assert _gaussian_gram(block, out=out, scratch=scratch) is out
            assert np.array_equal(out, ref)


class TestFisherZ:
    def test_identical_columns_saturate(self):
        x = np.random.default_rng(0).standard_normal((100, 1))
        out = fisher_z(DataTriple(x, x.copy(), None))
        assert out.p < 1e-10
        assert out.p == 0.0
        assert "saturated" in out.flags

    def test_uniform_under_independence(self):
        ps = [fisher_z(gaussian_triple(5000, seed=s, d_z=1)).p for s in range(1000)]
        assert stats.kstest(ps, "uniform").statistic < 0.05

    def test_level_under_gaussian_conditional_independence(self):
        # x = z + e1, y = z + e2: conditionally independent given z.
        hits = 0
        for s in range(1000):
            rng = np.random.default_rng(_rep_seed(5, s))
            z = rng.standard_normal((2000, 1))
            d = DataTriple(z + rng.standard_normal((2000, 1)),
                           z + rng.standard_normal((2000, 1)), z)
            hits += fisher_z(d).p <= 0.05
        assert 0.03 <= hits / 1000 <= 0.07

    def test_marginal_degeneration_with_empty_z(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((500, 1))
        y = 0.5 * x + rng.standard_normal((500, 1))
        out = fisher_z(DataTriple(x, y, None))
        r = np.corrcoef(x.ravel(), y.ravel())[0, 1]
        expected = np.sqrt(500 - 3) * np.arctanh(r)
        assert out.statistic == pytest.approx(expected, rel=1e-12)

    def test_collinear_conditioning_error(self):
        rng = np.random.default_rng(2)
        z1 = rng.standard_normal((100, 1))
        z = np.hstack([z1, 2.0 * z1])
        with pytest.raises(DataError, match="collinear"):
            fisher_z(DataTriple(rng.standard_normal((100, 1)),
                                rng.standard_normal((100, 1)), z))

    def test_x_linear_in_z_error(self):
        rng = np.random.default_rng(3)
        z = rng.standard_normal((100, 1))
        with pytest.raises(DataError, match="exact linear function"):
            fisher_z(DataTriple(3.0 * z + 1.0, rng.standard_normal((100, 1)), z))

    def test_requires_univariate_x_y(self):
        rng = np.random.default_rng(4)
        with pytest.raises(ConfigError):
            fisher_z(DataTriple(rng.standard_normal((50, 2)),
                                rng.standard_normal((50, 1)), None))

    def test_needs_enough_rows_for_dz(self):
        rng = np.random.default_rng(5)
        with pytest.raises(DataError, match="n > d_z \\+ 3"):
            fisher_z(DataTriple(rng.standard_normal((10, 1)),
                                rng.standard_normal((10, 1)),
                                rng.standard_normal((10, 7))))


class TestKcit:
    def test_type_one_error_window(self):
        rate = rejection_rate(lambda d, s: kcit(d, CITestSpec(method="kcit")),
                              "H0", 400, 500, tag=20)
        assert 0.02 <= rate <= 0.09

    def test_power_above_half_under_h1(self):
        rate = rejection_rate(lambda d, s: kcit(d, CITestSpec(method="kcit")),
                              "H1", 400, 200, tag=21)
        assert rate > 0.5

    def test_row_permutation_invariance(self):
        data = gen_pnl(PnlConfig(hypothesis="H1", n=300, seed=8))
        perm = np.random.default_rng(9).permutation(300)
        p1 = kcit(data, CITestSpec(method="kcit")).p
        p2 = kcit(data.take(perm), CITestSpec(method="kcit")).p
        assert p1 == pytest.approx(p2, abs=1e-8)

    def test_refuses_large_n(self):
        d = gaussian_triple(5001, seed=0)
        with pytest.raises(ConfigError, match="5000"):
            kcit(d, CITestSpec(method="kcit"))

    def test_constant_column_error_names_block(self):
        rng = np.random.default_rng(1)
        d = DataTriple(np.ones((50, 1)), rng.standard_normal((50, 1)),
                       rng.standard_normal((50, 1)))
        with pytest.raises(DataError, match="column 0 of x"):
            kcit(d, CITestSpec(method="kcit"))

    def test_permutation_null_flagged_and_valid(self):
        data = gaussian_triple(150, seed=11)
        out = kcit(data, CITestSpec(method="kcit", permutations=200, seed=4))
        assert out.flags == ("permutation_null",)
        assert out.p >= 1.0 / 201.0  # finite-permutation floor

    def test_unconditional_branch(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((200, 1))
        y = x + 0.3 * rng.standard_normal((200, 1))
        out = kcit(DataTriple(x, y, None), CITestSpec(method="kcit"))
        assert out.p < 0.01  # strong marginal dependence

    def test_warm_workspace_allocates_less_than_one_n_by_n_array(self):
        data = gen_pnl(PnlConfig(hypothesis="H0", n=400, d_z=3, seed=3))
        workspace = _Workspace()
        kcit(data, _workspace=workspace)
        tracemalloc.start()
        try:
            kcit(data, _workspace=workspace)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 400 * 400 * 8

    def test_reused_workspace_equals_fresh_one(self):
        # the storage grows, then serves smaller n from its stale contents
        workspace = _Workspace()
        for n, d_z, hypothesis in ((300, 3, "H1"), (400, 0, "H1"), (200, 1, "H0"),
                                   (400, 3, "H0"), (300, 0, "H0"), (50, 2, "H1")):
            data = gen_pnl(PnlConfig(hypothesis=hypothesis, n=n, d_z=max(d_z, 1), seed=n + d_z))
            if not d_z:
                data = DataTriple(data.x, data.y, None)
            got, want = kcit(data, _workspace=workspace), kcit(data)
            assert (got.p.hex(), got.statistic.hex(), got.flags) == \
                (want.p.hex(), want.statistic.hex(), want.flags)


def dense_kcit(data, spec=CITestSpec(method="kcit")):
    """kcit with every Gram built dense: (p, statistic, flags).

    Rz = eps (Kz + eps I)^-1 is solved dense by scipy's Cholesky, so the
    reference shares no code with kcit's regression on z.  Without z it is
    the arithmetic kcit had before its factor path, step for step, so a kcit
    whose two blocks both give their factors up must agree with it bit for
    bit.
    """
    n = data.n
    x, y = _standardize(data.x, "x"), _standardize(data.y, "y")
    if data.z.shape[1]:
        z = _standardize(data.z, "z")
        eps = spec.ridge * n
        Kz = _center(_gaussian_gram(z))
        Kz.flat[::n + 1] += eps
        Rz = cho_solve(cho_factor(Kz, lower=True), np.eye(n)) * eps
        A = Rz @ _center(_gaussian_gram(np.hstack([x, z]))) @ Rz
        B = Rz @ _center(_gaussian_gram(y)) @ Rz
    else:
        A, B = _center(_gaussian_gram(x)), _center(_gaussian_gram(y))
    stat = float((A * B).sum())
    if spec.permutations:
        p, flags = sampled_null_p(stat, lambda perm: (A[np.ix_(perm, perm)] * B).sum(),
                                  n, spec.permutations, spec.seed)
    else:
        p, flags = analytic_null_p(stat, dense_invariants(A), dense_invariants(B), n)
    return p, stat, flags


def _pnl_triple(n, d_z, hypothesis, seed):
    data = gen_pnl(PnlConfig(hypothesis=hypothesis, n=n, d_z=max(d_z, 1), seed=seed))
    return data if d_z else DataTriple(data.x, data.y, None)


def _scm_triple(n, d_z, seed):
    """x, y and d_z more columns of a Laplace SCM on the DAG of the pc_kcit benchmark.

    Its z columns depend on each other, so three of them give a Gram of rank
    84-109 at n = 200, where three independent PNL columns give 126-131.
    """
    values = simulate_scm(gen_random_dag(6, 0.3, seed=0), n, noise_dist="laplace",
                          seed=seed).values
    return DataTriple(values[:, :1], values[:, 1:2], values[:, 2:2 + d_z])


def _dpstrf_ranks(monkeypatch):
    """The rank of every :func:`cit._pivoted_cholesky` call from here on, in call order."""
    ranks = []
    factor = cit._pivoted_cholesky

    def counted(a, tol):
        rank, piv = factor(a, tol)
        ranks.append(rank)
        return rank, piv
    monkeypatch.setattr(cit, "_pivoted_cholesky", counted)
    return ranks


def _assert_near_the_dense_test(data):
    p, stat, flags = dense_kcit(data)
    out = kcit(data)
    assert abs(out.p - p) <= 1e-10
    assert out.statistic == pytest.approx(stat, rel=1e-8)
    assert out.flags == flags


class TestFactorPath:
    """kcit's pivoted-Cholesky factors against the dense Grams they replace."""

    @pytest.mark.parametrize("n", [200, 400])
    @pytest.mark.parametrize("d_z", [0, 1, 3])
    @pytest.mark.parametrize("hypothesis", ["H0", "H1"])
    def test_p_within_1e_10_of_the_dense_test(self, n, d_z, hypothesis, monkeypatch):
        # n = 200 is below the size where kcit factors x and y, so it is also
        # run with their factoring forced from 8 rows up
        for min_rows in sorted({cit._FACTOR_MIN_ROWS, 8}):
            monkeypatch.setattr(cit, "_FACTOR_MIN_ROWS", min_rows)
            for seed in range(10):
                data = _pnl_triple(n, d_z, hypothesis, seed)
                p, stat, flags = dense_kcit(data)
                out = kcit(data)
                assert abs(out.p - p) <= 1e-10
                assert out.statistic == pytest.approx(stat, rel=1e-8)
                assert out.flags == flags

    @pytest.mark.parametrize("n, d_z", [(200, 2), (400, 2), (300, 0), (300, 1), (300, 2),
                                        (300, 3)])
    @pytest.mark.parametrize("hypothesis", ["H0", "H1"])
    def test_p_within_1e_10_of_the_dense_test_at_d_z_2_and_n_300(self, n, d_z, hypothesis):
        for seed in range(10):
            _assert_near_the_dense_test(_pnl_triple(n, d_z, hypothesis, seed))

    @pytest.mark.parametrize("n, d_z", [(200, 3), (400, 2)])
    def test_p_within_1e_10_of_the_dense_test_on_dependent_z_columns(self, n, d_z):
        # z factors on 8 of the 10 seeds at n = 200 (ranks 84-125 against a
        # cap of 120) and on all of them at n = 400; at n = 200 both sides
        # are dense, so they go through the Woodbury update
        for seed in range(10):
            _assert_near_the_dense_test(_scm_triple(n, d_z, seed))

    @pytest.mark.parametrize("data", [_scm_triple(200, 3, seed=2), _pnl_triple(200, 1, "H1", 36),
                                      _pnl_triple(400, 3, "H1", 36), _pnl_triple(300, 2, "H0", 36)],
                             ids=["scm-200-3", "pnl-200-1", "pnl-400-3", "pnl-300-2"])
    def test_dense_side_from_the_update_is_exactly_symmetric(self, data):
        n = data.n
        x, y, z = (_standardize(block, "block") for block in (data.x, data.y, data.z))
        eps = 1e-3 * n
        sides, dense = cit._kcit_sides(x, y, z, eps, _Workspace())
        Rz = _center(_gaussian_gram(z))
        Rz.flat[::n + 1] += eps
        Rz = np.linalg.inv(Rz) * eps
        for side, is_dense, block in zip(sides, dense, (np.hstack([x, z]), y)):
            assert is_dense == (side.shape[1] == n)
            if not is_dense:
                continue
            assert np.array_equal(side, side.T)
            K = _center(_gaussian_gram(block))
            assert np.abs(side - Rz @ K @ Rz).max() <= 1e-12 * n
        assert any(dense)

    @pytest.mark.parametrize("data", [_scm_triple(200, 1, seed=7), _scm_triple(200, 3, seed=7),
                                      _pnl_triple(400, 2, "H1", 37)],
                             ids=["scm-200-1", "scm-200-3", "pnl-400-2"])
    def test_z_factor_matches_the_centred_gram_within_the_tolerance(self, data):
        n = data.n
        z = _standardize(data.z, "z")
        eps = 1e-3 * n
        ut = cit._z_factor(z, eps, _Workspace())
        r = ut.shape[0]
        assert r < n
        # U = Lz L^-T from scipy's own dpstrf, centred, and a triangular solve
        Kz = _center(_gaussian_gram(z))
        c, piv, rank, _ = lapack.dpstrf(_gaussian_gram(z), lower=1, tol=1e-12)
        Lz = np.zeros((n, r))
        Lz[piv - 1] = np.tril(c)[:, :r]
        Lz -= Lz.mean(axis=0)
        residual = Kz - Lz @ Lz.T
        # the residual is positive semidefinite up to rounding, so its trace
        # bounds every entry
        assert rank == r
        assert -1e-12 * n <= np.trace(residual) <= 1e-12 * n
        assert np.abs(residual).max() <= 1e-12 * n
        L = np.linalg.cholesky(Lz.T @ Lz + eps * np.eye(r))
        assert np.abs(ut - solve_triangular(L, Lz.T, lower=True)).max() <= 1e-12
        assert np.abs(ut.sum(axis=1)).max() <= 1e-10
        # I - U U' is the ridge regression on z, up to the factor's residual
        Kz.flat[::n + 1] += eps
        Rz = cho_solve(cho_factor(Kz, lower=True), np.eye(n)) * eps
        assert np.abs(np.eye(n) - ut.T @ ut - Rz).max() <= 1e-12 * n / eps + 1e-12

    @pytest.mark.parametrize("n, d_z", [(200, 4), (200, 6), (400, 6)])
    @pytest.mark.parametrize("hypothesis", ["H0", "H1"])
    def test_p_within_1e_10_of_the_dense_test_at_full_z_rank(self, n, d_z, hypothesis):
        # four independent columns give z a rank of 0.98 n and more at
        # n = 200, six a rank of n
        ranks = []
        for seed in range(10):
            data = _pnl_triple(n, d_z, hypothesis, seed)
            ranks.append(cit._z_factor(_standardize(data.z, "z"), 1e-3 * n, _Workspace()).shape[0])
            _assert_near_the_dense_test(data)
        assert min(ranks) >= 0.98 * n
        assert d_z < 6 or min(ranks) == n

    def test_dpstrf_argument_error_raises_numerical_error(self, monkeypatch):
        def fail(uplo, n, a, lda, piv, rank, tol, work, info):
            info.value = -4

        monkeypatch.setattr(cit, "_DPSTRF", fail)
        with pytest.raises(NumericalError, match="pivoted Cholesky .* info -4"):
            kcit(_pnl_triple(200, 1, "H0", seed=0))

    # z's rank is 84-125 at scm-200-3 and n at pnl-200-6, where L L' goes
    # into buffer 4
    @pytest.mark.parametrize("data", [_scm_triple(200, 3, seed=0), _pnl_triple(300, 2, "H1", 38),
                                      _pnl_triple(200, 6, "H0", 38)],
                             ids=["scm-200-3", "pnl-300-2", "pnl-200-6"])
    def test_warm_call_with_a_factored_z_allocates_less_than_one_n_by_n_array(self, data):
        n = data.n
        workspace = _Workspace()
        kcit(data, _workspace=workspace)
        tracemalloc.start()
        try:
            kcit(data, _workspace=workspace)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8

    @pytest.mark.parametrize("d_z, taken", [(0, {0, 3, 4}), (1, {0, 3, 4}), (3, {0, 1, 3, 4})])
    def test_workspace_allocates_only_the_buffers_a_call_takes(self, d_z, taken):
        # at n = 400 every block with one or two columns factors, and its
        # Gram and the Gram's distances sit in buffers 4 and 3 while it is
        # factored; with three columns of z, (x, z) is dense and takes its
        # Gram's buffer, the distance and update buffer 3 and the update's
        # buffer 4
        workspace = _Workspace()
        kcit(_pnl_triple(400, d_z, "H1", seed=39), _workspace=workspace)
        assert {i for i, flat in enumerate(workspace._flat) if flat is not None} == taken

    def test_z_and_both_blocks_are_factored_by_dpstrf(self, monkeypatch):
        ranks = _dpstrf_ranks(monkeypatch)
        kcit(_pnl_triple(400, 1, "H1", seed=39))
        # z, (x, z) and y, each within the cap of n / 4
        assert len(ranks) == 3
        assert max(ranks) <= 100

    @pytest.mark.parametrize("d_z", [0, 1, 2, 3])
    def test_factor_matches_the_centred_gram_within_the_tolerance(self, d_z):
        n = 400
        data = gen_pnl(PnlConfig(hypothesis="H1", n=n, d_z=max(d_z, 1), seed=31))
        block = _standardize(data.y if not d_z else data.z[:, :d_z], "block")
        K = _gaussian_gram(block)
        r, piv = cit._pivoted_cholesky(K, 1e-12)
        L = cit._centred_factor(K.reshape(-1), r, piv, K.reshape(-1)[r * n:]).T
        assert L.shape[1] < n
        assert np.array_equal(cit._side_factor(block, n, _Workspace()), L)
        residual = _center(_gaussian_gram(block)) - L @ L.T
        # the residual is positive semidefinite up to rounding, so its trace
        # bounds every entry
        assert -1e-12 * n <= np.trace(residual) <= 1e-12 * n
        assert np.abs(residual).max() <= 1e-12 * n
        assert np.abs(L.sum(axis=0)).max() <= 1e-10

    @pytest.mark.parametrize("d_z", [0, 1])
    def test_warm_factored_call_allocates_less_than_one_n_by_n_array(self, d_z):
        data = _pnl_triple(400, d_z, "H1", seed=35)
        workspace = _Workspace()
        kcit(data, _workspace=workspace)
        tracemalloc.start()
        try:
            kcit(data, _workspace=workspace)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 400 * 400 * 8

    @pytest.mark.parametrize("columns", [(6, 6, 0), (6, 6, 6), (1, 6, 0), (6, 1, 0),
                                         (1, 1, 6)])
    def test_blocks_past_the_cap_take_the_dense_path(self, columns, monkeypatch):
        # six independent columns give a Gram of rank near n: every x or y
        # block with six gives its factor up, and with none factored and no
        # z the test is the dense one bit for bit; z's factor has rank n
        rng = np.random.default_rng(33)
        dx, dy, dz = columns
        x = rng.standard_normal((400, dx))
        y = x[:, :1] ** 2 + rng.standard_normal((400, dy))
        z = rng.standard_normal((400, dz)) if dz else None
        data = DataTriple(x, y, z)
        p, stat, flags = dense_kcit(data)
        ranks = _dpstrf_ranks(monkeypatch)
        out = kcit(data)
        # one dpstrf for z, whose rank n rules (x, z) out, or for x, and one
        # for y; a block past the cap of 100 is not factored again
        assert [rank > 100 for rank in ranks] == [6 in (dx, dz), dy == 6]
        if 1 not in columns and not dz:
            assert (out.p.hex(), out.statistic.hex(), out.flags) == (p.hex(), stat.hex(), flags)
        else:
            assert abs(out.p - p) <= 1e-10
            assert out.statistic == pytest.approx(stat, rel=1e-8)
            assert out.flags == flags

    @pytest.mark.parametrize("columns", [(1, 1, 1), (1, 1, 3), (1, 6, 0)])
    def test_sampled_null_equals_the_dense_one(self, columns):
        rng = np.random.default_rng(34)
        dx, dy, dz = columns
        x = rng.standard_normal((400, dx))
        y = np.tanh(x[:, :1]) + rng.standard_normal((400, dy))
        data = DataTriple(x, y, rng.standard_normal((400, dz)) if dz else None)
        spec = CITestSpec(method="kcit", permutations=60, seed=7)
        p, _, flags = dense_kcit(data, spec)
        out = kcit(data, spec)
        assert (out.p, out.flags) == (p, flags)


def _ridge_matrix(n, d_z, seed):
    """kcit's ridge matrix on z's factor: Lz' Lz plus 1e-3 n on its diagonal, and Lz'."""
    z = np.random.default_rng(seed).standard_normal((n, d_z))
    c, piv, rank, _ = lapack.dpstrf(_gaussian_gram(z), lower=1, tol=1e-12)
    lt = np.ascontiguousarray(np.tril(c)[:, :rank].T)
    g = lt @ lt.T
    g.flat[::rank + 1] += 1e-3 * n
    return g, lt


class TestRidgeInverse:
    @pytest.mark.parametrize("n", [8, 63, 200, 401])
    def test_center_is_bit_symmetric(self, n):
        K = _center(_gaussian_gram(np.random.default_rng(n).standard_normal((n, 2))))
        assert np.array_equal(K, K.T)
        assert abs(K.sum(axis=0)).max() < 1e-10 * n

    @pytest.mark.parametrize("n", [50, 200, 257, 400])
    def test_center_in_a_scratch_is_the_formula_bit_for_bit(self, n):
        K = _gaussian_gram(np.random.default_rng(n).standard_normal((n, 2)))
        m = K.mean(axis=0)
        want = K - (m[:, None] + m) + m.mean()
        scratch = np.empty((n, n))
        got = _center(K.copy(), scratch)
        assert got.tobytes() == want.tobytes() == _center(K.copy()).tobytes()
        tracemalloc.start()
        try:
            _center(K, scratch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * n * 8  # the row sums go into the scratch

    @pytest.mark.parametrize("n", [8, 63, 200, 401])
    def test_matches_cholesky_solve(self, n):
        g, lt = _ridge_matrix(n, 2, seed=n)
        ref = solve_triangular(cho_factor(g, lower=True)[0], lt, lower=True)
        got = _whiten(g.copy(), lt.copy())
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("n", [8, 63, 64, 65, 200, 401])
    def test_update_is_bit_symmetric(self, n):
        # the update's mirror works in 64-row blocks
        rng = np.random.default_rng(n)
        workspace = _Workspace()
        ut = cit._z_factor(rng.standard_normal((n, 3)), 1e-3 * n, workspace)
        K = _center(_gaussian_gram(rng.standard_normal((n, 2))))
        Rz = np.eye(n) - ut.T @ ut
        want = Rz @ K @ Rz
        got = cit._woodbury_regress(K, ut, workspace)
        assert np.array_equal(got, got.T)
        assert np.abs(got - want).max() <= 1e-12 * n

    def test_two_threads_match_one(self):
        pairs = [_ridge_matrix(200, 1, seed=s) for s in range(8)]
        serial = [_whiten(g.copy(), lt.copy()) for g, lt in pairs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=2) as pool:
                for _ in range(5):
                    pooled = list(pool.map(lambda pair: _whiten(pair[0].copy(), pair[1].copy()),
                                           pairs, timeout=60))
                    assert all(np.array_equal(a, b) for a, b in zip(pooled, serial))
        finally:
            sys.setswitchinterval(interval)

    def test_not_positive_definite_raises(self):
        g = np.eye(5)
        g[3, 3] = -1.0
        with pytest.raises(NumericalError, match="Cholesky factorization .* info 4"):
            _whiten(g, np.ones((5, 7)))

    def test_rejects_fortran_order(self):
        g, lt = _ridge_matrix(10, 1, seed=0)
        with pytest.raises(ValueError, match="C-contiguous"):
            _whiten(np.asfortranarray(g), lt)
        with pytest.raises(ValueError, match="C-contiguous"):
            _whiten(g, np.asfortranarray(lt))


class TestRcit:
    def test_type_one_error_window(self):
        rate = rejection_rate(lambda d, s: rcit(d, CITestSpec(method="rcit", seed=s)),
                              "H0", 400, 500, tag=30)
        assert 0.02 <= rate <= 0.09

    def test_power_window_heavy_tailed_noise(self):
        # t(4) noise at n=1200: powerful but not saturated.
        rate = rejection_rate(lambda d, s: rcit(d, CITestSpec(method="rcit", seed=s)),
                              "H1", 1200, 200, tag=31)
        assert 0.75 <= rate <= 0.92

    def test_deterministic_given_seed(self):
        data = gen_pnl(PnlConfig(hypothesis="H1", n=400, seed=13))
        a = rcit(data, CITestSpec(method="rcit", seed=99))
        b = rcit(data, CITestSpec(method="rcit", seed=99))
        assert a.p == b.p
        assert a.statistic == b.statistic

    def test_different_feature_seeds_differ(self):
        data = gen_pnl(PnlConfig(hypothesis="H0", n=400, seed=13))
        a = rcit(data, CITestSpec(method="rcit", seed=1))
        b = rcit(data, CITestSpec(method="rcit", seed=2))
        assert a.p != b.p

    def test_permutation_null_flagged(self):
        data = gaussian_triple(200, seed=14)
        out = rcit(data, CITestSpec(method="rcit", permutations=100, seed=5))
        assert out.flags == ("permutation_null",)
        assert out.p >= 1.0 / 101.0

    def test_unconditional_branch(self):
        rng = np.random.default_rng(15)
        x = rng.standard_normal((300, 1))
        y = np.tanh(x) + 0.3 * rng.standard_normal((300, 1))
        out = rcit(DataTriple(x, y, None), CITestSpec(method="rcit", seed=0))
        assert out.p < 0.01


def _reference_rcit(data, spec):
    """rcit as it stood before it shared kcit's z regression: (p, statistic, flags).

    Random Fourier features of (x, z), y and z, centred; x's and y's are
    ridge-regressed on z's by a Cholesky solve of fz'fz / n + ridge I, and
    the statistic is n |ex'ey / n|^2, calibrated on the unscaled trace.
    """
    n, dz = data.n, data.z.shape[1]
    rng = np.random.default_rng(spec.seed)

    def rff(block, k):
        sigma = cit._RCIT_BANDWIDTH_SCALE * median_heuristic(block)
        W = rng.normal(0.0, 1.0 / sigma, size=(block.shape[1], k))
        b = rng.uniform(0.0, 2.0 * np.pi, size=k)
        f = np.cos(block @ W + b) * np.sqrt(2.0 / k)
        return f - f.mean(axis=0)

    x, y = _standardize(data.x, "x"), _standardize(data.y, "y")
    if dz:
        z = _standardize(data.z, "z")
        ex = rff(np.hstack([x, z]), spec.num_features_xy)
        ey = rff(y, spec.num_features_xy)
        fz = rff(z, spec.num_features_z)
        chol = cho_factor(fz.T @ fz / n + spec.ridge * np.eye(fz.shape[1]), lower=True)
        ex = ex - fz @ cho_solve(chol, fz.T @ ex / n)
        ey = ey - fz @ cho_solve(chol, fz.T @ ey / n)
    else:
        ex, ey = rff(x, spec.num_features_xy), rff(y, spec.num_features_xy)
    cross = ex.T @ ey / n
    stat = float(n * (cross * cross).sum())
    if spec.permutations > 0:
        def permuted(perm):
            c = ex.T @ ey[perm] / n
            return n * (c * c).sum()
        p, flags = sampled_null_p(stat, permuted, n, spec.permutations, spec.seed + 1)
    else:
        p, flags = analytic_null_p(n * stat, feature_invariants(ex), feature_invariants(ey), n)
    return p, stat, flags


class TestRcitAgainstReference:
    """rcit on kcit's z regression and null against its own Cholesky-solve form."""

    @staticmethod
    def _data(n, d_z, hypothesis):
        data = gen_pnl(PnlConfig(hypothesis=hypothesis, n=n, d_z=max(d_z, 1),
                                 seed=_rep_seed(60, n, d_z, hypothesis == "H1")))
        return data if d_z else DataTriple(data.x, data.y, None)

    # n = 100 is as many rows as rcit's default features: both sides are square
    @pytest.mark.parametrize("hypothesis", ["H0", "H1"])
    @pytest.mark.parametrize("d_z", [0, 1, 2, 3])
    @pytest.mark.parametrize("n", [100, 150, 400, 2000])
    def test_matches_the_cholesky_solve_reference(self, n, d_z, hypothesis):
        data = self._data(n, d_z, hypothesis)
        spec = CITestSpec(method="rcit", seed=n + d_z)
        out = rcit(data, spec)
        p, stat, flags = _reference_rcit(data, spec)
        assert abs(out.p - p) <= 1e-12
        assert abs(out.statistic - stat) <= 1e-12 * stat
        assert out.flags == flags

    @pytest.mark.parametrize("d_z", [0, 1, 2, 3])
    @pytest.mark.parametrize("n", [100, 150])
    def test_sampled_null_matches_the_reference(self, n, d_z):
        data = self._data(n, d_z, "H0")
        spec = CITestSpec(method="rcit", seed=7 + d_z, permutations=60)
        out = rcit(data, spec)
        p, stat, flags = _reference_rcit(data, spec)
        assert out.p == p
        assert abs(out.statistic - stat) <= 1e-12 * stat
        assert out.flags == flags == ("permutation_null",)

    @pytest.mark.parametrize("d_z", [0, 2])
    def test_ensemble_of_100_row_subsets_matches_the_reference(self, d_z):
        # every subset has as many rows as rcit's default features
        data = self._data(400, d_z, "H1")
        base, config = CITestSpec(method="rcit"), EnsembleConfig(n_k=100, seed=3)
        out = ecit(data, base, config)
        subsets = partition(data, config)
        assert [s.n for s in subsets] == [100] * 4
        for k, (subset, p) in enumerate(zip(subsets, out.subtest_ps)):
            ref, _, _ = _reference_rcit(subset, replace(base, seed=ensemble._subset_seed(3, k)))
            assert abs(p - ref) <= 1e-12

    def test_feature_invariants_is_called_through_the_cit_module(self, monkeypatch):
        # a tracer wraps cit.feature_invariants; both rcit sides must reach it there
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[0].shape)
            return feature_invariants(*args, **kwargs)
        monkeypatch.setattr(cit, "feature_invariants", counted)
        rcit(self._data(400, 2, "H0"), CITestSpec(method="rcit"))
        assert calls == [(400, 100), (400, 100)]


class TestUniformityUnderIndependence:
    """p-values under exact independence are uniform for every test."""

    @pytest.mark.parametrize("method", ["fisherz", "kcit", "rcit"])
    def test_ks_uniformity(self, method):
        ps = []
        for s in range(1000):
            data = gaussian_triple(400, seed=_rep_seed(40, s))
            ps.append(run_cit(data, CITestSpec(method=method, seed=s)).p)
        # critical KS value at the 0.01 level for 1000 samples
        assert stats.kstest(ps, "uniform").statistic < 1.63 / np.sqrt(1000)


class TestScaleInvariance:
    def test_fisher_z_scale_invariant(self):
        d = gaussian_triple(500, seed=16)
        scaled = DataTriple(7.3 * d.x, d.y, d.z)
        assert abs(fisher_z(d).p - fisher_z(scaled).p) < 1e-10

    @pytest.mark.parametrize("block", ["x", "y", "z"])
    def test_kcit_block_rescaling(self, block):
        d = gaussian_triple(250, seed=17)
        kwargs = {"x": d.x, "y": d.y, "z": d.z}
        kwargs[block] = 42.0 * kwargs[block]
        p0 = kcit(d, CITestSpec(method="kcit")).p
        p1 = kcit(DataTriple(**kwargs), CITestSpec(method="kcit")).p
        assert p0 == pytest.approx(p1, abs=1e-9)

    @pytest.mark.parametrize("block", ["x", "y", "z"])
    def test_rcit_block_rescaling(self, block):
        d = gaussian_triple(250, seed=18)
        kwargs = {"x": d.x, "y": d.y, "z": d.z}
        kwargs[block] = 0.01 * kwargs[block]
        p0 = rcit(d, CITestSpec(method="rcit", seed=3)).p
        p1 = rcit(DataTriple(**kwargs), CITestSpec(method="rcit", seed=3)).p
        assert p0 == pytest.approx(p1, abs=1e-9)


class TestConsistencyTrend:
    """Power is nondecreasing in n under the alternative, within MC error."""

    @pytest.mark.parametrize("method", ["fisherz", "kcit", "rcit"])
    def test_power_nondecreasing_in_n(self, method):
        def test(d, s):
            return run_cit(d, CITestSpec(method=method, seed=s))

        tag = {"fisherz": 50, "kcit": 51, "rcit": 52}[method]
        rates = [rejection_rate(test, "H1", n, 200, tag=tag) for n in (200, 400, 800)]
        assert rates[1] >= rates[0] - 0.03
        assert rates[2] >= rates[1] - 0.03


class TestDeterminism:
    @pytest.mark.parametrize("method", ["fisherz", "kcit", "rcit"])
    def test_same_inputs_same_outcome(self, method):
        data = gen_pnl(PnlConfig(hypothesis="H1", n=300, seed=19))
        spec = CITestSpec(method=method, seed=7)
        a, b = run_cit(data, spec), run_cit(data, spec)
        assert a.p == b.p
        assert a.statistic == b.statistic
        assert a.method == b.method


class TestRunCit:
    def test_dispatch_matches_direct_calls(self):
        data = gaussian_triple(200, seed=20)
        assert run_cit(data, CITestSpec(method="fisherz")).method == "fisherz"
        assert run_cit(data, CITestSpec(method="kcit")).method == "kcit"
        assert run_cit(data, CITestSpec(method="rcit", seed=0)).method == "rcit"

    def test_outcome_fields(self):
        out = run_cit(gaussian_triple(200, seed=21), CITestSpec(method="kcit"))
        assert isinstance(out, CitOutcome)
        assert 0.0 <= out.p <= 1.0
        assert out.n_used == 200
        assert out.elapsed >= 0.0
