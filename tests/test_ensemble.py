"""Tests for the divide-and-aggregate ensemble engine."""

import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

import citkit
from citkit import bench, ensemble
from citkit.bench import ExperimentConfig, MethodSpec
from citkit.cit import CITestSpec, DataTriple, run_cit
from citkit.datagen import PnlConfig, gen_pnl
from citkit.ensemble import EnsembleConfig, ecit, partition
from citkit.errors import ConfigError, DataError


def _force_workers(monkeypatch, workers):
    monkeypatch.setattr(ensemble, "_subtest_workers", lambda K: min(K, workers))


def _constant_z_rows(*row_ranges):
    rng = np.random.default_rng(0)
    z = rng.standard_normal((2000, 1))
    for lo, hi in row_ranges:
        z[lo:hi] = 1.0
    return DataTriple(rng.standard_normal((2000, 1)), rng.standard_normal((2000, 1)), z)


class TestDegenerateSubset:
    def test_one_constant_subset_fails_the_run_and_names_it(self):
        data = _constant_z_rows((0, 40))
        config = EnsembleConfig(n_k=40, partition_policy="sequential")
        with pytest.raises(DataError, match=r"^subtest 0 of 50: column 0 of z is constant"):
            ecit(data, CITestSpec(method="kcit"), config)

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_two_constant_subsets_name_the_lowest(self, monkeypatch, workers):
        _force_workers(monkeypatch, workers)
        data = _constant_z_rows((0, 40), (120, 160))
        config = EnsembleConfig(n_k=40, partition_policy="sequential")
        with pytest.raises(DataError, match=r"^subtest 0 of 50: column 0 of z is constant"):
            ecit(data, CITestSpec(method="kcit"), config)


class TestPool:
    @pytest.mark.parametrize("K", [1, 2, 5])
    @pytest.mark.parametrize("method", ["kcit", "rcit"])
    def test_pooled_run_equals_serial_run(self, monkeypatch, method, K):
        data = gen_pnl(PnlConfig(hypothesis="H1", n=400, d_z=2, seed=11))
        spec = CITestSpec(method=method, num_features_xy=20, num_features_z=20)
        config = EnsembleConfig(K=K, seed=5)
        _force_workers(monkeypatch, 1)
        serial = ecit(data, spec, config)
        _force_workers(monkeypatch, 2)
        pooled = ecit(data, spec, config)
        assert pooled.p.hex() == serial.p.hex()
        assert [p.hex() for p in pooled.subtest_ps] == [p.hex() for p in serial.subtest_ps]
        assert len(pooled.subtest_ps) == K

    def test_more_workers_than_cores_under_fast_switching(self, monkeypatch):
        # a lost update of the shared index would skip or repeat a subset
        data = gen_pnl(PnlConfig(hypothesis="H1", n=4000, d_z=1, seed=3))
        spec = CITestSpec(method="fisherz")
        config = EnsembleConfig(n_k=50, seed=2)
        _force_workers(monkeypatch, 1)
        serial = ecit(data, spec, config)
        _force_workers(monkeypatch, 8)
        pool = ThreadPoolExecutor(max_workers=7)
        monkeypatch.setattr(ensemble, "_POOL", pool)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runs = [ecit(data, spec, config) for _ in range(5)]
        finally:
            sys.setswitchinterval(interval)
            pool.shutdown(wait=True)
        for run in runs:
            assert run.subtest_ps == serial.subtest_ps
            assert run.p == serial.p

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("d_z", [0, 2])
    def test_reused_workspaces_match_standalone_kcit(self, monkeypatch, d_z, workers):
        # each draining thread reuses one workspace; merge_last makes the
        # last subset larger, so a workspace grows between its subtests
        data = gen_pnl(PnlConfig(hypothesis="H1", n=1000, d_z=max(d_z, 1), seed=21))
        if not d_z:
            data = DataTriple(data.x, data.y, None)
        spec = CITestSpec(method="kcit")
        config = EnsembleConfig(n_k=300, seed=4, remainder_policy="merge_last")
        _force_workers(monkeypatch, workers)
        out = ecit(data, spec, config)
        subsets = partition(data, config)
        assert [s.n for s in subsets] == [300, 300, 400]
        want = [run_cit(s, replace(spec, seed=ensemble._subset_seed(4, k))).p
                for k, s in enumerate(subsets)]
        assert [p.hex() for p in out.subtest_ps] == [p.hex() for p in want]


class TestWorkerRule:
    @pytest.fixture
    def two_cores(self, monkeypatch):
        monkeypatch.setattr(ensemble.os, "sched_getaffinity", lambda pid: {0, 1},
                            raising=False)
        for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
            monkeypatch.delenv(name, raising=False)
        return monkeypatch

    def test_unpinned_blas_gives_one_worker(self, two_cores):
        assert ensemble._subtest_workers(10) == 1

    def test_one_omp_thread_on_two_cores_gives_two(self, two_cores):
        two_cores.setenv("OMP_NUM_THREADS", "1")
        assert ensemble._subtest_workers(10) == 2

    def test_one_subtest_gives_one_worker(self, two_cores):
        two_cores.setenv("OMP_NUM_THREADS", "1")
        assert ensemble._subtest_workers(1) == 1

    def test_openblas_variable_comes_first(self, two_cores):
        two_cores.setenv("OPENBLAS_NUM_THREADS", "2")
        two_cores.setenv("OMP_NUM_THREADS", "1")
        assert ensemble._subtest_workers(10) == 1

    @pytest.mark.parametrize("value", ["0", "", "many"])
    def test_unusable_value_is_skipped(self, two_cores, value):
        two_cores.setenv("OPENBLAS_NUM_THREADS", value)
        two_cores.setenv("GOTO_NUM_THREADS", "1")
        assert ensemble._subtest_workers(10) == 2


class TestPartition:
    @pytest.mark.parametrize("remainder", ["drop", "merge_last"])
    @pytest.mark.parametrize("policy", ["shuffle", "sequential"])
    @pytest.mark.parametrize("size", [{"n_k": 10}, {"K": 7}])
    def test_index_set_stays_whole(self, policy, remainder, size):
        n = 103
        rng = np.random.default_rng(1)
        data = DataTriple(np.arange(n, dtype=float), rng.standard_normal(n), None)
        config = EnsembleConfig(partition_policy=policy, remainder_policy=remainder,
                                seed=9, **size)
        subsets = partition(data, config)
        K = n // 10 if "n_k" in size else 7
        n_k = n // K
        assert len(subsets) == K
        assert [s.n for s in subsets[:-1]] == [n_k] * (K - 1)
        rows = np.concatenate([s.x[:, 0] for s in subsets]).astype(int)
        assert len(set(rows)) == rows.size                     # disjoint
        assert set(rows) <= set(range(n))
        if remainder == "merge_last":
            assert sorted(rows) == list(range(n))
        else:
            assert rows.size == K * n_k
        if policy == "sequential":
            assert list(rows) == list(range(rows.size))
        for s in subsets:                                       # rows move whole
            np.testing.assert_array_equal(s.y[:, 0], data.y[s.x[:, 0].astype(int), 0])


class TestSingleSubset:
    # the tolerance of the quantile round trip in tests/test_stable.py
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("method", ["kcit", "fisherz"])
    def test_k1_returns_the_base_p(self, method, seed):
        data = gen_pnl(PnlConfig(hypothesis="H0", n=300, d_z=1, seed=seed))
        spec = CITestSpec(method=method)
        base = run_cit(data, spec)
        out = ecit(data, spec, EnsembleConfig(K=1, partition_policy="sequential"))
        assert out.subtest_ps == (base.p,)
        assert out.p == pytest.approx(base.p, abs=1e-8)


class TestTypeOneRateForAnyK:
    # Pooling K subset p-values keeps the base test's level, for any K.  The
    # base test must hold its level first: fisherz is linear, so f_X and f_Y
    # are fixed to the identity (drawn at random, it rejects about 16 % of
    # these H0 samples already at K = 1).  Window as for the base tests.
    @pytest.mark.parametrize("K", [1, 2, 5, 10])
    def test_fisherz_ensemble_window(self, K):
        hits = 0
        for rep in range(1000):
            seed = int(np.random.SeedSequence((70, 2000, K, rep)).generate_state(1, np.uint64)[0])
            data = gen_pnl(PnlConfig(hypothesis="H0", n=2000, fx="identity", fy="identity",
                                     seed=seed))
            out = ecit(data, CITestSpec(method="fisherz"), EnsembleConfig(K=K, seed=seed))
            hits += out.p <= 0.05
        assert 0.02 <= hits / 1000 <= 0.09


class TestSubtestPvalueSets:
    def test_equals_per_subset_derivation(self):
        ms = MethodSpec(label="ercit", method="rcit",
                        ensemble=EnsembleConfig(n_k=100),
                        options={"num_features_xy": 20, "num_features_z": 20})
        config = ExperimentConfig(kind="combiner_compare", grid={"n": 300, "d_z": 1},
                                  methods=(ms,), reps=3, seed=8)
        point = config.grid_points()[0]
        (got,) = bench._replicate_outcomes(config, "H0", point, 0, (ms,))
        assert len(got) == 3
        for rep, out in enumerate(got):
            seed = bench._rep_seed(config.seed, 0, rep)
            data = gen_pnl(bench._pnl_config(point, "H0", seed))
            subs = partition(data, replace(ms.ensemble, seed=seed))
            want = [run_cit(sub, replace(ms.base_spec(0),
                                         seed=ensemble._subset_seed(seed, k))).p
                    for k, sub in enumerate(subs)]
            assert [p.hex() for p in out.subtest_ps] == [p.hex() for p in want]


class TestRuntimeProfile:
    def test_one_row_per_size(self):
        rows = bench.runtime_profile(CITestSpec(method="fisherz"), None, [40, 80])
        assert [n for n, _ in rows] == [40, 80]
        assert all(t > 0.0 for _, t in rows)
        assert "runtime_profile" not in citkit.__all__  # a bench internal, not a top-level name

    @pytest.mark.parametrize("sizes, repeats", [([80, 40], 5), ([40, 40], 5), ([40, 80], 4)])
    def test_rejects_bad_arguments(self, sizes, repeats):
        with pytest.raises(ConfigError):
            bench.runtime_profile(CITestSpec(method="fisherz"), None, sizes, repeats=repeats)
