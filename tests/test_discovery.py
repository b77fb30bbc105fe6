"""Tests for PC skeleton discovery and the skeleton metrics.

PC driven by an exact d-separation oracle must return the true skeleton: the
oracle is faithful to the DAG, so every missing edge has a separating set
among the neighbours and no present edge has one.  Recorded separating sets
are checked against a second, path-based d-separation criterion written here,
independent of the moral-graph oracle in the package.  The data tester is
checked against direct calls of the test it wraps.
"""

import tracemalloc
from itertools import combinations

import numpy as np
import pytest

from citkit import cit, ensemble
from citkit.cit import CITestSpec, DataTriple, run_cit
from citkit.datagen import GraphSpec, gen_random_dag, simulate_scm
from citkit.discovery import (SkeletonGraph, make_cit_tester, make_dsep_oracle, pc_skeleton,
                              skeleton_metrics, skeleton_of_graph)
from citkit.ensemble import EnsembleConfig
from citkit.errors import ConfigError


def _d_separated(graph, i, j, S):
    """No simple path between i and j is active given S (exhaustive, small d)."""
    children = {v: {c for p, c in graph.edges if p == v} for v in range(graph.d)}

    def descendants(v):
        out, stack = {v}, [v]
        while stack:
            for c in children[stack.pop()]:
                if c not in out:
                    out.add(c)
                    stack.append(c)
        return out

    S = set(S)
    neighbours = {v: set() for v in range(graph.d)}
    for p, c in graph.edges:
        neighbours[p].add(c)
        neighbours[c].add(p)

    def active(path):
        for a, v, b in zip(path, path[1:], path[2:]):
            if (a, v) in graph.edges and (b, v) in graph.edges:
                if not descendants(v) & S:
                    return False
            elif v in S:
                return False
        return True

    def paths(path):
        if path[-1] == j:
            yield path
            return
        for w in neighbours[path[-1]]:
            if w not in path:
                yield from paths(path + [w])

    return not any(active(p) for p in paths([i]))


class TestPathCriterion:
    # the criterion the checks below rely on, on the canonical triples
    def test_chain(self):
        chain = GraphSpec(d=3, edges=frozenset({(0, 1), (1, 2)}), backbone=())
        assert not _d_separated(chain, 0, 2, ())
        assert _d_separated(chain, 0, 2, (1,))

    def test_fork_and_collider(self):
        # 0 -> 1 -> 2 -> 3 plus 0 -> 3: between 1 and 3 the path 1 <- 0 -> 3
        # is a fork at 0; between 0 and 2 the path 0 -> 3 <- 2 is a collider
        graph = GraphSpec(d=4, edges=frozenset({(0, 1), (1, 2), (2, 3), (0, 3)}), backbone=())
        assert not _d_separated(graph, 1, 3, (2,))
        assert not _d_separated(graph, 1, 3, (0,))
        assert _d_separated(graph, 1, 3, (0, 2))
        assert not _d_separated(graph, 0, 2, ())
        assert _d_separated(graph, 0, 2, (1,))
        assert not _d_separated(graph, 0, 2, (1, 3))


@pytest.mark.parametrize("d, p_edge, seed", [
    (5, 0.3, 0), (6, 0.3, 0), (6, 0.3, 1), (6, 0.5, 2), (7, 0.3, 3), (7, 0.4, 4), (7, 0.6, 5),
])
class TestOraclePC:
    def test_recovers_the_true_skeleton(self, d, p_edge, seed):
        graph = gen_random_dag(d, p_edge, seed)
        queries = []
        est = pc_skeleton(None, make_dsep_oracle(graph), d=d, max_cond=d - 2,
                          on_query=lambda i, j, S, p: queries.append(p))
        truth = skeleton_of_graph(graph)
        assert est.edges() == truth.edges()
        assert est == truth and not est != truth
        one_off = truth.adjacency.copy()
        one_off[0, 1] = one_off[1, 0] = not one_off[0, 1]
        assert est != SkeletonGraph(d=d, adjacency=one_off)
        assert skeleton_metrics(est, truth) == (1.0, 1.0, 1.0, 0)
        assert set(queries) <= {0.0, 1.0}

    def test_every_sepset_d_separates_its_pair(self, d, p_edge, seed):
        graph = gen_random_dag(d, p_edge, seed)
        est = pc_skeleton(None, make_dsep_oracle(graph), d=d, max_cond=d - 2)
        missing = {(i, j) for i, j in combinations(range(d), 2)} - set(graph.edges)
        assert set(est.sepsets) == missing
        for (i, j), S in est.sepsets.items():
            assert i not in S and j not in S
            assert _d_separated(graph, i, j, S)


class TestCitTester:
    @pytest.fixture(scope="class")
    def values(self):
        return simulate_scm(gen_random_dag(4, 0.5, seed=0), 400, noise_dist="laplace",
                            seed=0).values

    def test_warm_plain_kcit_query_allocates_less_than_one_n_by_n_array(self, values):
        spec = CITestSpec(method="kcit", seed=3)
        tester = make_cit_tester(values, spec)
        first = tester(0, 1, (2, 3))
        tracemalloc.start()
        try:
            again = tester(0, 1, (2, 3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 400 * 400 * 8
        want = run_cit(DataTriple(values[:, [0]], values[:, [1]], values[:, [2, 3]]), spec).p
        assert first.hex() == again.hex() == want.hex()

    def test_ensemble_tester_looks_ecit_up_at_call_time(self, values, monkeypatch):
        # a wrapper installed on the module after the tester was made still runs
        spec, config = CITestSpec(method="kcit"), EnsembleConfig(n_k=100, seed=5)
        tester = make_cit_tester(values, spec, config)
        ecit, calls = ensemble.ecit, []

        def counted(*args, **kwargs):
            calls.append(args)
            return ecit(*args, **kwargs)

        monkeypatch.setattr(ensemble, "ecit", counted)
        triple = DataTriple(values[:, [0]], values[:, [3]], values[:, [1]])
        assert tester(0, 3, (1,)) == ecit(triple, spec, config).p
        assert len(calls) == 1


class TestTesterMemo:
    """A kcit tester's memo changes no p-value and reuses what it promises to."""

    SPEC = CITestSpec(method="kcit", seed=2)
    CONFIG = EnsembleConfig(n_k=100, seed=1)

    @pytest.fixture(scope="class")
    def values(self):
        return simulate_scm(gen_random_dag(6, 0.3, seed=0), 600, noise_dist="laplace",
                            seed=0).values

    def _run(self, values, config, on_query=None):
        """A PC run of a fresh tester: its queries (i, j, S, p) and the tester."""
        tester = make_cit_tester(values, self.SPEC, config)
        queries = []

        def record(i, j, S, p):
            queries.append((i, j, S, p))
            if on_query is not None:
                on_query(tester)
        pc_skeleton(values, tester, on_query=record)
        return queries, tester

    def _memo_free_p(self, values, config, i, j, S):
        triple = DataTriple(values[:, [i]], values[:, [j]], values[:, list(S)])
        if config is None:
            return run_cit(triple, self.SPEC).p
        return ensemble.ecit(triple, self.SPEC, config).p

    # from 350 rows the plain tester factors its x and y sides
    @pytest.mark.parametrize("rows, config", [(600, CONFIG), (400, None)],
                             ids=["ensemble", "plain"])
    def test_every_query_p_is_the_memo_free_p(self, values, rows, config):
        values = values[:rows]
        queries, _ = self._run(values, config)
        assert len(queries) > 40
        assert max(len(S) for _, _, S, _ in queries) >= 2
        for i, j, S, p in queries:
            assert p.hex() == self._memo_free_p(values, config, i, j, S).hex(), (i, j, S)

    def test_counts_of_a_plain_pc_run(self, values):
        # one thread fills the stores in query order, so the counts repeat exactly
        _, tester = self._run(values[:400], None)
        assert tester.memo_counts() == {"z_hits": 35, "z_misses": 12,
                                        "invariant_hits": 64, "invariant_misses": 60}

    def test_ensemble_counts_cover_every_subtest(self, values):
        # the invariants store keeps everything, so its counts repeat; which z
        # factors the slab evicts depends on which subtest thread stored first
        queries, tester = self._run(values, self.CONFIG)
        counts = tester.memo_counts()
        assert (counts["invariant_hits"], counts["invariant_misses"]) == (450, 486)
        conditioned = sum(1 for _, _, S, _ in queries if S)
        assert counts["z_hits"] + counts["z_misses"] == 6 * conditioned
        assert counts["z_hits"] > 200

    @pytest.mark.parametrize("budget", [1 << 10, 1 << 16])
    def test_the_z_slab_holds_its_budget_and_eviction_keeps_p(self, values, budget,
                                                              monkeypatch):
        # 1 KB holds no factor at all; 64 KB holds a few, so they are evicted
        monkeypatch.setattr(cit, "_Z_STORE_BYTES", budget)

        def check_slab(tester):
            memo = tester.memo_counts.__self__
            assert memo._slab.nbytes == budget
            # each entry holds U' alone, r_z rows of n_k = 100 floats
            assert all(hi - lo == r * 100 for lo, hi, r in memo._z.values())
            extents = sorted(entry[:2] for entry in memo._z.values())
            assert all(0 <= lo < hi <= memo._slab.size for lo, hi in extents)
            assert all(a[1] <= b[0] for a, b in zip(extents, extents[1:]))
        queries, tester = self._run(values, self.CONFIG, check_slab)
        for i, j, S, p in queries:
            assert p.hex() == self._memo_free_p(values, self.CONFIG, i, j, S).hex(), (i, j, S)
        assert (tester.memo_counts()["z_hits"] > 0) == (budget > 1 << 10)

    @pytest.mark.parametrize("n, config", [(200, None), (400, EnsembleConfig(n_k=200, seed=3))],
                             ids=["plain", "ensemble"])
    def test_a_full_rank_z_is_factored_once_per_subset(self, n, config, monkeypatch):
        # six independent columns of z at 200 rows have a Gram of rank 200
        values = np.random.default_rng(8).standard_normal((n, 8))
        ranks = []

        def counted(a, tol):
            rank, piv = factor(a, tol)
            ranks.append(rank / a.shape[0])
            return rank, piv
        factor = cit._pivoted_cholesky
        monkeypatch.setattr(cit, "_pivoted_cholesky", counted)
        tester = make_cit_tester(values, self.SPEC, config)
        S = (2, 3, 4, 5, 6, 7)
        queries = [(0, 1, S), (1, 0, S), (0, 1, S)]
        ps = [tester(*q) for q in queries]
        subsets = 1 if config is None else n // config.n_k
        assert ranks == [1.0] * subsets
        assert tester.memo_counts()["z_hits"] == 2 * subsets
        monkeypatch.setattr(cit, "_pivoted_cholesky", factor)
        for (i, j, S), p in zip(queries, ps):
            assert p.hex() == self._memo_free_p(values, config, i, j, S).hex()


class TestSkeletonMetrics:
    TRUTH = SkeletonGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])

    def test_exact_match(self):
        assert skeleton_metrics(self.TRUTH, self.TRUTH) == (1.0, 1.0, 1.0, 0)

    def test_one_extra_one_missing(self):
        est = SkeletonGraph.from_edges(4, [(0, 1), (1, 2), (0, 2)])
        precision, recall, f1, shd = skeleton_metrics(est, self.TRUTH)
        assert (precision, recall, f1) == pytest.approx((2 / 3, 2 / 3, 2 / 3))
        assert shd == 2

    def test_extra_edges_only(self):
        est = SkeletonGraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        assert skeleton_metrics(est, self.TRUTH) == pytest.approx((0.75, 1.0, 6 / 7, 1))

    def test_empty_estimate_has_zero_precision(self):
        # no estimated edges: precision is 0/0, which the metric reports as 0
        empty = SkeletonGraph.from_edges(4, [])
        assert skeleton_metrics(empty, self.TRUTH) == (0.0, 0.0, 0.0, 3)

    def test_both_empty_is_all_zero(self):
        empty = SkeletonGraph.from_edges(4, [])
        assert skeleton_metrics(empty, empty) == (0.0, 0.0, 0.0, 0)

    def test_disjoint_edges(self):
        est = SkeletonGraph.from_edges(4, [(0, 2), (1, 3)])
        assert skeleton_metrics(est, self.TRUTH) == (0.0, 0.0, 0.0, 5)

    def test_size_mismatch_is_an_error(self):
        with pytest.raises(ConfigError, match="differ in size"):
            skeleton_metrics(SkeletonGraph.from_edges(3, [(0, 1)]), self.TRUTH)

    def test_adjacency_must_be_symmetric(self):
        adj = np.zeros((3, 3), dtype=bool)
        adj[0, 1] = True
        with pytest.raises(ConfigError, match="symmetric"):
            SkeletonGraph(d=3, adjacency=adj)
