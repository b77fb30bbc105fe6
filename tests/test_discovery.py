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

from citkit import ensemble
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

        def counted(*args):
            calls.append(args)
            return ecit(*args)

        monkeypatch.setattr(ensemble, "ecit", counted)
        triple = DataTriple(values[:, [0]], values[:, [3]], values[:, [1]])
        assert tester(0, 3, (1,)) == ecit(triple, spec, config).p
        assert len(calls) == 1


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
