"""PC-algorithm skeleton discovery and skeleton evaluation metrics.

A CI tester here is any callable ``test(i, j, S) -> p`` taking column indices
(the conditioning set ``S`` as a tuple of indices), so the same engine runs
plug-in statistical tests and exact d-separation oracles alike.  Iteration is
lexicographic over pairs and conditioning subsets; edge removals found during
one conditioning-set-size round are applied only when the round ends, so the
round's queries never depend on its own removals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from itertools import combinations

import numpy as np

from . import ensemble
from .cit import CITestSpec, DataTriple, _Memo, _Workspace, run_cit
from .errors import CitkitError, ConfigError
from .datagen import GraphSpec

__all__ = [
    "SkeletonGraph", "pc_skeleton", "skeleton_metrics",
    "make_cit_tester", "make_dsep_oracle",
    "skeleton_of_graph",
]


@dataclass(frozen=True, eq=False)
class SkeletonGraph:
    """Undirected graph: symmetric boolean adjacency, no self-loops.

    Two graphs are equal when ``d`` and the adjacency are; the sepsets take
    no part.
    """

    d: int
    adjacency: np.ndarray
    sepsets: dict = field(default_factory=dict)

    def __post_init__(self):
        adj = np.asarray(self.adjacency, dtype=bool)
        if adj.shape != (self.d, self.d):
            raise ConfigError(f"adjacency must be {self.d}x{self.d}, got {adj.shape}")
        if adj.diagonal().any():
            raise ConfigError("skeleton has a self-loop")
        if not (adj == adj.T).all():
            raise ConfigError("adjacency must be symmetric")
        object.__setattr__(self, "adjacency", adj)

    def __eq__(self, other):
        if not isinstance(other, SkeletonGraph):
            return NotImplemented
        return self.d == other.d and np.array_equal(self.adjacency, other.adjacency)

    @classmethod
    def from_edges(cls, d: int, edges) -> "SkeletonGraph":
        adj = np.zeros((d, d), dtype=bool)
        for i, j in edges:
            adj[i, j] = adj[j, i] = True
        return cls(d=d, adjacency=adj)

    def edges(self) -> list[tuple[int, int]]:
        return [(i, j) for i in range(self.d) for j in range(i + 1, self.d)
                if self.adjacency[i, j]]


def pc_skeleton(data, test, level: float = 0.05, max_cond: int | None = None,
                d: int | None = None, on_query=None) -> SkeletonGraph:
    """Classic PC skeleton phase driven by an index-based CI tester.

    ``data`` is an n x d matrix (may be None for pure-oracle testers if ``d``
    is given).  Starting from the complete graph, for conditioning-set size
    l = 0..max_cond (default min(3, d-2); an explicit value above d-2 is an
    error) each still-adjacent pair is tested against every size-l
    subset of either endpoint's neighbours (adjacency as of the round start);
    the edge is removed and its separating set recorded on the first
    acceptance p > level.  ``on_query`` receives (i, j, S, p) for each test.
    """
    if data is not None:
        data = np.asarray(data, dtype=float)
        d = data.shape[1]
    if d is None:
        raise ConfigError("pc_skeleton needs data or an explicit column count d")
    if not (0.0 < level < 1.0):
        raise ConfigError(f"level must lie in (0,1), got {level}")
    if max_cond is None:
        max_cond = min(3, d - 2)
    if max_cond > d - 2:
        raise ConfigError(f"max_cond={max_cond} exceeds d-2={d - 2}")

    adj = np.ones((d, d), dtype=bool)
    np.fill_diagonal(adj, False)
    sepsets: dict = {}

    for ell in range(max_cond + 1):
        frozen = adj.copy()
        removals = []
        for i in range(d):
            for j in range(i + 1, d):
                if not frozen[i, j]:
                    continue
                sep = _find_sepset(test, frozen, i, j, ell, level, on_query)
                if sep is not None:
                    removals.append((i, j))
                    sepsets[(i, j)] = sep
        for i, j in removals:
            adj[i, j] = adj[j, i] = False
        if not adj.any():
            break
    return SkeletonGraph(d=d, adjacency=adj, sepsets=sepsets)


def _find_sepset(test, adj, i, j, ell, level, on_query):
    """First size-ell neighbour subset that separates (i, j), else None."""
    seen = set()
    for anchor, other in ((i, j), (j, i)):
        neigh = [k for k in range(adj.shape[0]) if adj[anchor, k] and k != other]
        if len(neigh) < ell:
            continue
        for S in combinations(neigh, ell):
            if S in seen:
                continue
            seen.add(S)
            try:
                p = float(test(i, j, S))
            except CitkitError as exc:
                raise type(exc)(f"CI query x={i} y={j} z={S}: {exc}") from exc
            if on_query is not None:
                on_query(i, j, S, p)
            if p > level:
                return S
    return None


def skeleton_metrics(estimated: SkeletonGraph, truth: SkeletonGraph):
    """(precision, recall, f1, shd) over unordered edges; 0/0 ratios are 0."""
    if estimated.d != truth.d:
        raise ConfigError(f"skeletons differ in size: {estimated.d} vs {truth.d}")
    est = set(estimated.edges())
    tru = set(truth.edges())
    tp = len(est & tru)
    fp = len(est - tru)
    fn = len(tru - est)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    shd = fp + fn
    return precision, recall, f1, shd


# ---------------------------------------------------------------------------
# testers
# ---------------------------------------------------------------------------

def make_cit_tester(data, spec: CITestSpec, config=None):
    """Index-based CI tester on the columns of ``data``.

    With ``config=None`` each query runs the base test ``spec`` on all rows;
    with an :class:`~citkit.ensemble.EnsembleConfig` it runs
    ``ensemble.ecit(..., spec, config)``, looked up at call time.  A plain
    tester hands one kcit workspace to every query: up to five n x n float64
    buffers, each taken on the first query that needs it and kept as long
    as the tester, so a warm query allocates no n x n array.  Every query
    takes one; a query whose x and y sides all factor takes three, and one
    with dense sides up to five.  z lives in those buffers as its n x r_z
    factor U, and each x and y Gram is factored in them too; the factored
    sides are n x r arrays allocated per query.
    The ensemble keeps its own per-thread workspaces.

    A kcit tester keeps a memo (:class:`citkit.cit._Memo`) as long as it
    lives, since its queries share conditioning sets and, in an ensemble,
    the same row subsets.  It holds z's factor for each (S, subset), and the
    invariants of the null for each (x column, S, subset) and (y column, S,
    subset); with S empty a column's x and y sides are one entry.  A query
    that finds them skips z's Gram, its pivoted Cholesky and the triangular
    solve that makes z's factor U, or the invariants of that side, and its
    p-value is the same bit for bit.  The z factors share one slab of 1.5 MB
    (``cit._Z_STORE_BYTES``), refilled first in, first out, where each takes
    r_z n floats.  The invariants are kept for every side, 20 floats each.
    ``tester.memo_counts()`` returns the hits and misses of both stores so
    far.  The memo is safe for the ensemble's subtest threads, but the
    tester must not be called from two threads at once.
    """
    data = np.asarray(data, dtype=float)
    workspace = _Workspace() if config is None else None
    memo = _Memo()

    def tester(i, j, S):
        triple = DataTriple(data[:, [i]], data[:, [j]], data[:, list(S)])
        keys = partial(memo.keys, i, j, S)
        if config is None:
            return run_cit(triple, spec, _workspace=workspace, _memo=keys(0)).p
        return ensemble.ecit(triple, spec, config, _memo=keys).p

    tester.memo_counts = memo.counts
    return tester


def make_dsep_oracle(graph: GraphSpec):
    """Exact d-separation oracle: p=1 when separated, p=0 when connected.

    Uses the moral-graph criterion: i and j are d-separated by S iff they are
    disconnected in the moralized subgraph induced by the ancestors of
    {i, j} union S.
    """
    parents = {j: set(graph.parents(j)) for j in range(graph.d)}

    def tester(i, j, S):
        nodes = {i, j, *S}
        keep = nodes.union(*(graph.ancestors(v) for v in nodes))
        # moralize: undirected edges parent-child plus marry co-parents
        undirected = {v: set() for v in keep}
        for child in keep:
            pa = parents[child] & keep
            for p in pa:
                undirected[p].add(child)
                undirected[child].add(p)
            for a, b in combinations(sorted(pa), 2):
                undirected[a].add(b)
                undirected[b].add(a)
        blocked = set(S)
        stack, seen = [i], {i}
        while stack:
            v = stack.pop()
            if v == j:
                return 0.0
            for w in undirected[v]:
                if w not in seen and w not in blocked:
                    seen.add(w)
                    stack.append(w)
        return 1.0

    return tester


def skeleton_of_graph(graph: GraphSpec) -> SkeletonGraph:
    """Undirected skeleton of a DAG specification."""
    return SkeletonGraph.from_edges(graph.d, graph.edges)
