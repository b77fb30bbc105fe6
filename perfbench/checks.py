"""Correctness checks on the program's outputs.

Each check takes plain values (no citkit objects) and returns a list of
problems, empty when the output is correct, so the benchmark's tests can feed
it corrupted outputs directly.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

import oracles

# |reported p - oracle p| allowed on H0 queries.  The oracle's absolute error
# is ~1e-16 in the body of the law and ~1e-12 in the far tail, and citkit's
# quantiles carry a 1e-10 CDF residual; the largest difference seen on the
# workloads is below 1e-11.
ORACLE_TOL = 1e-8


def ecit_shape_problems(label, p, n_used, subtest_ps, n, n_k):
    """K subsets of n_k rows each, one p-value per subset, all p in [0, 1]."""
    k = n // n_k
    problems = []
    if n_used != k * n_k:
        problems.append(f"{label}: n_used={n_used}, expected K*n_k={k * n_k}")
    if subtest_ps is None or len(subtest_ps) != k:
        got = None if subtest_ps is None else len(subtest_ps)
        problems.append(f"{label}: {got} subtest p-values, expected n//n_k={k}")
    for q in [p, *(subtest_ps or ())]:
        if not 0.0 <= q <= 1.0:
            problems.append(f"{label}: p-value {q!r} outside [0, 1]")
    return problems


def h0_oracle_problems(label, p, subtest_ps, alpha, epsilon, tol=ORACLE_TOL):
    """The reported p equals the Gil-Pelaez combination of the clamped subtest p-values."""
    clamped = np.clip(np.asarray(subtest_ps, dtype=float), epsilon, 1.0 - epsilon)
    expected = oracles.stable_combined_p([float(v) for v in clamped], alpha)
    if not abs(p - expected) <= tol:
        return [f"{label}: p={p!r}, oracle {expected!r} (|diff| > {tol:g})"]
    return []


def h1_problems(label, p, level):
    """An H1 query must reject at ``level``."""
    return [] if p <= level else [f"{label}: H1 query not rejected, p={p!r} > {level}"]


def _undirected(edges):
    return {(min(i, j), max(i, j)) for i, j in edges}


def skeleton_problems(found_edges, true_edges):
    """The oracle-driven PC skeleton must equal the DAG's skeleton exactly."""
    found = _undirected(found_edges)
    truth = _undirected(true_edges)
    problems = [f"oracle PC kept non-edge {e}" for e in sorted(found - truth)]
    problems += [f"oracle PC removed true edge {e}" for e in sorted(truth - found)]
    return problems


def pc_output_problems(d, edges, sepsets):
    """Every pair is either an edge or removed with a separating set, never both."""
    kept = _undirected(edges)
    removed = set(sepsets)
    problems = [f"pair {e} both kept and given a separating set" for e in sorted(kept & removed)]
    missing = set(combinations(range(d), 2)) - kept - removed
    problems += [f"pair {e} neither kept nor separated" for e in sorted(missing)]
    return problems


def removed_edge_problems(retest_ps, level):
    """A re-test of each removed edge on its separating set must accept (p > level)."""
    return [f"removed edge {e} re-tested on its separating set gives p={p!r} <= {level}"
            for e, p in sorted(retest_ps.items()) if not p > level]
