"""Divide-and-aggregate engine: split the data, test each subset, pool p-values.

The pipeline is partition -> per-subset base test -> clamp -> stable-law
combination.  The subtests run on one process-wide thread pool, sized by
:func:`_subtest_workers` so that subtest threads times BLAS threads never
exceed the usable cores.  Subtest seeds are derived counter-style from the
master seed and the subset index, so results do not depend on execution order
or on how many workers ran the subtests.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .cit import CITestSpec, DataTriple, TestOutcome, _Workspace, run_cit
from .combine import clamp_pvalues, combine_stable
from .errors import CitkitError, ConfigError
from .stable import StableParams

__all__ = ["EnsembleConfig", "partition", "ecit"]

_PARTITION_POLICIES = ("shuffle", "sequential")
_REMAINDER_POLICIES = ("drop", "merge_last")


@dataclass(frozen=True)
class EnsembleConfig:
    """Settings for one ensemble run.

    Exactly one of ``n_k`` (rows per subset) and ``K`` (number of subsets)
    must be given; the other is derived from the data size at partition time.
    ``alpha`` is the tail index of the symmetric stable law that pools the
    subtest p-values; its scale and location cannot move the combined p.
    """

    n_k: int | None = None
    K: int | None = None
    alpha: float = 1.75
    partition_policy: str = "shuffle"
    remainder_policy: str = "drop"
    seed: int = 0
    epsilon: float = 1e-12

    def __post_init__(self):
        if (self.n_k is None) == (self.K is None):
            raise ConfigError("exactly one of n_k and K must be set")
        if self.n_k is not None and self.n_k < 8:
            raise ConfigError(f"n_k must be at least 8, got {self.n_k}")
        if self.K is not None and self.K < 1:
            raise ConfigError(f"K must be at least 1, got {self.K}")
        StableParams(self.alpha, 0.0)  # raises ConfigError on a bad alpha
        if not (0.0 < self.epsilon <= 0.01):
            raise ConfigError(f"clamp epsilon must lie in (0, 0.01], got {self.epsilon}")
        if self.partition_policy not in _PARTITION_POLICIES:
            raise ConfigError(f"unknown partition policy {self.partition_policy!r}")
        if self.remainder_policy not in _REMAINDER_POLICIES:
            raise ConfigError(f"unknown remainder policy {self.remainder_policy!r}")


def _subset_seed(master: int, index: int) -> int:
    """Counter-style per-subset seed: reproducible regardless of run order."""
    return int(np.random.SeedSequence((master, 1, index)).generate_state(1, np.uint64)[0])


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _blas_threads(cores: int) -> int:
    """Threads one BLAS call will use, by OpenBLAS's own rule.

    numpy's wheels bundle OpenBLAS, which takes the first of these variables
    that holds a positive integer and otherwise uses every core.
    """
    for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        try:
            value = int(os.environ.get(name, ""))
        except ValueError:
            continue
        if value > 0:
            return value
    return cores


def _subtest_workers(K: int) -> int:
    """Threads that run an ensemble's K subtests: min(K, cores // BLAS threads).

    With BLAS unpinned this is 1, and the subtests run one after another on
    the calling thread: a second Python thread would only fight the BLAS
    threads for the same cores.
    """
    cores = _usable_cores()
    return max(1, min(K, cores // _blas_threads(cores)))


_POOL: ThreadPoolExecutor | None = None
_POOL_LOCK = threading.Lock()


def _pool() -> ThreadPoolExecutor:
    """The process-wide helper pool, created on first use."""
    global _POOL
    with _POOL_LOCK:
        if _POOL is None:
            _POOL = ThreadPoolExecutor(max_workers=max(1, _usable_cores() - 1),
                                       thread_name_prefix="citkit-subtest")
        return _POOL


def _forget_pool():
    # a forked child inherits the pool object but none of its threads
    global _POOL
    _POOL = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _run_subtests(subsets, specs, workers: int, memo=None) -> list[TestOutcome]:
    """Outcomes of ``run_cit`` on every subset, in subset order.

    The calling thread and ``workers - 1`` pool helpers draw subset indices
    in ascending order from one shared counter.  After a failure no new index
    is drawn; once the running subtests end, the error of the lowest failing
    index is raised.  Every lower index was drawn before it, so that is the
    error a serial run would raise.  Each drawing thread hands its own kcit
    workspace to all of its subtests and drops it when it stops drawing.
    ``memo``, when given, maps subset index k to subtest k's ``_memo``.
    """
    K = len(subsets)
    results: list = [None] * K
    lock = threading.Lock()
    next_index = 0
    stop = False

    def drain():
        nonlocal next_index, stop
        workspace = _Workspace()
        while True:
            with lock:
                if stop or next_index == K:
                    return
                k = next_index
                next_index += 1
            try:
                results[k] = run_cit(subsets[k], specs[k], _workspace=workspace,
                                     _memo=None if memo is None else memo(k))
            except Exception as exc:  # kept, and raised in index order below
                results[k] = exc
                with lock:
                    stop = True

    helpers = [_pool().submit(drain) for _ in range(workers - 1)]
    try:
        drain()
    finally:
        with lock:
            stop = True
        for helper in helpers:
            if not helper.cancel():
                helper.result()
    for k, result in enumerate(results):
        if isinstance(result, CitkitError):
            raise type(result)(f"subtest {k} of {K}: {result}") from result
        if isinstance(result, Exception):
            raise result
    return results


def _subset_shape(n: int, config: EnsembleConfig) -> tuple[int, int]:
    """(rows per subset, number of subsets) for ``n`` rows under ``config``.

    Raises :class:`ConfigError` when ``n`` cannot fill one subset of n_k rows,
    or K subsets of at least 8 rows.
    """
    if config.n_k is not None:
        n_k = config.n_k
        K = n // n_k
        if K == 0:
            raise ConfigError(
                f"n={n} is smaller than one subset (n_k={n_k}); "
                "run the base test directly instead of an ensemble")
    else:
        K = config.K
        n_k = n // K
        if n_k < 8:
            raise ConfigError(
                f"n={n} split into K={K} subsets leaves {n_k} rows each (< 8); "
                "run the base test directly instead of an ensemble")
    return n_k, K


def partition(data: DataTriple, config: EnsembleConfig) -> list[DataTriple]:
    """Split ``data`` into disjoint row subsets per the config's policies.

    ``shuffle`` permutes rows by a permutation derived from the master seed
    before slicing; ``sequential`` slices rows in their given order.  The
    union of the returned subsets plus any dropped remainder is exactly the
    original index set.
    """
    n = data.n
    n_k, K = _subset_shape(n, config)
    if config.partition_policy == "shuffle":
        rng = np.random.default_rng(np.random.SeedSequence((config.seed, 0)))
        order = rng.permutation(n)
    else:
        order = np.arange(n)

    bounds = [(k * n_k, (k + 1) * n_k) for k in range(K)]
    if config.remainder_policy == "merge_last":
        bounds[-1] = (bounds[-1][0], n)
    return [data.take(order[lo:hi]) for lo, hi in bounds]


def ecit(data: DataTriple, base: CITestSpec, config: EnsembleConfig, *,
         _memo=None) -> TestOutcome:
    """Run the base test on each subset and combine p-values via the stable law.

    The returned outcome's ``subtest_ps`` holds the raw per-subset p-values
    (clamping is internal to the combination step).

    The subtests run on min(K, cores // BLAS threads) threads, the calling
    thread among them.  The cores are those of the process's CPU affinity
    mask, and the BLAS threads follow OpenBLAS's rule: the first positive
    value of ``OPENBLAS_NUM_THREADS``, ``GOTO_NUM_THREADS`` or
    ``OMP_NUM_THREADS``, and otherwise every core.  Seeds depend only on the
    subset index, so ``p`` and ``subtest_ps`` are the same for any number of
    threads.  To run on one core, pin the affinity mask to one core or leave
    BLAS unpinned.  The threads overlap only where the base test releases
    the GIL; see :func:`citkit.cit.kcit` for which of its steps do.  A
    kcit subtest factors z's Gram, and from n_k = 350 up each x and y Gram,
    in LAPACK (``dpstrf``), makes the factor U of its regression on z by
    ``dpotrf`` and ``dtrsm`` and applies it by BLAS, with the GIL released,
    while the ``pdist`` and ``squareform`` of each Gram hold it.  Each
    thread reuses one kcit workspace, up to five n_k x n_k float64 buffers
    taken as its subtests first need them, for every subset it draws, and
    drops it when this call returns: three buffers when every side factors
    (from n_k = 350 up, where a block's rank stays at most n_k / 4), and
    more for dense sides.  The combination runs on the calling thread once
    every subtest is done, and holds the GIL: a fraction of a millisecond
    for K up to about 10.

    ``_memo``, when given, maps a subset index k to the memo keys handed to
    subtest k's :func:`~citkit.cit.run_cit` (see
    :func:`citkit.discovery.make_cit_tester`); without it, which is how every
    caller but a PC tester runs, nothing is kept between calls.

    A subtest that fails fails the whole run: the error is re-raised with
    ``subtest k of K:`` in front of its message, for example when one subset
    has a constant column.  Dropping that subset instead would silently
    combine fewer p-values than the K the caller asked for.
    """
    t0 = time.perf_counter()
    subsets = partition(data, config)
    specs = [replace(base, seed=_subset_seed(config.seed, k)) for k in range(len(subsets))]
    outcomes = _run_subtests(subsets, specs, _subtest_workers(len(subsets)), _memo)

    raw_ps = tuple(o.p for o in outcomes)
    clamped = clamp_pvalues(np.array(raw_ps), epsilon=config.epsilon)
    combined = combine_stable(clamped, StableParams(config.alpha, 0.0))
    return TestOutcome(
        p=combined.p_combined,
        statistic=combined.statistic,
        method=f"ecit:{base.method}",
        n_used=sum(o.n_used for o in outcomes),
        elapsed=time.perf_counter() - t0,
        subtest_ps=raw_ps,
    )
