"""Divide-and-aggregate engine: split the data, test each subset, pool p-values.

The pipeline is partition -> per-subset base test -> clamp -> stable-law
combination.  Subtest seeds are derived counter-style from the master seed and
the subset index, so results do not depend on execution order or on how many
workers actually ran the subtests.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .cit import CITestSpec, DataTriple, TestOutcome, run_cit, with_seed
from .combine import clamp_pvalues, combine_stable
from .datagen import PnlConfig, gen_pnl
from .errors import CitkitError, ConfigError
from .stable import StableParams

__all__ = ["EnsembleConfig", "partition", "ecit", "runtime_profile"]

_PARTITION_POLICIES = ("shuffle", "sequential")
_REMAINDER_POLICIES = ("drop", "merge_last")


@dataclass(frozen=True)
class EnsembleConfig:
    """Settings for one ensemble run.

    Exactly one of ``n_k`` (rows per subset) and ``K`` (number of subsets)
    must be given; the other is derived from the data size at partition time.
    """

    n_k: int | None = None
    K: int | None = None
    params: StableParams = field(default_factory=lambda: StableParams(1.75, 0.0, 1.0, 0.0))
    partition_policy: str = "shuffle"
    remainder_policy: str = "drop"
    seed: int = 0
    epsilon: float = 1e-12
    parallelism: int = 1

    def __post_init__(self):
        if (self.n_k is None) == (self.K is None):
            raise ConfigError("exactly one of n_k and K must be set")
        if self.n_k is not None and self.n_k < 8:
            raise ConfigError(f"n_k must be at least 8, got {self.n_k}")
        if self.K is not None and self.K < 1:
            raise ConfigError(f"K must be at least 1, got {self.K}")
        if not (0.0 < self.epsilon <= 0.01):
            raise ConfigError(f"clamp epsilon must lie in (0, 0.01], got {self.epsilon}")
        if self.partition_policy not in _PARTITION_POLICIES:
            raise ConfigError(f"unknown partition policy {self.partition_policy!r}")
        if self.remainder_policy not in _REMAINDER_POLICIES:
            raise ConfigError(f"unknown remainder policy {self.remainder_policy!r}")
        if self.parallelism < 1:
            raise ConfigError(f"parallelism hint must be >= 1, got {self.parallelism}")


def _subset_seed(master: int, index: int) -> int:
    """Counter-style per-subset seed: reproducible regardless of run order."""
    return int(np.random.SeedSequence((master, 1, index)).generate_state(1, np.uint64)[0])


def partition(data: DataTriple, config: EnsembleConfig) -> list[DataTriple]:
    """Split ``data`` into disjoint row subsets per the config's policies.

    ``shuffle`` permutes rows by a permutation derived from the master seed
    before slicing; ``sequential`` slices rows in their given order.  The
    union of the returned subsets plus any dropped remainder is exactly the
    original index set.
    """
    n = data.n
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

    if config.partition_policy == "shuffle":
        rng = np.random.default_rng(np.random.SeedSequence((config.seed, 0)))
        order = rng.permutation(n)
    else:
        order = np.arange(n)

    bounds = [(k * n_k, (k + 1) * n_k) for k in range(K)]
    if config.remainder_policy == "merge_last":
        bounds[-1] = (bounds[-1][0], n)
    return [data.take(order[lo:hi]) for lo, hi in bounds]


def ecit(data: DataTriple, base: CITestSpec, config: EnsembleConfig) -> TestOutcome:
    """Run the base test on each subset and combine p-values via the stable law.

    The returned outcome's ``subtest_ps`` holds the raw per-subset p-values
    (clamping is internal to the combination step), and ``p`` is independent
    of the parallelism hint.

    A subtest that fails fails the whole run: the error is re-raised with
    ``subtest k of K:`` in front of its message, for example when one subset
    has a constant column.  Dropping that subset instead would silently
    combine fewer p-values than the K the caller asked for.
    """
    t0 = time.perf_counter()
    subsets = partition(data, config)
    specs = [with_seed(base, _subset_seed(config.seed, k)) for k in range(len(subsets))]

    def _one(k: int) -> TestOutcome:
        try:
            return run_cit(subsets[k], specs[k])
        except CitkitError as exc:
            raise type(exc)(f"subtest {k} of {len(subsets)}: {exc}") from exc

    if config.parallelism > 1 and len(subsets) > 1:
        with ThreadPoolExecutor(max_workers=config.parallelism) as pool:
            outcomes = list(pool.map(_one, range(len(subsets))))
    else:
        outcomes = [_one(k) for k in range(len(subsets))]

    raw_ps = tuple(o.p for o in outcomes)
    clamped = clamp_pvalues(np.array(raw_ps), epsilon=config.epsilon)
    combined = combine_stable(clamped, config.params)
    return TestOutcome(
        p=combined.p_combined,
        statistic=combined.statistic,
        method=f"ecit:{base.method}",
        n_used=sum(o.n_used for o in outcomes),
        elapsed=time.perf_counter() - t0,
        subtest_ps=raw_ps,
    )


def runtime_profile(base: CITestSpec, config: EnsembleConfig | None,
                    sizes, seed: int = 0, repeats: int = 5):
    """Median wall-clock seconds per total sample size, on synthetic null data.

    With ``config`` set the ensemble pipeline is timed; with ``config=None``
    the raw base test is timed on the full sample.  Returns a list of
    ``(n, median_elapsed)`` rows, one per requested size.
    """
    sizes = [int(s) for s in sizes]
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ConfigError("sizes must be strictly ascending")
    if repeats < 5:
        raise ConfigError("runtime medians need at least 5 repetitions")
    rows = []
    for i, n in enumerate(sizes):
        data = gen_pnl(PnlConfig(hypothesis="H0", n=n, seed=seed + i))
        elapsed = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            if config is None:
                run_cit(data, base)
            else:
                ecit(data, base, config)
            elapsed.append(time.perf_counter() - t0)
        rows.append((n, float(np.median(elapsed))))
    return rows
