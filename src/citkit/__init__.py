"""citkit: conditional independence testing at scale.

Divide-and-aggregate ensemble CITs with stable-distribution p-value
combination, classical combiners, base tests (Fisher Z, kernel, random
Fourier features), synthetic benchmark generators, PC-skeleton causal
discovery, and a reproducible benchmark harness.
"""

__version__ = "0.1.0"

from .combine import (
    CLASSICAL_METHODS,
    CombinedResult,
    clamp_pvalues,
    combine_classical,
    combine_stable,
)
from .errors import CitkitError, ConfigError, DataError, NumericalError
from .stable import (
    StableParams,
    aggregate_params,
    stable_cdf,
    stable_quantile,
    stable_sample,
)
from .cit import (
    CITestSpec,
    DataTriple,
    TestOutcome,
    fisher_z,
    kcit,
    median_heuristic,
    rcit,
    run_cit,
)
from .datagen import (
    GraphSpec,
    PnlConfig,
    ScmData,
    gen_pnl,
    gen_random_dag,
    simulate_scm,
)
from .ensemble import EnsembleConfig, ecit, partition
from .discovery import (
    SkeletonGraph,
    make_cit_tester,
    make_dsep_oracle,
    pc_skeleton,
    skeleton_metrics,
    skeleton_of_graph,
)
from .bench import load_csv, load_data_triple


__all__ = [
    "CitkitError",
    "ConfigError",
    "DataError",
    "NumericalError",
    "CLASSICAL_METHODS",
    "CombinedResult",
    "StableParams",
    "aggregate_params",
    "clamp_pvalues",
    "combine_classical",
    "combine_stable",
    "stable_cdf",
    "stable_quantile",
    "stable_sample",
    "CITestSpec",
    "DataTriple",
    "TestOutcome",
    "fisher_z",
    "kcit",
    "median_heuristic",
    "rcit",
    "run_cit",
    "GraphSpec",
    "PnlConfig",
    "ScmData",
    "gen_pnl",
    "gen_random_dag",
    "simulate_scm",
    "EnsembleConfig",
    "ecit",
    "partition",
    "SkeletonGraph",
    "make_cit_tester",
    "make_dsep_oracle",
    "pc_skeleton",
    "skeleton_metrics",
    "skeleton_of_graph",
    "load_csv",
    "load_data_triple",
    "__version__",
]
