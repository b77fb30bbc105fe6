"""Tests for the experiment harness's pooled-variant reports.

``alpha_ablation`` and ``combiner_compare`` pool the same ensemble subtest
p-values in several ways.  Tiny runs are pinned row by row: every replicate
seed derives from the master seed, so two runs agree in everything but
``elapsed_ms``, and the rejection counts are fixed numbers.
"""

import math

import pytest

from citkit.bench import build_experiment, run_experiment
from citkit.errors import ConfigError

# (method label, metric, rejections out of 3 replicates) in report order
ALPHA_ROWS = [
    ("ek@alpha=1.5", "type1_rate", 1), ("ek@alpha=2", "type1_rate", 0),
    ("ek@alpha=1.5", "power", 2), ("ek@alpha=2", "power", 2),
]
COMBINER_ROWS = [
    ("ours", "type1_rate", 1), ("tippett", "type1_rate", 1), ("edgington", "type1_rate", 0),
    ("fisher", "type1_rate", 1), ("pearson", "type1_rate", 0), ("mudholkar", "type1_rate", 0),
    ("stouffer", "type1_rate", 0),
    ("ours", "power", 2), ("tippett", "power", 2), ("edgington", "power", 3),
    ("fisher", "power", 2), ("pearson", "power", 3), ("mudholkar", "power", 2),
    ("stouffer", "power", 2),
]


def _rows(kind, **extra):
    flat = {"kind": kind, "gen.n": 300, "test.ek.method": "kcit", "test.ek.nk": 100,
            "reps": 3, "seed": 0, **extra}
    report = run_experiment(build_experiment(flat))
    return [(r.config_id, r.method, r.metric, r.value, r.stderr) for r in report.rows]


@pytest.mark.parametrize("kind, extra, pinned", [
    ("alpha_ablation", {"alphas": [1.5, 2.0]}, ALPHA_ROWS),
    ("combiner_compare", {}, COMBINER_ROWS),
])
def test_pooled_reports_repeat_and_match_pinned_counts(kind, extra, pinned):
    first = _rows(kind, **extra)
    assert _rows(kind, **extra) == first
    want = []
    for label, metric, hits in pinned:
        rate = hits / 3
        want.append(("n=300", label, metric, rate, math.sqrt(rate * (1.0 - rate) / 3)))
    assert first == want


@pytest.mark.parametrize("kind", ["alpha_ablation", "combiner_compare"])
def test_pooled_reports_need_an_ensemble_method(kind):
    flat = {"kind": kind, "gen.n": 300, "test.k.method": "kcit", "reps": 1, "alphas": [1.5]}
    with pytest.raises(ConfigError, match="give the method an nk or K"):
        run_experiment(build_experiment(flat))
