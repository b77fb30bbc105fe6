"""Tests for the experiment harness's reports.

Tiny runs of every replicate-driven report kind are pinned row by row: every
replicate seed derives from the master seed, so two runs agree in everything
but ``elapsed_ms``, and the rejection counts are fixed numbers.
``alpha_ablation`` and ``combiner_compare`` pool the same ensemble subtest
p-values in several ways; ``nk_ablation`` pools each n_k's subtests at
alpha = 1.75 and alpha = 2.
"""

import math
import tracemalloc
from collections import Counter

import pytest

from citkit import bench, cit
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
TYPE1_ROWS = [("ek", "type1_rate", 1), ("k", "type1_rate", 1)]
POWER_ROWS = [("ek", "power", 2), ("k", "power", 2)]
NK_ROWS = [
    ("ek@nk=50,alpha=1.75", "power", 3), ("ek@nk=50,alpha=2", "power", 2),
    ("ek@nk=100,alpha=1.75", "power", 3), ("ek@nk=100,alpha=2", "power", 3),
    ("kcit-orig", "power", 3),
]
# (graph, method label, f1, shd) in report order
PC_ROWS = [
    (0, "ek", 1.0, 0.0), (0, "fz", 6 / 7, 1.0), (0, "or", 1.0, 0.0),
    (1, "ek", 6 / 7, 1.0), (1, "fz", 6 / 7, 1.0), (1, "or", 1.0, 0.0),
]


def _rows(kind, **extra):
    # nk_ablation takes its subset sizes from nks, so its method is a plain test
    ensemble = {} if kind == "nk_ablation" else {"test.ek.nk": 100}
    flat = {"kind": kind, "gen.n": 300, "test.ek.method": "kcit", **ensemble,
            "reps": 3, "seed": 0, **extra}
    report = run_experiment(build_experiment(flat))
    return [(r.config_id, r.method, r.metric, r.value, r.stderr) for r in report.rows]


@pytest.mark.parametrize("kind, extra, pinned", [
    ("alpha_ablation", {"alphas": [1.5, 2.0]}, ALPHA_ROWS),
    ("combiner_compare", {}, COMBINER_ROWS),
    ("type1", {"test.k.method": "kcit"}, TYPE1_ROWS),
    ("power", {"test.k.method": "kcit"}, POWER_ROWS),
    ("nk_ablation", {"nks": [50, 100], "seed": 6}, NK_ROWS),
])
def test_pooled_reports_repeat_and_match_pinned_counts(kind, extra, pinned):
    first = _rows(kind, **extra)
    assert _rows(kind, **extra) == first
    want = []
    for label, metric, hits in pinned:
        rate = hits / 3
        want.append(("n=300", label, metric, rate, math.sqrt(rate * (1.0 - rate) / 3)))
    assert first == want


def test_pc_bench_repeats_and_matches_pinned_scores():
    extra = {"gen.n": 200, "gen.d": 4, "test.fz.method": "fisherz",
             "test.or.method": "oracle", "reps": 2}
    first = _rows("pc_bench", **extra)
    assert _rows("pc_bench", **extra) == first
    want = []
    for graph, label, f1, shd in PC_ROWS:
        cid = f"d=4,n=200,graph={graph}"
        want += [(cid, label, "f1", f1, 0.0), (cid, label, "shd", shd, 0.0)]
    assert first == want


def test_nk_ablation_runs_each_ensemble_once_per_grid_point(monkeypatch):
    calls = Counter()
    ecit = bench.ecit

    def counted(data, base, config):
        calls[data.n, config.n_k] += 1
        return ecit(data, base, config)

    monkeypatch.setattr(bench, "ecit", counted)
    rows = _rows("nk_ablation", **{"gen.n": [200, 300], "nks": [50, 100], "reps": 2})
    keys = [row[:3] for row in rows]
    assert len(keys) == 2 * (2 * 2 + 1)
    assert len(set(keys)) == len(keys)
    assert calls == {(n, nk): 2 for n in (200, 300) for nk in (50, 100)}


def test_warm_plain_kcit_replicate_allocates_no_n_by_n_array(monkeypatch):
    n = 300
    peaks = []
    kcit = cit.kcit

    def measured(*args, **kwargs):
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = kcit(*args, **kwargs)
        peaks.append(tracemalloc.get_traced_memory()[1] - start)
        return out

    monkeypatch.setattr(cit, "kcit", measured)
    tracemalloc.start()
    try:
        run_experiment(build_experiment({"kind": "type1", "gen.n": n,
                                         "test.k.method": "kcit", "reps": 3}))
    finally:
        tracemalloc.stop()
    assert len(peaks) == 3
    assert max(peaks[1:]) < n * n * 8


@pytest.mark.parametrize("name, value", [("nk", 100), ("partition_policy", "sequential"),
                                         ("alpha", 1.5)])
def test_nk_ablation_rejects_ensemble_settings(name, value):
    # nks and the fixed alphas override every ensemble key, so none is accepted
    flat = {"kind": "nk_ablation", "gen.n": 300, "test.ek.method": "kcit",
            "test.ek.nk": 50, f"test.ek.{name}": value, "nks": [50]}
    with pytest.raises(ConfigError, match="nks"):
        build_experiment(flat)


@pytest.mark.parametrize("kind", ["alpha_ablation", "combiner_compare"])
def test_pooled_reports_need_an_ensemble_method(kind):
    flat = {"kind": kind, "gen.n": 300, "test.k.method": "kcit", "reps": 1, "alphas": [1.5]}
    with pytest.raises(ConfigError, match="give the method an nk or K"):
        run_experiment(build_experiment(flat))
