"""Fast tests of the benchmark's own oracles and correctness checks.

Each check is fed a correct output and a corrupted one; the corrupted one
must be caught.  Nothing here imports citkit.
"""

import json
import math
from pathlib import Path

import mpmath
import pytest
from scipy.special import ndtr

import checks
import oracles
import tracing


@pytest.mark.parametrize("x", [-3.0, -0.2, 0.01, 0.7, 2.5, 40.0, 1e4])
def test_stable_cdf_matches_closed_forms(x):
    # alpha = 2 is Normal(0, 2 gamma^2); alpha = 1 is Cauchy(0, gamma)
    assert oracles.stable_cdf(x, 2.0, 1.3) == pytest.approx(ndtr(x / (1.3 * math.sqrt(2.0))),
                                                            abs=1e-14)
    assert oracles.stable_cdf(x, 1.0, 0.7) == pytest.approx(0.5 + math.atan(x / 0.7) / math.pi,
                                                            abs=1e-14)


@pytest.mark.parametrize("x", [0.3, 1.0, 2.5, 4.0])
def test_stable_cdf_matches_origin_series_at_alpha_1_75(x):
    # F(x) = 1/2 + 1/(pi alpha) sum_j (-1)^j Gamma((2j+1)/alpha) / (2j+1)! x^(2j+1)
    alpha = mpmath.mpf(7) / 4
    with mpmath.workdps(60):
        s = mpmath.nsum(lambda j: (-1) ** j * mpmath.gamma((2 * j + 1) / alpha)
                        / mpmath.factorial(2 * j + 1) * mpmath.mpf(x) ** (2 * j + 1), [0, 250])
        ref = float(mpmath.mpf(1) / 2 + s / (mpmath.pi * alpha))
    assert oracles.stable_cdf(x, 1.75) == pytest.approx(ref, abs=1e-13)


@pytest.mark.parametrize("p", [1e-6, 0.01, 0.3, 0.5, 0.9, 0.999])
def test_stable_quantile_inverts_cdf(p):
    q = oracles.stable_quantile(p, 1.75)
    assert oracles.stable_cdf(q, 1.75) == pytest.approx(p, abs=1e-13)
    assert oracles.stable_quantile(1.0 - p, 1.75) == pytest.approx(-q, rel=1e-10)


def test_combined_p_of_one_pvalue_is_itself():
    assert oracles.stable_combined_p([0.2], 1.75) == pytest.approx(0.2, abs=1e-12)


def test_d_separation_chain_fork_collider():
    # 0 -> 1 -> 2, 1 -> 3 <- 4, 3 -> 5
    parents = {0: set(), 1: {0}, 2: {1}, 3: {1, 4}, 4: set(), 5: {3}}
    assert not oracles.d_separated(parents, 0, 2, ())
    assert oracles.d_separated(parents, 0, 2, (1,))
    assert oracles.d_separated(parents, 2, 3, (1,))
    assert oracles.d_separated(parents, 0, 4, ())
    assert not oracles.d_separated(parents, 0, 4, (3,))
    assert not oracles.d_separated(parents, 0, 4, (5,))
    assert oracles.d_separated(parents, 0, 4, (5, 1))


def _h0_case():
    subtest_ps = [0.03, 0.41, 0.77, 0.12, 0.95, 0.5, 0.66, 0.08, 0.29, 0.35]
    return oracles.stable_combined_p(subtest_ps, 1.75), subtest_ps


def test_h0_check_catches_p_off_by_1e_4():
    p, subtest_ps = _h0_case()
    assert checks.h0_oracle_problems("q", p, subtest_ps, 1.75, 1e-12) == []
    assert checks.h0_oracle_problems("q", p + 1e-4, subtest_ps, 1.75, 1e-12)
    assert checks.h0_oracle_problems("q", p - 1e-4, subtest_ps, 1.75, 1e-12)


def test_shape_and_h1_checks_catch_corruption():
    ps = [0.5] * 10
    assert checks.ecit_shape_problems("q", 0.5, 4000, ps, 4000, 400) == []
    assert checks.ecit_shape_problems("q", 0.5, 3600, ps, 4000, 400)
    assert checks.ecit_shape_problems("q", 0.5, 4000, ps[:9], 4000, 400)
    assert checks.ecit_shape_problems("q", 1.5, 4000, ps, 4000, 400)
    assert checks.h1_problems("q", 0.01, 0.05) == []
    assert checks.h1_problems("q", 0.2, 0.05)


def test_skeleton_check_catches_a_wrong_edge():
    truth = [(0, 1), (1, 2), (0, 3)]
    assert checks.skeleton_problems([(1, 0), (1, 2), (0, 3)], truth) == []
    assert checks.skeleton_problems([(0, 1), (1, 2), (0, 2)], truth)
    assert checks.skeleton_problems([(0, 1), (1, 2)], truth)


def test_removed_edge_check_catches_a_rejecting_retest():
    assert checks.removed_edge_problems({(0, 2): 0.4, (1, 3): 0.06}, 0.05) == []
    assert checks.removed_edge_problems({(0, 2): 0.4, (1, 3): 0.05}, 0.05)
    assert checks.pc_output_problems(3, [(0, 1), (1, 2)], {(0, 2): (1,)}) == []
    assert checks.pc_output_problems(3, [(0, 1), (1, 2)], {(0, 1): ()})


def test_benchmark_json_lists_every_per_layer_metric():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    listed = {(m["name"], m["unit"]) for m in spec["per_layer"]}
    assert listed == set(tracing.per_layer_metric_names())
