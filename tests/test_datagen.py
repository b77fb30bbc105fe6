"""Tests for the synthetic benchmark generators.

Structural claims (ground-truth labels, backbone guarantees, determinism) are
asserted directly; distributional claims are checked against independent
oracles: closed-form correlations from variance arithmetic, least-squares
partial correlations computed here rather than through the package's own
tests, and scipy CDFs for the noise laws.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from citkit.datagen import (
    GraphSpec,
    NONLINEARITIES,
    PnlConfig,
    ScmData,
    gen_pnl,
    gen_random_dag,
    simulate_scm,
)
from citkit.errors import ConfigError


def partial_corr(x, y, z):
    """Sample partial correlation of x and y given z via OLS residuals."""
    zz = np.hstack([np.ones((len(z), 1)), z])
    rx = x - zz @ np.linalg.lstsq(zz, x, rcond=None)[0]
    ry = y - zz @ np.linalg.lstsq(zz, y, rcond=None)[0]
    return float(np.corrcoef(rx.ravel(), ry.ravel())[0, 1])


def chain_graph(d):
    return GraphSpec(d=d, edges=frozenset((i, i + 1) for i in range(d - 1)))


class TestPnlConfig:
    def test_defaults_valid(self):
        cfg = PnlConfig()
        assert cfg.hypothesis == "H0"
        assert cfg.d_z == 1

    @pytest.mark.parametrize("kwargs", [
        {"hypothesis": "h2"},
        {"n": 0},
        {"d_z": 0},
        {"z_dist": "uniform"},
        {"noise_dist": "gumbel"},
        {"noise_dist": "student_t", "noise_df": 0.5},
        {"fx": "exp"},
        {"fy": "sin"},
    ])
    def test_rejects_bad_settings(self, kwargs):
        with pytest.raises(ConfigError):
            PnlConfig(**kwargs)


class TestGenPnl:
    def test_h0_ground_truth_label(self):
        data = gen_pnl(PnlConfig(hypothesis="H0", n=50, seed=9))
        assert data.meta["ground_truth"] == "conditionally independent"

    def test_h1_ground_truth_label(self):
        data = gen_pnl(PnlConfig(hypothesis="H1", n=50, seed=9))
        assert data.meta["ground_truth"] == "conditionally dependent"

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_h1_linear_partial_correlation(self, seed):
        # With both nonlinearities pinned to the identity and beta_x = 1,
        # X = Z + eps_X and Y = Z + X + eps_Y, so the residuals of X and Y
        # on Z are eps_X and eps_X + eps_Y: partial correlation 1/sqrt(2)
        # for equal noise variances, comfortably above 0.3.
        data = gen_pnl(PnlConfig(hypothesis="H1", n=2000, fx="identity",
                                 fy="identity", beta_x=1.0, seed=seed))
        assert partial_corr(data.x, data.y, data.z) > 0.3

    def test_same_seed_identical(self):
        cfg = PnlConfig(hypothesis="H1", n=300, d_z=3, seed=42)
        a, b = gen_pnl(cfg), gen_pnl(cfg)
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.y, b.y)
        assert np.array_equal(a.z, b.z)

    def test_different_seeds_differ(self):
        a = gen_pnl(PnlConfig(n=300, seed=0))
        b = gen_pnl(PnlConfig(n=300, seed=1))
        assert not np.array_equal(a.x, b.x)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_h0_latent_oracle_partial_correlation(self, seed):
        # Under H0 the pre-nonlinearity latents are Z-mixtures plus
        # independent noise, so their partial correlation given Z is zero;
        # the sample estimate at n=5000 stays inside +/-0.05.
        data = gen_pnl(PnlConfig(hypothesis="H0", n=5000, seed=seed))
        r = partial_corr(data.meta["latent_x"], data.meta["latent_y"], data.z)
        assert abs(r) < 0.05

    @pytest.mark.parametrize("d_z", [1, 2, 5])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_mixing_columns_sum_to_one(self, d_z, seed):
        data = gen_pnl(PnlConfig(n=20, d_z=d_z, seed=seed))
        for key in ("wx", "wy"):
            w = data.meta[key]
            assert w.shape == (d_z, 1)
            np.testing.assert_allclose(w.sum(axis=0), 1.0, atol=1e-12)
            assert np.all(w >= 0)

    def test_fixed_nonlinearities_recorded(self):
        data = gen_pnl(PnlConfig(n=20, fx="cos", fy="square", seed=0))
        assert data.meta["fx"] == "cos"
        assert data.meta["fy"] == "square"

    def test_drawn_nonlinearities_from_menu(self):
        seen = {gen_pnl(PnlConfig(n=8, seed=s)).meta["fx"] for s in range(60)}
        assert seen <= set(NONLINEARITIES)
        assert len(seen) == len(NONLINEARITIES)  # all five appear across seeds

    def test_shapes(self):
        data = gen_pnl(PnlConfig(n=64, d_z=4, seed=3))
        assert data.x.shape == (64, 1)
        assert data.y.shape == (64, 1)
        assert data.z.shape == (64, 4)

    def test_laplace_z_supported(self):
        data = gen_pnl(PnlConfig(n=5000, z_dist="laplace", seed=2))
        # Laplace has heavier tails than the unit normal: excess kurtosis.
        assert stats.kurtosis(data.z.ravel()) > 1.0


class TestGenRandomDag:
    @pytest.mark.parametrize("seed", [0, 1, 17, 123])
    def test_d2_is_exactly_backbone(self, seed):
        graph = gen_random_dag(2, 0.9, seed=seed)
        assert graph.edges == frozenset({(0, 1)})

    @pytest.mark.parametrize("seed", [0, 5])
    def test_zero_probability_gives_backbone(self, seed):
        graph = gen_random_dag(8, 0.0, seed=seed)
        assert graph.edges == frozenset((i, i + 1) for i in range(7))

    def test_one_probability_gives_complete_forward_graph(self):
        graph = gen_random_dag(6, 1.0, seed=0)
        assert len(graph.edges) == 15  # C(6, 2)

    def test_optional_edge_count_matches_binomial_expectation(self):
        # d=10 has 45 forward pairs, 9 of them backbone, so the expected
        # optional-edge count at p_edge=0.3 is 0.3 * 36 = 10.8.
        counts = [len(gen_random_dag(10, 0.3, seed=s).edges) - 9
                  for s in range(500)]
        assert abs(float(np.mean(counts)) - 10.8) < 1.0

    def test_deterministic_given_seed(self):
        assert gen_random_dag(9, 0.4, seed=11).edges == gen_random_dag(9, 0.4, seed=11).edges

    def test_rejects_small_d_and_bad_probability(self):
        with pytest.raises(ConfigError):
            gen_random_dag(1, 0.3, seed=0)
        with pytest.raises(ConfigError):
            gen_random_dag(5, 1.5, seed=0)

    @given(d=st.integers(2, 12), p=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_always_contains_backbone_and_only_forward_edges(self, d, p, seed):
        graph = gen_random_dag(d, p, seed=seed)
        assert {(i, i + 1) for i in range(d - 1)} <= graph.edges
        assert all(0 <= i < j < d for i, j in graph.edges)


class TestGraphSpec:
    def test_rejects_backward_edge(self):
        with pytest.raises(ConfigError):
            GraphSpec(d=3, edges=frozenset({(0, 1), (1, 2), (2, 0)}))

    def test_rejects_missing_backbone_edge(self):
        with pytest.raises(ConfigError):
            GraphSpec(d=3, edges=frozenset({(0, 2), (1, 2)}))

    def test_parents_and_ancestors(self):
        graph = GraphSpec(d=4, edges=frozenset({(0, 1), (1, 2), (2, 3), (0, 3)}))
        assert graph.parents(3) == [0, 2]
        assert graph.ancestors(3) == {0, 1, 2}
        assert graph.ancestors(1) == {0}
        assert graph.ancestors(0) == set()

    def test_single_variable_graph_allowed(self):
        graph = GraphSpec(d=1, edges=frozenset())
        assert graph.parents(0) == []


class TestSimulateScm:
    def test_chain_identity_correlation_matches_variance_arithmetic(self):
        # Seed 3 draws the identity transform for edge (0, 1); then
        # X1 = X0 + eps with unit-variance pieces, so corr(X0, X1) = 1/sqrt(2).
        scm = simulate_scm(chain_graph(2), 100_000, noise_dist="gaussian", seed=3)
        assert scm.edge_functions[(0, 1)] == "identity"
        r = np.corrcoef(scm.values[:, 0], scm.values[:, 1])[0, 1]
        assert abs(r - 1.0 / np.sqrt(2.0)) < 0.01

    def test_single_variable_is_pure_noise(self):
        graph = GraphSpec(d=1, edges=frozenset())
        scm = simulate_scm(graph, 100_000, noise_dist="gaussian", seed=4)
        assert scm.values.shape == (100_000, 1)
        assert stats.kstest(scm.values[:, 0], "norm").pvalue > 0.01

    @pytest.mark.parametrize("dist,cdf,args", [
        ("gaussian", "norm", ()),
        ("laplace", "laplace", ()),
        ("cauchy", "cauchy", ()),
        ("student_t", "t", (4.0,)),
    ])
    def test_noise_distributions_match_analytic_cdfs(self, dist, cdf, args):
        graph = GraphSpec(d=1, edges=frozenset())
        scm = simulate_scm(graph, 100_000, noise_dist=dist, seed=8, noise_df=4.0)
        assert stats.kstest(scm.values[:, 0], cdf, args=args).pvalue > 0.01

    def test_same_seed_identical_two_seeds_differ(self):
        graph = gen_random_dag(5, 0.4, seed=2)
        a = simulate_scm(graph, 500, seed=10)
        b = simulate_scm(graph, 500, seed=10)
        c = simulate_scm(graph, 500, seed=11)
        assert np.array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)

    def test_edge_functions_recorded_for_every_edge(self):
        graph = gen_random_dag(6, 0.5, seed=1)
        scm = simulate_scm(graph, 50, seed=0)
        assert set(scm.edge_functions) == set(graph.edges)
        assert set(scm.edge_functions.values()) <= set(NONLINEARITIES)

    def test_cauchy_cubic_chain_clips_at_1e12(self):
        # Seed 0 draws the cubic transform for edge (0, 1); standard Cauchy
        # draws above 1e4 in magnitude cube past the 1e12 ceiling.
        scm = simulate_scm(chain_graph(2), 100_000, noise_dist="cauchy", seed=0)
        assert scm.edge_functions[(0, 1)] == "cube"
        assert scm.clipped
        assert scm.clip_count > 0
        assert np.all(np.isfinite(scm.values))
        assert np.abs(scm.values).max() <= 1e12

    def test_benign_simulation_reports_no_clipping(self):
        scm = simulate_scm(chain_graph(3), 2000, noise_dist="gaussian", seed=5)
        assert not scm.clipped
        assert scm.clip_count == 0

    def test_rejects_bad_noise_and_n(self):
        with pytest.raises(ConfigError):
            simulate_scm(chain_graph(2), 100, noise_dist="uniform")
        with pytest.raises(ConfigError):
            simulate_scm(chain_graph(2), 0)


class TestTopologicalSoundness:
    def test_adding_edge_downstream_leaves_upstream_columns_bit_identical(self):
        base = chain_graph(4)
        widened = GraphSpec(d=4, edges=base.edges | {(1, 3)})
        a = simulate_scm(base, 400, seed=21)
        b = simulate_scm(widened, 400, seed=21)
        # Variables 0..2 have identical ancestry in both graphs.
        assert np.array_equal(a.values[:, :3], b.values[:, :3])
        assert not np.array_equal(a.values[:, 3], b.values[:, 3])

    def test_adding_edge_into_middle_preserves_earlier_columns(self):
        base = chain_graph(4)
        widened = GraphSpec(d=4, edges=base.edges | {(0, 2)})
        a = simulate_scm(base, 400, seed=22)
        b = simulate_scm(widened, 400, seed=22)
        assert np.array_equal(a.values[:, :2], b.values[:, :2])
        assert not np.array_equal(a.values[:, 2], b.values[:, 2])

    @given(d=st.integers(3, 7), seed=st.integers(0, 10_000), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_new_edge_never_perturbs_columns_before_its_head(self, d, seed, data):
        graph = gen_random_dag(d, 0.3, seed=seed)
        candidates = [(i, j) for i in range(d) for j in range(i + 2, d)
                      if (i, j) not in graph.edges]
        if not candidates:
            return
        i, j = data.draw(st.sampled_from(candidates))
        widened = GraphSpec(d=d, edges=graph.edges | {(i, j)})
        a = simulate_scm(graph, 100, seed=seed)
        b = simulate_scm(widened, 100, seed=seed)
        assert np.array_equal(a.values[:, :j], b.values[:, :j])

    def test_scm_data_is_immutable_record(self):
        scm = simulate_scm(chain_graph(2), 16, seed=0)
        assert isinstance(scm, ScmData)
        with pytest.raises(AttributeError):
            scm.clipped = True
