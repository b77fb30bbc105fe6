"""Synthetic data generators for conditional-independence benchmarks.

Two families:

* a post-nonlinear benchmark: X and Y are nonlinear transforms of weighted
  sums of a shared conditioning vector Z (plus noise), with the alternative
  injecting X into Y's argument;
* random DAGs over a fixed topological order with a guaranteed backbone
  chain, simulated as additive-noise structural models with per-edge
  nonlinearities.

Everything is deterministic given the seed.
"""

from dataclasses import dataclass

import numpy as np

from .cit import DataTriple
from .errors import ConfigError

__all__ = [
    "GraphSpec",
    "NONLINEARITIES",
    "PnlConfig",
    "ScmData",
    "gen_pnl",
    "gen_random_dag",
    "simulate_scm",
]

NONLINEARITIES = {
    "identity": lambda v: v,
    "square": np.square,
    "cube": lambda v: v ** 3,
    "tanh": np.tanh,
    "cos": np.cos,
}
_FUNC_NAMES = tuple(NONLINEARITIES)  # fixed order: selection by index

_Z_DISTS = ("gaussian", "laplace")
_NOISE_DISTS = ("student_t", "cauchy", "laplace", "gaussian")

_CLIP = 1e12


def _draw_noise(rng, dist, df, size):
    if dist == "student_t":
        return rng.standard_t(df, size=size)
    if dist == "cauchy":
        return rng.standard_cauchy(size=size)
    if dist == "laplace":
        return rng.laplace(0.0, 1.0, size=size)
    return rng.standard_normal(size=size)


@dataclass(frozen=True)
class PnlConfig:
    """Settings for the post-nonlinear generator."""

    hypothesis: str = "H0"
    n: int = 400
    d_z: int = 1
    z_dist: str = "gaussian"
    noise_dist: str = "student_t"
    noise_df: float = 4.0
    beta_x: float = 1.0
    seed: int = 0
    fx: str | None = None  # fix the nonlinearity instead of drawing it
    fy: str | None = None

    def __post_init__(self):
        if self.hypothesis not in ("H0", "H1"):
            raise ConfigError(f"hypothesis must be 'H0' or 'H1', got {self.hypothesis!r}")
        if self.n < 1:
            raise ConfigError(f"n must be >= 1, got {self.n}")
        if self.d_z < 1:
            raise ConfigError(f"d_z must be >= 1, got {self.d_z}")
        if self.z_dist not in _Z_DISTS:
            raise ConfigError(f"z_dist must be one of {_Z_DISTS}, got {self.z_dist!r}")
        if self.noise_dist not in _NOISE_DISTS:
            raise ConfigError(f"noise_dist must be one of {_NOISE_DISTS}, got {self.noise_dist!r}")
        if self.noise_dist == "student_t" and self.noise_df < 1:
            raise ConfigError(f"student_t needs df >= 1, got {self.noise_df}")
        for f in (self.fx, self.fy):
            if f is not None and f not in NONLINEARITIES:
                raise ConfigError(f"unknown nonlinearity {f!r}; choose from {_FUNC_NAMES}")


def gen_pnl(config):
    """Generate one post-nonlinear dataset.

    Under H0:  X = f_X(W_X' Z + eps_X),  Y = f_Y(W_Y' Z + eps_Y)
    Under H1:  X = f_X(W_X' Z + eps_X),  Y = f_Y(W_Y' Z + beta_X * X) + eps_Y

    Z columns are iid standard normal or Laplace; W entries are U(0,1)
    normalized so each column sums to one; f_X, f_Y are drawn uniformly from
    {x, x^2, x^3, tanh, cos}; noise is iid from the configured law.  The
    pre-nonlinearity latents and ground truth ride along in ``meta``.
    """
    rng = np.random.default_rng(config.seed)
    n, dz = config.n, config.d_z

    if config.z_dist == "gaussian":
        z = rng.standard_normal((n, dz))
    else:
        z = rng.laplace(0.0, 1.0, size=(n, dz))

    wx = rng.uniform(0.0, 1.0, size=(dz, 1))
    wy = rng.uniform(0.0, 1.0, size=(dz, 1))
    wx /= wx.sum(axis=0)
    wy /= wy.sum(axis=0)

    fx_name = config.fx or _FUNC_NAMES[rng.integers(len(_FUNC_NAMES))]
    fy_name = config.fy or _FUNC_NAMES[rng.integers(len(_FUNC_NAMES))]
    f_x, f_y = NONLINEARITIES[fx_name], NONLINEARITIES[fy_name]

    eps_x = _draw_noise(rng, config.noise_dist, config.noise_df, (n, 1))
    eps_y = _draw_noise(rng, config.noise_dist, config.noise_df, (n, 1))

    latent_x = z @ wx + eps_x
    x = f_x(latent_x)
    if config.hypothesis == "H0":
        latent_y = z @ wy + eps_y
        y = f_y(latent_y)
    else:
        latent_y = z @ wy + config.beta_x * x
        y = f_y(latent_y) + eps_y

    meta = {
        "generator": "pnl",
        "hypothesis": config.hypothesis,
        "ground_truth": "conditionally independent" if config.hypothesis == "H0"
        else "conditionally dependent",
        "fx": fx_name,
        "fy": fy_name,
        "latent_x": latent_x,
        "latent_y": latent_y,
        "wx": wx,
        "wy": wy,
        "seed": config.seed,
        "d_z": dz,
        "z_dist": config.z_dist,
        "noise_dist": config.noise_dist,
    }
    return DataTriple(x, y, z, meta=meta)


@dataclass(frozen=True)
class GraphSpec:
    """A DAG over variables 0..d-1 whose edges all point forward in that order.

    The edges must include the backbone chain 0 -> 1 -> ... -> d-1.
    """

    d: int
    edges: frozenset

    def __post_init__(self):
        if self.d < 1:
            raise ConfigError(f"d must be >= 1, got {self.d}")
        edges = frozenset((int(i), int(j)) for i, j in self.edges)
        for i, j in edges:
            if not (0 <= i < j < self.d):
                raise ConfigError(f"edge ({i}, {j}) is not a forward pair within 0..{self.d - 1}")
        chain = {(i, i + 1) for i in range(self.d - 1)}
        if not chain <= edges:
            missing = sorted(chain - edges)
            raise ConfigError(f"backbone edges missing from edge set: {missing}")
        object.__setattr__(self, "edges", edges)

    def parents(self, j):
        return sorted(i for i, k in self.edges if k == j)

    def ancestors(self, j):
        seen = set()
        stack = [j]
        while stack:
            node = stack.pop()
            for i in self.parents(node):
                if i not in seen:
                    seen.add(i)
                    stack.append(i)
        return seen


def gen_random_dag(d, p_edge, seed):
    """Backbone chain 0->1->...->d-1 plus independent forward edges.

    Every pair (i, j) with j > i + 1 is included with probability p_edge, in a
    fixed lexicographic order so the result is deterministic given the seed.
    """
    if d < 2:
        raise ConfigError(f"gen_random_dag needs d >= 2, got {d}")
    if not (0.0 <= p_edge <= 1.0):
        raise ConfigError(f"p_edge must be a probability, got {p_edge}")
    rng = np.random.default_rng(seed)
    edges = {(i, i + 1) for i in range(d - 1)}
    for i in range(d):
        for j in range(i + 2, d):
            if rng.uniform() < p_edge:
                edges.add((i, j))
    return GraphSpec(d=d, edges=frozenset(edges))


@dataclass(frozen=True)
class ScmData:
    """Simulation output: values plus clipping/provenance metadata."""

    values: np.ndarray
    clipped: bool
    clip_count: int
    edge_functions: dict


def simulate_scm(graph, n, noise_dist="gaussian", seed=0, noise_df=4.0):
    """Simulate an additive-noise SCM over the graph.

    Roots are pure noise; each non-root is the sum of per-edge nonlinear
    transforms of its parents plus noise.  Per-variable noise and per-edge
    function choices are keyed independently on (seed, variable) and
    (seed, edge), so editing part of the graph never perturbs the columns of
    variables whose ancestry is untouched.  Values exceeding 1e12 in magnitude
    (cubic chains under Cauchy noise) are clipped, with the count reported.
    """
    if noise_dist not in _NOISE_DISTS:
        raise ConfigError(f"noise_dist must be one of {_NOISE_DISTS}, got {noise_dist!r}")
    if n < 1:
        raise ConfigError(f"n must be >= 1, got {n}")
    data = np.empty((n, graph.d))
    clip_count = 0
    edge_functions = {}
    for j in range(graph.d):
        rng_j = np.random.default_rng(np.random.SeedSequence((seed, 0, j)))
        col = _draw_noise(rng_j, noise_dist, noise_df, n)
        for i in graph.parents(j):
            rng_e = np.random.default_rng(np.random.SeedSequence((seed, 1, i, j)))
            name = _FUNC_NAMES[rng_e.integers(len(_FUNC_NAMES))]
            edge_functions[(i, j)] = name
            col = col + NONLINEARITIES[name](data[:, i])
        over = ~np.isfinite(col) | (np.abs(col) > _CLIP)
        if np.any(over):
            clip_count += int(over.sum())
            col = np.clip(np.nan_to_num(col, nan=0.0, posinf=_CLIP, neginf=-_CLIP),
                          -_CLIP, _CLIP)
        data[:, j] = col
    return ScmData(values=data, clipped=clip_count > 0, clip_count=clip_count,
                   edge_functions=edge_functions)
