"""Experiment harness: grid sweeps, one replicate loop, and report emission.

Experiments are described by a flat dotted-key config (``gen.n = 1200``,
``test.orig.method = rcit``, ...) or built programmatically.  Every replicate
seed derives from (master seed, grid index, replicate index), so methods under
comparison see identical datasets and whole reports reproduce bit-for-bit.

The ``type1``, ``power``, ``alpha_ablation``, ``nk_ablation`` and
``combiner_compare`` reports all read one loop, :func:`_replicate_outcomes`.
It generates each replicate's dataset once and runs each method on it once.
Failures are paired: a replicate on which any method fails is dropped for
every method, and more than 10% failed replicates abort the grid point.
Reports that compare ways of pooling read the ``subtest_ps`` of the loop's
``ecit`` outcomes and pool them as ``ecit`` does.  So ``nk_ablation`` runs one
ensemble per n_k and gets its alpha = 1.75 and alpha = 2 rows from the same
subtests, bit-identical to running ``ecit`` at each alpha.  ``runtime`` times
fresh calls and ``pc_bench`` runs PC on random graphs, each in a loop of its
own.
"""

from __future__ import annotations

import csv
import io
import json
import math
import time
from dataclasses import dataclass, field, fields, replace
from itertools import product

import numpy as np

from . import __version__
from .cit import CITestSpec, DataTriple, _Workspace, run_cit
from .combine import CLASSICAL_METHODS, clamp_pvalues, combine_classical, combine_stable
from .datagen import PnlConfig, gen_pnl, gen_random_dag, simulate_scm
from .discovery import (make_cit_tester, make_dsep_oracle, pc_skeleton, skeleton_metrics,
                        skeleton_of_graph)
from .ensemble import EnsembleConfig, _subset_shape, ecit
from .errors import CitkitError, ConfigError, DataError
from .stable import StableParams

__all__ = [
    "ExperimentConfig", "MethodSpec", "MetricsReport", "ReportRow",
    "run_experiment", "parse_config_text", "build_experiment",
    "load_csv", "load_data_triple", "emit_report", "runtime_profile",
]

KINDS = ("type1", "power", "runtime", "alpha_ablation", "nk_ablation",
         "combiner_compare", "pc_bench")

# generator grid keys and the type of their values; an int serves for a float
_GEN_KEYS = {"n": int, "d_z": int, "z_dist": str, "noise_dist": str, "noise_df": float,
             "beta_x": float, "p_edge": float, "d": int}
# test.<label>.<key> entries passed to CITestSpec; the method and seed are set apart
_OPTION_KEYS = tuple(f.name for f in fields(CITestSpec) if f.name not in ("method", "seed"))
# pc_bench's sample size when the grid gives none
_PC_DEFAULT_N = 2000


@dataclass(frozen=True)
class MethodSpec:
    """One test under comparison: a base CIT, optionally wrapped in an ensemble."""

    label: str
    method: str = "kcit"
    ensemble: EnsembleConfig | None = None
    options: dict = field(default_factory=dict)

    def base_spec(self, seed: int) -> CITestSpec:
        return CITestSpec(method=self.method, seed=seed, **self.options)


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    grid: dict
    methods: tuple
    reps: int = 200
    level: float = 0.05
    seed: int = 0
    alphas: tuple = ()
    nks: tuple = ()
    max_cond: int | None = None  # None: min(3, d-2), see pc_skeleton

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown experiment kind {self.kind!r}; choose from {KINDS}")
        if self.reps < 1:
            raise ConfigError(f"replicate count must be >= 1, got {self.reps}")
        if not (0.0 < self.level < 1.0):
            raise ConfigError(f"level must lie in (0,1), got {self.level}")
        for key, value in self.grid.items():
            if key not in _GEN_KEYS:
                raise ConfigError(f"unknown generator grid key {key!r}")
            for v in value if isinstance(value, (list, tuple)) else [value]:
                if not _is_of_type(v, _GEN_KEYS[key]):
                    raise ConfigError(f"gen.{key} takes {_GEN_KEYS[key].__name__} values, "
                                      f"got {v!r}")
        if self.kind == "alpha_ablation" and not self.alphas:
            raise ConfigError("alpha_ablation needs a non-empty alphas list")
        if self.kind == "nk_ablation" and not self.nks:
            raise ConfigError("nk_ablation needs a non-empty nks list")
        if self.kind not in ("runtime", "pc_bench") and not self.methods \
                and self.kind not in ("alpha_ablation", "combiner_compare"):
            raise ConfigError(f"{self.kind} needs at least one test.<label>.method entry")
        if self.kind != "pc_bench" and any(ms.method == "oracle" for ms in self.methods):
            raise ConfigError("the d-separation oracle (method = oracle) runs only in pc_bench")
        if self.kind == "nk_ablation" and any(ms.ensemble is not None for ms in self.methods):
            raise ConfigError("nk_ablation takes its subset sizes from nks and pools at "
                              "alpha = 1.75 and 2; give its method no ensemble keys "
                              "(nk, K, alpha, partition_policy, remainder_policy, epsilon)")
        self._check_subset_sizes()

    def _check_subset_sizes(self):
        """Every ensemble, and every n_k in ``nks``, must split every grid n."""
        ensembles = [ms.ensemble for ms in self.methods if ms.ensemble is not None]
        ensembles += [EnsembleConfig(n_k=int(nk)) for nk in self.nks]
        default_n = _PC_DEFAULT_N if self.kind == "pc_bench" else PnlConfig.n
        for point in self.grid_points():
            for ensemble in ensembles:
                _subset_shape(int(point.get("n", default_n)), ensemble)

    def grid_points(self):
        keys = sorted(self.grid)
        lists = [v if isinstance(v, (list, tuple)) else [v] for v in (self.grid[k] for k in keys)]
        return [dict(zip(keys, combo)) for combo in product(*lists)]


def _is_of_type(value, kind):
    if kind is str:
        return isinstance(value, str)
    return not isinstance(value, bool) and isinstance(value, (int, kind))


@dataclass(frozen=True)
class ReportRow:
    config_id: str
    method: str
    metric: str
    value: float
    stderr: float
    elapsed_ms: float


@dataclass(frozen=True)
class MetricsReport:
    header: dict
    rows: tuple


def _fingerprint(point: dict) -> str:
    return ",".join(f"{k}={point[k]}" for k in sorted(point))


def _rep_seed(master: int, grid_index: int, rep: int) -> int:
    return int(np.random.SeedSequence((master, grid_index, rep)).generate_state(1, np.uint64)[0])


def _pnl_config(point: dict, hypothesis: str, seed: int) -> PnlConfig:
    kwargs = {k: v for k, v in point.items() if k in
              ("n", "d_z", "z_dist", "noise_dist", "noise_df", "beta_x")}
    return PnlConfig(hypothesis=hypothesis, seed=seed, **kwargs)


def _binomial_se(rate: float, n: int) -> float:
    return math.sqrt(rate * (1.0 - rate) / n)


def _replicate_outcomes(config: ExperimentConfig, hypothesis: str, point: dict,
                        grid_index: int, methods):
    """Outcomes of every method on every replicate at one grid point.

    Returns one tuple per method, holding its outcomes in replicate order.
    Each replicate's dataset is generated once and every method runs on it
    once.  Plain methods share one kcit workspace across the replicates;
    ensembles spread their own subtests over the cores (see
    :func:`citkit.ensemble.ecit`).  Failures are paired: a replicate on which
    any method fails is dropped for every method, and more than 10% failed
    replicates abort the grid point.
    """
    workspace = _Workspace()
    kept, failures = [], []
    for rep in range(config.reps):
        seed = _rep_seed(config.seed, grid_index, rep)
        data = gen_pnl(_pnl_config(point, hypothesis, seed))
        try:
            kept.append([run_cit(data, ms.base_spec(seed), _workspace=workspace)
                         if ms.ensemble is None else
                         ecit(data, ms.base_spec(0), replace(ms.ensemble, seed=seed))
                         for ms in methods])
        except CitkitError as exc:
            failures.append(exc)
    if len(failures) > 0.1 * config.reps:
        raise DataError(f"{len(failures)} of {config.reps} replicates failed; "
                        f"first failure: {failures[0]}")
    return list(zip(*kept))


def _rate_row(config: ExperimentConfig, point: dict, label: str, metric: str, ps,
              seconds: float):
    rate = float(np.mean([p <= config.level for p in ps]))
    return ReportRow(_fingerprint(point), label, metric, rate, _binomial_se(rate, len(ps)),
                     1000.0 * seconds)


def _median_elapsed(outs) -> float:
    return float(np.median([o.elapsed for o in outs]))


def _rate_rows(config: ExperimentConfig, hypothesis: str, metric: str):
    rows = []
    for gi, point in enumerate(config.grid_points()):
        outcomes = _replicate_outcomes(config, hypothesis, point, gi, config.methods)
        for ms, outs in zip(config.methods, outcomes):
            rows.append(_rate_row(config, point, ms.label, metric, [o.p for o in outs],
                                  _median_elapsed(outs)))
    return rows


def runtime_profile(base: CITestSpec, config: EnsembleConfig | None,
                    sizes, seed: int = 0, repeats: int = 5):
    """Median wall-clock seconds per total sample size, on synthetic null data.

    With ``config`` set the ensemble pipeline is timed; with ``config=None``
    the raw base test is timed on the full sample.  Returns a list of
    ``(n, median_elapsed)`` rows, one per requested size.

    An ensemble runs its subtests on min(K, cores // BLAS threads) threads
    (see :func:`ecit`), so the ensemble timings use every core the process
    may run on.  To time one core, pin the process's CPU affinity to one
    core or leave BLAS unpinned.
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


def _runtime_rows(config: ExperimentConfig):
    sizes = sorted({int(p["n"]) for p in config.grid_points()})
    rows = []
    for ms in config.methods:
        base = ms.base_spec(config.seed)
        profile = runtime_profile(base, ms.ensemble, sizes, seed=config.seed)
        for n, med in profile:
            rows.append(ReportRow(f"n={n}", ms.label, "runtime_s", med, 0.0, 1000.0 * med))
    return rows


def _pool_each(outs, pool, epsilon: float):
    """``pool`` applied to each outcome's subtest p-values, clamped as ``ecit`` clamps them."""
    return [pool(clamp_pvalues(o.subtest_ps, epsilon=epsilon)) for o in outs]


def _pooled_rows(config: ExperimentConfig, variants):
    """Type-I rate and power of each way of pooling an ensemble's subtest p-values.

    ``variants(config, ms)`` lists (label, pool) pairs, where ``pool`` maps the
    clamped p-values of one ``ecit`` run to a combined p.  Every variant pools
    the same ``subtest_ps`` of each replicate's ``ecit`` run.
    """
    ms = config.methods[0] if config.methods else MethodSpec(
        label="ekcit", method="kcit", ensemble=EnsembleConfig(n_k=400))
    if ms.ensemble is None:
        raise ConfigError(f"{config.kind} compares ways to pool ensemble subtests; "
                          "give the method an nk or K")
    variants = variants(config, ms)
    rows = []
    for gi, point in enumerate(config.grid_points()):
        for hypothesis, metric in (("H0", "type1_rate"), ("H1", "power")):
            (outs,) = _replicate_outcomes(config, hypothesis, point, gi, (ms,))
            for label, pool in variants:
                t0 = time.perf_counter()
                ps = _pool_each(outs, pool, ms.ensemble.epsilon)
                dt = (time.perf_counter() - t0) / len(outs)
                rows.append(_rate_row(config, point, label, metric, ps, dt))
    return rows


def _stable_pool(alpha: float):
    params = StableParams(alpha, 0.0)
    return lambda clamped: combine_stable(clamped, params).p_combined


def _alpha_variants(config: ExperimentConfig, ms: MethodSpec):
    return [(f"{ms.label}@alpha={alpha:g}", _stable_pool(alpha)) for alpha in config.alphas]


def _combiner_variants(config: ExperimentConfig, ms: MethodSpec):
    classical = [(name, lambda clamped, name=name: combine_classical(name, clamped).p_combined)
                 for name in CLASSICAL_METHODS]
    return [("ours", _stable_pool(ms.ensemble.alpha))] + classical


def _nk_rows(config: ExperimentConfig):
    """Power of one ensemble per n_k, pooled at alpha = 1.75 and 2, and of the base test.

    Both alphas pool the same ``subtest_ps``, so each ensemble runs once per
    replicate; both rows report its median ``ecit`` time.
    """
    base = config.methods[0]
    ensembles = tuple(MethodSpec(label=f"{base.label}@nk={nk}", method=base.method,
                                 ensemble=EnsembleConfig(n_k=int(nk)), options=base.options)
                      for nk in config.nks)
    orig = MethodSpec(label=f"{base.method}-orig", method=base.method, options=base.options)
    rows = []
    for gi, point in enumerate(config.grid_points()):
        *ensemble_outs, orig_outs = _replicate_outcomes(config, "H1", point, gi,
                                                        ensembles + (orig,))
        for nk, ms, outs in zip(config.nks, ensembles, ensemble_outs):
            elapsed = _median_elapsed(outs)
            for alpha in (1.75, 2.0):
                ps = _pool_each(outs, _stable_pool(alpha), ms.ensemble.epsilon)
                rows.append(_rate_row(config, point, f"{base.label}@nk={nk},alpha={alpha:g}",
                                      "power", ps, elapsed))
        rows.append(_rate_row(config, point, orig.label, "power", [o.p for o in orig_outs],
                              _median_elapsed(orig_outs)))
    return rows


def _pc_rows(config: ExperimentConfig):
    rows = []
    for gi, point in enumerate(config.grid_points()):
        d = int(point.get("d", 8))
        n = int(point.get("n", _PC_DEFAULT_N))
        p_edge = float(point.get("p_edge", 0.3))
        noise = point.get("noise_dist", "laplace")
        noise_df = float(point.get("noise_df", 4.0))
        for g in range(config.reps):
            seed = _rep_seed(config.seed, gi, g)
            graph = gen_random_dag(d, p_edge, seed=seed)
            truth = skeleton_of_graph(graph)
            scm = simulate_scm(graph, n, noise_dist=noise, seed=seed, noise_df=noise_df)
            for ms in config.methods:
                t0 = time.perf_counter()
                if ms.method == "oracle":
                    tester = make_dsep_oracle(graph)
                    max_cond = d - 2
                else:
                    ens = None if ms.ensemble is None else replace(ms.ensemble, seed=seed)
                    tester = make_cit_tester(scm.values, ms.base_spec(seed), ens)
                    max_cond = config.max_cond
                est = pc_skeleton(scm.values if ms.method != "oracle" else None,
                                  tester, level=config.level, max_cond=max_cond,
                                  d=d)
                _, _, f1, shd = skeleton_metrics(est, truth)
                dt = 1000.0 * (time.perf_counter() - t0)
                cid = f"{_fingerprint(point)},graph={g}"
                rows.append(ReportRow(cid, ms.label, "f1", float(f1), 0.0, dt))
                rows.append(ReportRow(cid, ms.label, "shd", float(shd), 0.0, dt))
    return rows


def run_experiment(config: ExperimentConfig) -> MetricsReport:
    """Run the configured sweep and aggregate a deterministic report."""
    handlers = {
        "type1": lambda: _rate_rows(config, "H0", "type1_rate"),
        "power": lambda: _rate_rows(config, "H1", "power"),
        "runtime": lambda: _runtime_rows(config),
        "alpha_ablation": lambda: _pooled_rows(config, _alpha_variants),
        "nk_ablation": lambda: _nk_rows(config),
        "combiner_compare": lambda: _pooled_rows(config, _combiner_variants),
        "pc_bench": lambda: _pc_rows(config),
    }
    rows = handlers[config.kind]()
    header = {
        "kind": config.kind,
        "seed": config.seed,
        "reps": config.reps,
        "level": config.level,
        "version": __version__,
        "partition_policy": next((ms.ensemble.partition_policy for ms in config.methods
                                  if ms.ensemble is not None), "shuffle"),
    }
    return MetricsReport(header=header, rows=tuple(rows))


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def _parse_value(raw: str):
    raw = raw.strip()
    if "," in raw:
        return [_parse_value(tok) for tok in raw.split(",") if tok.strip()]
    for cast in (int, float):
        try:
            return cast(raw)
        except ValueError:
            pass
    return raw


def parse_config_text(text: str) -> dict:
    """Flat dotted-key config: one ``key = value`` per line, ``#`` comments."""
    flat = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"config line {lineno}: expected 'key = value', got {body!r}")
        key, _, raw = body.partition("=")
        flat[key.strip()] = _parse_value(raw)
    return flat


def parse_noise(token, name):
    """(dist, df) of a noise token ``dist`` or ``dist:df``, df None without one.

    A df that is not a number raises ``ConfigError`` naming the setting ``name``.
    """
    if isinstance(token, str) and ":" in token:
        dist, _, df = token.partition(":")
        try:
            return dist, float(df)
        except ValueError:
            raise ConfigError(f"{name} takes dist or dist:df, got {token!r}") from None
    return token, None


def _build_methods(flat: dict):
    groups: dict = {}
    for key, value in flat.items():
        if not key.startswith("test."):
            continue
        parts = key.split(".")
        if len(parts) != 3:
            raise ConfigError(f"method keys look like test.<label>.<field>, got {key!r}")
        groups.setdefault(parts[1], {})[parts[2]] = value
    methods = []
    for label in sorted(groups):
        options = dict(groups[label])
        method = options.pop("method", "kcit")
        ens_kwargs = {}
        if "nk" in options:
            ens_kwargs["n_k"] = int(options.pop("nk"))
        if "K" in options:
            ens_kwargs["K"] = int(options.pop("K"))
        for name in ("alpha", "partition_policy", "remainder_policy", "epsilon"):
            if name in options:
                ens_kwargs[name] = options.pop(name)
        for name in options:
            if name not in _OPTION_KEYS:
                raise ConfigError(f"unknown method option test.{label}.{name}; "
                                  f"a CI test takes {', '.join(_OPTION_KEYS)}")
        ensemble = EnsembleConfig(**ens_kwargs) if ens_kwargs else None
        ms = MethodSpec(label=label, method=method, ensemble=ensemble, options=options)
        if method != "oracle":
            try:
                ms.base_spec(0)  # raises ConfigError on a bad option value
            except TypeError as exc:
                raise ConfigError(f"bad option value for test.{label}: {exc}") from None
        methods.append(ms)
    return tuple(methods)


def build_experiment(flat: dict) -> ExperimentConfig:
    """Turn a flat dotted-key mapping into a validated ExperimentConfig."""
    flat = dict(flat)
    kind = flat.pop("kind", None)
    if kind is None:
        raise ConfigError("config needs a 'kind' entry")
    grid = {}
    for key in list(flat):
        if key.startswith("gen."):
            name = key[4:]
            value = flat.pop(key)
            if name == "noise":
                dists = value if isinstance(value, list) else [value]
                parsed = [parse_noise(v, "gen.noise") for v in dists]
                grid["noise_dist"] = [p[0] for p in parsed]
                dfs = [p[1] for p in parsed if p[1] is not None]
                if dfs:
                    if len(dfs) != len(parsed):
                        raise ConfigError("mixing df'd and df-less noise specs in one grid")
                    grid["noise_df"] = dfs if len(dfs) > 1 else dfs[0]
                if len(grid["noise_dist"]) == 1:
                    grid["noise_dist"] = grid["noise_dist"][0]
            else:
                grid[name] = value
    methods = _build_methods(flat)
    for key in list(flat):
        if key.startswith("test."):
            flat.pop(key)
    kwargs = {}
    for name in ("reps", "level", "seed", "max_cond"):
        if name in flat:
            kwargs[name] = flat.pop(name)
    if "alphas" in flat:
        v = flat.pop("alphas")
        kwargs["alphas"] = tuple(v) if isinstance(v, list) else (v,)
    if "nks" in flat:
        v = flat.pop("nks")
        kwargs["nks"] = tuple(v) if isinstance(v, list) else (v,)
    if flat:
        raise ConfigError(f"unknown config keys: {sorted(flat)}")
    return ExperimentConfig(kind=kind, grid=grid, methods=methods, **kwargs)


# ---------------------------------------------------------------------------
# CSV ingestion and report emission
# ---------------------------------------------------------------------------

def load_csv(path):
    """Numeric CSV with a header row -> (matrix, column names).

    Any non-numeric or non-finite cell raises a DataError naming the cell.
    """
    try:
        fh = open(path, encoding="utf-8", newline="")
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc}") from exc
    with fh:
        try:
            reader = csv.reader(fh)
            header = next(reader, None)
            if not header:
                raise DataError(f"{path}: empty file, expected a header row")
            rows = []
            for rownum, cells in enumerate(reader, start=2):
                if len(cells) != len(header):
                    raise DataError(f"{path}: row {rownum} has {len(cells)} cells, "
                                    f"expected {len(header)}")
                parsed = []
                for name, cell in zip(header, cells):
                    try:
                        v = float(cell)
                    except ValueError:
                        raise DataError(f"{path}: row {rownum}, column {name!r}: "
                                        f"non-numeric cell {cell!r}") from None
                    if not math.isfinite(v):
                        raise DataError(f"{path}: row {rownum}, column {name!r}: "
                                        f"non-finite cell {cell!r}")
                    parsed.append(v)
                rows.append(parsed)
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: not valid UTF-8: {exc}") from exc
    if not rows:
        raise DataError(f"{path}: no data rows")
    return np.array(rows, dtype=float), [h.strip() for h in header]


def load_data_triple(path, x, y, z=()):
    """Load a CSV and slice named columns into a DataTriple."""
    matrix, names = load_csv(path)
    index = {name: i for i, name in enumerate(names)}
    missing = [c for c in (x, y, *z) if c not in index]
    if missing:
        raise DataError(f"{path}: missing columns {missing}; available: {names}")
    zcols = [index[c] for c in z]
    return DataTriple(matrix[:, [index[x]]], matrix[:, [index[y]]],
                      matrix[:, zcols] if zcols else None)


_CSV_HEADER = ("config_id", "method", "metric", "value", "stderr", "elapsed_ms")


def emit_report(report: MetricsReport, fmt: str = "csv") -> str:
    """Serialize a report as CSV or JSON text."""
    if not report.rows:
        raise ConfigError("refusing to emit an empty report")
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(_CSV_HEADER)
        for r in report.rows:
            writer.writerow([r.config_id, r.method, r.metric,
                             repr(r.value), repr(r.stderr), repr(r.elapsed_ms)])
        return buf.getvalue()
    if fmt == "json":
        payload = {"header": report.header,
                   "rows": [{"config_id": r.config_id, "method": r.method,
                             "metric": r.metric, "value": r.value,
                             "stderr": r.stderr, "elapsed_ms": r.elapsed_ms}
                            for r in report.rows]}
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    raise ConfigError(f"unknown report format {fmt!r}; use csv or json")
