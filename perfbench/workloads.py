"""The benchmark's workloads: inputs made before timing, one round of work,
and the correctness checks on the rounds' outputs.

A round is the same fixed batch of operations every time, so every run
attempts whole rounds and its outputs can be compared round against round.
citkit is reached through module attributes at call time (``ensemble.ecit``,
``cli.main``), so the tracer's wrappers are seen when it is active.  Import
this module only after ``src/`` is on the path.
"""

from __future__ import annotations

import json

import numpy as np

import checks
import citkit
import oracles
from citkit import cli, ensemble

LEVEL = 0.05
STABLE_ALPHA = 1.75


def _derived_seed(seed, index):
    return int(np.random.SeedSequence((seed, index)).generate_state(1)[0])


class EcitWorkload:
    """A fixed batch of ``ecit`` queries on post-nonlinear samples.

    H1 queries fix f_Y = identity, so X enters Y monotonically: with f_Y = cos
    the kcit ensemble at d_z = 3 misses the dependence on some seeds (power,
    not a fault), and every H1 query has to reject.
    """

    def __init__(self, seed, method, n, n_k, dzs):
        self.n, self.n_k = n, n_k
        self.queries = []
        for hypothesis in ("H0", "H1"):
            for d_z in dzs:
                qseed = _derived_seed(seed, len(self.queries))
                data = citkit.gen_pnl(citkit.PnlConfig(
                    hypothesis=hypothesis, n=n, d_z=d_z, seed=qseed,
                    fy="identity" if hypothesis == "H1" else None))
                self.queries.append((f"{hypothesis} d_z={d_z} seed={qseed}", hypothesis,
                                     data, citkit.CITestSpec(method=method),
                                     citkit.EnsembleConfig(n_k=n_k, seed=qseed)))
        self.ops_per_round = len(self.queries)

    def run_round(self):
        """One pass over the batch: (outcomes, failed operations)."""
        outcomes, failed = [], 0
        for _, _, data, spec, config in self.queries:
            try:
                outcomes.append(ensemble.ecit(data, spec, config))
            except citkit.CitkitError:
                outcomes.append(None)
                failed += 1
        return outcomes, failed

    def check(self, rounds):
        problems = []
        first = rounds[0]
        for (label, hypothesis, _, _, config), out in zip(self.queries, first):
            if out is None:
                continue
            problems += checks.ecit_shape_problems(label, out.p, out.n_used, out.subtest_ps,
                                                   self.n, self.n_k)
            if hypothesis == "H0":
                problems += checks.h0_oracle_problems(label, out.p, out.subtest_ps,
                                                      STABLE_ALPHA, config.epsilon)
            else:
                problems += checks.h1_problems(label, out.p, LEVEL)
        for later in rounds[1:]:
            for (label, *_), a, b in zip(self.queries, first, later):
                if a is not None and b is not None and (a.p, a.subtest_ps) != (b.p, b.subtest_ps):
                    problems.append(f"{label}: p differs between rounds ({a.p!r} vs {b.p!r})")
        return problems


class PcWorkload:
    """``citkit pc run --method kcit --nk 200`` on one random DAG, in process.

    The DAG and its sample are the same for every --seed.  How many CI
    queries PC makes depends on the test outcomes: over data seeds 0-7 on this
    DAG it ranged from 56 to 121, and over random DAGs from 48 to 140, which
    moves the wall time by a third or more.  Fixed inputs make every run time
    the same 93 queries.
    """

    D, N, P_EDGE, NK = 6, 1200, 0.3, 200
    SEED = 0  # of the graph, the sample and the CLI

    def __init__(self, seed, out_dir):
        self.graph = citkit.gen_random_dag(self.D, self.P_EDGE, seed=self.SEED)
        values = citkit.simulate_scm(self.graph, self.N, noise_dist="laplace",
                                     seed=self.SEED).values
        self.csv_path = out_dir / f"pc_kcit-{seed}.csv"
        self.json_path = out_dir / f"pc_kcit-{seed}.json"
        np.savetxt(self.csv_path, values, fmt="%.17g", delimiter=",", comments="",
                   header=",".join(f"v{i}" for i in range(self.D)))
        self.values = np.loadtxt(self.csv_path, delimiter=",", skiprows=1)
        self.argv = ["pc", "run", "--data", str(self.csv_path), "--method", "kcit",
                     "--nk", str(self.NK), "--format", "json", "--out", str(self.json_path),
                     "--seed", str(self.SEED)]
        self.ops_per_round = 1

    def run_round(self):
        if cli.main(self.argv) != 0:
            return [None], 1
        return [self.json_path.read_text(encoding="utf-8")], 0

    def _retest(self, i, j, sep):
        data = citkit.DataTriple(self.values[:, [i]], self.values[:, [j]],
                                 self.values[:, list(sep)])
        spec = citkit.CITestSpec(method="kcit", seed=self.SEED)
        config = citkit.EnsembleConfig(n_k=self.NK, seed=self.SEED)
        return ensemble.ecit(data, spec, config).p

    def check(self, rounds):
        texts = [r[0] for r in rounds if r[0] is not None]
        if not texts:
            return []
        problems = [f"pc output of round {k} differs from round 0"
                    for k, text in enumerate(texts) if text != texts[0]]
        out = json.loads(texts[0])
        index = {f"v{i}": i for i in range(self.D)}
        edges = [(index[a], index[b]) for a, b in out["edges"]]
        sepsets = {}
        for key, names in out["sepsets"].items():
            a, b = key.split(",")
            sepsets[(index[a], index[b])] = tuple(index[s] for s in names)
        problems += checks.pc_output_problems(self.D, edges, sepsets)
        problems += checks.removed_edge_problems(
            {(i, j): self._retest(i, j, sep) for (i, j), sep in sepsets.items()}, LEVEL)

        parents = {v: set(self.graph.parents(v)) for v in range(self.D)}

        def dsep_tester(i, j, S):
            return 1.0 if oracles.d_separated(parents, i, j, S) else 0.0

        oracle_pc = citkit.pc_skeleton(None, dsep_tester, level=LEVEL,
                                       max_cond=self.D - 2, d=self.D)
        problems += checks.skeleton_problems(oracle_pc.edges(), self.graph.edges)
        return problems


def make(name, seed, out_dir):
    if name == "ecit_kcit":
        return EcitWorkload(seed, "kcit", n=4000, n_k=400, dzs=(1, 3))
    if name == "ecit_rcit":
        return EcitWorkload(seed, "rcit", n=20000, n_k=2000, dzs=(2,))
    return PcWorkload(seed, out_dir)
