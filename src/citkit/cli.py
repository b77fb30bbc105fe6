"""Command-line front-end.

Subcommands: ``stable {cdf,quantile,sample}``, ``combine``, ``cit run``,
``ecit run``, ``gen {pnl,dag}``, ``bench {type1,power,runtime,alpha,nk,
combiners,pc}``, ``pc run``.  Exit codes: 0 success, 2 config error, 3 data
error, 4 numerical error.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import __version__
from .bench import (ExperimentConfig, build_experiment, emit_report, load_csv,
                    load_data_triple, parse_config_text, parse_noise, run_experiment)
from .cit import CITestSpec, run_cit
from .combine import CLASSICAL_METHODS, clamp_pvalues, combine_classical, combine_stable
from .datagen import PnlConfig, gen_pnl, gen_random_dag, simulate_scm
from .discovery import make_cit_tester, pc_skeleton
from .ensemble import EnsembleConfig, ecit
from .errors import CitkitError, ConfigError
from .stable import StableParams, stable_cdf, stable_quantile, stable_sample

_BENCH_KINDS = {"type1": "type1", "power": "power", "runtime": "runtime",
                "alpha": "alpha_ablation", "nk": "nk_ablation",
                "combiners": "combiner_compare", "pc": "pc_bench"}


def _write_out(text: str, path):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _emit_values(values, args):
    arr = np.atleast_1d(np.asarray(values, dtype=float))
    if args.format == "json":
        _write_out(json.dumps([float(v) for v in arr]) + "\n", args.out)
    else:
        _write_out("".join(f"{float(v)!r}\n" for v in arr), args.out)


def _stable_params(args) -> StableParams:
    return StableParams(args.alpha, 0.0, args.gamma, args.delta)


def _add_stable_flags(p):
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--delta", type=float, default=0.0)


def _add_data_flags(p):
    p.add_argument("--data", required=True, help="CSV file with a header row")
    p.add_argument("--x", required=True, help="column name for x")
    p.add_argument("--y", required=True, help="column name for y")
    p.add_argument("--z", nargs="*", default=[], help="conditioning column names")


def _cit_spec(args, seed) -> CITestSpec:
    kwargs = {"method": args.method, "seed": seed}
    if getattr(args, "permutations", None):
        kwargs["permutations"] = args.permutations
    if getattr(args, "ridge", None) is not None:
        kwargs["ridge"] = args.ridge
    return CITestSpec(**kwargs)


def _ensemble_config(args, seed) -> EnsembleConfig:
    kwargs = {"seed": seed, "alpha": args.stable_alpha}
    if args.nk is not None:
        kwargs["n_k"] = args.nk
    if args.K is not None:
        kwargs["K"] = args.K
    if args.partition is not None:
        kwargs["partition_policy"] = args.partition
    if args.remainder is not None:
        kwargs["remainder_policy"] = args.remainder
    return EnsembleConfig(**kwargs)


def _outcome_text(out, fmt):
    payload = {"method": out.method, "p": out.p, "statistic": out.statistic,
               "n": out.n_used, "elapsed_s": out.elapsed}
    if out.subtest_ps is not None:
        payload["subtest_ps"] = list(out.subtest_ps)
    if out.flags:
        payload["flags"] = list(out.flags)
    if fmt == "json":
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    lines = [f"method: {out.method}", f"p: {out.p!r}",
             f"statistic: {out.statistic!r}", f"n: {out.n_used}"]
    if out.subtest_ps is not None:
        lines.append("subtest_ps: " + " ".join(repr(p) for p in out.subtest_ps))
    if out.flags:
        lines.append("flags: " + " ".join(out.flags))
    return "\n".join(lines) + "\n"


def _matrix_csv(matrix, names) -> str:
    lines = [",".join(names)]
    for row in np.atleast_2d(matrix):
        lines.append(",".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"


def _global_flags(default: bool) -> argparse.ArgumentParser:
    """The global flags, attachable before or after the subcommand.

    The top-level parser carries the real defaults; subparsers get SUPPRESS
    defaults so a flag given after the subcommand overrides one given before.
    """
    p = argparse.ArgumentParser(add_help=False)
    s = {} if default else {"default": argparse.SUPPRESS}
    p.add_argument("--seed", type=int, help="master seed",
                   **({"default": 0} if default else s))
    p.add_argument("--out", help="output path ('-' for stdout)",
                   **({"default": None} if default else s))
    p.add_argument("--format", choices=("csv", "json"),
                   **({"default": "csv"} if default else s))
    return p


def build_parser() -> argparse.ArgumentParser:
    common = _global_flags(default=False)
    top = argparse.ArgumentParser(prog="citkit",
                                  description="conditional-independence testing toolkit",
                                  parents=[_global_flags(default=True)])
    top.add_argument("--version", action="version", version=f"citkit {__version__}")
    sub = top.add_subparsers(dest="command", required=True)

    st = sub.add_parser("stable", help="stable-distribution numerics")
    st_sub = st.add_subparsers(dest="stable_cmd", required=True)
    for name, val in (("cdf", "x"), ("quantile", "p")):
        sp = st_sub.add_parser(name, parents=[common])
        _add_stable_flags(sp)
        sp.add_argument(val, type=float, nargs="+")
    sp = st_sub.add_parser("sample", parents=[common])
    _add_stable_flags(sp)
    sp.add_argument("--n", type=int, required=True)

    cm = sub.add_parser("combine", help="combine p-values", parents=[common])
    cm.add_argument("--method", default="stable",
                    choices=("stable",) + CLASSICAL_METHODS)
    cm.add_argument("--alpha", type=float, default=1.75,
                    help="stability index for --method stable")
    cm.add_argument("--epsilon", type=float, default=1e-12)
    cm.add_argument("pvals", type=float, nargs="+")

    ct = sub.add_parser("cit", help="single conditional-independence test")
    ct_sub = ct.add_subparsers(dest="cit_cmd", required=True)
    cr = ct_sub.add_parser("run", parents=[common])
    _add_data_flags(cr)
    cr.add_argument("--method", default="kcit", choices=("fisherz", "kcit", "rcit"))
    cr.add_argument("--permutations", type=int, default=0)
    cr.add_argument("--ridge", type=float, default=None)

    et = sub.add_parser("ecit", help="divide-and-aggregate ensemble test")
    et_sub = et.add_subparsers(dest="ecit_cmd", required=True)
    er = et_sub.add_parser("run", parents=[common])
    _add_data_flags(er)
    er.add_argument("--method", default="kcit", choices=("fisherz", "kcit", "rcit"))
    er.add_argument("--permutations", type=int, default=0)
    er.add_argument("--ridge", type=float, default=None)
    er.add_argument("--nk", type=int, default=None, help="subset size")
    er.add_argument("--K", type=int, default=None, help="subset count")
    er.add_argument("--stable-alpha", type=float, default=1.75)
    er.add_argument("--partition", choices=("shuffle", "sequential"), default=None)
    er.add_argument("--remainder", choices=("drop", "merge_last"), default=None)

    gn = sub.add_parser("gen", help="synthetic data generators")
    gn_sub = gn.add_subparsers(dest="gen_cmd", required=True)
    gp = gn_sub.add_parser("pnl", parents=[common])
    gp.add_argument("--hypothesis", choices=("H0", "H1"), default="H0")
    gp.add_argument("--n", type=int, default=400)
    gp.add_argument("--dz", type=int, default=1)
    gp.add_argument("--z-dist", choices=("gaussian", "laplace"), default="gaussian")
    gp.add_argument("--noise", default="student_t:4",
                    help="noise law, e.g. laplace or student_t:4")
    gp.add_argument("--beta-x", type=float, default=1.0)
    gd = gn_sub.add_parser("dag", parents=[common])
    gd.add_argument("--d", type=int, default=8)
    gd.add_argument("--p-edge", type=float, default=0.3)
    gd.add_argument("--n", type=int, default=2000)
    gd.add_argument("--noise", default="laplace")

    bn = sub.add_parser("bench", help="experiment harness")
    bn_sub = bn.add_subparsers(dest="bench_cmd", required=True)
    for name in _BENCH_KINDS:
        bp = bn_sub.add_parser(name, parents=[common])
        bp.add_argument("--config", default=None, help="flat key=value config file")
        bp.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override or supply a config entry")

    pc = sub.add_parser("pc", help="PC-algorithm skeleton discovery")
    pc_sub = pc.add_subparsers(dest="pc_cmd", required=True)
    pr = pc_sub.add_parser("run", parents=[common])
    pr.add_argument("--data", required=True, help="CSV file with a header row")
    pr.add_argument("--method", default="kcit", choices=("fisherz", "kcit", "rcit"))
    pr.add_argument("--level", type=float, default=0.05)
    pr.add_argument("--max-cond", type=int, default=None,
                    help="largest conditioning-set size (default: min(3, d-2))")
    pr.add_argument("--nk", type=int, default=None,
                    help="run each query as an ensemble with this subset size")
    pr.add_argument("--stable-alpha", type=float, default=1.75)
    return top


def _cmd_stable(args):
    params = _stable_params(args)
    if args.stable_cmd == "cdf":
        _emit_values(stable_cdf(np.asarray(args.x), params), args)
    elif args.stable_cmd == "quantile":
        _emit_values(stable_quantile(np.asarray(args.p), params), args)
    else:
        _emit_values(stable_sample(params, args.n, args.seed), args)


def _cmd_combine(args):
    ps = clamp_pvalues(np.asarray(args.pvals), epsilon=args.epsilon)
    if args.method == "stable":
        res = combine_stable(ps, StableParams(args.alpha, 0.0, 1.0, 0.0))
    else:
        res = combine_classical(args.method, ps)
    payload = {"method": res.method, "p_combined": res.p_combined,
               "statistic": res.statistic, "K": res.K}
    if args.format == "json":
        _write_out(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.out)
    else:
        _write_out("".join(f"{k}: {v!r}\n" for k, v in payload.items()), args.out)


def _cmd_cit(args):
    data = load_data_triple(args.data, args.x, args.y, args.z)
    out = run_cit(data, _cit_spec(args, args.seed))
    _write_out(_outcome_text(out, args.format), args.out)


def _cmd_ecit(args):
    data = load_data_triple(args.data, args.x, args.y, args.z)
    out = ecit(data, _cit_spec(args, 0), _ensemble_config(args, args.seed))
    _write_out(_outcome_text(out, args.format), args.out)


def _cmd_gen(args):
    dist, df = parse_noise(args.noise, "--noise")
    df = 4.0 if df is None else df  # both generators' default
    if args.gen_cmd == "pnl":
        data = gen_pnl(PnlConfig(hypothesis=args.hypothesis, n=args.n, d_z=args.dz,
                                 z_dist=args.z_dist, noise_dist=dist, noise_df=df,
                                 beta_x=args.beta_x, seed=args.seed))
        names = ["x", "y"] + [f"z{i + 1}" for i in range(args.dz)]
        matrix = np.hstack([data.x, data.y, data.z])
        truth = {"generator": "pnl", "hypothesis": args.hypothesis,
                 "ground_truth": data.meta["ground_truth"], "n": args.n,
                 "d_z": args.dz, "z_dist": args.z_dist, "noise_dist": dist,
                 "noise_df": df, "beta_x": args.beta_x, "seed": args.seed,
                 "fx": data.meta["fx"], "fy": data.meta["fy"]}
    else:
        graph = gen_random_dag(args.d, args.p_edge, seed=args.seed)
        scm = simulate_scm(graph, args.n, noise_dist=dist, seed=args.seed, noise_df=df)
        names = [f"v{i}" for i in range(args.d)]
        matrix = scm.values
        truth = {"generator": "dag", "d": args.d, "p_edge": args.p_edge,
                 "n": args.n, "noise_dist": dist, "noise_df": df, "seed": args.seed,
                 "edges": [[i, j] for i, j in sorted(graph.edges)],
                 "edge_functions": {f"{i}->{j}": fn
                                    for (i, j), fn in sorted(scm.edge_functions.items())},
                 "clipped": scm.clipped, "clip_count": scm.clip_count}
    _write_out(_matrix_csv(matrix, names), args.out)
    sidecar = json.dumps(truth, indent=2, sort_keys=True) + "\n"
    if args.out and args.out != "-":
        with open(args.out + ".meta.json", "w", encoding="utf-8") as fh:
            fh.write(sidecar)
    else:
        sys.stderr.write(sidecar)


def _cmd_bench(args):
    flat = {}
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                flat = parse_config_text(fh.read())
        except OSError as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
    for item in args.set:
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        flat.update(parse_config_text(item))
    flat["kind"] = _BENCH_KINDS[args.bench_cmd]
    flat.setdefault("seed", args.seed)
    out_path = flat.pop("out", None)
    config = build_experiment(flat)
    report = run_experiment(config)
    _write_out(emit_report(report, fmt=args.format), args.out or out_path)


def _cmd_pc(args):
    matrix, names = load_csv(args.data)
    cfg = None if args.nk is None else EnsembleConfig(
        n_k=args.nk, seed=args.seed, alpha=args.stable_alpha)
    tester = make_cit_tester(matrix, CITestSpec(method=args.method, seed=args.seed), cfg)
    graph = pc_skeleton(matrix, tester, level=args.level, max_cond=args.max_cond)
    edges = [(names[i], names[j]) for i, j in graph.edges()]
    if args.format == "json":
        payload = {"d": graph.d, "edges": [[a, b] for a, b in edges],
                   "sepsets": {f"{names[i]},{names[j]}": [names[k] for k in s]
                               for (i, j), s in sorted(graph.sepsets.items())}}
        _write_out(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.out)
    else:
        lines = [f"{a} -- {b}" for a, b in edges] or ["(no edges)"]
        _write_out("\n".join(lines) + "\n", args.out)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"stable": _cmd_stable, "combine": _cmd_combine, "cit": _cmd_cit,
                "ecit": _cmd_ecit, "gen": _cmd_gen, "bench": _cmd_bench,
                "pc": _cmd_pc}
    try:
        handlers[args.command](args)
    except CitkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    return 0


if __name__ == "__main__":
    sys.exit(main())
