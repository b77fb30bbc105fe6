"""Tests for the command-line front-end and the package's import footprint."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import citkit
from citkit import bench, cit
from citkit.cli import main

SRC = str(Path(citkit.__file__).resolve().parent.parent)


def _python(*args):
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=300)


def test_import_leaves_out_scipy_stats():
    out = _python("-c", "import sys, citkit; print('scipy.stats' in sys.modules)")
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def test_stable_combine_leaves_out_scipy_integrate():
    # scipy.integrate serves only the quadrature fallback near alpha = 2, and
    # scipy.optimize only the root search off the symmetric fast path
    out = _python("-c", "import sys, citkit; "
                  "citkit.combine_stable([0.1, 0.2, 0.3], citkit.StableParams(1.75, 0, 1, 0)); "
                  "print('scipy.integrate' in sys.modules, 'scipy.optimize' in sys.modules, "
                  "'mpmath' in sys.modules)")
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False False False"


def test_python_m_citkit_runs_the_cli():
    out = _python("-m", "citkit", "combine", "--method", "fisher", "--format", "json",
                  "0.05", "0.05")
    assert out.returncode == 0, out.stderr
    payload = json.loads(out.stdout)
    assert payload["method"] == "fisher" and payload["K"] == 2
    assert payload["p_combined"] == pytest.approx(0.017478661367769955, abs=1e-12)


@pytest.fixture
def chain_csv(tmp_path):
    """a -> b -> c plus an independent d: four columns, so d - 2 = 2."""
    rng = np.random.default_rng(4)
    a = rng.standard_normal(400)
    b = a + 0.5 * rng.standard_normal(400)
    c = b + 0.5 * rng.standard_normal(400)
    d = rng.standard_normal(400)
    path = tmp_path / "chain.csv"
    np.savetxt(path, np.column_stack([a, b, c, d]), delimiter=",", header="a,b,c,d",
               comments="")
    return path


def test_pc_run_caps_default_max_cond_at_d_minus_2(chain_csv, tmp_path):
    out = tmp_path / "graph.json"
    rc = main(["pc", "run", "--data", str(chain_csv), "--method", "fisherz",
               "--format", "json", "--out", str(out)])
    assert rc == 0
    assert json.loads(out.read_text())["edges"] == [["a", "b"], ["b", "c"]]


def test_pc_run_explicit_max_cond_above_d_minus_2_exits_2(chain_csv, capsys):
    rc = main(["pc", "run", "--data", str(chain_csv), "--method", "fisherz", "--max-cond", "3"])
    assert rc == 2
    assert "max_cond=3 exceeds d-2=2" in capsys.readouterr().err


def test_data_error_exits_3(chain_csv, tmp_path, capsys):
    rows = np.loadtxt(chain_csv, delimiter=",", skiprows=1)
    rows[:, 0] = 1.0
    path = tmp_path / "constant.csv"
    np.savetxt(path, rows, delimiter=",", header="a,b,c,d", comments="")
    rc = main(["cit", "run", "--data", str(path), "--x", "a", "--y", "b", "--z", "c",
               "--method", "kcit"])
    assert rc == 3
    assert "column 0 of x is constant" in capsys.readouterr().err


def test_numerical_error_exits_4(chain_csv, monkeypatch, capsys):
    # LAPACK reports a ridge matrix that is not positive definite
    def fail(uplo, n, a, lda, info):
        info.value = 2

    monkeypatch.setattr(cit, "_DPOTRF", fail)
    rc = main(["cit", "run", "--data", str(chain_csv), "--x", "a", "--y", "b", "--z", "c",
               "--method", "kcit"])
    assert rc == 4
    assert re.search(r"error: Cholesky factorization of the \d+ x \d+ ridge matrix failed "
                     r"\(LAPACK info 2\)", capsys.readouterr().err)


def test_bench_pc_on_four_variables(tmp_path):
    out = tmp_path / "report.json"
    rc = main(["bench", "pc", "--set", "gen.d=4", "--set", "gen.n=300", "--set", "reps=1",
               "--set", "test.fz.method=fisherz", "--format", "json", "--out", str(out)])
    assert rc == 0
    rows = json.loads(out.read_text())["rows"]
    assert {r["metric"] for r in rows} == {"f1", "shd"}


@pytest.mark.parametrize("option", ["ridgee=0.1", "bandwidth=scott", "seed=3"])
def test_bench_rejects_an_unknown_method_option_before_running(option, monkeypatch, capsys):
    monkeypatch.setattr(bench, "gen_pnl", None)  # any data generation would raise
    rc = main(["bench", "type1", "--set", "gen.n=200", "--set", "test.k.method=fisherz",
               "--set", f"test.k.{option}", "--set", "reps=1"])
    assert rc == 2
    assert f"test.k.{option.split('=')[0]}" in capsys.readouterr().err


@pytest.mark.parametrize("option, message", [
    ("test.k.ridge=2", "ridge must be in (0, 1)"),
    ("test.k.ridge=small", "bad option value for test.k"),
    ("test.k.nk=400", "n=200 is smaller than one subset (n_k=400)"),
    ("test.k.method=oracle", "runs only in pc_bench"),
])
def test_bench_rejects_a_bad_option_value_before_running(option, message, monkeypatch,
                                                          capsys):
    monkeypatch.setattr(bench, "gen_pnl", None)  # any data generation would raise
    rc = main(["bench", "type1", "--set", "gen.n=200", "--set", "test.k.method=fisherz",
               "--set", option, "--set", "reps=2"])
    assert rc == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("settings, message", [
    (["gen.n=abc"], "gen.n takes int values, got 'abc'"),
    # an ensemble reaches the subset-size check, which reads gen.n too
    (["gen.n=abc", "test.k.nk=50"], "gen.n takes int values, got 'abc'"),
    (["gen.noise=student_t:x"], "gen.noise takes dist or dist:df, got 'student_t:x'"),
])
def test_bench_rejects_a_non_numeric_generator_value_before_running(settings, message,
                                                                   monkeypatch, capsys):
    monkeypatch.setattr(bench, "gen_pnl", None)
    argv = ["bench", "type1", "--set", "test.k.method=fisherz", "--set", "reps=1"]
    for item in settings:
        argv += ["--set", item]
    assert main(argv) == 2
    assert message in capsys.readouterr().err


def test_bench_nk_ablation_rejects_nks_larger_than_n(monkeypatch, capsys):
    monkeypatch.setattr(bench, "gen_pnl", None)
    rc = main(["bench", "nk", "--set", "gen.n=200", "--set", "test.k.method=fisherz",
               "--set", "nks=50,400", "--set", "reps=2"])
    assert rc == 2
    assert "n_k=400" in capsys.readouterr().err


def _json_out(capsys, argv):
    assert main(argv + ["--format", "json"]) == 0
    return json.loads(capsys.readouterr().out)


def test_stable_json_is_a_list_of_floats(capsys):
    assert _json_out(capsys, ["stable", "cdf", "--alpha", "1.5", "--delta", "1", "1", "40"]) \
        == [0.5, pytest.approx(0.99, abs=0.01)]
    qs = _json_out(capsys, ["stable", "quantile", "--alpha", "2", "--gamma", "2", "0.5", "0.9"])
    assert qs == [0.0, pytest.approx(2 * np.sqrt(2) * 1.2815515655446004, rel=1e-12)]
    xs = _json_out(capsys, ["stable", "sample", "--alpha", "1.75", "--n", "3", "--seed", "4"])
    assert len(xs) == 3 and all(isinstance(x, float) for x in xs)


def test_stable_beta_flag_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["stable", "cdf", "--alpha", "1.5", "--beta", "0.5", "0"])
    assert exc.value.code == 2
    assert "--beta" in capsys.readouterr().err


def test_combine_json_shape(capsys):
    out = _json_out(capsys, ["combine", "--method", "stable", "0.2", "0.4", "0.7"])
    assert sorted(out) == ["K", "method", "p_combined", "statistic"]
    assert out["K"] == 3 and out["method"] == "stable"
    assert isinstance(out["p_combined"], float) and isinstance(out["statistic"], float)


def test_ecit_run_json_shape(chain_csv, capsys):
    out = _json_out(capsys, ["ecit", "run", "--data", str(chain_csv), "--x", "a", "--y", "c",
                             "--z", "b", "--method", "fisherz", "--nk", "100"])
    assert sorted(out) == ["elapsed_s", "method", "n", "p", "statistic", "subtest_ps"]
    assert out["method"] == "ecit:fisherz" and out["n"] == 400
    assert len(out["subtest_ps"]) == 4 and 0.0 <= out["p"] <= 1.0


def test_pc_run_json_shape(chain_csv, capsys):
    out = _json_out(capsys, ["pc", "run", "--data", str(chain_csv), "--method", "fisherz"])
    assert out == {"d": 4, "edges": [["a", "b"], ["b", "c"]],
                   "sepsets": {"a,c": ["b"], "a,d": [], "b,d": [], "c,d": []}}
