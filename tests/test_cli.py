import argparse
import json
import os
import subprocess
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest

from rfw import ConfigError
from rfw.cli import (PRESETS, ExperimentConfig, _parse_seeds, _seed_out_path,
                     build_experiment, build_parser, main,
                     run_single_experiment, tail_fit)
from rfw.convexity import NOTIONS
from rfw.solver import load_trace_csv

SMALL = {"ambient_dim": 10, "gram_rows": 5, "max_iter": 2000, "seed": 3}


def _write_config(tmp_path, extra=None):
    cfg = dict(SMALL)
    if extra:
        cfg.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_config_roundtrip_and_unknown_keys():
    cfg = ExperimentConfig(ambient_dim=12, seed=9)
    back = ExperimentConfig.from_dict(json.loads(cfg.to_json()))
    assert back == cfg
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"ambient_dim": 12, "gram_cols": 5})


@pytest.mark.parametrize("bad", [
    {"manifold": "spd"},
    {"ambient_dim": 1},
    {"gram_rows": 0},
    {"radius_ratio": 1.0},
    {"radius_ratio": 0.0},
    {"center": "mid"},
    {"max_iter": 0},
    {"gap_tol": -1.0},
    {"ambient_dim": "x"},
    {"seed": -1},
    {"step_rule": "bogus"},
])
def test_config_validate_rejects(bad):
    with pytest.raises(ConfigError):
        ExperimentConfig(**bad).validate()


def test_presets():
    assert PRESETS["paper-desk"] == ExperimentConfig()
    fig = PRESETS["paper-figure"]
    assert (fig.ambient_dim, fig.gram_rows) == (500, 250)


def test_build_experiment_is_deterministic():
    cfg = ExperimentConfig(**SMALL)
    p1, ball1, info1 = build_experiment(cfg)
    p2, ball2, info2 = build_experiment(cfg)
    np.testing.assert_array_equal(p1.objective.matrix, p2.objective.matrix)
    np.testing.assert_array_equal(ball1.center, ball2.center)
    assert info1 == info2
    np.testing.assert_allclose(ball1.center,
                               np.ones(10) / np.sqrt(10), atol=1e-15)
    assert 1e-3 <= info1["dist_center_target"] <= 0.5 * np.pi
    assert ball1.radius == pytest.approx(
        cfg.radius_ratio * info1["dist_center_target"])
    assert p1.cset.membership(p1.x0)


def test_build_experiment_random_center():
    cfg = ExperimentConfig(**SMALL, center="random")
    p1, ball1, info1 = build_experiment(cfg)
    p2, ball2, info2 = build_experiment(cfg)
    np.testing.assert_array_equal(ball1.center, ball2.center)
    np.testing.assert_array_equal(p1.objective.matrix, p2.objective.matrix)
    np.testing.assert_array_equal(p1.objective.target, p2.objective.target)
    assert info1 == info2
    assert np.linalg.norm(ball1.center) == pytest.approx(1.0, abs=1e-12)
    _, ones, _ = build_experiment(ExperimentConfig(**SMALL))
    assert np.linalg.norm(ball1.center - ones.center) > 1e-3
    _, other, _ = build_experiment(replace(cfg, seed=cfg.seed + 1))
    assert np.linalg.norm(ball1.center - other.center) > 1e-3
    np.testing.assert_array_equal(p1.x0, ball1.center)


def test_tail_fit_exact_decay():
    iters = np.arange(60)
    gaps = np.exp(-0.1 * iters)
    fit = tail_fit(iters, gaps)
    assert fit["slope"] == pytest.approx(-0.1, abs=1e-12)
    assert fit["rate"] == pytest.approx(np.exp(-0.1), abs=1e-12)
    assert fit["r_squared"] == pytest.approx(1.0, abs=1e-12)
    assert fit["n_tail"] == 30


def test_tail_fit_short_input_gives_nones():
    fit = tail_fit([0, 1, 2, 3], [1.0, 0.5, 0.25, 0.125])
    assert fit["n_tail"] < 4
    assert fit["slope"] is None and fit["rate"] is None
    assert fit["r_squared"] is None


def test_tail_fit_ignores_roundoff_floor():
    iters = np.arange(80)
    gaps = np.exp(-0.5 * iters)  # hits the 100 eps floor around iter 70
    fit = tail_fit(iters, gaps)
    assert fit["rate"] == pytest.approx(np.exp(-0.5), abs=1e-9)
    assert fit["n_tail"] < 40


def test_run_single_experiment_outputs(tmp_path):
    out = str(tmp_path / "trace.csv")
    summary = run_single_experiment(ExperimentConfig(**SMALL), out)
    assert summary["status"] == "converged"
    assert set(summary) == {"config", "status", "iterations", "final_f",
                            "final_dual_gap", "radius",
                            "dist_center_target", "tail_fit"}
    trace = load_trace_csv(out)
    assert len(trace) == summary["iterations"]
    assert trace.dual_gap[-1] == summary["final_dual_gap"]
    with open(str(tmp_path / "trace.summary.json")) as fh:
        on_disk = json.load(fh)
    assert on_disk == json.loads(json.dumps(summary))


def test_error_run_summary_is_strict_json(tmp_path, monkeypatch):
    # a NaN objective ends the run with status error and final_f NaN,
    # which the summary file writes as null
    from rfw.objectives import QuadraticOnEmbedded
    value_grad = QuadraticOnEmbedded.value_grad
    monkeypatch.setattr(QuadraticOnEmbedded, "value_grad",
                        lambda self, x: (np.nan, value_grad(self, x)[1]))
    out = str(tmp_path / "trace.csv")
    summary = run_single_experiment(ExperimentConfig(**SMALL), out)
    assert summary["status"] == "error" and np.isnan(summary["final_f"])

    def reject(name):
        raise ValueError(f"not strict JSON: {name}")

    with open(str(tmp_path / "trace.summary.json")) as fh:
        on_disk = json.loads(fh.read(), parse_constant=reject)
    assert on_disk["final_f"] is None
    assert on_disk["final_dual_gap"] == summary["final_dual_gap"]


def test_main_run_experiment_with_config(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    out = str(tmp_path / "a.csv")
    rc = main(["run-experiment", "--config", cfg, "--out", out])
    assert rc == 0
    assert "status=converged" in capsys.readouterr().out
    assert os.path.exists(out)


def test_main_runs_are_byte_identical(tmp_path):
    cfg = _write_config(tmp_path)
    out1, out2 = str(tmp_path / "r1.csv"), str(tmp_path / "r2.csv")
    assert main(["run-experiment", "--config", cfg, "--out", out1]) == 0
    assert main(["run-experiment", "--config", cfg, "--out", out2]) == 0
    with open(out1, "rb") as f1, open(out2, "rb") as f2:
        assert f1.read() == f2.read()


def test_option_precedence(tmp_path):
    cfg = _write_config(tmp_path, {"seed": 5})
    out = str(tmp_path / "p.csv")
    assert main(["run-experiment", "--preset", "paper-desk", "--config", cfg,
                 "--seed", "11", "--out", out]) == 0
    with open(str(tmp_path / "p.summary.json")) as fh:
        summary = json.load(fh)
    # config file overrides the preset, --seed overrides the file
    assert summary["config"]["ambient_dim"] == 10
    assert summary["config"]["seed"] == 11


def test_seed_sweep(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    out = str(tmp_path / "sweep.csv")
    rc = main(["run-experiment", "--config", cfg, "--seeds", "3..5",
               "--out", out])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert [ln.split(":")[0] for ln in lines] == ["seed 3", "seed 4", "seed 5"]
    for s in (3, 4, 5):
        assert os.path.exists(str(tmp_path / f"sweep_seed{s}.csv"))
        assert os.path.exists(str(tmp_path / f"sweep_seed{s}.summary.json"))


def test_parse_seeds():
    assert _parse_seeds("2..4") == [2, 3, 4]
    assert _parse_seeds("7..7") == [7]
    with pytest.raises(ConfigError):
        _parse_seeds("2-4")
    with pytest.raises(ConfigError):
        _parse_seeds("5..4")


def test_seed_out_path():
    assert _seed_out_path("runs/t.csv", 7) == "runs/t_seed7.csv"
    assert _seed_out_path("plain", 2) == "plain_seed2.csv"


def test_unknown_preset_exits_2(capsys):
    rc = main(["run-experiment", "--preset", "nope"])
    assert rc == 2
    assert "unknown preset" in capsys.readouterr().err


def test_certify_pass_and_artifact(tmp_path, capsys):
    out = str(tmp_path / "cert.json")
    rc = main(["certify", "--manifold", "sphere", "--dim", "3",
               "--radius", "0.12", "--notion", "riemannian",
               "--alpha", "1.6", "--samples", "200", "--out", out])
    assert rc == 0
    assert "PASS" in capsys.readouterr().out
    with open(out) as fh:
        cert = json.load(fh)
    assert cert["passed"] is True
    assert cert["notion"] == "riemannian"


def test_certify_notion_choices_are_the_checker_table():
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    notion = next(a for a in sub.choices["certify"]._actions
                  if a.dest == "notion")
    assert tuple(notion.choices) == NOTIONS


def test_certify_fail_exit_code(capsys):
    # a Euclidean ball of radius 0.5 is only 1-strongly convex
    rc = main(["certify", "--manifold", "euclidean", "--dim", "3",
               "--radius", "0.5", "--notion", "scaling",
               "--alpha", "4.0", "--samples", "300"])
    assert rc == 1
    assert "FAIL" in capsys.readouterr().out


def test_certify_approx_scaling_domain_error_fails(capsys):
    # the residual's exp leaves its domain on this cap: a violation
    # (exit 1), not an error (exit 2)
    rc = main(["certify", "--manifold", "sphere", "--radius", "1.0",
               "--notion", "approx_scaling", "--alpha", "4",
               "--samples", "200"])
    assert rc == 1
    assert "FAIL" in capsys.readouterr().out


def test_lmo_test_passes(capsys):
    rc = main(["lmo-test", "--manifold", "sphere", "--dim", "3",
               "--radius", "1.0", "--instances", "5", "--grid", "4000",
               "--random-points", "500"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "max_rel_gap" in out


def test_lmo_test_euclidean(capsys):
    rc = main(["lmo-test", "--manifold", "euclidean", "--dim", "4",
               "--radius", "0.7", "--instances", "5", "--grid", "2000",
               "--random-points", "200"])
    assert rc == 0
    assert "PASS" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["certify", "--radius", "0.3", "--alpha", "100", "--samples", "0"],
    ["certify", "--radius", "0.3", "--alpha", "100", "--samples", "-5"],
    ["lmo-test", "--instances", "0"],
    ["lmo-test", "--grid", "0"],
    ["lmo-test", "--random-points", "0"],
])
def test_empty_runs_are_rejected(argv, capsys):
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("content", [None, "[1, 2]", '{"ambient_dim": "x"}',
                                     "{not json"],
                         ids=["missing", "list", "bad_type", "bad_json"])
def test_bad_config_file_is_rejected(tmp_path, capsys, content):
    path = tmp_path / "config.json"
    if content is not None:
        path.write_text(content)
    rc = main(["run-experiment", "--config", str(path),
               "--out", str(tmp_path / "t.csv")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "t.csv").exists()


@pytest.mark.parametrize("content", [
    '{"gap_tol": Infinity}', '{"gap_tol": NaN}', '{"gap_tol": false}',
    '{"seed": true}', '{"max_iter": true}', '{"ambient_dim": true}'],
    ids=["inf-tol", "nan-tol", "bool-tol", "bool-seed", "bool-iters",
         "bool-dim"])
def test_config_rejects_non_finite_tolerance_and_bools(tmp_path, capsys,
                                                       content):
    # json.load reads NaN, Infinity and true; none is a valid value
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({**SMALL, **json.loads(content)}
                                   ).validate()
    path = tmp_path / "config.json"
    path.write_text(content)
    rc = main(["run-experiment", "--config", str(path),
               "--out", str(tmp_path / "t.csv")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "t.csv").exists()


def test_unknown_step_rule_is_a_config_error(tmp_path):
    # exit 2 with one error line, before any run, where StepRule's
    # ValueError would end the process with a traceback
    cfg = _write_config(tmp_path, {"step_rule": "bogus"})
    out = tmp_path / "t.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "rfw.cli", "run-experiment",
         "--config", cfg, "--out", str(out)],
        capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: step_rule must be one of")
    assert "Traceback" not in proc.stderr and not out.exists()


def test_module_entry_point_and_logging(tmp_path):
    cfg = _write_config(tmp_path)
    out = str(tmp_path / "m.csv")
    env = dict(os.environ, RFW_LOG="INFO",
               PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run(
        [sys.executable, "-m", "rfw.cli", "run-experiment",
         "--config", cfg, "--out", out],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "trace written to" in proc.stderr
    assert os.path.exists(out)


@pytest.mark.parametrize("notion", ["geodesic", "scaling", "approx_scaling"])
def test_certify_negative_alpha_exits_2(notion, capsys):
    rc = main(["certify", "--manifold", "sphere", "--dim", "3",
               "--radius", "0.3", "--notion", notion, "--alpha", "-1",
               "--samples", "50"])
    assert rc == 2
    assert "alpha must be finite and >= 0" in capsys.readouterr().err


def test_lmo_test_rejects_a_circle(capsys):
    # Sphere(2) is a circle: its tangent space has no search plane
    rc = main(["lmo-test", "--manifold", "sphere", "--dim", "2"])
    assert rc == 2
    assert "has dimension 1, the oracle needs >= 2" in capsys.readouterr().err


@pytest.mark.parametrize("notion", ["geodesic", "riemannian"])
def test_certify_spd_far_probe_fails(notion, capsys):
    # at this alpha, far membership probes leave the positive definite
    # cone numerically: a violation (exit 1), not an error (exit 2)
    rc = main(["certify", "--manifold", "spd", "--dim", "3", "--radius", "2",
               "--notion", notion, "--alpha", "10", "--samples", "200"])
    assert rc == 1
    assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("notion", ["geodesic", "riemannian",
                                    "double_geodesic"])
def test_certify_spd_overflowing_probe_fails(notion, capsys):
    # at alpha 400 a far probe's exp overflows: the ray leaves the exp
    # domain, a violation (exit 1), with no error and no numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["certify", "--manifold", "spd", "--dim", "3",
                   "--radius", "2", "--notion", notion, "--alpha", "400",
                   "--samples", "50"])
    out = capsys.readouterr()
    assert rc == 1
    assert "FAIL" in out.out and out.err == ""


def test_certify_has_one_pass_tolerance():
    # every certificate passes at DEFAULT_CERT_TOL; there is no option
    with pytest.raises(SystemExit) as exc:
        main(["certify", "--radius", "0.3", "--alpha", "0.5",
              "--samples", "20", "--tolerance", "nan"])
    assert exc.value.code == 2
