import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from relaxopt.cli import (_COMMANDS, _FIELDS, _PROBLEM_FIELDS, RunConfig, _build_parser,
                          load_config_file, main)

PERTURBED_TABLEAU = """\
# ars-222 with one contaminated weight
2
0 0
1 0
0.2928932188134524 0
0.41421356237309515 0.2928932188134524
0.501 0.5
0.5 0.5
"""

CORRUPT_TABLEAU = "# broken tableau\nstages 2\na_tilde\n0 0\n1 oops\n"


def test_solve_writes_trajectory_with_config_header(tmp_path, capsys):
    rc = main(["solve", "--n-cells", "24", "--t-final", "0.1",
               "--output-dir", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "wrote" in out
    lines = (tmp_path / "trajectory.csv").read_text().splitlines()
    assert lines[0].startswith("# config: ")
    assert "n_cells=24" in lines[0]
    assert "tableau=imex-euler" in lines[0]
    assert lines[1] == "t,x,u,v"


def test_unknown_tableau_exit_code(tmp_path, capsys):
    rc = main(["solve", "--tableau", "nope", "--output-dir", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "nope" in err
    assert "imex-euler" in err and "ars-222" in err


def test_optimize_with_iteration_cap_zero(tmp_path, capsys):
    rc = main(["optimize", "--n-cells", "24", "--t-final", "0.2",
               "--max-iter", "0", "--output-dir", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "converged=False" in out and "iterations=0" in out
    trace = (tmp_path / "trace.csv").read_text().splitlines()
    assert trace[1] == "iter,cost,grad_norm,wall_time_s"
    assert len(trace) == 3
    control = (tmp_path / "control.csv").read_text().splitlines()
    assert control[1] == "i,x,u0"
    assert len(control) == 2 + 24


def test_optimize_default_step_converges(tmp_path, capsys):
    rc = main(["optimize", "--n-cells", "100", "--output-dir", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "converged=True iterations=44 cost_increases=0 " in out


def test_check_reports_orders_and_passes(capsys):
    rc = main(["check", "--tableau", "imex-euler"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "forward order 1" in out
    check_lines = [ln for ln in out.splitlines() if ln.startswith("check ")]
    assert len(check_lines) == 4
    assert all(": ok" in ln for ln in check_lines)

    rc = main(["check", "--tableau", "ars-222"])
    assert rc == 0
    assert "forward order 2" in capsys.readouterr().out


@pytest.mark.parametrize("tableau, row", [
    ("ars-222", r"ok \(max gradient difference = \S+ over ark,xi\)"),
    # ars-443 has a zero weight, so every sweep falls back to xi: nothing to compare
    ("ars-443", r"skip \(a zero weight leaves only the xi form\)"),
], ids=["ars-222", "ars-443"])
def test_check_names_the_adjoint_forms_it_compared(tableau, row, capsys):
    assert main(["check", "--tableau", tableau]) == 0
    check_lines = [ln for ln in capsys.readouterr().out.splitlines()
                   if ln.startswith("check ")]
    assert len(check_lines) == 4
    got = next(ln for ln in check_lines if ln.startswith("check adjoint-form-equivalence"))
    assert re.fullmatch(f"check adjoint-form-equivalence: {row}", got)


def test_check_rejects_perturbed_weights(tmp_path, capsys):
    path = tmp_path / "perturbed.tab"
    path.write_text(PERTURBED_TABLEAU)
    rc = main(["check", "--tableau-file", str(path)])
    assert rc == 3
    out = capsys.readouterr().out
    assert "check weight-consistency: FAIL" in out


def test_corrupt_tableau_file_names_line(tmp_path, capsys):
    path = tmp_path / "corrupt.tab"
    path.write_text(CORRUPT_TABLEAU)
    rc = main(["solve", "--tableau-file", str(path),
               "--output-dir", str(tmp_path)])
    assert rc == 1
    assert ":2:" in capsys.readouterr().err


def test_divergent_run_exit_code(tmp_path, capsys):
    rc = main(["solve", "--n-cells", "60", "--c-cfl", "10", "--t-final", "20",
               "--output-dir", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")
    # the frames streamed before the divergence are removed with their file
    assert list(tmp_path.iterdir()) == []
    # a descent iterate that outruns the frozen speed exits 2 before any NaN
    rc = main(["optimize", "--n-cells", "300", "--alpha", "0.9",
               "--output-dir", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "sub-characteristic" in err


def test_order_study_subcommand(tmp_path, capsys):
    rc = main(["order-study", "--n-cells", "128", "--n-cells-gradient", "96",
               "--output-dir", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "forward slope" in out and "[inconclusive]" not in out
    lines = (tmp_path / "order_study.csv").read_text().splitlines()
    # the subcommand swaps in its own defaults for untouched fields
    assert "epsilon=1.0" in lines[0] and "t_final=0.5" in lines[0]
    assert "n_cells=128" in lines[0]
    assert lines[1] == "tableau,h,err_forward,err_gradient"
    assert len(lines) == 2 + 2 * 4


def test_order_study_zero_horizon_is_a_named_error(tmp_path, capsys):
    rc = main(["order-study", "--t-final", "0", "--output-dir", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "t_final" in err
    assert "Traceback" not in err
    assert not (tmp_path / "order_study.csv").exists()


def test_tracking_table_subcommand(tmp_path, capsys):
    rc = main(["tracking-table", "--grid-sizes", "100",
               "--output-dir", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "converged=True cost_increases=0 " in out
    lines = (tmp_path / "tracking.csv").read_text().splitlines()
    assert "alpha=0.097" in lines[0]
    assert lines[1] == "N,iterations,wall_s,final_cost"
    assert len(lines) == 3
    assert lines[2].startswith("100,")


def test_config_file_then_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n-cells = 40   # kebab keys are fine\nt_final = 0.1\n")
    assert load_config_file(str(cfg)) == {"n_cells": 40, "t_final": 0.1}
    rc = main(["solve", "--config", str(cfg), "--n-cells", "24",
               "--output-dir", str(tmp_path)])
    assert rc == 0
    capsys.readouterr()
    header = (tmp_path / "trajectory.csv").read_text().splitlines()[0]
    assert "n_cells=24" in header      # flag beats file
    assert "t_final=0.1" in header     # file beats default


def test_env_output_dir_is_fallback_only(tmp_path, monkeypatch, capsys):
    envdir = tmp_path / "from_env"
    flagdir = tmp_path / "from_flag"
    monkeypatch.setenv("RELAXOPT_OUTPUT_DIR", str(envdir))
    rc = main(["solve", "--n-cells", "16", "--t-final", "0.05"])
    assert rc == 0
    assert (envdir / "trajectory.csv").exists()
    rc = main(["solve", "--n-cells", "16", "--t-final", "0.05",
               "--output-dir", str(flagdir)])
    assert rc == 0
    assert (flagdir / "trajectory.csv").exists()
    capsys.readouterr()


def test_invalid_values_are_named(tmp_path, capsys):
    rc = main(["optimize", "--alpha", "1.5", "--output-dir", str(tmp_path)])
    assert rc == 1
    assert "alpha must lie in (0, 1)" in capsys.readouterr().err

    rc = main(["solve", "--frame-stride", "0", "--output-dir", str(tmp_path)])
    assert rc == 1
    assert "frame_stride" in capsys.readouterr().err

    rc = main(["tracking-table", "--grid-sizes", "abc",
               "--output-dir", str(tmp_path)])
    assert rc == 1
    assert "grid_sizes" in capsys.readouterr().err


@pytest.mark.parametrize("command, key, value", [
    ("solve", "t_final", "inf"),
    ("solve", "t_final", "nan"),
    ("solve", "c_cfl", "inf"),
    ("check", "theta", "inf"),
    ("solve", "x_max", "inf"),
])
def test_non_finite_values_are_named(command, key, value, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("RELAXOPT_OUTPUT_DIR", raising=False)
    assert main([command, "--" + key.replace("_", "-"), value]) == 1
    assert f"{key} must be finite" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def _unread_flags(command):
    """Every RunConfig flag `command` does not read, each with a legal value."""
    reads = _PROBLEM_FIELDS + _COMMANDS[command][1]
    return [arg for name, field in _FIELDS.items() if name not in reads
            for arg in ("--" + name.replace("_", "-"), str(field.default))]


@pytest.mark.parametrize("argv", [
    pytest.param(["solve", "--max-iter", "7", "--grid-sizes", "5", "--theta", "3"],
                 id="solve-max-iter-grid-sizes-theta"),
    pytest.param(["check", "--n-cells", "100"], id="check-n-cells"),
    *(pytest.param([command, *_unread_flags(command)], id=f"{command}-every-unread-flag")
      for command in _COMMANDS),
])
def test_flags_a_subcommand_does_not_read_are_usage_errors(argv, tmp_path, monkeypatch,
                                                           capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("RELAXOPT_OUTPUT_DIR", raising=False)
    assert main(argv) == 1
    assert "unrecognized arguments" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", list(_COMMANDS))
def test_every_flag_a_subcommand_reads_parses(command):
    reads = _PROBLEM_FIELDS + _COMMANDS[command][1]
    argv = [command]
    for name in reads:
        argv += ["--" + name.replace("_", "-"), str(_FIELDS[name].default)]
    args = _build_parser().parse_args(argv)
    assert {name: getattr(args, name) for name in reads} == {
        name: _FIELDS[name].default for name in reads}


def test_unknown_config_key_is_rejected(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("banana = 3\n")
    rc = main(["solve", "--config", str(cfg), "--output-dir", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "unknown config key 'banana'" in err and ":1:" in err


def test_removed_adjoint_form_key_is_unknown(tmp_path, capsys):
    cfg = tmp_path / "old.cfg"
    cfg.write_text("adjoint_form = xi\n")
    rc = main(["optimize", "--config", str(cfg), "--output-dir", str(tmp_path)])
    assert rc == 1
    assert "unknown config key 'adjoint_form'" in capsys.readouterr().err


def test_removed_limiter_option_is_rejected(tmp_path, capsys):
    # minmod was limiter's only legal value (muscl2 always limits with it);
    # safety and a_floor are the constants core.SAFETY and core.A_FLOOR
    cfg = tmp_path / "old.cfg"
    for key, value in (("limiter", "minmod"), ("safety", "1.2"), ("a_floor", "0.1")):
        cfg.write_text(f"{key} = {value}\n")
        assert main(["solve", "--config", str(cfg), "--output-dir", str(tmp_path)]) == 1
        assert f"unknown config key '{key}'" in capsys.readouterr().err
        flag = "--" + key.replace("_", "-")
        assert main(["solve", flag, value, "--output-dir", str(tmp_path)]) == 1
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [cfg]


def test_defaults_match_reference_setup():
    cfg = RunConfig()
    assert cfg.n_cells == 300
    assert cfg.t_final == 2.0
    assert cfg.c_cfl == 0.5
    assert cfg.tol == 1e-2
    assert cfg.grid_sizes == "100,150,200,300"


def test_module_entrypoint(tmp_path):
    # the subprocess does not inherit pytest's pythonpath; point it at this checkout
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "relaxopt.cli", "solve", "--n-cells", "16",
         "--t-final", "0.05", "--output-dir", str(tmp_path)],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "wrote" in proc.stdout
    assert (tmp_path / "trajectory.csv").exists()


def test_outputs_keep_undecodable_path_bytes(tmp_path):
    # under the POSIX locale with UTF-8 mode off, a UTF-8 path reaches Python
    # as surrogate escapes; every output still writes it back as its bytes
    out_dir = tmp_path / "dé"
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONIOENCODING", "PYTHONUTF8", "LANG", "LC_CTYPE")}
    env.update(LC_ALL="POSIX", PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    small = ["--t-final", "0.2", "--output-dir", os.fsencode(out_dir)]
    for command, extra, name in (("solve", ["--n-cells", "16"], "trajectory.csv"),
                                 ("optimize", ["--n-cells", "16", "--max-iter", "1"],
                                  "trace.csv"),
                                 ("tracking-table", ["--grid-sizes", "16", "--max-iter", "1"],
                                  "tracking.csv")):
        proc = subprocess.run([sys.executable, "-X", "utf8=0", "-m", "relaxopt.cli",
                               command, *extra, *small], capture_output=True, env=env)
        assert proc.returncode == 0, proc.stderr
        first = (out_dir / name).read_bytes().split(b"\n", 1)[0]
        assert b" output_dir=" + os.fsencode(out_dir) + b" " in first
    assert sorted(p.name for p in out_dir.iterdir()) == [
        "control.csv", "trace.csv", "tracking.csv", "trajectory.csv"]
