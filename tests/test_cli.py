import os
import subprocess
import sys
from pathlib import Path

from relaxopt.cli import RunConfig, load_config_file, main

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
    assert "converged=True iterations=44 " in out


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


def test_tracking_table_subcommand(tmp_path, capsys):
    rc = main(["tracking-table", "--grid-sizes", "100",
               "--output-dir", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "converged=True" in out
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


def test_unknown_config_key_is_rejected(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("banana = 3\n")
    rc = main(["solve", "--config", str(cfg), "--output-dir", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "unknown config key 'banana'" in err and ":1:" in err


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
