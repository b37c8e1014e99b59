"""Command-line driver: forward solves, optimization runs, checks and studies.

Configuration comes from (highest precedence first) command-line flags, a flat
key=value config file, the RELAXOPT_OUTPUT_DIR environment variable (output
directory only), per-subcommand defaults, and the RunConfig field defaults.
A subcommand offers flags only for the fields it reads; a config file may set
any field, and a subcommand ignores those it does not read.  Every output file
starts with a comment line embedding the fully resolved configuration so
results can be traced back to their inputs.

Exit codes: 0 success, 1 invalid configuration or input, 2 numerical
divergence, 3 a correctness check failed.
"""
from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .core import RelaxConfig, burgers_model, make_grid
from .tableau import ImexTableau, builtin_tableau, check_order, load_tableau_file
from .forward import DivergenceError, export_trajectory
from .optimize import (DEFAULT_ALPHA, ControlProblem, SubcharacteristicError, export_trace,
                       steepest_descent)
from .output import write_csv
from .studies import (_default_u0, consistency_checks, temporal_order_study,
                      tracking_problem, tracking_table, export_order_study,
                      export_tracking_table)

__all__ = ["RunConfig", "load_config_file", "main"]


@dataclass
class RunConfig:
    """Every tunable the CLI exposes, with the shipped defaults.

    The defaults reproduce the reference tracking setup: Burgers flux on
    [0, 2*pi], N = 300 cells, T = 2.0, eps = 1e-6, CFL constant 0.5,
    IMEX-Euler, first-order upwinding, stopping tolerance 1e-2, and the
    descent step DEFAULT_ALPHA = 0.097 of the reference iteration counts.
    seed seeds the random vectors of check's transpose dot test.
    """
    x_min: float = 0.0
    x_max: float = 2.0 * np.pi
    n_cells: int = 300
    t_final: float = 2.0
    epsilon: float = 1e-6
    c_cfl: float = 0.5
    tableau: str = "imex-euler"
    scheme: str = "upwind1"
    alpha: float = DEFAULT_ALPHA
    tol: float = 1e-2
    max_iter: int = 500
    seed: int = 0
    output_dir: str = "."
    frame_stride: int = 10
    levels: int = 4
    grid_sizes: str = "100,150,200,300"
    tableau_file: str = ""
    theta: float = 1e-6
    n_cells_gradient: int = 384


_FIELDS = {f.name: f for f in dataclasses.fields(RunConfig)}

# Defaults a subcommand substitutes for fields the user left untouched.  The
# order studies run in the resolved regime (epsilon = 1) on a short smooth
# horizon with a fine grid.
_SUBCOMMAND_DEFAULTS: Dict[str, Dict[str, object]] = {
    "order-study": {"epsilon": 1.0, "t_final": 0.5, "n_cells": 2048},
}


def _coerce(name: str, text: str):
    """Parse a config-file or flag string into the field's type."""
    kind = RunConfig.__dataclass_fields__[name].type
    try:
        if kind == "int":
            return int(text)
        if kind == "float":
            return float(text)
        return text
    except ValueError:
        raise ValueError(f"invalid value for config key '{name}': {text!r}")


def load_config_file(path: str) -> Dict[str, object]:
    """Read a flat key=value file; '#' starts a comment, blank lines ignored.

    Keys may use dashes or underscores.  Unknown keys are rejected by name so
    typos surface instead of silently falling back to defaults.
    """
    values: Dict[str, object] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ValueError(f"cannot read config file {path}: {exc}")
    for line_no, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{line_no}: expected key=value, got {raw.strip()!r}")
        key, _, text = line.partition("=")
        name = key.strip().replace("-", "_")
        if name not in _FIELDS:
            raise ValueError(f"{path}:{line_no}: unknown config key '{key.strip()}'")
        values[name] = _coerce(name, text.strip())
    return values


def _resolve_config(args: argparse.Namespace, subcommand: str) -> RunConfig:
    """Merge defaults, subcommand defaults, environment, config file and flags."""
    values = {name: f.default for name, f in _FIELDS.items()}
    values.update(_SUBCOMMAND_DEFAULTS.get(subcommand, {}))
    env_dir = os.environ.get("RELAXOPT_OUTPUT_DIR")
    if env_dir:
        values["output_dir"] = env_dir
    if args.config:
        values.update(load_config_file(args.config))
    for name in _FIELDS:
        flag_value = getattr(args, name, None)
        if flag_value is not None:
            values[name] = flag_value
    return RunConfig(**values)


def _config_header(cfg: RunConfig) -> str:
    pairs = " ".join(f"{name}={getattr(cfg, name)}"
                     for name in sorted(_FIELDS))
    return f"config: {pairs}"


def _validate(cfg: RunConfig) -> None:
    """The one check the library cannot word by its key.

    Every other value is checked where the library takes it, in a message
    that names the key: Grid (x_min, x_max), RelaxConfig (epsilon),
    ControlProblem (t_final, c_cfl), steepest_descent (alpha, tol,
    max_iter) and fd_gradient (theta).  export_trajectory calls the frame
    stride `stride`, so frame_stride is checked here.
    """
    if cfg.frame_stride < 1:
        raise ValueError(f"frame_stride must be >= 1, got {cfg.frame_stride}")


def _tableau(cfg: RunConfig) -> ImexTableau:
    if cfg.tableau_file:
        return load_tableau_file(cfg.tableau_file)
    return builtin_tableau(cfg.tableau)


def _grid_sizes(cfg: RunConfig) -> List[int]:
    try:
        sizes = [int(tok) for tok in cfg.grid_sizes.split(",") if tok.strip()]
    except ValueError:
        raise ValueError(f"grid_sizes must be comma-separated integers, got {cfg.grid_sizes!r}")
    if not sizes:
        raise ValueError("grid_sizes must be nonempty")
    return sizes


def _out_path(cfg: RunConfig, filename: str) -> str:
    os.makedirs(cfg.output_dir, exist_ok=True)
    return os.path.join(cfg.output_dir, filename)


def _base_problem(cfg: RunConfig, tab: ImexTableau, n_cells: int,
                  t_final: float) -> ControlProblem:
    """The configured problem on n_cells cells to t_final, with the placeholder target u_d = 0."""
    grid = make_grid(cfg.x_min, cfg.x_max, n_cells)
    relax = RelaxConfig(epsilon=cfg.epsilon)
    return ControlProblem(grid=grid, model=burgers_model(), relax=relax,
                          t_final=t_final, u_d=np.zeros(n_cells), tableau=tab,
                          c_cfl=cfg.c_cfl, scheme=cfg.scheme)


def cmd_solve(cfg: RunConfig) -> int:
    """Forward solve from the standard profile; writes trajectory.csv."""
    tab = _tableau(cfg)
    problem = _base_problem(cfg, tab, cfg.n_cells, cfg.t_final)
    path = _out_path(cfg, "trajectory.csv")
    traj = export_trajectory(problem, tab, _default_u0(problem.grid.centers), path,
                             stride=cfg.frame_stride, header=_config_header(cfg))
    print(f"solved {tab.name} on N={cfg.n_cells} to T={cfg.t_final} "
          f"({traj.n_steps} steps, h={traj.h:.6g}, a={traj.op.a:.6g})")
    print(f"wrote {path}")
    return 0


def cmd_optimize(cfg: RunConfig) -> int:
    """Tracking run on the target studies.tracking_problem generates; writes
    trace.csv and control.csv."""
    tab = _tableau(cfg)
    problem = tracking_problem(_base_problem(cfg, tab, cfg.n_cells, cfg.t_final),
                               cfg.n_cells)
    grid = problem.grid
    u0, report = steepest_descent(problem, np.full(grid.n_cells, 0.5), alpha=cfg.alpha,
                                  tol=cfg.tol, max_iter=cfg.max_iter)
    header = _config_header(cfg)
    trace_path = _out_path(cfg, "trace.csv")
    export_trace(report, trace_path, header=header)
    control_path = _out_path(cfg, "control.csv")
    write_csv(control_path, ("i", "x", "u0"), zip(range(grid.n_cells), grid.centers, u0),
              comments=(header,))
    print(f"optimize {tab.name} N={grid.n_cells}: converged={report.converged} "
          f"iterations={report.iterations} cost_increases={report.cost_increases} "
          f"final_cost={report.final_cost:.6e}")
    print(f"wrote {trace_path}")
    print(f"wrote {control_path}")
    return 0


def cmd_check(cfg: RunConfig) -> int:
    """Order report plus consistency battery at N=50, T=0.5; exit 3 if any check fails."""
    tab = _tableau(cfg)
    report = check_order(tab)
    print(f"tableau {tab.name}: {tab.s} stages")
    print(f"  forward order {report.forward_order}, which is also the initial-data "
          f"gradient's target (third-order branch: {report.branch_used})")
    print(f"  adjoint system order {report.adjoint_system_order}, which applies to "
          f"controls inside the dynamics")
    satisfied = [v for key, v in report.condition_residuals.items()
                 if any(key.startswith(f"order{j}")
                        for j in range(1, report.forward_order + 1))]
    if satisfied:
        print(f"  worst residual through order {report.forward_order}: "
              f"{max(satisfied):.2e}")
    failed = 0
    template = _base_problem(cfg, tab, 50, 0.5)
    for name, ok, detail in consistency_checks(template, tab, cfg.seed, cfg.theta):
        status = "skip" if ok is None else "ok" if ok else "FAIL"
        print(f"check {name}: {status} ({detail})")
        failed += status == "FAIL"
    if failed:
        print(f"{failed} check(s) failed")
        return 3
    return 0


def cmd_order_study(cfg: RunConfig) -> int:
    """Temporal self-convergence study; writes order_study.csv."""
    tab = _tableau(cfg)
    template = _base_problem(cfg, tab, cfg.n_cells, cfg.t_final)
    result = temporal_order_study(template, tab, levels=cfg.levels,
                                  n_cells_forward=cfg.n_cells,
                                  n_cells_gradient=cfg.n_cells_gradient)
    path = _out_path(cfg, "order_study.csv")
    export_order_study([result], path, header=_config_header(cfg))
    print(f"{tab.name}: forward slope {result.observed_order:.3f} "
          f"(target {result.target_order}), gradient slope "
          f"{result.observed_gradient_order:.3f} "
          f"(target {result.target_order}, the forward order: the control is the initial data)"
          + (" [inconclusive]" if result.inconclusive else ""))
    print(f"  adjoint system order {result.adjoint_target_order} applies to controls "
          f"inside the dynamics")
    print(f"wrote {path}")
    return 0


def cmd_tracking_table(cfg: RunConfig) -> int:
    """Tracking experiment across grid sizes; writes tracking.csv."""
    tab = _tableau(cfg)
    sizes = _grid_sizes(cfg)
    template = _base_problem(cfg, tab, sizes[0], cfg.t_final)
    rows = tracking_table(template, sizes, alpha=cfg.alpha, tol=cfg.tol,
                          max_iter=cfg.max_iter)
    path = _out_path(cfg, "tracking.csv")
    export_tracking_table(rows, path, header=_config_header(cfg))
    for r in rows:
        print(f"N={r.n_cells:5d} iterations={r.iterations:4d} "
              f"final_cost={r.final_cost:.6e} converged={r.converged} "
              f"cost_increases={r.cost_increases} wall_s={r.wall_time_s:.3f}")
    print(f"wrote {path}")
    return 0


# Every subcommand reads the problem fields; each entry of _COMMANDS names the
# other RunConfig fields its subcommand reads.  _build_parser offers a flag for
# exactly these, so a flag the subcommand would ignore is a usage error.
_PROBLEM_FIELDS = ("x_min", "x_max", "epsilon", "c_cfl", "scheme", "tableau",
                   "tableau_file")
_COMMANDS: Dict[str, Tuple[Callable[[RunConfig], int], Tuple[str, ...]]] = {
    "solve": (cmd_solve, ("n_cells", "t_final", "output_dir", "frame_stride")),
    "optimize": (cmd_optimize,
                 ("n_cells", "t_final", "alpha", "tol", "max_iter", "output_dir")),
    "check": (cmd_check, ("seed", "theta")),
    "order-study": (cmd_order_study,
                    ("n_cells", "t_final", "levels", "n_cells_gradient", "output_dir")),
    "tracking-table": (cmd_tracking_table,
                       ("t_final", "grid_sizes", "alpha", "tol", "max_iter", "output_dir")),
}


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors main reports with exit code 1."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="relaxopt",
        description="Optimal control of scalar conservation laws via relaxation.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (fn, reads) in _COMMANDS.items():
        p = sub.add_parser(name, help=fn.__doc__.splitlines()[0])
        p.add_argument("--config", default=None, metavar="FILE",
                       help="flat key=value config file")
        for field_name in _PROBLEM_FIELDS + reads:
            field = _FIELDS[field_name]
            flag = "--" + field_name.replace("_", "-")
            kind = {"int": int, "float": float}.get(field.type, str)
            p.add_argument(flag, dest=field_name, type=kind, default=None,
                           help=f"default: {field.default}")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        cfg = _resolve_config(args, args.command)
        _validate(cfg)
        return _COMMANDS[args.command][0](cfg)
    except ValueError as exc:   # TableauParseError and usage errors included
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DivergenceError, SubcharacteristicError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
