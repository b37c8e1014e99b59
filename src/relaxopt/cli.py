"""Command-line driver: forward solves, optimization runs, checks and studies.

Configuration comes from (highest precedence first) command-line flags, a flat
key=value config file, the RELAXOPT_OUTPUT_DIR environment variable (output
directory only), per-subcommand defaults, and the RunConfig field defaults.
Every output file starts with a comment line embedding the fully resolved
configuration so results can be traced back to their inputs.

Exit codes: 0 success, 1 invalid configuration or input, 2 numerical
divergence, 3 a correctness check failed.
"""
from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from .core import RelaxConfig, RelaxState, burgers_model, make_grid, subchar_speed
from .tableau import (ImexTableau, TableauParseError, builtin_tableau,
                      check_order, load_tableau_file)
from .spatial import apply_dx_linearized, apply_dx_transpose
from .forward import DivergenceError, solve_forward, export_trajectory
from .adjoint import FORMS, solve_adjoint, assemble_gradient
from .optimize import ControlProblem, SubcharacteristicError, steepest_descent, export_trace
from .studies import (_default_u0, gradient_report, temporal_order_study,
                      tracking_problem, tracking_table, export_order_study,
                      export_tracking_table)

__all__ = ["RunConfig", "load_config_file", "main"]


@dataclass
class RunConfig:
    """Every tunable the CLI exposes, with the shipped defaults.

    The defaults reproduce the reference tracking setup: Burgers flux on
    [0, 2*pi], N = 300 cells, T = 2.0, eps = 1e-6, CFL constant 0.5,
    IMEX-Euler, first-order upwinding, stopping tolerance 1e-2, and the
    calibrated descent step 0.097 that gives the reference iteration counts.
    seed is reserved for randomized diagnostics and recorded for provenance.
    """
    x_min: float = 0.0
    x_max: float = 2.0 * np.pi
    n_cells: int = 300
    t_final: float = 2.0
    epsilon: float = 1e-6
    safety: float = 1.2
    a_floor: float = 0.1
    c_cfl: float = 0.5
    tableau: str = "imex-euler"
    scheme: str = "upwind1"
    limiter: str = "minmod"
    alpha: float = 0.097
    tol: float = 1e-2
    max_iter: int = 500
    seed: int = 0
    output_dir: str = "."
    adjoint_form: str = "ark"
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
    """Early checks whose failure should name the offending key."""
    if not 0.0 < cfg.alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {cfg.alpha}")
    if not cfg.tol > 0:
        raise ValueError(f"tol must be positive, got {cfg.tol}")
    if not cfg.epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {cfg.epsilon}")
    if not cfg.theta > 0:
        raise ValueError(f"theta must be positive, got {cfg.theta}")
    if cfg.max_iter < 0:
        raise ValueError(f"max_iter must be >= 0, got {cfg.max_iter}")
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


def _base_problem(cfg: RunConfig, tab: ImexTableau, n_cells: int) -> ControlProblem:
    """The configured problem on n_cells cells, with the placeholder target u_d = 0."""
    grid = make_grid(cfg.x_min, cfg.x_max, n_cells)
    relax = RelaxConfig(epsilon=cfg.epsilon, safety=cfg.safety, a_floor=cfg.a_floor)
    return ControlProblem(grid=grid, model=burgers_model(), relax=relax,
                          t_final=cfg.t_final, u_d=np.zeros(n_cells), tableau=tab,
                          c_cfl=cfg.c_cfl, scheme=cfg.scheme, limiter=cfg.limiter)


def cmd_solve(cfg: RunConfig) -> int:
    """Forward solve from the standard profile; writes trajectory.csv."""
    tab = _tableau(cfg)
    problem = _base_problem(cfg, tab, cfg.n_cells)
    traj = solve_forward(problem, tab, _default_u0(problem.grid.centers),
                         store_stages=True)
    path = _out_path(cfg, "trajectory.csv")
    export_trajectory(traj, path, stride=cfg.frame_stride, header=_config_header(cfg))
    print(f"solved {tab.name} on N={cfg.n_cells} to T={cfg.t_final} "
          f"({traj.n_steps} steps, h={traj.h:.6g}, a={traj.op.a:.6g})")
    print(f"wrote {path}")
    return 0


def cmd_optimize(cfg: RunConfig) -> int:
    """Tracking run on the target studies.tracking_problem generates; writes
    trace.csv and control.csv."""
    tab = _tableau(cfg)
    problem = tracking_problem(_base_problem(cfg, tab, cfg.n_cells), cfg.n_cells)
    grid = problem.grid
    u0, report = steepest_descent(problem, np.full(grid.n_cells, 0.5), alpha=cfg.alpha,
                                  tol=cfg.tol, max_iter=cfg.max_iter,
                                  adjoint_form=cfg.adjoint_form)
    header = _config_header(cfg)
    trace_path = _out_path(cfg, "trace.csv")
    export_trace(report, trace_path, header=header)
    control_path = _out_path(cfg, "control.csv")
    with open(control_path, "w", encoding="utf-8") as fh:
        fh.write(f"# {header}\n")
        fh.write("i,x,u0\n")
        for i in range(grid.n_cells):
            fh.write(f"{i},{float(grid.centers[i])!r},{float(u0[i])!r}\n")
    print(f"optimize {tab.name} N={grid.n_cells}: converged={report.converged} "
          f"iterations={report.iterations} final_cost={report.final_cost:.6e}")
    print(f"wrote {trace_path}")
    print(f"wrote {control_path}")
    return 0


def _check_battery(cfg: RunConfig, tab: ImexTableau) -> List[tuple]:
    """(name, passed, detail) rows for the consistency checks cmd_check prints."""
    checks: List[tuple] = []

    weight_res = max(abs(float(np.sum(tab.w_tilde)) - 1.0),
                     abs(float(np.sum(tab.w)) - 1.0))
    checks.append(("weight-consistency", weight_res <= 1e-12,
                   f"max |sum(weights) - 1| = {weight_res:.2e}"))

    problem = dataclasses.replace(_base_problem(cfg, tab, 50), t_final=0.5,
                                  u_d=np.full(50, 0.5))
    grid, model = problem.grid, problem.model
    u0 = _default_u0(grid.centers)
    a = subchar_speed(model, u0, problem.relax)
    problem = dataclasses.replace(problem, relax=dataclasses.replace(problem.relax, a=a))
    traj = solve_forward(problem, tab, u0, store_stages=True)

    rng = np.random.default_rng(cfg.seed)
    z_u, z_v = rng.standard_normal(grid.n_cells), rng.standard_normal(grid.n_cells)
    w_u, w_v = rng.standard_normal(grid.n_cells), rng.standard_normal(grid.n_cells)
    base = RelaxState(u0, np.asarray(model.flux(u0), float))
    fwd = apply_dx_linearized(traj.op, base, RelaxState(z_u, z_v))
    bwd = apply_dx_transpose(traj.op, RelaxState(w_u, w_v), base=base)
    lhs = float(w_u @ fwd.u + w_v @ fwd.v)
    rhs = float(z_u @ bwd.u + z_v @ bwd.v)
    scale = max(1e-30,
                float(np.linalg.norm(np.concatenate([z_u, z_v]))
                      * np.linalg.norm(np.concatenate([w_u, w_v]))))
    dot_rel = abs(lhs - rhs) / scale
    checks.append(("transpose-dot-test", dot_rel <= 1e-12,
                   f"relative defect = {dot_rel:.2e}"))

    grads = [assemble_gradient(solve_adjoint(traj, problem.u_d, form=form), u0, model)
             for form in FORMS]
    form_diff = max(float(np.max(np.abs(g - g_next)))
                    for g, g_next in zip(grads, grads[1:]))
    checks.append(("adjoint-form-equivalence", form_diff <= 1e-11,
                   f"max gradient difference = {form_diff:.2e}"))

    rep = gradient_report(problem, u0, theta=cfg.theta)
    checks.append(("gradient-vs-fd", rep.max_rel_err <= 1e-4,
                   f"max relative error = {rep.max_rel_err:.2e} (theta={cfg.theta})"))
    return checks


def cmd_check(cfg: RunConfig) -> int:
    """Order report plus consistency battery; exit 3 if any check fails."""
    tab = _tableau(cfg)
    report = check_order(tab)
    print(f"tableau {tab.name}: {tab.s} stages")
    print(f"  forward order {report.forward_order}, "
          f"adjoint system order {report.adjoint_system_order} "
          f"(third-order branch: {report.branch_used})")
    satisfied = [v for key, v in report.condition_residuals.items()
                 if any(key.startswith(f"order{j}")
                        for j in range(1, report.forward_order + 1))]
    if satisfied:
        print(f"  worst residual through order {report.forward_order}: "
              f"{max(satisfied):.2e}")
    failed = 0
    for name, ok, detail in _check_battery(cfg, tab):
        status = "ok" if ok else "FAIL"
        print(f"check {name}: {status} ({detail})")
        failed += 0 if ok else 1
    if failed:
        print(f"{failed} check(s) failed")
        return 3
    return 0


def cmd_order_study(cfg: RunConfig) -> int:
    """Temporal self-convergence study; writes order_study.csv."""
    tab = _tableau(cfg)
    template = _base_problem(cfg, tab, cfg.n_cells)
    result = temporal_order_study(template, tab, levels=cfg.levels,
                                  n_cells_forward=cfg.n_cells,
                                  n_cells_gradient=cfg.n_cells_gradient)
    path = _out_path(cfg, "order_study.csv")
    export_order_study([result], path, header=_config_header(cfg))
    print(f"{tab.name}: forward slope {result.observed_order:.3f} "
          f"(target {result.target_order}), gradient slope "
          f"{result.observed_gradient_order:.3f} "
          f"(adjoint target {result.adjoint_target_order})"
          + (" [inconclusive]" if result.inconclusive else ""))
    print(f"wrote {path}")
    return 0


def cmd_tracking_table(cfg: RunConfig) -> int:
    """Tracking experiment across grid sizes; writes tracking.csv."""
    tab = _tableau(cfg)
    sizes = _grid_sizes(cfg)
    rows = tracking_table(_base_problem(cfg, tab, sizes[0]), sizes, alpha=cfg.alpha,
                          tol=cfg.tol, max_iter=cfg.max_iter,
                          adjoint_form=cfg.adjoint_form)
    path = _out_path(cfg, "tracking.csv")
    export_tracking_table(rows, path, header=_config_header(cfg))
    for r in rows:
        print(f"N={r.n_cells:5d} iterations={r.iterations:4d} "
              f"final_cost={r.final_cost:.6e} converged={r.converged} "
              f"wall_s={r.wall_time_s:.3f}")
    print(f"wrote {path}")
    return 0


_COMMANDS = {
    "solve": cmd_solve,
    "optimize": cmd_optimize,
    "check": cmd_check,
    "order-study": cmd_order_study,
    "tracking-table": cmd_tracking_table,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relaxopt",
        description="Optimal control of scalar conservation laws via relaxation.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in _COMMANDS.items():
        p = sub.add_parser(name, help=fn.__doc__.splitlines()[0])
        p.add_argument("--config", default=None, metavar="FILE",
                       help="flat key=value config file")
        for field_name, field in _FIELDS.items():
            flag = "--" + field_name.replace("_", "-")
            kind = {"int": int, "float": float}.get(field.type, str)
            p.add_argument(flag, dest=field_name, type=kind, default=None,
                           help=f"default: {field.default}")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _resolve_config(args, args.command)
        _validate(cfg)
        return _COMMANDS[args.command](cfg)
    except TableauParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DivergenceError, SubcharacteristicError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
