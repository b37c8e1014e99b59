"""The bit-identity record: results that a change meant to keep every operation must not move.

compute_record() returns, keyed by name:

* grad:<pair>:<scheme>:<N>:<eps>:<form>  the gradient of both adjoint forms
  for every registered pair under both schemes, N in {50, 64} and
  eps in {1e-6, 1}, on the consistency-check problem (T = 0.5, control
  0.5 + sin x, target 0.5, speed frozen at the control's);
* diverges:<pair>:<scheme>:<N>:<eps>  1 where that forward solve raises
  DivergenceError instead (bpr-343 at eps = 1e-6), so it has no gradients;
* fd:ars-222:muscl2:50  the central-difference gradient of the gradcheck
  workload's problem (the eps = 1e-6, N = 50 case above);
* tracking:cost_history  the costs of the seed-0 tracking descent at N = 100
  (imex-euler, upwind1, eps = 1e-6, T = 2), 44 updates.

tests/data/bitwise_record.npz holds this record, and the numpy version it
was made with under numpy_version.  test_bitwise_record.py compares with it:
bit for bit under that numpy version, and to 1e-12 relative under any
other, whose np.sin (in the control) may round differently.

Regenerate the file only where a change is meant to move these numbers:

    PYTHONPATH=src python tests/bitwise_record.py
"""
from __future__ import annotations

import os
from typing import Dict

import numpy as np

from relaxopt.adjoint import FORMS, assemble_gradient, solve_adjoint
from relaxopt.core import RelaxConfig, burgers_model, make_grid
from relaxopt.forward import DivergenceError, solve_forward
from relaxopt.optimize import ControlProblem, _frozen_speed_problem, fd_gradient, steepest_descent
from relaxopt.spatial import SCHEMES
from relaxopt.studies import tracking_problem
from relaxopt.tableau import builtin_names, builtin_tableau

PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "bitwise_record.npz")
GRID_SIZES = (50, 64)
EPSILONS = (1e-6, 1.0)
TWO_PI = 2.0 * np.pi


def _problem(name: str, scheme: str, n: int, eps: float):
    grid = make_grid(0.0, TWO_PI, n)
    u0 = 0.5 + np.sin(grid.centers)
    problem = ControlProblem(grid=grid, model=burgers_model(), relax=RelaxConfig(epsilon=eps),
                             t_final=0.5, u_d=np.full(n, 0.5), tableau=name, scheme=scheme)
    return _frozen_speed_problem(problem, u0), u0


def compute_record() -> Dict[str, np.ndarray]:
    out: Dict[str, np.ndarray] = {}
    for name in builtin_names():
        tab = builtin_tableau(name)
        for scheme in SCHEMES:
            for n in GRID_SIZES:
                for eps in EPSILONS:
                    key = f"{name}:{scheme}:{n}:{eps:g}"
                    problem, u0 = _problem(name, scheme, n, eps)
                    try:
                        traj = solve_forward(problem, tab, u0, store_stages=True)
                    except DivergenceError:
                        out[f"diverges:{key}"] = np.array(1)
                        continue
                    for form in FORMS:
                        rec = solve_adjoint(traj, problem.u_d, form=form)
                        out[f"grad:{key}:{form}"] = assemble_gradient(rec, u0, problem.model)

    problem, u0 = _problem("ars-222", "muscl2", 50, 1e-6)
    out["fd:ars-222:muscl2:50"] = fd_gradient(problem, u0)

    grid = make_grid(0.0, TWO_PI, 100)
    template = ControlProblem(grid=grid, model=burgers_model(), relax=RelaxConfig(epsilon=1e-6),
                              t_final=2.0, u_d=np.zeros(100), tableau="imex-euler")
    tracking = tracking_problem(template, 100)
    _, rep = steepest_descent(tracking, np.full(100, 0.5))
    out["tracking:cost_history"] = np.array(rep.cost_history)
    return out


if __name__ == "__main__":
    os.makedirs(os.path.dirname(PATH), exist_ok=True)
    np.savez(PATH, numpy_version=np.array(np.__version__), **compute_record())
    print(f"wrote {PATH}")
