"""What perfbench/ relies on in the library, checked from the library's side.

The benchmark reads adjoint.FORMS into its gradcheck gate line and swaps
studies._default_u0 to seed the tracking workload's generating profile, so
a refactor that binds either one early breaks the benchmark, not the
library's own tests.  Its meter also keeps the last trajectory whose
`stages` is truthy, counts `s` entries per step of it, and sweeps every
form over it, so a stored record must keep that shape under every scheme.
"""
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

import relaxopt.studies as studies
from relaxopt import adjoint
from relaxopt.core import RelaxConfig, burgers_model, make_grid
from relaxopt.forward import solve_forward
from relaxopt.optimize import ControlProblem, _frozen_speed_problem
from relaxopt.tableau import builtin_names, builtin_tableau

ROOT = Path(__file__).resolve().parent.parent


def test_gradcheck_workload_passes_over_every_adjoint_form():
    # the gradcheck gate takes max(...) over grads[1:], one gradient per form;
    # with a single form that sequence is empty and the pass crashes
    assert len(adjoint.FORMS) >= 2
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "gradcheck",
         "--seed", "0", "--seconds", "0", "--trace", "1"],
        cwd=str(ROOT), capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["attempted"] == 8
    assert f"over {','.join(adjoint.FORMS)} (<=" in proc.stdout


def test_tracking_table_looks_up_the_generating_profile_per_grid(monkeypatch):
    calls = []

    def counted(x):
        calls.append(len(x))
        return 0.5 + np.sin(x)

    monkeypatch.setattr(studies, "_default_u0", counted)
    g = make_grid(0.0, 2.0 * np.pi, 16)
    template = ControlProblem(grid=g, model=burgers_model(),
                              relax=RelaxConfig(epsilon=1e-6), t_final=0.2,
                              u_d=np.zeros(16), tableau="imex-euler")
    studies.tracking_table(template, [24], max_iter=0)
    assert calls == [24]


def test_a_template_built_from_a_name_holds_the_registered_pair():
    # the workloads build their problems from registry names and pass
    # resolve_tableau() to solve_forward
    g = make_grid(0.0, 2.0 * np.pi, 16)
    for name in builtin_names():
        template = ControlProblem(grid=g, model=burgers_model(),
                                  relax=RelaxConfig(epsilon=1e-6), t_final=0.2,
                                  u_d=np.zeros(16), tableau=name)
        assert template.resolve_tableau() is builtin_tableau(name)


def test_stored_linear_record_keeps_its_shape_and_every_form_sweeps_it():
    g = make_grid(0.0, 2.0 * np.pi, 32)
    problem = ControlProblem(grid=g, model=burgers_model(), relax=RelaxConfig(epsilon=1.0),
                             t_final=0.3, u_d=np.zeros(32), tableau="bpr-343",
                             scheme="upwind1")
    u0 = 0.5 + np.sin(g.centers)
    frozen = _frozen_speed_problem(problem, u0)
    tab = frozen.resolve_tableau()
    traj = solve_forward(frozen, tab, u0, store_stages=True)
    assert traj.stages
    assert len(traj.stages) == traj.n_steps
    assert all(len(st) == tab.s for st in traj.stages)
    for form in adjoint.FORMS:
        rec = adjoint.solve_adjoint(traj, frozen.u_d, form=form)
        assert rec.form_used == form
        assert np.all(np.isfinite(adjoint.assemble_gradient(rec, u0, frozen.model)))
