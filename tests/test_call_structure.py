"""The call structure the benchmark reconciles (perfbench/layers.py, `reconcile`).

perfbench wraps module attributes and requires, on every traced pass, that
imex_step calls = forward steps, apply_dx calls = s x imex_step calls and
apply_dx_transpose calls = s x adjoint steps.  These tests count the same
calls through wrappers on the same module attributes, for every registered
pair under both schemes, so a change to the step code that breaks the
identities fails here and not only in the traced benchmark run.
"""
from collections import Counter

import numpy as np
import pytest

from relaxopt import adjoint, forward
from relaxopt.core import RelaxConfig, burgers_model, make_grid
from relaxopt.optimize import ControlProblem
from relaxopt.spatial import SCHEMES
from relaxopt.tableau import builtin_names, builtin_tableau

COUNTED = ((forward, "imex_step"), (forward, "apply_dx"), (adjoint, "adjoint_step_ark"),
           (adjoint, "adjoint_step_xi"), (adjoint, "apply_dx_transpose"))


def _count_calls(monkeypatch, counts):
    for module, attr in COUNTED:
        fn = getattr(module, attr)

        def counted(*args, _fn=fn, _attr=attr, **kwargs):
            counts[_attr] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, attr, counted)


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("name", builtin_names())
def test_one_step_call_per_step_and_one_stencil_call_per_stage(monkeypatch, name, scheme):
    tab = builtin_tableau(name)
    eps = 1.0 if name == "bpr-343" else 1e-6   # bpr-343 diverges at epsilon = 1e-6
    g = make_grid(0.0, 2.0 * np.pi, 32)
    problem = ControlProblem(grid=g, model=burgers_model(), relax=RelaxConfig(epsilon=eps),
                             t_final=0.5, u_d=np.full(g.n_cells, 0.5), tableau=tab,
                             scheme=scheme)
    counts = Counter()
    _count_calls(monkeypatch, counts)
    traj = forward.solve_forward(problem, tab, 0.5 + np.sin(g.centers))
    n = traj.n_steps
    assert n > 0
    assert counts == {"imex_step": n, "apply_dx": tab.s * n}
    for form in adjoint.FORMS:
        counts.clear()
        record = adjoint.solve_adjoint(traj, problem.u_d, form=form)
        step = f"adjoint_step_{record.form_used}"
        assert counts == {step: n, "apply_dx_transpose": tab.s * n}, form
