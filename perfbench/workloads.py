"""The three benchmark workloads: seeded inputs, one pass each, and the gates a pass must meet.

Seed 0 gives the reference inputs exactly (the generating profile
0.5 + sin x).  Any other seed adds a small random low-mode Fourier
perturbation to it, so the same code paths run on different arrays.  The
library only ever sees the generated arrays.

A pass returns a list of (operation, ok, detail) outcomes; a raised
`DivergenceError` fails the operations of that pass instead of aborting it.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

import numpy as np

from relaxopt import adjoint, forward, studies
from relaxopt.core import RelaxConfig, burgers_model, make_grid, subchar_speed
from relaxopt.optimize import ControlProblem

TWO_PI = 2.0 * math.pi
WORKLOADS = ("tracking", "order", "gradcheck")

# tracking: the paper's table, ε=1e-6, T=2, imex-euler, upwind1
TRACKING_SIZES = (100, 150, 200, 300)
TRACKING_REF_ITERS = {100: 44, 150: 43, 200: 42, 300: 41}
TRACKING_ALPHA = 0.097
TRACKING_TOL = 1e-2
# order: bpr-343 self-convergence, ε=1, T=0.5
ORDER_TABLEAU = "bpr-343"
ORDER_N_FWD = 2048
ORDER_N_GRAD = 384
ORDER_TARGET = 3.0
ORDER_FWD_TOL = 0.2
ORDER_GRAD_MIN = 2.7
# gradcheck: ars-222 with the limited scheme, ε=1e-6, T=0.5, N=50
GRAD_N = 50
GRAD_TABLEAU = "ars-222"
GRAD_FD_MAX = 1e-4
GRAD_FORMS_MAX = 1e-11

# Perturbation: modes 1..3, each coefficient N(0, 1) * AMP / 3.
PERTURB_MODES = 3
PERTURB_AMP = 0.01

Outcome = Tuple[str, bool, str]


def generating_profile(seed: int) -> Callable[[np.ndarray], np.ndarray]:
    """0.5 + sin x; any seed but 0 adds the seeded low-mode Fourier perturbation."""
    if seed == 0:
        return lambda x: 0.5 + np.sin(x)
    coef = np.random.default_rng(seed).standard_normal((PERTURB_MODES, 2)) * (PERTURB_AMP / 3.0)

    def profile(x):
        x = np.asarray(x, dtype=float)
        delta = np.zeros_like(x)
        for k in range(1, PERTURB_MODES + 1):
            delta += coef[k - 1, 0] * np.cos(k * x) + coef[k - 1, 1] * np.sin(k * x)
        return 0.5 + np.sin(x) + delta
    return profile


@dataclass
class Workload:
    """One workload at one seed: its generated inputs and how to run and time a pass."""

    name: str
    seed: int
    inputs: Dict[str, object] = field(default_factory=dict)

    def run_pass(self) -> List[Outcome]:
        return _PASSES[self.name](self)

    def op_samples(self, records, span: Callable[[int, int], float]) -> List[float]:
        """Per-operation latencies (s) of one pass, from its forward-solve records.

        records are (calling namespace, start tick, end tick, N, steps, stages,
        stored) per solve, and span(i, j) is the time from tick i to tick j.
        tracking: one steepest-descent iteration, from the start of its forward
        solve to the start of the next one in the same descent run, over the
        steps of that solve.  Per step, the four grid sizes give one
        population; raw iteration times form four groups ({44, 43, 42, 41}
        iterations at N = 100..300), and the median would sit on the edge
        between the N=150 and N=200 groups.
        gradcheck: one finite-difference forward solve (the solves optimize makes).
        order: one time step of an N=2048 forward solve, from its `imex_step`
        call to the next one (the last step: to its return).  Inside a forward
        solve the ticks alternate step start and step end, so step k starts
        at tick i0 + 1 + 2k and the solve ends at tick i0 + 2 steps + 1.
        """
        if self.name == "tracking":
            by_n: Dict[int, List[Tuple[int, int]]] = {}
            for ns, i0, _, n, steps, *_ in records:
                if ns == "relaxopt.optimize":
                    by_n.setdefault(n, []).append((i0, steps))
            return [span(a, b) / steps for solves in by_n.values()
                    for (a, steps), (b, _) in zip(solves, solves[1:])]
        if self.name == "gradcheck":
            return [span(i0, i1) for ns, i0, i1, *_ in records if ns == "relaxopt.optimize"]
        out = []
        for _, i0, i1, n, steps, *_ in records:
            if n != ORDER_N_FWD:
                continue
            if i1 - i0 != 2 * steps + 1:
                raise RuntimeError(f"forward solve at N={n} has {i1 - i0} ticks "
                                   f"for {steps} steps")
            starts = range(i0 + 1, i1, 2)
            out += [span(a, b) for a, b in zip(starts, [*starts[1:], i1 - 1])]
        return out


def build(name: str, seed: int) -> Workload:
    """Generate a workload's inputs from its seed (the set-up the benchmark times)."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload '{name}'; available: {', '.join(WORKLOADS)}")
    wl = Workload(name, seed)
    profile = generating_profile(seed)
    model = burgers_model()
    if name == "tracking":
        grid = make_grid(0.0, TWO_PI, TRACKING_SIZES[0])
        wl.inputs["template"] = ControlProblem(
            grid=grid, model=model, relax=RelaxConfig(epsilon=1e-6), t_final=2.0,
            u_d=np.zeros(grid.n_cells), tableau="imex-euler", scheme="upwind1")
        wl.inputs["profile"] = profile
    elif name == "order":
        grid = make_grid(0.0, TWO_PI, 64)
        wl.inputs["template"] = ControlProblem(
            grid=grid, model=model, relax=RelaxConfig(epsilon=1.0), t_final=0.5,
            u_d=np.zeros(grid.n_cells), tableau=ORDER_TABLEAU, scheme="upwind1")
        wl.inputs["profile"] = profile
    else:
        grid = make_grid(0.0, TWO_PI, GRAD_N)
        u0 = profile(grid.centers)
        wl.inputs["problem"] = ControlProblem(
            grid=grid, model=model, relax=RelaxConfig(epsilon=1e-6), t_final=0.5,
            u_d=np.full(grid.n_cells, 0.5), tableau=GRAD_TABLEAU, scheme="muscl2")
        wl.inputs["u0"] = u0
    return wl


def warm_up(name: str, seed: int) -> None:
    """One short solve with the workload's tableau and scheme, so lazy set-up is not timed."""
    wl = build(name, seed)
    problem = wl.inputs.get("template") or wl.inputs["problem"]
    grid = make_grid(problem.grid.x_min, problem.grid.x_max, 16)
    small = dataclasses.replace(problem, grid=grid, u_d=np.zeros(16), t_final=0.1)
    forward.solve_forward(small, small.resolve_tableau(), 0.5 + np.sin(grid.centers))


def _diverged(ops: List[str], err: Exception) -> List[Outcome]:
    return [(op, False, f"{type(err).__name__}: {err}") for op in ops]


def _tracking_pass(wl: Workload) -> List[Outcome]:
    """tracking_table one grid size at a time, so a divergence fails only its row.

    tracking_table builds its target from studies._default_u0; the seeded
    profile is put in its place for the call and the swap is verified.
    """
    template, profile = wl.inputs["template"], wl.inputs["profile"]
    if not hasattr(studies, "_default_u0"):
        raise RuntimeError("relaxopt.studies._default_u0 is gone; "
                           "the tracking workload cannot seed its generating profile")
    calls = [0]

    def seeded_profile(x):
        calls[0] += 1
        return profile(x)

    out: List[Outcome] = []
    original = studies._default_u0
    studies._default_u0 = seeded_profile
    try:
        for n in TRACKING_SIZES:
            op = f"tracking N={n}"
            before = calls[0]
            try:
                row, = studies.tracking_table(template, [n], alpha=TRACKING_ALPHA,
                                              tol=TRACKING_TOL)
            except forward.DivergenceError as err:
                out += _diverged([op], err)
                continue
            ok = row.converged and row.final_cost < TRACKING_TOL and calls[0] == before + 1
            detail = f"iterations={row.iterations} cost={row.final_cost:.4e}"
            if wl.seed == 0 and row.iterations != TRACKING_REF_ITERS[n]:
                ok = False
                detail += f" (reference {TRACKING_REF_ITERS[n]})"
            out.append((op, ok, detail))
    finally:
        studies._default_u0 = original
    return out


def _order_pass(wl: Workload) -> List[Outcome]:
    ops = ["order forward slope", "order gradient slope"]
    try:
        res = studies.temporal_order_study(
            wl.inputs["template"], ORDER_TABLEAU, levels=4,
            n_cells_forward=ORDER_N_FWD, n_cells_gradient=ORDER_N_GRAD,
            u0_fn=wl.inputs["profile"])
    except forward.DivergenceError as err:
        return _diverged(ops, err)
    return [
        (ops[0], abs(res.observed_order - ORDER_TARGET) <= ORDER_FWD_TOL,
         f"slope={res.observed_order:.4f} (target {ORDER_TARGET:g} +- {ORDER_FWD_TOL:g})"),
        (ops[1], res.observed_gradient_order >= ORDER_GRAD_MIN,
         f"slope={res.observed_gradient_order:.4f} (>= {ORDER_GRAD_MIN:g})"),
    ]


def _gradcheck_pass(wl: Workload) -> List[Outcome]:
    """gradient_report, then one solve_adjoint per form on one stored trajectory, as `check` does."""
    problem, u0 = wl.inputs["problem"], wl.inputs["u0"]
    ops = ["gradcheck adjoint vs FD", "gradcheck adjoint forms agree"]
    try:
        rep = studies.gradient_report(problem, u0)
        a = subchar_speed(problem.model, u0, problem.relax)
        frozen = dataclasses.replace(problem, relax=dataclasses.replace(problem.relax, a=a))
        traj = forward.solve_forward(frozen, frozen.resolve_tableau(), u0, store_stages=True)
        grads = [adjoint.assemble_gradient(adjoint.solve_adjoint(traj, frozen.u_d, form=f),
                                           u0, frozen.model)
                 for f in adjoint.FORMS]
    except forward.DivergenceError as err:
        return _diverged(ops, err)
    spread = max(float(np.max(np.abs(g - grads[0]))) for g in grads[1:])
    return [
        (ops[0], rep.max_rel_err <= GRAD_FD_MAX,
         f"max_rel_err={rep.max_rel_err:.3e} (<= {GRAD_FD_MAX:g})"),
        (ops[1], spread <= GRAD_FORMS_MAX,
         f"max form difference={spread:.3e} over {','.join(adjoint.FORMS)} (<= {GRAD_FORMS_MAX:g})"),
    ]


_PASSES = {"tracking": _tracking_pass, "order": _order_pass, "gradcheck": _gradcheck_pass}
