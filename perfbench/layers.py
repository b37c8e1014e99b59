"""Per-layer metrics of a traced run, the adjoint-form probe, and the exact-count reconciliation.

Names are `<module>.<function>.<stat>`.  `calls` counts spans, `s` is
inclusive span time, `self_s` is span time minus child spans, and
`us_per_call` is inclusive time per call.  Values are medians over the
fastest traced pass of a run.  Sizes marked `bytes_computed` come from array
sizes (float64), not from a memory measurement.
"""
from __future__ import annotations

import statistics
import time
from typing import Dict, List, Tuple

import numpy as np
from relaxopt import adjoint

# Exact per-pass counts at seed 0, used by the reconciliation.
SEED0_COUNTS = {
    "tracking": {"optimize.steepest_descent.iterations": 170,
                 "forward.solve_forward.calls": 178,
                 "forward.imex_step.calls": 37942,
                 "spatial.apply_dx.calls": 37942,
                 "adjoint.solve_adjoint.steps": 36220,
                 "adjoint.adjoint_step_ark.calls": 36220},
    "order": {"forward.imex_step.calls": 32806,
              "spatial.apply_dx.calls": 98418,
              "spatial.apply_dx_transpose.calls": 15651},
}

# (metric name, unit) in output order.
PER_LAYER = [
    ("core.RelaxState.count", "count"),
    ("forward.imex_step.calls", "count"),
    ("forward.imex_step.self_s", "s"),
    ("spatial.apply_dx.calls", "count"),
    ("spatial.apply_dx.self_s", "s"),
    ("spatial.apply_dx.us_per_call", "us"),
    ("spatial.apply_dx.bytes_computed", "bytes_computed"),
    ("spatial.apply_dx_transpose.calls", "count"),
    ("spatial.apply_dx_transpose.self_s", "s"),
    ("spatial.apply_dx_transpose.us_per_call", "us"),
    ("adjoint.solve_adjoint.calls", "count"),
    ("adjoint.solve_adjoint.s", "s"),
    ("adjoint.solve_adjoint.steps", "count"),
    ("adjoint.solve_adjoint.ark.us_per_step", "us"),
    ("adjoint.solve_adjoint.xi.us_per_step", "us"),
    ("adjoint.solve_adjoint.zeta.us_per_step", "us"),
    ("forward.solve_forward.calls", "count"),
    ("forward.solve_forward.s", "s"),
    ("optimize.fd_gradient.solves", "count"),
    ("tableau.check_order.calls", "count"),
    ("tableau.check_order.s", "s"),
    ("forward.steps_retained_bytes", "bytes_computed"),
    ("forward.stages_stored_bytes", "bytes_computed"),
    ("adjoint.record_bytes", "bytes_computed"),
    ("optimize.steepest_descent.iterations", "count"),
    ("trace.wall_s_untraced", "s"),
    ("trace.wall_s_traced", "s"),
    ("trace.overhead_s", "s"),
]

PROBE_MIN_S = 0.2
PROBE_MAX_REPEATS = 7


def _pass_values(tracer, pass_id: int) -> Dict[str, float]:
    """Every span statistic and counter of one traced pass, keyed by metric name."""
    out: Dict[str, float] = dict(tracer.counters[pass_id])
    for name, (calls, total, self_s) in tracer.layer_table(pass_id).items():
        if name == "pass":
            continue
        out[f"{name}.calls"] = calls
        out[f"{name}.s"] = total
        out[f"{name}.self_s"] = self_s
        out[f"{name}.us_per_call"] = total / calls * 1e6
    return out


def probe_forms(traj, u_d) -> Dict[str, float]:
    """Microseconds per adjoint step of every form on one stored trajectory, untraced.

    Each form is swept until PROBE_MIN_S has passed (at most PROBE_MAX_REPEATS
    times); the median sweep time is divided by the step count.
    """
    out = {}
    for form in adjoint.FORMS:
        times: List[float] = []
        while len(times) < PROBE_MAX_REPEATS and sum(times) < PROBE_MIN_S:
            t0 = time.perf_counter()
            adjoint.solve_adjoint(traj, u_d, form=form)
            times.append(time.perf_counter() - t0)
        out[f"adjoint.solve_adjoint.{form}.us_per_step"] = \
            statistics.median(times) / traj.n_steps * 1e6
    return out


def reconcile(name: str, seed: int, stages: int, v: Dict[str, float]) -> List[Tuple[str, bool, str]]:
    """Count identities every traced pass must satisfy, plus the seed-0 reference counts."""
    get = lambda k: int(v.get(k, 0))
    checks = [
        ("imex_step calls = forward steps",
         get("forward.imex_step.calls"), get("forward.solve_forward.steps")),
        ("apply_dx calls = stages x imex_step calls",
         get("spatial.apply_dx.calls"), stages * get("forward.imex_step.calls")),
        ("apply_dx_transpose calls = stages x adjoint steps",
         get("spatial.apply_dx_transpose.calls"), stages * get("adjoint.solve_adjoint.steps")),
        ("adjoint_step_ark calls = ark-form adjoint steps",
         get("adjoint.adjoint_step_ark.calls"), get("adjoint.solve_adjoint.ark.steps")),
    ]
    if seed == 0:
        for key, ref in SEED0_COUNTS.get(name, {}).items():
            checks.append((f"{key} = {ref} at seed 0", get(key), ref))
    return [(f"reconcile {label}", got == want, f"{got} vs {want}")
            for label, got, want in checks]


def per_layer(run) -> Tuple[Dict[str, Tuple[float, str]], List[Tuple[str, bool, str]]]:
    """Per-layer metrics of the fastest traced pass, and the reconciliation of every traced pass."""
    last = run.meter.last_stored
    recon = []
    for p in run.passes:
        if p["traced"]:
            values = _pass_values(run.tracer, p["pass_id"])
            recon += [(f"{label} (pass {p['pass_id']})", ok, detail) for label, ok, detail
                      in reconcile(run.wl.name, run.wl.seed, last.tab.s, values)]

    wall_u = run.fastest(traced=False)["wall"]
    wall_t = run.fastest(traced=True)["wall"]
    values = _pass_values(run.tracer, run.fastest(traced=True)["pass_id"])
    values.update(probe_forms(last, np.zeros(last.grid.n_cells)))
    values.update({"trace.wall_s_untraced": wall_u, "trace.wall_s_traced": wall_t,
                   "trace.overhead_s": wall_t - wall_u})
    metrics = {name: (float(values.get(name, 0.0)), unit) for name, unit in PER_LAYER}
    return metrics, recon
