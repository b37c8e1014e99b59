"""In-memory span tracing and solve metering around relaxopt's public functions.

Nothing here edits the library.  Both classes replace module attributes and
put the originals back on `uninstall`.  A function is wrapped under every
name that binds it in a `relaxopt.*` namespace, because `forward.py`,
`adjoint.py` and `studies.py` import their callees with `from .x import f`,
and a call is looked up in the caller's namespace, not the defining module's.

`Meter` is the cheap hook both modes keep: it timestamps every
`solve_forward` call and every forward and adjoint time step, and records
each solve's size, which gives the segment timings, the per-operation
latencies and `cells_per_s`.  `Tracer` is the traced run's
hook: one span per call of every public function, plus construction counts
and bytes computed from array sizes.
"""
from __future__ import annotations

import inspect
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Tuple

import numpy as np

# Modules whose public functions get spans, by their short layer name.  The
# CLI is left out: it only parses arguments and writes CSVs.
LAYERS = ("core", "tableau", "spatial", "forward", "adjoint", "optimize", "studies")
F64 = 8


def _relaxopt_namespaces():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "relaxopt" or name.startswith("relaxopt."))]


class _Patcher:
    """Replaces functions by identity in every relaxopt namespace; undoes it on uninstall."""

    def __init__(self):
        self._saved: List[Tuple[object, str, object]] = []

    def patch(self, wrappers: Dict[int, Callable], tables: bool = False) -> None:
        """Rebind every attribute whose value's id is a key of `wrappers`.

        With `tables`, entries of module-level dicts (dispatch tables such as
        `adjoint._STEPPERS`) are rebound too.
        """
        for mod in _relaxopt_namespaces():
            for attr, val in list(vars(mod).items()):
                w = wrappers.get(id(val))
                if w is not None:
                    self.set_attr(mod, attr, w)
                elif tables and isinstance(val, dict):
                    for key, entry in list(val.items()):
                        w = wrappers.get(id(entry))
                        if w is not None:
                            self._saved.append((val, key, entry))
                            val[key] = w

    def set_attr(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, val in reversed(self._saved):
            if isinstance(owner, dict):
                owner[attr] = val
            else:
                setattr(owner, attr, val)
        self._saved.clear()


# Functions each of whose calls marks two ticks: one forward or adjoint time
# step starting (kind k, its index here plus one) and ending (kind -k).  Kind
# 0 is a boundary tick: a pass, a forward solve or an adjoint sweep starting
# or ending.
TICKED = (("forward", "imex_step"), ("forward", "imex_step_kform"),
          ("adjoint", "adjoint_step_ark"), ("adjoint", "adjoint_step_xi"),
          ("adjoint", "adjoint_step_zeta"))
BOUNDARY = 0


class Meter:
    """Ticks at every time step and solve boundary, and one record per solve.

    A tick is a `perf_counter` reading, with its kind, taken when a forward
    solve or adjoint sweep starts or ends and when a time step starts or
    ends; the runner adds the pass's own start and end.  A pass is
    deterministic for its seed, so tick i is the same point of the work in
    every pass, and the time between two ticks (a segment) can be compared
    across passes.  A record is (calling namespace, start tick, end tick,
    N, steps, stages, stored), one per `solve_forward` call in `solves` and
    one per `solve_adjoint` call in `sweeps`; `stored` says whether the
    solve kept its stages (always False for a sweep).

    With keep_last, the most recent trajectory that stored stages is kept for
    the adjoint-form probe.
    """

    def __init__(self, keep_last: bool = False):
        self.solves: List[Tuple[str, int, int, int, int, int, bool]] = []
        self.sweeps: List[Tuple[str, int, int, int, int, int, bool]] = []
        self.ticks: List[float] = []
        self.kinds: List[int] = []
        self.keep_last = keep_last
        self.last_stored = None
        self._patcher = _Patcher()

    def tick(self) -> None:
        self.kinds.append(BOUNDARY)
        self.ticks.append(time.perf_counter())

    def install(self) -> None:
        import relaxopt.adjoint as adjoint
        import relaxopt.forward as forward
        for owner, attr, wrap in ((forward, "solve_forward", self._wrap_solve),
                                  (adjoint, "solve_adjoint", self._wrap_sweep)):
            fn = getattr(owner, attr)
            for mod in _relaxopt_namespaces():
                if getattr(mod, attr, None) is fn:
                    self._patcher.set_attr(mod, attr, wrap(fn, mod.__name__))
        wrappers: Dict[int, Callable] = {}
        for kind, (short, attr) in enumerate(TICKED, start=1):
            fn = getattr(sys.modules[f"relaxopt.{short}"], attr, None)
            if fn is not None:
                wrappers[id(fn)] = self._wrap_step(fn, kind)
        self._patcher.patch(wrappers, tables=True)

    def _wrap_step(self, fn, kind: int):
        ticks, kinds = self.ticks, self.kinds
        clock = time.perf_counter

        def ticked(*args, **kwargs):
            kinds.append(kind)
            ticks.append(clock())
            out = fn(*args, **kwargs)
            kinds.append(-kind)
            ticks.append(clock())
            return out
        return ticked

    def _wrap_sweep(self, fn, namespace: str):
        sweeps, ticks, kinds = self.sweeps, self.ticks, self.kinds
        clock = time.perf_counter

        def solve_adjoint(traj, *args, **kwargs):
            i0 = len(ticks)
            kinds.append(BOUNDARY)
            ticks.append(clock())
            out = fn(traj, *args, **kwargs)
            kinds.append(BOUNDARY)
            ticks.append(clock())
            sweeps.append((namespace, i0, len(ticks) - 1,
                           traj.grid.n_cells, traj.n_steps, traj.tab.s, False))
            return out
        return solve_adjoint

    def _wrap_solve(self, fn, namespace: str):
        solves, ticks, kinds = self.solves, self.ticks, self.kinds
        clock = time.perf_counter
        meter = self

        def solve_forward(*args, **kwargs):
            i0 = len(ticks)
            kinds.append(BOUNDARY)
            ticks.append(clock())
            traj = fn(*args, **kwargs)
            kinds.append(BOUNDARY)
            ticks.append(clock())
            solves.append((namespace, i0, len(ticks) - 1,
                           traj.grid.n_cells, traj.n_steps, traj.tab.s, bool(traj.stages)))
            if meter.keep_last and traj.stages:
                meter.last_stored = traj
            return traj
        return solve_forward

    def uninstall(self) -> None:
        self._patcher.uninstall()

    def take(self) -> Dict[str, object]:
        """solves, sweeps, ticks and kinds since the last take; the meter starts afresh."""
        out = {"solves": list(self.solves), "sweeps": list(self.sweeps),
               "ticks": np.asarray(self.ticks, dtype=float),
               "kinds": np.asarray(self.kinds, dtype=np.int8)}
        self.solves.clear()
        self.sweeps.clear()
        self.ticks.clear()
        self.kinds.clear()
        return out


class Tracer:
    """Spans (name, start, end, parent, pass id) kept in parallel lists until the run ends."""

    def __init__(self):
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self.pass_ids: List[int] = []
        self._stack: List[int] = [-1]
        self.pass_id = -1
        # per pass: counters that are not spans (constructions, steps, bytes)
        self.counters: Dict[int, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self._patcher = _Patcher()

    # ---------------------------------------------------------------- spans
    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.starts.append(time.perf_counter())
        self.ends.append(0.0)
        self.parents.append(self._stack[-1])
        self.pass_ids.append(self.pass_id)
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name: str, after=None):
        names, starts, ends = self.names, self.starts, self.ends
        parents, pass_ids, stack = self.parents, self.pass_ids, self._stack
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1])
            pass_ids.append(tracer.pass_id)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(tracer.counters[tracer.pass_id], args, kwargs, out)
            return out
        return traced

    # -------------------------------------------------------------- install
    def install(self) -> None:
        """Wrap every public function of the LAYERS modules, and count RelaxState constructions."""
        import relaxopt.core as core
        wrappers: Dict[int, Callable] = {}
        for short in LAYERS:
            mod = sys.modules[f"relaxopt.{short}"]
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                name = f"{short}.{attr}"
                wrappers[id(obj)] = self._wrap(obj, name, _AFTER.get(name))
        self._patcher.patch(wrappers)

        post_init = core.RelaxState.__post_init__
        tracer = self

        def counted_post_init(state):
            tracer.counters[tracer.pass_id]["core.RelaxState.count"] += 1
            post_init(state)
        self._patcher.set_attr(core.RelaxState, "__post_init__", counted_post_init)

    def uninstall(self) -> None:
        self._patcher.uninstall()

    # ------------------------------------------------------------- analysis
    def _arrays(self):
        names = np.asarray(self.names, dtype=object)
        start = np.asarray(self.starts)
        end = np.asarray(self.ends)
        parent = np.asarray(self.parents, dtype=np.int64)
        dur = end - start
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return names, dur, dur - child, np.asarray(self.pass_ids, dtype=np.int64)

    def layer_table(self, pass_id: int) -> Dict[str, Tuple[int, float, float]]:
        """name -> (calls, total seconds, self seconds) over the spans of one pass."""
        names, dur, self_s, pids = self._arrays()
        sel = pids == pass_id
        table: Dict[str, Tuple[int, float, float]] = {}
        for name in sorted(set(names[sel])):
            m = sel & (names == name)
            table[name] = (int(m.sum()), float(dur[m].sum()), float(self_s[m].sum()))
        return table

    def write_csv(self, path: str) -> None:
        """All spans as CSV: id,pass,parent,name,start_us,end_us (times from the first span)."""
        t0 = self.starts[0] if self.starts else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,pass,parent,name,start_us,end_us\n")
            for i, name in enumerate(self.names):
                fh.write(f"{i},{self.pass_ids[i]},{self.parents[i]},{name},"
                         f"{(self.starts[i] - t0) * 1e6:.3f},{(self.ends[i] - t0) * 1e6:.3f}\n")


# Counters taken from a call's arguments and result after it returns.  Bytes
# are computed from array sizes (float64), not measured.

def _after_apply_dx(c, args, kwargs, out):
    # reads u and v, writes two output fields of the same length
    c["spatial.apply_dx.bytes_computed"] += 4 * out.u.size * F64


def _after_solve_forward(c, args, kwargs, traj):
    n = traj.grid.n_cells
    steps = len(traj.steps) * 2 * n * F64
    stages = sum(len(st) for st in traj.stages) * 2 * n * F64
    c["forward.steps_retained_bytes"] = max(c["forward.steps_retained_bytes"], steps)
    c["forward.stages_stored_bytes"] = max(c["forward.stages_stored_bytes"], stages)
    c["forward.solve_forward.steps"] += traj.n_steps


def _after_solve_adjoint(c, args, kwargs, rec):
    traj = args[0] if args else kwargs["traj"]
    n = traj.grid.n_cells
    fields = len(rec.costates) + sum(len(t) for t in rec.stage_costates_tilde) \
        + sum(len(m) for m in rec.stage_costates)
    c["adjoint.record_bytes"] = max(c["adjoint.record_bytes"], fields * 2 * n * F64)
    c["adjoint.solve_adjoint.steps"] += traj.n_steps
    c[f"adjoint.solve_adjoint.{rec.form_used}.steps"] += traj.n_steps


def _after_fd_gradient(c, args, kwargs, grad):
    c["optimize.fd_gradient.solves"] += 2 * grad.size


def _after_steepest_descent(c, args, kwargs, out):
    c["optimize.steepest_descent.iterations"] += out[1].iterations


_AFTER = {
    "spatial.apply_dx": _after_apply_dx,
    "forward.solve_forward": _after_solve_forward,
    "adjoint.solve_adjoint": _after_solve_adjoint,
    "optimize.fd_gradient": _after_fd_gradient,
    "optimize.steepest_descent": _after_steepest_descent,
}
