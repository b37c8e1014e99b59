#!/usr/bin/env python3
"""relaxopt benchmark: one workload, measured for a fixed time, gates checked.

Run from the root of a checkout:

    python3 perfbench/run.py --workload tracking --seed 0 --seconds 40 --trace 0

Workloads are `tracking`, `order` and `gradcheck` (see perfbench/README.md).
An untraced run times the set-up of fresh interpreters, then repeats whole
passes of the workload while the next one still fits in --seconds (at least
one pass), then times the set-up again.  --trace 0 reports the end-to-end metrics;
--trace 1 alternates untraced and traced passes and reports the per-layer
metrics, the tracing overhead and the exact-count reconciliation.
Human-readable lines come first; the last line of standard output is one
JSON object.  Exit code 2 means the benchmark could not run (for example,
no `src/relaxopt` beside it); nothing goes to standard output then.
"""
from __future__ import annotations

import os

# One BLAS thread: a closed loop of sequential solves on a 2-core machine.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Set-up probes before and after the passes; setup_s is their median.
SETUP_PROBES_EACH_SIDE = 6
END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "cells_per_s": "1/s",
    "op_ms_p50": "ms", "op_ms_p90": "ms", "op_ms_p95": "ms",
    "ops": "count", "peak_rss_mb": "MB", "ok_frac": "1",
}
OP_NAMES = {"tracking": "descent iteration, per forward step",
            "gradcheck": "FD forward solve", "order": "N=2048 forward step"}


class BenchError(RuntimeError):
    """The benchmark cannot run in this directory."""


def _import_library():
    """Import relaxopt from this checkout's src/, never from an installed copy."""
    if not (SRC / "relaxopt" / "__init__.py").is_file():
        raise BenchError(f"no relaxopt sources at {SRC / 'relaxopt'}")
    sys.path.insert(0, str(SRC))
    import relaxopt
    if Path(relaxopt.__file__).resolve().parent != (SRC / "relaxopt").resolve():
        raise BenchError(f"relaxopt imported from {relaxopt.__file__}, not from {SRC}")
    return relaxopt


def _time_setup(workload: str, seed: int, count: int) -> list:
    """Wall time of `count` fresh interpreters that import relaxopt and build the inputs."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(count):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=str(ROOT), capture_output=True, text=True, timeout=120)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed ({proc.returncode}): {proc.stderr.strip()}")
    return times


class Run:
    """Passes of one workload; the meter is always on, the tracer on every other pass."""

    def __init__(self, wl, trace: bool):
        self.wl = wl
        self.trace = trace
        self.meter = tracing.Meter(keep_last=trace)
        self.tracer = tracing.Tracer() if trace else None
        self.passes = []        # dicts: pass_id, traced, wall, outcomes
        # The first untraced pass's solves, sweeps and tick kinds, and every
        # segment's fastest time over the untraced passes so far.  Keeping a
        # running minimum, not every pass, keeps memory flat in the pass count.
        self.layout = None
        self.seg_min = None

    def one_pass(self, traced: bool) -> None:
        tracer = self.tracer if traced else None
        pass_id = len(self.passes)
        if tracer is not None:
            tracer.install()
            tracer.pass_id = pass_id
            span = tracer.open("pass")
        self.meter.install()
        self.meter.tick()
        try:
            outcomes = self.wl.run_pass()
        finally:
            self.meter.tick()
            self.meter.uninstall()
            if tracer is not None:
                tracer.close(span)
                tracer.uninstall()
        metered = self.meter.take()
        ticks = metered.pop("ticks")
        self.passes.append(dict(pass_id=pass_id, traced=traced, wall=ticks[-1] - ticks[0],
                                outcomes=outcomes))
        if not traced:
            self._keep_segments(metered, np.diff(ticks))

    def _keep_segments(self, metered: dict, seg: np.ndarray) -> None:
        if self.layout is None:
            self.layout, self.seg_min = metered, seg
            return
        same = (metered["kinds"].tobytes() == self.layout["kinds"].tobytes()
                and all([r[1:] for r in metered[k]] == [r[1:] for r in self.layout[k]]
                        for k in ("solves", "sweeps")))
        if not same:
            raise RuntimeError("passes of one seed made different solves or steps")
        np.minimum(self.seg_min, seg, out=self.seg_min)

    def measure(self, seconds: float) -> None:
        """Repeat passes (or untraced/traced pairs) while the next one fits in `seconds`."""
        begin = time.perf_counter()
        durations = []
        while True:
            t0 = time.perf_counter()
            self.one_pass(traced=False)
            if self.trace:
                self.one_pass(traced=True)
            durations.append(time.perf_counter() - t0)
            if time.perf_counter() - begin + statistics.median(durations) > seconds:
                break

    def fastest(self, traced: bool) -> dict:
        return min((p for p in self.passes if p["traced"] == traced), key=lambda p: p["wall"])

    def outcomes(self):
        return [o for p in self.passes for o in p["outcomes"]]


def _percentile(values, q) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def _best_segments(run: Run) -> np.ndarray:
    """Best-of-many time of every segment; entry j of the result is tick 0 to tick j.

    A pass is deterministic for a seed, so segment i (tick i to tick i+1) is
    the same work in every untraced pass.  Inside forward solves and adjoint
    sweeps there is more of the same work.  A time step (tick kinds k to -k)
    or the loop between two steps (-k to k) costs the same in every solve or
    sweep with the same N, stages and stage storage.  The set-up before the
    first step (0 to k) and the assembly after the last (-k to 0) cost the
    same in every one that also has the same step count.  Each segment
    counts at the fastest time of its pool: itself across passes, plus those
    same-work segments.  The host runs at full speed only in bursts of about
    a millisecond, so the more repeats a pool holds, the surer it is to
    catch one.
    """
    first = run.layout
    best = run.seg_min.copy()
    kinds = first["kinds"].astype(np.int64)
    a, b = kinds[:-1], kinds[1:]
    in_loop = (a != 0) & (b == -a)
    pair = (a + 64) * 128 + (b + 64)
    pools = {}
    for what in ("solves", "sweeps"):
        for _, i0, i1, n, steps, stages, stored in first[what]:
            idx = np.arange(i0, i1)
            for code in np.unique(pair[idx]):
                part = idx[pair[idx] == code]
                size = () if in_loop[part[0]] else (steps,)
                pools.setdefault((what, n, stages, stored, code, *size), []).append(part)
    for parts in pools.values():
        idx = np.concatenate(parts)
        best[idx] = best[idx].min()
    return np.concatenate([[0.0], np.cumsum(best)])


def _end_to_end(run: Run, setup_times) -> dict:
    """End-to-end metrics of one pass, each segment at its fastest over the untraced passes."""
    cum = _best_segments(run)
    solves = run.layout["solves"]
    ops = run.wl.op_samples(solves, lambda i, j: cum[j] - cum[i])
    wall = float(cum[-1])
    cells = sum(n * steps * s for _, _, _, n, steps, s, _ in solves)
    outcomes = run.outcomes()
    failed = sum(1 for _, ok, _ in outcomes if not ok)
    return {
        "setup_s": statistics.median(setup_times),
        "wall_s": wall,
        "cells_per_s": cells / wall,
        "op_ms_p50": _percentile(ops, 50) * 1e3,
        "op_ms_p90": _percentile(ops, 90) * 1e3,
        "op_ms_p95": _percentile(ops, 95) * 1e3,
        "ops": len(ops),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": (len(outcomes) - failed) / len(outcomes),
    }


def _print_end_to_end(name: str, m: dict, run: Run, setup_times) -> None:
    walls = sorted(p["wall"] for p in run.passes if not p["traced"])
    print(f"set-up probes (s): {', '.join(f'{t:.4f}' for t in setup_times)}")
    print(f"untraced passes (s, sorted): {', '.join(f'{w:.3f}' for w in walls)}; "
          f"{len(run.seg_min)} segments each")
    for key, value in m.items():
        print(f"{name} {key} = {value:.6g} {END_TO_END_UNITS[key]}")
    n_ops = m["ops"]
    print(f"  op = one {OP_NAMES[name]}; percentiles over the {n_ops} ops of a pass, "
          f"each segment at its fastest of {len(walls)} passes")
    if name == "tracking":
        print(f"  iterations = {n_ops}; per-iteration time over its step count: "
              f"p50 {m['op_ms_p50']:.5f} ms, p90 {m['op_ms_p90']:.5f} ms")
    elif name == "gradcheck":
        print(f"  fd_solve_ms_p50 = {m['op_ms_p50']:.4f} ms, "
              f"fd_solve_ms_p95 = {m['op_ms_p95']:.4f} ms")
    print(f"  failed_frac = {1.0 - m['ok_frac']:.6g} (failed / attempted operations)")


def _report_traced(name: str, run: Run) -> tuple:
    """Print the traced run's details; returns (metrics for the JSON line, reconciliation outcomes)."""
    import layers  # imports relaxopt
    metrics, recon = layers.per_layer(run)
    for op, ok, detail in recon:
        print(f"  {'ok  ' if ok else 'FAIL'} {op}: {detail}")
    OUT.mkdir(exist_ok=True)
    span_file = OUT / f"{name}.spans.csv"
    run.tracer.write_csv(str(span_file))
    print(f"spans: {len(run.tracer.names)} written to {span_file.relative_to(ROOT)}")
    best = run.fastest(traced=True)["pass_id"]
    print(f"{'span (fastest traced pass)':<40} {'calls':>9} {'s':>10} {'self_s':>10}")
    for span, (calls, total, self_s) in run.tracer.layer_table(best).items():
        print(f"{span:<40} {calls:>9d} {total:>10.4f} {self_s:>10.4f}")
    for key, (value, unit) in metrics.items():
        print(f"{name} {key} = {value:.6g} {unit}")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, recon


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    try:
        _import_library()
        import workloads  # imports relaxopt, so only once src/ is on the path
        if args.workload not in workloads.WORKLOADS:
            raise BenchError(f"unknown workload '{args.workload}'; "
                             f"available: {', '.join(workloads.WORKLOADS)}")
        if args.setup_probe:
            workloads.build(args.workload, args.seed)
            return 0
        if not args.trace:
            setup_times = _time_setup(args.workload, args.seed, SETUP_PROBES_EACH_SIDE)
    except BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2

    workloads.warm_up(args.workload, args.seed)
    run = Run(workloads.build(args.workload, args.seed), trace=bool(args.trace))
    run.measure(args.seconds)
    if not args.trace:
        setup_times += _time_setup(args.workload, args.seed, SETUP_PROBES_EACH_SIDE)

    for p in run.passes:
        print(f"pass {p['pass_id']} ({'traced' if p['traced'] else 'untraced'}): {p['wall']:.3f} s")
        for op, ok, detail in p["outcomes"]:
            print(f"  {'ok  ' if ok else 'FAIL'} {op}: {detail}")

    outcomes = run.outcomes()
    if args.trace:
        result_metrics, recon = _report_traced(args.workload, run)
        outcomes += recon
    else:
        m = _end_to_end(run, setup_times)
        _print_end_to_end(args.workload, m, run, setup_times)
        result_metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in m.items()}

    failed = sum(1 for _, ok, _ in outcomes if not ok)
    print(json.dumps({"correct": failed == 0, "attempted": len(outcomes), "failed": failed,
                      "metrics": result_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
