#!/usr/bin/env python3
"""Closed-loop benchmark of recurmartin: one client, one operation in flight.

Usage, from the repository root:

    python3 perfbench/run.py --workload exact --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload sample --seed 1 --seconds 25 --trace 1

Workloads are ``exact``, ``sample`` and ``measure`` (see perfbench/README.md).
The package is imported from ``src/`` next to this directory; without it
the script exits with status 2 and prints no result.

``--trace 0`` times the package untraced, in WORKERS fresh worker processes
run one after another, and prints the end-to-end metrics; ``--trace 1``
alternates untraced and traced passes in this process and prints the
per-layer metrics read from the spans. Either way the last line of stdout
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; lines before it starting with ``#`` describe the run.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: BLAS/OpenMP threads for numpy and scipy: one client, one op in flight, so
#: one thread; this also keeps timings steady on a shared 2-core machine.
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: Worker processes per untraced run. Each times its own set-up and then
#: measures for 1/WORKERS of the run. The same op's speed differs between
#: two processes by up to 20% (memory layout), while it holds steady
#: within one, so results average over several processes.
WORKERS = 5

#: Relative standard error that ``time_to_1pct_s`` scales MC ops to.
TARGET_REL_STDERR = 0.01

#: Seconds the calibration kernel takes on the reference machine (2-core
#: shared VM, Python 3.11.7, numpy 2.4.6, in a quiet spell). Reported times are
#: rescaled to that speed; see ``calibrate``.
CALIBRATION_REF_S = 0.010

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "time_to_1pct_s": "s",
    "cli_wall_s": "s",
    "ok_share": "ratio",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "green.exact_solve_s": "s",
    "green.exact_states_per_s": "1/s",
    "green.window_states": "count",
    "green.window_nnz": "count",
    "green.window_rows_s": "s",
    "examplechains.window_s": "s",
    "examplechains.successors_calls": "count",
    "examplechains.successors_s": "s",
    "green.float_solve_s": "s",
    "green.mc_runs_per_s.line": "1/s",
    "green.mc_runs_per_s.halfline": "1/s",
    "green.mc_runs_per_s.tree": "1/s",
    "green.mc_runs_per_s.plane": "1/s",
    "green.mc_runs_per_s.generic": "1/s",
    "green.mc_truncated_share": "ratio",
    "htransform.witness_steps_per_s.line": "1/s",
    "htransform.witness_steps_per_s.halfline": "1/s",
    "htransform.witness_steps_per_s.tree": "1/s",
    "htransform.witness_steps_per_s.plane": "1/s",
    "htransform.exact_checks_s": "s",
    "rng.generator_calls": "count",
    "potential.table_s": "s",
    "potential.harmonicity_s": "s",
    "potential.mc_runs_per_s": "1/s",
    "martin.harmonic_check_s": "s",
    "martin.states_checked_per_s": "1/s",
    "sigma.avoidance_s": "s",
    "sigma.cylinder_s": "s",
    "sigma.bracket_closed_share": "ratio",
    "chains.enumerate_paths_s": "s",
    "chains.paths_enumerated": "count",
    "cli.run_s": "s",
    "cli.render_s": "s",
    "trace.overhead_s": "s",
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("exact", "sample", "measure"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="measuring time")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny shrinks every op, for the self-tests")
    p.add_argument("--trace-file", default=None,
                   help="with --trace 1, also write every span to this JSON file")
    p.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def use_checkout_package() -> None:
    """Import recurmartin from this checkout's src/, never from elsewhere."""
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    if not (SRC / "recurmartin" / "__init__.py").is_file():
        sys.stderr.write(f"error: no recurmartin package under {SRC}\n")
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))


def calibrate() -> float:
    """Seconds for a fixed mix of interpreter, big-rational and numpy work.

    The shared machine's speed drifts by tens of percent over minutes, and
    interpreter and numpy code drift together. The kernel runs before every
    op; a pass's times are multiplied by CALIBRATION_REF_S over the pass's
    median kernel time, which cancels the drift but not a change in the
    package, whose code never runs inside the kernel. The collector is off
    so that the package's heap cannot slow the kernel.
    """
    import numpy as np

    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        acc = 0
        for i in range(80_000):
            acc += i * i % 7
        f = Fraction(0)
        for i in range(1, 200):
            f += Fraction(1, i)
        a = np.random.default_rng(0).random(50_000)
        np.cumsum(a)
        int((a < 0.5).sum())
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def speed_scale(samples) -> float:
    """Factor taking times measured alongside ``samples`` to reference speed."""
    return CALIBRATION_REF_S / statistics.median(samples)


def setup(workload: str, seed: int, size: str) -> list:
    """Imports, op construction and warm-up: what a fresh process pays
    before its first op is ready.

    The warm-up runs the tiny size of every non-CLI op once, which triggers
    the package's lazy imports and fills its caches.
    """
    import recurmartin.cli  # noqa: F401  (pulls in every layer)
    import workloads

    ops = workloads.build(workload, seed, size)
    for op in workloads.build(workload, seed, "tiny"):
        if op.kind != "cli":
            try:
                op.run()
            except Exception:  # the known-defect ops raise by design
                pass
    return ops


@dataclass
class OpRecord:
    name: str
    kind: str
    calibration: float
    seconds: float = 0.0
    ok: bool = False
    raised: bool = False
    factor: float = 1.0
    error: str = ""


def run_op(op, expected) -> OpRecord:
    """Calibrate, then run one op and check it; ``seconds`` is raw wall time."""
    rec = OpRecord(op.name, op.kind, calibrate())
    t0 = perf_counter()
    try:
        result = op.run()
    except Exception as exc:  # a raising op is a failed op, not a crash
        rec.seconds = perf_counter() - t0
        rec.raised, rec.error = True, f"{type(exc).__name__}: {exc}"
        return rec
    rec.seconds = perf_counter() - t0
    try:
        rec.ok = bool(op.check(result, expected))
    except Exception as exc:  # a check that cannot read the result fails it
        rec.error = f"check raised {type(exc).__name__}: {exc}"
        return rec
    if not rec.ok:
        rec.error = "result missed its oracle"
    if op.estimates is not None:
        scales = [
            (stderr / abs(value) / TARGET_REL_STDERR) ** 2
            for value, stderr in op.estimates(result)
            if value != 0 and stderr > 0
        ]
        rec.factor = max(scales, default=1.0)
    return rec


@dataclass
class PassRecord:
    ops: list
    elapsed: float
    traced: bool

    @property
    def scale(self) -> float:
        return speed_scale([r.calibration for r in self.ops])

    @property
    def raw_wall(self) -> float:
        return sum(r.seconds for r in self.ops)

    @property
    def wall(self) -> float:
        return self.raw_wall * self.scale


def run_pass(ops, expected, tracer=None, op_base=0) -> PassRecord:
    t0 = perf_counter()
    records = []
    for k, (op, exp) in enumerate(zip(ops, expected)):
        if tracer is not None:
            tracer.current_op = op_base + k
        records.append(run_op(op, exp))
    return PassRecord(records, perf_counter() - t0, tracer is not None)


def measure(ops, expected, seconds: float, tracer=None) -> list:
    """Passes over the op list until the next one would end past ``seconds``.

    With a tracer, passes alternate untraced and traced, starting untraced,
    and there are at least two.
    """
    passes = []
    t_start = perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.install()
        try:
            passes.append(run_pass(ops, expected, tracer if traced else None,
                                   len(passes) * len(ops)))
        finally:
            if traced:
                tracer.uninstall()
        elapsed = perf_counter() - t_start
        typical = statistics.median(p.elapsed for p in passes)
        if tracer is not None and len(passes) < 2:
            continue
        if elapsed + 0.5 * typical >= seconds:
            return passes


def summary(passes) -> dict:
    records = [r for p in passes for r in p.ops]
    failed = sum(1 for r in records if not r.ok)
    return {
        "correct": not any(not r.ok and not r.raised for r in records),
        "attempted": len(records),
        "failed": failed,
    }


def op_medians(passes) -> list:
    """Each op's record with its median time, at reference speed, over the
    untraced passes of one process.

    Summing per-op medians, rather than taking the median pass, filters a
    slow spell that hits one op in one pass.
    """
    plain = [p for p in passes if not p.traced]
    out = []
    for k, rec in enumerate(plain[0].ops):
        seconds = statistics.median(p.ops[k].seconds * p.scale for p in plain)
        out.append(replace(rec, seconds=seconds))
    return out


def op_means(workers) -> list:
    """Each op's median time within a worker, averaged over the workers."""
    per_worker = [op_medians(passes) for passes in workers]
    return [
        replace(recs[0], seconds=statistics.fmean(r.seconds for r in recs))
        for recs in zip(*per_worker)
    ]


def end_to_end(workers, setup_times, peak_rss_kb) -> dict:
    s = summary([p for passes in workers for p in passes])
    ops = op_means(workers)
    return {
        "setup_s": statistics.median(setup_times),
        "wall_s": sum(r.seconds for r in ops),
        "time_to_1pct_s": sum(r.seconds * r.factor for r in ops),
        "cli_wall_s": sum(r.seconds for r in ops if r.kind == "cli"),
        "ok_share": (s["attempted"] - s["failed"]) / s["attempted"],
        "peak_rss_mb": peak_rss_kb / 1024.0,
    }


def per_layer(passes, tracer, n_ops: int) -> dict:
    from tracer import layer_metrics

    per_pass = []
    for k, p in enumerate(passes):
        if p.traced:
            ops = set(range(k * n_ops, (k + 1) * n_ops))
            per_pass.append(layer_metrics(tracer, ops, p.scale))
    out = {
        name: (statistics.median_low if PER_LAYER[name] == "count" else statistics.median)(
            m[name] for m in per_pass
        )
        for name in per_pass[0]
    }
    traced = [p.wall for p in passes if p.traced]
    untraced = [p.wall for p in passes if not p.traced]
    out["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    return out


def describe(args, workers, ops) -> list:
    import numpy
    import scipy

    passes = [p for w in workers for p in w]
    lines = [
        f"# recurmartin benchmark: workload={args.workload} seed={args.seed} "
        f"size={args.size} trace={args.trace} processes={len(workers)} passes={len(passes)} "
        "closed-loop clients=1",
        f"# blas_threads={BLAS_THREADS} nproc={os.cpu_count()} "
        f"python={platform.python_version()} numpy={numpy.__version__} scipy={scipy.__version__}",
    ]
    for k, w in enumerate(workers):
        lines.append(
            f"# process {k} pass raw_wall_s/speed_scale: "
            + " ".join(f"{p.raw_wall:.3f}/{p.scale:.3f}{'(traced)' if p.traced else ''}" for p in w)
        )
    for rec in ops:
        bad = sum(1 for p in passes for r in p.ops if r.name == rec.name and not r.ok)
        lines.append(
            f"# op {rec.name:34s} {rec.kind:5s} s={rec.seconds:.4f} "
            f"failed={bad}/{len(passes)} mc_scale={rec.factor:.4g}"
            + (f" error={rec.error}" if rec.error else "")
        )
    return lines


def worker(args) -> None:
    """Set up, say ``ready``, then measure and print the passes as JSON."""
    ops = setup(args.workload, args.seed, args.size)
    print("ready", flush=True)
    expected = [op.expect() for op in ops]
    passes = measure(ops, expected, args.seconds)
    print(json.dumps({
        "passes": [[vars(r) for r in p.ops] for p in passes],
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }), flush=True)


def run_worker(args, seconds: float):
    """One worker process: (set-up seconds at reference speed, passes, peak RSS)."""
    scale = speed_scale([calibrate() for _ in range(5)])
    cmd = [sys.executable, str(Path(__file__).resolve()), "--worker",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--size", args.size]
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline()
        setup_s = (perf_counter() - t0) * scale
        out = proc.stdout.read()
        rc = proc.wait(timeout=170)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if rc != 0 or ready.strip() != "ready":
        raise RuntimeError(f"worker process failed with exit code {rc}")
    doc = json.loads(out)
    passes = [PassRecord([OpRecord(**r) for r in p], 0.0, False) for p in doc["passes"]]
    return setup_s, passes, doc["peak_rss_kb"]


def main(argv=None) -> int:
    args = parse_args(argv)
    use_checkout_package()
    if args.worker:
        worker(args)
        return 0

    if args.trace:
        from tracer import Tracer

        ops = setup(args.workload, args.seed, args.size)
        expected = [op.expect() for op in ops]
        tracer = Tracer()
        workers = [measure(ops, expected, args.seconds, tracer)]
        values, units = per_layer(workers[0], tracer, len(ops)), PER_LAYER
        if args.trace_file:
            tracer.write(args.trace_file)
    else:
        runs = [run_worker(args, args.seconds / WORKERS) for _ in range(WORKERS)]
        workers = [passes for _, passes, _ in runs]
        values = end_to_end(workers, [s for s, _, _ in runs], max(kb for _, _, kb in runs))
        units = END_TO_END
    result = summary([p for passes in workers for p in passes])
    result["metrics"] = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    for line in describe(args, workers, op_means(workers)):
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
