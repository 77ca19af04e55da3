#!/usr/bin/env python3
"""splitsim benchmark: end-to-end and per-layer metrics for three workloads.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One process, one caller, closed loop: each op starts when the previous one
ends. The run generates its datasets from --seed, sets up, runs one untimed
warm-up op, then runs as many whole cycles of ops as take about --seconds
on the machine the workload's cycle time was measured on, and checks every
op against the digests in references.json. The cycle count depends only on
--seconds, so the same seed and length always run, and fail, the same ops.

--trace 0 prints the end-to-end metrics; set-up time is the median of
SETUP_REPEATS fresh child processes, each timed from its start to ready.
--trace 1 runs the same loop without timing set-up, then replays the first
cycles, each op untraced and then under the span tracer, and prints the
per-layer metrics, including the traced / untraced wall-time ratio.

The last line of standard output is one JSON object: correct, attempted,
failed, metrics. The line before it records the environment, the op count,
the tail percentile and every failed op.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import pathlib
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 3
TAIL_BEYOND = 10  # the tail is the highest percentile with this many ops beyond it

def use_checkout_sources() -> None:
    """Import splitsim from this checkout's src/, never from elsewhere."""
    if not (SRC / "splitsim" / "__init__.py").is_file():
        raise SystemExit(f"bench: no splitsim sources under {SRC}")
    sys.path.insert(0, str(SRC))


def parse_args(argv, workload_names):
    ap = argparse.ArgumentParser(description="splitsim benchmark")
    ap.add_argument("--workload", required=True, choices=workload_names)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, print 'ready' and exit (times setup_s)")
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    return args


def set_up(workload, seed: int) -> dict:
    """Generate every dataset of the workload's pool and run one untimed
    warm-up op on the data seed just before the run's first one."""
    datasets = {s: workload.datasets(s) for s in range(workload.pool)}
    warm = workload.cycle(-1, seed)[-1]
    workload.run(warm, datasets[warm.data_seed])
    return datasets


def measure_setup(workload_name: str, seed: int) -> float:
    """Seconds from starting a fresh process to its 'ready' line."""
    cmd = [sys.executable, str(pathlib.Path(__file__).resolve()), "--setup-only",
           "--workload", workload_name, "--seed", str(seed)]
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as child:
        try:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - start
            child.stdout.read()
            child.wait(timeout=120)
        finally:
            if child.poll() is None:
                child.kill()
    if line.strip() != "ready" or child.returncode != 0:
        raise RuntimeError(f"set-up child failed (exit {child.returncode})")
    return elapsed


def timed_loop(workload, seed: int, seconds: float, datasets):
    """The run's `workload.cycles(seconds)` cycles. Returns the op records
    [(op, outcome, seconds)] and each cycle's wall seconds."""
    records, cycle_walls = [], []
    for index in range(workload.cycles(seconds)):
        cycle_start = time.perf_counter()
        for op in workload.cycle(index, seed):
            t0 = time.perf_counter()
            outcome = workload.run(op, datasets[op.data_seed])
            records.append((op, outcome, time.perf_counter() - t0))
        cycle_walls.append(time.perf_counter() - cycle_start)
    return records, cycle_walls


def traced_replay(workload, seed: int, tracer):
    """The first `trace_cycles` cycles again, each op run untraced and then
    traced back to back, so load from outside the process hits both alike.
    Data generation is traced too. Returns (untraced, traced) records."""
    ops = [op for c in range(workload.trace_cycles) for op in workload.cycle(c, seed)]
    with tracer.installed():
        datasets = {s: workload.datasets(s) for s in sorted({op.data_seed for op in ops})}
    untraced, traced = [], []
    for i, op in enumerate(ops):
        t0 = time.perf_counter()
        untraced.append((op, workload.run(op, datasets[op.data_seed]), time.perf_counter() - t0))
        tracer.op = i
        t0 = time.perf_counter()
        with tracer.installed(), tracer.span("bench.op"):
            outcome = workload.run(op, datasets[op.data_seed])
        traced.append((op, outcome, time.perf_counter() - t0))
    return untraced, traced


def tail(durations: list[float]):
    """(percentile, seconds) of the highest percentile with TAIL_BEYOND ops
    beyond it, or None when there are too few ops."""
    n = len(durations)
    if n <= TAIL_BEYOND:
        return None
    return 100.0 * (n - TAIL_BEYOND) / n, sorted(durations)[n - TAIL_BEYOND - 1]


def peak_rss_mb() -> float:
    """Max of this process's and its waited-for children's ru_maxrss (KiB)."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib * 1024 / 1e6


def blas_threads():
    """Thread count of the OpenBLAS numpy loaded, or None if not found."""
    maps = pathlib.Path("/proc/self/maps")
    if not maps.exists():
        return None
    libs = sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", maps.read_text())))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return fn()
    return None


def environment() -> dict:
    import numpy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "blas_env": {k: v for k, v in os.environ.items()
                     if k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def op_s_p50(records) -> float:
    """Mean over op kinds of each kind's median op seconds. A workload's op
    kinds differ in size; a median over all ops at once would be set by the
    ops nearest the gap between kinds, not by a typical op of either."""
    by_kind = defaultdict(list)
    for op, _, seconds in records:
        by_kind[op.name].append(seconds)
    return statistics.fmean(statistics.median(d) for d in by_kind.values())


def end_to_end(workload, records, wall: float, setup_times: list[float]) -> dict:
    samples = sum(workload.samples(op) for op, _, _ in records)
    return {
        "setup_s": metric(statistics.median(setup_times), "s"),
        "samples_per_s": metric(samples / wall, "1/s"),
        "op_s_p50": metric(op_s_p50(records), "s"),
        "peak_rss_mb": metric(peak_rss_mb(), "MB"),
    }


def main(argv=None) -> int:
    use_checkout_sources()
    from tracing import Tracer
    from workloads import WORKLOADS, audit, load_references

    args = parse_args(argv, WORKLOADS)

    workload = WORKLOADS[args.workload]
    datasets = set_up(workload, args.seed)
    if args.setup_only:
        print("ready", flush=True)
        return 0

    references = load_references()[workload.name]
    setup_times = ([measure_setup(workload.name, args.seed) for _ in range(SETUP_REPEATS)]
                   if not args.trace else [])
    records, cycle_walls = timed_loop(workload, args.seed, args.seconds, datasets)
    checked = list(records)

    if args.trace:
        tracer = Tracer()
        untraced, traced = traced_replay(workload, args.seed, tracer)
        reproduced = [o for _, o, _ in traced] == [o for _, o, _ in untraced]
        checked += untraced + traced
        overhead = sum(d for _, _, d in traced) / sum(d for _, _, d in untraced)
        tracer.write(TRACE_DIR / f"trace-{workload.name}.npz")

    failed, failures, correct = audit(checked, references)
    durations = [d for _, _, d in records]
    tail_at = tail(durations)
    print(json.dumps({
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "environment": environment(),
        "timed_ops": len(records), "op_s": durations,
        "data_seeds": sorted({op.data_seed for op, _, _ in records}),
        "tail": None if tail_at is None else {"percentile": tail_at[0], "s": tail_at[1]},
        "setup_s_samples": setup_times,
        "traced_reproduced_untraced": reproduced if args.trace else None,
        "failed_by_type": dict(Counter(f["error"] or "mismatch" for f in failures)),
        "failures": failures,
    }))
    if args.trace:
        metrics = tracer.layer_metrics()
        metrics["trace.overhead_ratio"] = metric(overhead, "ratio")
        metrics["failed_op_ratio"] = metric(failed / len(checked), "ratio")
    else:
        metrics = end_to_end(workload, records, sum(cycle_walls), setup_times)
    print(json.dumps({"correct": correct, "attempted": len(checked), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
