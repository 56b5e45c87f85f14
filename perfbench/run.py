"""Benchmark command for mlasce.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; it imports mlasce from ``src/``. A run
measures set-up in fresh interpreters, warms up in-process, then repeats
whole passes of the workload (see workloads.py) in a single-client closed
loop until ``--seconds`` would be exceeded, checks every output, and
prints one JSON result as its last line of standard output.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced passes, reports the per-layer metrics of the traced
ones plus the tracing overhead, and writes the spans to
``perfbench/out/trace-<workload>-seed<N>.jsonl``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 5
# op_ms_tail is the latency with this many slower operations beyond it.
TAIL_BEYOND = 10


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="minimal workload sizes, for the benchmark's own tests")
    p.add_argument("--setup-only", action="store_true",
                   help="set up and exit; the parent process times this")
    return p.parse_args(argv)


def import_library():
    """Put the checkout's ``src/`` first on the path; refuse to run without it."""
    if not (SRC / "mlasce" / "__init__.py").is_file():
        sys.exit(f"perfbench: no mlasce sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))


def blas_info():
    """Every OpenBLAS mapped into this process, with its thread count."""
    with open("/proc/self/maps") as fh:
        paths = sorted({line.split()[-1] for line in fh if "openblas" in line.split()[-1]})
    libs = []
    for path in paths:
        lib = ctypes.CDLL(path)
        entry = {"library": os.path.basename(path)}
        for key, names, restype in (
            ("threads", ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                         "openblas_get_num_threads64_", "openblas_get_num_threads"), ctypes.c_int),
            ("config", ("scipy_openblas_get_config64_", "scipy_openblas_get_config",
                        "openblas_get_config64_", "openblas_get_config"), ctypes.c_char_p),
        ):
            for name in names:
                fn = getattr(lib, name, None)
                if fn is not None:
                    fn.restype = restype
                    value = fn()
                    entry[key] = value.decode() if isinstance(value, bytes) else value
                    break
        libs.append(entry)
    return libs


def run_environment(seed):
    import numpy
    import scipy

    src_lines = 0
    for path in sorted((SRC / "mlasce").rglob("*.py")):
        with open(path) as fh:
            src_lines += sum(1 for _ in fh)
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "seed": seed,
        "src_mlasce_lines": src_lines,
    }


def measure_setup(args):
    """Wall time of fresh interpreters that import mlasce, build the inputs and warm up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"] + (["--tiny"] if args.tiny else [])
    times = []
    for _ in range(1 if args.tiny else SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed with {proc.returncode}: {proc.stderr.strip()}")
    return times


def run_pass(workload, tracer, deadline=None):
    """One pass: the ops back to back, stopping early at ``deadline``.

    Ops not reached are None in ``lat``, ``cpu`` and the outputs the checks see.
    """
    if tracer is not None:
        tracer.install()
        tracer.begin_pass()
    n = len(workload.ops)
    outputs, lat, cpu, failed = [None] * n, [None] * n, [None] * n, {}
    t0 = time.perf_counter()
    try:
        for i, op in enumerate(workload.ops):
            if deadline is not None and time.perf_counter() >= deadline:
                break
            if tracer is not None:
                tracer.op = i
            c, s = time.process_time(), time.perf_counter()
            try:
                outputs[i] = op.call()
            except Exception as exc:  # a failed op is counted, and the loop goes on
                failed[i] = f"{type(exc).__name__}: {exc}"
            lat[i], cpu[i] = time.perf_counter() - s, time.process_time() - c
        wall = time.perf_counter() - t0
    finally:
        if tracer is not None:
            spans, counts = tracer.end_pass()
            tracer.uninstall()
    failed.update(workload.check(outputs))
    result = {"wall": wall, "lat": lat, "cpu": cpu, "failed": failed,
              "attempted": sum(t is not None for t in lat),
              "l2": workload.l2_values(outputs), "traced": tracer is not None}
    if tracer is not None:
        result["spans"], result["counts"] = spans, counts
    return result


def best_per_op(passes, key):
    """Each op's smallest time over the passes that reached it."""
    return [min(p[key][i] for p in passes if p[key][i] is not None)
            for i in range(len(passes[0][key]))]


def tail(values):
    """(value, percentile) with TAIL_BEYOND values beyond it; the maximum if too few."""
    s = sorted(values)
    n = len(s)
    if n <= TAIL_BEYOND:
        return s[-1], 100.0
    return s[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n


def write_trace(path, header, passes, labels):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write(json.dumps(dict(header, ops=labels)) + "\n")
        for k, p in enumerate(passes):
            if not p["traced"]:
                continue
            t0 = p["spans"][0][1] if p["spans"] else 0.0
            for sid, (name, start, end, parent, op, attr) in enumerate(p["spans"]):
                fh.write(json.dumps([k, op, sid, parent, name,
                                     round((start - t0) * 1e6, 1), round((end - t0) * 1e6, 1),
                                     attr]) + "\n")


def run(args):
    import numpy as np

    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {sorted(workloads.WORKLOADS)}")
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    capture = workloads.CaptureRuns()
    tracer = tracing.Tracer() if args.trace else None
    capture.install()
    try:
        workload = workloads.WORKLOADS[args.workload](
            args.seed, str(workdir), tiny=args.tiny, capture=capture,
            wrap_sim=tracer.sim if tracer else None)
        workload.warm_up()
        if args.setup_only:
            return None
        passes = []
        deadline = time.perf_counter() + args.seconds
        if tracer is None:
            # The first pass is whole; later ones repeat the ops until the deadline.
            while not passes or time.perf_counter() < deadline:
                passes.append(run_pass(workload, None, deadline if passes else None))
        else:
            # Whole passes only, alternating untraced and traced, at least one of each.
            while len(passes) < 2 or time.perf_counter() + passes[-1]["wall"] <= deadline:
                traced = len(passes) % 2 == 1
                passes.append(run_pass(workload, tracer if traced else None))
        labels = [op.label for op in workload.ops]
    finally:
        capture.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(len(p["failed"]) for p in passes)
    for k, p in enumerate(passes):
        for i, reason in sorted(p["failed"].items()):
            print(f"FAILED pass {k} op {i} {labels[i]}: {reason}")
    summary = {"correct": failed == 0, "attempted": attempted, "failed": failed}
    if tracer is None:
        per_op = [1e3 * t for t in best_per_op(passes, "lat")]
        tail_ms, tail_pct = tail(per_op)
        for ms, label in sorted(zip(per_op, labels)):
            print(f"op {label}: best {ms:.1f} ms")
        l2 = passes[0]["l2"]
        metrics = {
            "setup_s": (statistics.median(args.setup_times), "s"),
            "wall_s": (sum(per_op) / 1e3, "s"),
            "op_ms_p50": (statistics.median(per_op), "ms"),
            "op_ms_tail": (tail_ms, "ms"),
            "cpu_s": (sum(best_per_op(passes, "cpu")), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "l2_median": (float(np.median(l2)) if l2 else float("nan"), "l2_err"),
        }
        print(f"op_ms_tail is p{tail_pct:.1f} of {len(per_op)} ops (each op's best of "
              f"{attempted / len(per_op):.1f} runs on average), "
              f"{min(TAIL_BEYOND, len(per_op) - 1)} ops beyond it")
        print(f"setup_s samples: {[round(t, 4) for t in args.setup_times]}")
    else:
        traced = [p for p in passes if p["traced"]]
        per_pass = [tracing.layer_metrics(p["spans"], p["counts"], p["wall"]) for p in traced]
        traced_wall = statistics.median(p["wall"] for p in traced)
        plain_wall = statistics.median(p["wall"] for p in passes if not p["traced"])
        metrics = {k: (statistics.median(m[k] for m in per_pass), tracing.unit_of(k))
                   for k in per_pass[0]}
        metrics["trace.wall_s"] = (traced_wall, "s")
        metrics["trace.untraced_wall_s"] = (plain_wall, "s")
        metrics["trace.overhead_pct"] = (100.0 * (traced_wall / plain_wall - 1.0), "%")
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
        write_trace(trace_path, {"workload": args.workload, "seed": args.seed,
                                 "env": args.env}, passes, labels)
        print(f"spans written to {trace_path.relative_to(ROOT)}")
    summary["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    return summary


def main(argv=None):
    args = parse_args(argv)
    import_library()
    sys.path.insert(0, str(HERE))
    if args.setup_only:
        run(args)
        return 0
    import workloads  # noqa: F401  (loads the BLAS libraries that env reports)

    args.env = run_environment(args.seed)
    args.setup_times = [] if args.trace else measure_setup(args)
    summary = run(args)
    print("env: " + json.dumps(args.env, sort_keys=True))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
