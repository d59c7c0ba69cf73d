"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: train_btrec, translate_greedy, score_test_set (see README.md).
With ``--trace 0`` it makes whole passes, each with inputs of its own and
on a workload set up just before it, until the timed work reaches
``--seconds``, checks every pass's outputs outside the timed region, and
prints the end-to-end metrics (``setup_s`` is the median set-up time).
With ``--trace 1`` it runs each pass twice on the same inputs, untraced and
then with every layer's public functions wrapped in spans, and prints the
per-layer metrics and the tracing overhead; the spans go to
``perfbench/out/``.

Informational lines start with ``#``; the last line of standard output is
the JSON result. The exit code is 0 when a result was printed, 2 when the
checkout holds no program source, 1 on any other failure.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import statistics
import sys
import time
import traceback

import common

SETUPS = 30
# Share of the traced regions' wall time that the span self times may miss:
# what installing and removing the wrappers and opening the root span cost.
TRACE_WALL_TOL = 0.01


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("train_btrec", "translate_greedy", "score_test_set"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def _blas_threads():
    """OpenBLAS thread count of the numpy in use, or None if not found."""
    import ctypes
    import glob
    import os

    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _environment():
    import numpy

    from mtlab import kernels

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": _blas_threads(),
        "kernels.USE_NUMBA": kernels.USE_NUMBA,
    }


def _percentile(values, q):
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def run_untraced(cls, seed, seconds):
    setup_s, passes, problems = [], [], []
    measured = 0.0
    while measured < seconds:
        # Each pass runs on a workload set up just before it, and further
        # set-ups keep about SETUPS readings spread evenly over the run, so
        # their median follows the host's speed over the run, as throughput
        # does, rather than over the fraction of a second a burst of
        # set-ups would take.
        while True:
            workload = cls(seed)
            start = time.perf_counter()
            workload.setup()
            setup_s.append(time.perf_counter() - start)
            if len(setup_s) >= SETUPS * measured / seconds:
                break
        inputs = workload.make_pass(len(passes))
        result = workload.run_pass(inputs)
        problems += workload.check(inputs, result)
        result.outputs = None
        passes.append(result)
        measured += result.seconds
    latencies = [x for p in passes for x in p.latencies_s]
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "throughput": (statistics.median(p.work / p.seconds for p in passes), "1/s"),
        "latency_p50_ms": (1000.0 * _percentile(latencies, 50), "ms"),
        "latency_p90_ms": (1000.0 * _percentile(latencies, 90), "ms"),
    }
    info = {"passes": len(passes), "latency_samples": len(latencies),
            "measured_s": round(measured, 3)}
    return passes, problems, metrics, info


def run_traced(cls, seed, seconds):
    import tracer as tracing

    tr = tracing.Tracer()
    workload = cls(seed)
    # Wall time of the traced regions, timed here apart from the spans;
    # it also holds installing and removing the wrappers.
    outer_s = 0.0
    start = time.perf_counter()
    with tr.installed(), tr.span("bench.setup"):
        workload.setup()
    outer_s += time.perf_counter() - start
    passes, problems = [], []
    plain_s = traced_s = 0.0
    while plain_s + traced_s < seconds:
        inputs = workload.make_pass(len(passes) // 2)
        plain = workload.run_pass(inputs)
        problems += workload.check(inputs, plain)
        start = time.perf_counter()
        with tr.installed(), tr.span("bench.pass"):
            traced = workload.run_pass(inputs)
        outer_s += time.perf_counter() - start
        problems += workload.check(inputs, traced)
        for p in (plain, traced):
            p.outputs = None
            passes.append(p)
        plain_s += plain.seconds
        traced_s += traced.seconds
    total_self_s = tr.total_self_s()
    if not outer_s * (1.0 - TRACE_WALL_TOL) <= total_self_s <= outer_s:
        problems.append(
            f"span self times add to {total_self_s!r} s, traced wall time is {outer_s!r} s"
        )
    metrics = tr.per_layer_metrics(outer_s, 100.0 * (traced_s / plain_s - 1.0))
    spans_path = common.OUT_DIR / f"trace-{cls.name}-seed{seed}.jsonl"
    tr.write_spans(spans_path)
    info = {"passes": len(passes) // 2, "spans_recorded": len(tr.spans),
            "spans_file": str(spans_path.relative_to(common.ROOT))}
    return passes, problems, metrics, info


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        common.use_checkout_source()
    except common.SourceMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        import workloads

        cls = workloads.WORKLOADS[args.workload]
        run = run_traced if args.trace else run_untraced
        passes, problems, metrics, info = run(cls, args.seed, args.seconds)
    except Exception:
        traceback.print_exc()
        return 1
    for key, value in {**_environment(), **info}.items():
        print(f"# {key}: {value}")
    for problem in problems[:20]:
        print(f"# check failed: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    result = {
        "correct": not problems,
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
