"""Run one workload of the end-to-end benchmark and print its metrics.

Run from the root of a checkout::

    python3 perfbench/run.py --workload rob-trace --seed 1 --seconds 2 --trace 0

With ``--trace 0`` it prints every end-to-end metric declared in
``BENCHMARK.json``; with ``--trace 1`` it runs traced and prints every
per-layer metric, writing the spans to ``.bench_out/``.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 only when every output
matched its check; it is 2 when the program under test is not there.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import math
import os
import platform
import resource
import statistics
import sys
from typing import Dict, List, Optional, Sequence

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: A percentile is reported only with at least this many samples above it.
TAIL_SAMPLES = 10


def percentile(values: Sequence[float], q: float) -> Optional[float]:
    """The ``q``-quantile (0 < q < 1) of ``values``, or ``None`` if too few.

    A percentile needs :data:`TAIL_SAMPLES` samples beyond it, so p95 needs at
    least 200 values and p99 1,000.  Nearest rank, so the result is a measured
    value.
    """
    if len(values) * (1.0 - q) < TAIL_SAMPLES - 1e-9:
        return None
    ordered = sorted(values)
    rank = max(0, math.ceil(q * len(ordered)) - 1)
    return ordered[rank]


def end_to_end(result) -> Dict[str, Optional[float]]:
    """The end-to-end metrics of an untraced run (``None`` = not measurable)."""
    p50 = percentile(result.latencies, 0.5)
    # p95, not p99: twelve rob-trace questions (1% of the set) take 75-750 ms
    # against a ~35 ms body, so p99 would be the time of one of them
    p95 = percentile(result.latencies, 0.95)
    return {
        "setup_s": statistics.median(result.setup_seconds),
        "latency_ms_p50": None if p50 is None else 1000.0 * p50,
        "latency_ms_p95": None if p95 is None else 1000.0 * p95,
        "throughput_ops_s": result.ops / result.timed_seconds,
        "accuracy_overall": result.accuracy,
        "chart_rate": result.chart_rate,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def blas_threads() -> Optional[int]:
    """Threads of the OpenBLAS that NumPy loaded, when it can be asked."""
    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        library = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(library, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def git_commit(root: str) -> str:
    """The checked-out commit, read from ``.git`` (``unknown`` outside a clone)."""
    try:
        with open(os.path.join(root, ".git", "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(root, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(root, ".git", "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def fingerprint() -> Dict[str, object]:
    import numpy

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": blas_threads(),
        "commit": git_commit(ROOT),
    }


def declared_metrics(kind: str) -> Dict[str, Dict[str, str]]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return {entry["name"]: entry for entry in json.load(handle)[kind]}


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="rob-trace, rob-eval or chart-small")
    parser.add_argument("--seed", type=int, default=0, help="order in which inputs are sent")
    parser.add_argument("--seconds", type=float, default=2.0, help="least timed seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corpus-seed", type=int, default=7, help="nvBench corpus seed")
    parser.add_argument("--scale", type=float, default=1.0, help="corpus scale (1.0 = paper)")
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"error: the program is not there: no package under {src}", file=sys.stderr)
        return 2
    if src not in sys.path:
        sys.path.insert(0, src)
    import workloads

    if args.workload not in workloads.RUNNERS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    declared = declared_metrics("per_layer" if trace else "end_to_end")
    result = workloads.RUNNERS[args.workload](
        args.seed, args.seconds, trace, args.scale, args.corpus_seed
    )
    values = result.layers if trace else end_to_end(result)
    missing = sorted(name for name, value in values.items() if value is None)
    if missing:
        print(f"error: {args.workload} measured {result.ops} ops, too few for "
              f"{', '.join(missing)}", file=sys.stderr)
        return 3
    if set(values) != set(declared):
        print(f"error: metrics {sorted(set(values) ^ set(declared))} are printed but "
              "not declared in BENCHMARK.json, or declared but not printed", file=sys.stderr)
        return 3
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"ops {result.ops}  timed {result.timed_seconds:.3f}s  "
          f"setups {', '.join(f'{s:.3f}s' for s in result.setup_seconds)}")
    if result.digest:
        print(f"final DVQ digest {result.digest}")
    print(f"failed_frac {result.failed / max(result.attempted, 1):.6f} "
          f"({result.failed} of {result.attempted})")
    for problem in result.problems:
        print(f"mismatch: {problem}")
    for name in sorted(values):
        print(f"  {name:38s} {values[name]:14.6f} {declared[name]['unit']}")
    machine = fingerprint()
    print("fingerprint " + json.dumps(machine))
    if trace:
        out = os.path.join(os.getcwd(), ".bench_out")
        os.makedirs(out, exist_ok=True)
        path = os.path.join(out, f"{args.workload}-seed{args.seed}.spans.jsonl")
        result.tracer.write(path, {"workload": args.workload, "seed": args.seed,
                                   "fingerprint": machine})
        print(f"spans written to {os.path.relpath(path)}")
    metrics = {name: {"value": values[name], "unit": declared[name]["unit"]} for name in values}
    print(json.dumps({
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }))
    return 0 if result.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
