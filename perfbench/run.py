"""tgss benchmark: time to the discrepancy stop per method, per workload.

    python3 perfbench/run.py --workload invpot2d-n48 --seed 0 --seconds 60 --trace 0

Run from the root of a source checkout; the package is imported from `src/`.
`--trace 0` measures the end-to-end metrics, with times in seconds at a fixed
reference host speed (see `hostprobe.py`), `--trace 1` the per-layer metrics
of a traced suite, in wall time (see BENCHMARK.json for both lists).  The last line
of standard output is one JSON object with `correct`, `attempted`, `failed`
and `metrics`; the line before it is a report with the environment, sample
counts, failed checks and ranking results, which is also written with the
spans to `perfbench/out/`.
"""

import argparse
import ctypes
import ctypes.util
import hashlib
import json
import math
import os
import platform
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def import_tgss():
    """Import the package from this checkout's `src/`, never from elsewhere."""
    if not (SRC / "tgss" / "__init__.py").is_file():
        raise ImportError(f"no tgss package under {SRC}")
    sys.path.insert(0, str(SRC))
    import tgss
    if Path(tgss.__file__).resolve().parent != SRC / "tgss":
        raise ImportError(f"tgss imported from {tgss.__file__}, not from {SRC}")


def git_revision() -> str | None:
    """HEAD of the checkout's git repository, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "tgss").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def span_overhead_us(n: int = 20000) -> float:
    """Added cost of one traced call, from a wrapped and a bare no-op."""
    import tracing

    def noop():
        return None

    wrapped = tracing.Tracer().wrap("noop", noop)
    times = []
    for fn in (noop, wrapped):
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        times.append(time.perf_counter() - t0)
    return 1e6 * (times[1] - times[0]) / n


def environment() -> dict:
    import numpy
    import scipy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu_model": cpu_model(),
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_revision": git_revision(),
        "source_sha256_16": source_digest(),
        "tracing_overhead_us_per_span": span_overhead_us(),
    }


def parse_args(argv, workloads):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=60.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        p.error("need --seed >= 0 and --seconds > 0")
    return args


def fix_malloc_threshold() -> None:
    """Keep glibc's mmap threshold at its initial 128 kB.

    By default glibc raises it after large blocks are freed, after which
    vectors and factors of a few hundred kB come from the heap instead, and
    peak memory depends on the order of earlier frees: 89-130 MB on the same
    2-D workload.
    """
    try:
        ctypes.CDLL(ctypes.util.find_library("c")).mallopt(-3, 128 * 1024)  # M_MMAP_THRESHOLD
    except (OSError, AttributeError, TypeError):
        pass


def main(argv=None) -> int:
    # Single-threaded BLAS/OpenMP, set before numpy is first imported.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    fix_malloc_threshold()
    try:
        import_tgss()
    except ImportError as exc:
        print(f"perfbench: cannot import tgss: {exc}", file=sys.stderr)
        return 2
    import harness

    args = parse_args(argv, harness.WORKLOADS)
    wl = harness.WORKLOADS[args.workload]
    env = environment()
    if args.trace:
        result = harness.traced_run(wl, args.seed)
    else:
        result = harness.untraced_run(wl, args.seed, args.seconds)
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in result.metrics.items()}
    bad = [k for k, m in metrics.items() if not math.isfinite(m["value"])]
    report = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, **result.report,
              "non_finite_metrics": bad, "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=1))
    if result.tracer is not None:
        result.tracer.write_spans(OUT / f"{stem}-spans.csv.gz")
    print(json.dumps(report))
    print(json.dumps({"correct": result.failed == 0 and not bad,
                      "attempted": len(result.solves), "failed": result.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
