"""Benchmark runner for collusion_audit.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout: the package is imported from
``src/`` next to this directory. Episodes of the workload repeat until
``--seconds`` have passed. ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` runs each episode untraced and, with span wrappers around
the package's public functions, traced; it prints the per-layer metrics
(per traced episode) and the tracing overhead (median traced minus
untraced episode wall time). A first
warm-up episode, which also audits a mutated window, is checked but not
measured. The last line of standard output is one JSON object: correct,
attempted, failed, metrics. Metric names and units come from
BENCHMARK.json; a fuller report goes to .bench_out/.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import sys
import time
from pathlib import Path

# One BLAS thread (main sets it before numpy loads), so matmul threading
# does not depend on how the scheduler shares the cores with other work.
BLAS_THREADS = "1"
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"


def _blas_threads():
    """Thread count reported by numpy's bundled OpenBLAS, if it can be found."""
    import numpy as np

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "libscipy_openblas*.so"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    import cryptography
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cryptography": cryptography.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads_env": BLAS_THREADS,
        "blas_threads": _blas_threads(),
        "machine": platform.machine(),
    }


def _percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=float), q))


BLOCKS = 10


def blocked_p90(samples) -> float:
    """Median, over up to ten consecutive blocks of the samples (time
    order, at least two samples a block), of each block's p90.

    On a shared 2-vCPU VM, neighbours' load changes the CPU's speed in two
    ways: for seconds to minutes it runs up to ~1.8x slower, which moves
    a run's median, and in short bursts it runs 2-3x slower, which moves
    a run's p95. A block's p90 sits at the slower level whenever that
    level reaches the block, and the median over blocks ignores bursts
    that hit fewer than half of them.
    """
    import numpy as np

    blocks = np.array_split(np.asarray(samples, dtype=float),
                            max(1, min(BLOCKS, len(samples) // 2)))
    return float(np.median([np.percentile(b, 90) for b in blocks]))


def end_to_end(episodes) -> dict:
    """End-to-end values: the gated ones first (``blocked_p90`` of each
    timing), then medians, p95 and mean throughput for reading."""
    import workloads

    setup = [t for ep in episodes for t in ep.setup_s]
    op_s = [t for ep in episodes for t in ep.op_s]
    batch = [ep.batch_s for ep in episodes]
    return {
        "setup_s": blocked_p90(setup),
        "op_ms": 1e3 * blocked_p90(op_s),
        "batch_s": blocked_p90(batch),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_median_s": workloads.median(setup),
        "op_p50_ms": 1e3 * _percentile(op_s, 50),
        "op_p95_ms": 1e3 * _percentile(op_s, 95),
        "ops_per_s": sum(ep.ops for ep in episodes) / sum(op_s),
        "batch_median_s": workloads.median(batch),
        "batch_p95_s": _percentile(batch, 95),
    }


def per_layer(tracer, episodes, overhead_s: float) -> dict:
    """Per-episode means of the traced counters and span times."""
    import spans

    n = len(episodes)
    counts = tracer.counts
    values = dict(counts)
    for name, row in tracer.summary().items():
        values[f"{name}.s"] = row["s"]
        values[f"{name}.self_s"] = row["self_s"]
    for name in spans.COUNT_ONLY:
        values[name + ".calls"] = tracer.call_count(name)
    values["ledger.hashes"] = (counts["encoding.sha256.calls_from.ledger"]
                               + counts["encoding.hash_fields.calls_from.ledger"])
    verified = tracer.child_count("audit.verify_record", "audit.run_audit")
    records = sum(ep.ledger_records for ep in episodes)
    values["audit.records_verified"] = verified
    values["audit.ledger_records"] = records
    values["trace.spans"] = len(tracer.spans)
    values = {name: value / n for name, value in values.items()}
    values["audit.records_verified_ratio"] = verified / records if records else 0.0
    cells = counts["attacks.run_sweep.cells"]
    values["attacks.run_sweep.s_per_cell"] = (
        values.get("attacks.run_sweep.s", 0.0) * n / cells if cells else 0.0)
    values["trace.overhead_s"] = overhead_s
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS

    if not (SRC / "collusion_audit" / "__init__.py").is_file():
        print(f"error: no collusion_audit package under {SRC}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    sys.path.insert(0, str(SRC))
    import collusion_audit
    import spans
    import workloads

    if Path(collusion_audit.__file__).resolve().parent != SRC / "collusion_audit":
        print(f"error: imported collusion_audit from {collusion_audit.__file__}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    episode_fn, shape = workloads.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    scratch = str(OUT / f"{stem}-{os.getpid()}")

    def run_episode(i, tracer=None):
        return episode_fn(shape, args.seed, i, tracer=tracer, mutate=i == 0, out_dir=scratch)

    def run_traced(i):
        restore = spans.install(tracer)
        try:
            return run_episode(i, tracer)
        finally:
            restore()

    # Episode 0 warms caches and lazy imports and carries the mutation
    # check; it is checked but not measured. A traced run runs each
    # episode twice, untraced and traced in alternating order, and takes
    # the tracing overhead as the median difference of the pairs.
    episodes, extra, overheads = [], [], []
    tracer = spans.Tracer(args.workload) if args.trace else None
    try:
        extra.append(run_episode(0))
        t_start = time.perf_counter()
        while not episodes or time.perf_counter() - t_start < args.seconds:
            i = len(episodes) + 1
            if not args.trace:
                episodes.append(run_episode(i))
                continue
            if i % 2:
                plain = run_episode(i)
                traced = run_traced(i)
            else:
                traced = run_traced(i)
                plain = run_episode(i)
            extra.append(plain)
            episodes.append(traced)
            overheads.append(traced.wall_s - plain.wall_s)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    attempted = sum(ep.attempted for ep in episodes + extra)
    failed = sum(ep.failed for ep in episodes + extra)
    errors = [e for ep in episodes + extra for e in ep.errors]
    if args.trace:
        values = per_layer(tracer, episodes, workloads.median(overheads))
        tracer.write(OUT / f"{stem}.spans.jsonl")
        listed = spec["per_layer"]
    else:
        values = end_to_end(episodes)
        listed = spec["end_to_end"]
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
               for m in listed}
    readings = {name: value for name, value in values.items() if name not in metrics}

    env = environment()
    samples = {"episodes": len(episodes), "op_samples": sum(len(ep.op_s) for ep in episodes),
               "batch_samples": len(episodes),
               "setup_samples": sum(len(ep.setup_s) for ep in episodes)}
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "environment": env, "samples": samples, "errors": errors,
              "error_rate": failed / max(attempted, 1), "metrics": metrics,
              "readings": readings, "terms": workloads.TERMS[args.workload],
              "episodes": [{"setup_s": ep.setup_s, "batch_s": ep.batch_s, "ops": ep.ops,
                            "op_s": ep.op_s} for ep in episodes]}
    with open(OUT / f"{stem}.json", "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)

    for e in errors[:10]:
        print(f"FAILED: {e}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{samples['episodes']} episodes, {samples['op_samples']} op samples, "
          f"{samples['batch_samples']} batch samples, {samples['setup_samples']} setup samples")
    print("environment " + json.dumps(env, sort_keys=True))
    print("terms " + json.dumps(workloads.TERMS[args.workload], sort_keys=True))
    for name, m in metrics.items():
        print(f"{name:44s} {m['value']:.6g} {m['unit']}")
    if not args.trace:
        for name, value in readings.items():
            print(f"{name:44s} {value:.6g} (reading, not gated)")
    print(f"{'error_rate':44s} {failed}/{attempted}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
