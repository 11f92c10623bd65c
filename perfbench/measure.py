"""Run one workload in this process and print its result.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src``.  Prints a human-readable report, writes the full record (host,
sizes, named metrics, simulated statistics, failures) under
``perfbench/out/``, and ends with one JSON line for ``run.py``.  For the
workloads in ``workloads.FRESH_SETUP``, ``setup_s`` is left to
``run.py``, which times that set-up in fresh interpreters.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import resource
import sys
from pathlib import Path

import numpy as np

from layers import END_TO_END, PER_LAYER
from workloads import FRESH_SETUP, SIZES, WORKLOADS

OUT_DIR = Path(__file__).resolve().parent / "out"


def peak_rss_mb() -> float:
    """This process's peak RSS plus that of its largest reaped child.

    The only children are the program's own workers: set-up probes run
    from ``run.py``, outside this process."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0  # ru_maxrss is in KiB on Linux


def host_record() -> dict:
    return {
        "nproc": os.cpu_count(),
        "sched_getaffinity": sorted(os.sched_getaffinity(0)),
        "start_method": multiprocessing.get_start_method(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
    }


def parse(argv):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def main(argv=None) -> int:
    args = parse(argv)
    sizes = SIZES[args.size]
    outcome = WORKLOADS[args.workload](args.seed, args.seconds, sizes,
                                       bool(args.trace))
    if args.trace:
        metrics = {name: float(outcome.layers.get(name, 0.0))
                   for name in PER_LAYER}
    else:
        metrics = {
            "unit_cost_ms": outcome.unit_cost_ms,
            "setup_s": outcome.setup_s,
            "peak_rss_mb": peak_rss_mb(),
        }
        if args.workload in FRESH_SETUP:
            del metrics["setup_s"]
    units = PER_LAYER if args.trace else END_TO_END
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": units[name][0]}
                    for name, value in metrics.items()},
    }

    span_stats = {}
    for tracer in outcome.tracers:
        for name, stat in tracer.stats.items():
            cell = span_stats.setdefault(
                name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            cell["calls"] += stat.calls
            cell["busy_s"] += stat.busy_ns / 1e9
            cell["self_s"] += stat.self_ns / 1e9
    trace_record = {
        "self_s_sum": sum(cell["self_s"] for cell in span_stats.values()),
        "spans": sum(len(tracer.spans) for tracer in outcome.tracers),
    }

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    OUT_DIR.mkdir(exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "size": args.size,
        "host": host_record(), "sizes": sizes,
        "headline": {k: {"value": v, "unit": u}
                     for k, (v, u) in outcome.headline.items()},
        "failed_ratio": outcome.failed / max(1, outcome.attempted),
        "simulated": outcome.simulated, "failures": outcome.failures,
        "span_stats": span_stats, "trace": trace_record,
        "samples": outcome.samples,
        "result": result,
    }
    (OUT_DIR / f"{tag}.json").write_text(json.dumps(record, indent=1))
    for i, tracer in enumerate(outcome.tracers):
        tracer.write(OUT_DIR / f"{tag}-spans{i}.jsonl")

    print(f"workload {args.workload}  seed {args.seed}  "
          f"trace {args.trace}  size {args.size}")
    print(f"host     {json.dumps(record['host'])}")
    print(f"sizes    {json.dumps(sizes)}")
    for name, cell in record["headline"].items():
        print(f"  {name:<40} {cell['value']:>14.6g} {cell['unit']}")
    for name, cell in result["metrics"].items():
        print(f"  {name:<40} {cell['value']:>14.6g} {cell['unit']}")
    print(f"  {'failed_ratio':<40} {record['failed_ratio']:>14.6g} ratio "
          f"({outcome.failed}/{outcome.attempted})")
    if span_stats:
        wall = outcome.layers["trace.wall_s"]
        print(f"where the traced wall ({wall:.3f} s) went, by self time "
              f"({trace_record['spans']} spans, self times sum to "
              f"{trace_record['self_s_sum']:.3f} s):")
        ranked = sorted(span_stats.items(), key=lambda kv: -kv[1]["self_s"])
        for name, cell in ranked[:12]:
            print(f"  {name:<40} {cell['self_s']:>10.4f} s "
                  f"{100 * cell['self_s'] / wall:5.1f}%  "
                  f"{cell['calls']} calls")
    for name, value in outcome.simulated.items():
        print(f"  simulated {name}: {json.dumps(value)}")
    for failure in outcome.failures:
        print(f"  FAILED {failure}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
