"""The benchmark's own smoke test: every workload, untraced and traced,
at tiny sizes, checked for the shape of what it reports.

Run from the root of a checkout::

    python3 perfbench/smoke.py

It checks that each run exits 0 with a correct result, that every
metric name matches ``[A-Za-z0-9_.-]+`` and the set in
``BENCHMARK.json``, that every self time is >= 0 and the self times sum
to no more than the traced wall, and that ``trace.overhead_ratio`` is
reported.  Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def check(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"smoke: {what}")


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"] for m in bench["end_to_end"]},
        1: {m["name"] for m in bench["per_layer"]},
    }
    # Every workload the benchmark defines, the ungated ones too.
    for workload in WORKLOADS:
        for trace in (0, 1):
            label = f"{workload} trace {trace}"
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload",
                 workload, "--seed", "3", "--seconds", "1", "--trace",
                 str(trace), "--size", "tiny"],
                cwd=ROOT, capture_output=True, text=True, timeout=180,
            )
            check(done.returncode == 0,
                  f"{label} exited {done.returncode}: {done.stderr[-2000:]}")
            result = json.loads(done.stdout.splitlines()[-1])
            check(set(result) == {"correct", "attempted", "failed",
                                  "metrics"}, f"{label}: result keys")
            check(result["correct"] and result["failed"] == 0
                  and result["attempted"] >= 1, f"{label}: {result}")
            metrics = result["metrics"]
            check(set(metrics) == expected[trace],
                  f"{label}: metrics differ from BENCHMARK.json: "
                  f"{sorted(set(metrics) ^ expected[trace])}")
            for name in metrics:
                check(NAME.fullmatch(name) is not None,
                      f"{label}: bad metric name {name!r}")
            if not trace:
                continue
            record = json.loads(
                (HERE / "out" / f"{workload}-seed3-trace1.json").read_text())
            stats = record["span_stats"]
            check(bool(stats), f"{label}: no spans recorded")
            for name, cell in stats.items():
                check(NAME.fullmatch(name) is not None,
                      f"{label}: bad span name {name!r}")
                check(cell["self_s"] >= 0, f"{label}: {name} self < 0")
            self_sum = sum(cell["self_s"] for cell in stats.values())
            wall = metrics["trace.wall_s"]["value"]
            check(self_sum <= wall,
                  f"{label}: self times {self_sum} exceed wall {wall}")
            check("trace.overhead_ratio" in metrics,
                  f"{label}: no trace.overhead_ratio")
            print(f"ok  {label}: overhead "
                  f"{metrics['trace.overhead_ratio']['value']:+.3f}, "
                  f"self {self_sum:.3f} s of wall {wall:.3f} s")
        print(f"ok  {workload}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
