"""The repo benchmark: one closed-loop workload per invocation.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fleet-rescan --seed 1 \\
        --seconds 20 --trace 0

Workloads: ``fleet-rescan``, ``link-sessions``, ``reproduce``,
``identify-10k`` (see ``perfbench/README.md``).  ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a separate
traced run.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

For ``link-sessions`` and ``reproduce``, whose set-up is what a new
process pays (imports included), this launcher times that set-up in
fresh interpreters of its own, half before the measuring child and half
after it, and reports ``setup_s`` itself: the child's reaped children,
counted in its ``peak_rss_mb``, are then only the program's workers.

The workload runs in a child interpreter whose standard error is
captured, so resource-tracker tracebacks printed by the program's
shared-memory transport can be counted (``transport.tracker_errors``);
they are passed on to this process's standard error unchanged.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Whole-run limit, set-up probes included; the benchmark must exit
#: within 180 s.
RUN_TIMEOUT_S = 170
#: One fresh interpreter doing one set-up (``workloads.fresh_setup``).
PROBE = ("import sys; sys.path.insert(0, sys.argv[1]); import workloads; "
         "workloads.fresh_setup(sys.argv[2], int(sys.argv[3]), sys.argv[4])")


def tracker_errors(stderr: str) -> int:
    """Tracebacks raised inside multiprocessing's resource tracker."""
    blocks = stderr.split("Traceback (most recent call last):")[1:]
    return sum(1 for block in blocks if "resource_tracker" in block)


def run_child(command, env, deadline: float):
    """Run ``command`` in its own process group until ``deadline``:
    (return code, stdout, stderr), or None if it ran out of time."""
    child = subprocess.Popen(
        command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        stdout, stderr = child.communicate(
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        return None
    finally:
        if child.poll() is None:
            os.killpg(child.pid, signal.SIGKILL)
            child.communicate()
    return child.returncode, stdout, stderr


def setup_walls(args, env, deadline: float, count: int):
    """Walls of ``count`` fresh interpreters each doing the set-up, or
    None if one failed."""
    walls = []
    for _ in range(count):
        start = time.perf_counter()
        done = run_child([sys.executable, "-c", PROBE, str(HERE),
                          args.workload, str(args.seed), args.size],
                         env, deadline)
        walls.append(time.perf_counter() - start)
        if done is None or done[0] != 0:
            sys.stderr.write(done[2] if done else "set-up timed out\n")
            return None
    return walls


def main(argv) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program sources under {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--size", default="full")
    parser.add_argument("--trace", default="0")
    args, _ = parser.parse_known_args(argv)
    deadline = time.monotonic() + RUN_TIMEOUT_S
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    # A terminated launcher still takes its children's process groups down.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    from workloads import FRESH_SETUP, SIZES

    setups = 0
    # Set-up is an end-to-end metric: the traced run does not time it.
    if (args.workload in FRESH_SETUP and args.size in SIZES
            and args.trace == "0"):
        setups = SIZES[args.size]["setups"][args.workload]
    # Half the set-ups before the measuring child and half after, so
    # that their median covers the run's whole window.
    walls = setup_walls(args, env, deadline, (setups + 1) // 2)
    done = None
    if walls is not None:
        done = run_child([sys.executable, str(HERE / "measure.py"), *argv],
                         env, deadline)
    if done is not None and done[0] == 0:
        after = setup_walls(args, env, deadline, setups // 2)
        walls = None if after is None else walls + after
    if walls is None:
        print("set-up failed", file=sys.stderr)
        return 1
    if done is None:
        print(f"run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    returncode, stdout, stderr = done
    sys.stderr.write(stderr)
    lines = stdout.splitlines()
    if returncode != 0 or not lines:
        sys.stdout.write(stdout)
        print(f"workload exited with {returncode}", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)
    metrics = result["metrics"]
    if "transport.tracker_errors" in metrics:
        count = tracker_errors(stderr)
        metrics["transport.tracker_errors"]["value"] = count
        print(f"  {'transport.tracker_errors':<40} {count:>14} count "
              "(resource-tracker tracebacks on stderr)")
    if setups:
        metrics["setup_s"] = {"value": statistics.median(walls), "unit": "s"}
        print(f"  {'setup_s':<40} {metrics['setup_s']['value']:>14.6g} s "
              f"(median of {setups} fresh interpreters)")
    record_path = (HERE / "out"
                   / f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    record = json.loads(record_path.read_text())
    if setups:
        record["samples"]["setup_s"] = walls
    record["result"] = result
    record_path.write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
