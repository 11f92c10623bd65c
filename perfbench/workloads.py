"""The four closed-loop workloads, each driven through the public API.

Every workload is one caller that waits for each result.  A workload
function takes the seed, the measuring time, the size table and whether
to trace, and returns a :class:`Outcome`.  Inputs (line seeds, taps,
traffic seeds, experiment order, templates, queries) are generated from
the seed before the program sees them.  Only host time is optimised;
simulated quantities (scan period, detection latency, alert sets) are
recorded and checked, never tuned.
"""

from __future__ import annotations

import hashlib
import math
import os
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from layers import EXPERIMENT_IDS, PROTOCOLS, experiment_id, install
from spans import Tracer

#: Workload sizes.  ``full`` is what the benchmark measures; ``tiny`` is
#: the smoke test's, small enough to run every workload in seconds.
SIZES = {
    "full": {
        "fleet_buses": 1024, "fleet_shards": 2, "enroll_captures": 8,
        "captures_per_check": 16, "tap_every": 16,
        # Set-ups per run, by workload; each costs 1-2 s at this size.
        "setups": {"fleet-rescan": 5, "link-sessions": 5, "reproduce": 5,
                   "identify-10k": 9},
        "fleet_trace_scans": 3,
        "link_units": None, "link_trace_cycles": 2,
        "suite_lines": 6, "suite_measurements": 1024, "suite_enroll": 16,
        "templates": 10_000, "record_length": 512, "impostor_rows": 512,
        "query_pool": 4096,
    },
    "tiny": {
        "fleet_buses": 8, "fleet_shards": 2, "enroll_captures": 8,
        "captures_per_check": 16, "tap_every": 4,
        "setups": {"fleet-rescan": 2, "link-sessions": 1, "reproduce": 1,
                   "identify-10k": 2},
        "fleet_trace_scans": 2,
        "link_units": 40, "link_trace_cycles": 1,
        "suite_lines": 4, "suite_measurements": 500, "suite_enroll": 8,
        "templates": 256, "record_length": 512, "impostor_rows": 64,
        "query_pool": 256,
    },
}

TAP_POSITION_M = 0.12
QUERY_NOISE_RMS = 0.05
TEMPLATE_DT = 11.16e-12
#: One query in ``IMPOSTOR_EVERY`` comes from a never-enrolled row; one
#: genuine query in ``OBSERVE_EVERY`` is an ``observe`` (read + guarded
#: write), the rest ``identify`` reads.
IMPOSTOR_EVERY = 8
OBSERVE_EVERY = 4
#: Every ``BRUTE_EVERY``-th genuine read is re-asked with ``method="brute"``.
BRUTE_EVERY = 64


@dataclass
class Outcome:
    """What one run measured, checked and recorded."""

    #: The run's median cost of one unit of work, the bounded metric.
    unit_cost_ms: float = 0.0
    setup_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    #: The workload's own end-to-end figures by name: (value, unit).
    headline: Dict[str, tuple] = field(default_factory=dict)
    #: Simulated quantities: outputs of the model, recorded and checked.
    simulated: Dict[str, object] = field(default_factory=dict)
    #: Every timed operation's wall, by series, for the run record.
    samples: Dict[str, List[float]] = field(default_factory=dict)
    #: Per-layer metrics (traced run only).
    layers: Dict[str, float] = field(default_factory=dict)
    tracers: List[Tracer] = field(default_factory=list)

    def record(self, ok: bool, what: str) -> None:
        """Count one attempted operation; ``ok`` is False if it failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)


def _median(values) -> float:
    return float(statistics.median(values))


def tail(values) -> tuple:
    """(percentile, value, samples beyond) at the highest percentile
    that still has at least ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    for pct in (99.99, 99.9, 99.0, 90.0, 50.0):
        beyond = int(n * (1.0 - pct / 100.0))
        if beyond >= 10:
            return pct, ordered[n - beyond - 1], beyond
    return 50.0, _median(ordered), n // 2


#: Workloads whose set-up is what a new process pays, imports included:
#: ``run.py`` times :func:`fresh_setup` in fresh interpreters of its
#: own, so that their memory is not counted as the program's.
FRESH_SETUP = ("link-sessions", "reproduce")


def fresh_setup(workload: str, seed: int, size: str) -> None:
    """Everything a new process does before its first ``workload``
    operation: the links built and calibrated, or the suite built (what
    ``python -m repro.experiments.run_all`` pays first)."""
    if workload == "link-sessions":
        _links(seed)
    else:
        from repro.experiments.run_all import build_suite

        build_suite(_suite_scale(SIZES[size]))


def _spread_setups(out: Outcome, seconds: float, setups: int, set_up,
                   operate) -> None:
    """``setups`` set-ups spread over the run, so that their median, like
    the operations', covers the whole measuring window and not just its
    first seconds.  Each set-up (returning its wall, kept in
    ``setup_s``) is followed by ``operate()`` calls until its share of
    ``seconds`` of operating time is spent, at least one."""
    walls, busy = [], 0.0
    for k in range(setups):
        walls.append(set_up())
        while True:
            start = time.perf_counter()
            operate()
            busy += time.perf_counter() - start
            if busy >= seconds * (k + 1) / setups:
                break
    out.samples["setup_s"] = walls
    out.setup_s = _median(walls)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _finish_trace(out: Outcome, tracers, traced_wall: float,
                  untraced_wall: float, extra_wall: float = 0.0) -> None:
    """Overhead compares the traced and untraced operations; the traced
    wall also counts ``extra_wall``, traced work outside them (counter
    snapshots, traced set-up), so that it covers every span's self time."""
    out.tracers = list(tracers)
    out.layers["trace.overhead_ratio"] = _ratio(traced_wall, untraced_wall) - 1
    out.layers["trace.wall_s"] = traced_wall + extra_wall


def _traffic_layers(out: Outcome, tracer: Tracer, wall: float) -> None:
    """Traffic synthesis timings, and its share of the traced ``wall``."""
    busy = 0.0
    for name in PROTOCOLS:
        out.layers[f"traffic.{name}.busy_s"] = tracer.busy_s(
            f"traffic.{name}")
        busy += out.layers[f"traffic.{name}.busy_s"]
    out.layers.update({
        "traffic.units": tracer.counts["traffic.units"],
        "traffic.share": _ratio(busy, wall),
        "signals.eightbten.busy_s": tracer.busy_s("signals.eightbten"),
        "iolink.crc16.busy_s": tracer.busy_s("iolink.crc16"),
        "protocols.i2c.busy_s": tracer.busy_s("protocols.i2c"),
        "protocols.jtag.busy_s": tracer.busy_s("protocols.jtag"),
    })


def _worker_layers(out: Outcome, tracer: Tracer) -> None:
    """Timings of the capture/scoring layers from one in-process tracer."""
    t = tracer
    out.layers.update({
        "txline.solve.calls": t.calls("txline.solve"),
        "txline.solve.busy_s": t.busy_s("txline.solve"),
        "capturekernel.tables.busy_s": t.busy_s("capturekernel.tables"),
        "capturekernel.draw.self_s": t.self_s("capturekernel.estimate"),
        "itdr.capture_batch.busy_s": t.busy_s("itdr.capture_batch"),
        "itdr.capture_stack.self_s": t.self_s("itdr.capture_stack"),
        "comparator.probability_of_one.busy_s":
            t.busy_s("comparator.probability_of_one"),
        "noise.sample_at_triggers.busy_s":
            t.busy_s("noise.sample_at_triggers"),
        "auth.decide.calls": t.calls("auth.decide"),
        "auth.decide.busy_s": t.busy_s("auth.decide"),
        "tamper.check.calls": t.calls("tamper.check"),
        "tamper.check.busy_s": t.busy_s("tamper.check"),
        "runtime.check.self_s": t.self_s("runtime.check"),
        "runtime.snapshot.busy_s": t.busy_s("runtime.snapshot"),
    })


def _cache_layers(out: Outcome, solve: Dict[str, int],
                  kernel: Dict[str, int]) -> None:
    hits, misses = solve.get("hits", 0), solve.get("misses", 0)
    builds, table_hits = kernel.get("table_builds", 0), kernel.get(
        "table_hits", 0)
    out.layers.update({
        "solvecache.hits": hits,
        "solvecache.misses": misses,
        "solvecache.evictions": solve.get("evictions", 0),
        "solvecache.hit_ratio": _ratio(hits, hits + misses),
        "capturekernel.table_builds": builds,
        "capturekernel.table_hits": table_hits,
        "capturekernel.table_hit_ratio": _ratio(table_hits,
                                                table_hits + builds),
        "capturekernel.dense_renders": kernel.get("dense_renders", 0),
        "capturekernel.fused_captures": kernel.get("fused_captures", 0),
        "itdr.grid_captures": kernel.get("grid_captures", 0),
    })


def _sum_stats(stats_list) -> Dict[str, int]:
    total: Dict[str, int] = {}
    for stats in stats_list:
        for key, value in stats.snapshot().items():
            total[key] = total.get(key, 0) + value
    return total


def _delta(after: Dict[str, int], before: Dict[str, int]) -> Dict[str, int]:
    return {key: after[key] - before.get(key, 0) for key in after
            if isinstance(after[key], int)}


# ----------------------------------------------------------------------
# fleet-rescan
# ----------------------------------------------------------------------
def _fleet_streams(seed: int, op: int, n: int):
    """Per-bus seed streams of operation ``op`` (0 = enroll, 1 = cold scan)."""
    return np.random.SeedSequence([seed, op]).spawn(n)


def _fleet_setup(sizes: dict, seed: int, backend: str):
    """Manufacture, register, enroll, cold-scan: (executor, taps, seconds)."""
    from repro.attacks import WireTap
    from repro.core import (Authenticator, FleetScanExecutor, prototype_itdr,
                            prototype_itdr_config, prototype_line_factory)
    from repro.protocols.link import default_tamper_detector

    n = sizes["fleet_buses"]
    enroll_streams = _fleet_streams(seed, 0, n)
    cold_streams = _fleet_streams(seed, 1, n)
    start = time.perf_counter()
    executor = FleetScanExecutor(
        Authenticator(0.85),
        default_tamper_detector(prototype_itdr()),
        itdr_config=prototype_itdr_config(),
        captures_per_check=sizes["captures_per_check"],
        shards=sizes["fleet_shards"],
        backend=backend,
        seed=seed,
    )
    lines = prototype_line_factory().manufacture_batch(
        n, first_seed=1 + seed * 10_000)
    for line in lines:
        executor.register(line)
    executor.enroll(n_captures=sizes["enroll_captures"],
                    streams=enroll_streams)
    every = sizes["tap_every"]
    taps = {name: [WireTap(TAP_POSITION_M)]
            for name in executor.bus_names()[seed % every::every]}
    executor.scan(modifiers_by_bus=taps, streams=cold_streams)
    return executor, taps, time.perf_counter() - start


def _fleet_scan(executor, taps, streams, out: Outcome, what: str,
                tracer: Optional[Tracer] = None):
    """One checked warm scan: (wall seconds, digest, outcome or None)."""
    start = time.perf_counter()
    try:
        if tracer is None:
            outcome = executor.scan(modifiers_by_bus=taps, streams=streams)
        else:
            outcome = tracer.span("op.scan", executor.scan,
                                  modifiers_by_bus=taps, streams=streams)
    except Exception as exc:  # a failed operation, counted, not fatal
        out.record(False, f"{what}: {exc!r}")
        return time.perf_counter() - start, None, None
    wall = time.perf_counter() - start
    flagged = {bus for bus, _ in outcome.alerts()}
    missed = sorted(set(taps) - flagged)
    out.record(not missed, f"{what}: tapped buses not flagged {missed[:4]}")
    out.simulated["false_alerts_clean_buses"] = out.simulated.get(
        "false_alerts_clean_buses", 0) + len(flagged - set(taps))
    digest = hashlib.sha256(outcome.canonical_bytes()).hexdigest()
    return wall, digest, outcome


def _leaked_segments() -> int:
    """This process's transport segments still in /dev/shm."""
    from repro.core.transport import SEGMENT_PREFIX

    prefix = f"{SEGMENT_PREFIX}{os.getpid()}-"
    try:
        return sum(1 for name in os.listdir("/dev/shm")
                   if name.startswith(prefix))
    except FileNotFoundError:
        return 0


def fleet_rescan(seed: int, seconds: float, sizes: dict,
                 trace: bool) -> Outcome:
    out = Outcome()
    n = sizes["fleet_buses"]
    if trace:
        executor, taps, _ = _fleet_setup(sizes, seed, "process")
        out.simulated["scan_period_s"] = executor.scan_period_s()
        out.simulated["tapped_buses"] = len(taps)
        try:
            _fleet_traced(out, executor, taps, seed, sizes)
        finally:
            executor.close()
        return out

    fleet: dict = {}
    walls: List[float] = []

    def set_up() -> float:
        if fleet:
            fleet["executor"].close()
        fleet["executor"], fleet["taps"], wall = _fleet_setup(
            sizes, seed, "process")
        out.simulated["scan_period_s"] = fleet["executor"].scan_period_s()
        out.simulated["tapped_buses"] = len(fleet["taps"])
        return wall

    def scan() -> None:
        op = 2 + len(walls)
        wall, _, _ = _fleet_scan(fleet["executor"], fleet["taps"],
                                 _fleet_streams(seed, op, n), out,
                                 f"scan {op}")
        walls.append(wall)

    try:
        _spread_setups(out, seconds, sizes["setups"]["fleet-rescan"],
                       set_up, scan)
    finally:
        if fleet:
            fleet["executor"].close()
    out.samples["scan_s"] = walls
    out.unit_cost_ms = _median(walls) / n * 1e3
    out.headline["scan_ms_per_bus"] = (out.unit_cost_ms, "ms")
    out.headline["warm_scans"] = (len(walls), "count")
    return out


def _fleet_traced(out: Outcome, executor, taps, seed: int,
                  sizes: dict) -> None:
    """Process pass untraced then parent-traced; serial pass untraced
    then traced.  Spans recorded in pool workers never reach the parent,
    so worker-side layers are timed on the serial backend, which runs
    the same shard code in-process on the same fleet and streams."""
    n, k = sizes["fleet_buses"], sizes["fleet_trace_scans"]
    ops = range(2, 2 + k)
    digests: Dict[str, List[Optional[str]]] = {}
    walls: Dict[str, float] = {}

    def run_pass(label, ex, tracer=None):
        found, total = [], 0.0
        for op in ops:
            if tracer is not None:
                tracer.op = op
            wall, digest, outcome = _fleet_scan(
                ex, taps, _fleet_streams(seed, op, n), out,
                f"{label} scan {op}", tracer)
            found.append(digest)
            total += wall
            if outcome is not None and label == "process-traced":
                shard_walls = [h.wall_s for h in outcome.shard_health]
                out.layers["fleet.shard_wall_max_s"] = max(
                    out.layers.get("fleet.shard_wall_max_s", 0.0),
                    max(shard_walls))
                imbalance.append(max(shard_walls) / statistics.fmean(
                    shard_walls))
                degraded.append(outcome.degraded)
        digests[label] = found
        walls[label] = total

    imbalance: List[float] = []
    degraded: List[bool] = []
    health_before = executor.telemetry.snapshot()["health"]
    events_before = len(executor.event_log)
    run_pass("process", executor)
    parent = Tracer()
    install(parent)
    try:
        run_pass("process-traced", executor, parent)
        start = time.perf_counter()
        health = parent.span("op.snapshot", executor.telemetry.snapshot)[
            "health"]
        snapshot_wall = time.perf_counter() - start
    finally:
        parent.restore()
    events = len(executor.event_log) - events_before
    executor.close()
    out.layers["transport.leaked_segments"] = _leaked_segments()

    solve = _delta(health["solve_cache"]["workers"],
                   health_before["solve_cache"]["workers"])
    kernel = _delta(health["capture_kernel"],
                    health_before["capture_kernel"])
    transport = _delta(health["transport"], health_before["transport"])
    _cache_layers(out, solve, kernel)
    out.layers["capturekernel.thrash"] = int(
        kernel["table_builds"] > 0 or solve["misses"] > 0)
    for key in ("bytes_moved", "bytes_referenced", "payloads_packed",
                "payloads_reused", "worker_cache_hits", "segments_created"):
        out.layers[f"transport.{key}"] = transport[key]
    out.layers.update({
        "fleet.dispatch_wait_s": parent.busy_s("fleet.dispatch_wait"),
        "fleet.merge.busy_s": parent.busy_s("fleet.merge"),
        "fleet.shard_imbalance": statistics.fmean(imbalance or [0.0]),
        "fleet.retries": health["retries"] - health_before["retries"],
        "fleet.pool_rebuilds": (health["pool_rebuilds"]
                                - health_before["pool_rebuilds"]),
        "fleet.degraded_scans": sum(degraded),
        "transport.pack.busy_s": parent.busy_s("transport.pack"),
        "runtime.events": events,
    })

    serial, _, _ = _fleet_setup(sizes, seed, "serial")
    worker = Tracer()
    try:
        run_pass("serial", serial)
        install(worker)
        try:
            run_pass("serial-traced", serial, worker)
        finally:
            worker.restore()
    finally:
        serial.close()
    _worker_layers(out, worker)
    out.layers["runtime.snapshot.busy_s"] = parent.busy_s("runtime.snapshot")

    reference = digests.pop("process")
    for label, found in digests.items():
        for op, (want, got) in enumerate(zip(reference, found), start=2):
            out.record(want is not None and want == got,
                       f"scan {op}: {label} digest differs from sharded")
    _finish_trace(out, [parent, worker],
                  walls["process-traced"] + walls["serial-traced"],
                  walls["process"] + walls["serial"], snapshot_wall)


# ----------------------------------------------------------------------
# link-sessions
# ----------------------------------------------------------------------
def _links(seed: int):
    """One calibrated link per protocol."""
    from repro.protocols import ProtectedLink

    links = {}
    for name in PROTOCOLS:
        link = ProtectedLink.from_registry(name, seed=seed)
        link.calibrate()
        links[name] = link
    return links


def _event_digest(log) -> str:
    payload = repr([
        (e.time_s, e.side, e.action.value, e.score, e.tampered,
         e.location_m, e.protocol) for e in log
    ])
    return hashlib.sha256(payload.encode()).hexdigest()


def _link_ops(link, traffic_seed: int, units, out: Outcome,
              tracer: Optional[Tracer] = None):
    """A clean session then an attack session with onset mid-session.

    Returns ``[(wall, units, digest), ...]`` for the two operations.
    """
    def call(name, fn, *args, **kwargs):
        if tracer is None:
            return fn(*args, **kwargs)
        return tracer.span(name, fn, *args, **kwargs)

    name = link.spec.name
    done = []
    start = time.perf_counter()
    clean = call("op.session", link.session, n_units=units,
                 seed=traffic_seed)
    done.append((time.perf_counter() - start, clean.units_sent,
                 _event_digest(clean.log)))
    out.record(True, "")
    out.simulated.setdefault("false_alerts_clean_sessions", {}).setdefault(
        name, 0)
    out.simulated["false_alerts_clean_sessions"][name] += len(clean.alerts())
    onset = clean.duration_s / 2
    start = time.perf_counter()
    attacked, _ = call("op.attack", link.attack_session, n_units=units,
                       onset_s=onset, seed=traffic_seed)
    done.append((time.perf_counter() - start, attacked.units_sent,
                 _event_digest(attacked.log)))
    latency = attacked.detection_latency(onset)
    out.record(latency is not None,
               f"{name} attack (traffic seed {traffic_seed}) undetected")
    if latency is not None:
        out.simulated.setdefault("_latencies", {}).setdefault(
            name, []).append(latency)
    return done


def link_sessions(seed: int, seconds: float, sizes: dict,
                  trace: bool) -> Outcome:
    out = Outcome()
    units = sizes["link_units"]
    links = _links(seed)
    traffic = np.random.default_rng([seed, 2])
    per_kunit: Dict[str, List[float]] = {name: [] for name in PROTOCOLS}
    if trace:
        _links_traced(out, links, seed, traffic, sizes)
    else:
        cycles = 0
        start = time.perf_counter()
        while not cycles or time.perf_counter() - start < seconds:
            cycles += 1
            for name in PROTOCOLS:
                traffic_seed = int(traffic.integers(2**31))
                try:
                    done = _link_ops(links[name], traffic_seed, units, out)
                except Exception as exc:  # counted, not fatal
                    out.record(False, f"{name} session: {exc!r}")
                    continue
                for wall, sent, _ in done:
                    per_kunit[name].append(wall * 1e6 / sent)
        out.samples.update({f"session_ms_per_kunit.{name}": v
                            for name, v in per_kunit.items()})
        medians = {name: _median(v) for name, v in per_kunit.items()}
        out.unit_cost_ms = math.exp(statistics.fmean(
            math.log(v) for v in medians.values()))
        for name, value in medians.items():
            out.headline[f"session_ms_per_kunit.{name}"] = (value, "ms")
        out.headline["sessions_per_protocol"] = (2 * cycles, "count")
    latencies = out.simulated.pop("_latencies", {})
    out.simulated["detection_latency_s_median"] = {
        name: _median(values) for name, values in sorted(latencies.items())
    }
    out.simulated["check_period_s"] = {
        name: links[name].sustained_check_period_s() for name in PROTOCOLS
    }
    return out


def _links_traced(out: Outcome, links, seed: int, traffic,
                  sizes: dict) -> None:
    """The same sessions untraced then traced, from identical link state."""
    units = sizes["link_units"]
    plan = [(name, int(traffic.integers(2**31)))
            for _ in range(sizes["link_trace_cycles"]) for name in PROTOCOLS]
    from repro.core.solvecache import process_solve_cache

    results = {}
    walls = {}
    tracer = Tracer()
    for label in ("untraced", "traced"):
        links = _links(seed)
        if label == "traced":
            install(tracer)
            solve_before = process_solve_cache().stats()
            kernel_before = _sum_stats(
                link.endpoint(side).itdr.kernel_stats
                for link in links.values() for side in link.spec.sides)
        try:
            start = time.perf_counter()
            done = []
            for op, (name, traffic_seed) in enumerate(plan):
                tracer.op = op
                done.extend(_link_ops(links[name], traffic_seed, units, out,
                                      tracer if label == "traced" else None))
            walls[label] = time.perf_counter() - start
            if label == "traced":
                start = time.perf_counter()
                for link in links.values():
                    tracer.span("op.snapshot", link.telemetry.snapshot)
                snapshot_wall = time.perf_counter() - start
        finally:
            tracer.restore()
        results[label] = done
    for i, (want, got) in enumerate(zip(results["untraced"],
                                        results["traced"])):
        out.record(want[2] == got[2], f"session {i}: traced event log differs")
    _worker_layers(out, tracer)
    kernel_after = _sum_stats(
        link.endpoint(side).itdr.kernel_stats
        for link in links.values() for side in link.spec.sides)
    _cache_layers(out, _delta(process_solve_cache().stats(), solve_before),
                  _delta(kernel_after, kernel_before))
    _traffic_layers(out, tracer,
                    sum(wall for wall, _, _ in results["traced"]))
    out.layers["runtime.events"] = sum(len(link.telemetry.log)
                                       for link in links.values())
    _finish_trace(out, [tracer], walls["traced"], walls["untraced"],
                  snapshot_wall)


# ----------------------------------------------------------------------
# reproduce
# ----------------------------------------------------------------------
def _suite_scale(sizes: dict):
    from repro.experiments.common import ExperimentScale

    return ExperimentScale(n_lines=sizes["suite_lines"],
                           n_measurements=sizes["suite_measurements"],
                           n_enroll=sizes["suite_enroll"])


def _run_experiment(name: str, runner, out: Outcome,
                    tracer: Optional[Tracer] = None) -> float:
    start = time.perf_counter()
    try:
        if tracer is None:
            _, ok = runner()
        else:
            _, ok = tracer.span("op.experiment", runner)
    except Exception as exc:  # a failed operation, counted, not fatal
        out.record(False, f"{name}: {exc!r}")
        return time.perf_counter() - start
    wall = time.perf_counter() - start
    out.record(bool(ok), f"{name}: shape does not hold")
    return wall


def reproduce(seed: int, seconds: float, sizes: dict,
              trace: bool) -> Outcome:
    """One untimed pass first, so that every timed pass is warm (lazy
    imports done, the process-wide solve cache filled); then whole timed
    passes.  Set-up is timed by ``run.py`` (see :data:`FRESH_SETUP`)."""
    out = Outcome()

    from repro.experiments.run_all import build_suite

    suite = build_suite(_suite_scale(sizes))
    order = np.random.default_rng([seed, 3]).permutation(len(suite))
    ids = [experiment_id(name) for name, _ in suite]
    if sorted(ids) != sorted(EXPERIMENT_IDS):
        raise RuntimeError(f"suite entries changed: {ids}")
    for i in order:
        _run_experiment(suite[i][0], suite[i][1], out)
    if trace:
        _reproduce_traced(out, suite, order, ids)
        return out
    walls: Dict[str, List[float]] = {exp: [] for exp in ids}
    start = time.perf_counter()
    position = 0
    # Whole passes only, so every experiment has as many samples as the
    # next and the run's memory peak covers the same work every time.
    while (position % len(order)
           or time.perf_counter() - start < seconds):
        i = order[position % len(order)]
        name, runner = suite[i]
        walls[ids[i]].append(_run_experiment(name, runner, out))
        position += 1
    out.samples.update({f"{exp}_s": v for exp, v in walls.items()})
    out.unit_cost_ms = sum(_median(v) for v in walls.values()) * 1e3
    out.headline["suite_s"] = (out.unit_cost_ms / 1e3, "s")
    out.headline["suite_passes"] = (position / len(order), "count")
    return out


def _reproduce_traced(out: Outcome, suite, order, ids) -> None:
    from repro.core.solvecache import process_solve_cache

    walls = {}
    for i in order:  # warm, after the untimed pass
        walls[ids[i]] = _run_experiment(suite[i][0], suite[i][1], out)
    tracer = Tracer()
    kernel_stats = install(tracer)
    solve_before = process_solve_cache().stats()
    start = time.perf_counter()
    try:
        for op, i in enumerate(order):
            tracer.op = op
            _run_experiment(suite[i][0], suite[i][1], out, tracer)
    finally:
        tracer.restore()
    traced_wall = time.perf_counter() - start
    _worker_layers(out, tracer)
    _cache_layers(out, _delta(process_solve_cache().stats(), solve_before),
                  _sum_stats(kernel_stats))
    for exp, wall in walls.items():
        out.layers[f"experiments.{exp}.wall_s"] = wall
    _traffic_layers(out, tracer, traced_wall)
    _finish_trace(out, [tracer], traced_wall, sum(walls.values()))


# ----------------------------------------------------------------------
# identify-10k
# ----------------------------------------------------------------------
def _template_rows(rng: np.random.Generator, n: int,
                   length: int) -> np.ndarray:
    """IIP-shaped rows: white noise smoothed like reflection profiles."""
    from scipy.ndimage import gaussian_filter1d

    rows = rng.standard_normal((n, length))
    return gaussian_filter1d(rows, sigma=3.0, axis=1, mode="wrap")


def _build_store(rows: np.ndarray, tracer: Optional[Tracer] = None):
    from repro.core import Fingerprint, FingerprintStore

    start = time.perf_counter()
    store = FingerprintStore()
    fingerprints = [Fingerprint(name=f"bus-{i:06d}", samples=row,
                                dt=TEMPLATE_DT)
                    for i, row in enumerate(rows)]
    if tracer is None:
        store.enroll_many(fingerprints)
    else:
        tracer.span("op.enroll", store.enroll_many, fingerprints)
    return store, time.perf_counter() - start


def _queries(rng: np.random.Generator, enrolled: np.ndarray,
             impostors: np.ndarray, n: int) -> list:
    """(kind, source bus or None, capture): genuine reads, genuine
    observes, and impostors from never-enrolled rows."""
    from repro.core import Fingerprint
    from repro.core.itdr import IIPCapture
    from repro.signals.waveform import Waveform

    m = len(enrolled)
    length = impostors.shape[1]
    queries = []
    genuine = 0
    for i in range(n):
        if i % IMPOSTOR_EVERY == IMPOSTOR_EVERY - 1:
            row = impostors[int(rng.integers(len(impostors)))]
            kind, source = "impostor", None
        else:
            index = int(rng.integers(m))
            source = f"bus-{index:06d}"
            # The enrolled template, canonicalised as the store keeps it.
            row = Fingerprint(name=source, samples=enrolled[index],
                              dt=TEMPLATE_DT).samples
            kind = ("observe" if genuine % OBSERVE_EVERY == OBSERVE_EVERY - 1
                    else "identify")
            genuine += 1
        noisy = row + QUERY_NOISE_RMS * np.linalg.norm(row) \
            * rng.standard_normal(length) / np.sqrt(length)
        queries.append((kind, source, IIPCapture(
            waveform=Waveform(noisy, TEMPLATE_DT),
            line_name=source or "impostor", n_triggers=0, duration_s=0.0)))
    return queries


class _IdentifyChecks:
    def __init__(self) -> None:
        self.brute_asked = self.brute_agreed = 0
        self.impostors = self.impostors_accepted = 0
        self.observes = self.updates = 0


def _identify_op(store, query, index: int, out: Outcome,
                 checks: _IdentifyChecks, tracer: Optional[Tracer] = None):
    """One timed query; returns (ms, answer) with checks done untimed."""
    kind, source, capture = query
    if tracer is not None:
        tracer.op = index
    start = time.perf_counter_ns()
    if kind == "observe":
        result, updated = store.observe(capture)
    else:
        result, updated = store.identify(capture), False
    ms = (time.perf_counter_ns() - start) / 1e6
    if kind == "impostor":
        checks.impostors += 1
        checks.impostors_accepted += int(result.accepted)
        out.record(not result.accepted,
                   f"query {index}: impostor accepted as {result.bus}")
        return ms, (result.bus, result.accepted, updated)
    ok = result.bus == source
    if kind == "observe":
        checks.observes += 1
        checks.updates += int(updated)
    elif index % BRUTE_EVERY == 0:
        brute = store.identify(capture, method="brute")
        checks.brute_asked += 1
        checks.brute_agreed += int(brute.bus == result.bus)
        ok = ok and brute.bus == result.bus
    out.record(ok, f"query {index}: {kind} of {source} answered {result.bus}")
    return ms, (result.bus, result.accepted, updated)


def identify_10k(seed: int, seconds: float, sizes: dict,
                 trace: bool) -> Outcome:
    out = Outcome()
    rng = np.random.default_rng([seed, 4])
    m, length = sizes["templates"], sizes["record_length"]
    rows = _template_rows(rng, m + sizes["impostor_rows"], length)
    enrolled, impostors = rows[:m], rows[m:]
    queries = _queries(rng, enrolled, impostors, sizes["query_pool"])
    checks = _IdentifyChecks()
    if trace:
        _identify_traced(out, enrolled, queries, seconds, checks)
    else:
        # Each set-up starts a fresh store: observe writes reset.
        stores: list = []
        times: List[float] = []

        def set_up() -> float:
            stores[:] = []
            store, wall = _build_store(enrolled)
            stores.append(store)
            return wall

        def query() -> None:
            i = len(times)
            ms, _ = _identify_op(stores[0], queries[i % len(queries)], i,
                                 out, checks)
            times.append(ms)

        _spread_setups(out, seconds, sizes["setups"]["identify-10k"],
                       set_up, query)
        out.samples["query_ms"] = times
        out.unit_cost_ms = _median(times)
        pct, value, beyond = tail(times)
        out.headline["identify_ms_p50"] = (out.unit_cost_ms, "ms")
        out.headline["identify_ms_tail"] = (value, "ms")
        out.headline["identify_tail_percentile"] = (pct, "%")
        out.headline["identify_tail_samples_beyond"] = (beyond, "count")
        out.headline["queries"] = (len(times), "count")
    out.simulated["template_updates"] = checks.updates
    return out


def _identify_traced(out: Outcome, enrolled, queries, seconds: float,
                     checks: _IdentifyChecks) -> None:
    """Queries untraced for half the time, then the same ones traced,
    each from a freshly enrolled store (observe writes templates)."""
    store, _ = _build_store(enrolled)
    answers = []
    start = time.perf_counter()
    while not answers or time.perf_counter() - start < seconds / 2:
        i = len(answers)
        answers.append(_identify_op(store, queries[i % len(queries)], i,
                                    out, checks)[1])
    untraced_wall = time.perf_counter() - start
    tracer = Tracer()
    install(tracer)
    traced_checks = _IdentifyChecks()
    try:
        store, build_wall = _build_store(enrolled, tracer)
        start = time.perf_counter()
        traced = [
            _identify_op(store, queries[i % len(queries)], i, out,
                         traced_checks, tracer)[1]
            for i in range(len(answers))
        ]
        traced_wall = time.perf_counter() - start
    finally:
        tracer.restore()
    mismatched = sum(a != b for a, b in zip(answers, traced))
    out.record(not mismatched, f"{mismatched} traced answers differ")
    out.layers.update({
        "identify.calls": tracer.calls("identify"),
        "identify.busy_s": tracer.busy_s("identify"),
        "identify.observe.calls": tracer.calls("identify.observe"),
        "identify.observe.updates": traced_checks.updates,
        "identify.observe.busy_s": tracer.busy_s("identify.observe"),
        "identify.enroll.busy_s": tracer.busy_s("identify.enroll"),
        "identify.rank1_agree_ratio": _ratio(
            checks.brute_agreed + traced_checks.brute_agreed,
            checks.brute_asked + traced_checks.brute_asked),
        "identify.impostor_accept_ratio": _ratio(
            checks.impostors_accepted + traced_checks.impostors_accepted,
            checks.impostors + traced_checks.impostors),
    })
    _finish_trace(out, [tracer], traced_wall, untraced_wall, build_wall)


WORKLOADS = {
    "fleet-rescan": fleet_rescan,
    "link-sessions": link_sessions,
    "reproduce": reproduce,
    "identify-10k": identify_10k,
}
