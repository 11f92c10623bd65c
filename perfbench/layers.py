"""The layer vocabulary: which calls the traced run wraps, and its metrics.

Layer names are the program's module names.  ``install`` patches every
call the per-layer metrics time, at the attribute its callers look up;
``PER_LAYER`` lists every per-layer metric a traced run reports (the
same list on every workload, zero where a workload bypasses a layer).
"""

from __future__ import annotations

import re
from typing import Dict, List, Tuple

#: The 24 experiments of the reduced ``run_all`` suite, as sanitised ids
#: in ``build_suite`` order (the first word of each suite name).
EXPERIMENT_IDS = (
    "F2", "F3_F4", "F5", "F7", "F8", "E-VIB_E-EMI", "F9", "F6", "T-OVH",
    "T-LAT", "A-BASE", "A-MULTI", "A-PDM", "A-TRIG", "A-ETS", "X-CLONE",
    "X-JIT", "X-SHARE", "X-ADAPT", "X-STACK", "X-ENROLL", "X-SENS",
    "X-PROTO", "X-CAMPAIGN",
)

PROTOCOLS = ("i2c", "iolink", "jtag", "membus", "spi")

#: End-to-end metrics, reported by the untraced run of every workload.
END_TO_END: Dict[str, Tuple[str, str]] = {
    "unit_cost_ms": ("ms", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}


def _per_layer() -> Dict[str, Tuple[str, str]]:
    s, n, r = "s", "count", "ratio"
    metrics = {
        "txline.solve.calls": (n, "lower"),
        "txline.solve.busy_s": (s, "lower"),
        "solvecache.hits": (n, "higher"),
        "solvecache.misses": (n, "lower"),
        "solvecache.evictions": (n, "lower"),
        "solvecache.hit_ratio": (r, "higher"),
        "capturekernel.table_builds": (n, "lower"),
        "capturekernel.table_hits": (n, "higher"),
        "capturekernel.table_hit_ratio": (r, "higher"),
        "capturekernel.dense_renders": (n, "lower"),
        "capturekernel.fused_captures": (n, "lower"),
        "capturekernel.thrash": (n, "lower"),
        "capturekernel.tables.busy_s": (s, "lower"),
        "capturekernel.draw.self_s": (s, "lower"),
        "itdr.grid_captures": (n, "lower"),
        "itdr.capture_batch.busy_s": (s, "lower"),
        "itdr.capture_stack.self_s": (s, "lower"),
        "comparator.probability_of_one.busy_s": (s, "lower"),
        "noise.sample_at_triggers.busy_s": (s, "lower"),
        "auth.decide.calls": (n, "lower"),
        "auth.decide.busy_s": (s, "lower"),
        "tamper.check.calls": (n, "lower"),
        "tamper.check.busy_s": (s, "lower"),
        "runtime.check.self_s": (s, "lower"),
        "runtime.events": (n, "lower"),
        "runtime.snapshot.busy_s": (s, "lower"),
        "fleet.dispatch_wait_s": (s, "lower"),
        "fleet.merge.busy_s": (s, "lower"),
        "fleet.shard_wall_max_s": (s, "lower"),
        "fleet.shard_imbalance": (r, "lower"),
        "fleet.retries": (n, "lower"),
        "fleet.pool_rebuilds": (n, "lower"),
        "fleet.degraded_scans": (n, "lower"),
        "transport.bytes_moved": ("bytes", "lower"),
        "transport.bytes_referenced": ("bytes", "lower"),
        "transport.payloads_packed": (n, "lower"),
        "transport.payloads_reused": (n, "higher"),
        "transport.worker_cache_hits": (n, "higher"),
        "transport.segments_created": (n, "lower"),
        "transport.pack.busy_s": (s, "lower"),
        "transport.leaked_segments": (n, "lower"),
        "transport.tracker_errors": (n, "lower"),
    }
    for protocol in PROTOCOLS:
        metrics[f"traffic.{protocol}.busy_s"] = (s, "lower")
    metrics.update({
        "traffic.units": (n, "lower"),
        "traffic.share": (r, "lower"),
        "signals.eightbten.busy_s": (s, "lower"),
        "iolink.crc16.busy_s": (s, "lower"),
        "protocols.i2c.busy_s": (s, "lower"),
        "protocols.jtag.busy_s": (s, "lower"),
        "identify.calls": (n, "higher"),
        "identify.busy_s": (s, "lower"),
        "identify.observe.calls": (n, "higher"),
        "identify.observe.updates": (n, "higher"),
        "identify.observe.busy_s": (s, "lower"),
        "identify.enroll.busy_s": (s, "lower"),
        "identify.rank1_agree_ratio": (r, "higher"),
        "identify.impostor_accept_ratio": (r, "lower"),
    })
    for exp in EXPERIMENT_IDS:
        metrics[f"experiments.{exp}.wall_s"] = (s, "lower")
    metrics.update({
        "trace.overhead_ratio": (r, "lower"),
        "trace.wall_s": (s, "lower"),
    })
    return metrics


PER_LAYER = _per_layer()


def experiment_id(suite_name: str) -> str:
    """``"F3/F4 PDM"`` -> ``"F3_F4"``: the suite entry's first word."""
    return re.sub(r"[^A-Za-z0-9_.-]", "_", suite_name.split()[0])


def install(tracer) -> List:
    """Patch every measured call; returns the live ``kernel_stats`` list.

    Each new :class:`~repro.core.itdr.ITDR` appends its counters to the
    returned list, so workloads whose iTDRs live inside the program
    (experiments, links) can still total them.
    """
    from repro.core import fleet
    from repro.core.auth import Authenticator
    from repro.core.capturekernel import FusedCountKernel
    from repro.core.comparator import Comparator
    from repro.core.divot import DivotEndpoint
    from repro.core.identify import FingerprintStore
    from repro.core.itdr import ITDR
    from repro.core.runtime import MonitorRuntime, Telemetry
    from repro.core.tamper import TamperDetector
    from repro.iolink import frame
    from repro.protocols import registry
    from repro.protocols.spec import ProtocolSpec
    from repro.signals import noise
    from repro.signals.eightbten import Encoder8b10b
    from repro.txline.propagation import BornEngine, LatticeEngine

    for engine in (LatticeEngine, BornEngine):
        tracer.patch(engine, "reflection_response", "txline.solve")
        tracer.patch(engine, "batch_reflection_responses", "txline.solve")
    tracer.patch(FusedCountKernel, "tables_for", "capturekernel.tables")
    tracer.patch(FusedCountKernel, "estimate", "capturekernel.estimate")
    tracer.patch(ITDR, "capture_stack", "itdr.capture_stack")
    tracer.patch(ITDR, "capture_batch", "itdr.capture_batch")
    tracer.patch(Comparator, "probability_of_one",
                 "comparator.probability_of_one")
    for source in (noise.SinusoidalEMI, noise.BurstEMI,
                   noise.CompositeInterference):
        tracer.patch(source, "sample_at_triggers", "noise.sample_at_triggers")
    tracer.patch(Authenticator, "decide", "auth.decide")
    tracer.patch(TamperDetector, "check", "tamper.check")
    tracer.patch(DivotEndpoint, "monitor_capture", "divot.monitor")
    tracer.patch(DivotEndpoint, "monitor_multi", "divot.monitor")
    tracer.patch(MonitorRuntime, "check", "runtime.check")
    tracer.patch(Telemetry, "snapshot", "runtime.snapshot")
    tracer.patch(fleet, "run_with_recovery", "fleet.dispatch_wait")
    tracer.patch(fleet, "merge_shard_outputs", "fleet.merge")
    tracer.patch(fleet, "pack_into", "transport.pack")
    tracer.patch(FingerprintStore, "identify", "identify")
    tracer.patch(FingerprintStore, "observe", "identify.observe")
    tracer.patch(FingerprintStore, "enroll_many", "identify.enroll")
    # Hot leaves: aggregated, no span per call.
    tracer.patch(Encoder8b10b, "encode", "signals.eightbten", record=False)
    tracer.patch(Encoder8b10b, "encode_byte", "signals.eightbten",
                 record=False)
    tracer.patch(frame, "crc16_ccitt", "iolink.crc16", record=False)

    # Traffic: ``ProtectedLink.session`` reads ``spec.traffic_bursts``,
    # which calls the spec's own ``traffic`` model; both are drained
    # inside their spans so generator work lands there.
    bursts = ProtocolSpec.traffic_bursts

    def traffic_bursts(spec, *args, **kwargs):
        units = tracer.call(f"traffic.{spec.name}", True, True, bursts,
                            (spec,) + args, kwargs)
        tracer.counts["traffic.units"] += len(units)  # one burst per unit
        return units

    tracer.replace(ProtocolSpec, "traffic_bursts", traffic_bursts)
    registry.load_all()
    for name in ("i2c", "jtag"):
        tracer.patch(registry.get(name), "traffic", f"protocols.{name}",
                     materialize=True)

    kernel_stats: List = []
    init = ITDR.__init__

    def itdr_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        kernel_stats.append(self.kernel_stats)

    tracer.replace(ITDR, "__init__", itdr_init)
    return kernel_stats
