"""Cross-workload telemetry: one shared surface, three workloads.

The acceptance criterion of the runtime refactor: the protected memory
bus, the protected serial link, and the shared round-robin manager all
drive ``MonitorRuntime`` through a cadence and expose the *same*
structured telemetry dict — identical key shape, counts consistent with
their event logs, detection latency computed the same way everywhere.
"""

import numpy as np
import pytest

from repro.core import (
    Authenticator,
    SharedITDRManager,
    TamperDetector,
    prototype_itdr,
)
from repro.core.runtime import EventLog, MonitorEvent, Telemetry
from repro.iolink import Frame, ProtectedSerialLink, SerialLink
from repro.membus import (
    AddressMap,
    MemoryBus,
    ProtectedMemorySystem,
    SDRAMDevice,
    TraceGenerator,
)
from repro.protocols import ProtectedLink, registry
from repro.txline.materials import FR4

#: Every protocol the registry knows — the telemetry-shape contract is
#: parametrized over all of them, so a newly registered protocol is
#: held to the shared surface automatically.
ALL_PROTOCOLS = registry.load_all()


def make_detector(itdr):
    return TamperDetector(
        threshold=2.5e-3,
        velocity=FR4.velocity_at(FR4.t_ref_c),
        smooth_window=7,
        alignment_offset_s=itdr.probe_edge().duration,
    )


@pytest.fixture(scope="module")
def workloads(factory):
    """One small run of each of the three protected workloads."""
    # Memory bus: periodic cadence on the clock lane.
    line = factory.manufacture(seed=50, name="membus-clk")
    bus = MemoryBus(line=line, clock_frequency=1.2e9)
    amap = AddressMap(n_banks=4, n_rows=32, n_columns=16)
    system = ProtectedMemorySystem(
        bus,
        SDRAMDevice(address_map=amap),
        prototype_itdr(rng=np.random.default_rng(51)),
        prototype_itdr(rng=np.random.default_rng(52)),
        Authenticator(0.85),
        make_detector(prototype_itdr()),
        captures_per_check=4,
    )
    system.calibrate(n_captures=8)
    gen = TraceGenerator(amap, seed=53)
    system.run(gen.random(400, write_fraction=0.4), monitor_first=True)

    # Serial link: trigger-budget cadence fed by frame traffic.
    link_line = factory.manufacture(seed=60)
    tx = prototype_itdr(rng=np.random.default_rng(61))
    plink = ProtectedSerialLink(
        SerialLink(link_line, bit_rate=5e9),
        tx,
        prototype_itdr(rng=np.random.default_rng(62)),
        Authenticator(0.85),
        make_detector(tx),
        captures_per_check=4,
    )
    plink.calibrate()
    rng = np.random.default_rng(63)
    frames = [
        Frame(sequence=i % 256,
              payload=tuple(rng.integers(0, 256, 64).tolist()))
        for i in range(400)
    ]
    plink.send(frames)

    # Shared datapath: round-robin cadence over registered buses.
    itdr = prototype_itdr(rng=np.random.default_rng(71))
    manager = SharedITDRManager(
        itdr, Authenticator(0.85), make_detector(itdr), captures_per_check=4
    )
    for bus_line in factory.manufacture_batch(3, first_seed=70):
        manager.register(bus_line)
    manager.calibrate_all(n_captures=8)
    manager.scan()

    return {"membus": system, "iolink": plink, "manager": manager}


CELL_KEYS = {"checks", "proceeds", "blocks", "alerts", "flagged",
             "tampered", "score"}
SCORE_KEYS = {"count", "mean", "min", "max", "hist", "bin_edges"}
TOP_KEYS = {"endpoints", "buses", "shards", "protocols", "totals",
            "cadence", "health", "detection", "campaigns"}
HEALTH_KEYS = {"dispatches", "degraded_dispatches", "retries",
               "serial_fallbacks", "pool_rebuilds", "timeouts",
               "broken_pools", "crashes", "errors", "per_shard_wall_s",
               "solve_cache", "capture_kernel", "transport"}
DETECTION_KEYS = {"onset_s", "first_alert_s", "latency_s", "per_side"}


class TestSharedTelemetrySurface:
    def test_every_workload_exposes_a_telemetry_sink(self, workloads):
        for workload in workloads.values():
            assert isinstance(workload.telemetry, Telemetry)
            assert isinstance(workload.telemetry.log, EventLog)

    def test_snapshot_shape_is_identical_across_workloads(self, workloads):
        for name, workload in workloads.items():
            snap = workload.telemetry.snapshot()
            assert set(snap) == TOP_KEYS, name
            assert set(snap["detection"]) == DETECTION_KEYS, name
            assert set(snap["cadence"]) == {
                "checks_run", "triggers_consumed"
            }, name
            for cell in [snap["totals"], *snap["endpoints"].values(),
                         *snap["buses"].values()]:
                assert set(cell) == CELL_KEYS, name
                assert set(cell["score"]) == SCORE_KEYS, name

    def test_counts_are_consistent_with_the_event_log(self, workloads):
        for name, workload in workloads.items():
            snap = workload.telemetry.snapshot()
            log = workload.telemetry.log
            assert snap["totals"]["checks"] == len(log), name
            assert snap["totals"]["alerts"] == sum(
                1 for e in log if e.is_alert
            ), name
            assert sum(
                cell["checks"] for cell in snap["endpoints"].values()
            ) == len(log), name

    def test_all_workloads_actually_monitored(self, workloads):
        for name, workload in workloads.items():
            snap = workload.telemetry.snapshot()
            assert snap["totals"]["checks"] > 0, name
            assert snap["cadence"]["checks_run"] > 0, name

    def test_events_are_canonical_monitor_events(self, workloads):
        for name, workload in workloads.items():
            for event in workload.telemetry.log:
                assert type(event) is MonitorEvent, name

    def test_per_side_cells_match_workload_topology(self, workloads):
        membus = workloads["membus"].telemetry.snapshot()
        assert set(membus["endpoints"]) == {"cpu", "module"}
        iolink = workloads["iolink"].telemetry.snapshot()
        assert set(iolink["endpoints"]) == {"tx", "rx"}
        manager = workloads["manager"].telemetry.snapshot()
        names = set(workloads["manager"].bus_names())
        assert set(manager["endpoints"]) == names
        # The shared manager is the only per-bus workload, so only it
        # populates the per-bus breakdown.
        assert set(manager["buses"]) == names
        assert membus["buses"] == {} and iolink["buses"] == {}
        # Shard cells and dispatch-health accounting belong to sharded
        # fleet scans alone; every single-datapath workload leaves the
        # cells empty and the health counters zeroed (same key shape).
        for snap in (membus, iolink, manager):
            assert snap["shards"] == {}
            assert set(snap["health"]) == HEALTH_KEYS
            assert snap["health"]["per_shard_wall_s"] == {}
            assert all(
                v == 0 for k, v in snap["health"].items()
                if k not in (
                    "per_shard_wall_s", "solve_cache", "capture_kernel",
                    "transport",
                )
            )
            # Single-datapath workloads never move shard payloads: the
            # transport ledger is present (same key shape) but zeroed.
            assert all(
                v == 0 for v in snap["health"]["transport"].values()
            )
            # The solve-cache section: live process counters plus the
            # worker-delta accumulator, which no single-datapath
            # workload ever folds into.
            cache = snap["health"]["solve_cache"]
            assert set(cache) == {"process", "workers"}
            assert set(cache["process"]) == {
                "hits", "misses", "evictions", "entries", "capacity"
            }
            assert cache["workers"] == {
                "hits": 0, "misses": 0, "evictions": 0
            }
            # Same for the capture-kernel accumulator: only sharded
            # fleet dispatches ship counter deltas home.
            from repro.core.capturekernel import CaptureKernelStats

            assert snap["health"]["capture_kernel"] == {
                key: 0 for key in CaptureKernelStats.COUNTER_KEYS
            }

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_transport_ledger_counts_pickled_shard_tasks(
        self, workloads, backend
    ):
        """Only the process backend pickles shard tasks; the serial
        backend runs them in-process and moves nothing.  Either way the
        ledger keeps one key shape."""
        from repro.core.transport import TRANSPORT_COUNTER_KEYS

        with workloads["manager"].fleet(
            seed=3, shards=2, backend=backend
        ) as executor:
            executor.enroll(n_captures=2)
            executor.scan()
            cell = executor.telemetry.snapshot()["health"]["transport"]
        assert set(cell) == set(TRANSPORT_COUNTER_KEYS)
        if backend == "process":
            assert cell["bytes_moved"] > 0
            # One pickle per shard task: two shards, two dispatches.
            assert cell["payloads_packed"] == 4
        else:
            assert cell["bytes_moved"] == 0
            assert cell["payloads_packed"] == 0
        assert all(
            cell[key] == 0 for key in TRANSPORT_COUNTER_KEYS
            if key not in ("bytes_moved", "payloads_packed")
        )

    def test_detection_latency_reads_identically(self, workloads):
        """A clean run reports the same null detection block everywhere."""
        for name, workload in workloads.items():
            detect = workload.telemetry.snapshot(onset_s=0.0)["detection"]
            assert detect["onset_s"] == 0.0, name
            assert detect["latency_s"] is None, name
            assert detect["first_alert_s"] is None, name
            sides = workload.telemetry.snapshot()["endpoints"]
            assert detect["per_side"] == {s: None for s in sides}, name

    def test_workload_events_carry_their_protocol_label(self, workloads):
        """The refactored workloads stamp the registry name on events;
        the shared manager (protocol-agnostic registration) does not."""
        for name, label in (("membus", "membus"), ("iolink", "iolink")):
            snap = workloads[name].telemetry.snapshot()
            assert set(snap["protocols"]) == {label}, name
            assert snap["protocols"][label]["checks"] == len(
                workloads[name].telemetry.log
            ), name
        assert workloads["manager"].telemetry.snapshot()["protocols"] == {}


@pytest.fixture(scope="module")
def protocol_links():
    """One clean generic session per registered protocol."""
    links = {}
    for name in ALL_PROTOCOLS:
        link = ProtectedLink.from_registry(name, seed=7)
        link.calibrate(n_captures=8)
        link.session(seed=1)
        links[name] = link
    return links


class TestEveryRegisteredProtocol:
    """The PR-2 telemetry contract, over the whole registry."""

    @pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
    def test_snapshot_shape_matches_the_shared_surface(
        self, protocol_links, protocol
    ):
        link = protocol_links[protocol]
        snap = link.telemetry.snapshot()
        assert set(snap) == TOP_KEYS
        assert set(snap["detection"]) == DETECTION_KEYS
        assert set(snap["cadence"]) == {"checks_run", "triggers_consumed"}
        for cell in [snap["totals"], *snap["endpoints"].values(),
                     *snap["protocols"].values()]:
            assert set(cell) == CELL_KEYS
            assert set(cell["score"]) == SCORE_KEYS

    @pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
    def test_events_fill_the_protocol_cell(self, protocol_links, protocol):
        link = protocol_links[protocol]
        snap = link.telemetry.snapshot()
        log = link.telemetry.log
        assert len(log) > 0
        assert all(event.protocol == protocol for event in log)
        assert set(snap["protocols"]) == {protocol}
        assert snap["protocols"][protocol]["checks"] == len(log)
        assert set(snap["endpoints"]) == set(
            registry.get(protocol).sides
        )
