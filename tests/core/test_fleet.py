"""The sharded fleet executor's determinism and equivalence contracts.

Three pinned guarantees:

(a) serial ``shards=1`` and parallel ``shards=K`` scans of the same fleet
    and seed are byte-identical (``canonical_bytes``), enrollment
    fingerprints included;
(b) the per-bus ``SeedSequence.spawn`` streams are a pure function of
    (seed, operation index, bus index) — never of the shard count;
(c) the telemetry snapshot keeps the PR-2 cross-workload shape with the
    per-shard cells added on top.
"""

import multiprocessing
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro.attacks import WireTap
from repro.core import (
    Action,
    Authenticator,
    FleetScanExecutor,
    SharedITDRManager,
    TamperDetector,
    prototype_itdr,
    prototype_itdr_config,
    spawn_bus_streams,
)
from repro.core.itdr import ITDR
from repro.txline.materials import FR4

N_BUSES = 4
FIRST_SEED = 400
ROOT_SEED = 7


def make_detector(config):
    return TamperDetector(
        threshold=2.5e-3,
        velocity=FR4.velocity_at(FR4.t_ref_c),
        smooth_window=7,
        alignment_offset_s=ITDR(config).probe_edge().duration,
    )


def make_executor(factory, shards=1, backend="auto", seed=ROOT_SEED,
                  captures_per_check=8, n_buses=N_BUSES):
    config = prototype_itdr_config()
    executor = FleetScanExecutor(
        Authenticator(0.85),
        make_detector(config),
        itdr_config=config,
        captures_per_check=captures_per_check,
        shards=shards,
        backend=backend,
        seed=seed,
    )
    for line in factory.manufacture_batch(n_buses, first_seed=FIRST_SEED):
        executor.register(line)
    return executor


def run_one(factory, shards, backend, victim_index=2):
    """Enroll, one clean scan, one tapped scan; return the artefacts."""
    with make_executor(factory, shards=shards, backend=backend) as ex:
        fingerprints = ex.enroll(n_captures=8)
        clean = ex.scan()
        victim = ex.bus_names()[victim_index]
        tapped = ex.scan(modifiers_by_bus={victim: [WireTap(0.12)]})
        return ex, fingerprints, clean, tapped


class TestSerialParallelEquivalence:
    """(a): the backend and partition are invisible in the outcome."""

    def test_serial_shard_counts_are_byte_identical(self, factory):
        _, fp1, clean1, tapped1 = run_one(factory, 1, "serial")
        _, fp3, clean3, tapped3 = run_one(factory, 3, "serial")
        assert clean1.canonical_bytes() == clean3.canonical_bytes()
        assert tapped1.canonical_bytes() == tapped3.canonical_bytes()
        for name in fp1:
            assert np.array_equal(fp1[name].samples, fp3[name].samples)

    def test_process_backend_matches_serial_byte_for_byte(self, factory):
        ex1, fp1, clean1, tapped1 = run_one(factory, 1, "serial")
        exp, fpp, cleanp, tappedp = run_one(factory, 2, "process")
        assert clean1.canonical_bytes() == cleanp.canonical_bytes()
        assert tapped1.canonical_bytes() == tappedp.canonical_bytes()
        for name in fp1:
            assert fp1[name].samples.tobytes() == fpp[name].samples.tobytes()
        # The merged event streams agree on everything but shard labels.
        for serial_event, parallel_event in zip(
            ex1.event_log, exp.event_log
        ):
            assert serial_event.time_s == parallel_event.time_s
            assert serial_event.side == parallel_event.side
            assert serial_event.action is parallel_event.action
            assert serial_event.score == parallel_event.score
            assert serial_event.tampered == parallel_event.tampered
            assert serial_event.bus == parallel_event.bus

    def test_rescan_with_same_root_seed_reproduces_itself(self, factory):
        _, _, clean_a, tapped_a = run_one(factory, 2, "serial")
        _, _, clean_b, tapped_b = run_one(factory, 2, "serial")
        assert clean_a.canonical_bytes() == clean_b.canonical_bytes()
        assert tapped_a.canonical_bytes() == tapped_b.canonical_bytes()

    def test_different_seeds_differ(self, factory):
        with make_executor(factory, seed=1) as ex_a:
            ex_a.enroll(n_captures=4)
            scan_a = ex_a.scan()
        with make_executor(factory, seed=2) as ex_b:
            ex_b.enroll(n_captures=4)
            scan_b = ex_b.scan()
        assert scan_a.canonical_bytes() != scan_b.canonical_bytes()


class TestSeedStreams:
    """(b): spawn streams are stable across shard counts per bus."""

    def test_spawn_keys_are_registration_indexed(self):
        streams = spawn_bus_streams(np.random.SeedSequence(ROOT_SEED), 5)
        assert [s.spawn_key for s in streams] == [(i,) for i in range(5)]

    def test_streams_never_depend_on_shard_count(self):
        # The partition is applied after spawning, so the stream bus i
        # consumes is decided before any shard exists.
        for root_seed in (0, 7, 123):
            a = spawn_bus_streams(np.random.SeedSequence(root_seed), 6)
            b = spawn_bus_streams(np.random.SeedSequence(root_seed), 6)
            for stream_a, stream_b in zip(a, b):
                assert (
                    stream_a.generate_state(4).tolist()
                    == stream_b.generate_state(4).tolist()
                )

    def test_successive_operations_get_fresh_streams(self):
        root = np.random.SeedSequence(ROOT_SEED)
        enroll_streams = spawn_bus_streams(root, 3)
        scan_streams = spawn_bus_streams(root, 3)
        enroll_states = {
            tuple(s.generate_state(4).tolist()) for s in enroll_streams
        }
        scan_states = {
            tuple(s.generate_state(4).tolist()) for s in scan_streams
        }
        assert not enroll_states & scan_states

    def test_rejects_empty_fleet(self):
        with pytest.raises(ValueError):
            spawn_bus_streams(np.random.SeedSequence(0), 0)


class TestTelemetryShape:
    """(c): the PR-2 snapshot contract survives, with shard cells added."""

    CELL_KEYS = {"checks", "proceeds", "blocks", "alerts", "flagged",
                 "tampered", "score"}
    TOP_KEYS = {"endpoints", "buses", "shards", "protocols", "totals",
                "cadence", "health", "detection", "campaigns"}

    def test_snapshot_shape(self, factory):
        ex, _, _, tapped = run_one(factory, 3, "serial")
        snap = ex.telemetry.snapshot()
        assert set(snap) == self.TOP_KEYS
        for cell in [snap["totals"], *snap["endpoints"].values(),
                     *snap["buses"].values(), *snap["shards"].values()]:
            assert set(cell) == self.CELL_KEYS
        assert set(snap["buses"]) == set(ex.bus_names())
        assert set(snap["endpoints"]) == set(ex.bus_names())

    def test_shard_cells_partition_the_totals(self, factory):
        ex, _, _, _ = run_one(factory, 3, "serial")
        snap = ex.telemetry.snapshot()
        assert set(snap["shards"]) == set(range(3))
        assert sum(
            cell["checks"] for cell in snap["shards"].values()
        ) == snap["totals"]["checks"]

    def test_healthy_scans_report_clean_health(self, factory):
        ex, _, _, _ = run_one(factory, 3, "serial")
        health = ex.telemetry.snapshot()["health"]
        # enroll + two scans = three dispatches, none degraded.
        assert health["dispatches"] == 3
        assert health["degraded_dispatches"] == 0
        assert health["retries"] == 0
        assert health["serial_fallbacks"] == 0
        assert health["pool_rebuilds"] == 0
        # Every shard accrues wall time on every dispatch.
        assert set(health["per_shard_wall_s"]) == set(range(3))
        for cell in health["per_shard_wall_s"].values():
            assert cell["dispatches"] == 3
            assert cell["total_s"] >= cell["max_s"] > 0.0

    def test_detection_latency_reads_off_the_cadence_clock(self, factory):
        ex, _, _, tapped = run_one(factory, 2, "serial")
        assert not tapped.all_clear()
        snap = ex.telemetry.snapshot(onset_s=0.0)
        first_alert = snap["detection"]["first_alert_s"]
        assert first_alert is not None
        # Alerts land on visit boundaries of the round-robin clock.
        visit = ex.per_bus_check_time_s()
        assert first_alert == pytest.approx(round(first_alert / visit) * visit)


class TestFleetSemantics:
    def test_clean_fleet_is_all_clear_and_tap_is_flagged_by_name(
        self, factory
    ):
        ex, _, clean, tapped = run_one(factory, 2, "serial")
        assert clean.all_clear()
        victim = ex.bus_names()[2]
        assert [name for name, _ in tapped.alerts()] == [victim]

    def test_block_state_tracks_scan_outcomes(self, factory):
        with make_executor(factory, shards=2, backend="serial") as ex:
            ex.enroll(n_captures=8)
            names = ex.bus_names()
            # Cross-wire a fingerprint: the bus now fails authentication.
            ex._fingerprints[names[0]] = ex._fingerprints[names[1]]
            outcome = ex.scan()
            assert outcome.records[0].action is Action.BLOCK
            assert ex.is_blocked(names[0])
            # Restoring the right reference recovers the bus.
            ex.enroll(n_captures=8)
            recovered = ex.scan()
            assert recovered.all_clear()
            assert not ex.is_blocked(names[0])

    def test_lifecycle_errors(self, factory):
        config = prototype_itdr_config()
        ex = FleetScanExecutor(
            Authenticator(0.85), make_detector(config), itdr_config=config
        )
        with pytest.raises(RuntimeError):
            ex.enroll()
        with pytest.raises(RuntimeError):
            ex.scan()
        line = factory.manufacture(seed=FIRST_SEED)
        ex.register(line)
        with pytest.raises(ValueError):
            ex.register(line)
        with pytest.raises(RuntimeError):
            ex.scan()  # enroll first
        ex.enroll(n_captures=2)
        with pytest.raises(RuntimeError):
            ex.register(factory.manufacture(seed=FIRST_SEED + 1))
        with pytest.raises(KeyError):
            ex.scan(modifiers_by_bus={"no-such-bus": [WireTap(0.1)]})

    def test_constructor_validation(self):
        config = prototype_itdr_config()
        detector = make_detector(config)
        with pytest.raises(ValueError):
            FleetScanExecutor(Authenticator(0.85), detector, shards=0)
        with pytest.raises(ValueError):
            FleetScanExecutor(
                Authenticator(0.85), detector, backend="threads"
            )
        with pytest.raises(ValueError):
            FleetScanExecutor(
                Authenticator(0.85), detector, captures_per_check=0
            )

    def test_manager_exports_its_fleet(self, factory):
        itdr = prototype_itdr(rng=np.random.default_rng(1))
        manager = SharedITDRManager(
            itdr,
            Authenticator(0.85),
            make_detector(itdr.config),
            captures_per_check=8,
        )
        for line in factory.manufacture_batch(3, first_seed=FIRST_SEED):
            manager.register(line)
        with manager.fleet(seed=ROOT_SEED, shards=2, backend="serial") as ex:
            assert ex.bus_names() == manager.bus_names()
            assert ex.captures_per_check == manager.captures_per_check
            ex.enroll(n_captures=4)
            outcome = ex.scan()
            assert len(outcome.records) == manager.n_buses
            # Same sharing trade-off arithmetic as the manager's.
            assert ex.scan_period_s() == pytest.approx(
                manager.scan_period_s()
            )
            report = ex.resource_report()
            assert report.registers == manager.resource_report().registers

    def test_shards_beyond_bus_count_are_harmless(self, factory):
        with make_executor(
            factory, shards=9, backend="serial", n_buses=2
        ) as ex:
            ex.enroll(n_captures=2)
            outcome = ex.scan()
            assert len(outcome.records) == 2
            assert {r.shard for r in outcome.records} <= set(range(9))


#: A whole process-backend lifecycle in a fresh interpreter, so anything
#: the pool, its workers or multiprocessing's resource tracker print at
#: shutdown lands on a stderr the test can read.
_FORK_LIFECYCLE = """
import multiprocessing
multiprocessing.set_start_method("fork")
from repro.core import (Authenticator, FleetScanExecutor, prototype_itdr,
                        prototype_itdr_config, prototype_line_factory)
from repro.protocols.link import default_tamper_detector
executor = FleetScanExecutor(
    Authenticator(0.85), default_tamper_detector(prototype_itdr()),
    itdr_config=prototype_itdr_config(), captures_per_check=2, shards=2,
    backend="process", seed=5)
for line in prototype_line_factory().manufacture_batch(32, first_seed=900):
    executor.register(line)
executor.enroll(n_captures=2)
executor.scan()
executor.close()
print("closed")
"""


class TestProcessLifecycle:
    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="needs the fork start method",
    )
    def test_fork_enroll_scan_close_leaves_stderr_clean(self):
        """Forked workers share the parent's resource tracker; a worker
        that unregisters the parent's resources makes the tracker print
        ``KeyError`` tracebacks at close.  A clean lifecycle prints
        nothing on stderr."""
        src = pathlib.Path(repro.__file__).resolve().parents[1]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(src), env.get("PYTHONPATH")])
        )
        done = subprocess.run(
            [sys.executable, "-c", _FORK_LIFECYCLE],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "closed"
        assert "Traceback" not in done.stderr, done.stderr
