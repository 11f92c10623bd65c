"""Fault-tolerant fleet dispatch: every recovery path, pinned.

The contracts (ISSUE 4):

(a) with injected worker crashes, hangs, slowdowns, or errors, a fleet
    scan *completes* — via retry, pool rebuild, or serial fallback;
(b) every recovered outcome is **byte-identical** to the all-healthy
    ``shards=1`` serial scan — recovery may move work, never change it;
(c) a scan immediately after a worker crash succeeds without any manual
    pool reset (the broken pool is rebuilt, not cached);
(d) telemetry's ``health`` section records what the recovery cost.

Process-pool scenarios run at a small scale (4 buses, shallow
averaging) because each one pays real fork/rebuild latency; the engine
itself is additionally unit-tested with fake backends below, and
property-tested in ``tests/property/test_fault_schedules.py``.
"""

import pytest

from repro.core import (
    Authenticator,
    FaultInjector,
    FaultSpec,
    FleetDispatchError,
    FleetScanExecutor,
    RetryPolicy,
    TamperDetector,
    available_workers,
    prototype_itdr_config,
)
from repro.core.faults import (
    SERIAL_FALLBACK,
    AttemptFailure,
    InjectedFault,
    run_with_recovery,
)
from repro.core.itdr import ITDR
from repro.txline.materials import FR4

N_BUSES = 4
FIRST_SEED = 400
ROOT_SEED = 7

#: Tight-but-safe recovery settings for injected-fault scenarios.
FAST_POLICY = RetryPolicy(
    max_retries=2,
    backoff_base_s=0.01,
    backoff_max_s=0.05,
    shard_timeout_base_s=30.0,
)


def make_detector(config):
    return TamperDetector(
        threshold=2.5e-3,
        velocity=FR4.velocity_at(FR4.t_ref_c),
        smooth_window=7,
        alignment_offset_s=ITDR(config).probe_edge().duration,
    )


def make_executor(factory, shards=1, backend="auto", policy=None,
                  injector=None):
    config = prototype_itdr_config()
    executor = FleetScanExecutor(
        Authenticator(0.85),
        make_detector(config),
        itdr_config=config,
        captures_per_check=4,
        shards=shards,
        backend=backend,
        seed=ROOT_SEED,
        retry_policy=policy,
        fault_injector=injector,
    )
    for line in factory.manufacture_batch(N_BUSES, first_seed=FIRST_SEED):
        executor.register(line)
    return executor


@pytest.fixture(scope="module")
def healthy_reference(factory):
    """The all-healthy ``shards=1`` serial artefacts every recovered
    outcome must match byte-for-byte."""
    with make_executor(factory, shards=1, backend="serial") as ex:
        fingerprints = ex.enroll(n_captures=4)
        scan_one = ex.scan()
        scan_two = ex.scan()
    return fingerprints, scan_one, scan_two


class TestCrashRecovery:
    """A worker killed mid-scan (real os._exit -> BrokenProcessPool)."""

    def test_crashed_worker_scan_recovers_byte_identically(
        self, factory, healthy_reference
    ):
        _, healthy_one, healthy_two = healthy_reference
        injector = FaultInjector(
            specs=(FaultSpec(kind="crash", shard=0, mode="scan",
                             attempts=(0,)),)
        )
        with make_executor(
            factory, shards=2, backend="process",
            policy=FAST_POLICY, injector=injector,
        ) as ex:
            ex.enroll(n_captures=4)
            outcome = ex.scan()
            # (a) the scan completed, and says how.
            assert outcome.degraded
            assert any("broken_pool" in h.faults
                       for h in outcome.shard_health)
            # (b) byte-identical to the healthy serial scan.
            assert outcome.canonical_bytes() == \
                healthy_one.canonical_bytes()
            # (c) the next scan succeeds with no manual pool reset —
            # and is itself byte-identical to the healthy second scan
            # (the injector re-fires on its attempt 0 and is re-healed).
            second = ex.scan()
            assert second.canonical_bytes() == \
                healthy_two.canonical_bytes()
            # (d) the recovery is on the telemetry surface.
            health = ex.telemetry.snapshot()["health"]
            assert health["degraded_dispatches"] >= 1
            assert health["broken_pools"] >= 1
            assert health["pool_rebuilds"] >= 1
            assert health["retries"] >= 1
            # Recovery provenance reaches the canonical events.
            assert ex.event_log.recovered()

    def test_enrollment_recovers_too(self, factory, healthy_reference):
        healthy_fingerprints, _, _ = healthy_reference
        injector = FaultInjector(
            specs=(FaultSpec(kind="crash", shard=0, mode="enroll",
                             attempts=(0,)),)
        )
        with make_executor(
            factory, shards=2, backend="process",
            policy=FAST_POLICY, injector=injector,
        ) as ex:
            fingerprints = ex.enroll(n_captures=4)
            for name, reference in healthy_fingerprints.items():
                assert fingerprints[name].samples.tobytes() == \
                    reference.samples.tobytes()
            assert ex.telemetry.snapshot()["health"]["broken_pools"] >= 1


class TestHangAndSlowRecovery:
    def test_hung_worker_times_out_and_retry_is_byte_identical(
        self, factory, healthy_reference
    ):
        _, healthy_one, _ = healthy_reference
        injector = FaultInjector(
            specs=(FaultSpec(kind="hang", shard=0, mode="scan",
                             attempts=(0,), seconds=15.0),)
        )
        policy = RetryPolicy(
            max_retries=1,
            backoff_base_s=0.01,
            shard_timeout_base_s=1.0,
            shard_timeout_per_capture_s=0.02,
        )
        with make_executor(
            factory, shards=2, backend="process",
            policy=policy, injector=injector,
        ) as ex:
            ex.enroll(n_captures=4)
            outcome = ex.scan()
            assert outcome.degraded
            assert any("timeout" in h.faults for h in outcome.shard_health)
            assert outcome.canonical_bytes() == \
                healthy_one.canonical_bytes()
            health = ex.telemetry.snapshot()["health"]
            assert health["timeouts"] >= 1
            assert health["pool_rebuilds"] >= 1

    def test_slow_worker_inside_timeout_needs_no_recovery(
        self, factory, healthy_reference
    ):
        _, healthy_one, _ = healthy_reference
        injector = FaultInjector(
            specs=(FaultSpec(kind="slow", shard=0, mode="scan",
                             attempts=(0,), seconds=0.2),)
        )
        with make_executor(
            factory, shards=2, backend="serial",
            policy=FAST_POLICY, injector=injector,
        ) as ex:
            ex.enroll(n_captures=4)
            outcome = ex.scan()
            assert not outcome.degraded
            assert outcome.canonical_bytes() == \
                healthy_one.canonical_bytes()
            # The slowdown is visible in the per-shard wall time.
            wall = ex.telemetry.snapshot()["health"]["per_shard_wall_s"]
            assert wall[0]["max_s"] > wall[1]["max_s"]


class TestSerialFallback:
    def test_exhausted_retries_fall_back_to_the_parent(
        self, factory, healthy_reference
    ):
        _, healthy_one, _ = healthy_reference
        injector = FaultInjector(
            specs=(FaultSpec(kind="crash", shard=0, mode="scan",
                             attempts=(0,)),)
        )
        policy = RetryPolicy(max_retries=0, backoff_base_s=0.01)
        with make_executor(
            factory, shards=2, backend="process",
            policy=policy, injector=injector,
        ) as ex:
            ex.enroll(n_captures=4)
            outcome = ex.scan()
            assert outcome.degraded
            assert any(h.outcome == SERIAL_FALLBACK
                       for h in outcome.shard_health)
            assert outcome.canonical_bytes() == \
                healthy_one.canonical_bytes()
            assert ex.telemetry.snapshot()["health"]["serial_fallbacks"] >= 1
            # Fallback provenance lands on the affected records only.
            labels = {r.shard: r.recovery for r in outcome.records}
            assert SERIAL_FALLBACK in labels.values()

    def test_systematic_failure_raises_after_the_whole_ladder(
        self, factory
    ):
        # The fault fires on every rung, fallback included.
        policy = RetryPolicy(max_retries=1, backoff_base_s=0.0)
        injector = FaultInjector(
            specs=(FaultSpec(kind="error", shard=0, mode="scan",
                             attempts=tuple(range(policy.max_retries + 2))),)
        )
        with make_executor(
            factory, shards=2, backend="serial",
            policy=policy, injector=injector,
        ) as ex:
            ex.enroll(n_captures=4)
            with pytest.raises(FleetDispatchError):
                ex.scan()

    def test_fallback_disabled_raises_instead(self, factory):
        policy = RetryPolicy(
            max_retries=0, backoff_base_s=0.0, serial_fallback=False
        )
        injector = FaultInjector(
            specs=(FaultSpec(kind="error", shard=0, mode="scan",
                             attempts=(0,)),)
        )
        with make_executor(
            factory, shards=2, backend="serial",
            policy=policy, injector=injector,
        ) as ex:
            ex.enroll(n_captures=4)
            with pytest.raises(FleetDispatchError):
                ex.scan()


class TestSerialBackendRecovery:
    """The ladder applies inline too (crash degrades to a raise)."""

    def test_serial_backend_retries_injected_errors(
        self, factory, healthy_reference
    ):
        _, healthy_one, _ = healthy_reference
        injector = FaultInjector(
            specs=(
                FaultSpec(kind="error", shard=0, mode="scan",
                          attempts=(0,)),
                FaultSpec(kind="crash", shard=1, mode="scan",
                          attempts=(0, 1)),
            )
        )
        with make_executor(
            factory, shards=2, backend="serial",
            policy=FAST_POLICY, injector=injector,
        ) as ex:
            ex.enroll(n_captures=4)
            outcome = ex.scan()
            assert outcome.degraded
            by_shard = {h.shard: h for h in outcome.shard_health}
            assert by_shard[0].faults == ("error",)
            assert by_shard[1].faults == ("crash", "crash")
            assert outcome.canonical_bytes() == \
                healthy_one.canonical_bytes()


class TestPolicyAndInjectorValidation:
    def test_retry_policy_rejects_bad_values(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_base_s=-0.1)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_factor=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(shard_timeout_base_s=0.0)
        with pytest.raises(ValueError):
            RetryPolicy(shard_timeout_per_capture_s=-1.0)

    def test_backoff_is_bounded_and_exponential(self):
        policy = RetryPolicy(
            backoff_base_s=0.1, backoff_factor=2.0, backoff_max_s=0.5
        )
        assert policy.backoff_s(0) == 0.0
        assert policy.backoff_s(1) == pytest.approx(0.1)
        assert policy.backoff_s(2) == pytest.approx(0.2)
        assert policy.backoff_s(10) == pytest.approx(0.5)

    def test_shard_timeout_scales_with_the_workload(self):
        policy = RetryPolicy(
            shard_timeout_base_s=10.0, shard_timeout_per_capture_s=0.5
        )
        assert policy.shard_timeout_s(4, 8) == pytest.approx(10.0 + 16.0)
        assert policy.shard_timeout_s(0, 8) == pytest.approx(10.0)
        unlimited = RetryPolicy(shard_timeout_base_s=None)
        assert unlimited.shard_timeout_s(4, 8) is None

    def test_fault_spec_validation(self):
        with pytest.raises(ValueError):
            FaultSpec(kind="explode", shard=0)
        with pytest.raises(ValueError):
            FaultSpec(kind="crash", shard=-1)
        with pytest.raises(ValueError):
            FaultSpec(kind="slow", shard=0, seconds=-1.0)
        # A fault outside every shard operation, or on an attempt that
        # never runs, would silently never fire.
        with pytest.raises(ValueError, match="mode"):
            FaultSpec(kind="error", shard=0, mode="scna")
        with pytest.raises(ValueError, match="attempts"):
            FaultSpec(kind="error", shard=0, attempts=(-1,))
        with pytest.raises(ValueError, match="attempts"):
            FaultSpec(kind="error", shard=0, attempts=(0, -2))
        for mode in ("enroll", "scan", "identify"):
            assert FaultSpec(kind="error", shard=0, mode=mode).mode == mode

    def test_injector_schedule_is_a_pure_lookup(self):
        spec = FaultSpec(kind="error", shard=1, mode="scan", attempts=(0, 2))
        injector = FaultInjector(specs=(spec,))
        assert injector.spec_for("scan", 1, 0) is spec
        assert injector.spec_for("scan", 1, 2) is spec
        assert injector.spec_for("scan", 1, 1) is None
        assert injector.spec_for("enroll", 1, 0) is None
        assert injector.spec_for("scan", 0, 0) is None

    def test_crash_in_parent_raises_instead_of_exiting(self):
        injector = FaultInjector(
            specs=(FaultSpec(kind="crash", shard=0, attempts=(0,)),)
        )
        with pytest.raises(InjectedFault) as excinfo:
            injector.apply("scan", 0, 0)
        assert excinfo.value.kind == "crash"

    def test_available_workers_clamps_to_cores(self):
        import os
        try:
            cores = len(os.sched_getaffinity(0))
        except AttributeError:
            cores = os.cpu_count() or 1
        assert available_workers(1) == 1
        assert available_workers(64) == min(64, cores)
        assert available_workers(64) >= 1
        with pytest.raises(ValueError):
            available_workers(0)


class FakeTask:
    def __init__(self, shard):
        self.shard = shard


class TestRecoveryEngine:
    """The ladder itself, against fake backends (no processes)."""

    @staticmethod
    def run(tasks, policy, fail_plan, rebuilds=None):
        """Drive the engine with a backend failing per ``fail_plan``:
        a dict (shard, attempt) -> AttemptFailure."""

        def start(task, attempt):
            return (task.shard, attempt)

        def collect(handle, task, attempt):
            failure = fail_plan.get(handle)
            if failure is not None:
                raise failure
            return [f"out-{task.shard}"]

        def serial_run(task):
            failure = fail_plan.get((task.shard, "fallback"))
            if failure is not None:
                raise InjectedFault("error", "fallback failed")
            return [f"out-{task.shard}"]

        return run_with_recovery(
            tasks,
            policy,
            start=start,
            collect=collect,
            serial_run=serial_run,
            on_rebuild=((lambda: rebuilds.append(1))
                        if rebuilds is not None else None),
            sleep=lambda s: None,
        )

    def test_clean_round_is_one_attempt_each(self):
        tasks = [FakeTask(0), FakeTask(1)]
        outputs, healths = self.run(tasks, RetryPolicy(), {})
        assert outputs == [["out-0"], ["out-1"]]
        assert all(h.outcome == "ok" and h.attempts == 1 for h in healths)
        assert not any(h.degraded for h in healths)

    def test_transient_failure_retries_in_place(self):
        tasks = [FakeTask(0), FakeTask(1)]
        plan = {(1, 0): AttemptFailure("error")}
        outputs, healths = self.run(tasks, RetryPolicy(), plan)
        assert outputs == [["out-0"], ["out-1"]]
        assert healths[0].outcome == "ok"
        assert healths[1].outcome == "retried"
        assert healths[1].attempts == 2
        assert healths[1].faults == ("error",)

    def test_rebuild_fires_once_per_failed_round(self):
        tasks = [FakeTask(0), FakeTask(1)]
        plan = {
            (0, 0): AttemptFailure("broken_pool", rebuild_pool=True),
            (1, 0): AttemptFailure("broken_pool", rebuild_pool=True),
        }
        rebuilds = []
        outputs, healths = self.run(tasks, RetryPolicy(), plan, rebuilds)
        assert outputs == [["out-0"], ["out-1"]]
        assert len(rebuilds) == 1  # one teardown covers the whole round
        assert all(h.outcome == "retried" for h in healths)

    def test_exhausted_budget_falls_back_serially(self):
        tasks = [FakeTask(0)]
        policy = RetryPolicy(max_retries=1)
        plan = {
            (0, 0): AttemptFailure("timeout", rebuild_pool=True),
            (0, 1): AttemptFailure("timeout", rebuild_pool=True),
        }
        outputs, healths = self.run(tasks, policy, plan)
        assert outputs == [["out-0"]]
        assert healths[0].outcome == SERIAL_FALLBACK
        assert healths[0].attempts == 3  # two pool tries + the fallback
        assert healths[0].faults == ("timeout", "timeout")

    def test_failed_fallback_is_terminal(self):
        tasks = [FakeTask(0)]
        policy = RetryPolicy(max_retries=0)
        plan = {
            (0, 0): AttemptFailure("error"),
            (0, "fallback"): AttemptFailure("error"),
        }
        with pytest.raises(FleetDispatchError):
            self.run(tasks, policy, plan)

    def test_no_fallback_is_terminal_after_retries(self):
        tasks = [FakeTask(0)]
        policy = RetryPolicy(max_retries=0, serial_fallback=False)
        with pytest.raises(FleetDispatchError):
            self.run(tasks, policy, {(0, 0): AttemptFailure("error")})

    def test_backoff_consults_the_policy(self):
        tasks = [FakeTask(0)]
        policy = RetryPolicy(
            max_retries=2, backoff_base_s=0.1, backoff_factor=3.0,
            backoff_max_s=10.0,
        )
        slept = []

        def start(task, attempt):
            return attempt

        def collect(handle, task, attempt):
            if attempt < 2:
                raise AttemptFailure("error")
            return ["done"]

        outputs, healths = run_with_recovery(
            tasks, policy, start=start, collect=collect,
            serial_run=lambda task: ["done"], sleep=slept.append,
        )
        assert outputs == [["done"]]
        assert slept == [pytest.approx(0.1), pytest.approx(0.3)]
