"""Property pins for fault recovery: no schedule can reorder the fleet.

The recovery engine (``repro.core.faults.run_with_recovery``) retries,
rebuilds, and serially re-runs shards — but it must never change *which*
outputs come back or *in what order* the caller's merge sees them.
Hypothesis drives the engine with arbitrary failure schedules (any
fault kind, any shard, any rung of the ladder) against a fake backend
and pins:

* outputs stay aligned to task order, whatever fails when;
* merged fleet records equal the unsharded reference for every
  partition x schedule combination;
* health accounting is exact: attempts, faults, and outcome labels
  match the injected schedule;
* on the real process pool, 2- and 4-shard runs under injected fault
  schedules enroll, scan and identify byte-identically to one serial
  shard.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.core import (
    Authenticator,
    FleetScanExecutor,
    prototype_itdr,
    prototype_itdr_config,
    prototype_line_factory,
)
from repro.core.divot import Action
from repro.core.faults import (
    SERIAL_FALLBACK,
    AttemptFailure,
    FaultInjector,
    FaultSpec,
    FleetDispatchError,
    RetryPolicy,
    run_with_recovery,
)
from repro.core.fleet import (
    FleetRecord,
    merge_shard_outputs,
    partition_fleet,
)
from repro.protocols.link import default_tamper_detector

MAX_RETRIES = 2

#: A failure schedule: for each shard, the set of pool attempts that
#: fail (subset of {0 .. MAX_RETRIES}).  The serial fallback always
#: succeeds here, so every schedule is recoverable by construction;
#: terminal failures are pinned separately below.
fault_kinds = st.sampled_from(["error", "timeout", "broken_pool", "crash"])
attempt_sets = st.sets(
    st.integers(min_value=0, max_value=MAX_RETRIES), max_size=MAX_RETRIES + 1
)


def fake_record(index: int, shard: int) -> FleetRecord:
    return FleetRecord(
        index=index,
        bus=f"bus-{index}",
        shard=shard,
        action=Action.PROCEED if index % 3 else Action.ALERT,
        score=1.0 - index * 1e-3,
        tampered=bool(index % 3 == 0),
        location_m=None if index % 2 else 0.01 * index,
    )


class FakeShardTask:
    """Stands in for ``_ShardTask``: a shard id plus its bus indices."""

    def __init__(self, shard, indices):
        self.shard = shard
        self.indices = indices

    def outputs(self):
        return [(i, fake_record(i, self.shard)) for i in self.indices]


def run_schedule(tasks, schedule, kinds):
    """Drive the recovery engine with a deterministic failure schedule.

    ``schedule[shard]`` is the set of attempts that fail for that
    shard; ``kinds[shard]`` the fault kind they fail with.
    """

    def start(task, attempt):
        return attempt

    def collect(attempt, task, _attempt):
        if attempt in schedule.get(task.shard, set()):
            kind = kinds.get(task.shard, "error")
            raise AttemptFailure(
                kind, rebuild_pool=kind in ("timeout", "broken_pool")
            )
        return task.outputs()

    return run_with_recovery(
        tasks,
        RetryPolicy(max_retries=MAX_RETRIES),
        start=start,
        collect=collect,
        serial_run=lambda task: task.outputs(),
        sleep=lambda s: None,
    )


class TestFaultSchedulesNeverReorder:
    @given(
        n=st.integers(min_value=1, max_value=64),
        shards=st.integers(min_value=1, max_value=8),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_merged_records_match_the_unsharded_reference(
        self, n, shards, data
    ):
        chunks = partition_fleet(n, shards)
        tasks = [
            FakeShardTask(shard, chunk)
            for shard, chunk in enumerate(chunks)
            if chunk
        ]
        schedule = {
            task.shard: data.draw(attempt_sets, label=f"fails[{task.shard}]")
            for task in tasks
        }
        kinds = {
            task.shard: data.draw(fault_kinds, label=f"kind[{task.shard}]")
            for task in tasks
        }
        outputs, healths = run_schedule(tasks, schedule, kinds)

        # The engine never reorders: outputs align to task order, and
        # the merge reproduces the unsharded reference exactly.
        merged = merge_shard_outputs(outputs)
        reference = [fake_record(i, 0) for i in range(n)]
        assert [r.index for r in merged] == list(range(n))
        for got, want in zip(merged, reference):
            assert (got.index, got.bus, got.action, got.score,
                    got.tampered, got.location_m) == (
                want.index, want.bus, want.action, want.score,
                want.tampered, want.location_m)

    @given(
        shards=st.integers(min_value=1, max_value=8),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_health_accounting_matches_the_schedule(self, shards, data):
        chunks = partition_fleet(16, shards)
        tasks = [
            FakeShardTask(shard, chunk)
            for shard, chunk in enumerate(chunks)
            if chunk
        ]
        schedule = {
            task.shard: data.draw(attempt_sets, label=f"fails[{task.shard}]")
            for task in tasks
        }
        kinds = {task.shard: "error" for task in tasks}
        _, healths = run_schedule(tasks, schedule, kinds)
        for task, health in zip(tasks, healths):
            fails = schedule[task.shard]
            # Only the consecutive failing prefix from attempt 0 ever
            # executes: a scheduled failure on a later attempt is dead
            # once an earlier attempt succeeded.
            first_ok = next(
                (a for a in range(MAX_RETRIES + 1) if a not in fails),
                None,
            )
            if first_ok == 0:
                assert health.outcome == "ok"
                assert health.attempts == 1
                assert health.faults == ()
            elif first_ok is None:
                # Every pool rung failed: rescued by the fallback.
                assert health.outcome == SERIAL_FALLBACK
                assert health.attempts == MAX_RETRIES + 2
                assert len(health.faults) == MAX_RETRIES + 1
            else:
                assert health.outcome == "retried"
                assert health.attempts == first_ok + 1
                assert len(health.faults) == first_ok

    @given(n=st.integers(min_value=1, max_value=32))
    @settings(max_examples=20, deadline=None)
    def test_unrecoverable_schedule_is_terminal_not_wrong(self, n):
        """When even the fallback fails, the engine raises — it never
        returns a partial fleet."""
        tasks = [FakeShardTask(0, list(range(n)))]

        def start(task, attempt):
            return attempt

        def collect(attempt, task, _attempt):
            raise AttemptFailure("error")

        def serial_run(task):
            raise RuntimeError("fallback refused")

        with pytest.raises(FleetDispatchError):
            run_with_recovery(
                tasks,
                RetryPolicy(max_retries=MAX_RETRIES),
                start=start,
                collect=collect,
                serial_run=serial_run,
                sleep=lambda s: None,
            )


def run_real_fleet(shards, backend, injector=None):
    """Enroll, scan and identify four real buses; canonical artefacts."""
    executor = FleetScanExecutor(
        Authenticator(0.85),
        default_tamper_detector(prototype_itdr()),
        itdr_config=prototype_itdr_config(),
        captures_per_check=2,
        shards=shards,
        backend=backend,
        seed=23,
        retry_policy=RetryPolicy(
            max_retries=MAX_RETRIES, backoff_base_s=0.0,
            shard_timeout_base_s=60.0,
        ),
        fault_injector=injector,
    )
    with executor:
        for line in prototype_line_factory().manufacture_batch(
            4, first_seed=470
        ):
            executor.register(line)
        fingerprints = executor.enroll(n_captures=2)
        scan = executor.scan()
        identify = executor.identify_scan()
    return (
        b"".join(fp.samples.tobytes() for fp in fingerprints.values()),
        scan,
        identify,
    )


@pytest.fixture(scope="module")
def serial_reference():
    return run_real_fleet(1, "serial")


class TestRealPoolSchedules:
    """The invariance above, on real workers: a fault schedule may move
    a shard to a retry or to the in-parent fallback, never change what
    it measured."""

    @pytest.mark.parametrize(
        "shards, attempts",
        [(4, ()), (2, (0,)), (4, (0, 1)), (2, (0, 1, 2))],
        ids=["4-clean", "2-retry", "4-retry-twice", "2-fallback"],
    )
    def test_process_runs_match_one_serial_shard(
        self, serial_reference, shards, attempts
    ):
        injector = FaultInjector(specs=tuple(
            FaultSpec(kind="error", shard=1, mode=mode, attempts=attempts)
            for mode in ("enroll", "scan", "identify")
        )) if attempts else None
        fingerprints, scan, identify = run_real_fleet(
            shards, "process", injector
        )
        ref_fingerprints, ref_scan, ref_identify = serial_reference
        assert fingerprints == ref_fingerprints
        assert scan.canonical_bytes() == ref_scan.canonical_bytes()
        assert identify.canonical_bytes() == ref_identify.canonical_bytes()
        assert scan.degraded == bool(attempts)
        assert identify.degraded == bool(attempts)
        if len(attempts) > MAX_RETRIES:
            assert scan.shard_health[1].outcome == SERIAL_FALLBACK
