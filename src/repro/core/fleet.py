"""Sharded fleet scans: one datapath design, many cores, one outcome.

The paper's scaling argument (sections I and V) is that one shared iTDR
datapath protects many buses; :class:`~repro.core.manager.SharedITDRManager`
exposes the resulting linear detection-latency curve, but every scan still
runs on one core.  The expensive part we simulate — the physics solve plus
the ``(N, points)`` probability pass of ``ITDR.capture_stack`` — is
embarrassingly parallel across buses, so a fleet partitions cleanly into
shards, each shard running on its own process.

Determinism is the design constraint, not an afterthought:

* every bus gets its own child of one ``np.random.SeedSequence`` root,
  spawned **in the parent, in registration order** — the stream a bus
  consumes is a pure function of (seed, operation index, bus index) and
  can never depend on which shard, process, or backend executed it;
* each worker rebinds its persistent iTDR's generator to the visiting
  bus's stream before measuring, so a fleet scan's outcome is byte-
  identical across ``shards=1`` serial and ``shards=K`` parallel;
* merged events are ordered by bus registration index and timestamped by
  the parent's :class:`~repro.core.runtime.RoundRobinCadence` clock, so
  the unified runtime (event log, telemetry, latency arithmetic) sees the
  same stream a one-core scan would have produced.

Worker processes are reused across scans (the pool stays open for the
executor's lifetime) and each keeps one iTDR per configuration digest.
Solved reflections live in the worker's process-wide solve memo
(:func:`~repro.core.solvecache.process_solve_cache`), whose capacity
holds every bus a worker serves at benchmark scale, so re-scanning an
unchanged fleet pays zero physics solves per worker after the first
pass.  The fused kernel's decision tables are memoised for one state
only, so a round-robin scan rebuilds them once per bus visit — by design:
holding them for every bus would cost ~30x the reflection's memory.

Worker failure is an expected event, not an abort: dispatch runs every
shard through the :mod:`~repro.core.faults` recovery ladder (bounded
retries with backoff, pool teardown and rebuild on a broken pool or a
hung worker, in-parent serial re-execution as the terminal rung).
Because the per-bus seed streams above are spawned before any dispatch,
a retried or serially re-run shard measures exactly what the first
attempt would have — recovery is invisible in ``canonical_bytes`` and
visible only in the ``degraded``/``shard_health`` provenance.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import pickle
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..txline.line import TransmissionLine
from .auth import Authenticator
from .divot import Action, DivotEndpoint, EndpointState, MonitorResult
from .faults import (
    SERIAL_FALLBACK,
    AttemptFailure,
    FaultInjector,
    InjectedFault,
    RetryPolicy,
    ShardHealth,
    run_with_recovery,
)
from .fingerprint import Fingerprint
from .identify import FingerprintStore, SketchSpec, UpdatePolicy
from .itdr import ITDR, ITDRConfig
from .resources import ResourceModel, ResourceReport
from .runtime import MonitorEvent, MonitorRuntime, RoundRobinCadence, Telemetry
from .solvecache import SolveCache, process_solve_cache
from .tamper import TamperDetector
from .transport import pack_into, unpack

__all__ = [
    "FleetIdentifyOutcome",
    "FleetIdentifyRecord",
    "FleetRecord",
    "FleetScanOutcome",
    "FleetScanExecutor",
    "available_workers",
    "merge_shard_outputs",
    "partition_fleet",
    "spawn_bus_streams",
]


# ----------------------------------------------------------------------
# pure sharding arithmetic (property-tested in tests/property/)
# ----------------------------------------------------------------------
def partition_fleet(n_items: int, shards: int) -> List[List[int]]:
    """Split ``range(n_items)`` into ``shards`` contiguous balanced chunks.

    Every index lands in exactly one shard, chunk sizes differ by at most
    one, and concatenating the chunks recovers registration order —
    the invariants the deterministic merge relies on.  Shards beyond the
    item count come back empty rather than erroring, so a 4-shard
    executor handles a 2-bus fleet.
    """
    if n_items < 0:
        raise ValueError("n_items must be non-negative")
    if shards < 1:
        raise ValueError("shards must be >= 1")
    base, extra = divmod(n_items, shards)
    chunks, start = [], 0
    for shard in range(shards):
        size = base + (1 if shard < extra else 0)
        chunks.append(list(range(start, start + size)))
        start += size
    return chunks


def spawn_bus_streams(
    root: np.random.SeedSequence, n_buses: int
) -> List[np.random.SeedSequence]:
    """One child seed stream per bus, spawned in registration order.

    Spawning happens in the parent before any partitioning, so the
    stream bus ``i`` consumes is identical no matter how the fleet is
    sharded — the invariant that makes serial and parallel scans
    byte-identical.  Successive calls on the same root keep advancing
    its spawn counter, giving later operations (each scan) fresh but
    reproducible streams.
    """
    if n_buses < 1:
        raise ValueError("n_buses must be >= 1")
    return root.spawn(n_buses)


# ----------------------------------------------------------------------
# records crossing the process boundary
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FleetRecord:
    """One bus's monitoring outcome within a fleet scan.

    The flattened, picklable projection of a
    :class:`~repro.core.divot.MonitorResult` that travels back from a
    shard worker.  ``shard`` is provenance only: every other field is a
    pure function of (fleet, seed, bus) and independent of sharding.
    """

    index: int
    bus: str
    shard: int
    action: Action
    score: float
    tampered: bool
    location_m: Optional[float]
    #: Peak of the smoothed error function E_xy this visit measured —
    #: the tamper detector's decision statistic, carried home so
    #: threshold sweeps (ROC curves, campaign frontiers) can re-judge
    #: the same measurement at any operating point.  Measurement
    #: content, so included in the canonical bytes.
    peak_error: float = 0.0
    #: Provenance like ``shard``: how this bus's shard got done when it
    #: needed recovery ("retried" / "serial_fallback"), None when the
    #: first attempt succeeded.  Excluded from the canonical bytes.
    recovery: Optional[str] = None
    #: Registry name of the bus's protected-link protocol, stamped by the
    #: parent from its registration table.  Registration metadata rather
    #: than measurement content, so excluded from the canonical bytes
    #: (it is a pure function of the fleet, not of the scan).
    protocol: Optional[str] = None

    @property
    def is_alert(self) -> bool:
        """Whether this bus demands a reaction (non-PROCEED)."""
        return self.action is not Action.PROCEED

    @classmethod
    def from_result(
        cls, index: int, bus: str, shard: int, result: MonitorResult
    ) -> "FleetRecord":
        """Flatten one endpoint decision for the trip home."""
        return cls(
            index=index,
            bus=bus,
            shard=shard,
            action=result.action,
            score=result.auth.score,
            tampered=result.tamper.tampered,
            location_m=result.tamper.location_m,
            peak_error=result.tamper.peak_error,
        )


@dataclass(frozen=True)
class FleetScanOutcome:
    """One full fleet scan, records in bus registration order.

    ``degraded`` and ``shard_health`` are recovery provenance: whether
    any shard needed the retry/fallback ladder, and the per-shard
    attempt/fault accounting.  Like the ``shard`` labels they are
    excluded from :meth:`canonical_bytes` — recovery may change where
    and when a shard ran, never what it measured.
    """

    records: Tuple[FleetRecord, ...]
    shards: int
    backend: str
    degraded: bool = False
    shard_health: Tuple[ShardHealth, ...] = ()

    def alerts(self) -> List[Tuple[str, FleetRecord]]:
        """(bus name, record) pairs that did not PROCEED."""
        return [(r.bus, r) for r in self.records if r.is_alert]

    def all_clear(self) -> bool:
        """Whether every bus authenticated cleanly this scan."""
        return not self.alerts()

    def canonical_bytes(self) -> bytes:
        """Deterministic serialisation of the shard-independent outcome.

        Serial ``shards=1`` and parallel ``shards=K`` scans of the same
        fleet and seed produce identical bytes — the byte-identity
        contract ``tests/core/test_fleet.py`` pins.  The ``shard`` and
        ``recovery`` provenance labels (and the outcome-level
        ``degraded``/``shard_health``) are excluded because they are
        the fields that legitimately vary with the partition and with
        worker failures.
        """
        payload = tuple(
            (r.index, r.bus, r.action.value, r.score, r.tampered,
             r.location_m, r.peak_error)
            for r in self.records
        )
        return pickle.dumps(payload, protocol=4)


@dataclass(frozen=True)
class FleetIdentifyRecord:
    """One bus's outcome within a fleet identification scan.

    ``identified`` is the store's rank-1 answer for the capture this bus
    produced; ``correct`` compares it to the registered identity (the
    scan's ground truth).  ``shard``/``recovery`` are provenance only,
    excluded from the canonical bytes like their :class:`FleetRecord`
    counterparts.
    """

    index: int
    bus: str
    shard: int
    identified: Optional[str]
    score: float
    accepted: bool
    runner_up: Optional[str]
    separation: Optional[float]
    recovery: Optional[str] = None
    #: Registration metadata like :attr:`FleetRecord.protocol`; excluded
    #: from the canonical bytes.
    protocol: Optional[str] = None

    @property
    def correct(self) -> bool:
        """Whether the store's rank-1 answer names the capture's true bus."""
        return self.identified == self.bus


@dataclass(frozen=True)
class FleetIdentifyOutcome:
    """One fleet-wide identification pass, records in registration order."""

    records: Tuple[FleetIdentifyRecord, ...]
    shards: int
    backend: str
    store_digest: str
    method: str
    degraded: bool = False
    shard_health: Tuple[ShardHealth, ...] = ()

    def rank1_accuracy(self) -> float:
        """Fraction of buses the store identified correctly at rank 1."""
        if not self.records:
            return 0.0
        return sum(r.correct for r in self.records) / len(self.records)

    def misidentified(self) -> List[Tuple[str, FleetIdentifyRecord]]:
        """(bus name, record) pairs where rank-1 named the wrong bus."""
        return [(r.bus, r) for r in self.records if not r.correct]

    def canonical_bytes(self) -> bytes:
        """Deterministic serialisation of the shard-independent outcome.

        Mirrors :meth:`FleetScanOutcome.canonical_bytes`: the measurement
        and identification content is a pure function of (fleet, seed,
        store), so serial and K-shard passes produce identical bytes;
        ``shard``/``recovery``/health provenance is excluded.  Serialised
        as JSON rather than pickle: identify records repeat the bus name
        in two fields (``bus`` and ``identified``), and pickle's string
        memoisation would make the bytes depend on whether those are one
        interned object (in-parent serial run) or two equal ones (worker
        round trip) — value-based JSON sees only the content.
        """
        payload = [
            [r.index, r.bus, r.identified, r.score, r.accepted,
             r.runner_up, r.separation]
            for r in self.records
        ]
        return json.dumps(payload).encode()


# ----------------------------------------------------------------------
# the worker side
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _BusWork:
    """Everything one bus visit needs, shipped by value to its shard."""

    index: int
    name: str
    seed: np.random.SeedSequence
    line: TransmissionLine
    fingerprint: Optional[Fingerprint] = None
    modifiers: Tuple = ()


@dataclass(frozen=True)
class _ShardTask:
    """One shard's worth of bus visits plus the shared policies."""

    shard: int
    mode: str  # "enroll" | "scan"
    work: Tuple[_BusWork, ...]
    config: ITDRConfig
    config_key: str
    authenticator: Authenticator
    tamper_detector: TamperDetector
    captures_per_check: int
    n_captures: int
    engine: str
    interference: object = None
    #: Which rung of the recovery ladder this execution is (0 = first
    #: try); provenance for the fault injector, never for measurement.
    attempt: int = 0
    #: Deterministic failure schedule (testing harness); None in
    #: production.
    fault_injector: Optional[FaultInjector] = None


#: Per-process measurement state, keyed by the iTDR configuration digest.
#: A worker reuses one iTDR across every task it executes.  The solves it
#: needs live in the process-wide solve memo, which outlives any one iTDR,
#: so repeated scans of the same fleet re-solve no physics; the iTDR's
#: own state is its probe edge and its one-entry decision-table memo.
#: The generator is rebound per bus visit, so the persistent instance
#: never couples stochastic streams across buses.
_WORKER_ITDRS: Dict[str, ITDR] = {}


def _worker_itdr(config_key: str, config: ITDRConfig) -> ITDR:
    itdr = _WORKER_ITDRS.get(config_key)
    if itdr is None:
        itdr = ITDR(config)
        _WORKER_ITDRS[config_key] = itdr
    return itdr


def _run_shard(task: _ShardTask) -> tuple:
    """Execute one shard's visits; also the serial backend's inner loop.

    Runs identically inline (serial backend) and in a pool worker
    (process backend): per bus, rebind the iTDR generator to the bus's
    own stream, then enroll or monitor.  Nothing here may depend on
    shard identity except the provenance label on the records.

    Returns ``(items, cache_delta, kernel_delta)``: the ``(index,
    payload)`` pairs plus the solve-cache hit/miss/eviction and
    capture-kernel counters this shard contributed — provenance the
    parent folds into telemetry, never into outcomes.
    """
    if task.fault_injector is not None:
        task.fault_injector.apply(task.mode, task.shard, task.attempt)
    solve_stats_before = process_solve_cache().stats()
    itdr = _worker_itdr(task.config_key, task.config)
    kernel_before = itdr.kernel_stats.snapshot()
    out = []
    for work in task.work:
        line = work.line
        itdr.rng = np.random.default_rng(work.seed)
        endpoint = DivotEndpoint(
            name=f"fleet/{work.name}",
            itdr=itdr,
            authenticator=task.authenticator,
            tamper_detector=task.tamper_detector,
            captures_per_check=task.captures_per_check,
        )
        if task.mode == "enroll":
            fingerprint = endpoint.calibrate(
                line, n_captures=task.n_captures, engine=task.engine
            )
            out.append((work.index, fingerprint))
        elif task.mode == "identify":
            # The 1:N store lives in the parent (shipping 10^4+ templates
            # to every worker would dwarf the capture cost); a worker's
            # job is only the averaged measurement, on the same per-bus
            # stream discipline as every other mode.
            capture = itdr.capture_averaged(
                line,
                task.captures_per_check,
                modifiers=work.modifiers,
                interference=task.interference,
                engine=task.engine,
            )
            out.append((work.index, (task.shard, capture)))
        else:
            # The fleet's reference for this bus is authoritative even if
            # it was enrolled (or swapped in) under another line's name.
            reference = work.fingerprint
            if reference.name != line.name:
                reference = replace(reference, name=line.name)
            endpoint.rom.store(reference)
            endpoint.state = EndpointState.MONITORING
            result = endpoint.monitor_capture(
                line,
                modifiers=work.modifiers,
                interference=task.interference,
                engine=task.engine,
            )
            out.append(
                (
                    work.index,
                    FleetRecord.from_result(
                        work.index, work.name, task.shard, result
                    ),
                )
            )
    solve_stats_after = process_solve_cache().stats()
    cache_delta = {
        key: solve_stats_after[key] - solve_stats_before[key]
        for key in SolveCache.COUNTER_KEYS
    }
    return out, cache_delta, itdr.kernel_stats.delta(kernel_before)


def _run_packed_shard(payload: bytes) -> tuple:
    """Pool entry point: rebuild a :func:`pack_into` task and run it."""
    return _run_shard(unpack(payload))


def merge_shard_outputs(shard_outputs: Sequence[Sequence[tuple]]) -> list:
    """Flatten per-shard ``(index, payload)`` pairs back to fleet order.

    Shards may complete in any order and may have been partitioned any
    way; sorting on the registration index restores the one canonical
    order, so the merged stream is partition- and scheduling-independent
    (property-pinned in ``tests/property/test_fleet_sharding.py``).
    """
    merged = sorted(
        (item for out in shard_outputs for item in out), key=lambda p: p[0]
    )
    indices = [index for index, _ in merged]
    if len(set(indices)) != len(indices):
        raise ValueError("shard outputs overlap: a bus was visited twice")
    return [payload for _, payload in merged]


# ----------------------------------------------------------------------
# the executor
# ----------------------------------------------------------------------
def available_workers(shards: int) -> int:
    """Worker processes a ``shards``-way pool should actually spawn.

    Clamped to the cores this process may run on: a 64-shard request on
    a 4-core box gets 4 workers (shard *tasks* still number 64 — they
    queue), instead of 64 processes thrashing the scheduler.
    """
    if shards < 1:
        raise ValueError("shards must be >= 1")
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux fallback
        cores = os.cpu_count() or 1
    return max(1, min(shards, cores))


class FleetScanExecutor:
    """Sharded round-robin DIVOT protection of a registered bus fleet.

    The fleet-scale sibling of
    :class:`~repro.core.manager.SharedITDRManager`: same lifecycle
    (register, enroll, scan), same unified-runtime surface (canonical
    events on the round-robin clock, workload-lifetime
    :class:`Telemetry`), but captures execute on a process pool
    partitioned by :func:`partition_fleet` — with a serial fallback
    backend producing byte-identical outcomes.

    Args:
        authenticator / tamper_detector: Shared decision policies
            (shipped to every shard).
        itdr_config: The datapath configuration every worker instantiates;
            the executor owns iTDR construction because per-bus seed
            discipline is its job.
        captures_per_check: Averaging depth per bus visit.
        shards: Number of fleet partitions (1 = no parallelism).
        backend: ``"auto"`` (process pool when ``shards > 1``),
            ``"serial"``, or ``"process"``.  The process backend ships
            each shard task as one pickle (:mod:`repro.core.transport`).
        seed: Root of the ``SeedSequence`` tree every stochastic draw in
            the fleet descends from.
        engine: Physics engine threaded through every capture.
        retry_policy: The recovery ladder for failed shard attempts
            (default :class:`~repro.core.faults.RetryPolicy`): bounded
            retries with backoff, pool rebuild on broken/hung pools,
            serial fallback as the terminal rung.
        fault_injector: Deterministic failure schedule for tests; None
            in production.
    """

    def __init__(
        self,
        authenticator: Authenticator,
        tamper_detector: TamperDetector,
        itdr_config: Optional[ITDRConfig] = None,
        captures_per_check: int = 1,
        shards: int = 1,
        backend: str = "auto",
        seed: int = 0,
        engine: str = "born",
        retry_policy: Optional[RetryPolicy] = None,
        fault_injector: Optional[FaultInjector] = None,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        if shards < 1:
            raise ValueError("shards must be >= 1")
        if backend not in ("auto", "serial", "process"):
            raise ValueError("backend must be 'auto', 'serial' or 'process'")
        if captures_per_check < 1:
            raise ValueError("captures_per_check must be >= 1")
        self.authenticator = authenticator
        self.tamper_detector = tamper_detector
        self.itdr_config = (
            itdr_config if itdr_config is not None else ITDRConfig()
        )
        self.captures_per_check = captures_per_check
        self.shards = shards
        self.backend = backend
        self.seed = seed
        self.engine = engine
        self.retry_policy = (
            retry_policy if retry_policy is not None else RetryPolicy()
        )
        self.fault_injector = fault_injector
        #: Parent-side iTDR: cadence sizing and resource arithmetic only —
        #: it never measures, so its generator is never consumed.
        self.itdr = ITDR(self.itdr_config)
        self._config_key = hashlib.sha256(
            pickle.dumps(self.itdr_config, protocol=4)
        ).hexdigest()
        self._root = np.random.SeedSequence(seed)
        self._buses: Dict[str, TransmissionLine] = {}
        self._protocols: Dict[str, Optional[str]] = {}
        self._fingerprints: Dict[str, Fingerprint] = {}
        self._blocked: Dict[str, bool] = {}
        #: Workload-lifetime telemetry; every scan folds into it.  A
        #: shared sink may be passed in so several executors (e.g. one
        #: campaign arm each) aggregate into one snapshot surface.
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self._runtime = MonitorRuntime(telemetry=self.telemetry)
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_rebuilds = 0

    # -- fleet membership ----------------------------------------------
    def register(
        self, line: TransmissionLine, protocol: Optional[str] = None
    ) -> None:
        """Put a bus under protection (enrolls lazily via :meth:`enroll`).

        ``protocol`` is an opaque protected-link label (a registry name
        such as ``"jtag"``); it rides on this bus's records and events so
        mixed-protocol fleets get per-protocol telemetry cells, and never
        influences measurement.
        """
        if self._fingerprints:
            raise RuntimeError(
                "cannot register new buses after enroll(); seed streams "
                "are spawned per registration order"
            )
        if line.name in self._buses:
            raise ValueError(f"bus {line.name!r} already registered")
        self._buses[line.name] = line
        self._protocols[line.name] = protocol
        self._blocked[line.name] = False

    @property
    def n_buses(self) -> int:
        """Registered bus count."""
        return len(self._buses)

    def bus_names(self) -> List[str]:
        """Registered bus names in registration (= scan) order."""
        return list(self._buses)

    def bus_protocols(self) -> Dict[str, Optional[str]]:
        """Protocol label per registered bus, in registration order."""
        return dict(self._protocols)

    def is_blocked(self, name: str) -> bool:
        """Whether a specific bus is currently refused service."""
        return self._blocked[name]

    @property
    def event_log(self):
        """Canonical per-bus events from every scan so far."""
        return self._runtime.log

    # -- backend plumbing ----------------------------------------------
    def resolved_backend(self) -> str:
        """The backend a scan will actually use."""
        if self.backend != "auto":
            return self.backend
        return "process" if self.shards > 1 else "serial"

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=available_workers(self.shards)
            )
        return self._pool

    def _rebuild_pool(self) -> None:
        """Tear down a pool that can no longer be trusted.

        Called by the recovery engine after a ``BrokenProcessPool`` or a
        hung-worker timeout; the next :meth:`_ensure_pool` builds a
        fresh pool, so one worker death never bricks later scans.
        ``wait=False``: a wedged worker must not block recovery.
        """
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None
        self._pool_rebuilds += 1

    def close(self) -> None:
        """Shut the worker pool down (idempotent).

        Pending shard submissions are cancelled so a hung scan cannot
        block interpreter exit behind a queue of undone work.
        """
        if self._pool is not None:
            self._pool.shutdown(cancel_futures=True)
            self._pool = None

    def __enter__(self) -> "FleetScanExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- resilient dispatch --------------------------------------------
    def _serial_fallback_run(self, task: _ShardTask) -> list:
        """Terminal recovery rung: re-run one shard inline in the parent.

        The attempt number is ``max_retries + 1`` so a fault schedule
        aimed at pool attempts does not re-fire here (and so tests can
        target the fallback explicitly).
        """
        return _run_shard(
            replace(task, attempt=self.retry_policy.max_retries + 1)
        )

    def _dispatch_serial(self, tasks: Sequence[_ShardTask]):
        """Inline execution through the same recovery ladder.

        No pool means no hang detection — an inline shard cannot be
        interrupted — but crashes degrade to raised exceptions (see
        :meth:`FaultInjector.apply`) and retry/backoff/fallback apply
        unchanged.
        """

        def start(task, attempt):
            return replace(task, attempt=attempt)

        def collect(prepared, task, attempt):
            try:
                return _run_shard(prepared)
            except InjectedFault as exc:
                raise AttemptFailure(exc.kind) from exc
            except Exception as exc:
                raise AttemptFailure("error") from exc

        return run_with_recovery(
            tasks,
            self.retry_policy,
            start=start,
            collect=collect,
            serial_run=self._serial_fallback_run,
        )

    def _dispatch_process(self, tasks: Sequence[_ShardTask]):
        """Per-shard futures with workload-derived timeouts and recovery.

        Each round submits every pending shard before collecting any,
        so retries keep the pool's parallelism.  The round deadline
        scales with the queue depth (``waves``): on a machine with
        fewer workers than shards, a shard waiting behind others is not
        mistaken for a hang.
        """
        policy = self.retry_policy
        waves = math.ceil(
            max(1, len(tasks)) / available_workers(self.shards)
        )

        def start(task, attempt):
            try:
                future = self._ensure_pool().submit(
                    _run_packed_shard,
                    pack_into(replace(task, attempt=attempt), self.telemetry),
                )
            except BrokenProcessPool as exc:
                # The pool broke between submissions of this round; the
                # shard joins the retry set and the round-end rebuild
                # gives the next round a fresh pool.
                raise AttemptFailure(
                    "broken_pool", rebuild_pool=True
                ) from exc
            timeout = policy.shard_timeout_s(
                len(task.work), self.captures_per_check
            )
            deadline = (
                None if timeout is None
                else time.monotonic() + timeout * waves
            )
            return future, deadline

        def collect(handle, task, attempt):
            future, deadline = handle
            try:
                remaining = (
                    None if deadline is None
                    else max(0.0, deadline - time.monotonic())
                )
                return future.result(timeout=remaining)
            except BrokenProcessPool as exc:
                raise AttemptFailure("broken_pool", rebuild_pool=True) from exc
            except TimeoutError as exc:
                # The worker may be wedged: the future cannot be trusted
                # to ever resolve, and neither can the pool around it.
                future.cancel()
                raise AttemptFailure("timeout", rebuild_pool=True) from exc
            except InjectedFault as exc:
                raise AttemptFailure(exc.kind) from exc
            except Exception as exc:
                raise AttemptFailure("error") from exc

        return run_with_recovery(
            tasks,
            self.retry_policy,
            start=start,
            collect=collect,
            serial_run=self._serial_fallback_run,
            on_rebuild=self._rebuild_pool,
        )

    def _dispatch(
        self, tasks: Sequence[_ShardTask]
    ) -> Tuple[list, List[ShardHealth]]:
        rebuilds_before = self._pool_rebuilds
        if self.resolved_backend() == "serial":
            outputs, healths = self._dispatch_serial(tasks)
        else:
            outputs, healths = self._dispatch_process(tasks)
        self._record_health(healths, self._pool_rebuilds - rebuilds_before)
        shard_items = []
        for items, cache_delta, kernel_delta in outputs:
            shard_items.append(items)
            self.telemetry.record_cache(cache_delta)
            self.telemetry.record_kernel(kernel_delta)
        return merge_shard_outputs(shard_items), healths

    def _record_health(
        self, healths: Sequence[ShardHealth], pool_rebuilds: int
    ) -> None:
        """Fold one dispatch's recovery accounting into telemetry."""
        fault_counts = {"timeout": 0, "broken_pool": 0, "crash": 0,
                        "error": 0}
        for health in healths:
            for kind in health.faults:
                fault_counts[kind] = fault_counts.get(kind, 0) + 1
        self.telemetry.record_health(
            {
                "dispatches": 1,
                "degraded_dispatches": int(
                    any(h.degraded for h in healths)
                ),
                "retries": sum(
                    max(0, h.attempts - 1) for h in healths
                ),
                "serial_fallbacks": sum(
                    1 for h in healths if h.outcome == SERIAL_FALLBACK
                ),
                "pool_rebuilds": pool_rebuilds,
                "timeouts": fault_counts["timeout"],
                "broken_pools": fault_counts["broken_pool"],
                "crashes": fault_counts["crash"],
                "errors": fault_counts["error"],
            }
        )
        for health in healths:
            self.telemetry.record_shard_wall(health.shard, health.wall_s)

    def _make_tasks(
        self,
        mode: str,
        work: Sequence[_BusWork],
        n_captures: int = 0,
        interference=None,
    ) -> List[_ShardTask]:
        return [
            _ShardTask(
                shard=shard,
                mode=mode,
                work=tuple(work[i] for i in chunk),
                config=self.itdr_config,
                config_key=self._config_key,
                authenticator=self.authenticator,
                tamper_detector=self.tamper_detector,
                captures_per_check=self.captures_per_check,
                n_captures=n_captures,
                engine=self.engine,
                interference=interference,
                fault_injector=self.fault_injector,
            )
            for shard, chunk in enumerate(
                partition_fleet(len(work), self.shards)
            )
            if chunk
        ]

    # -- lifecycle ------------------------------------------------------
    def _operation_streams(
        self,
        streams: Optional[Sequence[np.random.SeedSequence]],
    ) -> List[np.random.SeedSequence]:
        """Per-bus seed streams for one operation, default or supplied.

        The default spawns from the executor root in registration order
        (the PR-3 discipline: one fresh child per bus per operation).
        Callers may instead supply the streams themselves — one per
        registered bus, in registration order — making an operation's
        randomness a pure function of the caller's own coordinates
        (e.g. a campaign's ``(seed, arm, round)``) rather than of how
        many operations this executor ran before it.  Supplied streams
        flow through the identical per-bus rebinding in the workers, so
        the byte-identity guarantees are unchanged.
        """
        if streams is None:
            return spawn_bus_streams(self._root, self.n_buses)
        streams = list(streams)
        if len(streams) != self.n_buses:
            raise ValueError(
                f"need one stream per registered bus "
                f"({self.n_buses}), got {len(streams)}"
            )
        return streams

    def enroll(
        self,
        n_captures: int = 8,
        streams: Optional[Sequence[np.random.SeedSequence]] = None,
    ) -> Dict[str, Fingerprint]:
        """Enroll every registered bus, sharded like a scan.

        Each bus's enrollment draws come from its own spawned stream, so
        fingerprints are byte-identical across shard counts and backends.
        """
        if not self._buses:
            raise RuntimeError("no buses registered")
        if n_captures < 1:
            raise ValueError("n_captures must be >= 1")
        streams = self._operation_streams(streams)
        work = [
            _BusWork(index=i, name=name, line=line, seed=streams[i])
            for i, (name, line) in enumerate(self._buses.items())
        ]
        fingerprints, _ = self._dispatch(
            self._make_tasks("enroll", work, n_captures=n_captures)
        )
        self._fingerprints.update(zip(self._buses, fingerprints))
        return dict(self._fingerprints)

    def build_store(
        self,
        sketch: Optional[SketchSpec] = None,
        policy: Optional[UpdatePolicy] = None,
        shortlist_size: int = 8,
    ) -> FingerprintStore:
        """The fleet's 1:N identification store, fed by its enrollment.

        Every enrolled fingerprint lands in a fresh content-addressed
        :class:`~repro.core.identify.FingerprintStore` in registration
        order (the store digest is insertion-order independent anyway).
        """
        if not self._fingerprints:
            raise RuntimeError("enroll() the fleet before building a store")
        store = FingerprintStore(
            sketch=sketch, policy=policy, shortlist_size=shortlist_size
        )
        store.enroll_many(list(self._fingerprints.values()))
        return store

    def identify_scan(
        self,
        store: Optional[FingerprintStore] = None,
        modifiers_by_bus: Optional[Dict[str, Sequence]] = None,
        interference=None,
        method: str = "sketch",
        streams: Optional[Sequence[np.random.SeedSequence]] = None,
    ) -> FleetIdentifyOutcome:
        """One fleet-wide 1:N identification pass.

        Shards measure one averaged capture per bus (same per-bus seed
        streams as :meth:`scan`, so the pass is byte-identical across
        backends and shard counts); the parent runs every capture through
        the store's indexed :meth:`~repro.core.identify.FingerprintStore.
        identify` and reports per-bus rank-1 hits as canonical runtime
        events — ``Telemetry.snapshot()``'s per-bus cells carry the
        fleet's identification accuracy (PROCEED = correct rank-1 and
        accepted, ALERT otherwise).

        ``store`` defaults to :meth:`build_store` over this fleet's own
        enrollment; pass a shared store to audit one fleet against a
        larger enrolled population.
        """
        if not self._buses:
            raise RuntimeError("no buses registered")
        if store is None:
            store = self.build_store()
        modifiers_by_bus = modifiers_by_bus or {}
        unknown = set(modifiers_by_bus) - set(self._buses)
        if unknown:
            raise KeyError(
                f"modifiers for unregistered buses: {sorted(unknown)}"
            )
        streams = self._operation_streams(streams)
        work = [
            _BusWork(
                index=i,
                name=name,
                line=line,
                seed=streams[i],
                modifiers=tuple(modifiers_by_bus.get(name, ())),
            )
            for i, (name, line) in enumerate(self._buses.items())
        ]
        payloads, healths = self._dispatch(
            self._make_tasks("identify", work, interference=interference)
        )
        recovery_by_shard = {
            h.shard: h.outcome for h in healths if h.degraded
        }
        records = []
        for (name, _), (index, (shard, capture)) in zip(
            self._buses.items(), enumerate(payloads)
        ):
            result = store.identify(capture, method=method)
            records.append(
                FleetIdentifyRecord(
                    index=index,
                    bus=name,
                    shard=shard,
                    identified=result.bus,
                    score=result.score,
                    accepted=result.accepted,
                    runner_up=result.runner_up,
                    separation=result.separation,
                    recovery=recovery_by_shard.get(shard),
                    protocol=self._protocols[name],
                )
            )
        cadence = self._cadence()
        for (name, t), record in zip(
            cadence.visits(self.bus_names()), records
        ):
            self._runtime.record(
                MonitorEvent(
                    time_s=t,
                    side=name,
                    action=(
                        Action.PROCEED
                        if record.correct and record.accepted
                        else Action.ALERT
                    ),
                    score=record.score,
                    tampered=False,
                    location_m=None,
                    bus=name,
                    shard=record.shard,
                    recovery=record.recovery,
                    protocol=record.protocol,
                )
            )
        self._runtime.finish()
        return FleetIdentifyOutcome(
            records=tuple(records),
            shards=self.shards,
            backend=self.resolved_backend(),
            store_digest=store.digest(),
            method=method,
            degraded=bool(recovery_by_shard),
            shard_health=tuple(healths),
        )

    def scan(
        self,
        modifiers_by_bus: Optional[Dict[str, Sequence]] = None,
        interference=None,
        streams: Optional[Sequence[np.random.SeedSequence]] = None,
    ) -> FleetScanOutcome:
        """One full fleet pass: measure and judge every bus, sharded.

        Shards measure concurrently; the parent merges records back to
        registration order, stamps them with the round-robin cadence
        clock (the shared-datapath latency model is unchanged — shards
        buy *throughput*, the reported detection-latency arithmetic
        still describes the one-datapath deployment), and fans canonical
        events into the unified runtime.
        """
        if not self._buses:
            raise RuntimeError("no buses registered")
        if not self._fingerprints:
            raise RuntimeError("enroll() the fleet before scanning")
        modifiers_by_bus = modifiers_by_bus or {}
        unknown = set(modifiers_by_bus) - set(self._buses)
        if unknown:
            raise KeyError(f"modifiers for unregistered buses: {sorted(unknown)}")
        streams = self._operation_streams(streams)
        work = [
            _BusWork(
                index=i,
                name=name,
                line=line,
                seed=streams[i],
                fingerprint=self._fingerprints[name],
                modifiers=tuple(modifiers_by_bus.get(name, ())),
            )
            for i, (name, line) in enumerate(self._buses.items())
        ]
        records, healths = self._dispatch(
            self._make_tasks("scan", work, interference=interference)
        )
        recovery_by_shard = {
            h.shard: h.outcome for h in healths if h.degraded
        }
        records = [
            replace(
                record,
                recovery=recovery_by_shard.get(record.shard),
                protocol=self._protocols[record.bus],
            )
            for record in records
        ]
        cadence = self._cadence()
        for (name, t), record in zip(cadence.visits(self.bus_names()), records):
            self._runtime.record(
                MonitorEvent(
                    time_s=t,
                    side=name,
                    action=record.action,
                    score=record.score,
                    tampered=record.tampered,
                    location_m=record.location_m,
                    bus=name,
                    shard=record.shard,
                    recovery=record.recovery,
                    protocol=record.protocol,
                )
            )
            self._blocked[name] = record.action is Action.BLOCK
        self._runtime.finish()
        return FleetScanOutcome(
            records=tuple(records),
            shards=self.shards,
            backend=self.resolved_backend(),
            degraded=bool(recovery_by_shard),
            shard_health=tuple(healths),
        )

    # -- the sharing trade-off, quantified ------------------------------
    def _cadence(self) -> RoundRobinCadence:
        """The round-robin cadence, sized from the first registered bus."""
        if not self._buses:
            raise RuntimeError("no buses registered")
        if self._runtime.cadence is None:
            any_line = next(iter(self._buses.values()))
            self._runtime.cadence = RoundRobinCadence.from_budget(
                self.itdr, any_line, self.captures_per_check
            )
        return self._runtime.cadence

    def per_bus_check_time_s(self) -> float:
        """Datapath time one bus visit occupies."""
        return self._cadence().visit_s

    def scan_period_s(self) -> float:
        """Full round-robin time — the worst-case detection latency bound."""
        return self._cadence().worst_case_latency_s(self.n_buses)

    def resource_report(self) -> ResourceReport:
        """Hardware cost of this deployment (shared blocks counted once)."""
        model = ResourceModel(self.itdr_config)
        return model.report(n_itdrs=max(1, self.n_buses))
