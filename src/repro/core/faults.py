"""Fault-tolerant dispatch primitives for the sharded fleet executor.

One shared iTDR datapath protecting a whole fleet (paper sections I
and V) only earns its scaling story if the scanner degrades gracefully:
at production scale a worker process being OOM-killed, wedged, or slow
is an *expected* event, not an exception.  This module holds the pieces
the fleet layer composes into a recovery ladder:

* :class:`RetryPolicy` — bounded retries with exponential backoff, a
  workload-derived per-shard timeout, and a terminal serial-fallback
  switch;
* :func:`run_with_recovery` — the backend-agnostic retry engine: submit
  a round of shard attempts, classify failures
  (:class:`AttemptFailure`), rebuild broken pools, back off, retry, and
  finally re-execute exhausted shards serially in the parent;
* :class:`ShardHealth` — the per-shard recovery record surfaced on
  ``FleetScanOutcome.shard_health`` and folded into telemetry;
* :class:`FaultInjector` / :class:`FaultSpec` — a deterministic harness
  that makes workers crash, hang, run slow, or raise on a chosen
  (mode, shard, attempt), so every recovery path is testable without a
  real OOM.

Determinism under recovery is free by construction: per-bus
``SeedSequence`` streams are spawned in the parent before dispatch, so
a retried or serially re-run shard consumes exactly the streams the
first attempt would have — recovery can change *when and where* a shard
runs, never *what it measures*.

The module is intentionally stdlib-only (no numpy, no repro imports):
everything here must pickle cleanly across the process boundary and
stay importable from any layer.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

__all__ = [
    "AttemptFailure",
    "FaultInjector",
    "FaultSpec",
    "FleetDispatchError",
    "InjectedFault",
    "RetryPolicy",
    "SERIAL_FALLBACK",
    "ShardHealth",
    "run_with_recovery",
]

#: Fault kinds the injector understands.
FAULT_KINDS = ("crash", "error", "hang", "slow")

#: Shard operations a fault can fire in (the fleet's shard task modes).
FAULT_MODES = ("enroll", "scan", "identify")

#: ``ShardHealth.outcome`` label for a shard rescued by the parent.
SERIAL_FALLBACK = "serial_fallback"


# ----------------------------------------------------------------------
# exceptions
# ----------------------------------------------------------------------
class FleetDispatchError(RuntimeError):
    """A shard failed every rung of the recovery ladder.

    Raised only after bounded retries *and* (when enabled) the serial
    fallback have been exhausted — the dispatch layer's way of saying
    the failure is systematic, not transient.
    """


class InjectedFault(RuntimeError):
    """A deliberately injected worker failure (testing harness only).

    Carries the injected ``kind`` so recovery accounting can attribute
    the fault.  Both constructor arguments feed ``Exception.args`` so
    the instance survives the pickle round-trip home from a worker.
    """

    def __init__(self, kind: str, message: str = "") -> None:
        super().__init__(kind, message)
        self.kind = kind


class AttemptFailure(Exception):
    """One shard attempt failed, classified for the recovery ladder.

    Raised by a backend's ``collect`` callable (never crosses a process
    boundary).  ``kind`` is one of ``"broken_pool"``, ``"timeout"``,
    ``"crash"`` or ``"error"``; ``rebuild_pool`` tells the engine the
    worker pool can no longer be trusted and must be torn down before
    the next round.
    """

    def __init__(self, kind: str, rebuild_pool: bool = False) -> None:
        super().__init__(kind)
        self.kind = kind
        self.rebuild_pool = rebuild_pool


# ----------------------------------------------------------------------
# policy
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RetryPolicy:
    """How the dispatch layer escalates when a shard attempt fails.

    The ladder, per shard: up to ``max_retries`` re-submissions with
    exponential backoff (pool rebuilt first whenever the failure
    implicated the pool itself), then — if ``serial_fallback`` — one
    final in-parent serial re-execution, then :class:`FleetDispatchError`.

    The per-shard timeout is *workload-derived*: a shard visiting more
    buses at a deeper averaging depth earns proportionally more wall
    time, so one knob serves a 4-bus smoke test and a 10k-bus fleet.

    Attributes:
        max_retries: Re-submissions per shard after the first attempt.
        backoff_base_s: Backoff before the first retry.
        backoff_factor: Multiplier per subsequent retry.
        backoff_max_s: Backoff ceiling.
        shard_timeout_base_s: Fixed per-round timeout floor.  ``None``
            disables timeouts entirely (a hung worker then hangs the
            scan — only sensible under an external supervisor).
        shard_timeout_per_capture_s: Extra allowance per (bus visit x
            capture) a shard performs.
        serial_fallback: Whether an exhausted shard is re-run serially
            in the parent as the terminal rung.
    """

    max_retries: int = 2
    backoff_base_s: float = 0.05
    backoff_factor: float = 2.0
    backoff_max_s: float = 2.0
    shard_timeout_base_s: Optional[float] = 60.0
    shard_timeout_per_capture_s: float = 0.25
    serial_fallback: bool = True

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.backoff_base_s < 0:
            raise ValueError("backoff_base_s must be >= 0")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")
        if self.backoff_max_s < 0:
            raise ValueError("backoff_max_s must be >= 0")
        if (
            self.shard_timeout_base_s is not None
            and self.shard_timeout_base_s <= 0
        ):
            raise ValueError("shard_timeout_base_s must be positive or None")
        if self.shard_timeout_per_capture_s < 0:
            raise ValueError("shard_timeout_per_capture_s must be >= 0")

    def backoff_s(self, attempt: int) -> float:
        """Backoff before retry ``attempt`` (1-based retry index)."""
        if attempt < 1:
            return 0.0
        return min(
            self.backoff_max_s,
            self.backoff_base_s * self.backoff_factor ** (attempt - 1),
        )

    def shard_timeout_s(
        self, n_visits: int, captures_per_check: int
    ) -> Optional[float]:
        """Wall-time allowance for one shard attempt, or None (no limit)."""
        if self.shard_timeout_base_s is None:
            return None
        return (
            self.shard_timeout_base_s
            + self.shard_timeout_per_capture_s
            * max(0, n_visits)
            * max(1, captures_per_check)
        )


# ----------------------------------------------------------------------
# deterministic fault injection
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault: what goes wrong, where, and on which attempt.

    Attributes:
        kind: ``"crash"`` (the worker process dies — a real
            ``os._exit``, so the pool genuinely breaks), ``"error"``
            (the shard raises :class:`InjectedFault`), ``"hang"`` /
            ``"slow"`` (the shard sleeps ``seconds`` before working —
            identical mechanics, named for intent: a hang is sized past
            the shard timeout, a slowdown inside it).
        shard: The shard index the fault targets.
        mode: The shard operation it fires in (``"enroll"``, ``"scan"``
            or ``"identify"``).
        attempts: Attempt numbers it fires on (first attempt is 0; the
            serial fallback runs as attempt ``max_retries + 1``); none
            may be negative.
        seconds: Sleep duration for ``hang``/``slow``.
    """

    kind: str
    shard: int
    mode: str = "scan"
    attempts: Tuple[int, ...] = (0,)
    seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"kind must be one of {FAULT_KINDS}")
        if self.shard < 0:
            raise ValueError("shard must be >= 0")
        if self.mode not in FAULT_MODES:
            raise ValueError(f"mode must be one of {FAULT_MODES}")
        if any(attempt < 0 for attempt in self.attempts):
            raise ValueError("attempts must be >= 0")
        if self.seconds < 0:
            raise ValueError("seconds must be >= 0")


@dataclass(frozen=True)
class FaultInjector:
    """A deterministic fault schedule shipped into shard workers.

    The schedule is a pure function of (mode, shard, attempt): no clock,
    no randomness, no generator consumption — injecting faults can delay
    or relocate a shard's execution but never perturb its seed streams,
    so recovered outcomes stay byte-identical to healthy ones.
    """

    specs: Tuple[FaultSpec, ...] = ()

    def spec_for(
        self, mode: str, shard: int, attempt: int
    ) -> Optional[FaultSpec]:
        """The first scheduled fault matching this execution, if any."""
        for spec in self.specs:
            if (
                spec.mode == mode
                and spec.shard == shard
                and attempt in spec.attempts
            ):
                return spec
        return None

    def apply(self, mode: str, shard: int, attempt: int) -> None:
        """Fire the scheduled fault, if any, at a shard's entry point.

        ``crash`` kills the process for real when running inside a pool
        worker (so the parent sees a genuine ``BrokenProcessPool``); in
        the parent process — serial backend or serial fallback — it
        degrades to raising :class:`InjectedFault` so the test harness
        never kills the interpreter under test.
        """
        spec = self.spec_for(mode, shard, attempt)
        if spec is None:
            return
        if spec.kind in ("hang", "slow"):
            time.sleep(spec.seconds)
            return
        if spec.kind == "crash":
            if multiprocessing.parent_process() is not None:
                os._exit(1)
            raise InjectedFault(
                "crash", f"injected crash: shard {shard} attempt {attempt}"
            )
        raise InjectedFault(
            "error", f"injected error: shard {shard} attempt {attempt}"
        )


# ----------------------------------------------------------------------
# per-shard recovery accounting
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ShardHealth:
    """How one shard's work actually got done.

    Attributes:
        shard: The shard index.
        attempts: Executions performed (1 = first try succeeded; the
            serial fallback counts as one more attempt).
        outcome: ``"ok"`` (clean first attempt), ``"retried"`` (a
            re-submission succeeded) or ``"serial_fallback"`` (the
            parent re-ran the shard inline).
        wall_s: Total wall time across every attempt, fallback included.
        faults: Failure kinds observed, in order (``"broken_pool"``,
            ``"timeout"``, ``"crash"``, ``"error"``).
    """

    shard: int
    attempts: int
    outcome: str
    wall_s: float
    faults: Tuple[str, ...] = ()

    @property
    def degraded(self) -> bool:
        """Whether this shard needed any recovery at all."""
        return self.outcome != "ok"


@dataclass
class _HealthBuilder:
    shard: int
    attempts: int = 0
    wall_s: float = 0.0
    faults: List[str] = field(default_factory=list)
    fallback: bool = False

    def freeze(self) -> ShardHealth:
        if self.fallback:
            outcome = SERIAL_FALLBACK
        elif self.faults:
            outcome = "retried"
        else:
            outcome = "ok"
        return ShardHealth(
            shard=self.shard,
            attempts=self.attempts,
            outcome=outcome,
            wall_s=self.wall_s,
            faults=tuple(self.faults),
        )


# ----------------------------------------------------------------------
# the recovery engine
# ----------------------------------------------------------------------
def run_with_recovery(
    tasks: Sequence,
    policy: RetryPolicy,
    *,
    start: Callable,
    collect: Callable,
    serial_run: Optional[Callable] = None,
    on_rebuild: Optional[Callable[[], None]] = None,
    shard_of: Callable = lambda task: task.shard,
    sleep: Callable[[float], None] = time.sleep,
    clock: Callable[[], float] = time.perf_counter,
) -> Tuple[list, List[ShardHealth]]:
    """Execute every task through the retry/backoff/fallback ladder.

    Backend-agnostic: the caller supplies ``start(task, attempt) ->
    handle`` (submit one attempt; for a process pool this returns a
    future, for the serial backend a thunk) and ``collect(handle, task,
    attempt) -> output`` (block for the result, raising
    :class:`AttemptFailure` on any failure).  Rounds are submitted
    eagerly — every pending task is started before any is collected —
    so a parallel backend keeps its parallelism through retries.

    Per round: failures with ``rebuild_pool`` set trigger one
    ``on_rebuild()`` call before the next round; shards with retry
    budget left go back in the pending set; exhausted shards run
    ``serial_run(task)`` immediately (attempt number
    ``policy.max_retries + 1``) or raise :class:`FleetDispatchError`.

    Returns ``(outputs, healths)`` both aligned to ``tasks`` order —
    the engine never reorders work, so the caller's merge arithmetic is
    untouched by recovery (property-pinned in
    ``tests/property/test_fault_schedules.py``).
    """
    outputs: list = [None] * len(tasks)
    builders = [_HealthBuilder(shard=shard_of(task)) for task in tasks]
    pending: List[Tuple[int, int]] = [(i, 0) for i in range(len(tasks))]
    while pending:
        # ``start`` may itself fail classified (e.g. submitting to a pool
        # that broke a moment ago): carry the failure to the collect
        # phase so it walks the same ladder as a failed attempt.
        handles = []
        for i, attempt in pending:
            try:
                handle = start(tasks[i], attempt)
            except AttemptFailure as failure:
                handle = failure
            handles.append((i, attempt, handle))
        retry: List[Tuple[int, int]] = []
        exhausted: List[int] = []
        rebuild = False
        for i, attempt, handle in handles:
            started = clock()
            try:
                if isinstance(handle, AttemptFailure):
                    raise handle
                outputs[i] = collect(handle, tasks[i], attempt)
                builders[i].attempts += 1
                builders[i].wall_s += clock() - started
            except AttemptFailure as failure:
                builders[i].attempts += 1
                builders[i].wall_s += clock() - started
                builders[i].faults.append(failure.kind)
                rebuild = rebuild or failure.rebuild_pool
                if attempt < policy.max_retries:
                    retry.append((i, attempt + 1))
                else:
                    exhausted.append(i)
        if rebuild and on_rebuild is not None:
            on_rebuild()
        for i in exhausted:
            if serial_run is None or not policy.serial_fallback:
                raise FleetDispatchError(
                    f"shard {shard_of(tasks[i])} failed after "
                    f"{builders[i].attempts} attempt(s): "
                    f"{builders[i].faults}"
                )
            started = clock()
            try:
                outputs[i] = serial_run(tasks[i])
            except Exception as exc:
                builders[i].attempts += 1
                builders[i].wall_s += clock() - started
                raise FleetDispatchError(
                    f"shard {shard_of(tasks[i])} failed its serial "
                    f"fallback after faults {builders[i].faults}: {exc!r}"
                ) from exc
            builders[i].attempts += 1
            builders[i].wall_s += clock() - started
            builders[i].fallback = True
        if retry:
            sleep(policy.backoff_s(max(attempt for _, attempt in retry)))
        pending = retry
    return outputs, [builder.freeze() for builder in builders]
