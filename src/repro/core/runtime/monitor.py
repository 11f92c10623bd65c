"""The monitor runtime: drive endpoints on a cadence, fan events out.

:class:`MonitorRuntime` owns what every workload used to hand-roll
inline: resolving the attack timeline at the check instant, choosing
single- versus fused multi-lane monitoring, flattening the endpoint
decision into a canonical :class:`~repro.core.runtime.events.MonitorEvent`,
and fanning it out to pluggable sinks — the run's event log, the
workload's telemetry, anything exposing ``emit(event)``.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..divot import MonitorResult
from .cadence import Cadence
from .events import EventLog, MonitorEvent

__all__ = ["MonitorRuntime"]


class MonitorRuntime:
    """Drives DIVOT endpoints and emits canonical events into sinks.

    Args:
        cadence: The check scheduler whose cost accounting this runtime
            folds into telemetry at :meth:`finish` (optional — a runtime
            can also be driven ad hoc).
        telemetry: The workload's persistent :class:`Telemetry` sink.
        sinks: Additional sinks; anything with ``emit(event)``.
    """

    def __init__(
        self,
        cadence: Optional[Cadence] = None,
        telemetry=None,
        sinks: Sequence = (),
    ) -> None:
        self.cadence = cadence
        self.telemetry = telemetry
        #: This runtime's own event log (one per run, typically).
        self.log = EventLog()
        self._sinks = [self.log]
        if telemetry is not None:
            self._sinks.append(telemetry)
        for sink in sinks:
            self.add_sink(sink)
        self._folded = {}

    def add_sink(self, sink) -> None:
        """Attach another event consumer."""
        if not hasattr(sink, "emit"):
            raise TypeError("sink must expose emit(event)")
        self._sinks.append(sink)

    # ------------------------------------------------------------------
    def check(
        self,
        endpoint,
        t: float,
        lines: Sequence,
        timeline=None,
        side: Optional[str] = None,
        bus: Optional[str] = None,
        protocol: Optional[str] = None,
        modifiers: Sequence = (),
        modifiers_by_lane: Optional[dict] = None,
        interference=None,
        engine: str = "born",
    ) -> MonitorResult:
        """One monitoring decision at simulated time ``t``.

        ``lines`` is the lane bundle the endpoint measures, fused with
        min-similarity across the bundle by one
        :meth:`~repro.core.divot.DivotEndpoint.monitor_multi` call (a
        one-lane bundle is the single-lane check).  ``timeline`` (anything with
        ``active_at(t)``) contributes whatever attacks are live at ``t``
        on top of the standing ``modifiers``.
        """
        if not lines:
            raise ValueError("at least one line is required")
        active = list(modifiers)
        if timeline is not None:
            active.extend(timeline.active_at(t))
        result = endpoint.monitor_multi(
            list(lines),
            modifiers=active,
            modifiers_by_lane=modifiers_by_lane,
            interference=interference,
            engine=engine,
        )
        self.record(
            MonitorEvent.from_result(
                t, side if side is not None else endpoint.name, result,
                bus=bus, protocol=protocol,
            )
        )
        return result

    def record(self, event: MonitorEvent) -> MonitorEvent:
        """Fan out an already-measured event to every sink.

        The entry point for work performed off the runtime's own
        datapath — e.g. fleet shards measuring in worker processes —
        whose canonical events must still land in the run's log and the
        workload's telemetry.
        """
        for sink in self._sinks:
            sink.emit(event)
        return event

    # ------------------------------------------------------------------
    def finish(self) -> EventLog:
        """Fold new cadence accounting into telemetry; return the log.

        Safe to call repeatedly (e.g. once per scan on a long-lived
        runtime): only the counter growth since the last call is folded.
        """
        if self.telemetry is not None and self.cadence is not None:
            counters = self.cadence.counters()
            delta = {
                key: value - self._folded.get(key, 0)
                for key, value in counters.items()
            }
            self.telemetry.record_cadence(delta)
            self._folded = counters
        return self.log
