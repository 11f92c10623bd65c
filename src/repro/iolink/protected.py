"""A DIVOT-protected serial link: transport plus physical authentication.

Combines the serial lane with a DIVOT endpoint at each end.  Unlike the
memory bus (whose clock lane triggers every cycle), the serial lane's
monitor is *traffic-fed*: each monitoring decision costs a trigger budget
the passing frames must supply.  ``send`` therefore interleaves transport
and monitoring through the unified runtime's
:class:`~repro.core.runtime.TriggerBudgetCadence`, reporting delivered
frames, alerts, and the monitoring cadence the traffic actually
sustained — in the same canonical event/telemetry vocabulary as the
memory bus and the shared manager.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from ..attacks.base import AttackTimeline
from ..core.auth import Authenticator
from ..core.itdr import ITDR
from ..core.runtime import EventLog, MonitorEvent, MonitorRuntime
from ..core.tamper import TamperDetector
from ..protocols.link import ProtectedLink
from .frame import Frame, FrameError
from .link import SerialLink
from .protocol import IOLINK_SPEC

__all__ = ["LinkRunResult", "ProtectedSerialLink"]


@dataclass
class LinkRunResult:
    """Everything a protected link session produced.

    Events live in a canonical :class:`~repro.core.runtime.EventLog`;
    the alert/latency queries delegate to it.  ``checks_run`` and
    ``triggers_consumed`` come straight from the cadence's accounting,
    so a check is never reported as free.
    """

    delivered: List[Frame] = field(default_factory=list)
    crc_errors: int = 0
    log: EventLog = field(default_factory=EventLog)
    duration_s: float = 0.0
    checks_run: int = 0
    triggers_consumed: int = 0

    @property
    def events(self) -> List[MonitorEvent]:
        """The raw monitoring events in time order."""
        return self.log.events

    def alerts(self) -> List[MonitorEvent]:
        """Non-PROCEED events in time order."""
        return self.log.alerts()

    def first_alert_time(self) -> Optional[float]:
        """Time of the first BLOCK/ALERT, or None for a clean session."""
        return self.log.first_alert_time()

    def detection_latency(self, onset_s: float) -> Optional[float]:
        """Time from attack onset to the first alert at/after it."""
        return self.log.detection_latency(onset_s)


class ProtectedSerialLink:
    """A serial lane with two-way DIVOT monitoring riding on its traffic.

    Args:
        link: The transport lane.
        tx_itdr / rx_itdr: iTDRs at the two ends.
        authenticator / tamper_detector: shared decision policies.
        captures_per_check: averaging depth per monitoring decision.
    """

    def __init__(
        self,
        link: SerialLink,
        tx_itdr: ITDR,
        rx_itdr: ITDR,
        authenticator: Authenticator,
        tamper_detector: TamperDetector,
        captures_per_check: int = 16,
    ) -> None:
        self.link = link
        # Assembly — endpoints, telemetry, cadence arithmetic — is the
        # registered serial-link protocol.
        self.protected_link = ProtectedLink(
            IOLINK_SPEC,
            link.line,
            (tx_itdr, rx_itdr),
            authenticator,
            tamper_detector,
            captures_per_check=captures_per_check,
        )
        self.tx_endpoint = self.protected_link.endpoint("tx")
        self.rx_endpoint = self.protected_link.endpoint("rx")
        #: Workload-lifetime telemetry shared by every session.
        self.telemetry = self.protected_link.telemetry
        # One monitoring check costs this many triggers — arithmetic owned
        # by the traffic-fed cadence.
        self.triggers_per_check = self.protected_link.check_cost_triggers

    # ------------------------------------------------------------------
    def calibrate(self, n_captures: int = 8) -> None:
        """Pair both endpoints with the lane."""
        self.tx_endpoint.calibrate(self.link.line, n_captures=n_captures)
        self.rx_endpoint.calibrate(self.link.line, n_captures=n_captures)

    @property
    def check_period_s(self) -> float:
        """Monitoring cadence the link's own traffic sustains at 100 % duty."""
        return self.link.time_for_triggers(self.triggers_per_check)

    # ------------------------------------------------------------------
    def idle_fill_record(self, n_symbols: int = 64):
        """Idle symbols a quiet link transmits to keep the monitor fed.

        Real links never go silent — they send idle/skip symbols to hold
        bit lock.  For DIVOT this is load-bearing: idle traffic carries
        edges, and edges are probes.  The idle pattern here is the comma-
        free alternating byte 0xB5, whose coded form is rich in (1,0)
        transitions.
        """
        if n_symbols < 1:
            raise ValueError("n_symbols must be >= 1")
        bits = self.link.encode_idle(n_symbols)
        n_triggers = self.link.trigger.count_triggers(bits)
        duration = len(bits) / self.link.bit_rate
        return n_triggers, duration

    def send(
        self,
        frames: Sequence[Frame],
        timeline: Optional[AttackTimeline] = None,
        idle_fill: bool = False,
        max_idle_s: float = 5e-3,
    ) -> LinkRunResult:
        """Transmit frames with concurrent trigger-fed monitoring.

        Frames transmit back to back; whenever the cumulative trigger
        supply crosses a check budget, both endpoints evaluate the lane
        under whatever the timeline has active.  A BLOCKed receiving end
        drops traffic (frames sent while blocked are not delivered) — the
        link-level analogue of the memory gate.

        ``idle_fill=True`` appends idle symbols after the payload until at
        least one full monitoring check has run (bounded by ``max_idle_s``)
        — the standard cure for monitor starvation on quiet links.
        """
        runtime = self.protected_link.new_runtime()
        cadence = runtime.cadence
        result = LinkRunResult(log=runtime.log)
        t = 0.0
        for frame in frames:
            record = self.link.transmit([frame])
            t += record.duration_s
            cadence.feed(record.n_triggers)
            for due in cadence.due(t):
                self._check(runtime, due, timeline)
            if self.rx_endpoint.is_blocked:
                continue  # receiver refuses traffic from an unverified lane
            try:
                decoded = self.link.decode_frames(record.bits)
                result.delivered.extend(decoded)
            except (FrameError, ValueError):
                result.crc_errors += 1
        if idle_fill and cadence.checks_run == 0:
            idle_triggers, idle_duration = self.idle_fill_record()
            t = cadence.idle_fill(t, idle_triggers, idle_duration, max_idle_s)
            for due in cadence.due(t):
                self._check(runtime, due, timeline)
        result.duration_s = t
        if timeline is not None and not result.alerts():
            # Final check so short bursts still observe late attacks —
            # routed through the cadence, so it consumes the banked
            # trigger pool and lands at the session-end timestamp.
            self._check(runtime, cadence.force(t), timeline)
        runtime.finish()
        result.checks_run = cadence.checks_run
        result.triggers_consumed = cadence.triggers_consumed
        return result

    def _check(
        self,
        runtime: MonitorRuntime,
        t: float,
        timeline: Optional[AttackTimeline],
    ) -> None:
        """One two-way check: both ends evaluate the lane at time ``t``."""
        self.protected_link.check(runtime, t, timeline)
