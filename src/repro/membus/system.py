"""The complete DIVOT-protected memory system (paper Fig. 6 and section III).

Wires every piece together:

* a :class:`~repro.membus.bus.MemoryBus` whose clock lane carries the IIP;
* a CPU-side endpoint inside the memory controller and a module-side
  endpoint inside the DIMM control logic (two-way authentication);
* an :class:`~repro.membus.dram.SDRAMDevice` whose column access is gated
  by the module-side authentication result;
* an :class:`~repro.attacks.base.AttackTimeline` injecting physical attacks
  mid-run.

Monitoring is concurrent with traffic and driven by the unified runtime:
a :class:`~repro.core.runtime.PeriodicCadence` completes a check every
``capture_period_s`` of simulated time with zero added latency on the data
path (DIVOT's transparency property), and each completed check may flip
either endpoint into BLOCK/ALERT, which *is* visible to traffic.  Events
and telemetry use the canonical runtime records, so this workload's
metrics are directly comparable with the serial link's and the shared
manager's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from ..attacks.base import AttackTimeline
from ..core.auth import Authenticator
from ..core.itdr import ITDR
from ..core.runtime import EventLog, MonitorEvent, MonitorRuntime
from ..core.tamper import TamperDetector
from ..protocols.link import ProtectedLink
from ..txline.line import TransmissionLine
from .bus import MemoryBus
from .controller import CompletedRequest, MemoryController
from .dram import SDRAMDevice
from .protocol import MEMBUS_SPEC
from .transactions import MemoryRequest

__all__ = ["RunResult", "ProtectedMemorySystem"]


@dataclass
class RunResult:
    """Everything a protected run produced.

    Monitoring events live in a canonical
    :class:`~repro.core.runtime.EventLog`; the alert/latency queries
    delegate to it, so they mean the same thing as on every other
    workload.
    """

    completed: List[CompletedRequest] = field(default_factory=list)
    log: EventLog = field(default_factory=EventLog)
    duration_s: float = 0.0

    # ------------------------------------------------------------------
    @property
    def events(self) -> List[MonitorEvent]:
        """The raw monitoring events in time order."""
        return self.log.events

    @property
    def n_blocked_accesses(self) -> int:
        """Device accesses rejected by the module-side gate."""
        return sum(1 for r in self.completed if r.result.blocked)

    @property
    def mean_latency_cycles(self) -> float:
        """Mean device latency over successful accesses."""
        ok = [r.latency_cycles for r in self.completed if r.result.ok]
        return float(np.mean(ok)) if ok else float("nan")

    def alerts(self) -> List[MonitorEvent]:
        """Non-PROCEED monitoring events in time order."""
        return self.log.alerts()

    def first_alert_time(self) -> Optional[float]:
        """Time of the first BLOCK/ALERT, or None if the run stayed clean."""
        return self.log.first_alert_time()

    def detection_latency(self, attack_onset_s: float) -> Optional[float]:
        """Time from attack onset to the first alert at or after it."""
        return self.log.detection_latency(attack_onset_s)


class ProtectedMemorySystem:
    """A CPU + memory-bus + SDRAM system under DIVOT protection.

    Args:
        bus: The physical channel (clock lane monitored).
        device: The SDRAM module's storage/timing model.
        cpu_itdr / module_itdr: Measurement engines for the two ends.
        authenticator: Shared similarity threshold policy.
        tamper_detector: Shared error-function threshold policy.
    """

    def __init__(
        self,
        bus: MemoryBus,
        device: SDRAMDevice,
        cpu_itdr: ITDR,
        module_itdr: ITDR,
        authenticator: Authenticator,
        tamper_detector: TamperDetector,
        captures_per_check: int = 32,
        extra_lanes: Sequence[TransmissionLine] = (),
    ) -> None:
        self.bus = bus
        #: Additional monitored conductors (strobe/command lanes).  With
        #: any present, monitoring fuses across the bundle: every lane must
        #: authenticate — the paper's multi-wire accuracy direction wired
        #: into the Fig. 6 design.
        self.extra_lanes = tuple(extra_lanes)
        # Assembly — endpoints, telemetry, cadence arithmetic — is the
        # registered memory-bus protocol; the bus clock rate sizes the
        # periodic cadence (the clock lane toggles every cycle).
        self.protected_link = ProtectedLink(
            MEMBUS_SPEC,
            bus.line,
            (cpu_itdr, module_itdr),
            authenticator,
            tamper_detector,
            captures_per_check=captures_per_check,
            trigger_rate=bus.clock_frequency,
        )
        self.cpu_endpoint = self.protected_link.endpoint("cpu")
        self.module_endpoint = self.protected_link.endpoint("module")
        device.auth_gate = lambda: not self.module_endpoint.is_blocked
        self.device = device
        self.controller = MemoryController(device, endpoint=self.cpu_endpoint)
        #: Workload-lifetime telemetry; every run's events and cadence
        #: accounting fold into this one surface.
        self.telemetry = self.protected_link.telemetry
        self.capture_period_s = self.protected_link.check_period_s

    # ------------------------------------------------------------------
    def calibrate(self, n_captures: int = 8) -> None:
        """Pair both endpoints with the bus (installation-time step)."""
        lanes = [self.bus.line, *self.extra_lanes]
        self.cpu_endpoint.calibrate_many(lanes, n_captures=n_captures)
        self.module_endpoint.calibrate_many(lanes, n_captures=n_captures)

    # ------------------------------------------------------------------
    def _new_runtime(self) -> MonitorRuntime:
        """A fresh per-run runtime sharing the workload telemetry."""
        return self.protected_link.new_runtime()

    def _check_both(
        self,
        runtime: MonitorRuntime,
        t: float,
        timeline: Optional[AttackTimeline],
        module_line_override: Optional[TransmissionLine],
    ) -> None:
        """One concurrent two-way check: CPU side, then module side."""
        module_line = module_line_override or self.bus.line
        if module_line is not self.bus.line:
            # Keep the enrolled name: the module looks up its own ROM entry
            # no matter whose bus it is plugged into.
            module_line = TransmissionLine(
                name=self.bus.line.name,
                board_profile=module_line.board_profile,
                material=module_line.material,
                receiver=module_line.receiver,
            )
        if self.extra_lanes and module_line is self.bus.line:
            module_lines = [module_line, *self.extra_lanes]
        else:
            # An overridden module lane (cold-boot scenario) is judged on
            # the main lane alone: in the attacker's machine the strobe
            # lanes are foreign too, so this is the lenient case.
            module_lines = [module_line]
        self.protected_link.check(
            runtime,
            t,
            timeline,
            lines_by_side={
                "cpu": [self.bus.line, *self.extra_lanes],
                "module": module_lines,
            },
        )

    # ------------------------------------------------------------------
    def run(
        self,
        requests: Sequence[MemoryRequest],
        timeline: Optional[AttackTimeline] = None,
        module_line_override: Optional[TransmissionLine] = None,
        max_stalls: int = 10_000,
        monitor_first: bool = False,
    ) -> RunResult:
        """Trace-driven run with concurrent monitoring.

        Requests issue back to back; simulated time advances with device
        latency.  Whenever time crosses a capture-completion boundary, both
        endpoints evaluate the bus under whatever attacks the timeline has
        active at that instant.  A BLOCKed CPU endpoint stalls issue; a
        BLOCKed module endpoint makes the device reject column accesses.

        ``monitor_first`` runs one monitoring pass before any request
        issues — the power-on sensing the paper gives the module side ("it
        starts sensing impedance signals on the bus as soon as the system
        is powered up").
        """
        runtime = self._new_runtime()
        cadence = runtime.cadence
        result = RunResult(log=runtime.log)
        for request in requests:
            self.controller.enqueue(request)
        if monitor_first:
            self._check_both(
                runtime, cadence.force(0.0), timeline, module_line_override
            )
        stalls = 0
        while self.controller.pending():
            t = self.bus.cycles_to_seconds(self.controller.current_cycle)
            if t >= cadence.next_due_s:  # fast path: most cycles cross nothing
                for due in cadence.due(t):
                    self._check_both(
                        runtime, due, timeline, module_line_override
                    )
            record = self.controller.issue_next()
            if record is None:
                stalls += 1
                if stalls > max_stalls:
                    break  # permanently blocked; report what happened
                continue
            result.completed.append(record)
        result.duration_s = self.bus.cycles_to_seconds(
            self.controller.current_cycle
        )
        # Final monitoring sweep so short runs still observe late attacks.
        if timeline is not None and not result.alerts():
            self._check_both(
                runtime,
                cadence.force(result.duration_s + cadence.period_s),
                timeline,
                module_line_override,
            )
        runtime.finish()
        return result

    # ------------------------------------------------------------------
    def simulate_cold_boot_theft(
        self,
        foreign_line: TransmissionLine,
        attacker_requests: Sequence[MemoryRequest],
    ) -> RunResult:
        """The module is moved to an attacker's machine and read.

        The module-side endpoint now measures the attacker's bus — a
        foreign fingerprint — so it blocks column access and the attacker's
        reads return nothing, "no matter whether an attacker swaps the
        memory module to another computer or uses another Tx-line".
        """
        return self.run(
            attacker_requests,
            module_line_override=foreign_line,
            max_stalls=32,
            monitor_first=True,
        )
