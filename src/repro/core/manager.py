"""Chip-level DIVOT manager: one measurement datapath, many buses.

The paper's scaling argument (sections I and V): "Most of these logic
resources can be shared by different iTDRs, protecting multiple buses in a
parallel fashion" — over 90 % of the detector multiplexes.  The price the
paper does not quantify is *time*: a shared datapath scans buses round-
robin, so each bus is examined once per full scan and worst-case detection
latency grows with the bus count.  This manager implements the
multiplexed design on the unified monitoring runtime — a
:class:`~repro.core.runtime.RoundRobinCadence` owns the visit/latency
arithmetic, scans emit canonical per-bus events, and the workload's
telemetry reports the same metrics as the single-bus applications —
exposing both sides of the trade: the flat resource curve and the linear
latency curve.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..txline.line import TransmissionLine
from .auth import Authenticator
from .divot import DivotEndpoint, MonitorResult
from .fleet import FleetScanExecutor
from .itdr import ITDR
from .resources import ResourceModel, ResourceReport
from .runtime import EventLog, MonitorRuntime, RoundRobinCadence, Telemetry
from .tamper import TamperDetector

__all__ = ["ScanOutcome", "SharedITDRManager"]


@dataclass(frozen=True)
class ScanOutcome:
    """One full round-robin scan over every registered bus."""

    results: Tuple[Tuple[str, MonitorResult], ...]

    def alerts(self) -> List[Tuple[str, MonitorResult]]:
        """(bus name, result) pairs that did not PROCEED."""
        from .divot import Action

        return [
            (name, result)
            for name, result in self.results
            if result.action is not Action.PROCEED
        ]

    def all_clear(self) -> bool:
        """Whether every bus authenticated cleanly this scan."""
        return not self.alerts()


class SharedITDRManager:
    """Round-robin DIVOT protection of many buses with one datapath.

    Every registered bus gets its own :class:`DivotEndpoint` *decision
    state* (ROM entry, blocked flag) but all endpoints share the single
    ``itdr`` — the counters, FSM, PLL, and PDM generator exist once, as in
    the resource model's shared blocks.

    Args:
        itdr: The one measurement datapath.
        authenticator / tamper_detector: Shared decision policies.
        captures_per_check: Averaging depth per bus visit.
    """

    def __init__(
        self,
        itdr: ITDR,
        authenticator: Authenticator,
        tamper_detector: TamperDetector,
        captures_per_check: int = 1,
    ) -> None:
        self.itdr = itdr
        self.authenticator = authenticator
        self.tamper_detector = tamper_detector
        self.captures_per_check = captures_per_check
        self._buses: Dict[str, TransmissionLine] = {}
        self._protocols: Dict[str, Optional[str]] = {}
        self._endpoints: Dict[str, DivotEndpoint] = {}
        #: Workload-lifetime telemetry; every scan folds into it.
        self.telemetry = Telemetry()
        # The cadence needs a registered line to size a visit, so it is
        # attached lazily; the runtime (and its cross-scan event log)
        # lives for the manager's whole life.
        self._runtime = MonitorRuntime(telemetry=self.telemetry)

    # ------------------------------------------------------------------
    def register(
        self, line: TransmissionLine, protocol: Optional[str] = None
    ) -> None:
        """Put a bus under protection (calibrates lazily via calibrate_all).

        ``protocol`` is an opaque protected-link label (a registry name
        such as ``"jtag"``) carried on this bus's events so mixed fleets
        get per-protocol telemetry cells; it never affects measurement.
        """
        if line.name in self._buses:
            raise ValueError(f"bus {line.name!r} already registered")
        self._buses[line.name] = line
        self._protocols[line.name] = protocol
        self._endpoints[line.name] = DivotEndpoint(
            name=f"shared/{line.name}",
            itdr=self.itdr,
            authenticator=self.authenticator,
            tamper_detector=self.tamper_detector,
            captures_per_check=self.captures_per_check,
        )

    @property
    def n_buses(self) -> int:
        """Registered bus count."""
        return len(self._buses)

    def bus_names(self) -> List[str]:
        """Registered bus names in scan order."""
        return list(self._buses)

    def bus_protocols(self) -> Dict[str, Optional[str]]:
        """Protocol label per registered bus, in scan order."""
        return dict(self._protocols)

    @property
    def event_log(self) -> EventLog:
        """Canonical per-bus events from every scan so far."""
        return self._runtime.log

    def calibrate_all(self, n_captures: int = 8, engine: str = "born") -> None:
        """Enroll every registered bus (one batch-engine call per bus)."""
        if not self._buses:
            raise RuntimeError("no buses registered")
        for name, line in self._buses.items():
            self._endpoints[name].calibrate(
                line, n_captures=n_captures, engine=engine
            )

    def is_blocked(self, name: str) -> bool:
        """Whether a specific bus is currently refused service."""
        return self._endpoints[name].is_blocked

    # ------------------------------------------------------------------
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

    def scan(
        self,
        modifiers_by_bus: Optional[Dict[str, Sequence]] = None,
        interference=None,
        engine: str = "born",
    ) -> ScanOutcome:
        """One round-robin pass: measure and judge every bus in turn.

        Each bus visit is one batch-engine call (the endpoint's averaged
        capture); ``interference`` couples into every visit — EMI near the
        chip reaches the shared datapath regardless of which bus it is
        multiplexed onto.  Visit completion times come from the cadence's
        running datapath clock, so events are timestamped consistently
        across scans.
        """
        cadence = self._cadence()
        modifiers_by_bus = modifiers_by_bus or {}
        results = []
        for name, t in cadence.visits(self.bus_names()):
            result = self._runtime.check(
                self._endpoints[name],
                t,
                [self._buses[name]],
                side=name,
                bus=name,
                protocol=self._protocols[name],
                modifiers=modifiers_by_bus.get(name, ()),
                interference=interference,
                engine=engine,
            )
            results.append((name, result))
        self._runtime.finish()
        return ScanOutcome(results=tuple(results))

    # ------------------------------------------------------------------
    def fleet(
        self,
        seed: int = 0,
        shards: int = 1,
        backend: str = "auto",
        retry_policy=None,
    ) -> FleetScanExecutor:
        """A sharded :class:`FleetScanExecutor` over this manager's fleet.

        Carries the registered buses and shared decision policies across;
        the executor owns its own iTDRs (per worker) and seed streams, so
        its outcomes are a pure function of (fleet, seed, shard count)
        rather than of this manager's consumed generator state.
        ``retry_policy`` tunes the executor's worker-failure recovery
        ladder (default :class:`~repro.core.faults.RetryPolicy`).
        """
        executor = FleetScanExecutor(
            self.authenticator,
            self.tamper_detector,
            itdr_config=self.itdr.config,
            captures_per_check=self.captures_per_check,
            shards=shards,
            backend=backend,
            seed=seed,
            retry_policy=retry_policy,
        )
        for name, line in self._buses.items():
            executor.register(line, protocol=self._protocols[name])
        return executor

    # ------------------------------------------------------------------
    # the sharing trade-off, quantified
    # ------------------------------------------------------------------
    def per_bus_check_time_s(self) -> float:
        """Time the datapath spends on one bus visit."""
        return self._cadence().visit_s

    def scan_period_s(self) -> float:
        """Full round-robin time — the worst-case detection latency bound."""
        return self._cadence().worst_case_latency_s(self.n_buses)

    def resource_report(self) -> ResourceReport:
        """Hardware cost of this deployment (shared blocks counted once)."""
        model = ResourceModel(self.itdr.config)
        return model.report(n_itdrs=max(1, self.n_buses))
