"""The DIVOT endpoint and two-way channel (paper section III).

An endpoint is the iTDR plus decision logic living in one chip's bus
interface — the CPU-side memory controller or the memory-module-side control
logic.  Its life has three phases:

* **calibration** — measure the bus IIP repeatedly, average, store in ROM;
* **monitoring** — every capture is authenticated against the ROM and
  checked for tamper signatures, concurrently with normal traffic;
* **reaction** — a failed authentication blocks operations until the
  fingerprint matches again (module swap / wrong requester); a tamper
  signature raises an alert with the estimated location.

Two endpoints facing each other across one line form a
:class:`DivotChannel` — the two-way authentication the paper's memory-bus
design performs (the CPU verifies the module and bus; the module verifies
the CPU and bus).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional, Sequence


from ..txline.line import TransmissionLine
from .auth import AuthDecision, Authenticator
from .fingerprint import Fingerprint, FingerprintROM
from .itdr import ITDR, IIPCapture
from .tamper import TamperDetector, TamperVerdict

__all__ = [
    "EndpointState",
    "Action",
    "MonitorResult",
    "DivotEndpoint",
    "DivotChannel",
]


class EndpointState(enum.Enum):
    """Lifecycle state of a DIVOT endpoint."""

    UNCALIBRATED = "uncalibrated"
    MONITORING = "monitoring"
    BLOCKED = "blocked"


class Action(enum.Enum):
    """Reaction the endpoint commands after a monitoring capture."""

    PROCEED = "proceed"
    BLOCK = "block"
    ALERT = "alert"


@dataclass(frozen=True)
class MonitorResult:
    """Everything one monitoring capture produced."""

    capture: IIPCapture
    auth: AuthDecision
    tamper: TamperVerdict
    action: Action
    state: EndpointState


class DivotEndpoint:
    """One side of a DIVOT-protected bus.

    Attributes:
        name: Endpoint identity (e.g. ``"cpu-ddr-ctl"``).
        itdr: The measurement engine.
        authenticator: Similarity thresholder.
        tamper_detector: Error-function thresholder/localiser.
        rom: Local fingerprint store.
    """

    def __init__(
        self,
        name: str,
        itdr: ITDR,
        authenticator: Authenticator,
        tamper_detector: TamperDetector,
        captures_per_check: int = 1,
    ) -> None:
        if captures_per_check < 1:
            raise ValueError("captures_per_check must be >= 1")
        self.name = name
        self.itdr = itdr
        self.authenticator = authenticator
        self.tamper_detector = tamper_detector
        #: Captures averaged per monitoring decision.  Authentication works
        #: from a single capture; small tamper signatures (magnetic probes)
        #: need the averaging headroom, mirroring the paper's practice of
        #: reporting IIPs over 8192 measurements.
        self.captures_per_check = captures_per_check
        self.rom = FingerprintROM()
        self.state = EndpointState.UNCALIBRATED
        self.alert_log: List[MonitorResult] = []

    # ------------------------------------------------------------------
    def calibrate(
        self,
        line: TransmissionLine,
        n_captures: int = 8,
        temperature_c: float = 23.0,
        engine: str = "born",
    ) -> Fingerprint:
        """Enrollment: measure, average, store, enter monitoring.

        Performed at manufacturing or installation time (paper III,
        "Calibration process").  The one-lane :meth:`calibrate_many`: the
        enrollment captures come from one batch-engine call — one physics
        solve for the whole averaging run.
        """
        return self.calibrate_many(
            [line], n_captures=n_captures, temperature_c=temperature_c,
            engine=engine,
        )[0]

    # ------------------------------------------------------------------
    def monitor_capture(
        self,
        line: TransmissionLine,
        modifiers: Sequence = (),
        interference=None,
        engine: str = "born",
    ) -> MonitorResult:
        """One monitoring cycle: capture, authenticate, tamper-check, react.

        Reaction policy (paper III, "Reaction to counter attacks"):

        * authentication failure -> BLOCK and stay blocked until a later
          capture matches again (avoids replay / wrong-device traffic);
        * tamper signature with valid authentication -> ALERT (sensitive
          data protection hooks go here) while continuing to monitor;
        * clean capture -> PROCEED, and a blocked endpoint recovers.

        The one-lane :meth:`monitor_multi`.
        """
        return self.monitor_multi(
            [line], modifiers=modifiers, interference=interference,
            engine=engine,
        )

    @property
    def is_blocked(self) -> bool:
        """Whether the endpoint currently refuses data operations."""
        return self.state is EndpointState.BLOCKED

    # ------------------------------------------------------------------
    # multi-lane monitoring (the paper's multi-wire direction, in the
    # endpoint: a bus is clock + strobes + command lanes, each with its
    # own fingerprint, and an attacker must pass them all)
    # ------------------------------------------------------------------
    def calibrate_many(
        self,
        lines: Sequence[TransmissionLine],
        n_captures: int = 8,
        temperature_c: float = 23.0,
        engine: str = "born",
    ) -> List[Fingerprint]:
        """Enroll several lanes of one bus; enters monitoring.

        One batch-engine call per lane — the lane fan-out stays in Python
        but each lane's averaging run is a single vectorised pass.
        """
        if not lines:
            raise ValueError("at least one lane is required")
        fingerprints = []
        for line in lines:
            stack = self.itdr.capture_stack(line, n_captures, engine=engine)
            fingerprint = Fingerprint.from_stack(
                stack,
                dt=self.itdr.pll.phase_step,
                name=line.name,
                enrolled_temperature_c=temperature_c,
            )
            self.rom.store(fingerprint)
            fingerprints.append(fingerprint)
        self.state = EndpointState.MONITORING
        return fingerprints

    def monitor_multi(
        self,
        lines: Sequence[TransmissionLine],
        modifiers: Sequence = (),
        modifiers_by_lane: Optional[dict] = None,
        interference=None,
        engine: str = "born",
    ) -> MonitorResult:
        """One monitoring cycle fused across every lane of the bus.

        Authentication uses min-fusion — every lane must match its own
        fingerprint (an attacker must counterfeit the whole bundle).  The
        tamper verdict is the worst lane's; its location is reported.  The
        returned :class:`MonitorResult` carries the weakest lane's capture.

        ``modifiers`` applies to every lane (environmental conditions hit
        the whole board); ``modifiers_by_lane`` maps a lane name to the
        extra modifiers touching that conductor alone (a physical attack
        lands on one wire).  ``interference`` couples into the comparator
        on every lane (EMI is a board-level condition), matching
        :meth:`monitor_capture`.
        """
        if self.state is EndpointState.UNCALIBRATED:
            raise RuntimeError(
                f"endpoint {self.name!r} must calibrate before monitoring"
            )
        if not lines:
            raise ValueError("at least one lane is required")
        modifiers_by_lane = modifiers_by_lane or {}
        worst_auth: Optional[AuthDecision] = None
        worst_tamper: Optional[TamperVerdict] = None
        worst_capture = None
        for line in lines:
            reference = self.rom.load(line.name)
            lane_modifiers = list(modifiers) + list(
                modifiers_by_lane.get(line.name, ())
            )
            capture = self.itdr.capture_averaged(
                line,
                self.captures_per_check,
                modifiers=lane_modifiers,
                interference=interference,
                engine=engine,
            )
            auth = self.authenticator.decide(capture, reference)
            tamper = self.tamper_detector.check(capture, reference)
            if worst_auth is None or auth.score < worst_auth.score:
                worst_auth = auth
                worst_capture = capture
            if worst_tamper is None or (
                tamper.peak_error > worst_tamper.peak_error
            ):
                worst_tamper = tamper
        if not worst_auth.accepted:
            action = Action.BLOCK
            self.state = EndpointState.BLOCKED
        elif worst_tamper.tampered:
            action = Action.ALERT
            self.state = EndpointState.MONITORING
        else:
            action = Action.PROCEED
            self.state = EndpointState.MONITORING
        result = MonitorResult(
            capture=worst_capture,
            auth=worst_auth,
            tamper=worst_tamper,
            action=action,
            state=self.state,
        )
        if action is not Action.PROCEED:
            self.alert_log.append(result)
        return result


@dataclass
class ChannelStepResult:
    """Both endpoints' monitoring outcomes for one channel step."""

    master: MonitorResult
    slave: MonitorResult

    @property
    def data_allowed(self) -> bool:
        """Two-way gate: traffic flows only when *both* ends proceed.

        The paper gates the column access on the module side and memory
        operations on the CPU side; either side can veto.
        """
        return (
            self.master.action is not Action.BLOCK
            and self.slave.action is not Action.BLOCK
        )


class DivotChannel:
    """A bus protected by DIVOT endpoints at both ends.

    Both endpoints measure the *same* physical line (the fingerprint covers
    the entire path between the two iTDRs, as the paper specifies), but each
    keeps its own ROM and makes its own decision — two-way authentication.
    """

    def __init__(
        self,
        line: TransmissionLine,
        master: DivotEndpoint,
        slave: DivotEndpoint,
    ) -> None:
        self.line = line
        self.master = master
        self.slave = slave

    def calibrate(self, n_captures: int = 8) -> None:
        """Pair the endpoints: both enroll the shared line."""
        self.master.calibrate(self.line, n_captures=n_captures)
        self.slave.calibrate(self.line, n_captures=n_captures)

    def step(
        self,
        modifiers: Sequence = (),
        line_override: Optional[TransmissionLine] = None,
        slave_line_override: Optional[TransmissionLine] = None,
        interference=None,
        engine: str = "born",
    ) -> ChannelStepResult:
        """One concurrent monitoring cycle on both ends.

        ``line_override`` substitutes what the master actually measures
        (e.g. the module was swapped); ``slave_line_override`` what the
        slave measures (e.g. the module now sits in an attacker's machine
        and sees a foreign bus).  The overridden line keeps the original
        line's *name* for ROM lookup — the attacker cannot rename physics.
        """
        master_line = self._named_like(line_override)
        slave_line = self._named_like(slave_line_override)
        master_result = self.master.monitor_capture(
            master_line, modifiers, interference=interference, engine=engine
        )
        slave_result = self.slave.monitor_capture(
            slave_line, modifiers, interference=interference, engine=engine
        )
        return ChannelStepResult(master=master_result, slave=slave_result)

    def _named_like(
        self, override: Optional[TransmissionLine]
    ) -> TransmissionLine:
        if override is None:
            return self.line
        return TransmissionLine(
            name=self.line.name,
            board_profile=override.board_profile,
            material=override.material,
            receiver=override.receiver,
        )
