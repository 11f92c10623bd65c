"""The campaign engine: adaptive adversaries versus the fleet detector.

One :class:`Campaign` pits a set of strategy arms against one protocol:
every arm gets a *twin pair* of buses — a clean line and an electrically
identical line the arm attacks — registered on one per-protocol
:class:`~repro.core.fleet.FleetScanExecutor` built from the spec's own
detector tuning.  Each round every arm proposes its attack state, one
sharded fleet scan judges the whole board, and each arm sees its own
feedback before adapting.  Clean-twin records accumulate the false-alarm
sample; attack records, in round order, the detection/latency sample —
:mod:`repro.analysis.frontier` turns the pair into ROC curves and
detection-latency frontiers per arm.

Determinism is inherited from the fleet layer and sharpened: every seed
stream any operation consumes is derived as
``SeedSequence([seed, proto_key, arm, slot, op])`` — pure coordinates,
no global counters — so a campaign's outcome is byte-identical across
shard counts and backends, *and* a single-arm campaign replays exactly
its slice of a joint campaign (the interleaving-invariance property
``tests/property/test_campaign_guard.py`` pins).
"""

from __future__ import annotations

import hashlib
import pickle
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..analysis.frontier import (
    LatencyPoint,
    RocPoint,
    detection_latency_frontier,
    roc_auc,
    roc_sweep,
)
from ..core.config import prototype_itdr, prototype_line_factory
from ..core.divot import Action
from ..core.fleet import FleetScanExecutor
from ..core.runtime import MonitorEvent, Telemetry
from ..core.runtime.events import EventLog
from ..protocols import registry
from ..protocols.spec import ProtocolSpec
from .strategies import default_strategies
from .strategy import (
    ArmContext,
    CampaignStrategy,
    RoundFeedback,
    validate_strategies,
)

__all__ = [
    "ArmRound",
    "ArmReport",
    "CampaignOutcome",
    "Campaign",
    "CampaignSuite",
    "campaign_streams",
    "clone_gap",
]

#: Stream slots within one (campaign, protocol, arm) coordinate:
#: the clean twin's measurements, the attack twin's measurements, and
#: the adversary's own randomness.
SLOT_CLEAN, SLOT_ATTACK, SLOT_ADVERSARY = 0, 1, 2

#: Operation index of enrollment; round ``r`` uses ``r + 1``.
OP_ENROLL = 0


def _proto_key(name: str) -> int:
    """A stable 32-bit coordinate for a protocol name.

    Hash-derived rather than positional so adding or removing protocols
    from a suite never shifts another protocol's seed streams.
    """
    digest = hashlib.blake2b(name.encode(), digest_size=4).digest()
    return int.from_bytes(digest, "big")


def campaign_streams(
    seed: int, protocol: str, arm: int, slot: int, op: int
) -> np.random.SeedSequence:
    """The seed stream for one campaign coordinate.

    Pure function of ``(seed, protocol, arm, slot, op)`` — the whole
    determinism story: nothing about execution order, shard count, or
    which other arms ran can reach a stream's entropy.
    """
    return np.random.SeedSequence(
        [seed, _proto_key(protocol), arm, slot, op]
    )


@dataclass(frozen=True)
class ArmRound:
    """One round of one arm: the twin pair's judged outcomes.

    ``clean_statistic`` / ``attack_statistic`` are the arm's suspicion
    channel evaluated on the clean and attacked twin — the sample pair
    the frontiers sweep.
    """

    round_index: int
    action: Action
    score: float
    tampered: bool
    peak_error: float
    clean_statistic: float
    attack_statistic: float

    @property
    def detected(self) -> bool:
        """Whether the deployed detector flagged the attacked twin."""
        return self.action is not Action.PROCEED


@dataclass(frozen=True)
class ArmReport:
    """One arm's full campaign result with its frontier analysis."""

    arm: int
    strategy: str
    statistic: str
    rounds: Tuple[ArmRound, ...]
    roc: Tuple[RocPoint, ...]
    auc: float
    latency: Tuple[LatencyPoint, ...]

    @property
    def clean_samples(self) -> List[float]:
        """False-alarm sample: the clean twin's statistic per round."""
        return [r.clean_statistic for r in self.rounds]

    @property
    def attack_samples(self) -> List[float]:
        """Detection sample: the attacked twin's statistic, round order."""
        return [r.attack_statistic for r in self.rounds]

    @property
    def first_detection_round(self) -> Optional[int]:
        """1-based round the deployed detector first fired, if ever."""
        for r in self.rounds:
            if r.detected:
                return r.round_index + 1
        return None

    def telemetry_cell(self, protocol: str) -> dict:
        """The snapshot cell :meth:`Telemetry.record_campaign` stores."""
        return {
            "protocol": protocol,
            "strategy": self.strategy,
            "statistic": self.statistic,
            "rounds": len(self.rounds),
            "auc": self.auc,
            "roc": [(p.threshold, p.fpr, p.tpr) for p in self.roc],
            "latency": [
                (p.threshold, p.fpr, p.rounds_to_detect)
                for p in self.latency
            ],
            "first_detection_round": self.first_detection_round,
            "final_statistic": self.rounds[-1].attack_statistic,
        }


def clone_gap(
    oneshot: ArmReport, adaptive: ArmReport
) -> dict:
    """How much detection the adaptive cloner evades versus one-shot.

    Sweeps every pooled statistic value as a threshold and reports the
    operating point where the detector's true-positive rate against the
    one-shot baseline exceeds its rate against the adaptive arm the
    most.  ``gap > 0`` means the adaptive campaign beats the baseline on
    at least one operating point — the acceptance criterion X-CAMPAIGN
    asserts and telemetry publishes.
    """
    base = np.asarray(oneshot.attack_samples, dtype=float)
    adapt = np.asarray(adaptive.attack_samples, dtype=float)
    thresholds = np.unique(np.concatenate([base, adapt]))
    best = None
    for level in thresholds:
        tpr_base = float(np.mean(base >= level))
        tpr_adapt = float(np.mean(adapt >= level))
        gap = tpr_base - tpr_adapt
        if best is None or gap > best["gap"]:
            best = {
                "gap": gap,
                "threshold": float(level),
                "tpr_oneshot": tpr_base,
                "tpr_adaptive": tpr_adapt,
            }
    best["baseline"] = oneshot.strategy
    best["adaptive"] = adaptive.strategy
    return best


@dataclass(frozen=True)
class CampaignOutcome:
    """One protocol's finished campaign across every arm."""

    protocol: str
    seed: int
    n_rounds: int
    shards: int
    backend: str
    arms: Tuple[ArmReport, ...]

    def arm(self, strategy: str) -> ArmReport:
        """The report of the named strategy arm."""
        for report in self.arms:
            if report.strategy == strategy:
                return report
        raise KeyError(f"no arm named {strategy!r}")

    def merged_events(self) -> EventLog:
        """The campaign's deterministic event stream, round-major.

        One event per (round, arm): time is the round index, side is the
        strategy label — derived purely from the arm rounds, so two
        campaigns that measured the same rounds merge to byte-identical
        logs regardless of how their scans interleaved.
        """
        log = EventLog()
        for round_index in range(self.n_rounds):
            for report in self.arms:
                r = report.rounds[round_index]
                log.emit(
                    MonitorEvent(
                        time_s=float(round_index),
                        side=report.strategy,
                        action=r.action,
                        score=r.score,
                        tampered=r.tampered,
                        location_m=None,
                        bus=f"{self.protocol}/{report.strategy}/attack",
                        protocol=self.protocol,
                    )
                )
        return log

    def canonical_bytes(self) -> bytes:
        """Deterministic serialisation of the execution-independent result.

        Pure measurement content — per-arm rounds and their frontier
        inputs; ``shards``/``backend`` provenance is excluded.  The
        byte-identity contract X-CAMPAIGN and the property suite pin:
        serial and sharded campaigns, and any interleaving of arms onto
        executors, produce identical bytes.
        """
        payload = tuple(
            (
                self.protocol,
                report.strategy,
                report.statistic,
                tuple(
                    (
                        r.round_index,
                        r.action.value,
                        r.score,
                        r.tampered,
                        r.peak_error,
                        r.clean_statistic,
                        r.attack_statistic,
                    )
                    for r in report.rounds
                ),
                tuple((p.threshold, p.fpr, p.tpr) for p in report.roc),
            )
            for report in self.arms
        )
        return pickle.dumps((self.seed, self.n_rounds, payload), protocol=4)


class Campaign:
    """Adaptive adversary arms versus one protocol's tuned detector.

    Args:
        protocol: Registry name or an explicit :class:`ProtocolSpec`.
        strategies: The arms to run (default: every stock strategy).
            ``arm_ids`` may pin each strategy's seed coordinate so a
            sub-campaign replays exactly its slice of a larger one;
            by default arms are numbered by position.
        seed: Campaign seed — with the protocol name and arm ids, the
            complete description of every random draw.
        n_rounds: Adaptive rounds per arm.
        shards / backend: Fleet execution knobs (measurement-invisible).
        telemetry: Shared sink; pass one across campaigns to aggregate
            a whole suite into a single snapshot.
    """

    def __init__(
        self,
        protocol: Union[str, ProtocolSpec],
        strategies: Optional[Sequence[CampaignStrategy]] = None,
        arm_ids: Optional[Sequence[int]] = None,
        seed: int = 0,
        n_rounds: int = 6,
        shards: int = 1,
        backend: str = "auto",
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        self.spec = (
            registry.get(protocol) if isinstance(protocol, str) else protocol
        )
        self.strategies = list(
            strategies if strategies is not None else default_strategies()
        )
        if not self.strategies:
            raise ValueError("need at least one strategy arm")
        validate_strategies(self.strategies)
        if arm_ids is None:
            arm_ids = list(range(len(self.strategies)))
        else:
            arm_ids = [int(a) for a in arm_ids]
            if len(arm_ids) != len(self.strategies):
                raise ValueError("arm_ids must parallel strategies")
            if len(set(arm_ids)) != len(arm_ids):
                raise ValueError("arm_ids must be unique")
        self.arm_ids = arm_ids
        if n_rounds < 1:
            raise ValueError("n_rounds must be >= 1")
        self.seed = int(seed)
        self.n_rounds = int(n_rounds)
        self.shards = shards
        self.backend = backend
        self.telemetry = telemetry if telemetry is not None else Telemetry()

    # ------------------------------------------------------------------
    def _stream(self, arm: int, slot: int, op: int) -> np.random.SeedSequence:
        return campaign_streams(self.seed, self.spec.name, arm, slot, op)

    def _adversary_rng(self, arm: int, op: int) -> np.random.Generator:
        return np.random.default_rng(
            self._stream(arm, SLOT_ADVERSARY, op)
        )

    def _bus_streams(self, op: int) -> List[np.random.SeedSequence]:
        streams: List[np.random.SeedSequence] = []
        for arm in self.arm_ids:
            streams.append(self._stream(arm, SLOT_CLEAN, op))
            streams.append(self._stream(arm, SLOT_ATTACK, op))
        return streams

    def _bus_names(self, strategy: CampaignStrategy) -> Tuple[str, str]:
        stem = f"{self.spec.name}/{strategy.name}"
        return f"{stem}/clean", f"{stem}/attack"

    # ------------------------------------------------------------------
    def run(self) -> CampaignOutcome:
        """Play every arm for ``n_rounds`` and analyse the frontiers."""
        spec = self.spec
        executor = FleetScanExecutor(
            spec.authenticator(),
            spec.tamper_detector(prototype_itdr()),
            captures_per_check=spec.captures_per_check,
            shards=self.shards,
            backend=self.backend,
            seed=self.seed,
            telemetry=self.telemetry,
        )
        factory = prototype_line_factory()
        attack_lines = []
        with executor:
            for arm, strategy in zip(self.arm_ids, self.strategies):
                # Twin lines: same manufacturing seed, so the attacked
                # bus is electrically identical to its clean control —
                # any statistic difference is the attack, nothing else.
                line_seed = spec.line_seed + 101 * arm
                clean_name, attack_name = self._bus_names(strategy)
                clean = factory.manufacture(seed=line_seed, name=clean_name)
                attack = factory.manufacture(seed=line_seed, name=attack_name)
                executor.register(clean, protocol=spec.name)
                executor.register(attack, protocol=spec.name)
                attack_lines.append(attack)
            for arm, strategy, line in zip(
                self.arm_ids, self.strategies, attack_lines
            ):
                strategy.begin(
                    ArmContext(spec=spec, line=line, n_rounds=self.n_rounds),
                    self._adversary_rng(arm, OP_ENROLL),
                )
            executor.enroll(streams=self._bus_streams(OP_ENROLL))
            rounds_by_arm: List[List[ArmRound]] = [
                [] for _ in self.strategies
            ]
            for round_index in range(self.n_rounds):
                op = round_index + 1
                rngs = [
                    self._adversary_rng(arm, op) for arm in self.arm_ids
                ]
                modifiers: Dict[str, Sequence] = {}
                for strategy, rng in zip(self.strategies, rngs):
                    _, attack_name = self._bus_names(strategy)
                    modifiers[attack_name] = strategy.propose(
                        round_index, rng
                    )
                outcome = executor.scan(
                    modifiers_by_bus=modifiers,
                    streams=self._bus_streams(op),
                )
                by_bus = {r.bus: r for r in outcome.records}
                for strategy, rng, rounds in zip(
                    self.strategies, rngs, rounds_by_arm
                ):
                    clean_name, attack_name = self._bus_names(strategy)
                    crec, arec = by_bus[clean_name], by_bus[attack_name]
                    feedback = RoundFeedback(
                        round_index=round_index,
                        action=arec.action,
                        score=arec.score,
                        tampered=arec.tampered,
                        peak_error=arec.peak_error,
                    )
                    strategy.observe(feedback, rng)
                    rounds.append(
                        ArmRound(
                            round_index=round_index,
                            action=arec.action,
                            score=arec.score,
                            tampered=arec.tampered,
                            peak_error=arec.peak_error,
                            clean_statistic=strategy.statistic_of(
                                crec.score, crec.peak_error
                            ),
                            attack_statistic=strategy.statistic_of(
                                arec.score, arec.peak_error
                            ),
                        )
                    )
        reports = []
        for arm, strategy, rounds in zip(
            self.arm_ids, self.strategies, rounds_by_arm
        ):
            clean = [r.clean_statistic for r in rounds]
            attack = [r.attack_statistic for r in rounds]
            roc = tuple(roc_sweep(clean, attack))
            latency = tuple(detection_latency_frontier(clean, attack))
            reports.append(
                ArmReport(
                    arm=arm,
                    strategy=strategy.name,
                    statistic=strategy.statistic,
                    rounds=tuple(rounds),
                    roc=roc,
                    auc=roc_auc(roc),
                    latency=latency,
                )
            )
        outcome = CampaignOutcome(
            protocol=spec.name,
            seed=self.seed,
            n_rounds=self.n_rounds,
            shards=self.shards,
            backend=executor.resolved_backend(),
            arms=tuple(reports),
        )
        self._publish(outcome)
        return outcome

    def _publish(self, outcome: CampaignOutcome) -> None:
        """Fold the outcome's frontier cells into the telemetry sink."""
        for report in outcome.arms:
            self.telemetry.record_campaign(
                f"{outcome.protocol}/{report.strategy}",
                report.telemetry_cell(outcome.protocol),
            )
        by_name = {report.strategy: report for report in outcome.arms}
        if "clone-oneshot" in by_name and "clone-fit" in by_name:
            self.telemetry.record_campaign(
                f"{outcome.protocol}/clone_gap",
                clone_gap(by_name["clone-oneshot"], by_name["clone-fit"]),
            )


class CampaignSuite:
    """One campaign per protocol, aggregated into one telemetry surface.

    The X-CAMPAIGN driver: runs the same strategy roster against every
    named protocol's own tuned detector, sharing a single
    :class:`Telemetry` so ``snapshot()["campaigns"]`` carries every
    ``"<protocol>/<strategy>"`` cell (plus per-protocol ``clone_gap``
    cells) side by side.
    """

    def __init__(
        self,
        protocols: Optional[Sequence[str]] = None,
        seed: int = 0,
        n_rounds: int = 6,
        shards: int = 1,
        backend: str = "auto",
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        self.protocols = list(
            protocols if protocols is not None else ("jtag", "spi", "i2c")
        )
        if not self.protocols:
            raise ValueError("need at least one protocol")
        self.seed = int(seed)
        self.n_rounds = int(n_rounds)
        self.shards = shards
        self.backend = backend
        self.telemetry = telemetry if telemetry is not None else Telemetry()

    def run(self) -> Dict[str, CampaignOutcome]:
        """Run every protocol's campaign; outcomes keyed by protocol."""
        outcomes: Dict[str, CampaignOutcome] = {}
        for protocol in self.protocols:
            campaign = Campaign(
                protocol,
                seed=self.seed,
                n_rounds=self.n_rounds,
                shards=self.shards,
                backend=self.backend,
                telemetry=self.telemetry,
            )
            outcomes[protocol] = campaign.run()
        return outcomes

    @staticmethod
    def canonical_bytes(outcomes: Dict[str, CampaignOutcome]) -> bytes:
        """Deterministic serialisation of a whole suite run."""
        return b"".join(
            outcomes[protocol].canonical_bytes()
            for protocol in sorted(outcomes)
        )
