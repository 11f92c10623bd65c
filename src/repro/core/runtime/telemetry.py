"""Structured monitoring telemetry shared by every workload.

The telemetry sink turns the runtime's event stream into one dict shape:
per-endpoint counters, score histograms, cadence cost accounting, and
detection-latency summaries.  Experiments and benchmarks assert on the
same keys whether the events came from the memory bus, the serial link,
or the shared-datapath manager — the cross-workload comparison surface
the per-application list comprehensions could never give.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from ..capturekernel import CaptureKernelStats
from ..divot import Action
from ..solvecache import SolveCache, process_solve_cache
from ..transport import TRANSPORT_COUNTER_KEYS
from .events import EventLog, MonitorEvent

__all__ = ["Telemetry", "SCORE_BINS"]

#: Default histogram bin count over the similarity-score range [0, 1].
SCORE_BINS = 20


class Telemetry:
    """Event sink accumulating the shared monitoring metrics.

    Attach one per workload (it survives across runs/scans) and read
    :meth:`snapshot` — a plain dict with a stable schema:

    ``endpoints``
        per-side cell: ``checks``, ``proceeds``, ``blocks``, ``alerts``,
        ``flagged`` (non-PROCEED), ``tampered``, and a ``score``
        sub-dict (count/mean/min/max plus a fixed-bin histogram);
    ``buses``
        the same cell shape keyed by bus name, for multi-bus workloads;
    ``protocols``
        the same cell shape keyed by protected-link protocol name
        (``"membus"``, ``"jtag"``, ...), for registry-assembled
        workloads and mixed-protocol fleets; empty when events carry no
        protocol label;
    ``shards``
        the same cell shape keyed by shard id, for sharded fleet scans
        (empty for single-datapath workloads — shard labels are
        provenance, so these cells depend on the shard count while
        every other cell does not);
    ``totals``
        one cell over every event;
    ``cadence``
        ``checks_run`` and ``triggers_consumed`` folded in from the
        driving cadence(s);
    ``health``
        dispatch-fault accounting folded in from a sharded executor
        (``dispatches``, ``degraded_dispatches``, ``retries``,
        ``serial_fallbacks``, ``pool_rebuilds``, per-fault-kind
        counters, and ``per_shard_wall_s`` wall-time cells), plus the
        ``solve_cache`` section: ``process`` is this process's live
        solve-memo counters (hits/misses/evictions/occupancy), and
        ``workers`` accumulates the per-shard deltas fleet dispatches
        shipped home, and the ``capture_kernel`` section accumulates
        the per-shard fused/grid/dense-render counter deltas (see
        :class:`~repro.core.capturekernel.CaptureKernelStats`), and
        the ``transport`` section accumulates the shard-transport
        ledger (shard tasks pickled for the process pool and their
        bytes — see :mod:`repro.core.transport`); all-zero with an
        empty wall-time map for single-datapath workloads, so the
        snapshot shape stays identical across every workload;
    ``detection``
        ``onset_s``, ``first_alert_s``, overall ``latency_s`` and
        ``per_side`` latencies for the given attack onset;
    ``campaigns``
        adaptive-adversary campaign cells folded in via
        :meth:`record_campaign`, keyed ``"<protocol>/<strategy>"`` —
        ROC points, AUC, detection-latency frontiers, and baseline
        gaps; empty for workloads that ran no campaign, so the
        snapshot shape stays identical across every workload.
    """

    #: Health counters every snapshot carries (zeroed when unused).
    HEALTH_KEYS = (
        "dispatches",
        "degraded_dispatches",
        "retries",
        "serial_fallbacks",
        "pool_rebuilds",
        "timeouts",
        "broken_pools",
        "crashes",
        "errors",
    )

    def __init__(self, score_bins: int = SCORE_BINS) -> None:
        if score_bins < 1:
            raise ValueError("score_bins must be >= 1")
        self.score_bins = score_bins
        #: Every event this workload ever emitted, in time order.
        self.log = EventLog()
        self._cadence = {"checks_run": 0, "triggers_consumed": 0}
        self._health = {key: 0 for key in self.HEALTH_KEYS}
        self._shard_wall: Dict[int, Dict[str, float]] = {}
        self._solve_cache = {key: 0 for key in SolveCache.COUNTER_KEYS}
        self._capture_kernel = {
            key: 0 for key in CaptureKernelStats.COUNTER_KEYS
        }
        self._transport = {key: 0 for key in TRANSPORT_COUNTER_KEYS}
        self._campaigns: Dict[str, dict] = {}

    # -- sink protocol -------------------------------------------------
    def emit(self, event: MonitorEvent) -> None:
        """Record one monitoring event (runtime sink entry point)."""
        self.log.emit(event)

    def record_cadence(self, counters: Dict[str, int]) -> None:
        """Fold one run's cadence accounting into the workload totals."""
        for key in self._cadence:
            self._cadence[key] += int(counters.get(key, 0))

    def record_health(self, counters: Dict[str, int]) -> None:
        """Fold one dispatch's fault/recovery accounting into the totals."""
        for key in self._health:
            self._health[key] += int(counters.get(key, 0))

    def record_cache(self, counters: Dict[str, int]) -> None:
        """Fold one shard's solve-cache hit/miss/eviction delta in.

        Worker processes own their per-process solve caches; the parent
        cannot read them directly, so each shard ships the counter delta
        its visits produced and the dispatch loop folds it here.
        """
        for key in self._solve_cache:
            self._solve_cache[key] += int(counters.get(key, 0))

    def record_kernel(self, counters: Dict[str, int]) -> None:
        """Fold one shard's capture-kernel counter delta in.

        Same shipping discipline as :meth:`record_cache`: worker
        processes own their iTDRs, so each dispatch returns the
        fused/grid/dense-render counter movement its visits produced and
        the parent accumulates it here — the surface the fusion
        booby-trap test reads to prove fleet scans render no dense grids
        in the steady state.
        """
        for key in self._capture_kernel:
            self._capture_kernel[key] += int(counters.get(key, 0))

    def record_transport(self, counters: Dict[str, int]) -> None:
        """Fold shard-transport counter movement in.

        :func:`~repro.core.transport.pack_into` reports every shard task
        it pickles for the process pool here.
        """
        for key in self._transport:
            self._transport[key] += int(counters.get(key, 0))

    def record_campaign(self, key: str, cell: dict) -> None:
        """Fold one campaign arm's frontier summary into the snapshot.

        ``key`` identifies the cell (convention:
        ``"<protocol>/<strategy>"``); recording the same key twice
        replaces the cell — a campaign re-run supersedes its earlier
        summary rather than double-counting it.
        """
        if not key:
            raise ValueError("campaign key must be non-empty")
        self._campaigns[key] = dict(cell)

    def record_shard_wall(self, shard: int, wall_s: float) -> None:
        """Fold one shard's dispatch wall time into its running cell."""
        cell = self._shard_wall.setdefault(
            shard, {"dispatches": 0, "total_s": 0.0, "max_s": 0.0}
        )
        cell["dispatches"] += 1
        cell["total_s"] += float(wall_s)
        cell["max_s"] = max(cell["max_s"], float(wall_s))

    # -- the structured surface ----------------------------------------
    def _cell(self, events: List[MonitorEvent]) -> dict:
        scores = np.array([e.score for e in events], dtype=float)
        if scores.size:
            hist, edges = np.histogram(
                scores, bins=self.score_bins, range=(0.0, 1.0)
            )
            score = {
                "count": int(scores.size),
                "mean": float(scores.mean()),
                "min": float(scores.min()),
                "max": float(scores.max()),
                "hist": hist.tolist(),
                "bin_edges": edges.tolist(),
            }
        else:
            edges = np.linspace(0.0, 1.0, self.score_bins + 1)
            score = {
                "count": 0,
                "mean": None,
                "min": None,
                "max": None,
                "hist": [0] * self.score_bins,
                "bin_edges": edges.tolist(),
            }
        proceeds = sum(1 for e in events if e.action is Action.PROCEED)
        return {
            "checks": len(events),
            "proceeds": proceeds,
            "blocks": sum(1 for e in events if e.action is Action.BLOCK),
            "alerts": sum(1 for e in events if e.action is Action.ALERT),
            "flagged": len(events) - proceeds,
            "tampered": sum(1 for e in events if e.tampered),
            "score": score,
        }

    def snapshot(self, onset_s: Optional[float] = None) -> dict:
        """The structured metrics dict (optionally against an attack onset)."""
        sides = sorted({e.side for e in self.log})
        buses = sorted({e.bus for e in self.log if e.bus is not None})
        shards = sorted({e.shard for e in self.log if e.shard is not None})
        protocols = sorted(
            {e.protocol for e in self.log if e.protocol is not None}
        )
        detection = {
            "onset_s": onset_s,
            "first_alert_s": self.log.first_alert_time(),
            "latency_s": (
                None
                if onset_s is None
                else self.log.detection_latency(onset_s)
            ),
            "per_side": (
                {}
                if onset_s is None
                else {
                    side: self.log.detection_latency(onset_s, side=side)
                    for side in sides
                }
            ),
        }
        return {
            "endpoints": {
                side: self._cell(self.log.filter(side=side))
                for side in sides
            },
            "buses": {
                bus: self._cell(self.log.filter(bus=bus)) for bus in buses
            },
            "shards": {
                shard: self._cell(self.log.filter(shard=shard))
                for shard in shards
            },
            "protocols": {
                protocol: self._cell(self.log.filter(protocol=protocol))
                for protocol in protocols
            },
            "totals": self._cell(self.log.events),
            "cadence": dict(self._cadence),
            "health": {
                **self._health,
                "per_shard_wall_s": {
                    shard: dict(cell)
                    for shard, cell in sorted(self._shard_wall.items())
                },
                "solve_cache": {
                    "process": process_solve_cache().stats(),
                    "workers": dict(self._solve_cache),
                },
                "capture_kernel": dict(self._capture_kernel),
                "transport": dict(self._transport),
            },
            "detection": detection,
            "campaigns": {
                key: dict(cell)
                for key, cell in sorted(self._campaigns.items())
            },
        }
