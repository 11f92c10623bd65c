"""Process-wide content-addressed memo for physics solves.

The reflected-waveform solve is the expensive step of every capture, and
its result is a pure function of content: the resolved impedance profile,
the probe edge, the coupling, the engine, and the record length.  This
module holds the one memo for it: :func:`process_solve_cache`, a
process-wide LRU that :meth:`repro.core.itdr.ITDR.true_reflection` reads
and writes directly, so *every* iTDR in a process — the fleet keeps one
per configuration digest, experiments construct them freely — shares one
pool of solved states.

The default capacity (4096 entries, about 3.2 kB per prototype
reflection, so roughly 13 MB at the bound) holds every bus state a fleet
worker visits at benchmark scale: a fleet visits its buses round-robin,
and an LRU smaller than that working set would hit 0 % on every warm
re-scan.

The counters are solve accounting: ``hits`` counts solves avoided,
``misses`` counts solves performed, ``evictions`` counts entries dropped
by the LRU bound.  ``hits + misses`` therefore equals the number of solve
requests.  Fleet workers snapshot the counters around each shard and ship
the delta home, where :meth:`repro.core.runtime.Telemetry.record_cache`
folds it into the ``health.solve_cache`` section of every snapshot.

Caching is safe because cached values are immutable by convention
(:class:`~repro.signals.waveform.Waveform` is a frozen dataclass and no
consumer writes through ``.samples``) and keys are content hashes — an
in-place mutation of a line changes its hash and can never serve stale
physics.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Hashable, Optional

__all__ = ["SolveCache", "process_solve_cache"]


class SolveCache:
    """A bounded LRU memo with solve-level hit/miss/eviction counters."""

    #: Counter names, in the order they appear in :meth:`stats`.
    COUNTER_KEYS = ("hits", "misses", "evictions")

    def __init__(self, capacity: int = 4096) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._entries: "OrderedDict[Hashable, object]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def get(self, key: Hashable) -> Optional[object]:
        """The cached value, counting the lookup; None on a miss."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def put(self, key: Hashable, value: object) -> None:
        """Store one solved value, evicting least-recently-used over capacity."""
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1

    def stats(self) -> dict:
        """Counters plus occupancy, a plain JSON-ready dict."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "entries": len(self._entries),
            "capacity": self.capacity,
        }

    def clear(self) -> None:
        """Drop every entry and reset the counters."""
        self._entries.clear()
        self.hits = 0
        self.misses = 0
        self.evictions = 0


#: The per-process instance.  Module-level so pool workers each get
#: their own on first import — no cross-process sharing to reason about.
_PROCESS_CACHE = SolveCache()


def process_solve_cache() -> SolveCache:
    """This process's shared solve memo."""
    return _PROCESS_CACHE
