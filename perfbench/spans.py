"""In-memory span recorder installed around the program's public calls.

The traced run patches each measured callable where its callers look it
up (a class attribute, a module global, or an attribute of one object)
and restores every patch on exit.  Spans record name, start, end, parent
span and operation id; they stay in memory until the run writes them out.

Hot leaf calls (one 8b/10b symbol, one CRC) would cost more to record
than to run, so a wrapper may aggregate instead: it still counts calls
and busy time, and still counts as child time of the span around it,
but it stores no span of its own.
"""

from __future__ import annotations

import itertools
import json
import time
from collections import defaultdict
from typing import Dict, List, Optional


class _Stat:
    __slots__ = ("calls", "busy_ns", "self_ns")

    def __init__(self) -> None:
        self.calls = 0
        self.busy_ns = 0
        self.self_ns = 0


class Tracer:
    """Span stack, per-name totals and the patches that feed them."""

    def __init__(self) -> None:
        #: Finished spans: (id, name, start_ns, end_ns, parent_id, op).
        self.spans: List[tuple] = []
        self.stats: Dict[str, _Stat] = defaultdict(_Stat)
        #: Plain event counts a wrapper adds to (e.g. traffic units).
        self.counts: Dict[str, int] = defaultdict(int)
        #: Operation id stamped on every span; set by the workload loop.
        self.op: Optional[int] = None
        self._ids = itertools.count()
        # Open frames: [span_id, child_ns].
        self._stack: List[list] = []
        self._depth: Dict[str, int] = defaultdict(int)
        self._patches: List[tuple] = []

    # -- recording ------------------------------------------------------
    def call(self, name: str, record: bool, materialize: bool, fn, args,
             kwargs):
        parent = self._stack[-1][0] if self._stack else None
        frame = [next(self._ids), 0]
        self._stack.append(frame)
        self._depth[name] += 1
        start = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
            if materialize:
                result = list(result)
            return result
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self._depth[name] -= 1
            duration = end - start
            if self._stack:
                self._stack[-1][1] += duration
            stat = self.stats[name]
            stat.calls += 1
            stat.self_ns += duration - frame[1]
            # Busy time counts the outermost call of a name only, so a
            # method that calls its own batch form is not counted twice.
            if self._depth[name] == 0:
                stat.busy_ns += duration
            if record:
                self.spans.append(
                    (frame[0], name, start, end, parent, self.op)
                )

    def span(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside one recorded span (operation boundaries)."""
        return self.call(name, True, False, fn, args, kwargs)

    # -- patching -------------------------------------------------------
    def patch(self, owner, attr: str, name: str, record: bool = True,
              materialize: bool = False) -> None:
        """Replace ``owner.attr`` by a recording wrapper until :meth:`restore`.

        ``materialize`` drains a returned iterable inside the span, so a
        generator's work is timed where it is produced.
        """
        original = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            return tracer.call(name, record, materialize, original, args,
                               kwargs)

        traced.__wrapped__ = original
        self.replace(owner, attr, traced)

    def replace(self, owner, attr: str, value) -> None:
        """Set ``owner.attr`` to ``value`` until :meth:`restore`."""
        own = attr in vars(owner)
        raw = vars(owner)[attr] if own else None
        self._patches.append((owner, attr, own, raw))
        _set(owner, attr, value)

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attr, own, raw = self._patches.pop()
            if own:
                _set(owner, attr, raw)
            else:
                delattr(owner, attr)

    # -- reading --------------------------------------------------------
    def busy_s(self, name: str) -> float:
        return self.stats[name].busy_ns / 1e9 if name in self.stats else 0.0

    def self_s(self, name: str) -> float:
        return self.stats[name].self_ns / 1e9 if name in self.stats else 0.0

    def calls(self, name: str) -> int:
        return self.stats[name].calls if name in self.stats else 0

    def write(self, path) -> None:
        """Write every span as one JSON array per line."""
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def _set(owner, attr: str, value) -> None:
    # Frozen dataclass instances refuse setattr; classes and modules
    # take it normally.
    if isinstance(owner, type) or not hasattr(owner, "__dataclass_fields__"):
        setattr(owner, attr, value)
    else:
        object.__setattr__(owner, attr, value)
