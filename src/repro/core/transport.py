"""The fleet's shard transport: one pickle per shard task.

On the process backend every shard task crosses the process boundary by
value.  The executor pickles it once with :func:`pack_into` and submits
the bytes, so the pool itself only copies a ``bytes`` object; the worker
rebuilds the task with :func:`unpack`.  Seeds travel as plain
``SeedSequence`` objects, and results (fleet records, enrolled
fingerprints, identify captures) come home by value in the pool's return
pickle.  The serial backend packs nothing: its tasks never leave the
process.

Pickling is value-exact for every payload the fleet ships (float arrays
round-trip bitwise), so the transport can never change *which* values
arrive — outcomes stay byte-identical across backends and shard counts.
"""

from __future__ import annotations

import pickle

__all__ = ["TRANSPORT_COUNTER_KEYS", "pack_into", "unpack"]

#: The ``Telemetry.snapshot()["health"]["transport"]`` ledger.  Only
#: ``bytes_moved`` and ``payloads_packed`` move.  The other four keys, and
#: :data:`SEGMENT_PREFIX`, belong to a removed shared-memory path; they
#: exist (the keys always 0) only because ``perfbench``'s traced fleet
#: run reads them.
TRANSPORT_COUNTER_KEYS = (
    "bytes_moved",
    "payloads_packed",
    "bytes_referenced",
    "payloads_reused",
    "worker_cache_hits",
    "segments_created",
)
SEGMENT_PREFIX = "repro-"


def pack_into(task, telemetry) -> bytes:
    """Pickle one shard task for the pool, counted in ``telemetry``."""
    payload = pickle.dumps(task, protocol=pickle.HIGHEST_PROTOCOL)
    telemetry.record_transport(
        {"bytes_moved": len(payload), "payloads_packed": 1}
    )
    return payload


def unpack(payload: bytes):
    """Rebuild a task packed by :func:`pack_into` (worker side)."""
    return pickle.loads(payload)
