"""The DIVOT-protected memory bus example design (paper Fig. 6).

A behavioural SDRAM with bank timing, a CPU-side memory controller, the
physical bus, and the protected system composing them with two-way DIVOT
endpoints: the CPU authenticates the module and bus, the module gates
column access on authenticating the CPU and bus, and attacks injected
mid-run are detected and reacted to.
"""

from .bus import MemoryBus
from .controller import CompletedRequest, MemoryController
from .dram import AccessResult, DRAMTiming, SDRAMDevice
from .encryption import CounterModeEngine, EncryptedWord, xtea_encrypt_block
from .protocol import MEMBUS_SPEC, membus_traffic
from .scheduler import FCFSPolicy, FRFCFSPolicy, make_policy
from .system import ProtectedMemorySystem, RunResult
from .transactions import (
    AddressMap,
    DecodedAddress,
    MemoryOp,
    MemoryRequest,
    TraceGenerator,
)


__all__ = [
    "MemoryOp",
    "MemoryRequest",
    "DecodedAddress",
    "AddressMap",
    "TraceGenerator",
    "DRAMTiming",
    "AccessResult",
    "SDRAMDevice",
    "MemoryBus",
    "MemoryController",
    "CompletedRequest",
    "FCFSPolicy",
    "FRFCFSPolicy",
    "make_policy",
    "CounterModeEngine",
    "EncryptedWord",
    "xtea_encrypt_block",
    "ProtectedMemorySystem",
    "RunResult",
    "MEMBUS_SPEC",
    "membus_traffic",
]
