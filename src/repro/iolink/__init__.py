"""DIVOT on a serial I/O link (the paper's future-work extension).

A genuine 8b/10b-coded serial lane with link-layer framing and CRC, plus
two-way DIVOT endpoints whose monitoring is fed by the traffic's own
trigger supply — the full section II-E runtime-measurement story on a
clockless lane.
"""

from .frame import Frame, FrameError, crc16_ccitt
from .link import LINE_CODINGS, SerialLink, TransmitRecord
from .protected import LinkRunResult, ProtectedSerialLink
from .protocol import IOLINK_SPEC, iolink_traffic


__all__ = [
    "Frame",
    "FrameError",
    "crc16_ccitt",
    "SerialLink",
    "LINE_CODINGS",
    "TransmitRecord",
    "ProtectedSerialLink",
    "LinkRunResult",
    "IOLINK_SPEC",
    "iolink_traffic",
]
