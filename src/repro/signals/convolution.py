"""Shared convolution kernel with a deterministic method switch.

Every hot-path convolution in the simulator routes through here.  Direct
time-domain convolution is O(n*m); for the record lengths the physics
solve produces, an FFT convolution is asymptotically cheaper — but the
two methods differ in floating-point rounding, so *which* method runs
must never depend on anything but the operand shapes.  The rule:

* the method is a pure function of the operand **lengths** — never of
  values, batch size, process identity, or thread timing;
* a batch convolves all rows with the same method its single-row case
  would use, so fan-out cannot change the arithmetic.

That invariant is what keeps sharded fleet scans byte-identical across
``shards=1`` serial and ``shards=K`` process backends (docs/TESTING.md):
a pool worker is never allowed to pick a different algorithm than the
serial fallback re-running the same shard would.
"""

from __future__ import annotations

import numpy as np
from scipy.signal import fftconvolve

__all__ = [
    "DIRECT_COST_CEILING",
    "MIN_FFT_LENGTH",
    "batch_convolve_full",
    "conv_method",
    "convolve_full",
]

#: Shorter-operand length below which FFT bookkeeping cannot win.
MIN_FFT_LENGTH = 32

#: Length-product ceiling under which the O(n*m) direct method is still
#: cheaper than three transforms.
DIRECT_COST_CEILING = 1 << 15


def conv_method(n: int, m: int) -> str:
    """``"direct"`` or ``"fft"`` for operand lengths ``(n, m)``.

    Deterministic in the lengths alone — see the module docstring for
    why nothing else may enter this decision.
    """
    if n < 1 or m < 1:
        raise ValueError("convolution operands must be non-empty")
    if min(n, m) < MIN_FFT_LENGTH or n * m <= DIRECT_COST_CEILING:
        return "direct"
    return "fft"


def convolve_full(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Full linear convolution of two 1-D arrays, length ``n + m - 1``."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if conv_method(len(a), len(b)) == "direct":
        return np.convolve(a, b)
    return fftconvolve(a, b)


def batch_convolve_full(rows: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Convolve every row of ``(C, K)`` with a 1-D ``kernel``, ``(C, K+M-1)``.

    The method depends on ``(K, M)`` only: a C-row batch always takes
    the path a one-row batch of the same row length would.  The direct
    path accumulates one shifted, scaled copy of the rows per kernel tap
    (M vectorised passes — chosen only when M or the K*M product is
    small), the FFT path transforms all rows at once.
    """
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    kernel = np.asarray(kernel, dtype=float)
    c, k = rows.shape
    m = len(kernel)
    if conv_method(k, m) == "direct":
        out = np.zeros((c, k + m - 1))
        for j in range(m):
            out[:, j : j + k] += kernel[j] * rows
        return out
    return fftconvolve(rows, kernel[None, :], axes=1)
