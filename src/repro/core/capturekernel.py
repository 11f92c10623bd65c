"""The fused count-only capture kernel.

The iTDR's consumers — authentication, tamper checks, fleet scans — only
ever use the comparator *counts* (and the voltage estimates inverted from
them).  Yet the historical capture path re-derived everything per call:
P(Y=1) tables via ``ndtr``, a binomial inverse-CDF table per reference
level, and a dense ``np.interp`` inversion over the whole ``(C, N)``
estimate matrix.  For a static line state all of that is a pure function
of the cached reflection response and the iTDR configuration.

This module memoises it.  :class:`FusedCountKernel` keeps the per-level
decision probabilities and binomial CDF tables of the last line state it
measured, keyed by the same content-addressed key the solve memo uses,
plus one ``(repetitions + 1)``-entry count→voltage lookup, then draws all
reference levels' counts in one vectorised pass.  The float64 kernel
consumes the generator stream in exactly the order the grid path does
(one uniform block per active reference level, compared against the
same CDF bits), so its output is *byte-identical* to the grid path —
pinned in ``tests/property/test_fused_capture.py`` — while skipping the
table rebuild on every repeat capture of a state.

It also owns :func:`binomial_cdf_table`, the numerically stable
replacement for the historical ``math.comb``-product CDF construction,
which overflowed for ``n_trials ≳ 1030`` (``comb(n, k)`` exceeds the
float range) and whose ``p**k`` underflow biased the tail for moderate
``n_trials``.  Small tables keep the historical formula bit-for-bit (the
regression pins depend on those bits); large tables switch to
``scipy.stats.binom`` which computes the CDF through the regularised
incomplete beta function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy.stats import binom as _binom

from .comparator import Comparator

__all__ = [
    "EXACT_PMF_MAX_TRIALS",
    "CaptureKernelStats",
    "FusedCountKernel",
    "binomial_cdf_table",
]

#: Largest trial count for which the historical term-product CDF
#: construction is used.  Up to here ``math.comb(n, k)`` stays well inside
#: the float range and ``p**k`` underflow is negligible, and — critically —
#: the produced bits match the pre-fix implementation exactly, which the
#: seeded regression pins (campaign statistics, protocol byte-pins) rely
#: on.  Above it the stable beta-function path takes over; overflow set in
#: around ``n_trials ≈ 1030`` (``comb(1030, 515)`` > float64 max).
EXACT_PMF_MAX_TRIALS = 64


def binomial_cdf_table(
    n_trials: int, p: np.ndarray, dtype=np.float64
) -> np.ndarray:
    """``P(X <= k)`` for ``k = 0 .. n_trials-1``, shape ``(n_trials, N)``.

    The table feeds inverse-CDF sampling: a uniform ``u`` maps to the
    count ``#{k : u > cdf[k]}``, which is exactly ``Binomial(n_trials, p)``
    in distribution.  ``p`` is the per-point Bernoulli probability array.

    For ``n_trials <= EXACT_PMF_MAX_TRIALS`` (and float64) the historical
    term-product construction is kept verbatim so existing seeded pins
    stay bit-identical; beyond that the regularised-incomplete-beta CDF
    takes over — stable at any trial count (the old formula raised
    ``OverflowError`` from ``repetitions ≳ 1030``).
    """
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    p = np.atleast_1d(np.asarray(p))
    if np.dtype(dtype) == np.float64 and n_trials <= EXACT_PMF_MAX_TRIALS:
        p64 = np.asarray(p, dtype=np.float64)
        q64 = 1.0 - p64
        pmf = [
            math.comb(n_trials, k) * p64**k * q64 ** (n_trials - k)
            for k in range(n_trials)
        ]
        return np.cumsum(pmf, axis=0)
    k = np.arange(n_trials, dtype=np.float64)
    cdf = _binom.cdf(k[:, None], n_trials, np.asarray(p, dtype=np.float64))
    return cdf.astype(dtype, copy=False)


@dataclass
class CaptureKernelStats:
    """Mutable counters describing which capture kernel did the work.

    ``dense_renders`` counts every materialisation of a dense analog-grid
    waveform (probe-edge render, reflection solve, per-state batch
    render).  In the fused steady state — warm caches, count-only
    consumers — it must stay at zero; the booby-trap test in
    ``tests/core/test_capture_kernel.py`` pins that so the fusion cannot
    silently regress.
    """

    fused_calls: int = 0
    fused_captures: int = 0
    grid_calls: int = 0
    grid_captures: int = 0
    dense_renders: int = 0
    table_builds: int = 0
    table_hits: int = 0

    COUNTER_KEYS = (
        "fused_calls",
        "fused_captures",
        "grid_calls",
        "grid_captures",
        "dense_renders",
        "table_builds",
        "table_hits",
    )

    def snapshot(self) -> Dict[str, int]:
        """Plain-dict view of the counters (telemetry/bench surface)."""
        return {key: getattr(self, key) for key in self.COUNTER_KEYS}

    def delta(self, before: Dict[str, int]) -> Dict[str, int]:
        """Counter movement since a previous :meth:`snapshot`."""
        return {
            key: getattr(self, key) - int(before.get(key, 0))
            for key in self.COUNTER_KEYS
        }

    def reset(self) -> None:
        for key in self.COUNTER_KEYS:
            setattr(self, key, 0)


@dataclass(frozen=True)
class _LevelTables:
    """Everything the fused kernel needs for one cached line state."""

    #: Per active reference level: P(Y=1) per record point, ``(N,)``.
    probs: Tuple[np.ndarray, ...]
    #: Stacked CDF tensor ``(L, max_nj, N)``: level ``j``'s binomial CDF
    #: table is ``cdf_pad[j, :n_j]``, padded with a sentinel above every
    #: uniform draw, so padded rows contribute zero counts.
    cdf_pad: np.ndarray
    #: Trials assigned to each active level (Vernier split of repetitions).
    n_js: Tuple[int, ...]
    n_points: int


#: Comparison sentinel for padded CDF rows.  ``Generator.random`` draws in
#: ``[0, 1)``, so ``u > 2.0`` is False everywhere a level has no trial.
_PAD = 2.0


class FusedCountKernel:
    """Count-only capture estimation from cached decision tables.

    One instance hangs off each :class:`~repro.core.itdr.ITDR`.  It holds
    the per-level decision probabilities and binomial CDF tables of one
    line state — the last one measured, identified by the iTDR's
    content-addressed solve key — computed from the cached reflection
    response, plus one count→voltage lookup shared across states.
    :meth:`estimate` then produces a ``(C, N)`` estimate matrix without
    touching the dense-grid pipeline.

    The table memo holds one entry on purpose.  Repeat captures of one
    state (averaging, monitoring, enrollment) hit it; a fleet visiting its
    buses round-robin rebuilds once per visit.  At the prototype config a
    state's tables are about 94.6 kB against 3.2 kB for its reflection, so
    holding them for every bus a worker serves would cost far more memory
    than the rebuild costs time.

    Stream discipline (the float64 byte-identity contract): the grid path
    draws, per active reference level in ascending-level order, one
    ``(C, N)`` uniform block (or one ``rng.binomial`` call when that
    level's comparison tensor exceeds ``budget``).  The fused kernel
    consumes the stream identically — a single ``(L, C, N)`` draw is
    bit-for-bit the ``L`` successive blocks — so identical seeds give
    identical captures down to the last bit.
    """

    def __init__(
        self,
        comparator: Comparator,
        levels: Sequence[float],
        repetitions: int,
        invert: Callable[[np.ndarray], np.ndarray],
        dtype=np.float64,
        budget: int = 4_000_000,
    ) -> None:
        if repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        self.comparator = comparator
        self.dtype = np.dtype(dtype)
        self.repetitions = repetitions
        self._budget = budget
        # The Vernier trial split: repetitions distributed over the sorted
        # reference ladder as evenly as integer division allows, remainder
        # on the first levels — matching PDMScheme.measure_counts and the
        # grid estimation loop exactly.  Levels left with zero trials are
        # dropped (they draw nothing on either path).
        levels = np.sort(np.asarray(levels, dtype=float))
        base, extra = divmod(repetitions, len(levels))
        self._active: List[Tuple[float, int]] = [
            (float(level), base + (1 if j < extra else 0))
            for j, level in enumerate(levels)
            if base + (1 if j < extra else 0) > 0
        ]
        # Count -> voltage estimate, the (r+1)-entry closed form of the
        # mixture-CDF inversion: lookup[c] is bitwise what invert(c / r)
        # returns, because both clip and interpolate elementwise on the
        # identical quotient.
        lookup = invert(np.arange(repetitions + 1) / repetitions)
        self._lookup = np.asarray(lookup).astype(self.dtype, copy=False)
        #: The one-entry table memo: ``(key, tables)`` of the last state.
        self._last: Optional[Tuple[object, _LevelTables]] = None

    # ------------------------------------------------------------------
    @property
    def count_lookup(self) -> np.ndarray:
        """The cached count→voltage table (exposed for tests/benchmarks)."""
        return self._lookup

    def _build_tables(self, v_samples: np.ndarray) -> _LevelTables:
        f32 = self.dtype == np.float32
        n_points = len(v_samples)
        max_nj = max(n_j for _, n_j in self._active)
        cdf_pad = np.full(
            (len(self._active), max_nj, n_points), _PAD, dtype=self.dtype
        )
        probs = []
        for j, (level, n_j) in enumerate(self._active):
            p = self.comparator.probability_of_one(
                v_samples, level, dtype=self.dtype if f32 else float
            )
            probs.append(p)
            cdf_pad[j, :n_j] = binomial_cdf_table(n_j, p, dtype=self.dtype)
        return _LevelTables(
            probs=tuple(probs),
            cdf_pad=cdf_pad,
            n_js=tuple(n_j for _, n_j in self._active),
            n_points=n_points,
        )

    def tables_for(
        self, key: object, v_samples: np.ndarray, stats: CaptureKernelStats
    ) -> _LevelTables:
        """The tables of state ``key``: the memo on a repeat, else a build
        that replaces it."""
        if self._last is not None and self._last[0] == key:
            stats.table_hits += 1
            return self._last[1]
        tables = self._build_tables(np.asarray(v_samples, dtype=float))
        stats.table_builds += 1
        self._last = (key, tables)
        return tables

    def _uniform(self, shape, rng: np.random.Generator) -> np.ndarray:
        if self.dtype == np.float32:
            return rng.random(shape, dtype=np.float32)
        return rng.random(shape)

    def estimate(
        self,
        key: object,
        v_samples: np.ndarray,
        n_captures: int,
        rng: np.random.Generator,
        stats: CaptureKernelStats,
    ) -> np.ndarray:
        """``(n_captures, N)`` voltage estimates of one static line state.

        ``key`` addresses the table memo (the iTDR's solve key);
        ``v_samples`` is the cached noiseless reflection at the comparator
        input, used only on a table miss.
        """
        if n_captures < 1:
            raise ValueError("n_captures must be >= 1")
        tables = self.tables_for(key, v_samples, stats)
        c, n = n_captures, tables.n_points
        size = c * n
        if all(n_j * size <= self._budget for n_j in tables.n_js):
            # One stream-equivalent draw for every level, one comparison
            # against the padded CDF tensor, one integer reduction.
            u = self._uniform((len(tables.n_js), c, n), rng)
            counts = (
                u[:, None, :, :] > tables.cdf_pad[:, :, None, :]
            ).sum(axis=(0, 1))
        else:
            # Mixed regime: levels whose comparison tensor busts the
            # budget fall back to direct binomial sampling, in the same
            # per-level order the grid path uses.
            counts = np.zeros((c, n), dtype=np.int64)
            for p, cdf, n_j in zip(tables.probs, tables.cdf_pad, tables.n_js):
                if n_j * size <= self._budget:
                    u = self._uniform((c, n), rng)
                    counts += (u[None, :, :] > cdf[:n_j, None, :]).sum(axis=0)
                else:
                    counts += rng.binomial(n_j, np.broadcast_to(p, (c, n)))
        return self._lookup[counts]
