"""Analog-to-probability conversion (APC) — paper section II-B.

APC measures an analog voltage by *counting*: compare the signal against a
reference many times, estimate ``p = P(Y=1)``, and invert the noise CDF:

    V_sig = V_ref + CDF^{-1}(p)                              (paper Eq. 2)

The sensitivity ``d p / d V_sig`` is the noise PDF (Eq. 3), so conversion is
linear and sensitive only within about +/-2 sigma of the reference — the
dynamic-range limitation that PDM later removes.  This module provides the
mixture-CDF inverter and :class:`ReferenceLadder`, the count chain that
compares against a ladder of references and inverts the mixture of shifted
CDFs.  Bare APC is its one-level case (:class:`APCConverter`); PDM is its
Vernier case (:class:`~repro.core.pdm.PDMScheme`).
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np
from scipy.special import ndtr

from .comparator import Comparator

__all__ = [
    "APCConverter",
    "MixtureCdfInverter",
    "ReferenceLadder",
    "apc_sensitivity",
]


def apc_sensitivity(v_sig, v_ref, noise_sigma: float) -> np.ndarray:
    """dP/dV at the given operating point — the Gaussian PDF (Eq. 3)."""
    v = (np.asarray(v_sig, dtype=float) - v_ref) / noise_sigma
    return np.exp(-0.5 * v**2) / (noise_sigma * np.sqrt(2.0 * np.pi))


class MixtureCdfInverter:
    """Numerical inverse of a Gaussian-mixture CDF.

    With reference levels ``levels`` visited with equal probability (the
    Vernier property guarantees uniformity), the observed probability is

        p(V) = mean_j Phi((V - level_j) / sigma)

    which is strictly increasing in ``V`` and therefore invertible.  A dense
    lookup table plus linear interpolation gives a fast vectorised inverse;
    accuracy is limited by table pitch (default sigma/50), far below the
    statistical noise of any finite-trial estimate.
    """

    def __init__(
        self,
        levels: Sequence[float],
        noise_sigma: float,
        table_span_sigmas: float = 6.0,
        table_points_per_sigma: int = 50,
    ) -> None:
        if noise_sigma <= 0:
            raise ValueError("noise_sigma must be positive")
        levels = np.sort(np.asarray(levels, dtype=float))
        if len(levels) == 0:
            raise ValueError("at least one reference level is required")
        self.levels = levels
        self.noise_sigma = noise_sigma
        lo = levels[0] - table_span_sigmas * noise_sigma
        hi = levels[-1] + table_span_sigmas * noise_sigma
        n = max(
            16,
            int(np.ceil((hi - lo) / noise_sigma * table_points_per_sigma)),
        )
        self._v_grid = np.linspace(lo, hi, n)
        self._p_grid = self.forward(self._v_grid)

    def forward(self, v) -> np.ndarray:
        """Mixture CDF: probability of Y=1 at signal voltage ``v``."""
        v = np.asarray(v, dtype=float)
        z = (v[..., None] - self.levels) / self.noise_sigma
        return ndtr(z).mean(axis=-1)

    def invert(self, p) -> np.ndarray:
        """Voltage estimate for observed probability/ies ``p``.

        Probabilities are clipped to the table's range so the estimator
        saturates (like real hardware) instead of diverging at p in {0, 1}.
        """
        p = np.asarray(p, dtype=float)
        p = np.clip(p, self._p_grid[0], self._p_grid[-1])
        return np.interp(p, self._p_grid, self._v_grid)

    def linear_window(self, threshold: float = 0.1) -> tuple:
        """Voltage span where sensitivity exceeds ``threshold`` x its peak.

        For a single reference this recovers the paper's ~+/-2 sigma linear
        region; for a PDM mixture the window widens to cover the level span.
        """
        pdf = np.gradient(self._p_grid, self._v_grid)
        peak = pdf.max()
        good = np.flatnonzero(pdf >= threshold * peak)
        return float(self._v_grid[good[0]]), float(self._v_grid[good[-1]])


class ReferenceLadder:
    """A comparator counting against a sorted ladder of reference levels.

    The one count chain every capture path shares: trials split over the
    levels (:meth:`trial_split`), ones counted per level
    (:meth:`measure_counts`), the count fraction inverted to volts
    (:meth:`invert`, or its finite :meth:`count_lookup` form).  Bare APC
    is the one-level ladder (:class:`APCConverter`), PDM the Vernier one
    (:class:`~repro.core.pdm.PDMScheme`).  ``levels`` are visited equally
    often.
    """

    def __init__(
        self, comparator: Comparator, levels: Sequence[float]
    ) -> None:
        self.comparator = comparator
        self._levels = np.sort(np.asarray(levels, dtype=float))
        self._levels.setflags(write=False)
        self._inverter = MixtureCdfInverter(
            self._levels + comparator.offset, comparator.noise_sigma
        )

    def reference_levels(self) -> np.ndarray:
        """The sorted reference voltages (read-only)."""
        return self._levels

    @property
    def n_levels(self) -> int:
        """Number of reference levels (1 for bare APC, q for PDM)."""
        return len(self._levels)

    def trial_split(self, repetitions: int) -> np.ndarray:
        """Trials assigned to each sorted reference level, ``(n_levels,)``.

        ``repetitions`` trials distribute over the levels as the Vernier
        cycling distributes them: as evenly as integer division allows,
        with the remainder spread over the first levels (exactly what
        happens when the trial count is not a multiple of q).  Every
        counting path — dense, fused, and the test oracles — uses this
        split, which is what keeps their statistics (and for the fused and
        dense-grid pair, their bits) interchangeable.
        """
        if repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        base, extra = divmod(repetitions, self.n_levels)
        return base + (np.arange(self.n_levels) < extra).astype(np.int64)

    # ------------------------------------------------------------------
    def measure_counts(
        self,
        v_true: np.ndarray,
        repetitions: int,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Total Y=1 counts per point (any shape) over ``repetitions`` trials.

        One binomial draw per level with trials, in ascending-level order,
        with the :meth:`trial_split` allocation of trials per level.
        """
        v_true = np.asarray(v_true, dtype=float)
        counts = np.zeros(v_true.shape, dtype=np.int64)
        for level, n_j in zip(self._levels, self.trial_split(repetitions)):
            if n_j:
                counts += self.comparator.count_ones(
                    v_true, level, int(n_j), rng
                )
        return counts

    def estimate_voltage(
        self,
        v_true: np.ndarray,
        repetitions: int,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Full measurement: count, estimate p-hat, invert the CDF."""
        counts = self.measure_counts(v_true, repetitions, rng)
        return self.invert(counts / repetitions)

    def invert(self, p_hat) -> np.ndarray:
        """Mixture-CDF inversion (Eq. 2) of probabilities of any shape."""
        return self._inverter.invert(p_hat)

    def count_lookup(self, repetitions: int) -> np.ndarray:
        """Voltage estimate for every possible count, ``(repetitions + 1,)``.

        A count-only capture observes integer counts ``c`` in
        ``0 .. repetitions``, so the continuous inversion collapses to a
        finite table: ``lookup[c]`` is bitwise what ``invert(c / R)``
        returns (both clip and interpolate the identical quotient
        elementwise).  The fused capture kernel indexes this instead of
        re-interpolating a dense ``(C, N)`` probability matrix per call.
        """
        if repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        return self.invert(np.arange(repetitions + 1) / repetitions)

    def reference_trial_voltages(
        self, n_points: int, n_trials: int
    ) -> np.ndarray:
        """Reference voltage for every (point, trial), shape ``(N, R)``.

        Trial ``k`` meets level ``k mod n_levels`` (the Vernier cycling).
        Used by the interference-aware measurement path, which needs the
        per-trial reference explicitly rather than binomial shortcuts.
        """
        row = self._levels[np.arange(n_trials) % self.n_levels]
        return np.broadcast_to(row, (n_points, n_trials)).copy()

    # ------------------------------------------------------------------
    def linear_window(self, threshold: float = 0.1) -> Tuple[float, float]:
        """Usable voltage window: about +/-2 sigma around a single
        reference, widened to the level span by PDM (Fig. 4)."""
        return self._inverter.linear_window(threshold)

    @property
    def dynamic_range(self) -> float:
        """Width of the linear window in volts."""
        lo, hi = self.linear_window()
        return hi - lo


class APCConverter(ReferenceLadder):
    """The bare APC: one fixed reference — the one-level ladder.

    Attributes:
        comparator: The noisy comparator performing decisions.
        v_ref: The fixed reference voltage.
    """

    def __init__(self, comparator: Comparator, v_ref: float = 0.0) -> None:
        super().__init__(comparator, [v_ref])
        self.v_ref = v_ref

    def measure_probability(
        self,
        v_true: np.ndarray,
        repetitions: int,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Estimated p-hat at each signal point over ``repetitions`` trials."""
        return self.measure_counts(v_true, repetitions, rng) / repetitions

    def expected_estimate_std(
        self, v_true: float, repetitions: int
    ) -> float:
        """Predicted standard deviation of the voltage estimate.

        Delta method: std(V-hat) = sqrt(p(1-p)/R) / pdf(V).  Useful for
        sizing the repetition count against a target voltage resolution.
        """
        p = float(self.comparator.probability_of_one(v_true, self.v_ref))
        sens = float(
            apc_sensitivity(
                v_true,
                self.v_ref + self.comparator.offset,
                self.comparator.noise_sigma,
            )
        )
        if sens == 0.0:
            return np.inf
        return float(np.sqrt(p * (1.0 - p) / repetitions) / sens)
