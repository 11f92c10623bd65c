"""The 1-bit comparator: DIVOT's only analog component.

The iTDR replaces a bulky high-resolution ADC with a single comparator used
as a digital input pin.  Its thermal input noise is Gaussian, so for a given
signal/reference pair the output is a Bernoulli variable with

    P(Y = 1) = Phi((V_sig - V_ref) / sigma_noise)           (paper Eq. 1)

which is the entire physical basis of analog-to-probability conversion.
This module implements that probability law, exact Bernoulli/binomial
sampling, and the interference-perturbed variant used in the EMI study.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.special import ndtr  # standard normal CDF, vectorised

__all__ = ["Comparator"]


@dataclass(frozen=True)
class Comparator:
    """A noisy voltage comparator.

    Attributes:
        noise_sigma: RMS Gaussian noise referred to the reference input,
            volts.  This is the *conversion gain medium* of APC, not a
            defect.
        offset: Static input offset voltage, volts.  Real comparators have
            one; the APC inversion absorbs it if calibration knows it.
    """

    noise_sigma: float
    offset: float = 0.0

    def __post_init__(self) -> None:
        if self.noise_sigma <= 0:
            raise ValueError(
                "noise_sigma must be positive: without noise there is no "
                "analog-to-probability conversion"
            )

    # ------------------------------------------------------------------
    def probability_of_one(self, v_sig, v_ref) -> np.ndarray:
        """P(Y=1) for signal/reference voltage(s) — the paper's Eq. (1)."""
        v_sig = np.asarray(v_sig, dtype=float)
        v_ref = np.asarray(v_ref, dtype=float)
        z = (v_sig - self.offset - v_ref) / self.noise_sigma
        return ndtr(np.asarray(z, dtype=float))

    def decide(
        self,
        v_sig,
        v_ref,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """One Bernoulli decision per input element (True means Y=1)."""
        p = self.probability_of_one(v_sig, v_ref)
        return rng.random(np.shape(p)) < p

    def count_ones(
        self,
        v_sig,
        v_ref,
        n_trials: int,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Number of Y=1 outcomes over ``n_trials`` repeated comparisons.

        Thermal noise is independent trial to trial, so the count is exactly
        binomial — sampled directly rather than trial by trial for speed.
        """
        if n_trials < 0:
            raise ValueError("n_trials must be non-negative")
        p = self.probability_of_one(v_sig, v_ref)
        return rng.binomial(n_trials, p)

    def count_ones_with_interference(
        self,
        v_sig: np.ndarray,
        v_ref,
        n_trials: int,
        rng: np.random.Generator,
        interference_trials: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Counts when an external aggressor adds voltage per trial.

        Args:
            v_sig: Signal voltage per measurement point, shape ``(..., N)``
                — leading axes batch independent captures.
            v_ref: Reference voltage, scalar or broadcastable against
                ``v_sig.shape + (n_trials,)``.
            n_trials: Comparisons per point.
            interference_trials: Aggressor voltage for every (point, trial),
                shape ``v_sig.shape + (n_trials,)``; None means no aggressor
                (falls back to the fast binomial path).

        Unlike thermal noise, interference shifts the *mean* seen on each
        trial, so the count is a sum of non-identical Bernoullis — sampled
        trial by trial.
        """
        v_sig = np.asarray(v_sig, dtype=float)
        if interference_trials is None:
            return self.count_ones(v_sig, v_ref, n_trials, rng)
        interference = np.asarray(interference_trials, dtype=float)
        if interference.shape != v_sig.shape + (n_trials,):
            raise ValueError(
                f"interference shape {interference.shape} must be "
                f"{v_sig.shape + (n_trials,)}"
            )
        v_trial = v_sig[..., None] + interference
        p = self.probability_of_one(v_trial, np.asarray(v_ref))
        ones = rng.random(p.shape) < p
        return ones.sum(axis=-1)
