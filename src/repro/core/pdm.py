"""Probability density modulation (PDM) — paper section II-C.

Bare APC is linear only within ~+/-2 sigma of its single reference, and the
chip's intrinsic noise sigma is neither predictable nor controllable.  PDM
fixes both: an external modulation wave (a quasi-triangle from an RC-shaped
digital output) rides on the reference input.  If the modulation frequency
``f_m`` and the sampling clock ``f_s`` are *relatively prime* (a Vernier
relationship), successive triggers of a fixed waveform point meet the
triangle at evenly spaced phases, so the point is compared against a uniform
ladder of reference levels.  The effective transfer curve becomes the
mixture of the shifted noise CDFs — wide, linear, and designed rather than
inherited from device physics.  The counting and inversion are the shared
:class:`~repro.core.apc.ReferenceLadder`; this module supplies the ladder's
levels.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

import numpy as np

from .apc import APCConverter, ReferenceLadder
from .comparator import Comparator

__all__ = ["TriangleWave", "VernierRelation", "PDMScheme", "reference_ladder"]


@dataclass(frozen=True)
class TriangleWave:
    """A symmetric triangle modulation wave.

    Attributes:
        amplitude: Peak deviation from the centre, volts (wave spans
            ``centre +/- amplitude``).
        frequency: Repetition rate, hertz.
        centre: DC centre of the wave, volts.
    """

    amplitude: float
    frequency: float
    centre: float = 0.0

    def __post_init__(self) -> None:
        if self.amplitude < 0:
            raise ValueError("amplitude must be non-negative")
        if self.frequency <= 0:
            raise ValueError("frequency must be positive")

    def value_at(self, t) -> np.ndarray:
        """Instantaneous wave value at time(s) ``t``."""
        phase = np.mod(np.asarray(t, dtype=float) * self.frequency, 1.0)
        tri = 1.0 - 4.0 * np.abs(phase - 0.5)  # +1 at phase 0.5, -1 at 0/1
        return self.centre + self.amplitude * tri


@dataclass(frozen=True)
class VernierRelation:
    """The f_m : f_s frequency relationship between modulation and sampling.

    Expressed as the reduced ratio ``f_m / f_s = p / q``.  When ``p`` and
    ``q`` are coprime and ``q > 1``, a fixed waveform point sampled on
    successive clock periods sweeps through ``q`` evenly spaced phases of the
    modulation wave before repeating — the Vernier time delay of Fig. 3
    (whose example is 5 f_m = 6 f_s, i.e. p=5, q=6).
    """

    p: int
    q: int

    def __post_init__(self) -> None:
        if self.p < 1 or self.q < 1:
            raise ValueError("p and q must be positive integers")

    @staticmethod
    def from_frequencies(f_m: float, f_s: float, max_den: int = 4096) -> "VernierRelation":
        """Derive the reduced ratio from physical frequencies."""
        if f_m <= 0 or f_s <= 0:
            raise ValueError("frequencies must be positive")
        frac = Fraction(f_m / f_s).limit_denominator(max_den)
        return VernierRelation(frac.numerator, frac.denominator)

    @property
    def is_effective(self) -> bool:
        """Whether the relation actually spreads reference levels.

        ``f_m = f_s`` (p == q == 1 after reduction) compares the signal with
        the same voltage on every trigger, "completely removing the
        effectiveness of an external modulation signal" (paper II-C).
        """
        return self.distinct_phases > 1

    @property
    def distinct_phases(self) -> int:
        """Number of distinct modulation phases a fixed point experiences."""
        return self.q // gcd(self.p, self.q)

    def phases(self) -> np.ndarray:
        """The modulation phases visited, as fractions of the wave period.

        Over ``q`` successive sampling periods, trigger ``k`` meets the wave
        at phase ``(k * p / q) mod 1``; with coprime p, q these are the
        ``q``-th roots of unity in phase — evenly spaced.
        """
        k = np.arange(self.distinct_phases)
        step = self.p / self.q
        return np.mod(k * step, 1.0)


class PDMScheme(ReferenceLadder):
    """PDM's reference ladder: the triangle wave at the Vernier phases.

    Attributes:
        wave: The external modulation wave.
        relation: The f_m:f_s Vernier relation.
        comparator: The comparator whose noise the scheme is designed around.
    """

    def __init__(
        self,
        wave: TriangleWave,
        relation: VernierRelation,
        comparator: Comparator,
    ) -> None:
        # Evaluate the triangle at each visited phase (time = phase/f).
        super().__init__(
            comparator, wave.value_at(relation.phases() / wave.frequency)
        )
        self.wave = wave
        self.relation = relation


def reference_ladder(config, comparator: Comparator) -> ReferenceLadder:
    """The ladder an :class:`~repro.core.itdr.ITDRConfig` describes: PDM's
    Vernier ladder around 0 V, or with ``use_pdm=False`` bare APC's single
    0 V reference (the ablation case)."""
    if not config.use_pdm:
        return APCConverter(comparator, v_ref=0.0)
    p, q = config.pdm_vernier
    relation = VernierRelation(p, q)
    if not relation.is_effective:
        raise ValueError(
            "pdm_vernier must be a non-degenerate (relatively prime, "
            "q > 1) relation; f_m = f_s removes PDM's effect entirely"
        )
    wave = TriangleWave(
        amplitude=config.pdm_amplitude,
        frequency=config.clock_frequency * p / q,
    )
    return PDMScheme(wave, relation, comparator)
