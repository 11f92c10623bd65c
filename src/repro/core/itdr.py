"""The integrated time-domain reflectometer (iTDR) — paper section II.

The iTDR chains every mechanism of the DIVOT architecture:

    probe edge (live bus traffic)  -> Tx-line back-reflection (physics)
    -> directional coupler pick-off -> comparator + reference ladder
    -> ones counting over repeated triggers (APC)
    -> mixture-CDF inversion -> IIP waveform estimate on the ETS grid

A :class:`capture` is one complete IIP measurement: the digital artefact
that authentication and tamper detection consume.  The batch path runs
thousands of captures with per-capture perturbed line states in vectorised
numpy — the workhorse of the statistical experiments.  Every path counts
against, and inverts through, the iTDR's one reference ladder.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from ..signals.edges import EdgeShape
from ..signals.waveform import Waveform
from ..txline.line import TransmissionLine
from .capturekernel import CaptureKernelStats, FusedCountKernel
from .comparator import Comparator
from .ets import ETSSampler, PhaseSteppingPLL
from .pdm import reference_ladder
from .solvecache import process_solve_cache
from .trigger import TriggerGenerator

__all__ = ["ITDRConfig", "IIPCapture", "MeasurementBudget", "ITDR"]


@dataclass(frozen=True)
class ITDRConfig:
    """Everything that defines one iTDR instance.

    Every field is physical: nothing here sizes a cache, picks a capture
    kernel or sets a precision (captures are float64).  Solved
    reflections live in the one process-wide memo
    (:func:`~repro.core.solvecache.process_solve_cache`), shared by every
    iTDR in the process, and the fused kernel keeps only the decision
    tables of the state it measured last.  The line state and the
    capture options alone decide which kernel runs (see
    :meth:`ITDR.capture_stack`).

    Attributes:
        clock_frequency: Data/sampling clock, hertz (156.25 MHz prototype).
        phase_step: ETS phase increment tau, seconds (11.16 ps prototype).
        repetitions: Comparator trials per waveform point (APC averaging
            depth).  Together with the point count this sets both accuracy
            and measurement time.
        noise_sigma: Comparator input noise RMS, volts.
        comparator_offset: Comparator static offset, volts.
        coupling: Directional coupler pick-off fraction reaching the
            comparator input.
        use_pdm: Enable probability density modulation (False = bare APC,
            the ablation case).
        pdm_amplitude: Triangle-wave peak deviation, volts.  Sized to cover
            the expected reflection-signal span.
        pdm_vernier: The (p, q) Vernier relation between f_m and f_s.
        edge_rise_time: Probe edge 0-100 % rise time, seconds.
        edge_amplitude: Driver voltage swing, volts.
        trigger: Trigger generator (clock-lane default: every cycle fires).
        record_margin: Extra record time past the line round trip, seconds.
        phase_jitter_rms: RMS timing jitter of the phase-stepping PLL,
            seconds.  Each trigger samples the waveform at a slightly wrong
            instant; over the repetition count this blurs the waveform
            (deterministic) and leaves a slope-proportional residual noise
            (statistical).  0 models the paper's "timing stability" setup.
    """

    clock_frequency: float = 156.25e6
    phase_step: float = 11.16e-12
    repetitions: int = 24
    noise_sigma: float = 3.0e-3
    comparator_offset: float = 0.0
    coupling: float = 0.25
    use_pdm: bool = True
    pdm_amplitude: float = 18.0e-3
    pdm_vernier: tuple = (5, 6)
    edge_rise_time: float = 150e-12
    edge_amplitude: float = 1.2
    trigger: TriggerGenerator = field(
        default_factory=lambda: TriggerGenerator(clock_lane=True)
    )
    record_margin: float = 0.3e-9
    phase_jitter_rms: float = 0.0

    def __post_init__(self) -> None:
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if not 0 < self.coupling <= 1:
            raise ValueError("coupling must be in (0, 1]")
        if self.pdm_amplitude < 0:
            raise ValueError("pdm_amplitude must be non-negative")
        if self.phase_jitter_rms < 0:
            raise ValueError("phase_jitter_rms must be non-negative")


@dataclass(frozen=True)
class IIPCapture:
    """One complete IIP measurement.

    Attributes:
        waveform: Estimated reflection waveform (volts at the comparator
            input) on the ETS time grid.
        line_name: Which physical line was measured.
        n_triggers: Probe edges consumed by this capture.
        duration_s: Wall-clock measurement time at the configured clock.
    """

    waveform: Waveform
    line_name: str
    n_triggers: int
    duration_s: float

    def normalized_samples(self) -> np.ndarray:
        """Zero-mean, unit-norm samples — the canonical fingerprint form."""
        x = self.waveform.samples - np.mean(self.waveform.samples)
        norm = np.linalg.norm(x)
        return x / norm if norm > 0 else x


@dataclass(frozen=True)
class MeasurementBudget:
    """Cost of one capture: triggers consumed and time spent."""

    n_points: int
    repetitions: int
    points_per_trigger: int
    n_triggers: int
    duration_s: float


class ITDR:
    """An integrated TDR instance attached to one bus interface.

    ``ladder`` is its :class:`~repro.core.apc.ReferenceLadder` (PDM's
    Vernier levels, or bare APC's one level): both capture kernels take
    their levels, trial split and count-to-volt inversion from it.

    Args:
        config: Static configuration.
        rng: Random source for comparator noise (seed it for reproducible
            experiments).
    """

    def __init__(
        self,
        config: Optional[ITDRConfig] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        # Constructed per instance: a module-level default instance would be
        # shared by every default-constructed iTDR (one TriggerGenerator for
        # the whole process).
        config = config if config is not None else ITDRConfig()
        self.config = config
        self.rng = rng if rng is not None else np.random.default_rng()
        self.pll = PhaseSteppingPLL(config.clock_frequency, config.phase_step)
        self.sampler = ETSSampler(self.pll)
        self.comparator = Comparator(
            noise_sigma=config.noise_sigma, offset=config.comparator_offset
        )
        self.edge = EdgeShape(
            rise_time=config.edge_rise_time,
            amplitude=config.edge_amplitude,
            kind="raised_cosine",
        )
        # Prefix of the content-addressed key under which this iTDR's
        # solves live in the process-wide solve memo (see _solve_key).
        self._solve_key_prefix: Optional[tuple] = None
        self.ladder = reference_ladder(config, self.comparator)
        #: Which kernel did the work, and whether any dense-grid waveform
        #: was rendered — the fusion's regression surface (fleet dispatch
        #: ships worker deltas home into telemetry).
        self.kernel_stats = CaptureKernelStats()
        self._fused = FusedCountKernel(self.ladder, config.repetitions)
        self._probe_edge: Optional[Waveform] = None

    # ------------------------------------------------------------------
    # geometry helpers
    # ------------------------------------------------------------------
    def probe_edge(self) -> Waveform:
        """The probe edge on the ETS grid, with settling tail.

        The edge is a pure function of the frozen config, so it is
        rendered once and reused — the capture hot path asks for it on
        every call (record-length arithmetic, solve-key digest).
        """
        if self._probe_edge is None:
            self.kernel_stats.dense_renders += 1
            self._probe_edge = self.edge.rising(
                self.pll.phase_step, settle=self.config.edge_rise_time
            )
        return self._probe_edge

    def record_length(self, line: TransmissionLine) -> int:
        """Record length in ETS-grid points covering the full round trip."""
        profile = line.full_profile
        span = (
            profile.round_trip_delay
            + self.probe_edge().duration
            + self.config.record_margin
        )
        return int(np.ceil(span / self.pll.phase_step))

    def _solve_key(self, profile_hash: str, engine: str, n_out: int) -> tuple:
        """Fully content-addressed solve key, shareable across iTDRs.

        The per-iTDR inputs to a solve (probe-edge shape and coupling) are
        folded into a digest computed once, so two iTDRs with identical
        configurations produce identical keys and share entries in the
        process-wide cache — while iTDRs that differ in any solve input
        can never collide.
        """
        if self._solve_key_prefix is None:
            edge = self.probe_edge()
            digest = hashlib.blake2b(digest_size=16)
            digest.update(np.ascontiguousarray(edge.samples).tobytes())
            digest.update(
                np.array(
                    [edge.dt, edge.t0, self.config.coupling], dtype=float
                ).tobytes()
            )
            self._solve_key_prefix = ("reflection", digest.hexdigest())
        return (*self._solve_key_prefix, profile_hash, engine, n_out)

    def true_reflection(
        self,
        line: TransmissionLine,
        modifiers: Sequence = (),
        engine: str = "born",
    ) -> Waveform:
        """Noiseless reflected waveform at the comparator input.

        This is the physical ground truth the APC estimates; exposed for
        validation and for computing ideal similarity bounds.  Identical
        electrical states are memoised by content (the resolved profile's
        hash plus the probe-edge/coupling digest, engine and record
        length) in :func:`~repro.core.solvecache.process_solve_cache`,
        the one solve memo shared by every iTDR in the process (fleet
        workers, experiment loops).  Repeated captures of an unchanged
        state pay for one physics solve, while any in-place mutation of
        the line or its modifiers hashes differently and triggers a fresh
        solve.
        """
        return self._true_reflection_keyed(line, modifiers, engine)[0]

    def _true_reflection_keyed(
        self,
        line: TransmissionLine,
        modifiers: Sequence = (),
        engine: str = "born",
    ) -> tuple:
        """:meth:`true_reflection` plus the content-addressed solve key.

        The key doubles as the fused kernel's decision-table memo key, so
        the table memo inherits the solve memo's integrity contract for
        free: any state mutation re-keys, a stale table can never be
        served.
        """
        profile = line.profile_under(modifiers)
        n_out = self.record_length(line)
        key = self._solve_key(profile.content_hash(), engine, n_out)
        solves = process_solve_cache()
        wave = solves.get(key)
        if wave is None:
            self.kernel_stats.dense_renders += 1
            wave = line.reflected_waveform(
                self.probe_edge(), engine=engine, n_out=n_out, profile=profile
            )
            wave = wave.scaled(self.config.coupling)
            solves.put(key, wave)
        return wave, key

    # ------------------------------------------------------------------
    # measurement cost
    # ------------------------------------------------------------------
    def budget(self, n_points: int, trigger_rate: Optional[float] = None) -> MeasurementBudget:
        """Triggers and time needed to measure ``n_points`` ETS points.

        One trigger launches one probe edge; the comparator, clocked at the
        sampling rate, takes one decision per clock period that falls inside
        the record.  Records shorter than the clock period (the prototype
        case: 3.8 ns record, 6.4 ns period) yield one decision per trigger.
        """
        if trigger_rate is None:
            trigger_rate = self.config.trigger.expected_rate(
                self.config.clock_frequency
            )
        record_span = n_points * self.pll.phase_step
        points_per_trigger = max(
            1, int(record_span / self.pll.clock_period)
        )
        n_triggers = int(
            np.ceil(n_points / points_per_trigger) * self.config.repetitions
        )
        return MeasurementBudget(
            n_points=n_points,
            repetitions=self.config.repetitions,
            points_per_trigger=points_per_trigger,
            n_triggers=n_triggers,
            duration_s=n_triggers / trigger_rate,
        )

    # ------------------------------------------------------------------
    # capture paths
    # ------------------------------------------------------------------
    def _apply_jitter(self, v: np.ndarray) -> np.ndarray:
        """Model PLL timing jitter on a true-voltage array (any shape).

        Jitter blurs the waveform with a Gaussian kernel of the jitter
        width (the average over many mistimed triggers) and leaves a
        residual per-point error proportional to the local slope, reduced
        by the repetition averaging: ``slope * jitter / sqrt(R)``.
        """
        jitter = self.config.phase_jitter_rms
        if jitter <= 0:
            return v
        from scipy.ndimage import gaussian_filter1d

        sigma_samples = jitter / self.pll.phase_step
        smoothed = gaussian_filter1d(v, sigma_samples, axis=-1, mode="nearest")
        slope = np.gradient(smoothed, self.pll.phase_step, axis=-1)
        residual_rms = jitter / np.sqrt(self.config.repetitions)
        residual = slope * self.rng.normal(0.0, residual_rms, size=v.shape)
        return smoothed + residual

    def capture_stack(
        self,
        line: TransmissionLine,
        n_captures: int,
        modifiers: Sequence = (),
        interference=None,
        engine: str = "born",
    ) -> np.ndarray:
        """``n_captures`` independent estimates of one line state, ``(C, N)``.

        The shared batch engine every capture path routes through: one
        physics solve of the (possibly modified) line, then one vectorised
        numpy pass drawing jitter and comparator statistics independently
        per capture row.  Each row is distributed exactly like one
        :meth:`capture`, so averaging/monitoring consumers get loop-path
        statistics at batch-path cost.

        A static state with no jitter and no interference always takes
        the fused count kernel: counts come straight from the per-level
        decision tables of the state and a count→voltage lookup, with no
        per-call dense-grid work.  Its output is byte-identical to the
        dense-grid estimator kept as ``tests/oracles.grid_capture_stack``,
        because both consume the generator stream in the same order
        against the same CDF bits.  Jitter and interference materialise
        per-row voltages and therefore take the dense path.

        ``interference`` is an optional
        :class:`~repro.env.emi.EMIEnvironment` adding per-trial aggressor
        voltage at the comparator input.
        """
        if n_captures < 1:
            raise ValueError("n_captures must be >= 1")
        true_wave, key = self._true_reflection_keyed(
            line, modifiers, engine=engine
        )
        if interference is None and self.config.phase_jitter_rms <= 0:
            est = self._fused.estimate(
                key, true_wave.samples, n_captures, self.rng,
                self.kernel_stats,
            )
            self.kernel_stats.fused_calls += 1
            self.kernel_stats.fused_captures += n_captures
            return est
        v_batch = np.broadcast_to(
            true_wave.samples, (n_captures, len(true_wave))
        )
        return self._estimate_batch(v_batch, interference=interference)

    def capture(
        self,
        line: TransmissionLine,
        modifiers: Sequence = (),
        interference=None,
        engine: str = "born",
    ) -> IIPCapture:
        """One complete IIP measurement of ``line`` under ``modifiers``.

        The one-capture :meth:`capture_averaged`: a single-row
        :meth:`capture_stack` dressed with measurement metadata (trigger
        and wall-clock budgets).
        """
        return self.capture_averaged(
            line, 1, modifiers=modifiers, interference=interference,
            engine=engine,
        )

    def capture_averaged(
        self,
        line: TransmissionLine,
        n_captures: int,
        modifiers: Sequence = (),
        interference=None,
        engine: str = "born",
    ) -> IIPCapture:
        """Average ``n_captures`` back-to-back captures into one record.

        Averaging suppresses APC estimation noise by ``sqrt(n_captures)``;
        the paper's published IIP waveforms are averages over its 8192
        measurements for the same reason.  The constituent captures come
        from one :meth:`capture_stack` call (one physics solve, one
        vectorised estimation pass); the trigger and time budgets sum over
        them as if they had run back to back.
        """
        stack = self.capture_stack(
            line,
            n_captures,
            modifiers=modifiers,
            interference=interference,
            engine=engine,
        )
        true_wave = self.true_reflection(line, modifiers, engine=engine)
        budget = self.budget(stack.shape[1])
        return IIPCapture(
            waveform=Waveform(
                stack.mean(axis=0), self.pll.phase_step, true_wave.t0
            ),
            line_name=line.name,
            n_triggers=n_captures * budget.n_triggers,
            duration_s=n_captures * budget.duration_s,
        )

    def capture_batch(
        self,
        line: TransmissionLine,
        n_captures: int,
        z_batch: Optional[np.ndarray] = None,
        tau_batch: Optional[np.ndarray] = None,
        interference=None,
        engine: str = "born",
    ) -> np.ndarray:
        """Vectorised captures, shape ``(n_captures, N)`` voltage estimates.

        With ``z_batch``/``tau_batch`` (shape ``(n_captures, S)``) each
        capture sees its own line state — the temperature/vibration path.
        Without them, all captures measure the same static state and only
        comparator statistics differ — the room-temperature path (identical
        to :meth:`capture_stack` with no modifiers).  ``engine`` selects
        the physics kernel for either path (``"born"`` or ``"lattice"`` —
        both expose the batch API).
        """
        if n_captures < 1:
            raise ValueError("n_captures must be >= 1")
        if z_batch is None:
            if tau_batch is not None:
                raise ValueError("z_batch is required with tau_batch")
            return self.capture_stack(
                line, n_captures, interference=interference, engine=engine
            )
        if tau_batch is None:
            raise ValueError("tau_batch is required with z_batch")
        if len(z_batch) != n_captures:
            raise ValueError("z_batch rows must equal n_captures")
        n_out = self.record_length(line)
        self.kernel_stats.dense_renders += n_captures
        v_batch = (
            line.batch_reflected_waveforms(
                self.probe_edge(), z_batch, tau_batch, n_out=n_out,
                engine=engine,
            )
            * self.config.coupling
        )
        return self._estimate_batch(v_batch, interference=interference)

    def _estimate_batch(
        self, v_batch: np.ndarray, interference=None
    ) -> np.ndarray:
        """Vectorised ladder estimation over a (C, N) voltage matrix.

        This is the dense path: per-call probability tables over the full
        voltage matrix.  It serves only the rows that differ capture to
        capture — jitter, interference and per-capture ``z_batch`` states
        — so every row draws its own binomial counts per reference level
        (:meth:`~repro.core.apc.ReferenceLadder.measure_counts`).

        Interference shifts the mean seen on each trial, so the binomial
        shortcut does not apply: the Bernoulli trials are drawn
        explicitly against the per-trial Vernier reference, for all
        captures at once.  EMI trigger samples are i.i.d. per trigger
        instant, so drawing ``C * N`` points in one call is distributed
        exactly like ``C`` separate per-capture draws.
        """
        self.kernel_stats.grid_calls += 1
        self.kernel_stats.grid_captures += int(np.shape(v_batch)[0])
        v_batch = self._apply_jitter(np.asarray(v_batch, dtype=float))
        r = self.config.repetitions
        if interference is None:
            counts = self.ladder.measure_counts(v_batch, r, self.rng)
        else:
            n_captures, n_points = v_batch.shape
            emi = interference.trial_voltages(
                n_captures * n_points, r, self.rng
            ).reshape(n_captures, n_points, r)
            counts = self.comparator.count_ones_with_interference(
                v_batch, self.ladder.reference_trial_voltages(1, r)[0], r,
                self.rng, interference_trials=emi,
            )
        return self.ladder.invert(counts / r)
