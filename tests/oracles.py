"""Bitwise reference implementations the fast kernels are pinned against.

Nothing in ``src/repro`` calls these.  Each one is the slow, obvious form
of a computation the package performs another way, kept only so tests and
benchmarks can assert that the fast form is the same computation down to
the last bit:

* :func:`grid_capture_stack` — the static dense-grid capture estimator.
  The fused count kernel (:class:`repro.core.capturekernel.FusedCountKernel`)
  must reproduce it byte for byte from the same generator state.
* :func:`scalar_impulse_sequence` — the per-step Python loop of the
  Goupillaud lattice.  Every row of
  :meth:`repro.txline.propagation.LatticeEngine.batch_impulse_sequences`
  must equal it byte for byte.
"""

from typing import Optional, Sequence

import numpy as np

from repro.core.capturekernel import binomial_cdf_table
from repro.core.itdr import ITDR
from repro.signals.waveform import Waveform
from repro.txline.line import TransmissionLine
from repro.txline.profile import ImpedanceProfile
from repro.txline.propagation import LatticeEngine

#: Element budget for drawing one uniform per (trial, capture, point);
#: above it the estimator samples ``rng.binomial`` directly.  Equal to
#: the fused kernel's default ``budget``.
BERNOULLI_BUDGET = 4_000_000


def _static_counts(
    itdr: ITDR, v: np.ndarray, n_captures: int, level: float, n_trials: int
) -> np.ndarray:
    """Counts of ``n_captures`` rows sharing the noiseless samples ``v``."""
    shape = (n_captures, len(v))
    p = itdr.comparator.probability_of_one(v, level)
    if n_trials * n_captures * len(v) <= BERNOULLI_BUDGET:
        cdf = binomial_cdf_table(n_trials, p)
        u = itdr.rng.random(shape)
        counts = np.zeros(shape, dtype=np.int64)
        for k in range(n_trials):
            counts += u > cdf[k]
        return counts
    return itdr.rng.binomial(n_trials, np.broadcast_to(p, shape))


def grid_capture_stack(
    itdr: ITDR,
    line: TransmissionLine,
    n_captures: int,
    modifiers: Sequence = (),
    engine: str = "born",
) -> np.ndarray:
    """``(C, N)`` estimates of one static state on the dense grid.

    Per level of ``itdr.ladder`` in ascending order: one ``P(Y=1)`` row
    for the noiseless reflection, then either a binomial CDF table
    compared against a ``(C, N)`` uniform block or, past
    :data:`BERNOULLI_BUDGET`, one ``rng.binomial`` call.  The summed
    counts are inverted to volts.  Consumes ``itdr.rng`` exactly as
    :meth:`ITDR.capture_stack` does for the same state with no jitter and
    no interference.
    """
    v = itdr.true_reflection(line, modifiers, engine=engine).samples
    r = itdr.config.repetitions
    ladder = itdr.ladder
    counts = np.zeros((n_captures, len(v)), dtype=np.int64)
    for level, n_j in zip(ladder.reference_levels(), ladder.trial_split(r)):
        if n_j:
            counts += _static_counts(itdr, v, n_captures, level, int(n_j))
    return ladder.invert(counts / r)


def scalar_impulse_sequence(
    engine: LatticeEngine,
    profile: ImpedanceProfile,
    n_steps: Optional[int] = None,
) -> Waveform:
    """The lattice reflection sequence by the per-step scalar Python loop.

    The original lattice kernel, on the native grid (sampled at the
    segment delay).
    """
    tau = engine._uniform_tau(profile)
    s = profile.n_segments
    if n_steps is None:
        n_steps = engine._default_steps(s)
    r = profile.reflection_coefficients()
    r_src = profile.source_reflection()
    r_load = profile.load_reflection()
    loss = profile.loss_per_segment

    # State at integer time k (in units of the segment delay):
    #   fwd[i] — forward wave at the left edge of segment i,
    #   bwd[i] — backward wave at the right edge of segment i.
    # One step propagates each wave across one segment (applying loss)
    # and scatters at the interface it reaches.  The echo from interface
    # i/(i+1) therefore arrives back at the source at step 2*(i+1),
    # matching the BornEngine timing convention.
    fwd = np.zeros(s)
    bwd = np.zeros(s)
    fwd[0] = 1.0
    out = np.zeros(n_steps)
    for k in range(1, n_steps):
        fa = fwd * loss
        ba = bwd * loss
        # The backward wave leaving segment 0 reaches the source now.
        out[k] = ba[0]
        new_f = np.zeros(s)
        new_b = np.zeros(s)
        # Interior interfaces: left input fa[i], right input ba[i+1].
        if s > 1:
            new_f[1:] = (1.0 + r) * fa[:-1] - r * ba[1:]
            new_b[:-1] = r * fa[:-1] + (1.0 - r) * ba[1:]
        # Load end: forward wave reflects off the termination.
        new_b[-1] += r_load * fa[-1]
        # Source end: backward wave re-reflects off the driver.
        new_f[0] += r_src * ba[0]
        fwd, bwd = new_f, new_b
    return Waveform(out, tau)
