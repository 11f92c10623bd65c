"""Time-domain wave propagation on a segmented transmission line.

Two engines compute the back-reflection a TDR sees:

* :class:`LatticeEngine` — an exact discrete Goupillaud-medium simulation.
  Forward and backward travelling waves hop one segment per time step and
  scatter at every interface, capturing *all* multiple reflections.  It
  requires (and enforces) uniform segment delays per line state and is the
  reference implementation used to validate the fast engine.

* :class:`BornEngine` — a first-order (single-scattering) model.  Each
  interface contributes one echo of amplitude ``r_i`` scaled by the two-way
  transmission product, arriving at ``t = 2 * sum(tau[:i+1])``.  For PCB-class
  inhomogeneity (|r| of order 1 %), second-order terms are below 1e-4 and the
  Born model matches the lattice to high accuracy while being fully
  vectorisable across thousands of line states.

Both produce the *reflection sequence*: the dimensionless discrete impulse
response mapping the incident wave sample stream to the backward wave sample
stream observed at the source-side coupler — and both expose the same batch
API (``batch_impulse_sequences`` / ``batch_reflection_responses`` over
``(C, S)`` state arrays), so every capture path can select either engine.
Both render float64.  The lattice time-stepper is vectorised across the
capture axis with preallocated state buffers; per row it performs
bit-for-bit the computation of the per-profile scalar loop kept in
``tests/oracles.py`` as its bitwise reference (pinned in
``tests/property/test_engine_equivalence.py``).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..signals.convolution import batch_convolve_full, convolve_full
from ..signals.waveform import Waveform
from .profile import ImpedanceProfile

__all__ = ["LatticeEngine", "BornEngine", "reflected_waveform"]


def _deposit_impulses(
    times: np.ndarray, amps: np.ndarray, grid_dt: float, n_out: int
) -> np.ndarray:
    """Deposit ``(C, E)`` timed impulses onto the analog grid, ``(C, n_out)``.

    Each impulse's amplitude is split between the two bracketing grid bins
    with linear interpolation, preserving sub-grid timing — the mechanism
    by which temperature stretch moves echoes.  Impulses falling outside
    the record are dropped.  Shared by both engines: Born deposits one
    impulse per echo, the lattice deposits one per output time step.
    """
    c = times.shape[0]
    h = np.zeros((c, n_out))
    pos = times / grid_dt
    idx0 = np.floor(pos).astype(int)
    frac = pos - idx0
    idx1 = idx0 + 1
    valid0 = (idx0 >= 0) & (idx0 < n_out)
    valid1 = (idx1 >= 0) & (idx1 < n_out)
    rows = np.broadcast_to(np.arange(c)[:, None], idx0.shape)
    np.add.at(h, (rows[valid0], idx0[valid0]), (amps * (1.0 - frac))[valid0])
    np.add.at(h, (rows[valid1], idx1[valid1]), (amps * frac)[valid1])
    return h


class LatticeEngine:
    """Exact multiple-reflection simulation on equal-delay segments.

    ``grid_dt`` selects the output grid.  ``None`` (the default) keeps the
    native lattice grid: sequences are sampled at the segment delay, the
    historical behaviour.  A positive ``grid_dt`` renders sequences onto
    that analog grid instead (the ETS phase step in the iTDR context) by
    depositing each lattice output sample as a timed impulse — which is
    what lets the exact engine drive the same record-length contracts as
    :class:`BornEngine` and hence the whole batch capture path.
    """

    #: Relative tolerance for matching an incident waveform's grid to the
    #: lattice/analog grid.  Floats that went through round-trip arithmetic
    #: (e.g. a delay computed as ``length / velocity``) may differ from the
    #: nominal step in the last ulps; anything beyond this is a real grid
    #: mismatch and raises.
    DT_RTOL = 1e-6

    def __init__(
        self, round_trips: float = 3.0, grid_dt: Optional[float] = None
    ) -> None:
        if round_trips < 1.0:
            raise ValueError("round_trips must be at least 1")
        if grid_dt is not None and grid_dt <= 0:
            raise ValueError("grid_dt must be positive")
        self.round_trips = round_trips
        self.grid_dt = grid_dt

    # ------------------------------------------------------------------
    # grid plumbing
    # ------------------------------------------------------------------
    @staticmethod
    def _uniform_tau(profile: ImpedanceProfile) -> float:
        tau = profile.tau
        mean = float(np.mean(tau))
        if np.max(np.abs(tau - mean)) > 1e-9 * mean:
            raise ValueError(
                "LatticeEngine requires uniform segment delays; "
                "use BornEngine for stretched/perturbed geometries"
            )
        return mean

    @staticmethod
    def _batch_uniform_tau(tau2: np.ndarray) -> np.ndarray:
        """Per-row segment delay of a ``(C, S)`` batch, enforcing uniformity.

        Rows may have *different* delays (a uniform temperature stretch
        scales every segment of a row equally) but within one row every
        segment must share the delay — the lattice's defining constraint.
        """
        mean = tau2.mean(axis=1)
        if np.any(np.max(np.abs(tau2 - mean[:, None]), axis=1) > 1e-9 * mean):
            raise ValueError(
                "LatticeEngine requires uniform segment delays within each "
                "batch row; use BornEngine for non-uniformly perturbed "
                "geometries"
            )
        return mean

    def _default_steps(self, n_segments: int) -> int:
        return int(np.ceil(2 * n_segments * self.round_trips)) + 1

    @classmethod
    def _validate_grid(cls, incident_dt: float, expected, label: str) -> None:
        """Tolerance check of the incident grid against the engine grid."""
        expected = np.atleast_1d(np.asarray(expected, dtype=float))
        if not np.all(
            np.isclose(incident_dt, expected, rtol=cls.DT_RTOL, atol=0.0)
        ):
            raise ValueError(
                f"incident waveform dt {incident_dt!r} does not match the "
                f"{label} {float(expected.flat[0])!r} within relative "
                f"tolerance {cls.DT_RTOL}; resample the incident wave onto "
                "the lattice grid (or construct LatticeEngine(grid_dt=...) "
                "to render on an analog grid)"
            )

    # ------------------------------------------------------------------
    # the batched kernel
    # ------------------------------------------------------------------
    @staticmethod
    def _batch_lattice_sequences(
        z2: np.ndarray,
        r_load,
        r_src,
        loss: float,
        n_steps: int,
        tap: str,
    ) -> np.ndarray:
        """Vectorised Goupillaud stepper over ``(C, S)`` states, ``(C, N)``.

        The k-loop survives (the recursion is inherently sequential in
        time) but every step is one set of whole-batch array operations
        into preallocated buffers — no per-step allocation.  Per row the
        element-wise operations and their order match the scalar-loop
        oracle in ``tests/oracles.py`` exactly, so each output row is
        bit-for-bit the scalar result (IEEE arithmetic is deterministic;
        ``y + x`` where the scalar computes ``x + y`` is the one reordering
        used, and float addition is commutative).

        ``tap`` selects the observation point: ``"source"`` records the
        backward wave reaching the driver (reflection), ``"load"`` records
        the wave delivered into the termination (transmission).
        """
        c, s = z2.shape
        r = (z2[:, 1:] - z2[:, :-1]) / (z2[:, 1:] + z2[:, :-1])
        one_plus_r = 1.0 + r
        one_minus_r = 1.0 - r
        r_load = np.broadcast_to(np.asarray(r_load, dtype=float), (c,))
        r_src = np.broadcast_to(np.asarray(r_src, dtype=float), (c,))
        gain_load = 1.0 + r_load
        fwd = np.zeros((c, s))
        bwd = np.zeros((c, s))
        fwd[:, 0] = 1.0
        fa = np.empty((c, s))
        ba = np.empty((c, s))
        tmp = np.empty((c, s - 1)) if s > 1 else None
        out = np.zeros((c, n_steps))
        for k in range(1, n_steps):
            np.multiply(fwd, loss, out=fa)
            np.multiply(bwd, loss, out=ba)
            if tap == "source":
                out[:, k] = ba[:, 0]
            else:
                np.multiply(gain_load, fa[:, -1], out=out[:, k])
            if s > 1:
                # fwd[:, 1:] = (1 + r) * fa[:, :-1] - r * ba[:, 1:]
                np.multiply(one_plus_r, fa[:, :-1], out=fwd[:, 1:])
                np.multiply(r, ba[:, 1:], out=tmp)
                fwd[:, 1:] -= tmp
                # bwd[:, :-1] = r * fa[:, :-1] + (1 - r) * ba[:, 1:]
                np.multiply(one_minus_r, ba[:, 1:], out=bwd[:, :-1])
                np.multiply(r, fa[:, :-1], out=tmp)
                bwd[:, :-1] += tmp
            # The scalar loop accumulates these endpoint products into a
            # zeroed array, so a -0.0 product flushes to +0.0; add the
            # same zero here to stay bitwise-identical.
            np.multiply(r_load, fa[:, -1], out=bwd[:, -1])
            bwd[:, -1] += 0.0
            np.multiply(r_src, ba[:, 0], out=fwd[:, 0])
            fwd[:, 0] += 0.0
        return out

    def _batch_states(self, z, tau):
        z2 = np.atleast_2d(np.asarray(z, dtype=float))
        tau2 = np.atleast_2d(np.asarray(tau, dtype=float))
        if z2.shape != tau2.shape:
            raise ValueError("z and tau batches must share a shape")
        return z2, tau2, self._batch_uniform_tau(tau2)

    def batch_impulse_sequences(
        self,
        z: np.ndarray,
        tau: np.ndarray,
        r_load,
        loss: float,
        n_out: Optional[int] = None,
        *,
        r_src=0.0,
        n_steps: Optional[int] = None,
    ) -> np.ndarray:
        """Lattice reflection sequences for a batch of states, ``(C, N)``.

        API parity with :meth:`BornEngine.batch_impulse_sequences`; extra
        keyword-only knobs expose the lattice-specific inputs (``r_src``
        re-reflection at the driver, explicit step count).

        On the native grid (``grid_dt is None``) all rows must share one
        segment delay (the common output grid) and the result has one
        column per lattice step.  On an analog grid each row may carry its
        own uniform delay; row sequences are deposited as timed impulses
        at ``t = k * tau_row`` with linear interpolation, so stretch moves
        echoes by sub-grid amounts exactly as in the Born engine.
        """
        z2, tau2, taus = self._batch_states(z, tau)
        s = z2.shape[1]
        if self.grid_dt is None:
            if taus.size and (
                np.max(taus) - np.min(taus) > 1e-9 * float(np.mean(taus))
            ):
                raise ValueError(
                    "native-grid batches need one shared segment delay; "
                    "construct LatticeEngine(grid_dt=...) to render "
                    "mixed-delay batches on an analog grid"
                )
            if n_steps is None:
                n_steps = n_out if n_out is not None else self._default_steps(s)
            return self._batch_lattice_sequences(
                z2, r_load, r_src, loss, n_steps, tap="source"
            )
        if n_steps is None:
            n_steps = self._default_steps(s)
            if n_out is not None:
                # The record ends at n_out * grid_dt; steps beyond it can
                # only deposit outside the record.  (+2 covers the edge bin.)
                needed = (
                    int(np.ceil(n_out * self.grid_dt / float(np.min(taus))))
                    + 2
                )
                n_steps = min(n_steps, needed)
        if n_out is None:
            span = (n_steps - 1) * float(np.max(taus))
            n_out = int(np.ceil(span / self.grid_dt)) + 2
        seq = self._batch_lattice_sequences(
            z2, r_load, r_src, loss, n_steps, tap="source"
        )
        times = taus[:, None] * np.arange(n_steps)[None, :]
        return _deposit_impulses(times, seq, self.grid_dt, n_out)

    def batch_reflection_responses(
        self,
        z: np.ndarray,
        tau: np.ndarray,
        r_load,
        loss: float,
        incident: Waveform,
        n_out: Optional[int] = None,
        *,
        r_src=0.0,
    ) -> np.ndarray:
        """Reflected waveforms for a batch of states, shape ``(C, N)``."""
        z2, tau2, taus = self._batch_states(z, tau)
        if self.grid_dt is not None:
            self._validate_grid(incident.dt, self.grid_dt, "analog grid_dt")
            if n_out is None:
                span = 2.0 * float(np.max(np.sum(tau2, axis=1)))
                n_out = int(np.ceil(span / self.grid_dt)) + len(incident) + 2
            h = self.batch_impulse_sequences(
                z2, tau2, r_load, loss, n_out=n_out, r_src=r_src
            )
            return batch_convolve_full(h, incident.samples)[:, :n_out]
        self._validate_grid(incident.dt, taus, "segment delay")
        h = self.batch_impulse_sequences(
            z2, tau2, r_load, loss, n_out=n_out, r_src=r_src
        )
        return batch_convolve_full(h, incident.samples)[:, : h.shape[1]]

    # ------------------------------------------------------------------
    # single-profile surface
    # ------------------------------------------------------------------
    def impulse_sequence(
        self,
        profile: ImpedanceProfile,
        n_steps: Optional[int] = None,
        n_out: Optional[int] = None,
    ) -> Waveform:
        """Backward wave at the source for a unit incident sample at t=0.

        On the native grid the returned waveform is sampled at the segment
        delay; sample ``k`` is the reflected amplitude emerging at the
        source interface at time ``k * tau``.  With ``grid_dt`` set the
        sequence is rendered onto the analog grid (``n_out`` points).
        """
        h = self.batch_impulse_sequences(
            profile.z[None, :],
            profile.tau[None, :],
            profile.load_reflection(),
            profile.loss_per_segment,
            n_out=n_out,
            r_src=profile.source_reflection(),
            n_steps=n_steps,
        )
        dt = self.grid_dt if self.grid_dt is not None else self._uniform_tau(
            profile
        )
        return Waveform(h[0], dt)

    def reflection_response(
        self,
        profile: ImpedanceProfile,
        incident: Waveform,
        n_out: Optional[int] = None,
    ) -> Waveform:
        """Reflected waveform for an arbitrary incident wave.

        The incident waveform must be sampled on the engine's output grid
        (the segment delay natively, ``grid_dt`` otherwise) within
        :attr:`DT_RTOL`.
        """
        out = self.batch_reflection_responses(
            profile.z[None, :],
            profile.tau[None, :],
            profile.load_reflection(),
            profile.loss_per_segment,
            incident,
            n_out=n_out,
            r_src=profile.source_reflection(),
        )
        dt = self.grid_dt if self.grid_dt is not None else self._uniform_tau(
            profile
        )
        return Waveform(out[0], dt, incident.t0)

    def transmission_sequence(
        self, profile: ImpedanceProfile, n_steps: Optional[int] = None
    ) -> Waveform:
        """Forward wave delivered *into the load* for a unit incident sample.

        The receiver-side counterpart of :meth:`impulse_sequence`: sample
        ``k`` is the voltage-wave amplitude crossing the load interface at
        time ``k * tau``.  The first arrival lands at step ``S`` with
        amplitude ``(1 + rho_load) * prod(1 + rho_i) * loss^S`` (its
        voltage-divider form); later samples are the inter-symbol echoes a
        receiver's eye diagram shows.  Always on the native lattice grid.
        """
        tau = self._uniform_tau(profile)
        if n_steps is None:
            n_steps = self._default_steps(profile.n_segments)
        seq = self._batch_lattice_sequences(
            profile.z[None, :],
            profile.load_reflection(),
            profile.source_reflection(),
            profile.loss_per_segment,
            n_steps,
            tap="load",
        )
        return Waveform(seq[0], tau)

    def transmission_response(
        self, profile: ImpedanceProfile, incident: Waveform
    ) -> Waveform:
        """Waveform arriving at the receiver for an arbitrary incident wave."""
        h = self.transmission_sequence(profile)
        self._validate_grid(incident.dt, h.dt, "segment delay")
        out = convolve_full(incident.samples, h.samples)[: len(h)]
        return Waveform(out, h.dt, incident.t0)


class BornEngine:
    """First-order scattering model, vectorised over batches of line states.

    ``grid_dt`` is the analog time grid spacing on which responses are
    rendered — in the DIVOT context this is the ETS phase step (11.16 ps on
    the Ultrascale+ prototype).
    """

    def __init__(self, grid_dt: float, include_load_echo: bool = True) -> None:
        if grid_dt <= 0:
            raise ValueError("grid_dt must be positive")
        self.grid_dt = grid_dt
        self.include_load_echo = include_load_echo

    # ------------------------------------------------------------------
    def echoes(self, profile: ImpedanceProfile):
        """(times, amplitudes) of every first-order echo of one profile."""
        t, a = self._batch_echoes(
            profile.z[None, :],
            profile.tau[None, :],
            profile.load_reflection(),
            profile.loss_per_segment,
        )
        return t[0], a[0]

    @staticmethod
    def _batch_echoes(z, tau, r_load, loss):
        """Vectorised echo computation.

        Args:
            z: impedances, shape ``(C, S)``.
            tau: per-segment delays, shape ``(C, S)``.
            r_load: load reflection coefficient(s), scalar or ``(C,)``.
            loss: per-segment one-way amplitude factor.
        Returns:
            times ``(C, S)`` and amplitudes ``(C, S)``: the first ``S-1``
            columns are interface echoes, the last column is the load echo.
        """
        c, s = z.shape
        r = (z[:, 1:] - z[:, :-1]) / (z[:, 1:] + z[:, :-1])
        # Round-trip arrival time of the echo from interface i (between
        # segments i and i+1): twice the cumulative delay through segment i.
        cum_tau = np.cumsum(tau, axis=1)
        t_iface = 2.0 * cum_tau[:, :-1]
        # Two-way transmission through all interfaces crossed en route.
        one_minus_r2 = 1.0 - r**2
        trans = np.cumprod(one_minus_r2, axis=1)
        trans_before = np.concatenate([np.ones((c, 1)), trans[:, :-1]], axis=1)
        seg_index = np.arange(1, s)  # segments traversed per interface echo
        loss_factor = loss ** (2.0 * seg_index)
        a_iface = r * trans_before * loss_factor[None, :]
        # Load echo: through every interface, full line both ways.
        t_load = 2.0 * cum_tau[:, -1:]
        r_load_arr = np.broadcast_to(
            np.asarray(r_load, dtype=float), (c,)
        ).reshape(c, 1)
        a_load = r_load_arr * (trans[:, -1:] if s > 1 else np.ones((c, 1)))
        a_load = a_load * loss ** (2.0 * s)
        times = np.concatenate([t_iface, t_load], axis=1)
        amps = np.concatenate([a_iface, a_load], axis=1)
        return times, amps

    # ------------------------------------------------------------------
    def impulse_sequence(
        self, profile: ImpedanceProfile, n_out: Optional[int] = None
    ) -> Waveform:
        """Reflection sequence on the analog grid for a single profile."""
        h = self.batch_impulse_sequences(
            profile.z[None, :],
            profile.tau[None, :],
            profile.load_reflection(),
            profile.loss_per_segment,
            n_out=n_out,
        )
        return Waveform(h[0], self.grid_dt)

    def batch_impulse_sequences(
        self,
        z: np.ndarray,
        tau: np.ndarray,
        r_load,
        loss: float,
        n_out: Optional[int] = None,
    ) -> np.ndarray:
        """Reflection sequences for a batch of line states, shape ``(C, N)``.

        Echo amplitudes are deposited onto the analog grid with linear
        interpolation between the two bracketing bins, preserving sub-grid
        timing (the mechanism by which temperature stretch moves echoes).
        """
        z = np.atleast_2d(np.asarray(z, dtype=float))
        tau = np.atleast_2d(np.asarray(tau, dtype=float))
        if z.shape != tau.shape:
            raise ValueError("z and tau batches must share a shape")
        times, amps = self._batch_echoes(z, tau, r_load, loss)
        if not self.include_load_echo:
            times = times[:, :-1]
            amps = amps[:, :-1]
        if n_out is None:
            n_out = int(np.ceil(np.max(times) / self.grid_dt)) + 2
        return _deposit_impulses(times, amps, self.grid_dt, n_out)

    # ------------------------------------------------------------------
    def reflection_response(
        self,
        profile: ImpedanceProfile,
        incident: Waveform,
        n_out: Optional[int] = None,
    ) -> Waveform:
        """Reflected waveform for one profile driven by ``incident``."""
        out = self.batch_reflection_responses(
            profile.z[None, :],
            profile.tau[None, :],
            profile.load_reflection(),
            profile.loss_per_segment,
            incident,
            n_out=n_out,
        )
        return Waveform(out[0], self.grid_dt, incident.t0)

    def batch_reflection_responses(
        self,
        z: np.ndarray,
        tau: np.ndarray,
        r_load,
        loss: float,
        incident: Waveform,
        n_out: Optional[int] = None,
    ) -> np.ndarray:
        """Reflected waveforms for a batch of states, shape ``(C, N)``."""
        if not np.isclose(incident.dt, self.grid_dt, rtol=1e-6, atol=0.0):
            raise ValueError(
                f"incident dt {incident.dt} must match grid_dt {self.grid_dt}"
            )
        z2 = np.atleast_2d(np.asarray(z, dtype=float))
        tau2 = np.atleast_2d(np.asarray(tau, dtype=float))
        if n_out is None:
            span = 2.0 * float(np.max(np.sum(tau2, axis=1)))
            n_out = int(np.ceil(span / self.grid_dt)) + len(incident) + 2
        h = self.batch_impulse_sequences(z2, tau2, r_load, loss, n_out=n_out)
        return batch_convolve_full(h, incident.samples)[:, :n_out]


def reflected_waveform(
    profile: ImpedanceProfile,
    incident: Waveform,
    engine: str = "born",
    grid_dt: Optional[float] = None,
) -> Waveform:
    """Convenience dispatcher over the two propagation engines.

    ``grid_dt`` defaults to the incident waveform's grid for the Born
    engine and to the native lattice grid for the lattice engine (pass it
    explicitly to render the lattice response on an analog grid).
    """
    if engine == "born":
        born = BornEngine(grid_dt or incident.dt)
        return born.reflection_response(profile, incident)
    if engine == "lattice":
        lattice = LatticeEngine(grid_dt=grid_dt)
        return lattice.reflection_response(profile, incident)
    raise ValueError(f"unknown engine {engine!r}; use 'born' or 'lattice'")
