"""The Tx-line object: identity, physics, and state composition.

A :class:`TransmissionLine` binds together a manufactured impedance profile
(the line's immutable fingerprint), the laminate material, and the far-end
receiver package.  Environmental conditions and physical attacks are applied
as a chain of *profile modifiers*: each takes an
:class:`~repro.txline.profile.ImpedanceProfile` and returns a perturbed copy.
The iTDR asks the line for its reflected waveform under the current state.
"""

from __future__ import annotations

from typing import Optional, Protocol, Sequence

import numpy as np

from ..signals.waveform import Waveform
from .materials import FR4, Laminate
from .profile import ImpedanceProfile
from .propagation import BornEngine, LatticeEngine
from .termination import ReceiverPackage, splice_termination

__all__ = ["ProfileModifier", "TransmissionLine"]


class ProfileModifier(Protocol):
    """Anything that perturbs a line profile (environment or attack)."""

    def modify(self, profile: ImpedanceProfile) -> ImpedanceProfile:
        """Return the perturbed profile (must not mutate the input)."""
        ...  # pragma: no cover - protocol


class TransmissionLine:
    """A single physical Tx-line with an intrinsic IIP fingerprint.

    Attributes:
        name: Human-readable identity (e.g. ``"lane-3"``).
        board_profile: The bare board-trace impedance profile.
        material: Laminate the trace is etched on.
        receiver: Receiver package at the far end (None for a bare
            terminated line, as on the paper's test PCB).
    """

    def __init__(
        self,
        name: str,
        board_profile: ImpedanceProfile,
        material: Laminate = FR4,
        receiver: Optional[ReceiverPackage] = None,
    ) -> None:
        self.name = name
        self.board_profile = board_profile
        self.material = material
        self.receiver = receiver

    # ------------------------------------------------------------------
    @property
    def full_profile(self) -> ImpedanceProfile:
        """Board trace plus receiver package, the complete electrical path."""
        return splice_termination(self.board_profile, self.receiver)

    def profile_under(
        self, modifiers: Sequence[ProfileModifier] = ()
    ) -> ImpedanceProfile:
        """Apply a modifier chain (environment, attacks) to the full profile."""
        profile = self.full_profile
        for modifier in modifiers:
            profile = modifier.modify(profile)
        return profile

    # ------------------------------------------------------------------
    def reflected_waveform(
        self,
        incident: Waveform,
        modifiers: Sequence[ProfileModifier] = (),
        engine: str = "born",
        n_out: Optional[int] = None,
        profile: Optional[ImpedanceProfile] = None,
    ) -> Waveform:
        """Back-reflection observed at the source-side coupler.

        Args:
            incident: The probe waveform launched into the line (typically a
                data edge), sampled on the analog grid.
            modifiers: Environment/attack chain active during the capture.
            engine: ``"born"`` (fast, first order) or ``"lattice"`` (exact).
                Both render on the incident waveform's grid and honour
                ``n_out``, so either can drive the capture path.
            n_out: Output record length in samples.
            profile: Pre-resolved electrical state; when given, ``modifiers``
                are assumed to be already applied (the iTDR passes the
                profile it hashed for its cache so the chain runs once).
        """
        if profile is None:
            profile = self.profile_under(modifiers)
        if engine == "born":
            born = BornEngine(incident.dt)
            return born.reflection_response(profile, incident, n_out=n_out)
        if engine == "lattice":
            lattice = LatticeEngine(grid_dt=incident.dt)
            return lattice.reflection_response(profile, incident, n_out=n_out)
        raise ValueError(f"unknown engine {engine!r}")

    def batch_reflected_waveforms(
        self,
        incident: Waveform,
        z_batch: np.ndarray,
        tau_batch: np.ndarray,
        n_out: Optional[int] = None,
        engine: str = "born",
    ) -> np.ndarray:
        """Responses for many per-capture perturbed states at once.

        ``z_batch``/``tau_batch`` have shape ``(C, S)`` — one row per
        capture.  The load reflection and loss come from the unperturbed full
        profile; per-capture load changes should instead go through
        :meth:`reflected_waveform` with an attack modifier.  Both engines
        share the batch API; the lattice additionally requires each row's
        delays to be uniform (a temperature stretch is, a per-segment
        perturbation is not).
        """
        profile = self.full_profile
        if engine == "born":
            born = BornEngine(incident.dt)
            return born.batch_reflection_responses(
                z_batch,
                tau_batch,
                profile.load_reflection(),
                profile.loss_per_segment,
                incident,
                n_out=n_out,
            )
        if engine == "lattice":
            lattice = LatticeEngine(grid_dt=incident.dt)
            return lattice.batch_reflection_responses(
                z_batch,
                tau_batch,
                profile.load_reflection(),
                profile.loss_per_segment,
                incident,
                n_out=n_out,
                r_src=profile.source_reflection(),
            )
        raise ValueError(f"unknown engine {engine!r}")

    # ------------------------------------------------------------------
    def swap_receiver(self, receiver: Optional[ReceiverPackage]) -> "TransmissionLine":
        """A copy of this line with a different chip at the far end.

        This is the physical operation behind a Trojan-chip insertion or the
        re-seating step of a cold-boot attack.
        """
        return TransmissionLine(
            name=self.name,
            board_profile=self.board_profile,
            material=self.material,
            receiver=receiver,
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"TransmissionLine({self.name!r}, "
            f"{self.board_profile.n_segments} segments, "
            f"{self.board_profile.one_way_delay * 1e9:.2f} ns one-way)"
        )
