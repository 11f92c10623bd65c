"""Mixed-protocol fleets: the whole registry on the sharded executor.

One deployment rarely protects a single bus kind — a board has a memory
bus, a debug header, a flash SPI lane, and a management I2C bus at the
same time.  :func:`build_protocol_fleet` registers lines for any subset
of the registry on one :class:`~repro.core.fleet.FleetScanExecutor`,
each carrying its protocol label, so a single sharded scan protects the
whole zoo: per-protocol cells land in ``Telemetry.snapshot()``, fault
recovery and 1:N identification apply unchanged, and byte-identity
across shard counts holds because labels are registration metadata,
never measurement input.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..core.auth import Authenticator
from ..core.config import prototype_itdr, prototype_line_factory
from ..core.fleet import FleetScanExecutor
from ..core.tamper import TamperDetector
from ..txline.materials import FR4
from . import registry
from .link import default_tamper_detector

__all__ = ["build_protocol_fleet", "default_attacks_by_bus"]


def build_protocol_fleet(
    protocols: Optional[Sequence[str]] = None,
    buses_per_protocol: int = 1,
    first_seed: int = 500,
    seed: int = 0,
    shards: int = 1,
    backend: str = "auto",
    captures_per_check: Optional[int] = None,
    authenticator: Optional[Authenticator] = None,
    tamper_detector: Optional[TamperDetector] = None,
    retry_policy=None,
    fault_injector=None,
) -> FleetScanExecutor:
    """A sharded executor protecting buses of every named protocol.

    Args:
        protocols: Registry names to deploy (default: the whole
            registry, sorted).
        buses_per_protocol: Fleet width per protocol; lines manufacture
            from consecutive seeds starting at ``first_seed`` and are
            named ``<protocol>-<k>``.
        seed / shards / backend / captures_per_check /
            retry_policy / fault_injector: Forwarded to the executor.

    Decision policies default to the *specs' own* tuning when every
    selected spec agrees (one executor ships one policy set to its
    shards); a mixed-tuning selection must pass explicit policies —
    or run per-protocol executors, which is what
    :class:`~repro.campaigns.engine.Campaign` does.
    """
    if buses_per_protocol < 1:
        raise ValueError("buses_per_protocol must be >= 1")
    specs = [registry.get(name) for name in (
        protocols if protocols is not None else registry.load_all()
    )]

    def consensus(label, values, fallback):
        distinct = sorted(set(values))
        if len(distinct) > 1:
            raise ValueError(
                f"selected specs disagree on {label} ({distinct}); pass "
                "an explicit policy or use per-protocol executors"
            )
        return distinct[0] if distinct else fallback

    if captures_per_check is None:
        captures_per_check = consensus(
            "captures_per_check",
            [s.captures_per_check for s in specs], 4,
        )
    if authenticator is None:
        authenticator = Authenticator(consensus(
            "auth_threshold", [s.auth_threshold for s in specs], 0.85,
        ))
    if tamper_detector is None:
        itdr = prototype_itdr()
        if specs:
            threshold = consensus(
                "tamper_threshold", [s.tamper_threshold for s in specs],
                None,
            )
            window = consensus(
                "tamper_smooth_window",
                [s.tamper_smooth_window for s in specs], None,
            )
            tamper_detector = TamperDetector(
                threshold=threshold,
                velocity=FR4.velocity_at(FR4.t_ref_c),
                smooth_window=window,
                alignment_offset_s=itdr.probe_edge().duration,
            )
        else:
            tamper_detector = default_tamper_detector(itdr)
    executor = FleetScanExecutor(
        authenticator,
        tamper_detector,
        captures_per_check=captures_per_check,
        shards=shards,
        backend=backend,
        seed=seed,
        retry_policy=retry_policy,
        fault_injector=fault_injector,
    )
    factory = prototype_line_factory()
    line_seed = first_seed
    for spec in specs:
        for k in range(buses_per_protocol):
            line = factory.manufacture(
                seed=line_seed, name=f"{spec.name}-{k}"
            )
            executor.register(line, protocol=spec.name)
            line_seed += 1
    return executor


def default_attacks_by_bus(
    executor: FleetScanExecutor,
    protocols: Optional[Sequence[str]] = None,
    per_protocol_limit: int = 1,
) -> Dict[str, List]:
    """Each protocol's canonical attack, placed on its fleet buses.

    Builds a ``modifiers_by_bus`` mapping for
    :meth:`~repro.core.fleet.FleetScanExecutor.scan`: the first
    ``per_protocol_limit`` buses of every (selected) protocol get that
    protocol's registry-default attack on their own line.
    """
    if per_protocol_limit < 1:
        raise ValueError("per_protocol_limit must be >= 1")
    wanted = None if protocols is None else set(protocols)
    placed: Dict[str, int] = {}
    modifiers: Dict[str, List] = {}
    for name, protocol in executor.bus_protocols().items():
        if protocol is None or (wanted is not None and protocol not in wanted):
            continue
        if placed.get(protocol, 0) >= per_protocol_limit:
            continue
        spec = registry.get(protocol)
        modifiers[name] = [spec.default_attack(None)]
        placed[protocol] = placed.get(protocol, 0) + 1
    return modifiers
