"""Operating DIVOT at fleet scale: sharing, adaptation, multi-lane fusion.

A day-2-operations tour of the deployment machinery built on top of the
paper's core:

1. one shared measurement datapath design protecting eight buses
   round-robin, scanned by the sharded fleet executor (resources
   near-flat, scan latency linear — and an attack on any one bus flagged
   by name within a scan, byte-identically for any shard count);
2. an adaptive reference riding through years of impedance aging that
   would strand a static fingerprint;
3. multi-lane fusion catching a tap on a strobe lane the clock-lane
   monitor never measures.

``--inject-crash`` kills one shard worker mid-scan (for real — the
process pool genuinely breaks) to show the recovery ladder at work:
the scan completes with the very same records, and the telemetry
``health`` section accounts for the retry and the rebuilt pool.

Run:  python examples/fleet_operations.py [--shards N] [--inject-crash]
"""

import argparse

import numpy as np

from repro.attacks import WireTap
from repro.core import (
    AdaptiveReference,
    Authenticator,
    FaultInjector,
    FaultSpec,
    Fingerprint,
    FleetScanExecutor,
    RetryPolicy,
    TamperDetector,
    prototype_itdr,
    prototype_itdr_config,
    prototype_line_factory,
)
from repro.core.divot import DivotEndpoint
from repro.env.aging import AgingModel
from repro.txline.materials import FR4

VELOCITY = FR4.velocity_at(FR4.t_ref_c)


def make_detector(itdr):
    return TamperDetector(
        threshold=2.5e-3,
        velocity=VELOCITY,
        smooth_window=7,
        alignment_offset_s=itdr.probe_edge().duration,
    )


def part_one_shared_datapath(
    factory, shards: int = 1, inject_crash: bool = False,
) -> None:
    print("=" * 64)
    print(f"1. one datapath design, eight buses, {shards} scan shard(s)"
          + (" — with an injected worker crash" if inject_crash else ""))
    print("=" * 64)
    config = prototype_itdr_config()
    injector = None
    if inject_crash:
        # Kill the worker measuring shard 0 on its first attempt of
        # every scan; the dispatch ladder rebuilds the pool and retries
        # on the same per-bus seed streams, so nothing below changes.
        injector = FaultInjector(
            specs=(FaultSpec(kind="crash", shard=0, mode="scan",
                             attempts=(0,)),)
        )
    executor = FleetScanExecutor(
        Authenticator(0.85),
        make_detector(prototype_itdr()),
        itdr_config=config,
        captures_per_check=16,
        shards=shards,
        seed=1,
        retry_policy=RetryPolicy(backoff_base_s=0.05),
        fault_injector=injector,
    )
    with executor:
        for line in factory.manufacture_batch(8, first_seed=400):
            executor.register(line)
        executor.enroll(n_captures=8)
        report = executor.resource_report()
        print(f"hardware           : {report.registers} FF / {report.luts} LUT "
              f"(one bus: 71 / 124)")
        print(f"scan period        : {executor.scan_period_s() * 1e3:.1f} ms "
              "(worst-case detection latency; shards buy scan throughput, "
              "not latency)")
        victim = executor.bus_names()[5]
        clean_scan = executor.scan()
        outcome = executor.scan(modifiers_by_bus={victim: [WireTap(0.12)]})
        flagged = [name for name, _ in outcome.alerts()]
        print(f"tap on {victim!r}  : flagged {flagged} in one scan "
              f"({outcome.backend} backend)")
        assert clean_scan.all_clear()
        # The telemetry surface: the same structured dict every DIVOT
        # workload exposes (memory bus, serial link, fleet executor).
        snap = executor.telemetry.snapshot()
        totals = snap["totals"]
        victim_cell = snap["buses"][victim]
        print(f"telemetry          : {totals['checks']} checks over two scans, "
              f"{totals['flagged']} flagged, "
              f"cadence consumed {snap['cadence']['triggers_consumed']} triggers")
        print(f"victim-bus cell    : {victim_cell['checks']} checks, "
              f"{victim_cell['flagged']} flagged, "
              f"mean score {victim_cell['score']['mean']:.3f}")
        shard_cells = {s: cell["checks"] for s, cell in snap["shards"].items()}
        print(f"per-shard checks   : {shard_cells}")
        health = snap["health"]
        print(f"dispatch health    : {health['retries']} retries, "
              f"{health['serial_fallbacks']} serial fallbacks, "
              f"{health['pool_rebuilds']} pool rebuilds over "
              f"{health['dispatches']} dispatches")
        if outcome.degraded:
            rungs = {h.shard: h.outcome for h in outcome.shard_health
                     if h.degraded}
            print(f"recovered shards   : {rungs} — records byte-identical "
                  "to a healthy scan by seed-stream construction")
        print(f"first alert        : t = {snap['detection']['first_alert_s'] * 1e3:.2f} ms "
              "on the shared datapath clock\n")


def part_two_adaptive_aging(factory) -> None:
    print("=" * 64)
    print("2. twelve years of aging, one rolling reference")
    print("=" * 64)
    line = factory.manufacture(seed=410)
    itdr = prototype_itdr(rng=np.random.default_rng(2))
    static = Fingerprint.from_captures(
        [itdr.capture(line) for _ in range(16)]
    )
    adaptive = AdaptiveReference(static, threshold=0.80, alpha=0.08)
    aging = AgingModel(drift_per_year=0.004)
    print("year   static-score   adaptive-score")
    for year in range(0, 13, 3):
        condition = aging.at_age(line.full_profile, float(year))
        static_scores, adaptive_scores = [], []
        for _ in range(12):
            capture = itdr.capture(line, modifiers=[condition])
            from repro.core import capture_similarity

            static_scores.append(capture_similarity(capture, static))
            adaptive_scores.append(adaptive.score(capture))
            adaptive.consider(capture)
        print(f"{year:4d}   {np.mean(static_scores):12.4f}   "
              f"{np.mean(adaptive_scores):12.4f}")
    print(f"reference updates applied: {adaptive.n_updates} "
          "(impostors can never trigger one)\n")


def part_three_multilane(factory) -> None:
    print("=" * 64)
    print("3. multi-lane fusion: the strobe lane the clock monitor misses")
    print("=" * 64)
    lanes = [
        factory.manufacture(seed=420, name="clk"),
        factory.manufacture(seed=421, name="dqs0"),
        factory.manufacture(seed=422, name="dqs1"),
    ]
    itdr = prototype_itdr(rng=np.random.default_rng(3))
    endpoint = DivotEndpoint(
        "bundle", itdr, Authenticator(0.9), make_detector(itdr),
        captures_per_check=16,
    )
    endpoint.calibrate_many(lanes, n_captures=8)
    clk_only = endpoint.monitor_capture(lanes[0])
    print(f"clock-lane-only check while dqs1 is tapped elsewhere: "
          f"{clk_only.action.value} (blind to the other lane)")
    fused = endpoint.monitor_multi(
        lanes, modifiers_by_lane={"dqs1": [WireTap(0.12)]}
    )
    where = ("unlocated" if fused.tamper.location_m is None
             else f"{fused.tamper.location_m * 100:.1f} cm along the lane")
    print(f"fused three-lane check: {fused.action.value}, tap at {where}")
    print("=> every conductor of the bundle is a fingerprint; an attacker "
          "must beat them all")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--shards", type=int, default=1,
        help="fleet-scan shard count (results are identical for any value)",
    )
    parser.add_argument(
        "--inject-crash", action="store_true",
        help="kill a shard worker mid-scan to demo failure recovery "
             "(needs --shards >= 2 for a process pool)",
    )
    args = parser.parse_args()
    factory = prototype_line_factory()
    part_one_shared_datapath(
        factory, shards=args.shards, inject_crash=args.inject_crash,
    )
    part_two_adaptive_aging(factory)
    part_three_multilane(factory)
