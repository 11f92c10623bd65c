"""Batched lattice kernel + FFT convolution: the physics-solve perf pin.

The exact Goupillaud lattice used to be a scalar Python loop — orders of
magnitude slower than the Born engine's vectorised echo pass, which is why
every hot path defaulted to the approximate model.  This bench pins the
batched kernel's win: stepping ``C`` capture rows through one vectorised
k-loop must be at least 10x faster per sequence than the scalar reference
loop (``tests/oracles.scalar_impulse_sequence``) at ``C=256`` — and
bit-for-bit identical to it, so the speedup is never bought with different
physics.

The second pin covers the shared convolution helper: the method choice
(direct vs FFT) is a pure function of operand sizes, the FFT path beats
the O(N*M) direct product at capture-path sizes, and a fleet scan whose
capture convolutions land on the FFT path stays byte-identical across
shard counts — determinism survives the faster math.

The third pin covers the fused count-only capture kernel: steady-state
captures (monitoring checks, enrollment stacks, fleet scans) skip the
dense probability-grid render and draw comparator counts straight from
cached per-level CDF tables.  At the monitoring scale — one capture per
check, warm caches — the fused path must be at least 5x the dense-grid
estimator (``tests/oracles.grid_capture_stack``) in captures/sec while
staying bit-for-bit identical to it, and must perform zero dense renders
once warm.

Results are written to ``benchmarks/BENCH_physics.json`` so the solver
throughput trajectory can be tracked across commits.  Under
``REPRO_BENCH_SMOKE=1`` the sizes shrink and wall-clock floors are not
enforced (shared CI runners); correctness and byte-identity always are.
"""

import dataclasses
import time

import numpy as np

from repro.core import (
    Authenticator,
    FleetScanExecutor,
    TamperDetector,
    prototype_itdr,
    prototype_itdr_config,
    prototype_line_factory,
)
from repro.core.itdr import ITDR
from repro.signals import conv_method, convolve_full
from repro.txline.materials import FR4
from repro.txline.profile import ImpedanceProfile
from repro.txline.propagation import LatticeEngine
from tests.oracles import grid_capture_stack, scalar_impulse_sequence

from conftest import emit, smoke_mode

TAU = 11.16e-12
BATCH_C = 64 if smoke_mode() else 256
SEGMENTS = 64
N_SCALAR = 8 if smoke_mode() else 32
SPEEDUP_FLOOR = 10.0


def _lattice_states(rng):
    z = 50.0 * (1.0 + 0.02 * rng.standard_normal((BATCH_C, SEGMENTS)))
    tau = np.full((BATCH_C, SEGMENTS), TAU)
    r_load = rng.uniform(-0.05, 0.05, BATCH_C)
    r_src = rng.uniform(-0.05, 0.05, BATCH_C)
    return z, tau, r_load, r_src


def _best_time(fn, rounds=3):
    best = np.inf
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_batched_lattice_at_least_10x_scalar(benchmark, record_physics_result):
    rng = np.random.default_rng(0)
    z, tau, r_load, r_src = _lattice_states(rng)
    engine = LatticeEngine()
    loss = 0.995

    profiles = [
        ImpedanceProfile(
            z=z[i],
            tau=tau[i],
            z_source=float(rng.uniform(45.0, 55.0)),
            z_load=float(rng.uniform(45.0, 55.0)),
            loss_per_segment=loss,
        )
        for i in range(N_SCALAR)
    ]
    # The scalar-covered rows use the exact coefficients the profiles
    # resolve to, so the bitwise comparison below is apples to apples.
    for i, p in enumerate(profiles):
        r_load[i] = p.load_reflection()
        r_src[i] = p.source_reflection()
    n_steps = engine._default_steps(SEGMENTS)

    scalar_s = _best_time(
        lambda: [
            scalar_impulse_sequence(engine, p, n_steps=n_steps)
            for p in profiles
        ]
    )
    batch_s = _best_time(
        lambda: engine.batch_impulse_sequences(
            z, tau, r_load, loss, r_src=r_src, n_steps=n_steps
        )
    )
    benchmark(
        engine.batch_impulse_sequences,
        z, tau, r_load, loss, r_src=r_src, n_steps=n_steps,
    )

    scalar_rate = N_SCALAR / scalar_s
    batch_rate = BATCH_C / batch_s
    speedup = batch_rate / scalar_rate

    # The speedup must never be bought with different physics: the rows
    # the scalar reference covered are bit-for-bit identical.
    batched = engine.batch_impulse_sequences(
        z, tau, r_load, loss, r_src=r_src, n_steps=n_steps
    )
    for i, p in enumerate(profiles):
        reference = scalar_impulse_sequence(engine, p, n_steps=n_steps)
        assert batched[i].tobytes() == reference.samples.tobytes()

    record_physics_result(
        "lattice_impulse_throughput",
        {
            "batch_c": BATCH_C,
            "segments": SEGMENTS,
            "n_steps": n_steps,
            "scalar_sequences_per_s": scalar_rate,
            "batch_sequences_per_s": batch_rate,
            "speedup": speedup,
            "speedup_floor": SPEEDUP_FLOOR,
            "speedup_gated": not smoke_mode(),
        },
    )
    emit(
        "PHYSICS KERNELS — scalar loop vs batched lattice",
        f"batch size               : C={BATCH_C}, S={SEGMENTS}, "
        f"{n_steps} steps\n"
        f"scalar reference         : {scalar_rate:10.1f} sequences/sec\n"
        f"batched kernel           : {batch_rate:10.1f} sequences/sec\n"
        f"speedup                  : {speedup:10.1f}x "
        f"(floor: {SPEEDUP_FLOOR:.0f}x"
        f"{', not enforced in smoke mode' if smoke_mode() else ''})",
    )
    if not smoke_mode():
        assert speedup >= SPEEDUP_FLOOR


FUSED_SPEEDUP_FLOOR = 5.0
FUSED_ROUNDS = 60 if smoke_mode() else 300
FUSED_STACKS = (1, 4, 64)


def test_fused_capture_kernel_at_least_5x_grid(record_physics_result):
    """Count-only captures beat the dense-grid estimator 5x at monitor scale.

    Both sides are warmed first (reflection solve + CDF tables cached),
    then timed over repeated stack captures — exactly the steady-state
    monitoring loop.  The speedup must never be bought with different
    statistics: the fused stacks are bit-for-bit the oracle's stacks,
    and the fused iTDR performs zero dense renders while timed.
    """
    line = prototype_line_factory().manufacture(seed=900)

    def rate(capture, n_captures):
        capture(n_captures)  # warm every cache
        start = time.perf_counter()
        for _ in range(FUSED_ROUNDS):
            capture(n_captures)
        return FUSED_ROUNDS * n_captures / (time.perf_counter() - start)

    rows = {}
    for n_captures in FUSED_STACKS:
        grid = prototype_itdr(rng=np.random.default_rng(2))
        grid_rate = rate(
            lambda n: grid_capture_stack(grid, line, n), n_captures
        )
        fused = prototype_itdr(rng=np.random.default_rng(2))
        fused_rate = rate(
            lambda n: fused.capture_stack(line, n), n_captures
        )
        rows[n_captures] = (grid_rate, fused_rate)

    # Bit-identity and zero dense renders in the steady state.
    fused = prototype_itdr(rng=np.random.default_rng(3))
    grid = prototype_itdr(rng=np.random.default_rng(3))
    assert (
        fused.capture_stack(line, 8).tobytes()
        == grid_capture_stack(grid, line, 8).tobytes()
    )
    before = fused.kernel_stats.snapshot()
    fused.capture_stack(line, 8)
    delta = fused.kernel_stats.delta(before)
    assert delta["dense_renders"] == 0 and delta["grid_calls"] == 0

    monitor_grid, monitor_fused = rows[1]
    speedup = monitor_fused / monitor_grid
    record_physics_result(
        "fused_capture_kernel",
        {
            "rounds": FUSED_ROUNDS,
            "per_stack": {
                str(c): {
                    "grid_captures_per_s": g,
                    "fused_captures_per_s": f,
                    "speedup": f / g,
                }
                for c, (g, f) in rows.items()
            },
            "monitor_scale_speedup": speedup,
            "speedup_floor": FUSED_SPEEDUP_FLOOR,
            "speedup_gated": not smoke_mode(),
            "byte_identical": True,
            "dense_renders_steady_state": 0,
        },
    )
    emit(
        "PHYSICS KERNELS — dense-grid vs fused count-only captures",
        "\n".join(
            f"C={c:3d}  grid {g:10.0f} cap/s   fused {f:10.0f} cap/s   "
            f"{f / g:6.2f}x"
            for c, (g, f) in rows.items()
        )
        + f"\nmonitor-scale speedup    : {speedup:10.1f}x "
        f"(floor: {FUSED_SPEEDUP_FLOOR:.0f}x"
        f"{', not enforced in smoke mode' if smoke_mode() else ''})"
        "\nfused vs grid stacks     : byte-identical, 0 dense renders",
    )
    if not smoke_mode():
        assert speedup >= FUSED_SPEEDUP_FLOOR


def test_fft_convolution_beats_direct_at_size(record_physics_result):
    """At large operand sizes the helper picks FFT and outruns O(N*M)."""
    rng = np.random.default_rng(1)
    n, m = (2048, 256) if smoke_mode() else (16384, 1024)
    a = rng.standard_normal(n)
    b = rng.standard_normal(m)
    assert conv_method(n, m) == "fft"

    direct_s = _best_time(lambda: np.convolve(a, b))
    helper_s = _best_time(lambda: convolve_full(a, b))
    assert np.allclose(convolve_full(a, b), np.convolve(a, b), atol=1e-9)

    record_physics_result(
        "fft_convolution",
        {
            "n": n,
            "m": m,
            "method": conv_method(n, m),
            "direct_s": direct_s,
            "fft_s": helper_s,
            "speedup": direct_s / helper_s,
            "speedup_gated": not smoke_mode(),
        },
    )
    emit(
        "PHYSICS KERNELS — direct vs FFT convolution",
        f"operands                 : {n} x {m} "
        f"(method: {conv_method(n, m)})\n"
        f"np.convolve (direct)     : {direct_s * 1e3:10.2f} ms\n"
        f"convolve_full (FFT)      : {helper_s * 1e3:10.2f} ms\n"
        f"speedup                  : {direct_s / helper_s:10.1f}x",
    )
    if not smoke_mode():
        assert helper_s < direct_s


def test_fleet_byte_identity_with_fft_capture_path(record_physics_result):
    """Shard-count invisibility survives the FFT convolution path.

    A 3x-longer probe edge pushes the capture convolution over the
    direct-cost ceiling, so every solve in this fleet runs through
    ``fftconvolve``.  Serial ``shards=1`` and process ``shards=2`` scans
    must still produce byte-identical outcomes — the FFT method choice is
    a pure function of sizes, never of partitioning.
    """
    base = prototype_itdr_config()
    config = dataclasses.replace(
        base, edge_rise_time=base.edge_rise_time * 3
    )
    factory = prototype_line_factory()
    lines = factory.manufacture_batch(3, first_seed=950)
    probe = ITDR(config).probe_edge()
    n_out = ITDR(config).record_length(lines[0])
    assert conv_method(n_out, len(probe)) == "fft"

    def make(shards, backend):
        detector = TamperDetector(
            threshold=2.5e-3,
            velocity=FR4.velocity_at(FR4.t_ref_c),
            smooth_window=7,
            alignment_offset_s=probe.duration,
        )
        executor = FleetScanExecutor(
            Authenticator(0.85),
            detector,
            itdr_config=config,
            captures_per_check=4,
            shards=shards,
            backend=backend,
            seed=13,
        )
        for line in lines:
            executor.register(line)
        return executor

    with make(1, "serial") as serial:
        serial.enroll(n_captures=4)
        serial_outcome = serial.scan()
    with make(2, "process") as sharded:
        sharded.enroll(n_captures=4)
        sharded_outcome = sharded.scan()

    identical = (
        serial_outcome.canonical_bytes() == sharded_outcome.canonical_bytes()
    )
    record_physics_result(
        "fleet_fft_byte_identity",
        {
            "n_buses": len(lines),
            "conv_sizes": [n_out, len(probe)],
            "conv_method": conv_method(n_out, len(probe)),
            "byte_identical": identical,
        },
    )
    emit(
        "PHYSICS KERNELS — fleet byte-identity on the FFT path",
        f"capture convolution      : {n_out} x {len(probe)} samples "
        f"(method: {conv_method(n_out, len(probe))})\n"
        f"serial vs 2-shard scan   : "
        f"{'byte-identical' if identical else 'DIVERGED'}",
    )
    assert identical
