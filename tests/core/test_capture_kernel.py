"""Unit tests for the fused count-only capture kernel.

Three contracts live here:

* the stable binomial CDF table — exact term-product bits below the
  hybrid threshold (regression baselines depend on them), regularised
  incomplete beta above it (``math.comb``-based products overflow past
  ~1030 trials);
* the kernel-stats counter plumbing (snapshot/delta/reset);
* the booby trap — count-only call paths (endpoint monitoring, fleet
  scans) must perform **zero** dense-grid renders once their caches are
  warm.  A future change that quietly re-routes monitoring through the
  dense path fails here, not in a profiler.
"""

import math

import numpy as np
import pytest
from scipy.stats import binom

from repro.core import (
    Authenticator,
    FleetScanExecutor,
    TamperDetector,
    prototype_itdr,
    prototype_itdr_config,
    prototype_line_factory,
)
from repro.core.apc import ReferenceLadder
from repro.core.capturekernel import (
    EXACT_PMF_MAX_TRIALS,
    CaptureKernelStats,
    FusedCountKernel,
    binomial_cdf_table,
)
from repro.core.divot import DivotEndpoint
from repro.txline.materials import FR4


def _historical_cdf(n_trials, p):
    """The pre-fix term-product formula, verbatim (overflows at large n)."""
    p = np.asarray(p, dtype=float)
    q = 1.0 - p
    pmf = np.array(
        [
            math.comb(n_trials, k) * p**k * q ** (n_trials - k)
            for k in range(n_trials)
        ]
    )
    return np.cumsum(pmf, axis=0)


class TestBinomialCdfTable:
    def test_exact_branch_is_bitwise_historical_formula(self):
        """Below the hybrid threshold the table keeps the historical bits.

        Campaign and protocol regression pins were recorded against the
        term-product formula; the stable path must not move them.
        """
        p = np.linspace(0.001, 0.999, 257)
        for n_trials in (1, 4, 24, EXACT_PMF_MAX_TRIALS):
            table = binomial_cdf_table(n_trials, p)
            assert table.tobytes() == _historical_cdf(n_trials, p).tobytes()

    def test_stable_branch_matches_exact_at_small_n(self):
        """Distributional equivalence across the hybrid seam: the
        incomplete-beta CDF agrees with the exact products to rounding."""
        p = np.linspace(0.001, 0.999, 257)
        for n_trials in (4, 24, EXACT_PMF_MAX_TRIALS):
            exact = _historical_cdf(n_trials, p)
            stable = binom.cdf(
                np.arange(n_trials, dtype=float)[:, None], n_trials, p
            )
            assert np.max(np.abs(stable - exact)) < 1e-13

    def test_large_n_no_overflow(self):
        """repetitions=2048 used to raise OverflowError in math.comb
        products (comb(2048, 1024) ~ 1e615 > float64 max)."""
        p = np.array([1e-9, 0.3, 0.5, 0.9, 1.0 - 1e-9])
        table = binomial_cdf_table(2048, p)
        assert table.shape == (2048, p.size)
        assert np.all(np.isfinite(table))
        assert np.all((table >= 0.0) & (table <= 1.0))
        # CDF is non-decreasing in k (to incomplete-beta rounding) for
        # every probability column.
        assert np.all(np.diff(table, axis=0) >= -1e-12)

    def test_historical_formula_actually_overflowed(self):
        with pytest.raises(OverflowError):
            _historical_cdf(2048, np.array([0.5]))

    def test_no_tail_underflow_bias(self):
        """p**k underflow zeroed the tail of the old formula at large n;
        the stable CDF keeps the upper tail at 1, not 0."""
        table = binomial_cdf_table(1024, np.array([0.5]))
        assert table[-1, 0] == pytest.approx(1.0, abs=1e-12)


class TestCaptureKernelStats:
    def test_snapshot_delta_reset(self):
        stats = CaptureKernelStats()
        before = stats.snapshot()
        stats.fused_calls += 3
        stats.fused_captures += 12
        stats.dense_renders += 1
        delta = stats.delta(before)
        assert delta["fused_calls"] == 3
        assert delta["fused_captures"] == 12
        assert delta["dense_renders"] == 1
        assert delta["grid_calls"] == 0
        stats.reset()
        assert all(v == 0 for v in stats.snapshot().values())

    def test_counter_keys_cover_fields(self):
        stats = CaptureKernelStats()
        snap = stats.snapshot()
        assert set(snap) == set(CaptureKernelStats.COUNTER_KEYS)


class TestLevelTables:
    def test_one_cdf_copy_per_cached_state(self, line):
        """Each level's CDF table lives only in ``cdf_pad``: at the
        prototype config (N=394, 6 levels x 4 trials) a cached state
        holds 94,560 table bytes, where a second per-level copy made
        it 170,208."""
        itdr = prototype_itdr(rng=np.random.default_rng(0))
        itdr.capture(line)
        _, tables = itdr._fused._last
        assert tables.cdf_pad.shape == (6, 4, 394)
        held = sum(p.nbytes for p in tables.probs) + tables.cdf_pad.nbytes
        assert held == 94_560

    def test_mixed_regime_reads_each_level_from_the_padded_tensor(self):
        """Over-budget levels sample ``rng.binomial``; the rest compare
        against their ``cdf_pad`` rows, in ascending-level order."""
        ladder = ReferenceLadder(
            prototype_itdr().comparator, np.linspace(-0.1, 0.1, 6)
        )
        n, c, reps = 64, 3, 25  # trials split 5, 4, 4, 4, 4, 4
        mixed = FusedCountKernel(ladder, reps, budget=4 * c * n)
        v = np.linspace(-0.2, 0.2, n)
        got = mixed.estimate("k", v, c, np.random.default_rng(5),
                             CaptureKernelStats())
        rng = np.random.default_rng(5)
        counts = np.zeros((c, n), dtype=np.int64)
        key, tables = mixed._last
        assert key == "k"
        for p, n_j in zip(tables.probs, (5, 4, 4, 4, 4, 4)):
            if n_j == 5:
                counts += rng.binomial(n_j, np.broadcast_to(p, (c, n)))
            else:
                cdf = binomial_cdf_table(n_j, p)
                u = rng.random((c, n))
                counts += (u[None] > cdf[:, None]).sum(axis=0)
        assert got.tobytes() == ladder.invert(counts / reps).tobytes()

    def test_one_entry_memo_rebuilds_on_every_key_change(self):
        """Only the last state's tables are held: A, A, B, A is three
        builds (A, B, A again) and one hit (the repeated A)."""
        kernel = prototype_itdr()._fused
        stats = CaptureKernelStats()
        v = np.linspace(-0.02, 0.02, 32)
        first = kernel.tables_for("A", v, stats)
        assert kernel.tables_for("A", v, stats) is first
        kernel.tables_for("B", -v, stats)
        again = kernel.tables_for("A", v, stats)
        assert again is not first
        assert (stats.table_builds, stats.table_hits) == (3, 1)


class TestCountOnlyPathsRenderNoDenseGrids:
    """The booby trap: monitoring and fleet scans are count-only paths.

    Once the reflection/table caches are warm, a monitoring check must
    be pure fused-kernel work — zero dense-grid renders, zero grid-path
    estimates.  If a refactor re-routes these paths through the dense
    renderer, these assertions trip immediately.
    """

    def _endpoint(self, rng_seed=11):
        itdr = prototype_itdr(rng=np.random.default_rng(rng_seed))
        return DivotEndpoint(
            name="trap",
            itdr=itdr,
            authenticator=Authenticator(0.85),
            tamper_detector=TamperDetector(
                threshold=2.5e-3, velocity=FR4.velocity_at(FR4.t_ref_c)
            ),
            captures_per_check=4,
        )

    def test_monitor_capture_is_fused_only_when_warm(self, line):
        endpoint = self._endpoint()
        endpoint.calibrate(line, n_captures=8)
        endpoint.monitor_capture(line)  # warm every cache
        stats = endpoint.itdr.kernel_stats
        before = stats.snapshot()
        for _ in range(5):
            endpoint.monitor_capture(line)
        delta = stats.delta(before)
        assert delta["dense_renders"] == 0
        assert delta["grid_calls"] == 0
        assert delta["fused_calls"] == 5
        assert delta["fused_captures"] == 5 * endpoint.captures_per_check
        assert delta["table_builds"] == 0
        assert delta["table_hits"] == 5

    def test_calibrate_then_score_fused_only(self, line):
        """Enrollment (capture_stack) and scoring both take the fused
        path on a static line — the dense path is reserved for jitter,
        interference, and perturbed-state batches."""
        endpoint = self._endpoint(rng_seed=23)
        endpoint.itdr.true_reflection(line)  # warm the solve cache
        before = endpoint.itdr.kernel_stats.snapshot()
        endpoint.calibrate(line, n_captures=8)
        delta = endpoint.itdr.kernel_stats.delta(before)
        assert delta["dense_renders"] == 0
        assert delta["grid_calls"] == 0
        assert delta["fused_calls"] == 1
        assert delta["fused_captures"] == 8

    def test_score_lines_is_fused_only_when_warm(self):
        """The Fig. 7 scoring loop (enroll + all-vs-all captures) is a
        count-only path: static ``capture_batch`` routes through the
        fused stack."""
        from repro.experiments.common import score_lines

        lines = prototype_line_factory().manufacture_batch(2, first_seed=77)
        itdr = prototype_itdr(rng=np.random.default_rng(41))
        score_lines(lines, itdr, n_measurements=4, n_enroll=2)  # warm
        before = itdr.kernel_stats.snapshot()
        score_lines(lines, itdr, n_measurements=4, n_enroll=2)
        delta = itdr.kernel_stats.delta(before)
        assert delta["dense_renders"] == 0
        assert delta["grid_calls"] == 0
        assert delta["fused_calls"] == 2 * len(lines)

    def test_fleet_scan_is_fused_only_when_warm(self):
        """Steady-state fleet scans ship home all-zero dense-render
        deltas through the telemetry ``capture_kernel`` section."""
        factory = prototype_line_factory()
        lines = factory.manufacture_batch(3, first_seed=640)
        executor = FleetScanExecutor(
            Authenticator(0.85),
            TamperDetector(
                threshold=2.5e-3, velocity=FR4.velocity_at(FR4.t_ref_c)
            ),
            itdr_config=prototype_itdr_config(),
            captures_per_check=2,
            shards=1,
            backend="serial",
            seed=29,
        )
        with executor:
            for line in lines:
                executor.register(line)
            executor.enroll(n_captures=4)
            executor.scan()  # warm the per-worker caches
            warm = executor.telemetry.snapshot()["health"]["capture_kernel"]
            executor.scan()
            steady = executor.telemetry.snapshot()["health"]["capture_kernel"]
        delta = {k: steady[k] - warm[k] for k in steady}
        assert delta["dense_renders"] == 0
        assert delta["grid_calls"] == 0
        assert delta["fused_calls"] == len(lines)
        assert delta["fused_captures"] == 2 * len(lines)

    def test_fleet_rescan_at_scale_solves_and_renders_nothing(self):
        """The zero-solve invariant at fleet scale: a second scan of 512
        unchanged buses hits the solve memo for every bus.  Tables are
        rebuilt once per visit by design (the kernel memoises one state),
        and that trade-off is pinned here too."""
        n_buses = 512
        lines = prototype_line_factory().manufacture_batch(
            n_buses, first_seed=5000
        )
        executor = FleetScanExecutor(
            Authenticator(0.85),
            TamperDetector(
                threshold=2.5e-3, velocity=FR4.velocity_at(FR4.t_ref_c)
            ),
            itdr_config=prototype_itdr_config(),
            captures_per_check=4,
            shards=1,
            backend="serial",
            seed=31,
        )
        with executor:
            for line in lines:
                executor.register(line)
            executor.enroll()
            executor.scan()
            health = executor.telemetry.snapshot()["health"]
            warm_solves = health["solve_cache"]["workers"]
            warm_kernel = health["capture_kernel"]
            executor.scan()
            health = executor.telemetry.snapshot()["health"]
        solves = health["solve_cache"]["workers"]
        kernel = health["capture_kernel"]
        assert solves["misses"] - warm_solves["misses"] == 0
        assert kernel["dense_renders"] - warm_kernel["dense_renders"] == 0
        assert kernel["table_builds"] - warm_kernel["table_builds"] == n_buses

    def test_jitter_and_interference_still_take_dense_path(self, line):
        """The fused gate only covers the closed-form static case; the
        dense fallback stays live for the paths that need it."""
        from repro.env.emi import nearby_digital_circuit

        itdr = prototype_itdr(rng=np.random.default_rng(5))
        itdr.capture_stack(line, 2)  # warm caches
        before = itdr.kernel_stats.snapshot()
        itdr.capture_stack(line, 2, interference=nearby_digital_circuit())
        delta = itdr.kernel_stats.delta(before)
        assert delta["fused_calls"] == 0
        assert delta["grid_calls"] == 1

        jittery = prototype_itdr(
            rng=np.random.default_rng(5), phase_jitter_rms=1e-12
        )
        jittery.capture_stack(line, 2)
        before = jittery.kernel_stats.snapshot()
        jittery.capture_stack(line, 2)
        delta = jittery.kernel_stats.delta(before)
        assert delta["fused_calls"] == 0
        assert delta["grid_calls"] == 1
