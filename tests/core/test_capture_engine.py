"""The unified batch capture engine: equivalence, caching, and API fixes.

Every capture path — single, averaged, calibration, monitoring, multi-lane
— routes through ``ITDR.capture_stack``.  These tests pin the contract that
made the unification safe:

* batched and looped paths are *statistically identical* under a fixed
  seed discipline (same moments, not same draws);
* the reflection cache keys on the content of the resolved electrical
  state, so in-place mutation is always detected, and evicts LRU;
* ``engine`` and ``interference`` reach the physics from every public
  entry point (they were silently dropped or missing before).
"""

import numpy as np
import pytest

from repro.attacks import WireTap
from repro.core.auth import Authenticator
from repro.core.config import prototype_itdr
from repro.core.divot import DivotEndpoint
from repro.core.itdr import ITDR
from repro.core.tamper import TamperDetector
from repro.env.emi import nearby_digital_circuit
from repro.txline.materials import FR4


def make_endpoint(seed=0, threshold=0.85):
    itdr = prototype_itdr(rng=np.random.default_rng(seed))
    return DivotEndpoint(
        "engine-test",
        itdr,
        Authenticator(threshold),
        TamperDetector(
            threshold=1.0,
            velocity=FR4.velocity_at(FR4.t_ref_c),
            smooth_window=7,
            alignment_offset_s=itdr.probe_edge().duration,
        ),
        captures_per_check=4,
    )


class TestLoopBatchEquivalence:
    """Same seed discipline -> same distribution moments within tolerance."""

    def test_stack_rows_match_single_capture_moments(self, line):
        itdr_loop = prototype_itdr(rng=np.random.default_rng(21))
        itdr_batch = prototype_itdr(rng=np.random.default_rng(22))
        true = itdr_loop.true_reflection(line).samples
        loop = np.stack(
            [itdr_loop.capture(line).waveform.samples for _ in range(200)]
        )
        batch = itdr_batch.capture_stack(line, 200)
        assert batch.shape == loop.shape
        # First and second moments of the estimation error agree.
        assert np.mean(batch - true) == pytest.approx(
            np.mean(loop - true), abs=2e-4
        )
        assert np.std(batch - true) == pytest.approx(
            np.std(loop - true), rel=0.1
        )

    def test_averaged_capture_matches_loop_average(self, line):
        """capture_averaged == mean of independent captures, statistically."""
        itdr_loop = prototype_itdr(rng=np.random.default_rng(23))
        itdr_batch = prototype_itdr(rng=np.random.default_rng(24))
        true = itdr_loop.true_reflection(line).samples
        loop_avg = np.stack(
            [
                np.mean(
                    [
                        itdr_loop.capture(line).waveform.samples
                        for _ in range(8)
                    ],
                    axis=0,
                )
                for _ in range(30)
            ]
        )
        batch_avg = np.stack(
            [
                itdr_batch.capture_averaged(line, 8).waveform.samples
                for _ in range(30)
            ]
        )
        assert np.std(batch_avg - true) == pytest.approx(
            np.std(loop_avg - true), rel=0.15
        )

    def test_averaged_with_interference_matches_loop(self, line):
        itdr_loop = prototype_itdr(rng=np.random.default_rng(25))
        itdr_batch = prototype_itdr(rng=np.random.default_rng(26))
        env = nearby_digital_circuit(amplitude=5e-3)
        true = itdr_loop.true_reflection(line).samples
        loop = np.stack(
            [
                itdr_loop.capture(line, interference=env).waveform.samples
                for _ in range(100)
            ]
        )
        batch = itdr_batch.capture_stack(line, 100, interference=env)
        assert np.mean(batch - true) == pytest.approx(
            np.mean(loop - true), abs=4e-4
        )
        assert np.std(batch - true) == pytest.approx(
            np.std(loop - true), rel=0.15
        )

    def test_jitter_drawn_per_capture_row(self, line):
        """Each batch row gets its own jitter residual, like the loop did."""
        itdr = prototype_itdr(
            rng=np.random.default_rng(27), phase_jitter_rms=10e-12
        )
        stack = itdr.capture_stack(line, 4)
        assert not np.array_equal(stack[0], stack[1])

    def test_capture_batch_interference_supported(self, line, itdr):
        est = itdr.capture_batch(
            line, 8, interference=nearby_digital_circuit()
        )
        assert est.shape == (8, itdr.record_length(line))
        assert np.isfinite(est).all()

    def test_bare_apc_stack_with_interference(self, line):
        itdr = prototype_itdr(rng=np.random.default_rng(28), use_pdm=False)
        est = itdr.capture_stack(
            line, 8, interference=nearby_digital_circuit()
        )
        assert np.isfinite(est).all()


class TestEngineThreading:
    """The engine argument reaches the physics from every entry point."""

    def test_capture_averaged_accepts_engine(self, line, itdr):
        cap = itdr.capture_averaged(line, 2, engine="born")
        assert len(cap.waveform) == itdr.record_length(line)

    def test_capture_averaged_rejects_unknown_engine(self, line, itdr):
        with pytest.raises(ValueError):
            itdr.capture_averaged(line, 2, engine="no-such-engine")

    def test_calibrate_threads_engine(self, line):
        with pytest.raises(ValueError):
            make_endpoint().calibrate(line, n_captures=2, engine="bogus")

    def test_monitor_capture_threads_engine(self, line):
        ep = make_endpoint()
        ep.calibrate(line, n_captures=2)
        with pytest.raises(ValueError):
            ep.monitor_capture(line, engine="bogus")

    def test_monitor_multi_threads_engine(self, line):
        ep = make_endpoint()
        ep.calibrate_many([line], n_captures=2)
        with pytest.raises(ValueError):
            ep.monitor_multi([line], engine="bogus")

    def test_capture_stack_threads_engine(self, line, itdr):
        with pytest.raises(ValueError):
            itdr.capture_stack(line, 2, engine="bogus")


class TestMonitorInterference:
    def test_monitor_multi_accepts_interference(self, line):
        ep = make_endpoint(threshold=0.5)
        ep.calibrate_many([line], n_captures=4)
        result = ep.monitor_multi(
            [line], interference=nearby_digital_circuit()
        )
        assert result.capture is not None

    def test_monitor_capture_interference_still_works(self, line):
        ep = make_endpoint(threshold=0.5)
        ep.calibrate(line, n_captures=4)
        result = ep.monitor_capture(
            line, interference=nearby_digital_circuit()
        )
        assert result.capture is not None


class TestSharedDefaultConfig:
    """Regression: default-constructed instruments must not share state."""

    def test_default_configs_are_per_instance(self):
        a = ITDR()
        b = ITDR()
        assert a.config is not b.config
        assert a.config.trigger is not b.config.trigger

    def test_explicit_config_still_honoured(self):
        from repro.core.itdr import ITDRConfig

        config = ITDRConfig(repetitions=48)
        assert ITDR(config).config is config


class TestContentHashCache:
    def test_in_place_mutation_invalidates(self, factory):
        """Mutating a line's profile arrays must trigger a fresh solve."""
        itdr = prototype_itdr(rng=np.random.default_rng(30))
        line = factory.manufacture(seed=700)
        before = itdr.true_reflection(line).samples.copy()
        line.board_profile.z[:] *= 1.05  # in-place tamper with the copper
        after = itdr.true_reflection(line).samples
        assert not np.allclose(before, after)

    def test_modifier_mutation_invalidates(self, factory):
        itdr = prototype_itdr(rng=np.random.default_rng(31))
        line = factory.manufacture(seed=701)
        tap = WireTap(0.12)
        before = itdr.true_reflection(line, [tap]).samples.copy()
        tap.position_m = 0.02  # move the tap without making a new object
        after = itdr.true_reflection(line, [tap]).samples
        assert not np.allclose(before, after)

    def test_equal_content_hits_across_objects(self, factory):
        itdr = prototype_itdr(rng=np.random.default_rng(32))
        a = factory.manufacture(seed=702)
        b = factory.manufacture(seed=702)
        assert itdr.true_reflection(a) is itdr.true_reflection(b)

    def test_profile_content_hash_contract(self, factory):
        p = factory.manufacture(seed=720).full_profile
        q = factory.manufacture(seed=720).full_profile
        r = factory.manufacture(seed=721).full_profile
        assert p.content_hash() == q.content_hash()
        assert p.content_hash() != r.content_hash()
        assert p.with_load(60.0).content_hash() != p.content_hash()
