"""Coverage-widening tests: config factories, capture details, caching."""

import numpy as np

from repro.core.config import (
    PROTOTYPE_N_LINES,
    PROTOTYPE_N_MEASUREMENTS,
    prototype_itdr,
    prototype_itdr_config,
    prototype_line_factory,
)
from repro.env.emi import nearby_digital_circuit, synchronous_aggressor


class TestConfigFactories:
    def test_paper_constants(self):
        assert PROTOTYPE_N_MEASUREMENTS == 8192
        assert PROTOTYPE_N_LINES == 6

    def test_config_overrides(self):
        config = prototype_itdr_config(repetitions=48, noise_sigma=1e-3)
        assert config.repetitions == 48
        assert config.noise_sigma == 1e-3
        # Untouched fields keep prototype values.
        assert config.clock_frequency == 156.25e6

    def test_itdr_factory_seeding(self, line):
        a = prototype_itdr(rng=np.random.default_rng(5)).capture(line)
        b = prototype_itdr(rng=np.random.default_rng(5)).capture(line)
        assert np.array_equal(a.waveform.samples, b.waveform.samples)

    def test_line_factory_variants(self):
        bare = prototype_line_factory()
        populated = prototype_line_factory(attach_receiver=True)
        assert not bare.attach_receiver
        assert populated.attach_receiver


class TestReflectionCache:
    def test_cache_hit_returns_identical_waveform(self, line, itdr):
        a = itdr.true_reflection(line)
        b = itdr.true_reflection(line)
        assert a is b  # memoised object, not merely equal

    def test_cache_differentiates_modifier_objects(self, line, itdr):
        from repro.attacks import MagneticProbe

        clean = itdr.true_reflection(line)
        probed = itdr.true_reflection(line, [MagneticProbe(0.1)])
        assert not np.array_equal(clean.samples, probed.samples)

    def test_cache_keyed_by_content_not_identity(self, factory, itdr):
        """Two line objects with identical physics share one solve."""
        line_a = factory.manufacture(seed=600)
        line_b = factory.manufacture(seed=600)
        assert line_a is not line_b
        a = itdr.true_reflection(line_a)
        b = itdr.true_reflection(line_b)
        assert a is b  # same content hash -> same memo entry

    def test_capture_noise_independent_despite_cache(self, line, itdr):
        a = itdr.capture(line).waveform.samples
        b = itdr.capture(line).waveform.samples
        assert not np.array_equal(a, b)


class TestInterferenceJitterCombos:
    def test_jitter_with_interference(self, line):
        itdr = prototype_itdr(
            rng=np.random.default_rng(0), phase_jitter_rms=10e-12
        )
        cap = itdr.capture(line, interference=nearby_digital_circuit())
        assert np.isfinite(cap.waveform.samples).all()

    def test_sync_interference_biases_estimate(self, line):
        """A synchronous aggressor shifts the measured waveform; the
        asynchronous one leaves it near the clean estimate."""
        clean_itdr = prototype_itdr(rng=np.random.default_rng(1))
        clean = np.mean(
            [clean_itdr.capture(line).waveform.samples for _ in range(24)],
            axis=0,
        )
        sync_itdr = prototype_itdr(rng=np.random.default_rng(2))
        env = synchronous_aggressor(amplitude=6e-3)
        sync = np.mean(
            [
                sync_itdr.capture(line, interference=env).waveform.samples
                for _ in range(24)
            ],
            axis=0,
        )
        async_itdr = prototype_itdr(rng=np.random.default_rng(3))
        async_env = nearby_digital_circuit(amplitude=6e-3)
        asynchronous = np.mean(
            [
                async_itdr.capture(
                    line, interference=async_env
                ).waveform.samples
                for _ in range(24)
            ],
            axis=0,
        )
        sync_err = np.max(np.abs(sync - clean))
        async_err = np.max(np.abs(asynchronous - clean))
        assert async_err < sync_err


class TestEndpointAlertLog:
    def test_alert_log_grows_only_on_non_proceed(self, line, other_line):
        from repro.core.auth import Authenticator
        from repro.core.divot import DivotEndpoint
        from repro.core.tamper import TamperDetector
        from repro.txline.line import TransmissionLine

        endpoint = DivotEndpoint(
            "log-test",
            prototype_itdr(rng=np.random.default_rng(0)),
            # Averaged checks separate cleanly: genuine ~0.97 vs impostor
            # ~0.85, so 0.92 rejects the foreign line and passes the own.
            Authenticator(0.92),
            TamperDetector(threshold=1.0),
            captures_per_check=8,
        )
        endpoint.calibrate(line, n_captures=4)
        for _ in range(3):
            endpoint.monitor_capture(line)
        assert endpoint.alert_log == []
        foreign = TransmissionLine(
            name=line.name,
            board_profile=other_line.board_profile,
            material=other_line.material,
        )
        endpoint.monitor_capture(foreign)
        assert len(endpoint.alert_log) == 1
