"""Property pins for the physics engines: batched ≡ scalar, lattice ≈ Born.

Two contracts guard the batched lattice kernel (plus a third for the
fused capture kernel riding on top of either engine):

(a) **Exactness** — :meth:`LatticeEngine.batch_impulse_sequences` is a
    pure vectorisation of the reference scalar loop
    (``tests/oracles.scalar_impulse_sequence``): every batch row is
    *bit-for-bit* the scalar result, for any impedance profile, loss,
    source re-reflection, and load termination.  This is what lets the
    fast kernel replace the loop everywhere without re-pinning a single
    regression baseline.

(b) **Physics** — the exact lattice and the first-order Born engine agree
    up to the neglected multiple scattering.  The residual of a
    first-order model is second order in the reflection coefficients, so
    the discrepancy is bounded by ``(Σ|r_i| + |r_load| + |r_src|)²`` — a
    self-scaling tolerance that stays meaningful whether hypothesis draws
    a near-matched line (bound ~1e-4) or a coherent 2 % staircase
    (bound ~0.25, still far below the O(r) echo amplitudes themselves).

(c) **Capture fusion** — whichever engine renders the reflection, the
    fused count-only capture kernel is bit-for-bit the dense-grid
    estimator (``tests/oracles.grid_capture_stack``).  The kernel only
    changes how comparator counts are materialised, never which physics
    produced the waveform under them.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import prototype_itdr
from repro.txline.profile import ImpedanceProfile
from repro.txline.propagation import BornEngine, LatticeEngine
from tests.oracles import grid_capture_stack, scalar_impulse_sequence

TAU = 11.16e-12

# Per-segment relative impedance perturbations: the |eps| <= 2 % band the
# manufacturing model works in, which also keeps the Born model's
# first-order assumption honest for contract (b).
perturbations = st.lists(
    st.floats(min_value=-0.02, max_value=0.02, allow_nan=False),
    min_size=1,
    max_size=24,
)


def profile_from(eps, z_load_rel, z_src_rel, loss, stretch):
    z = 50.0 * (1.0 + np.asarray(eps))
    return ImpedanceProfile(
        z=z,
        tau=np.full(len(z), TAU * stretch),
        z_source=float(z[0] * (1.0 + z_src_rel)),
        z_load=float(50.0 * (1.0 + z_load_rel)),
        loss_per_segment=loss,
    )


class TestBatchedMatchesScalar:
    """(a): the vectorised kernel is the scalar loop, bit for bit."""

    @given(
        eps=perturbations,
        z_load_rel=st.floats(-0.5, 0.5),
        z_src_rel=st.floats(-0.5, 0.5),
        loss=st.floats(0.9, 1.0),
        stretch=st.floats(0.98, 1.02),
    )
    @settings(max_examples=60, deadline=None)
    def test_single_row_is_bitwise_scalar(
        self, eps, z_load_rel, z_src_rel, loss, stretch
    ):
        p = profile_from(eps, z_load_rel, z_src_rel, loss, stretch)
        engine = LatticeEngine()
        reference = scalar_impulse_sequence(engine, p)
        batched = engine.batch_impulse_sequences(
            p.z[None, :],
            p.tau[None, :],
            p.load_reflection(),
            p.loss_per_segment,
            r_src=p.source_reflection(),
        )
        assert batched.shape == (1, len(reference))
        assert batched[0].tobytes() == reference.samples.tobytes()

    @given(
        rows=st.lists(
            st.tuples(
                perturbations.filter(lambda e: len(e) >= 4),
                st.floats(-0.5, 0.5),
                st.floats(-0.5, 0.5),
            ),
            min_size=2,
            max_size=5,
        ),
        loss=st.floats(0.9, 1.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_every_batch_row_is_bitwise_its_scalar_run(self, rows, loss):
        """Heterogeneous rows (padded to one width) stay independent."""
        s = max(len(eps) for eps, _, _ in rows)
        profiles = [
            profile_from(list(eps) + [0.0] * (s - len(eps)), zl, zs, loss, 1.0)
            for eps, zl, zs in rows
        ]
        engine = LatticeEngine()
        batched = engine.batch_impulse_sequences(
            np.stack([p.z for p in profiles]),
            np.stack([p.tau for p in profiles]),
            np.array([p.load_reflection() for p in profiles]),
            loss,
            r_src=np.array([p.source_reflection() for p in profiles]),
        )
        for row, p in zip(batched, profiles):
            reference = scalar_impulse_sequence(engine, p)
            assert row.tobytes() == reference.samples.tobytes()


class TestLatticeMatchesBorn:
    """(b): exact physics minus first-order physics ≤ second-order bound."""

    @given(
        eps=perturbations,
        z_load_rel=st.floats(-0.05, 0.05),
        loss=st.floats(0.97, 1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_discrepancy_bounded_by_second_order_scattering(
        self, eps, z_load_rel, loss
    ):
        p = profile_from(eps, z_load_rel, 0.0, loss, 1.0)
        n = 2 * p.n_segments + 10
        h_lat = LatticeEngine().impulse_sequence(p, n_steps=n)
        h_born = BornEngine(grid_dt=TAU).impulse_sequence(p, n_out=n)
        bound = (
            np.sum(np.abs(p.reflection_coefficients()))
            + abs(p.load_reflection())
            + abs(p.source_reflection())
        ) ** 2
        # Near-zero reflections push the second-order term below the
        # rounding noise of the first-order samples themselves; a few
        # ULP of the sample scale keeps the bound meaningful there.
        bound += 8 * np.finfo(float).eps * (
            np.max(np.abs(h_lat.samples)) + np.max(np.abs(h_born.samples))
        )
        assert np.max(np.abs(h_lat.samples - h_born.samples)) <= bound

    @given(eps=perturbations, stretch=st.floats(0.99, 1.01))
    @settings(max_examples=30, deadline=None)
    def test_analog_grid_rendering_agrees_too(self, eps, stretch):
        """The grid-rendered lattice (the capture path) matches Born on
        the same analog grid within the same second-order bound."""
        p = profile_from(eps, 0.02, 0.0, 1.0, stretch)
        grid_dt = TAU / 2.0
        n_out = int(np.ceil(2 * p.n_segments * stretch * TAU / grid_dt)) + 8
        h_lat = LatticeEngine(grid_dt=grid_dt).batch_impulse_sequences(
            p.z[None, :],
            p.tau[None, :],
            p.load_reflection(),
            p.loss_per_segment,
            n_out=n_out,
            r_src=p.source_reflection(),
        )
        h_born = BornEngine(grid_dt=grid_dt).batch_impulse_sequences(
            p.z[None, :], p.tau[None, :], p.load_reflection(),
            p.loss_per_segment, n_out=n_out,
        )
        bound = (
            np.sum(np.abs(p.reflection_coefficients()))
            + abs(p.load_reflection())
            + abs(p.source_reflection())
        ) ** 2
        assert h_lat.shape == h_born.shape == (1, n_out)
        assert np.max(np.abs(h_lat - h_born)) <= bound


class TestFusedCaptureMatchesGridOnBothEngines:
    """(c): engine choice and count fusion are orthogonal, bit for bit."""

    @given(
        seed=st.integers(0, 2**31 - 1),
        n_captures=st.integers(1, 12),
        engine=st.sampled_from(["born", "lattice"]),
    )
    @settings(max_examples=16, deadline=None)
    def test_capture_stack_bitwise_equal(self, line, seed, n_captures, engine):
        fused = prototype_itdr(rng=np.random.default_rng(seed))
        grid = prototype_itdr(rng=np.random.default_rng(seed))
        a = fused.capture_stack(line, n_captures, engine=engine)
        b = grid_capture_stack(grid, line, n_captures, engine=engine)
        assert fused.kernel_stats.fused_calls == 1
        assert fused.kernel_stats.grid_calls == 0
        assert a.tobytes() == b.tobytes()

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=6, deadline=None)
    def test_engines_swap_without_stale_tables(self, line, seed):
        """One iTDR alternating engines must rebuild tables per solve key
        — a stale CDF table for the other engine's waveform would break
        byte-identity immediately."""
        fused = prototype_itdr(rng=np.random.default_rng(seed))
        grid = prototype_itdr(rng=np.random.default_rng(seed))
        for engine in ("born", "lattice", "born", "lattice"):
            a = fused.capture_stack(line, 2, engine=engine)
            b = grid_capture_stack(grid, line, 2, engine=engine)
            assert a.tobytes() == b.tobytes()
