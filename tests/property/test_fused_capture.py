"""Property pins for the fused count-only capture kernel.

The fused kernel computes comparator decision counts directly from the
cached reflection response and the per-level binomial CDF tables —
skipping the dense probability-grid render entirely.  Its contract is
**exactness**: a fused ``capture_stack`` is *bit-for-bit* the dense-grid
estimator (``tests/oracles.grid_capture_stack``) for any seed, stack
height, and repetition budget.  The kernel consumes the RNG stream
identically (one uniform block per active reference level, in ascending
level order), so no regression baseline moves.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import prototype_itdr
from tests.oracles import grid_capture_stack


class TestFusedIsBitwiseGrid:
    """Fused ≡ the dense-grid oracle, bit for bit."""

    @given(
        seed=st.integers(0, 2**31 - 1),
        n_captures=st.integers(1, 40),
        repetitions=st.sampled_from([3, 5, 24, 48]),
    )
    @settings(max_examples=25, deadline=None)
    def test_static_stack_bitwise_equal(
        self, line, seed, n_captures, repetitions
    ):
        fused = prototype_itdr(
            rng=np.random.default_rng(seed), repetitions=repetitions
        )
        grid = prototype_itdr(
            rng=np.random.default_rng(seed), repetitions=repetitions
        )
        a = fused.capture_stack(line, n_captures)
        b = grid_capture_stack(grid, line, n_captures)
        assert a.tobytes() == b.tobytes()

    @given(seed=st.integers(0, 2**31 - 1), n_captures=st.integers(1, 16))
    @settings(max_examples=10, deadline=None)
    def test_bare_apc_stack_bitwise_equal(self, line, seed, n_captures):
        """The single-level (no PDM) kernel shares the same stream."""
        fused = prototype_itdr(rng=np.random.default_rng(seed), use_pdm=False)
        grid = prototype_itdr(rng=np.random.default_rng(seed), use_pdm=False)
        a = fused.capture_stack(line, n_captures)
        b = grid_capture_stack(grid, line, n_captures)
        assert a.tobytes() == b.tobytes()

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=8, deadline=None)
    def test_interleaved_lines_share_one_table_cache(
        self, line, other_line, seed
    ):
        """Alternating lines rebuilds the one-entry table memo on every
        call without breaking stream identity with the oracle."""
        fused = prototype_itdr(rng=np.random.default_rng(seed))
        grid = prototype_itdr(rng=np.random.default_rng(seed))
        for target in (line, other_line, line, other_line):
            a = fused.capture_stack(target, 3)
            b = grid_capture_stack(grid, target, 3)
            assert a.tobytes() == b.tobytes()
