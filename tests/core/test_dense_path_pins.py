"""Fixed-seed digests of the dense capture path.

The dense estimator (``ITDR._estimate_batch``) serves the captures the
fused kernel cannot take: PLL jitter, EMI interference and per-capture
``z_batch`` line states.  No oracle mirrors it, so these sha256 digests
of the float64 estimate bytes pin its bits — draw order, trial split
over the reference ladder, count-to-volt inversion — on a PDM and on a
bare-APC (``use_pdm=False``) iTDR.  A change that moves them on purpose
(a new draw order, say) records the new digests and lists them in
CHANGES.md.
"""

import hashlib

import numpy as np
import pytest

from repro.core.config import prototype_itdr
from repro.env.emi import nearby_digital_circuit

N_CAPTURES = 3


def _itdr(use_pdm, **overrides):
    return prototype_itdr(
        rng=np.random.default_rng(2024), use_pdm=use_pdm, **overrides
    )


def _jitter(line, use_pdm):
    itdr = _itdr(use_pdm, phase_jitter_rms=2e-12)
    return itdr.capture_stack(line, N_CAPTURES)


def _interference(line, use_pdm):
    itdr = _itdr(use_pdm)
    return itdr.capture_stack(
        line, N_CAPTURES, interference=nearby_digital_circuit()
    )


def _z_batch(line, use_pdm):
    profile = line.full_profile
    ripple = np.sin(np.arange(profile.n_segments))
    z = np.stack([profile.z * (1 + 0.01 * k * ripple) for k in range(N_CAPTURES)])
    tau = np.tile(profile.tau, (N_CAPTURES, 1))
    return _itdr(use_pdm).capture_batch(
        line, N_CAPTURES, z_batch=z, tau_batch=tau
    )


PATHS = {"jitter": _jitter, "interference": _interference, "z_batch": _z_batch}

DIGESTS = {
    ("interference", True): "0ef9bd2d82425c135a1a7d2a9c3b6933ad5d20f5ebef8120754b7087a79e1b94",
    ("interference", False): "06aab649df202fc19d07a86141f7947f1442ff61e45161e147551dc84fffc3d5",
    ("jitter", True): "aaa00e27a677481b0005b441ab9413569c82c8a6527475af4ba4cfb848673014",
    ("jitter", False): "d0786efcfc8f6e208ec6a6b8ffa97416b12fc6b80c52d20a09b5f8e2a8a00077",
    ("z_batch", True): "6a408893567ccefd5c8382b092f84af44015b446b1cb0797c70c62c35572a64c",
    ("z_batch", False): "6ec7c439c03c450cb836cb92c17879eb56678417a20cf344426e6f7c28232613",
}


@pytest.mark.parametrize("use_pdm", [True, False], ids=["pdm", "apc"])
@pytest.mark.parametrize("path", sorted(PATHS))
def test_dense_path_bits_are_pinned(line, path, use_pdm):
    est = PATHS[path](line, use_pdm)
    assert est.dtype == np.float64
    assert est.shape[0] == N_CAPTURES
    digest = hashlib.sha256(est.tobytes()).hexdigest()
    assert digest == DIGESTS[path, use_pdm]
