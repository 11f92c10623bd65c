"""Shared fixtures: the prototype setup every test group reuses.

Fixtures are seeded so the whole suite is deterministic; expensive objects
(manufactured lines, enrolled fingerprints) are session-scoped.
"""

import numpy as np
import pytest

from repro.core.config import prototype_itdr, prototype_line_factory
from repro.core.fingerprint import Fingerprint


@pytest.fixture
def rng():
    """A fresh deterministic generator per test."""
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def factory():
    """The prototype PCB manufacturing model (bare terminated lines)."""
    return prototype_line_factory()


@pytest.fixture(scope="session")
def factory_with_receiver():
    """Manufacturing model for populated lines (receiver chip attached)."""
    return prototype_line_factory(attach_receiver=True)


@pytest.fixture(scope="session")
def line(factory):
    """One manufactured prototype line."""
    return factory.manufacture(seed=1)


@pytest.fixture(scope="session")
def other_line(factory):
    """A second, physically different line (impostor source)."""
    return factory.manufacture(seed=2)


@pytest.fixture(scope="session")
def populated_line(factory_with_receiver):
    """A line with a receiver package at the far end."""
    return factory_with_receiver.manufacture(seed=1)


@pytest.fixture
def itdr():
    """A freshly seeded prototype iTDR."""
    return prototype_itdr(rng=np.random.default_rng(99))


@pytest.fixture(scope="session")
def enrolled_fingerprint(line):
    """A well-averaged fingerprint of the session line."""
    session_itdr = prototype_itdr(rng=np.random.default_rng(7))
    captures = [session_itdr.capture(line) for _ in range(32)]
    return Fingerprint.from_captures(captures)
