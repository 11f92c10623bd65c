"""Benchmark harness configuration.

Each ``bench_*`` module regenerates one paper figure/table (see DESIGN.md
section 4): it runs the corresponding ``repro.experiments`` module, prints
the same rows/series the paper reports, and asserts the shape predicates.
pytest-benchmark times the experiment itself.

Scale: benches default to a reduced-but-meaningful scale so the whole
harness finishes in minutes.  Set ``REPRO_FULL_SCALE=1`` to run the paper's
full 6-lines x 8192-measurements protocol.  Set ``REPRO_BENCH_SMOKE=1``
(the CI smoke step) to shrink workloads further and drop the wall-clock
speedup floors — shared CI runners are too noisy to enforce perf ratios,
but every bench still runs end to end, so an API break or a determinism
regression fails fast in CI while the perf pins stay meaningful on
dedicated hardware.
"""

import json
import os
from pathlib import Path

import pytest

from repro.experiments.common import FULL, ExperimentScale

BENCH_FLEET_JSON = Path(__file__).resolve().parent / "BENCH_fleet.json"
BENCH_PHYSICS_JSON = Path(__file__).resolve().parent / "BENCH_physics.json"
BENCH_IDENTIFY_JSON = Path(__file__).resolve().parent / "BENCH_identify.json"
BENCH_CAMPAIGNS_JSON = Path(__file__).resolve().parent / "BENCH_campaigns.json"

_fleet_results = {}
_physics_results = {}
_identify_results = {}
_campaign_results = {}


def smoke_mode() -> bool:
    """Whether the harness runs as a CI smoke test (tiny sizes, no
    wall-clock floors)."""
    return os.environ.get("REPRO_BENCH_SMOKE") == "1"


@pytest.fixture
def record_fleet_result():
    """Collect one bench's machine-readable row for ``BENCH_fleet.json``.

    The fleet-scan bench calls this with a name and a JSON-serialisable
    dict; everything recorded over the session is written out at exit so
    the scan-throughput trajectory can be tracked across commits.
    """

    def _record(name: str, payload: dict) -> None:
        _fleet_results[name] = payload

    return _record


@pytest.fixture
def record_physics_result():
    """Collect one bench's machine-readable row for ``BENCH_physics.json``.

    The physics-kernel bench records lattice/conv throughput rows here so
    the solver-speed trajectory can be tracked across commits, next to the
    fleet-scan numbers.
    """

    def _record(name: str, payload: dict) -> None:
        _physics_results[name] = payload

    return _record


@pytest.fixture
def record_identify_result():
    """Collect one bench's machine-readable row for ``BENCH_identify.json``.

    The 1:N identification bench records identifications/sec vs store
    size here, so the index-vs-brute-force trajectory can be tracked
    across commits next to the fleet and physics numbers.
    """

    def _record(name: str, payload: dict) -> None:
        _identify_results[name] = payload

    return _record


@pytest.fixture
def record_campaign_result():
    """Collect one bench's machine-readable row for ``BENCH_campaigns.json``.

    The adaptive-campaign bench records rounds/sec and per-protocol
    frontier summaries here, so the attacker-vs-detector trajectory can
    be tracked across commits next to the other bench families.
    """

    def _record(name: str, payload: dict) -> None:
        _campaign_results[name] = payload

    return _record


def pytest_sessionfinish(session, exitstatus):
    if _fleet_results:
        BENCH_FLEET_JSON.write_text(
            json.dumps(_fleet_results, indent=2, sort_keys=True) + "\n"
        )
    if _physics_results:
        BENCH_PHYSICS_JSON.write_text(
            json.dumps(_physics_results, indent=2, sort_keys=True) + "\n"
        )
    if _identify_results:
        BENCH_IDENTIFY_JSON.write_text(
            json.dumps(_identify_results, indent=2, sort_keys=True) + "\n"
        )
    if _campaign_results:
        BENCH_CAMPAIGNS_JSON.write_text(
            json.dumps(_campaign_results, indent=2, sort_keys=True) + "\n"
        )


def harness_scale() -> ExperimentScale:
    """The scale benches run at (env-var switchable to paper scale)."""
    if os.environ.get("REPRO_FULL_SCALE") == "1":
        return FULL
    if smoke_mode():
        return ExperimentScale(n_lines=4, n_measurements=256, n_enroll=8)
    return ExperimentScale(n_lines=6, n_measurements=1024, n_enroll=16)


@pytest.fixture
def scale():
    """Experiment scale fixture shared by the statistical benches."""
    return harness_scale()


def emit(title: str, body: str) -> None:
    """Print a bench's reproduction report (captured into bench output)."""
    bar = "=" * 72
    print(f"\n{bar}\n{title}\n{bar}\n{body}\n")
