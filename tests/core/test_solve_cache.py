"""The one solve memo: SolveCache semantics and ITDR integration.

The process-wide memo (:mod:`repro.core.solvecache`) must guarantee: one
physics solve per distinct electrical state per process, correct
hit/miss/eviction accounting (hits = solves avoided, misses = solves
performed), and telemetry exposure of both the live process counters and
the worker deltas a fleet dispatch ships home.
"""

import dataclasses

import numpy as np
import pytest

from repro.core import SolveCache, process_solve_cache
from repro.core.config import prototype_itdr, prototype_itdr_config
from repro.core.itdr import ITDR
from repro.core.runtime import Telemetry


@pytest.fixture(autouse=True)
def fresh_process_cache():
    """Each test sees an empty process memo with zeroed counters."""
    process_solve_cache().clear()
    yield
    process_solve_cache().clear()


class TestSolveCacheUnit:
    def test_rejects_non_positive_capacity(self):
        with pytest.raises(ValueError):
            SolveCache(capacity=0)

    def test_miss_then_hit_counting(self):
        cache = SolveCache(capacity=4)
        assert cache.get("a") is None
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.stats() == {
            "hits": 1, "misses": 1, "evictions": 0,
            "entries": 1, "capacity": 4,
        }

    def test_lru_eviction_order_and_counter(self):
        cache = SolveCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh "a" — "b" is now least recent
        cache.put("c", 3)
        assert "b" not in cache
        assert "a" in cache and "c" in cache
        assert cache.stats()["evictions"] == 1

    def test_put_refreshes_existing_key_without_growth(self):
        cache = SolveCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)  # re-put refreshes recency, no eviction
        cache.put("c", 3)
        assert "a" in cache and "c" in cache and "b" not in cache
        assert cache.get("a") == 10

    def test_clear_drops_entries_and_counters(self):
        cache = SolveCache()
        cache.put("a", 1)
        cache.get("a")
        cache.get("zzz")
        cache.clear()
        assert len(cache) == 0
        assert cache.stats() == {
            "hits": 0, "misses": 0, "evictions": 0,
            "entries": 0, "capacity": cache.capacity,
        }

    def test_default_capacity_holds_a_sharded_benchmark_fleet(self):
        """4096 entries hold every state of a 4096-bus fleet on 2 shards
        (about 2,176 per worker), so warm re-scans never thrash."""
        assert SolveCache().capacity == 4096
        assert process_solve_cache().capacity == 4096

    def test_process_cache_is_a_stable_singleton(self):
        assert process_solve_cache() is process_solve_cache()
        assert isinstance(process_solve_cache(), SolveCache)


class TestITDRIntegration:
    def test_process_memo_holds_every_solve(self, factory):
        itdr = prototype_itdr(rng=np.random.default_rng(0))
        lines = factory.manufacture_batch(3, first_seed=900)
        waves = [itdr.true_reflection(line) for line in lines]
        assert len(process_solve_cache()) == 3
        # Revisiting the first state is a memo hit, not a re-solve.
        assert itdr.true_reflection(lines[0]) is waves[0]
        assert process_solve_cache().stats()["misses"] == 3

    def test_one_solve_per_state_counters(self, line):
        itdr = prototype_itdr(rng=np.random.default_rng(1))
        first = itdr.true_reflection(line)
        again = itdr.true_reflection(line)
        assert again is first  # the memo returns the identical object
        stats = process_solve_cache().stats()
        assert stats["misses"] == 1  # one physics solve performed
        assert stats["hits"] == 1    # one solve avoided
        assert stats["entries"] == 1

    def test_identical_itdrs_share_the_l2(self, line):
        a = prototype_itdr(rng=np.random.default_rng(2))
        b = prototype_itdr(rng=np.random.default_rng(3))
        wave_a = a.true_reflection(line)
        wave_b = b.true_reflection(line)
        assert wave_b is wave_a  # a's memo entry, not a re-solve
        stats = process_solve_cache().stats()
        assert stats["misses"] == 1
        assert stats["hits"] == 1  # b's lookup hit a's solve

    def test_differing_solve_inputs_never_collide(self, line):
        base = prototype_itdr_config()
        a = ITDR(base, rng=np.random.default_rng(4))
        b = ITDR(
            dataclasses.replace(base, coupling=base.coupling * 0.5),
            rng=np.random.default_rng(5),
        )
        wave_a = a.true_reflection(line)
        wave_b = b.true_reflection(line)
        assert wave_b is not wave_a
        assert not np.array_equal(wave_a.samples, wave_b.samples)
        assert process_solve_cache().stats()["misses"] == 2

    def test_engines_are_keyed_separately(self, line):
        itdr = prototype_itdr(rng=np.random.default_rng(6))
        itdr.true_reflection(line, engine="born")
        itdr.true_reflection(line, engine="lattice")
        assert process_solve_cache().stats()["misses"] == 2


class TestTelemetryExposure:
    def test_snapshot_reports_live_process_counters(self, line):
        itdr = prototype_itdr(rng=np.random.default_rng(7))
        itdr.true_reflection(line)
        itdr.true_reflection(line)
        cache = Telemetry().snapshot()["health"]["solve_cache"]
        assert cache["process"]["misses"] == 1
        assert cache["process"]["hits"] == 1
        assert cache["workers"] == {"hits": 0, "misses": 0, "evictions": 0}

    def test_record_cache_accumulates_worker_deltas(self):
        telemetry = Telemetry()
        telemetry.record_cache({"hits": 3, "misses": 1})
        telemetry.record_cache({"hits": 2, "misses": 0, "evictions": 4})
        workers = telemetry.snapshot()["health"]["solve_cache"]["workers"]
        assert workers == {"hits": 5, "misses": 1, "evictions": 4}
