"""Unit tests for the unified monitoring runtime.

Cadence arithmetic (trigger rollover, idle-fill bounds, round-robin
latency growth), event-log detection-latency edge cases, telemetry
snapshot shape, and the runtime's sink fan-out — all cheap, no physics.
"""

import pytest

from repro.core.divot import Action
from repro.core.runtime import (
    EventLog,
    MonitorEvent,
    MonitorRuntime,
    PeriodicCadence,
    RoundRobinCadence,
    Telemetry,
    TriggerBudgetCadence,
)


def event(t, side="tx", action=Action.PROCEED, score=0.95, bus=None,
          tampered=False, location_m=None):
    return MonitorEvent(
        time_s=t, side=side, action=action, score=score,
        tampered=tampered, location_m=location_m, bus=bus,
    )


class TestPeriodicCadence:
    def test_fires_on_every_crossed_boundary(self):
        cadence = PeriodicCadence(1.0)
        assert list(cadence.due(0.5)) == []
        assert list(cadence.due(3.2)) == [1.0, 2.0, 3.0]
        assert cadence.checks_run == 3
        assert list(cadence.due(3.9)) == []
        assert list(cadence.due(4.0)) == [4.0]

    def test_cost_accounting(self):
        cadence = PeriodicCadence(1.0, cost_triggers=10)
        list(cadence.due(2.0))
        assert cadence.triggers_consumed == 20
        cadence.force(5.0)
        assert cadence.checks_run == 3
        assert cadence.triggers_consumed == 30

    def test_force_keeps_phase(self):
        cadence = PeriodicCadence(1.0)
        assert cadence.force(0.0) == 0.0
        assert list(cadence.due(1.0)) == [1.0]

    def test_from_budget_matches_inline_arithmetic(self, line, itdr):
        cadence = PeriodicCadence.from_budget(itdr, line, 16)
        budget = itdr.budget(itdr.record_length(line))
        assert cadence.period_s == pytest.approx(budget.duration_s * 16)
        assert cadence.cost_triggers == budget.n_triggers * 16

    def test_validation(self):
        with pytest.raises(ValueError):
            PeriodicCadence(0.0)
        with pytest.raises(ValueError):
            PeriodicCadence(1.0, cost_triggers=-1)


class TestTriggerBudgetCadence:
    def test_rollover_across_frames(self):
        """Partial budgets bank across feeds — never discarded."""
        cadence = TriggerBudgetCadence(100)
        cadence.feed(60)
        assert list(cadence.due(1.0)) == []
        cadence.feed(60)  # 120 banked: one check, 20 roll over
        assert list(cadence.due(2.0)) == [2.0]
        assert cadence.pool == 20
        cadence.feed(80)
        assert list(cadence.due(3.0)) == [3.0]
        assert cadence.pool == 0
        assert cadence.checks_run == 2
        assert cadence.triggers_consumed == 200

    def test_rich_burst_fires_multiple_checks(self):
        cadence = TriggerBudgetCadence(10)
        cadence.feed(35)
        assert list(cadence.due(1.0)) == [1.0, 1.0, 1.0]
        assert cadence.pool == 5

    def test_idle_fill_reaches_one_budget(self):
        cadence = TriggerBudgetCadence(100)
        cadence.feed(30)
        t = cadence.idle_fill(1.0, idle_triggers=25, idle_duration_s=0.1,
                              max_idle_s=10.0)
        # 30 + 3*25 = 105 >= 100 after three idle records.
        assert t == pytest.approx(1.3)
        assert cadence.pool == 105
        assert list(cadence.due(t)) == [t]

    def test_idle_fill_bounded_by_max_idle(self):
        cadence = TriggerBudgetCadence(1000)
        t = cadence.idle_fill(0.0, idle_triggers=1, idle_duration_s=0.1,
                              max_idle_s=0.25)
        # Bound crossed after three records (0.0, 0.1, 0.2 all < 0.25).
        assert t == pytest.approx(0.3)
        assert cadence.pool == 3
        assert list(cadence.due(t)) == []  # genuinely starved

    def test_force_consumes_banked_pool(self):
        """The out-of-band late-attack check is never free: it drains
        whatever the pool can contribute, up to one budget."""
        cadence = TriggerBudgetCadence(100)
        cadence.feed(70)
        cadence.force(5.0)
        assert cadence.pool == 0
        assert cadence.triggers_consumed == 70
        assert cadence.checks_run == 1
        cadence.feed(250)
        cadence.force(6.0)
        assert cadence.pool == 150  # capped at one budget
        assert cadence.triggers_consumed == 170

    def test_validation(self):
        with pytest.raises(ValueError):
            TriggerBudgetCadence(0)
        cadence = TriggerBudgetCadence(10)
        with pytest.raises(ValueError):
            cadence.feed(-1)
        with pytest.raises(ValueError):
            cadence.idle_fill(0.0, 0, 0.1, 1.0)
        with pytest.raises(ValueError):
            cadence.idle_fill(0.0, 1, 0.0, 1.0)


class TestRoundRobinCadence:
    def test_worst_case_latency_grows_linearly_with_bus_count(self):
        cadence = RoundRobinCadence(2.0)
        latencies = [cadence.worst_case_latency_s(n) for n in (1, 2, 4, 8)]
        assert latencies == [2.0, 4.0, 8.0, 16.0]
        assert cadence.scan_period_s(3) == pytest.approx(6.0)

    def test_visits_advance_the_datapath_clock(self):
        cadence = RoundRobinCadence(1.0, cost_triggers=5)
        first = list(cadence.visits(["a", "b", "c"]))
        assert first == [("a", 1.0), ("b", 2.0), ("c", 3.0)]
        second = list(cadence.visits(["a", "b", "c"]))
        assert second[0] == ("a", 4.0)  # clock persists across scans
        assert cadence.checks_run == 6
        assert cadence.triggers_consumed == 30

    def test_validation(self):
        with pytest.raises(ValueError):
            RoundRobinCadence(0.0)
        with pytest.raises(ValueError):
            RoundRobinCadence(1.0).scan_period_s(0)


class TestEventLogDetectionLatency:
    def test_alert_exactly_at_onset_is_zero_latency(self):
        log = EventLog([event(2.0, action=Action.ALERT)])
        assert log.detection_latency(2.0) == pytest.approx(0.0)

    def test_no_alert_returns_none(self):
        log = EventLog([event(1.0), event(2.0)])
        assert log.detection_latency(0.5) is None
        assert log.first_alert_time() is None

    def test_pre_onset_alert_ignored(self):
        log = EventLog([
            event(1.0, action=Action.ALERT),   # false positive before onset
            event(3.0, action=Action.BLOCK),
        ])
        assert log.detection_latency(2.0) == pytest.approx(1.0)
        assert log.first_alert_time() == pytest.approx(1.0)

    def test_side_and_bus_filters(self):
        log = EventLog([
            event(1.0, side="cpu", action=Action.ALERT),
            event(2.0, side="module", action=Action.BLOCK, bus="ddr0"),
        ])
        assert log.detection_latency(0.0, side="module") == pytest.approx(2.0)
        assert log.detection_latency(0.0, bus="ddr0") == pytest.approx(2.0)
        assert log.detection_latency(0.0, side="rx") is None
        assert len(log.alerts()) == 2
        assert [e.side for e in log.filter(side="cpu")] == ["cpu"]

    def test_container_behaviour(self):
        log = EventLog()
        log.emit(event(1.0))
        log.extend([event(2.0), event(3.0)])
        assert len(log) == 3
        assert log[0].time_s == 1.0
        assert [e.time_s for e in log] == [1.0, 2.0, 3.0]


class _StubAuth:
    def __init__(self, score):
        self.score = score


class _StubTamper:
    def __init__(self, tampered, location_m=None):
        self.tampered = tampered
        self.location_m = location_m
        self.peak_error = 0.0


class _StubResult:
    def __init__(self, action, score=0.9, tampered=False):
        self.action = action
        self.auth = _StubAuth(score)
        self.tamper = _StubTamper(tampered)


class _StubEndpoint:
    """Duck-typed endpoint: returns scripted results, records calls.

    It has no ``monitor_capture``: the runtime measures every bundle,
    one lane or many, through ``monitor_multi``.
    """

    name = "stub"

    def __init__(self, results):
        self.results = list(results)
        self.calls = []

    def monitor_multi(self, lines, modifiers=(), modifiers_by_lane=None,
                      interference=None, engine="born"):
        self.calls.append(("multi", tuple(lines), tuple(modifiers)))
        return self.results.pop(0)


class _Timeline:
    def __init__(self, onset, attack="attack"):
        self.onset = onset
        self.attack = attack

    def active_at(self, t):
        return (self.attack,) if t >= self.onset else ()


class TestMonitorRuntime:
    def test_events_fan_out_to_all_sinks(self):
        telemetry = Telemetry()
        extra = EventLog()
        runtime = MonitorRuntime(telemetry=telemetry, sinks=[extra])
        endpoint = _StubEndpoint([_StubResult(Action.PROCEED)])
        result = runtime.check(endpoint, 1.0, ["lane"], side="tx")
        assert result.action is Action.PROCEED
        assert len(runtime.log) == len(telemetry.log) == len(extra) == 1
        assert runtime.log[0] is telemetry.log[0] is extra[0]

    def test_single_vs_multi_lane_dispatch(self):
        """One ``monitor_multi`` call per check, a one-lane bundle too."""
        endpoint = _StubEndpoint(
            [_StubResult(Action.PROCEED), _StubResult(Action.PROCEED)]
        )
        runtime = MonitorRuntime()
        runtime.check(endpoint, 0.0, ["a"])
        runtime.check(endpoint, 0.0, ["a", "b"])
        assert [call[:2] for call in endpoint.calls] == [
            ("multi", ("a",)),
            ("multi", ("a", "b")),
        ]

    def test_timeline_resolved_at_check_instant(self):
        endpoint = _StubEndpoint(
            [_StubResult(Action.PROCEED), _StubResult(Action.ALERT)]
        )
        runtime = MonitorRuntime()
        timeline = _Timeline(onset=5.0)
        runtime.check(endpoint, 4.0, ["a"], timeline=timeline)
        runtime.check(endpoint, 6.0, ["a"], timeline=timeline)
        assert endpoint.calls[0][2] == ()
        assert endpoint.calls[1][2] == ("attack",)

    def test_side_defaults_to_endpoint_name(self):
        endpoint = _StubEndpoint([_StubResult(Action.PROCEED)])
        runtime = MonitorRuntime()
        runtime.check(endpoint, 0.0, ["a"])
        assert runtime.log[0].side == "stub"

    def test_finish_folds_cadence_deltas_once(self):
        telemetry = Telemetry()
        cadence = PeriodicCadence(1.0, cost_triggers=7)
        runtime = MonitorRuntime(cadence, telemetry=telemetry)
        list(cadence.due(2.0))
        runtime.finish()
        runtime.finish()  # idempotent: no double counting
        assert telemetry.snapshot()["cadence"] == {
            "checks_run": 2, "triggers_consumed": 14,
        }
        list(cadence.due(3.0))
        runtime.finish()
        assert telemetry.snapshot()["cadence"]["checks_run"] == 3

    def test_validation(self):
        runtime = MonitorRuntime()
        with pytest.raises(ValueError):
            runtime.check(_StubEndpoint([]), 0.0, [])
        with pytest.raises(TypeError):
            runtime.add_sink(object())


class TestTelemetrySnapshot:
    def _loaded(self):
        telemetry = Telemetry()
        telemetry.emit(event(1.0, side="cpu", score=0.96))
        telemetry.emit(event(1.0, side="module", score=0.94, bus="ddr0"))
        telemetry.emit(
            event(2.0, side="module", action=Action.BLOCK, score=0.41,
                  bus="ddr0")
        )
        telemetry.emit(
            event(3.0, side="cpu", action=Action.ALERT, score=0.92,
                  tampered=True)
        )
        return telemetry

    def test_per_endpoint_counters(self):
        snap = self._loaded().snapshot()
        cpu = snap["endpoints"]["cpu"]
        assert cpu["checks"] == 2
        assert cpu["alerts"] == 1
        assert cpu["blocks"] == 0
        assert cpu["flagged"] == 1
        assert cpu["tampered"] == 1
        module = snap["endpoints"]["module"]
        assert module["blocks"] == 1
        assert snap["totals"]["checks"] == 4
        assert snap["totals"]["flagged"] == 2

    def test_bus_cells_present_for_multi_bus_events(self):
        snap = self._loaded().snapshot()
        assert snap["buses"]["ddr0"]["checks"] == 2
        assert snap["buses"]["ddr0"]["blocks"] == 1

    def test_score_histogram_sums_to_checks(self):
        snap = self._loaded().snapshot()
        for cell in [*snap["endpoints"].values(), snap["totals"]]:
            assert sum(cell["score"]["hist"]) == cell["checks"]
            assert len(cell["score"]["bin_edges"]) == \
                len(cell["score"]["hist"]) + 1

    def test_detection_summary(self):
        snap = self._loaded().snapshot(onset_s=1.5)
        assert snap["detection"]["onset_s"] == 1.5
        assert snap["detection"]["latency_s"] == pytest.approx(0.5)
        assert snap["detection"]["per_side"]["module"] == pytest.approx(0.5)
        assert snap["detection"]["per_side"]["cpu"] == pytest.approx(1.5)
        assert snap["detection"]["first_alert_s"] == pytest.approx(2.0)

    def test_empty_snapshot_has_full_shape(self):
        snap = Telemetry().snapshot()
        assert snap["endpoints"] == {}
        assert snap["buses"] == {}
        assert snap["totals"]["checks"] == 0
        assert snap["totals"]["score"]["mean"] is None
        assert snap["detection"]["latency_s"] is None

    def test_validation(self):
        with pytest.raises(ValueError):
            Telemetry(score_bins=0)
