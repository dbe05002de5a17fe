"""PipelineServer lifecycle: admission, queue retry, drain, close-out."""

import threading

import pytest

from repro.apps.synthetic import build_synthetic_application
from repro.errors import ServeError
from repro.serve import (
    COMPLETED,
    FAILED,
    REJECTED,
    DriftSpec,
    PipelineServer,
    ServerConfig,
    SoakScenario,
    TenantSpec,
    build_soak_server,
)


def make_app(seed):
    return build_synthetic_application(seed=seed, stage_count=3)


def _watchdog_threads():
    return {thread for thread in threading.enumerate()
            if thread.name == "watchdog"}


def make_server(platform, **config_kwargs):
    config_kwargs.setdefault("max_ticks", 16)
    config_kwargs.setdefault("profiling_repetitions", 2)
    return PipelineServer(
        platform, seed=7, config=ServerConfig(**config_kwargs)
    )


class TestDriftSpec:
    def test_negative_start_rejected(self):
        with pytest.raises(ServeError, match="start_tick"):
            DriftSpec(start_tick=-1)

    def test_end_must_follow_start(self):
        with pytest.raises(ServeError, match="end_tick"):
            DriftSpec(start_tick=3, end_tick=3)

    def test_active_window(self):
        drift = DriftSpec(start_tick=2, end_tick=4,
                          busy={"big": 0.5})
        assert [drift.active_at(t) for t in range(5)] == [
            False, False, True, True, False
        ]

    def test_open_ended_drift(self):
        drift = DriftSpec(start_tick=2)
        assert drift.active_at(10_000)


class TestValidation:
    def test_config_needs_a_tick(self):
        with pytest.raises(ServeError, match="max_ticks"):
            ServerConfig(max_ticks=0)

    def test_duplicate_name_rejected(self, platform):
        server = make_server(platform)
        server.submit(TenantSpec(name="a", application=make_app(1)))
        with pytest.raises(ServeError, match="already submitted"):
            server.submit(TenantSpec(name="a",
                                     application=make_app(2)))

    def test_drift_between_steps_accepted(self, platform):
        server = make_server(platform)
        server.submit(TenantSpec(name="a", application=make_app(1),
                                 windows=3))
        server.open_stepped()
        server.step(0)
        server.inject_drift(DriftSpec(start_tick=1, busy={"big": 0.9}))
        server.step(1)
        report = server.close_stepped()
        windows = server.records["a"].history
        assert windows[0].external_busy_classes == []
        assert windows[1].external_busy_classes == ["big"]
        assert report.tenants["a"].windows_served == 2

    def test_second_run_rejected(self, platform):
        server = make_server(platform)
        server.run(timeout_s=120.0)
        with pytest.raises(ServeError, match="already started"):
            server.run(timeout_s=120.0)
        with pytest.raises(ServeError, match="already started"):
            server.open_stepped()

    def test_timed_out_run_is_closed_out_without_leaking_the_watchdog(
        self,
    ):
        before = _watchdog_threads()
        server = build_soak_server(SoakScenario(windows=40))
        # A zero budget expires after the first tick, deterministically.
        with pytest.raises(ServeError, match="did not drain within"):
            server.run(timeout_s=0.0)
        assert _watchdog_threads() <= before
        assert server.ticks_executed == 1
        assert server.records
        assert all(record.done for record in server.records.values())

    def test_wedged_tick_is_cancelled_by_the_watchdog(
        self, platform, monkeypatch,
    ):
        def wedge(self, tick):
            self._heartbeat.sleep(60.0)  # returns early only if cancelled

        monkeypatch.setattr(PipelineServer, "_serve_windows", wedge)
        server = make_server(platform, stall_timeout_s=0.05)
        server.submit(TenantSpec(name="a", application=make_app(1)))
        with pytest.raises(ServeError,
                           match="serve loop aborted: .*watchdog"):
            server.run(timeout_s=120.0)
        record = server.records["a"]
        assert record.status == FAILED
        assert "cancelled by the watchdog" in record.status_detail

    def test_submit_after_drain_rejected(self, platform):
        server = make_server(platform)
        server.submit(TenantSpec(name="a", application=make_app(1),
                                 windows=1))
        server.run(timeout_s=120.0)
        with pytest.raises(ServeError, match="drained"):
            server.submit(TenantSpec(name="b",
                                     application=make_app(2)))


class TestServing:
    def test_two_tenants_complete(self, platform):
        server = make_server(platform)
        server.submit(TenantSpec(name="a", application=make_app(1),
                                 windows=2, priority=1))
        server.submit(TenantSpec(name="b", application=make_app(2),
                                 windows=3))
        report = server.run(timeout_s=180.0)
        assert report.tenants["a"].status == COMPLETED
        assert report.tenants["b"].status == COMPLETED
        assert report.tenants["a"].windows_served == 2
        assert report.tenants["b"].windows_served == 3
        admits = [e for e in report.timeline if e["event"] == "admit"]
        assert [e["tenant"] for e in admits] == ["a", "b"]
        assert all(e["tick"] == 0 for e in admits)

    def test_trace_spans_are_tenant_tagged(self, platform):
        server = make_server(platform)
        server.submit(TenantSpec(name="a", application=make_app(1),
                                 windows=1))
        server.run(timeout_s=120.0)
        assert server.trace_spans
        assert {span.tenant for span in server.trace_spans} == {"a"}

    def test_queued_tenant_admitted_after_release(self, platform):
        server = make_server(platform, queue_capacity=1)
        server.submit(TenantSpec(
            name="first", application=make_app(1), windows=2,
            required_classes=frozenset({"gpu"}),
        ))
        server.submit(TenantSpec(
            name="second", application=make_app(1), windows=2,
            required_classes=frozenset({"gpu"}),
        ))
        report = server.run(timeout_s=180.0)
        assert report.tenants["first"].status == COMPLETED
        assert report.tenants["second"].status == COMPLETED
        queue_events = [e for e in report.timeline
                        if e["event"] == "queue"]
        assert [e["tenant"] for e in queue_events] == ["second"]
        # The retry admitted it only once the GPU was free again.
        second_admit = next(
            e for e in report.timeline
            if e["event"] == "admit" and e["tenant"] == "second"
        )
        assert second_admit["tick"] >= 2

    def test_tick_budget_exhaustion_fails_loudly(self, platform):
        server = make_server(platform, max_ticks=2)
        server.submit(TenantSpec(name="slow", application=make_app(1),
                                 windows=50))
        report = server.run(timeout_s=120.0)
        assert report.tenants["slow"].status == "failed"
        record = server.records["slow"]
        assert "tick budget exhausted" in record.status_detail
        # Close-out released the partition.
        assert not server.placement.partitions

    def test_undrained_queue_becomes_backpressure_reject(
        self, platform
    ):
        server = make_server(platform, max_ticks=1, queue_capacity=1)
        server.submit(TenantSpec(
            name="first", application=make_app(1), windows=5,
            required_classes=frozenset({"gpu"}),
        ))
        server.submit(TenantSpec(
            name="second", application=make_app(1), windows=5,
            required_classes=frozenset({"gpu"}),
        ))
        server.run(timeout_s=120.0)
        assert server.records["second"].status == REJECTED
        assert "backpressure" in server.records["second"].status_detail

    def test_queue_age_out_rejects_oldest_with_structured_reason(
        self, platform
    ):
        # "first" holds the GPU for 12 windows; "second" queues behind
        # it and must age out after queue_patience ticks instead of
        # waiting out the whole run.
        server = make_server(platform, max_ticks=32, queue_capacity=1,
                             queue_patience=3)
        server.submit(TenantSpec(
            name="first", application=make_app(1), windows=12,
            required_classes=frozenset({"gpu"}),
        ))
        server.submit(TenantSpec(
            name="second", application=make_app(1), windows=2,
            required_classes=frozenset({"gpu"}),
        ))
        report = server.run(timeout_s=180.0)
        assert report.tenants["first"].status == COMPLETED
        assert report.tenants["second"].status == REJECTED
        detail = server.records["second"].status_detail
        assert "aged out" in detail and "patience 3" in detail
        evicts = [e for e in report.timeline
                  if e["event"] == "queue_evict"]
        assert [e["tenant"] for e in evicts] == ["second"]
        assert evicts[0]["waited_ticks"] >= 3

    def test_queue_patience_validation(self):
        with pytest.raises(ServeError, match="queue_patience"):
            ServerConfig(queue_patience=0)

    def test_queue_age_out_disabled_by_default(self, platform):
        # Without queue_patience the queued tenant waits until the GPU
        # frees and still completes - the pre-age-out behaviour.
        server = make_server(platform, max_ticks=32, queue_capacity=1)
        server.submit(TenantSpec(
            name="first", application=make_app(1), windows=12,
            required_classes=frozenset({"gpu"}),
        ))
        server.submit(TenantSpec(
            name="second", application=make_app(1), windows=2,
            required_classes=frozenset({"gpu"}),
        ))
        report = server.run(timeout_s=180.0)
        assert report.tenants["second"].status == COMPLETED
        assert not [e for e in report.timeline
                    if e["event"] == "queue_evict"]

    def test_report_is_available_midway(self, platform):
        server = make_server(platform)
        server.submit(TenantSpec(name="a", application=make_app(1),
                                 windows=1))
        report = server.run(timeout_s=120.0)
        assert report.platform == platform.name
        assert report.plan_cache["entries"] >= 1
        assert report.ticks >= 1
