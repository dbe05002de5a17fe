"""The stepped core: the externally-clocked server surface.

Every run is ``open_stepped`` / ``step`` / ``close_stepped`` on the
caller's thread - ``run()`` included - so these tests run every tick
inline and can observe each admission, withdrawal, and rollback
synchronously.
"""

import threading

import pytest

from repro.errors import ServeError
from repro.serve.admission import ADMIT
from repro.serve.server import PipelineServer, ServerConfig
from repro.serve.tenant import (
    COMPLETED,
    EVICTED,
    FAILED,
    RUNNING,
    TenantSpec,
)

CONFIG = ServerConfig(max_ticks=64, queue_capacity=0)


@pytest.fixture
def server(platform, plan_cache):
    server = PipelineServer(platform, seed=5, config=CONFIG,
                            plan_cache=plan_cache)
    server.open_stepped()
    return server


def _spec(app, name="t", **kwargs):
    kwargs.setdefault("windows", 2)
    kwargs.setdefault("window_tasks", 4)
    return TenantSpec(name=name, application=app, **kwargs)


class TestLifecycle:
    def test_admit_step_complete(self, server, app):
        decision = server.try_admit(_spec(app), tick=0)
        assert decision.action == ADMIT
        record = server.records["t"]
        assert record.status == RUNNING
        drained = server.step(0)
        assert not drained
        assert server.step(1)
        assert record.status == COMPLETED
        assert record.windows_done == 2
        report = server.close_stepped()
        events = [e["event"] for e in report.timeline
                  if e["tenant"] == "t"]
        assert events == ["admit", "window", "window", "complete"]

    def test_close_detail_fails_live_tenants(self, server, app):
        server.try_admit(_spec(app, windows=30), tick=0)
        server.step(0)
        report = server.close_stepped("shard crashed at tick 1")
        assert report.tenants["t"].status == FAILED
        assert (server.records["t"].status_detail
                == "shard crashed at tick 1")

    def test_run_ticks_on_the_calling_thread(self, platform,
                                              plan_cache, app,
                                              monkeypatch):
        # A profiler attached to the caller must see every tick.
        ticked_on = []
        original = PipelineServer._tick

        def tick(self, tick):
            ticked_on.append(threading.get_ident())
            original(self, tick)

        monkeypatch.setattr(PipelineServer, "_tick", tick)
        server = PipelineServer(platform, seed=5, config=CONFIG,
                                plan_cache=plan_cache)
        server.submit(_spec(app))
        server.run(timeout_s=120.0)
        assert ticked_on
        assert set(ticked_on) == {threading.get_ident()}


class TestGuards:
    def test_step_requires_open(self, platform, plan_cache):
        server = PipelineServer(platform, config=CONFIG,
                                plan_cache=plan_cache)
        with pytest.raises(ServeError, match="open_stepped"):
            server.step(0)
        with pytest.raises(ServeError, match="open_stepped"):
            server.close_stepped()

    def test_try_admit_requires_open(self, platform, plan_cache, app):
        server = PipelineServer(platform, config=CONFIG,
                                plan_cache=plan_cache)
        with pytest.raises(ServeError, match="open_stepped"):
            server.try_admit(_spec(app), tick=0)
        with pytest.raises(ServeError, match="open_stepped"):
            server.withdraw("t", "nope", tick=0)
        with pytest.raises(ServeError, match="open_stepped"):
            server.rescind("t")

    def test_open_after_start_rejected(self, server):
        with pytest.raises(ServeError, match="already started"):
            server.open_stepped()
        server.close_stepped()

    def test_duplicate_name_rejected_within_a_generation(
        self, server, app
    ):
        server.try_admit(_spec(app), tick=0)
        with pytest.raises(ServeError, match="already known"):
            server.try_admit(_spec(app), tick=1)


class TestWithdraw:
    def test_withdraw_releases_the_partition(self, server, app):
        server.try_admit(_spec(app, windows=10), tick=0)
        server.step(0)
        record = server.withdraw("t", "fleet failover", tick=1)
        assert record.status == EVICTED
        assert record.status_detail == "fleet failover"
        assert "t" not in server.placement.partitions
        assert server.running_records() == {}
        # The name stays burned for this generation.
        assert server.knows_tenant("t")

    def test_withdraw_unknown_tenant_rejected(self, server):
        with pytest.raises(ServeError, match="not a live tenant"):
            server.withdraw("ghost", "nope", tick=0)

    def test_withdraw_completed_tenant_rejected(self, server, app):
        server.try_admit(_spec(app), tick=0)
        server.step(0)
        server.step(1)
        with pytest.raises(ServeError, match="not a live tenant"):
            server.withdraw("t", "too late", tick=2)


class TestRescind:
    def test_rescind_erases_the_admission(self, server, app):
        server.try_admit(_spec(app), tick=0)
        server.rescind("t")
        assert "t" not in server.records
        assert "t" not in server.placement.partitions
        assert not server.knows_tenant("t")
        # Unlike withdraw, rescind frees the name for reuse: the fleet
        # retries smaller failover batches against the same shard.
        decision = server.try_admit(_spec(app), tick=0)
        assert decision.action == ADMIT

    def test_rescind_unknown_tenant_rejected(self, server):
        with pytest.raises(ServeError, match="unknown tenant"):
            server.rescind("ghost")
