"""A serving session's window memo changes no byte and outlives nothing.

Every report the serving stack writes is compared, as a SHA-256 of its
serialized artifact, between a run with the session memo working and
a run with it defeated (:func:`defeat_window_memo`): the 64-shard,
192-tenant chaos fleet with attribution and burn alerts, the 8-shard
overload soak, and a traced ``serve`` capture.  The memo must hit on
those runs (otherwise the comparison shows nothing) and be empty once
the session closes.
"""

import pytest

import repro.obs as obs
from repro.errors import ServeError
from repro.fleet.scenario import FleetSoakScenario, build_fleet
from repro.obs.alerts import BurnRateRule
from repro.runtime.simulator import WindowMemo
from repro.runtime.trace import format_gantt
from repro.serialization import artifact_sha256
from repro.serve import SoakScenario, build_soak_server
from repro.serve.server import PipelineServer
from repro.traffic import FleetOverloadScenario, run_overload_soak

from tests.serve.conftest import defeat_window_memo


@pytest.fixture
def servers(monkeypatch):
    """Every server built while the fixture is live."""
    built = []
    init = PipelineServer.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(PipelineServer, "__init__", recording_init)
    return built


def memo_arms(run):
    """``run()`` with the memo working, then with it defeated."""
    on = run()
    with pytest.MonkeyPatch.context() as patch:
        defeat_window_memo(patch)
        off = run()
    return on, off


def hits(servers):
    return sum(server.window_memo.hits for server in servers)


def chaos_report():
    scenario = FleetSoakScenario(seed=7, n_shards=64, n_tenants=192)
    router = build_fleet(scenario, attribution=True, burn=BurnRateRule())
    return artifact_sha256(router.run(timeout_s=600.0).to_dict())


def overload_report():
    _, report = run_overload_soak(FleetOverloadScenario(n_shards=8),
                                  admission=True)
    return artifact_sha256(report.to_dict())


def traced_serve():
    server = build_soak_server(SoakScenario(seed=7, windows=12))
    with obs.capture() as cap:
        report = server.run(timeout_s=300.0)
        snapshot = cap.metrics.snapshot()
        trace = obs.chrome_trace(cap.events, snapshot)
    return (artifact_sha256(report.to_dict()), artifact_sha256(trace),
            format_gantt(server.trace_spans, width=60))


class TestMemoChangesNoByte:
    def test_chaos_fleet_report(self, servers):
        on, off = memo_arms(chaos_report)
        assert hits(servers) > 0
        assert on == off

    def test_overload_report(self, servers):
        on, off = memo_arms(overload_report)
        assert hits(servers) > 0
        assert on == off

    def test_traced_serve_capture(self, servers):
        on, off = memo_arms(traced_serve)
        assert hits(servers) > 0
        assert on == off


class TestLifetime:
    def test_empty_after_close(self):
        server = build_soak_server(SoakScenario(seed=7, windows=12))
        memo = server.window_memo
        server.open_stepped()
        for tick in range(4):
            server.step(tick)
        assert memo.windows and memo.costs
        assert memo.hits > 0
        server.close_stepped()
        assert len(memo) == 0
        assert server.window_memo is memo

    def test_one_memo_per_server(self):
        scenario = SoakScenario(seed=7, windows=8)
        first, second = (build_soak_server(scenario) for _ in range(2))
        assert isinstance(first.window_memo, WindowMemo)
        assert first.window_memo is not second.window_memo
        assert first.window_memo.platform is first.platform


class TestCoLoadSnapshot:
    FAIL_TICK = 2

    def run_with_broken_load(self, monkeypatch, broken):
        """Serve the soak with ``broken``'s offered load raising from
        ``FAIL_TICK`` on; count offered-load calls per tick."""
        import repro.serve.server as server_module

        server = build_soak_server(SoakScenario(seed=7, windows=8))
        app = {spec.name: spec.application
               for spec in server._inbox}.get(broken)
        real = server_module.tenant_offered_load
        state = {"tick": 0, "calls": {}}

        def offered(application, *args):
            tick = state["tick"]
            state["calls"][tick] = state["calls"].get(tick, 0) + 1
            if application is app and tick >= self.FAIL_TICK:
                raise ServeError(f"{broken} load unavailable")
            return real(application, *args)

        monkeypatch.setattr(server_module, "tenant_offered_load", offered)
        server.open_stepped()
        for tick in range(self.FAIL_TICK + 1):
            state["tick"] = tick
            server.step(tick)
        return server, state["calls"]

    def test_offered_loads_computed_once_per_tick(self, monkeypatch):
        server, calls = self.run_with_broken_load(monkeypatch, None)
        running = len(server.running_records())
        assert running == 3
        assert all(count <= running for count in calls.values())

    def test_a_broken_load_fails_exactly_its_dependents(self,
                                                        monkeypatch):
        """Admission order is gpu, drift, bg.  With drift's load
        broken, gpu fails (it needs drift's load); drift still serves
        and sees bg, which had not failed yet when drift's sources were
        built; bg then fails, and gpu no longer counts for anyone."""
        server, _ = self.run_with_broken_load(monkeypatch,
                                              "tenant-drift")
        at_tick = [event for event in server.timeline
                   if event["tick"] == self.FAIL_TICK]
        failed = [event["tenant"] for event in at_tick
                  if event["event"] == "fail"]
        assert failed == ["tenant-gpu", "tenant-bg"]
        assert all(event["reason"] == "tenant-drift load unavailable"
                   for event in at_tick if event["event"] == "fail")
        drift = server.records["tenant-drift"]
        assert drift.status == "running"
        last = drift.history[-1]
        assert last.window_index == self.FAIL_TICK
        seen = set(last.external_busy_classes)
        assert set(server.records["tenant-bg"].partition) <= seen
        assert seen.isdisjoint(server.records["tenant-gpu"].partition)
