"""Benchmark guard: serving windows are replayed, not re-simulated.

On the 64-shard, 192-tenant chaos soak (seed 7, attribution and burn
alerts on) most windows repeat one their shard already simulated: a
tenant keeps its schedule and its co-tenants for many ticks.  Each
server's session memo replays those windows and their blame weights.
Two gates, both measured in the same run:

* the soak with every memo defeated takes at least 1.4x as long as the
  soak with the memos working (a ratio, never absolute seconds);
* the memos serve exactly 3,889 of the soak's 4,224 windows (92%), a
  deterministic count that must stay at or above 80%.

Fleets are built before the timer starts, so only ``router.run`` is
timed.
"""

import time

import pytest

from repro.fleet.scenario import FleetSoakScenario, build_fleet
from repro.obs.alerts import BurnRateRule
from repro.serve.server import PipelineServer

from tests.serve.conftest import defeat_window_memo

SCENARIO = FleetSoakScenario(seed=7, n_shards=64, n_tenants=192)
REPLAYED = 3889
WINDOWS = 4224


def soak_seconds():
    router = build_fleet(SCENARIO, attribution=True, burn=BurnRateRule())
    start = time.perf_counter()
    router.run(timeout_s=600.0)
    return time.perf_counter() - start


def test_memo_speeds_the_chaos_soak_up():
    memo_s, defeated_s = [], []
    for _ in range(2):
        memo_s.append(soak_seconds())
        with pytest.MonkeyPatch.context() as patch:
            defeat_window_memo(patch)
            defeated_s.append(soak_seconds())
    ratio = min(defeated_s) / min(memo_s)
    print(f"\nchaos soak: memo {min(memo_s):.3f} s, defeated "
          f"{min(defeated_s):.3f} s, ratio {ratio:.2f}x")
    assert ratio >= 1.4


def test_most_windows_are_replayed(monkeypatch):
    servers = []
    init = PipelineServer.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        servers.append(self)

    monkeypatch.setattr(PipelineServer, "__init__", recording_init)
    build_fleet(SCENARIO, attribution=True,
                burn=BurnRateRule()).run(timeout_s=600.0)
    hits = sum(server.window_memo.hits for server in servers)
    misses = sum(server.window_memo.misses for server in servers)
    print(f"\n{hits + misses} windows, {hits} replayed "
          f"({hits / (hits + misses):.1%})")
    assert hits + misses == WINDOWS
    assert hits == REPLAYED
    assert hits / WINDOWS >= 0.80
