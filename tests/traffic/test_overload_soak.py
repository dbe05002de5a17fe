"""The overload acceptance bar, verbatim from the issue:

* at >= 1.5x saturation the seeded soak produces byte-identical
  ``TrafficReport``s across repeated runs;
* with admission control the fleet degrades gracefully: goodput
  plateaus instead of collapsing and the top tier's p99 slowdown stays
  bounded (under its SLO);
* admission control strictly beats admit-everything on goodput;
* replaying a recorded trace reproduces the recorded run
  byte-identically;
* the admission-pricing memo changes no report byte.
"""

import pytest

from repro.fleet.scenario import FleetSoakScenario, run_fleet_soak
from repro.serialization import artifact_sha256, write_json_report
from repro.traffic import (
    FleetOverloadScenario,
    OVERLOAD_TIERS,
    TrafficTrace,
    overload_curve,
    run_overload_soak,
)

from tests.serve.conftest import defeat_admission_memo

SCENARIO = FleetOverloadScenario()


@pytest.fixture(scope="module")
def soak_on():
    return run_overload_soak(SCENARIO, admission=True)


@pytest.fixture(scope="module")
def soak_off():
    return run_overload_soak(SCENARIO, admission=False)


class TestOverloadShape:
    def test_scenario_is_overloaded(self, soak_on):
        _, report = soak_on
        assert SCENARIO.load_multiplier >= 1.5
        assert report.offered_windows > report.served_windows
        assert report.rejected > 0

    def test_admit_everything_serves_more_but_worse(
        self, soak_on, soak_off
    ):
        _, on = soak_on
        _, off = soak_off
        assert off.served_windows > on.served_windows
        for tier in OVERLOAD_TIERS:
            assert (on.tiers[tier.name].attainment
                    > off.tiers[tier.name].attainment)


class TestAdmissionGate:
    def test_admission_strictly_beats_admit_everything_on_goodput(
        self, soak_on, soak_off
    ):
        _, on = soak_on
        _, off = soak_off
        assert on.goodput_tasks > off.goodput_tasks
        assert on.goodput_windows > off.goodput_windows

    def test_top_tier_p99_bounded_by_its_slo(self, soak_on):
        _, report = soak_on
        gold = report.tiers["gold"]
        assert gold.served_windows > 0
        assert gold.p99_slowdown <= gold.slo_slowdown
        assert gold.attainment == 1.0

    def test_goodput_plateaus_past_saturation(self):
        points = overload_curve(
            SCENARIO, multipliers=(0.5, 1.0, 1.5, 2.0),
        )
        goodput = [p["goodput_tasks"] for p in points]
        # Rising toward saturation...
        assert goodput[0] < goodput[1] < goodput[2]
        # ...then flat-ish: excess load is rejected, not served badly.
        assert goodput[3] >= 0.85 * goodput[2]

    def test_burst_recovers_within_horizon(self, soak_on):
        _, report = soak_on
        assert len(report.recoveries) == 1
        recovery = report.recoveries[0]
        assert recovery.peak_backlog > recovery.pre_burst_backlog
        assert recovery.recovered_tick is not None
        assert recovery.recovery_ticks <= SCENARIO.backlog_patience


class TestByteDeterminism:
    def test_two_soaks_write_identical_report_bytes(
        self, soak_on, tmp_path
    ):
        _, first_report = soak_on
        _, second_report = run_overload_soak(SCENARIO, admission=True)
        first = tmp_path / "first.json"
        second = tmp_path / "second.json"
        write_json_report(first, first_report.to_dict())
        write_json_report(second, second_report.to_dict())
        assert first.read_bytes() == second.read_bytes()

    def test_replay_reproduces_recorded_run(self, soak_on, tmp_path):
        _, live_report = soak_on
        trace = TrafficTrace.record(SCENARIO.spec(), SCENARIO.seed)
        path = tmp_path / "trace.json"
        trace.save(path)
        _, replayed_report = run_overload_soak(
            SCENARIO, admission=True, trace=TrafficTrace.load(path),
        )
        live = tmp_path / "live.json"
        replay = tmp_path / "replay.json"
        write_json_report(live, live_report.to_dict())
        write_json_report(replay, replayed_report.to_dict())
        assert live.read_bytes() == replay.read_bytes()

    def test_different_seed_differs(self, soak_on):
        _, report = soak_on
        _, other = run_overload_soak(
            FleetOverloadScenario(seed=8), admission=True,
        )
        assert other.to_dict()["per_tick"] != report.to_dict()["per_tick"]


class TestSaturationScalesWithShards:
    def test_two_shard_default_keeps_its_calibration(self):
        assert SCENARIO.spec().arrivals_per_tick == 1.1

    def test_explicit_rate_wins(self):
        scenario = FleetOverloadScenario(
            n_shards=16, saturation_arrivals_per_tick=4.4)
        assert scenario.spec().arrivals_per_tick == 4.4

    def test_sixteen_shard_default_soak_is_overloaded(self):
        """At 1.5x, a 16-shard fleet must shed load too - not just the
        2-shard fleet the old fixed rate was calibrated for."""
        _, report = run_overload_soak(
            FleetOverloadScenario(n_shards=16, load_multiplier=1.5))
        assert report.rejected > 0


def memo_arms(run):
    """``run()`` twice: memo working, then memo defeated."""
    on = run()
    with pytest.MonkeyPatch.context() as patch:
        defeat_admission_memo(patch)
        off = run()
    return on, off


class TestAdmissionMemoIsExact:
    @pytest.fixture(scope="class")
    def overload_arms(self):
        return memo_arms(lambda: run_overload_soak(
            FleetOverloadScenario(n_shards=8), admission=True))

    @pytest.fixture(scope="class")
    def fleet_arms(self):
        return memo_arms(lambda: run_fleet_soak(FleetSoakScenario()))

    def test_overload_report_identical(self, overload_arms):
        (_, on), (_, off) = overload_arms
        assert on.rejected > 0
        assert (artifact_sha256(on.to_dict())
                == artifact_sha256(off.to_dict()))

    def test_overload_plan_cache_stats_identical(self, overload_arms):
        (on, _), (off, _) = overload_arms
        assert on.fleet_report.plan_cache["hits"] > 0
        assert on.fleet_report.plan_cache == off.fleet_report.plan_cache

    def test_fleet_soak_report_identical(self, fleet_arms):
        (_, on), (_, off) = fleet_arms
        assert (artifact_sha256(on.to_dict())
                == artifact_sha256(off.to_dict()))

    def test_fleet_soak_plan_cache_stats_identical(self, fleet_arms):
        (on, _), (off, _) = fleet_arms
        assert (on.shards[0].plan_cache.stats()
                == off.shards[0].plan_cache.stats())
