"""The DES jitter memo is exact, per platform object, and flow-scoped.

Every :class:`SimulatedPipelineExecutor` built on one
:class:`~repro.soc.platform.Platform` shares that platform's jitter
draws.  A draw is a pure function of ``platform.name|schedule|task|
stage``, so sharing must never change a result byte: a run on a warm
platform is compared, as serialized JSON, with the same run on a fresh
platform nobody has simulated on - across schedules, fault injection,
external load and recorded traces.  The memo must also start empty on
every new platform (no process-wide state), and stay out of ``repr``
and ``==``.

The serving guard counts draws deterministically - by wrapping the
simulator's digest constructor, never by wall time: a fleet or overload
soak builds one executor per tenant per tick, and must still draw each
(platform object, schedule, task, stage) exactly once.
"""

import dataclasses
import json
from types import SimpleNamespace

import pytest

import repro.runtime.simulator as sim
from repro.apps import build_octree_application
from repro.core import Chunk
from repro.fleet import FleetSoakScenario, run_fleet_soak
from repro.runtime import (
    FaultInjector,
    FaultPlan,
    KernelFaultSpec,
    SimulatedPipelineExecutor,
    SlowdownSpec,
)
from repro.serialization import artifact_sha256
from repro.soc import get_platform
from repro.soc.interference import ExternalLoad
from repro.soc.pu import BIG, GPU, LITTLE, MEDIUM
from repro.traffic import FleetOverloadScenario, run_overload_soak

SCHEDULES = [
    [Chunk(0, 7, BIG)],
    [Chunk(0, 4, BIG), Chunk(4, 7, GPU)],
    [Chunk(0, 2, BIG), Chunk(2, 4, GPU),
     Chunk(4, 6, MEDIUM), Chunk(6, 7, LITTLE)],
]

EXTERNAL = ExternalLoad(busy={BIG: 0.5, GPU: 0.25}, demand_gbps=2.0)


def faults():
    return FaultInjector(FaultPlan(
        slowdowns=[SlowdownSpec(task_id=t, stage_index=1, factor=3.0)
                   for t in range(0, 12, 3)],
        kernel_faults=[KernelFaultSpec(task_id=2, stage_index=5,
                                       fail_attempts=1)],
    ))


#: name -> (executor kwargs factory, run kwargs)
VARIANTS = {
    "plain": (dict, {}),
    "faults": (lambda: {"fault_injector": faults()}, {}),
    "external-load": (lambda: {"external_load": EXTERNAL}, {}),
    "trace": (dict, {"record_trace": True}),
    "arrivals": (dict, {"arrival_period_s": 0.004}),
}


@pytest.fixture(scope="module")
def app():
    return build_octree_application(n_points=20_000)


def serialized(result):
    return json.dumps(dataclasses.asdict(result), sort_keys=True)


def run_on(platform, app, chunks, variant, n_tasks=12):
    make_kwargs, run_kwargs = VARIANTS[variant]
    executor = SimulatedPipelineExecutor(app, chunks, platform,
                                         **make_kwargs())
    return executor, executor.run(n_tasks, **run_kwargs)


class TestSharedMemoIsExact:
    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_warm_platform_matches_fresh_platforms(self, app, variant):
        """Many executors on one warm platform, interleaved across
        schedules and variants, produce the bytes one executor per
        fresh platform does."""
        warm = get_platform("pixel7a")
        for chunks in SCHEDULES:  # warm every schedule, every variant
            for other in sorted(VARIANTS):
                run_on(warm, app, chunks, other)
        for chunks in SCHEDULES:
            for n_tasks in (5, 12, 20):
                _, expected = run_on(get_platform("pixel7a"), app,
                                     chunks, variant, n_tasks)
                _, actual = run_on(warm, app, chunks, variant, n_tasks)
                assert serialized(actual) == serialized(expected)

    def test_second_executor_makes_no_draws(self, app):
        platform = get_platform("pixel7a")
        first, _ = run_on(platform, app, SCHEDULES[1], "plain")
        second, _ = run_on(platform, app, SCHEDULES[1], "plain")
        assert first.noise_cache_misses > 0
        assert second.noise_cache_misses == 0

    def test_new_schedule_on_warm_platform_still_draws(self, app):
        platform = get_platform("pixel7a")
        run_on(platform, app, SCHEDULES[1], "plain")
        other, _ = run_on(platform, app, SCHEDULES[2], "plain")
        assert other.noise_cache_misses > 0

    def test_faults_stay_out_of_the_memo(self, app):
        """Injected slowdowns scale the drawn jitter per executor; the
        memo holds the same scales a fault-free run draws."""
        faulted = get_platform("pixel7a")
        clean = get_platform("pixel7a")
        run_on(faulted, app, SCHEDULES[1], "faults")
        run_on(clean, app, SCHEDULES[1], "plain")
        assert faulted.jitter_memo == clean.jitter_memo
        assert faulted.jitter_memo

    def test_memo_is_keyed_by_schedule(self, app):
        platform = get_platform("pixel7a")
        executor, _ = run_on(platform, app, SCHEDULES[1], "plain")
        assert list(platform.jitter_memo) == [executor._schedule_key]
        assert executor._noise_cache is platform.jitter_memo[
            executor._schedule_key]


class TestMemoScope:
    def test_new_platform_starts_empty(self, app):
        run_on(get_platform("pixel7a"), app, SCHEDULES[1], "plain")
        assert get_platform("pixel7a").jitter_memo == {}

    def test_replace_gets_a_fresh_memo(self, app):
        platform = get_platform("pixel7a")
        run_on(platform, app, SCHEDULES[1], "plain")
        copy = dataclasses.replace(platform)
        assert copy.jitter_memo == {}
        assert copy.jitter_memo is not platform.jitter_memo
        assert platform.jitter_memo

    def test_memo_is_not_an_init_argument(self):
        platform = get_platform("pixel7a")
        with pytest.raises(ValueError):
            dataclasses.replace(platform, jitter_memo={})

    def test_memo_stays_out_of_repr_and_eq(self, app):
        warm = get_platform("pixel7a")
        cold = dataclasses.replace(warm)  # same parts, own memo
        before = repr(warm)
        run_on(warm, app, SCHEDULES[1], "plain")
        assert warm.jitter_memo and not cold.jitter_memo
        assert "jitter_memo" not in repr(warm)
        assert repr(warm) == before
        assert warm == cold


@pytest.fixture
def draw_log(monkeypatch):
    """Count the simulator's jitter draws (one digest each) and collect
    every platform object an executor is built on."""
    log = SimpleNamespace(draws=0, executors=0, platforms={})
    real_blake2b = sim.hashlib.blake2b
    real_init = SimulatedPipelineExecutor.__init__

    def blake2b(*args, **kwargs):
        log.draws += 1
        return real_blake2b(*args, **kwargs)

    def init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        log.executors += 1
        log.platforms[id(self.platform)] = self.platform

    monkeypatch.setattr(sim, "hashlib", SimpleNamespace(blake2b=blake2b))
    monkeypatch.setattr(SimulatedPipelineExecutor, "__init__", init)
    return log


def distinct_keys(log):
    """Distinct (platform object, schedule, task, stage) keys drawn."""
    return sum(
        len(draws)
        for platform in log.platforms.values()
        for draws in platform.jitter_memo.values()
    )


def distinct_schedules(log):
    return sum(len(p.jitter_memo) for p in log.platforms.values())


class TestServingDrawsOncePerKey:
    def test_fleet_soak(self, draw_log):
        run_fleet_soak(FleetSoakScenario())
        assert draw_log.draws > 0
        assert draw_log.draws == distinct_keys(draw_log)
        # Sharing is exercised: many more executors than schedules.
        assert draw_log.executors > 10 * distinct_schedules(draw_log)

    def test_overload_soak(self, draw_log):
        run_overload_soak(FleetOverloadScenario(n_shards=4, ticks=16))
        assert draw_log.draws > 0
        assert draw_log.draws == distinct_keys(draw_log)
        assert draw_log.executors > 10 * distinct_schedules(draw_log)


def private_memos(monkeypatch):
    """Give every executor its own empty jitter memo (the behaviour
    before draws were shared through the platform)."""
    real_init = SimulatedPipelineExecutor.__init__

    def init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        self._noise_cache = {}

    monkeypatch.setattr(SimulatedPipelineExecutor, "__init__", init)


class TestServingReportsUnchanged:
    def test_fleet_report_identical_with_private_memos(self):
        _, shared = run_fleet_soak(FleetSoakScenario())
        with pytest.MonkeyPatch.context() as patch:
            private_memos(patch)
            _, private = run_fleet_soak(FleetSoakScenario())
        assert (artifact_sha256(shared.to_dict())
                == artifact_sha256(private.to_dict()))

    def test_overload_report_identical_with_private_memos(self):
        scenario = FleetOverloadScenario(n_shards=4, ticks=16)
        _, shared = run_overload_soak(scenario)
        with pytest.MonkeyPatch.context() as patch:
            private_memos(patch)
            _, private = run_overload_soak(scenario)
        assert (artifact_sha256(shared.to_dict())
                == artifact_sha256(private.to_dict()))
