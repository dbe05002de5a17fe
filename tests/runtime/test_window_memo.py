"""The serving session's window memo is exact.

A :class:`~repro.runtime.simulator.WindowMemo` replays a DES window it
has already simulated, shares per-chunk cost tables, and keeps blame
weights.  Every replay must equal what a fresh executor with no memo
produces, field for field and serialized as JSON: completions, busy
seconds, spans (with the replaying tenant on them), event counts and
the end time.  The key must hold the external load's ``busy`` items in
iteration order - ``external_co_load`` sums them in that order, and two
orders of the same items can give different bytes - so the suite pins
such a pair.  Fault-injected and ``reference``-engine runs must neither
read nor write the memo, and under ``REPRO_CHECK=1`` a hit that differs
from a re-simulation raises.
"""

import dataclasses
import json
import marshal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import runtime_checks
from repro.apps import build_octree_application
from repro.core import Chunk
from repro.errors import PipelineError
from repro.obs.attribution import (
    ChunkLoad,
    _counterfactual_weights,
    decompose,
)
from repro.runtime import (
    FaultInjector,
    FaultPlan,
    SimulatedPipelineExecutor,
    SlowdownSpec,
)
from repro.runtime.simulator import WindowMemo
from repro.soc import get_platform
from repro.soc.interference import ExternalLoad
from repro.soc.pu import BIG, GPU, LITTLE, MEDIUM

SCHEDULES = [
    [Chunk(0, 7, BIG)],
    [Chunk(0, 4, BIG), Chunk(4, 7, GPU)],
    [Chunk(0, 2, BIG), Chunk(2, 4, GPU),
     Chunk(4, 6, MEDIUM), Chunk(6, 7, LITTLE)],
]

#: Two orders of the same busy items that give different DES bytes on
#: pixel7a for a BIG-only schedule: the co-load sum rounds differently.
ORDERED = {MEDIUM: 0.39, LITTLE: 0.32, GPU: 0.21}
REORDERED = dict(reversed(list(ORDERED.items())))

FRACTIONS = st.sampled_from([0.08, 0.21, 0.22, 0.29, 0.3, 0.31, 0.32,
                             0.37, 0.39, 0.4, 1.0])
BUSY_ITEMS = st.lists(
    st.tuples(st.sampled_from([BIG, MEDIUM, LITTLE, GPU]), FRACTIONS),
    max_size=4, unique_by=lambda item: item[0],
)


@pytest.fixture(scope="module")
def platform():
    return get_platform("pixel7a")


@pytest.fixture(scope="module")
def app():
    return build_octree_application(n_points=20_000)


@pytest.fixture
def checks_on():
    was = runtime_checks.checks_enabled()
    runtime_checks.enable_checks()
    yield
    if not was:
        runtime_checks.disable_checks()


@pytest.fixture
def checks_off():
    """Unchecked hits (the suite also runs under ``REPRO_CHECK=1``)."""
    was = runtime_checks.checks_enabled()
    runtime_checks.disable_checks()
    yield
    if was:
        runtime_checks.enable_checks()


def serialized(result):
    return json.dumps(dataclasses.asdict(result), sort_keys=True)


def run(app, platform, chunks, memo=None, n_tasks=8, tenant=None,
        external=None, run_kwargs=None, **kwargs):
    executor = SimulatedPipelineExecutor(
        app, chunks, platform, external_load=external, tenant=tenant,
        window_memo=memo, **kwargs,
    )
    return executor.run(n_tasks, **(run_kwargs or {}))


def faults():
    return FaultInjector(FaultPlan(slowdowns=[
        SlowdownSpec(task_id=t, stage_index=1, factor=3.0)
        for t in range(0, 12, 3)
    ]))


def poison(memo):
    """Shift every stored window's end time and event count."""
    for key, stored in list(memo.windows.items()):
        completed, spans, busy, now, events = marshal.loads(stored)
        memo.windows[key] = marshal.dumps(
            (completed, spans, busy, now + 1.0, events + 1))


class TestReplayIsExact:
    @settings(max_examples=40, deadline=None)
    @given(
        items=BUSY_ITEMS,
        demand=st.sampled_from([0.0, 1.5]),
        schedule=st.sampled_from(range(len(SCHEDULES))),
        n_tasks=st.integers(1, 8),
        record_trace=st.booleans(),
        period=st.sampled_from([None, 0.0, 0.004]),
        tenants=st.lists(st.sampled_from([None, "a", "b", "c"]),
                         min_size=3, max_size=3),
    )
    def test_hit_equals_fresh_run(self, app, platform, items, demand,
                                  schedule, n_tasks, record_trace, period,
                                  tenants):
        """Each window run through one memo - the busy items in one
        order, then reversed, then the first order again, by three
        tenants - equals a fresh executor's run on a memo-less path."""
        chunks = SCHEDULES[schedule]
        memo = WindowMemo(platform)
        run_kwargs = {"record_trace": record_trace,
                      "arrival_period_s": period}
        busy_orders = [dict(items), dict(reversed(items)), dict(items)]
        for busy, tenant in zip(busy_orders, tenants):
            external = ExternalLoad(busy=busy, demand_gbps=demand)
            expected = run(app, platform, chunks, n_tasks=n_tasks,
                           tenant=tenant, external=external,
                           run_kwargs=run_kwargs)
            got = run(app, platform, chunks, memo, n_tasks=n_tasks,
                      tenant=tenant, external=external,
                      run_kwargs=run_kwargs)
            assert serialized(got) == serialized(expected)
        assert memo.hits >= 1
        assert memo.hits + memo.misses == 3

    def test_busy_order_is_part_of_the_key(self, app, platform):
        chunks = SCHEDULES[0]
        first, second = (ExternalLoad(busy=busy, demand_gbps=1.0)
                         for busy in (ORDERED, REORDERED))
        fresh = [serialized(run(app, platform, chunks, external=load))
                 for load in (first, second)]
        assert fresh[0] != fresh[1]  # the pair is order-sensitive
        memo = WindowMemo(platform)
        got = [serialized(run(app, platform, chunks, memo, external=load))
               for load in (first, second)]
        assert got == fresh
        assert memo.misses == 2

    @pytest.mark.parametrize("variant", [
        {"n_tasks": 5},
        {"run_kwargs": {"record_trace": True}},
        {"run_kwargs": {"arrival_period_s": 0.004}},
        {"depth": 2},
        {"external": ExternalLoad(busy={GPU: 0.25}, demand_gbps=1.0)},
        {"external": ExternalLoad(busy={GPU: 0.5}, demand_gbps=80.0)},
    ], ids=["n_tasks", "trace", "period", "depth", "busy", "demand"])
    def test_every_input_is_part_of_the_key(self, app, platform,
                                            variant):
        """A window differing from a stored one in any single input
        is simulated, not replayed."""
        base = {"external": ExternalLoad(busy={GPU: 0.5},
                                         demand_gbps=1.0)}
        memo = WindowMemo(platform)
        stored = run(app, platform, SCHEDULES[1], memo, **base)
        kwargs = {**base, **variant}
        expected = serialized(run(app, platform, SCHEDULES[1], **kwargs))
        assert expected != serialized(stored)  # the input matters
        got = run(app, platform, SCHEDULES[1], memo, **kwargs)
        assert serialized(got) == expected
        assert memo.misses == 2

    def test_replay_restamps_the_tenant(self, app, platform):
        memo = WindowMemo(platform)
        run(app, platform, SCHEDULES[1], memo, tenant="first",
            run_kwargs={"record_trace": True})
        replay = run(app, platform, SCHEDULES[1], memo, tenant="second",
                     run_kwargs={"record_trace": True})
        assert memo.hits == 1
        assert replay.spans
        assert {span.tenant for span in replay.spans} == {"second"}

    def test_replay_hands_out_fresh_lists(self, app, platform):
        memo = WindowMemo(platform)
        first = run(app, platform, SCHEDULES[1], memo,
                    run_kwargs={"record_trace": True})
        expected = serialized(first)
        first.completion_times_s.append(99.0)
        first.spans.clear()
        first.chunk_busy_s[0] = -1.0
        second = run(app, platform, SCHEDULES[1], memo,
                     run_kwargs={"record_trace": True})
        assert memo.hits == 1
        assert serialized(second) == expected

    def test_other_platform_is_refused(self, app, platform):
        with pytest.raises(PipelineError, match="window memo"):
            run(app, platform, SCHEDULES[0],
                WindowMemo(get_platform("pixel7a")))


#: Runs that must bypass the memo: executor kwargs per variant.
BYPASSING = {
    "reference": lambda: {"engine": "reference"},
    "faults": lambda: {"fault_injector": faults()},
}


class TestBypass:
    @pytest.mark.parametrize("variant", sorted(BYPASSING))
    def test_never_writes(self, app, platform, variant):
        memo = WindowMemo(platform)
        for chunks in SCHEDULES:
            run(app, platform, chunks, memo, **BYPASSING[variant]())
        assert len(memo) == 0
        assert memo.hits == memo.misses == 0

    @pytest.mark.parametrize("variant", sorted(BYPASSING))
    def test_never_reads(self, app, platform, variant, checks_off):
        memo = WindowMemo(platform)
        clean = run(app, platform, SCHEDULES[1], memo)
        poison(memo)
        poisoned = run(app, platform, SCHEDULES[1], memo)
        assert poisoned.total_s == clean.total_s + 1.0  # poison visible
        hits = memo.hits
        bypassed, expected = (
            serialized(run(app, platform, SCHEDULES[1], m,
                           **BYPASSING[variant]()))
            for m in (memo, None)
        )
        assert bypassed == expected
        assert memo.hits == hits


class TestCheckedHits:
    def test_clean_hit_passes(self, app, platform, checks_on):
        memo = WindowMemo(platform)
        first = run(app, platform, SCHEDULES[2], memo, tenant="a",
                    run_kwargs={"record_trace": True})
        second = run(app, platform, SCHEDULES[2], memo, tenant="a",
                     run_kwargs={"record_trace": True})
        assert memo.hits == 1
        assert serialized(first) == serialized(second)

    def test_differing_hit_raises(self, app, platform, checks_on):
        memo = WindowMemo(platform)
        run(app, platform, SCHEDULES[2], memo)
        poison(memo)
        with pytest.raises(AssertionError, match="differs"):
            run(app, platform, SCHEDULES[2], memo)

    def test_differing_weights_raise(self, platform, checks_on):
        memo = {}
        args = blame_args(platform, [("t", ExternalLoad(
            busy={GPU: 0.5}, demand_gbps=3.0))])
        decompose(**args, weight_memo=memo)
        ((key, drops),) = memo.items()
        memo[key] = tuple((c + 1.0, b) for c, b in drops)
        with pytest.raises(AssertionError, match="differs"):
            decompose(**args, weight_memo=memo)


class TestCostTables:
    @pytest.mark.parametrize("chunks", SCHEDULES)
    def test_shared_and_equal_to_a_fresh_build(self, app, platform,
                                               chunks):
        memo = WindowMemo(platform)

        def tables(memo):
            executor = SimulatedPipelineExecutor(app, chunks, platform,
                                                 window_memo=memo)
            return [server.stage_costs for server in executor._servers]

        fresh = tables(None)
        first, second = tables(memo), tables(memo)
        assert repr(first) == repr(fresh)
        assert all(a is b for a, b in zip(first, second))
        assert len(memo.costs) == len(chunks)


def blame_args(platform, sources):
    chunks = (
        ChunkLoad(pu_class=BIG, overhead_s=1e-4, work_s=4e-3,
                  memory_boundedness=0.4, demand_gbps=5.0),
        ChunkLoad(pu_class=GPU, overhead_s=2e-4, work_s=3e-3,
                  memory_boundedness=0.7, demand_gbps=9.0),
    )
    return dict(tenant="victim", window_index=0, slowdown=1.4,
                chunks=chunks, platform=platform, sources=sources)


class TestBlameWeights:
    @settings(max_examples=40, deadline=None)
    @given(
        loads=st.lists(st.tuples(BUSY_ITEMS,
                                 st.sampled_from([0.0, 2.0, 7.5])),
                       min_size=1, max_size=3),
        labels=st.permutations(["x", "y", "z"]),
    )
    def test_memo_equals_fresh_decomposition(self, platform, loads,
                                             labels):
        """The same loads under different labels, and each load's busy
        items reversed, all decompose exactly as without a memo."""
        memo = {}
        orders = (
            [dict(items) for items, _ in loads],
            [dict(reversed(items)) for items, _ in loads],
        )
        for names in (["a", "b", "c"], labels):
            for busies in orders:
                sources = [
                    (name, ExternalLoad(busy=busy, demand_gbps=demand))
                    for name, busy, (_, demand) in zip(names, busies,
                                                       loads)
                ]
                args = blame_args(platform, sources)
                assert (repr(decompose(**args, weight_memo=memo))
                        == repr(decompose(**args)))

    def test_busy_order_is_part_of_the_key(self, platform):
        chunks = (ChunkLoad(pu_class=BIG, overhead_s=1e-4, work_s=4e-3,
                            memory_boundedness=0.0, demand_gbps=5.0),)

        def weights(busy, memo):
            return _counterfactual_weights(
                chunks, platform,
                [("t", ExternalLoad(busy=busy, demand_gbps=1.0))], memo,
            )

        fresh = [weights(busy, None) for busy in (ORDERED, REORDERED)]
        assert fresh[0] != fresh[1]  # the pair is order-sensitive
        memo = {}
        assert [weights(busy, memo)
                for busy in (ORDERED, REORDERED)] == fresh
        assert len(memo) == 2
