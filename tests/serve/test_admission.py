"""Admission controller: admit/queue/reject and the impact ceiling."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.synthetic import build_synthetic_application
from repro.core.schedule import Schedule
from repro.errors import ServeError
from repro.serve import (
    ADMIT,
    QUEUE,
    REJECT,
    RUNNING,
    AdmissionController,
    DriftSpec,
    PipelineServer,
    PlacementMap,
    ServerConfig,
    TenantRecord,
    TenantSpec,
)

from tests.serve.conftest import single_class_schedule


def controller(platform, plan_cache, **kwargs):
    return AdmissionController(platform, plan_cache, **kwargs)


def spec(app, name="job", **kwargs):
    return TenantSpec(name=name, application=app, **kwargs)


def running_tenant(pmap, plan, app, name, pu_class):
    """Install one running tenant holding a single-class partition."""
    schedule = single_class_schedule(plan, pu_class)
    partition = pmap.assign(name, app, schedule)
    return TenantRecord(
        spec=TenantSpec(name=name, application=app),
        status=RUNNING,
        plan=plan,
        schedule=schedule,
        partition=partition,
    )


class TestValidation:
    def test_negative_queue_capacity(self, platform, plan_cache):
        with pytest.raises(ServeError, match="queue_capacity"):
            controller(platform, plan_cache, queue_capacity=-1)

    def test_sub_unity_impact_ceiling(self, platform, plan_cache):
        with pytest.raises(ServeError, match="max_impact_ratio"):
            controller(platform, plan_cache, max_impact_ratio=0.9)

    def test_zero_partition_cap(self, platform, plan_cache):
        with pytest.raises(ServeError, match="max_partition_classes"):
            controller(platform, plan_cache, max_partition_classes=0)


class TestEmptySoC:
    def test_admits_onto_free_pus(self, platform, plan_cache, app):
        pmap = PlacementMap(platform.schedulable_classes())
        decision = controller(platform, plan_cache).evaluate(
            spec(app), pmap, running={}, queued=0,
        )
        assert decision.action == ADMIT
        assert decision.candidate is not None
        assert decision.predicted_latency_s > 0.0

    def test_unschedulable_required_class_rejected(
        self, platform, plan_cache, app
    ):
        pmap = PlacementMap(platform.schedulable_classes())
        decision = controller(platform, plan_cache).evaluate(
            spec(app, required_classes={"npu9000"}),
            pmap, running={}, queued=0,
        )
        assert decision.action == REJECT
        assert "not schedulable" in decision.reason

    def test_required_wider_than_cap_rejected(
        self, platform, plan_cache, app
    ):
        pmap = PlacementMap(platform.schedulable_classes())
        decision = controller(
            platform, plan_cache, max_partition_classes=1,
        ).evaluate(
            spec(app, required_classes={"big", "gpu"}),
            pmap, running={}, queued=0,
        )
        assert decision.action == REJECT
        assert "partition cap" in decision.reason

    def test_required_class_honoured(self, platform, plan_cache, app):
        pmap = PlacementMap(platform.schedulable_classes())
        decision = controller(platform, plan_cache).evaluate(
            spec(app, required_classes={"gpu"}),
            pmap, running={}, queued=0,
        )
        assert decision.action == ADMIT
        assert "gpu" in set(
            decision.candidate.schedule.pu_classes_used
        )

    def test_preference_biases_the_choice(
        self, platform, plan_cache, app
    ):
        pmap = PlacementMap(platform.schedulable_classes())
        decision = controller(
            platform, plan_cache, max_partition_classes=1,
        ).evaluate(
            spec(app, preferred_classes={"little"}),
            pmap, running={}, queued=0,
        )
        assert decision.action == ADMIT
        assert set(decision.candidate.schedule.pu_classes_used) == {
            "little"
        }


class TestContention:
    def test_held_required_class_queues(
        self, platform, plan_cache, plan, app
    ):
        pmap = PlacementMap(platform.schedulable_classes())
        holder = running_tenant(pmap, plan, app, "holder", "gpu")
        decision = controller(
            platform, plan_cache, queue_capacity=2,
        ).evaluate(
            spec(app, name="late", required_classes={"gpu"}),
            pmap, running={"holder": holder}, queued=0,
        )
        assert decision.action == QUEUE
        assert "no-oversubscription" in decision.reason

    def test_full_queue_turns_into_backpressure_reject(
        self, platform, plan_cache, plan, app
    ):
        pmap = PlacementMap(platform.schedulable_classes())
        holder = running_tenant(pmap, plan, app, "holder", "gpu")
        decision = controller(
            platform, plan_cache, queue_capacity=0,
        ).evaluate(
            spec(app, name="late", required_classes={"gpu"}),
            pmap, running={"holder": holder}, queued=0,
        )
        assert decision.action == REJECT
        assert "backpressure queue is full" in decision.reason

    def test_impact_ceiling_defers_harmful_admissions(
        self, platform, plan_cache, plan, app
    ):
        pmap = PlacementMap(platform.schedulable_classes())
        holder = running_tenant(pmap, plan, app, "holder", "big")
        # A ceiling of exactly 1.0 forbids any predicted slowdown, so
        # any admission touching the co-tenant's "other" PUs defers.
        decision = controller(
            platform, plan_cache, queue_capacity=4,
            max_impact_ratio=1.0,
        ).evaluate(
            spec(app, name="late"),
            pmap, running={"holder": holder}, queued=0,
        )
        assert decision.action == QUEUE
        assert "impact ceiling" in decision.reason

    def test_admission_reports_predicted_impact(
        self, platform, plan_cache, plan, app
    ):
        pmap = PlacementMap(platform.schedulable_classes())
        holder = running_tenant(pmap, plan, app, "holder", "big")
        decision = controller(platform, plan_cache).evaluate(
            spec(app, name="late"),
            pmap, running={"holder": holder}, queued=0,
        )
        assert decision.action == ADMIT
        assert decision.predicted_impact["holder"] >= 1.0

    def test_cumulative_impact_accumulates_across_admissions(
        self, platform, plan_cache, plan, app
    ):
        """Cumulative pricing counts incumbents' busy classes, so the
        same newcomer weighs more on a fuller SoC; incremental pricing
        is indifferent to how packed the shard already is."""
        sparse = PlacementMap(platform.schedulable_classes())
        holder_a = running_tenant(sparse, plan, app, "holder", "big")
        dense = PlacementMap(platform.schedulable_classes())
        holder_b = running_tenant(dense, plan, app, "holder", "big")
        other = running_tenant(dense, plan, app, "other", "medium")

        def worst(ctrl, pmap, running):
            decision = ctrl.evaluate(
                spec(app, name="late", required_classes={"little"}),
                pmap, running=running, queued=0,
            )
            assert decision.action == ADMIT
            return decision.predicted_impact["holder"]

        cumulative = controller(
            platform, plan_cache, cumulative_impact=True,
            max_impact_ratio=10.0,
        )
        incremental = controller(
            platform, plan_cache, max_impact_ratio=10.0,
        )
        assert worst(cumulative, dense, {
            "holder": holder_b, "other": other,
        }) > worst(cumulative, sparse, {"holder": holder_a})
        # The incremental model sees the same marginal contribution
        # either way.
        sparse2 = PlacementMap(platform.schedulable_classes())
        holder_c = running_tenant(sparse2, plan, app, "holder", "big")
        dense2 = PlacementMap(platform.schedulable_classes())
        holder_d = running_tenant(dense2, plan, app, "holder", "big")
        other_d = running_tenant(dense2, plan, app, "other", "medium")
        assert worst(incremental, dense2, {
            "holder": holder_d, "other": other_d,
        }) == pytest.approx(
            worst(incremental, sparse2, {"holder": holder_c})
        )


# ----------------------------------------------------------------------
# The decision memo: a long-lived controller must decide exactly as a
# fresh one would, whatever happened to the shard in between.
# ----------------------------------------------------------------------
def summary(decision):
    """Every field of a decision, impact order included."""
    return (
        decision.action,
        decision.reason,
        None if decision.candidate is None else decision.candidate.rank,
        decision.predicted_latency_s,
        list(decision.predicted_impact.items()),
    )


def fresh_twin(controller):
    """An empty-memo controller with the same knobs."""
    return AdmissionController(
        controller.platform, controller.plan_cache,
        queue_capacity=controller.queue_capacity,
        max_impact_ratio=controller.max_impact_ratio,
        max_partition_classes=controller.max_partition_classes,
        cumulative_impact=controller.cumulative_impact,
    )


def assert_matches_fresh(controller, probes, placement, running, queued):
    """Each probe, priced twice (miss, then hit), equals a fresh pricing."""
    twin = fresh_twin(controller)
    for probe in probes:
        want = summary(twin.evaluate(probe, placement, running, queued))
        for _ in range(2):
            got = controller.evaluate(probe, placement, running, queued)
            assert summary(got) == want, probe


@pytest.fixture(scope="module")
def apps(plan_cache, app):
    other = build_synthetic_application(seed=12, stage_count=3)
    plan_cache.plan_for(other)
    return (app, other)


def probe_specs(apps):
    return [
        TenantSpec(name="probe", application=application,
                   required_classes=required,
                   preferred_classes=preferred)
        for application in apps
        for required in (frozenset(), frozenset({"gpu"}))
        for preferred in (frozenset(), frozenset({"little"}))
    ]


def resplits(schedule):
    """Every schedule over the same PU classes, in the same order, with
    other chunk boundaries: a reschedule that keeps the partition."""
    classes = schedule.pu_classes_used
    n = schedule.num_stages
    out = []
    for cuts in itertools.combinations(range(1, n), len(classes) - 1):
        bounds = (0,) + cuts + (n,)
        out.append(Schedule.from_assignments([
            pu_class for i, pu_class in enumerate(classes)
            for _ in range(bounds[i], bounds[i + 1])
        ]))
    return out


class TestDecisionMemo:
    def test_repeat_evaluation_returns_the_same_decision(
        self, platform, plan_cache, app
    ):
        ctrl = controller(platform, plan_cache)
        pmap = PlacementMap(platform.schedulable_classes())
        first = ctrl.evaluate(spec(app), pmap, running={}, queued=0)
        again = ctrl.evaluate(spec(app, name="other"), pmap,
                              running={}, queued=0)
        assert again is first

    def test_plan_cache_consulted_on_every_evaluation(
        self, platform, plan_cache, app
    ):
        ctrl = controller(platform, plan_cache)
        pmap = PlacementMap(platform.schedulable_classes())
        before = plan_cache.stats()
        for _ in range(3):
            ctrl.evaluate(spec(app), pmap, running={}, queued=0)
        after = plan_cache.stats()
        assert after["hits"] - before["hits"] == 3
        assert after["misses"] == before["misses"]

    def test_schedule_change_within_a_partition_reprices(
        self, platform, plan_cache, plan, app
    ):
        """An incumbent rescheduled onto the same PU classes changes
        its contention span, so the memo must not serve the old
        decision."""
        first, second = resplits(
            Schedule.from_assignments(("big", "big", "gpu")))
        assert (plan.contention_span(first)
                != plan.contention_span(second))
        pmap = PlacementMap(platform.schedulable_classes())
        partition = pmap.assign("holder", app, first)
        holder = TenantRecord(
            spec=TenantSpec(name="holder", application=app),
            status=RUNNING, plan=plan, schedule=first,
            partition=partition,
        )
        running = {"holder": holder}
        ctrl = controller(platform, plan_cache, max_impact_ratio=10.0)
        before = ctrl.evaluate(spec(app, name="late"), pmap, running, 0)
        pmap.reassign("holder", app, second)
        holder.schedule = second
        assert pmap.partition_of("holder") == partition
        after = ctrl.evaluate(spec(app, name="late"), pmap, running, 0)
        assert summary(after) != summary(before)
        assert summary(after) == summary(fresh_twin(ctrl).evaluate(
            spec(app, name="late"), pmap, running, 0))


OPS = st.one_of(
    st.tuples(st.just("admit"), st.integers(0, 1), st.booleans(),
              st.booleans()),
    st.tuples(st.just("submit"), st.integers(0, 1), st.booleans()),
    st.tuples(st.just("withdraw"), st.integers(0, 7)),
    st.tuples(st.just("reschedule"), st.integers(0, 7),
              st.integers(0, 31)),
    st.tuples(st.just("drift"), st.sampled_from(
        ["little", "medium", "big", "gpu"])),
    st.tuples(st.just("step")),
)


class TestDecisionMemoProperty:
    @settings(max_examples=100, deadline=None)
    @given(
        ops=st.lists(OPS, min_size=1, max_size=20),
        cumulative=st.booleans(),
        ceiling=st.sampled_from([1.0, 1.2, 1.5]),
        cap=st.sampled_from([None, 1, 2]),
    )
    def test_long_lived_controller_matches_fresh(
        self, platform, plan_cache, apps, ops, cumulative, ceiling, cap
    ):
        """Random admit / submit / release / withdraw / reschedule
        (partition kept or moved) / drift sequences on a stepped
        server: after every operation the server's own memo-warm
        controller decides every probe exactly as a fresh one does."""
        server = PipelineServer(platform, seed=3, plan_cache=plan_cache,
                                config=ServerConfig(
                                    queue_capacity=2,
                                    max_impact_ratio=ceiling,
                                    max_partition_classes=cap,
                                    cumulative_impact=cumulative,
                                ))
        server.open_stepped()
        probes = probe_specs(apps)
        tick = 0
        for index, op in enumerate(ops):
            running = server.running_records()
            if op[0] == "admit":
                server.try_admit(TenantSpec(
                    name=f"t{index}", application=apps[op[1]],
                    windows=2,
                    required_classes={"gpu"} if op[2] else (),
                    preferred_classes={"little"} if op[3] else (),
                ), tick)
            elif op[0] == "submit":
                server.submit(TenantSpec(
                    name=f"t{index}", application=apps[op[1]],
                    windows=3,
                    preferred_classes={"big"} if op[2] else (),
                ))
            elif op[0] == "withdraw" and running:
                name = list(running)[op[1] % len(running)]
                server.withdraw(name, "test", tick)
            elif op[0] == "reschedule" and running:
                # What the drift reaction does on a SWITCH: swap the
                # schedule (and partition, if it changes) in place.
                record = list(running.values())[op[1] % len(running)]
                room = (server.placement.free_classes()
                        | record.partition)
                pool = resplits(record.schedule) + [
                    c.schedule for c in record.candidates
                    if set(c.schedule.pu_classes_used) <= room
                ]
                schedule = pool[op[2] % len(pool)]
                record.partition = server.placement.reassign(
                    record.name, record.spec.application, schedule,
                )
                record.schedule = schedule
            elif op[0] == "drift":
                server.inject_drift(DriftSpec(
                    start_tick=tick, end_tick=tick + 2,
                    busy={op[1]: 0.9}, demand_gbps=4.0,
                ))
            elif op[0] == "step":
                server.step(tick)
                tick += 1
            running = server.running_records()
            for queued in (0, 2):
                assert_matches_fresh(server.admission, probes,
                                     server.placement, running, queued)
        server.close_stepped()
