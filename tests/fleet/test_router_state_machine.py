"""Randomized interleavings of submissions and ticks on a stepped fleet.

A Hypothesis state machine opens a :class:`FleetRouter` under a chaos
schedule drawn by :meth:`ChaosSchedule.random` (crashes with rejoin,
gray failure, brownout), then interleaves synthetic submissions with
fleet ticks.  After every step the control-plane invariants must hold;
after ``close_stepped`` every tenant must be terminal.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.apps.synthetic import build_synthetic_application
from repro.fleet import ChaosSchedule, FleetConfig, FleetRouter, ShardSpec
from repro.fleet.health import CLOSED, HALF_OPEN, OPEN
from repro.serve.tenant import PENDING, RUNNING, TenantSpec

HORIZON = 24
APPS = [build_synthetic_application(seed=11 + i, stage_count=2)
        for i in range(3)]
LEGAL_BREAKER_MOVES = {
    (CLOSED, OPEN), (OPEN, HALF_OPEN), (HALF_OPEN, CLOSED),
    (HALF_OPEN, OPEN),
}
RATES = st.sampled_from([0.0, 0.5, 1.0])


class SteppedFleet(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.router = None
        self.tick = 0
        self.submitted = []

    @initialize(n_shards=st.integers(2, 3), seed=st.integers(0, 2**16),
                crash_rate=RATES, gray_rate=RATES, degrade_rate=RATES)
    def open_fleet(self, n_shards, seed, crash_rate, gray_rate,
                   degrade_rate):
        names = [f"s{i}" for i in range(n_shards)]
        chaos = ChaosSchedule.random(seed, names, HORIZON, crash_rate,
                                     gray_rate, degrade_rate)
        self.router = FleetRouter(
            [ShardSpec(name, platform_seed=7) for name in names],
            seed=seed, config=FleetConfig(max_ticks=HORIZON), chaos=chaos,
        )
        self.router.open_stepped()

    @rule(app=st.integers(0, len(APPS) - 1), windows=st.integers(1, 4),
          priority=st.integers(0, 2))
    def submit(self, app, windows, priority):
        name = f"t{len(self.submitted)}"
        self.router.submit(TenantSpec(
            name=name, application=APPS[app], windows=windows,
            window_tasks=4, priority=priority,
        ))
        self.submitted.append(name)

    @precondition(lambda self: self.tick < HORIZON)
    @rule()
    def step(self):
        self.router.step(self.tick)
        self.tick += 1

    @invariant()
    def live_placements_are_disjoint(self):
        for shard in self.router.shards:
            if not shard.alive:
                continue
            claimed = set()
            for partition in shard.server.placement.partitions.values():
                assert not claimed & partition
                claimed |= partition

    @invariant()
    def every_submission_is_tracked_exactly_once(self):
        inbox = [spec.name for spec in self.router._inbox]
        assert len(inbox) == len(set(inbox))
        for name in self.submitted:
            assert (name in inbox) + (name in self.router.tenants) == 1
        assert len(inbox) + len(self.router.tenants) == len(
            self.submitted)

    @invariant()
    def no_live_tenant_is_lost(self):
        # Pending means backlogged; running means on a live shard that
        # is serving it.
        for name, tenant in self.router.tenants.items():
            if tenant.status == PENDING:
                assert name in self.router._backlog, tenant
            elif tenant.status == RUNNING:
                shard = self.router.by_name[tenant.shard]
                assert shard.alive, tenant
                assert name in shard.server.running_records(), tenant

    @invariant()
    def breaker_transitions_are_legal(self):
        state = {shard.name: CLOSED for shard in self.router.shards}
        for entry in self.router.timeline:
            if entry["event"] != "breaker":
                continue
            move = (entry["frm"], entry["to"])
            assert move in LEGAL_BREAKER_MOVES, entry
            assert entry["frm"] == state[entry["shard"]], entry
            state[entry["shard"]] = entry["to"]
        for name, breaker in self.router.breakers.items():
            assert breaker.state == state[name]

    def teardown(self):
        if self.router is None:
            return
        report = self.router.close_stepped()
        assert set(report.tenants) == set(self.submitted)
        assert all(tenant.done for tenant in self.router.tenants.values())


TestSteppedFleet = SteppedFleet.TestCase
TestSteppedFleet.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None,
)
