"""Shared fixtures for the serving-layer tests.

Profiling is the expensive step, so the plan cache and its artifacts
are built once per test session and shared read-only.
"""

import pytest

from repro.apps.synthetic import build_synthetic_application
from repro.core.plan_cache import PlanCache
from repro.soc import get_platform


@pytest.fixture(scope="session")
def platform():
    return get_platform("pixel7a", seed=7)


@pytest.fixture(scope="session")
def plan_cache(platform):
    return PlanCache(platform, repetitions=3, k=8)


@pytest.fixture(scope="session")
def app():
    return build_synthetic_application(seed=11, stage_count=3)


@pytest.fixture(scope="session")
def plan(plan_cache, app):
    return plan_cache.plan_for(app)


def single_class_schedule(plan, pu_class):
    """The packing candidate pinned to one PU class."""
    for candidate in plan.optimization.candidates:
        if set(candidate.schedule.pu_classes_used) == {pu_class}:
            return candidate.schedule
    raise AssertionError(f"no single-class candidate for {pu_class!r}")


def defeat_admission_memo(monkeypatch):
    """Turn off both admission-pricing memos for the patch's lifetime:
    every evaluation prices from scratch (its shard-state key never
    matches the last one) and every plan prediction re-sums its
    profiling table."""
    from repro.core.plan_cache import CachedPlan
    from repro.serve.admission import AdmissionController

    monkeypatch.setattr(AdmissionController, "_state_key",
                        lambda self, placement, running, queued: object())
    monkeypatch.setattr(
        CachedPlan, "_predict",
        lambda self, memo, table, schedule: schedule.predicted_latency(
            self.application, table),
    )


def defeat_window_memo(monkeypatch):
    """Make every serving session's window memo forget what it is
    told for the patch's lifetime: every window is simulated, every
    cost table built and every blame weight replayed from scratch."""
    from repro.runtime.simulator import WindowMemo

    class Forgetful(dict):
        def __setitem__(self, key, value):
            pass

    init = WindowMemo.__init__

    def forgetful_init(self, platform):
        init(self, platform)
        self.windows, self.costs, self.weights = (
            Forgetful(), Forgetful(), Forgetful())

    monkeypatch.setattr(WindowMemo, "__init__", forgetful_init)
