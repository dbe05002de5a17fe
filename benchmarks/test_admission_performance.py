"""Benchmark guard: admission pricing is a memo lookup, not a re-pricing.

On the open-loop overload soak (8 shards, 192 ticks, 1.5x saturation)
the fleet router prices every backlog tenant against every shard on
every tick, but a shard's state only changes when a tenant is placed
or leaves.  Two memos make the repeats cheap: the admission
controller's per-shard-state decision memo and each cached plan's
per-schedule prediction memo.  Both gates are ratios measured in the
same run, never absolute seconds:

* the soak with both memos defeated takes at least 2x as long as the
  soak with them working;
* the uncached pricing path runs on at most 10% of evaluations.

The arrivals are recorded once and replayed by every run, so arrival
generation is outside the timed phase.
"""

import time

import pytest

from repro.serve.admission import AdmissionController
from repro.traffic import (
    FleetOverloadScenario,
    TrafficTrace,
    run_overload_soak,
)

from tests.serve.conftest import defeat_admission_memo

SCENARIO = FleetOverloadScenario(n_shards=8, ticks=192,
                                 load_multiplier=1.5)


@pytest.fixture(scope="module")
def trace():
    return TrafficTrace.record(SCENARIO.spec(), SCENARIO.seed)


def soak_seconds(trace):
    start = time.perf_counter()
    run_overload_soak(SCENARIO, admission=True, trace=trace)
    return time.perf_counter() - start


def test_memo_at_least_halves_the_soak(trace):
    memo_s, defeated_s = [], []
    for _ in range(2):
        memo_s.append(soak_seconds(trace))
        with pytest.MonkeyPatch.context() as patch:
            defeat_admission_memo(patch)
            defeated_s.append(soak_seconds(trace))
    ratio = min(defeated_s) / min(memo_s)
    print(f"\noverload soak: memo {min(memo_s):.3f} s, defeated "
          f"{min(defeated_s):.3f} s, ratio {ratio:.2f}x")
    assert ratio >= 2.0


def test_uncached_pricing_is_rare(trace, monkeypatch):
    calls = {"evaluate": 0, "price": 0}
    evaluate = AdmissionController.evaluate
    price = AdmissionController._price

    def counted_evaluate(self, *args, **kwargs):
        calls["evaluate"] += 1
        return evaluate(self, *args, **kwargs)

    def counted_price(self, *args, **kwargs):
        calls["price"] += 1
        return price(self, *args, **kwargs)

    monkeypatch.setattr(AdmissionController, "evaluate", counted_evaluate)
    monkeypatch.setattr(AdmissionController, "_price", counted_price)
    run_overload_soak(SCENARIO, admission=True, trace=trace)
    share = calls["price"] / calls["evaluate"]
    print(f"\n{calls['evaluate']} evaluations, {calls['price']} priced "
          f"({share:.1%})")
    assert calls["evaluate"] > 10_000
    assert share <= 0.10
