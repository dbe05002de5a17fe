"""Solver scalability: invocation cost as the pipeline grows.

The paper sizes its search-space discussion at N = 9 stages, M = 4 PU
classes (4^9 ~ 262K raw assignments).  This benchmark sweeps N on
synthetic pipelines to show how the enumerated C1 + C2 schedule space and
the per-invocation scans over it scale - the practical question for
anyone feeding BetterTogether a longer pipeline.
"""

import time

import pytest

from repro.apps import build_synthetic_application
from repro.core.optimizer import BTOptimizer
from repro.core.profiler import BTProfiler
from repro.soc import get_platform

STAGE_COUNTS = (4, 6, 9, 12)


@pytest.fixture(scope="module")
def tables():
    platform = get_platform("pixel7a")
    profiler = BTProfiler(platform, repetitions=2)
    out = {}
    for n in STAGE_COUNTS:
        app = build_synthetic_application(seed=42, stage_count=n)
        out[n] = (
            app,
            profiler.profile(app).restricted(
                platform.schedulable_classes()
            ),
        )
    return out


def test_solver_scaling_with_stage_count(benchmark, tables):
    def sweep():
        results = {}
        for n, (app, table) in tables.items():
            start = time.perf_counter()
            optimizer = BTOptimizer(app, table, k=5)
            optimization = optimizer.optimize()
            results[n] = (
                time.perf_counter() - start,
                optimization.solver_invocations,
                len(optimization.candidates),
            )
        return results

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print("\nstages -> total wall, invocations, candidates:")
    for n, (wall, invocations, candidates) in sorted(results.items()):
        print(f"  N={n:2d}: {wall * 1e3:8.1f} ms over {invocations} "
              f"invocations, {candidates} candidates")
    # The paper-scale case stays comfortably interactive (~4 ms: the
    # space holds 2,116 schedules).
    assert results[9][0] < 0.5
    # And the 12-stage case (5,416 schedules, ~11 ms) stays well inside
    # a second.
    assert results[12][0] < 2.0
    for n in STAGE_COUNTS:
        assert results[n][2] >= 1
