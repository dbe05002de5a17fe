"""The benchmark's four workloads, driven through public entry points.

Each workload turns the seed into a list of inputs.  For every input it
``setup``s fresh state (timed as set-up), ``run``s the flow on it (timed
as the measured phase; this includes serializing the flow's report into
the digest) and ``check``s the outcome (untimed).  ``quality`` computes
the workload's simulated headline number from the first run of each
input, also untimed.

See README.md for why each workload exists and what it should move.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Sequence

#: Stride between the seeds of one run's inputs, so that consecutive
#: ``--seed`` values share no input.
SEED_STRIDE = 100_003


@dataclass
class Result:
    """One measured run of one input."""

    digest: str
    #: Operations attempted, in the workload's unit.
    attempted: int
    #: Units of work served, for the throughput line of the report.
    work: int
    #: Host seconds per fleet tick (overload only).
    tick_s: List[float] = field(default_factory=list)
    #: Workload-specific outcome, read by ``check`` and ``quality``.
    data: object = None


@dataclass
class Workload:
    name: str
    #: Program modules timed as the workload's import cost.
    modules: Sequence[str]
    unit: str
    work_unit: str
    default_seed: int
    inputs: Callable[[int], List[int]]
    setup: Callable[[int], object]
    run: Callable[[object], Result]
    #: (state, result) -> (failed operations, list of failed checks)
    check: Callable[[object, Result], tuple]
    #: [(state, result) of each input] -> (quality ratio, report lines)
    quality: Callable[[list], tuple]


def _digest(payload: Dict[str, object]) -> str:
    import repro.serialization as serialization

    return serialization.artifact_sha256(payload)


def _derived_seeds(count: int) -> Callable[[int], List[int]]:
    return lambda seed: [seed + j * SEED_STRIDE for j in range(count)]


# ----------------------------------------------------------------------
# plan: the paper flow, 12 cells at paper scale
# ----------------------------------------------------------------------
def _plan_setup(seed: int):
    from repro.eval.experiments.common import (
        ExperimentScale,
        build_applications,
        evaluation_platforms,
    )

    scale = ExperimentScale.paper()
    return scale, build_applications(scale), evaluation_platforms(seed)


def _plan_run(state) -> Result:
    import repro.serialization as serialization
    from repro.core.framework import BetterTogether
    from repro.eval.experiments.common import APP_ORDER

    scale, applications, platforms = state
    plans = []
    for platform in platforms:
        framework = BetterTogether(
            platform, repetitions=scale.repetitions, k=scale.k,
            eval_tasks=scale.eval_tasks,
        )
        for app_name in APP_ORDER:
            plans.append((platform, applications[app_name],
                          framework.run(applications[app_name])))
    digest = _digest({"cells": [
        {
            "platform": platform.name,
            "app": application.name,
            "schedule": serialization.schedule_to_dict(plan.schedule),
            "optimization": serialization.optimization_to_dict(
                plan.optimization),
            "measured_latency_s": plan.measured_latency_s,
        }
        for platform, application, plan in plans
    ]})
    return Result(digest=digest, attempted=len(plans), work=len(plans),
                  data=plans)


def _plan_check(state, result: Result):
    from repro.core.schedule import validate_schedule
    from repro.errors import ScheduleValidationError

    failed, problems = 0, []
    for platform, application, plan in result.data:
        try:
            validate_schedule(
                plan.schedule, application,
                available_pus=platform.schedulable_classes(),
            )
        except ScheduleValidationError as error:
            failed += 1
            problems.append(f"{platform.name}/{application.name}: {error}")
    return failed, problems


def _plan_quality(runs):
    from repro.baselines.homogeneous import measure_baselines

    speedups = []
    for _, result in runs:
        for platform, application, plan in result.data:
            baseline = measure_baselines(application, platform,
                                         n_tasks=30)
            speedups.append(baseline.best_latency_s
                            / plan.measured_latency_s)
    geomean = math.exp(sum(math.log(s) for s in speedups) / len(speedups))
    return geomean, [
        f"speedup_geomean {geomean:.6f} x over {len(speedups)} cells "
        "(best homogeneous baseline / deployed measured latency)",
    ]


# ----------------------------------------------------------------------
# overload: open-loop traffic on the tick clock
# ----------------------------------------------------------------------
OVERLOAD_SHARDS = 8


def _overload_setup(seed: int):
    from repro.traffic.scenario import FleetOverloadScenario
    from repro.traffic.trace import TrafficTrace

    # The scenario's default saturation rate (1.1) is calibrated for 2
    # shards; 0.55 per shard keeps 1.5x meaning 1.5x saturation.
    scenario = FleetOverloadScenario(
        seed=seed, n_shards=OVERLOAD_SHARDS, ticks=192,
        load_multiplier=1.5,
        saturation_arrivals_per_tick=0.55 * OVERLOAD_SHARDS,
    )
    return scenario, TrafficTrace.record(scenario.spec(), seed)


def _overload_run(state) -> Result:
    from repro.traffic.scenario import run_overload_soak

    scenario, trace = state
    tick_s: List[float] = []
    last = [perf_counter()]

    def on_tick(entry) -> None:
        now = perf_counter()
        tick_s.append(now - last[0])
        last[0] = now

    run, report = run_overload_soak(scenario, trace=trace,
                                    on_tick=on_tick)
    return Result(digest=_digest(report.to_dict()),
                  attempted=report.arrivals, work=report.served_windows,
                  tick_s=tick_s, data=(run, report))


def _overload_check(state, result: Result):
    _, report = result.data
    problems = []
    if report.admitted + report.rejected != report.arrivals:
        problems.append(
            f"admitted {report.admitted} + rejected {report.rejected} "
            f"!= arrivals {report.arrivals}")
    if not (report.goodput_windows <= report.served_windows
            <= report.offered_windows):
        problems.append(
            f"goodput {report.goodput_windows} <= served "
            f"{report.served_windows} <= offered "
            f"{report.offered_windows} does not hold")
    return (report.arrivals if problems else 0), problems


def _overload_quality(runs):
    from repro.obs.metrics import percentile

    reports = [result.data[1] for _, result in runs]
    gold = [sample.slowdown for _, result in runs
            for sample in result.data[0].samples if sample.tier == "gold"]
    ticks = [t for _, result in runs for t in result.tick_s]
    arrivals = sum(r.arrivals for r in reports)
    goodput = sum(r.goodput_tasks for r in reports) / len(reports)
    attainment = (sum(r.goodput_windows for r in reports)
                  / sum(r.offered_windows for r in reports))
    return attainment, [
        f"slo_attainment {attainment:.6f} (goodput windows / offered "
        "windows; refused tenants' windows count as misses)",
        f"goodput_tasks {goodput:.1f} tasks per soak",
        f"gold_p99_slowdown {percentile(gold, 99):.6f} x "
        f"(n={len(gold)} gold windows, SLO 1.18)",
        f"reject_rate {sum(r.rejected for r in reports) / arrivals:.6f} "
        f"(rejected / arrivals, n={arrivals})",
        f"tick_p50_ms {percentile(ticks, 50) * 1e3:.3f} ms, "
        f"tick_p90_ms {percentile(ticks, 90) * 1e3:.3f} ms "
        f"(host time per fleet tick, n={len(ticks)})",
    ]


# ----------------------------------------------------------------------
# chaos: closed population on a 64-shard fleet under chaos
# ----------------------------------------------------------------------
def _chaos_setup(seed: int):
    from repro.fleet.scenario import FleetSoakScenario, build_fleet
    from repro.obs.alerts import BurnRateRule

    scenario = FleetSoakScenario(seed=seed, n_shards=64, n_tenants=192)
    return scenario, build_fleet(scenario, attribution=True,
                                 burn=BurnRateRule())


def _chaos_run(state) -> Result:
    scenario, router = state
    report = router.run(timeout_s=600.0)
    windows = sum(int(shard["windows_served"])
                  for shard in report.shards.values())
    return Result(digest=_digest(report.to_dict()),
                  attempted=scenario.n_tenants, work=windows, data=report)


def _chaos_check(state, result: Result):
    from repro.fleet.tenant import FLEET_TERMINAL_STATES

    scenario, _ = state
    report = result.data
    lost = [name for name, tenant in report.tenants.items()
            if tenant.status not in FLEET_TERMINAL_STATES]
    problems = [f"tenant {name} ended in no terminal state"
                for name in lost]
    terminal = len(report.tenants) - len(lost)
    if terminal != scenario.n_tenants:
        problems.append(f"{terminal} of {scenario.n_tenants} submitted "
                        "tenants ended in a terminal state")
    return max(0, scenario.n_tenants - terminal), problems


def _chaos_quality(runs):
    import statistics

    from repro.serve.tenant import COMPLETED

    reports = [result.data for _, result in runs]
    submitted = sum(len(r.tenants) for r in reports)
    survived = sum(1 for r in reports for t in r.tenants.values()
                   if t.status == COMPLETED)
    survival = survived / submitted
    p95 = statistics.median(r.surviving_p95_slowdown for r in reports)
    return survival, [
        f"tenant_survival {survival:.6f} (completed / submitted, "
        f"n={submitted})",
        f"surviving_p95_slowdown {p95:.6f} x (median over "
        f"{len(reports)} soaks)",
    ]


# ----------------------------------------------------------------------
# analysis: lint + flow over src/ with a cold AST cache
# ----------------------------------------------------------------------
def _analysis_setup(seed: int):
    from repro.analysis.astcache import AstCache

    return AstCache()


def _analysis_run(src: Path, cache) -> Result:
    import repro.analysis.flow as flow
    import repro.analysis.linter as linter

    lint = linter.lint_paths([src], cache=cache)
    report = flow.analyze_paths([src], cache=cache)
    return Result(
        digest=_digest({"lint": lint.to_dict(), "flow": report.to_dict()}),
        attempted=lint.files_checked, work=lint.files_checked,
        data=(lint, report),
    )


def _dirty_files(result: Result) -> set:
    lint, report = result.data
    return {f.path for f in lint.findings} | {f.path for f in report.findings}


def _analysis_check(state, result: Result):
    lint, report = result.data
    dirty = _dirty_files(result)
    problems = [f"{len(lint.findings)} lint and {len(report.findings)} "
                "flow findings"] if dirty else []
    if lint.files_checked != report.files_checked:
        problems.append(f"lint checked {lint.files_checked} files, flow "
                        f"{report.files_checked}")
    return len(dirty), problems


def _analysis_quality(runs):
    _, result = runs[0]
    files = result.data[0].files_checked
    clean = 1.0 - len(_dirty_files(result)) / files
    return clean, [f"clean_share {clean:.6f} of {files} files (both tools "
                   "clean)"]


def build(src: Path) -> Dict[str, Workload]:
    """The workloads by name; ``src`` is the program's source tree."""
    return {w.name: w for w in (
        Workload(
            name="plan",
            modules=("repro.core.framework",
                     "repro.eval.experiments.common",
                     "repro.baselines.homogeneous"),
            unit="cells", work_unit="cells", default_seed=2025,
            inputs=lambda seed: [seed],
            setup=_plan_setup, run=_plan_run, check=_plan_check,
            quality=_plan_quality,
        ),
        Workload(
            name="overload",
            modules=("repro.traffic.scenario", "repro.traffic.trace"),
            unit="arrivals", work_unit="windows", default_seed=7,
            inputs=_derived_seeds(5),
            setup=_overload_setup, run=_overload_run,
            check=_overload_check, quality=_overload_quality,
        ),
        Workload(
            name="chaos",
            modules=("repro.fleet.scenario", "repro.obs.alerts"),
            unit="tenants", work_unit="windows", default_seed=7,
            inputs=_derived_seeds(10),
            setup=_chaos_setup, run=_chaos_run, check=_chaos_check,
            quality=_chaos_quality,
        ),
        Workload(
            name="analysis",
            modules=("repro.analysis.linter", "repro.analysis.flow"),
            unit="files", work_unit="files", default_seed=7,
            # The source tree is the input; the seed does not change it.
            inputs=lambda seed: [seed],
            setup=_analysis_setup,
            run=lambda cache: _analysis_run(src, cache),
            check=_analysis_check, quality=_analysis_quality,
        ),
    )}
