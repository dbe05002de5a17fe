"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload plan --seed 2025 --seconds 20 --trace 0

Workloads: ``plan``, ``overload``, ``chaos``, ``analysis`` (README.md
says why each exists).  The run repeats whole passes over the inputs
the seed derives until another pass would overrun ``--seconds``; it
always makes at least one.  With ``--trace 0`` the last line of stdout
is a JSON object carrying the end-to-end metrics; with ``--trace 1``
every input also runs a second time under the per-layer wrappers of
``layers.py`` and the JSON carries the per-layer metrics instead.  The
lines before it are a human-readable report.

Exit status: 0 after printing a result (``correct`` says whether every
check passed), 2 when the program's source tree is missing.
"""

from __future__ import annotations

import argparse
import compileall
import gc
import hashlib
import importlib
import json
import resource
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Fewest fresh interpreters whose import time is measured.  One is
#: measured after each input run, spread over the whole run so that a
#: busy moment on the host touches few of them; setup_s takes the
#: median.
IMPORT_SAMPLES = 9

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "quality_ratio": "ratio",
}

LAYER_METRICS = {
    "profiler.s": "s",
    "optimizer.s": "s",
    "optimizer.calls": "count",
    "solver.invocations": "count",
    "autotuner.s": "s",
    "autotuner.measured": "count",
    "autotuner.top1_rate": "ratio",
    "plan_cache.s": "s",
    "plan_cache.hits": "count",
    "plan_cache.misses": "count",
    "sim.s": "s",
    "sim.batches": "count",
    "sim.windows": "count",
    "sim.windows_per_batch": "ratio",
    "admission.s": "s",
    "admission.evals": "count",
    "admission.evals_per_admit": "ratio",
    "router.choose_shard.self_s": "s",
    "router.tick.self_s": "s",
    "router.tick.p50_ms": "ms",
    "router.tick.p90_ms": "ms",
    "router.failovers": "count",
    "traffic.generate.s": "s",
    "traffic.driver.self_s": "s",
    "traffic.evaluate.s": "s",
    "attribution.s": "s",
    "attribution.calls": "count",
    "serialize.s": "s",
    "lint.s": "s",
    "flow.s": "s",
    "analysis.files": "count",
    "other.s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.covered_share": "ratio",
}

#: Per-layer metric -> self-time key in LayerClock.
SELF_TIME = {
    "profiler.s": "profiler",
    "optimizer.s": "optimizer",
    "autotuner.s": "autotuner",
    "plan_cache.s": "plan_cache",
    "sim.s": "sim",
    "admission.s": "admission",
    "router.choose_shard.self_s": "router.choose_shard",
    "router.tick.self_s": "router.tick",
    "traffic.driver.self_s": "traffic.driver",
    "traffic.evaluate.s": "traffic.evaluate",
    "attribution.s": "attribution",
    "serialize.s": "serialize",
    "lint.s": "lint",
    "flow.s": "flow",
}


def _timed(fn, *args):
    gc.collect()
    start = perf_counter()
    value = fn(*args)
    return value, perf_counter() - start


def _import_seconds(modules) -> float:
    """Seconds a fresh interpreter takes to import ``modules``."""
    code = (
        "import importlib, sys, time\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "start = time.perf_counter()\n"
        f"for name in {list(modules)!r}:\n"
        "    importlib.import_module(name)\n"
        "print(time.perf_counter() - start)\n"
    )
    done = subprocess.run([sys.executable, "-c", code], check=True,
                          capture_output=True, text=True, timeout=120)
    return float(done.stdout)


def _middle_mean(samples) -> float:
    """Mean of the middle half of ``samples``.

    As robust as a median to a slow outlier, but it does not jump
    between the two modes that per-soak times of the threaded chaos
    workload fall into.
    """
    ordered = sorted(samples)
    cut = len(ordered) // 4
    return statistics.fmean(ordered[cut:len(ordered) - cut])


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _layer_metrics(clock, runs: int, traced_wall: float,
                   untraced_wall: float, generate_s: float) -> dict:
    """Per-run means of what ``clock`` recorded over ``runs`` runs."""
    from repro.obs.metrics import percentile

    counts = clock.counts
    hits = sum(cache.stats()["hits"] for cache in clock.plan_caches)
    misses = sum(cache.stats()["misses"] for cache in clock.plan_caches)
    batched = counts["sim.batched_windows"]
    ticks = clock.samples["router.tick"]
    values = {name: clock.self_s[key] / runs
              for name, key in SELF_TIME.items()}
    covered = sum(values.values())
    values.update({
        "optimizer.calls": clock.calls["optimizer"] / runs,
        "solver.invocations": counts["solver.invocations"] / runs,
        "autotuner.measured": counts["autotuner.measured"] / runs,
        "autotuner.top1_rate": _ratio(counts["autotuner.top1"],
                                      clock.calls["autotuner"]),
        "plan_cache.hits": hits / runs,
        "plan_cache.misses": misses / runs,
        "sim.batches": counts["sim.batches"] / runs,
        "sim.windows": (batched + counts["sim.unbatched_windows"]) / runs,
        "sim.windows_per_batch": _ratio(batched, counts["sim.batches"]),
        "admission.evals": clock.calls["admission"] / runs,
        "admission.evals_per_admit": _ratio(clock.calls["admission"],
                                            counts["admission.admits"]),
        "router.tick.p50_ms": percentile(ticks, 50) * 1e3 if ticks else 0.0,
        "router.tick.p90_ms": percentile(ticks, 90) * 1e3 if ticks else 0.0,
        "router.failovers": counts["router.failovers"] / runs,
        "traffic.generate.s": generate_s / runs,
        "attribution.calls": clock.calls["attribution"] / runs,
        "analysis.files": counts["analysis.files"] / runs,
        "other.s": traced_wall - covered,
        "trace.wall_s": traced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.covered_share": _ratio(covered, traced_wall),
    })
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("plan", "overload", "chaos", "analysis"))
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC / 'repro'}",
              file=sys.stderr)
        return 2
    # Warm the bytecode cache first, so that the timed imports load
    # bytecode on every run, including the first in a fresh checkout.
    compileall.compile_dir(str(SRC / "repro"), quiet=2)
    sys.path.insert(0, str(SRC))

    import layers
    import workloads

    workload = workloads.build(SRC)[args.workload]
    seed = workload.default_seed if args.seed is None else args.seed
    for module in workload.modules:
        importlib.import_module(module)

    clock = layers.LayerClock()
    if args.trace:
        layers.install(clock)

    inputs = workload.inputs(seed)
    if args.trace:
        # Each input runs twice when traced; half the inputs keep the
        # traced run as long as an untraced one.
        inputs = inputs[:max(1, len(inputs) // 2)]
    first = {}            # input -> (state, result) of its first run
    setup_s, wall_s, import_s, problems = [], [], [], []
    traced_s, generate_s = [], 0.0
    attempted = failed = work = 0
    began = perf_counter()
    passes = 0
    while True:
        for key in inputs:
            state, elapsed = _timed(workload.setup, key)
            setup_s.append(elapsed)
            result, elapsed = _timed(workload.run, state)
            wall_s.append(elapsed)
            work += result.work
            if not args.trace:
                import_s.append(_import_seconds(workload.modules))
            runs = [(state, result)]
            if args.trace:
                # Layer time spent in set-up (arrival generation) is
                # kept apart from the measured phase's.
                clock.active = True
                measured, clock.self_s = clock.self_s, defaultdict(float)
                traced_state = workload.setup(key)
                generate_s += clock.self_s["traffic.generate"]
                clock.self_s = measured
                traced, elapsed = _timed(workload.run, traced_state)
                clock.active = False
                traced_s.append(elapsed)
                runs.append((traced_state, traced))
            for run_state, run in runs:
                lost, why = workload.check(run_state, run)
                attempted += run.attempted
                failed += lost
                problems += why
                if run.digest != result.digest or (
                        key in first and run.digest != first[key][1].digest):
                    failed += run.attempted
                    problems.append(f"input {key}: report digest differs "
                                    "between runs of the same input")
            first.setdefault(key, (state, result))
        passes += 1
        elapsed = perf_counter() - began
        if elapsed + elapsed / passes > args.seconds:
            break

    quality, report = workload.quality([first[key] for key in inputs])
    digest = hashlib.sha256("".join(
        first[key][1].digest for key in inputs).encode()).hexdigest()

    print(f"workload {args.workload} seed {seed}: {len(inputs)} inputs x "
          f"{passes} passes, {attempted} {workload.unit} attempted, "
          f"{failed} failed, digest {digest[:16]}")
    report.append(f"{workload.work_unit}_per_s "
                  f"{work / sum(wall_s):.3f} per host s (tracing off)")
    for line in report + problems:
        print(f"  {line}")

    if args.trace:
        metrics = _layer_metrics(
            clock, len(traced_s), statistics.fmean(traced_s),
            statistics.fmean(wall_s), generate_s)
        units = LAYER_METRICS
    else:
        while len(import_s) < IMPORT_SAMPLES:
            import_s.append(_import_seconds(workload.modules))
        metrics = {
            "setup_s": (statistics.median(import_s)
                        + statistics.median(setup_s)),
            "wall_s": _middle_mean(wall_s),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "quality_ratio": quality,
        }
        units = E2E_UNITS
    for name, unit in units.items():
        print(f"  {name} = {metrics[name]:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
