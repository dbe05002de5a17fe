"""Per-layer wall-clock accounting for the traced benchmark run.

The wrappers are installed from the benchmark's side: each one replaces
a public function or method at the name its callers look it up and
charges the elapsed time of each call to a layer.  Nothing in ``src/``
changes.

* A layer's *self* time is its inclusive time minus the time of wrapped
  calls nested inside it on the same thread.
* A call into a layer that is already open on the thread (re-entrant,
  e.g. ``SimulatedPipelineExecutor.run`` inside ``simulate_batch``) is
  passed through and counts once, as part of the outer call.
* Call stacks are per thread, so the fleet's supervised ``fleet-loop``
  thread is attributed exactly like the main thread.
"""

from __future__ import annotations

import functools
import threading
from collections import Counter, defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional

#: ``after`` hooks receive (positional args, result, elapsed seconds).
After = Callable[[tuple, object, float], None]


class LayerClock:
    """Accumulates self time, call counts and named counters per layer
    while :attr:`active` is set; passes calls straight through
    otherwise."""

    def __init__(self) -> None:
        self.active = False
        self._local = threading.local()
        self._lock = threading.Lock()
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self.plan_caches: List[object] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, n: float = 1) -> None:
        with self._lock:
            self.counts[name] += n

    def patch(self, owner: object, name: str, layer: Optional[str],
              after: Optional[After] = None) -> None:
        """Replace ``owner.name`` with a timing wrapper.

        ``layer=None`` installs a count-only hook: the call is not
        timed (its time stays with the enclosing layer) and only
        ``after`` runs.
        """
        original = getattr(owner, name)
        clock = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not clock.active:
                return original(*args, **kwargs)
            if layer is None:
                result = original(*args, **kwargs)
                if after is not None:
                    after(args, result, 0.0)
                return result
            stack = clock._stack()
            if any(frame[0] == layer for frame in stack):
                return original(*args, **kwargs)
            frame = [layer, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                with clock._lock:
                    clock.self_s[layer] += elapsed - frame[1]
                    clock.calls[layer] += 1
            if after is not None:
                after(args, result, elapsed)
            return result

        setattr(owner, name, wrapper)


def install(clock: LayerClock) -> None:
    """Wrap every layer's public entry points (see the README)."""
    import repro.analysis.flow as flow
    import repro.analysis.linter as linter
    import repro.core.autotuner as autotuner
    import repro.obs.attribution as attribution
    import repro.runtime.simulator as simulator
    import repro.serialization as serialization
    import repro.serve.server as server
    import repro.traffic.scenario as traffic_scenario
    from repro.core.optimizer import BTOptimizer
    from repro.core.plan_cache import PlanCache
    from repro.core.profiler import BTProfiler
    from repro.fleet.metrics import FleetReport
    from repro.fleet.router import FleetRouter
    from repro.serve.admission import ADMIT, AdmissionController
    from repro.traffic.driver import OpenLoopDriver
    from repro.traffic.generator import TrafficGenerator
    from repro.traffic.slo import TrafficReport

    def after_optimize(args, result, elapsed):
        clock.count("solver.invocations", result.solver_invocations)

    def after_tune(args, result, elapsed):
        clock.count("autotuner.measured", len(result.entries))
        if result.predicted_best is result.measured_best:
            clock.count("autotuner.top1")

    def after_plan_for(args, result, elapsed):
        cache = args[0]
        with clock._lock:
            if not any(c is cache for c in clock.plan_caches):
                clock.plan_caches.append(cache)

    def after_batch(args, result, elapsed):
        clock.count("sim.batches")
        clock.count("sim.batched_windows", len(args[0]))

    def after_run(args, result, elapsed):
        clock.count("sim.unbatched_windows")

    def after_try_admit(args, result, elapsed):
        if result.action == ADMIT:
            clock.count("admission.admits")

    def after_tick(args, result, elapsed):
        with clock._lock:
            clock.samples["router.tick"].append(elapsed)

    clock.patch(BTProfiler, "profile", "profiler")
    clock.patch(BTOptimizer, "optimize", "optimizer", after_optimize)
    clock.patch(autotuner.Autotuner, "tune", "autotuner", after_tune)
    clock.patch(PlanCache, "plan_for", "plan_cache", after_plan_for)
    # simulate_batch is imported by name, so it is patched where each
    # caller looks it up (the module attribute covers lazy importers).
    for module in (server, autotuner, simulator):
        clock.patch(module, "simulate_batch", "sim", after_batch)
    clock.patch(simulator.SimulatedPipelineExecutor, "run", "sim",
                after_run)
    clock.patch(AdmissionController, "evaluate", "admission")
    clock.patch(server.PipelineServer, "try_admit", None, after_try_admit)
    clock.patch(FleetRouter, "choose_shard", "router.choose_shard")
    # The threaded fleet loop calls _tick directly; no public per-tick
    # entry point exists on that path.
    clock.patch(FleetRouter, "_tick", "router.tick", after_tick)
    clock.patch(FleetRouter, "record_failover", None,
                lambda args, result, elapsed: clock.count(
                    "router.failovers"))
    clock.patch(TrafficGenerator, "events", "traffic.generate")
    clock.patch(OpenLoopDriver, "run", "traffic.driver")
    clock.patch(traffic_scenario, "evaluate", "traffic.evaluate")
    clock.patch(attribution, "decompose", "attribution")
    for owner, name in ((serialization, "artifact_sha256"),
                        (serialization, "optimization_to_dict"),
                        (serialization, "schedule_to_dict"),
                        (TrafficReport, "to_dict"),
                        (FleetReport, "to_dict"),
                        (linter.LintReport, "to_dict"),
                        (flow.FlowReport, "to_dict")):
        clock.patch(owner, name, "serialize")
    clock.patch(linter, "lint_paths", "lint",
                lambda args, result, elapsed: clock.count(
                    "analysis.files", result.files_checked))
    clock.patch(flow, "analyze_paths", "flow")
