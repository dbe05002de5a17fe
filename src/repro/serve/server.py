"""The multi-tenant pipeline server: one stepped core, many tenants.

Architecture (deliberately boring, for determinism's sake):

* **One lifecycle.**  A run is :meth:`PipelineServer.open_stepped`,
  then :meth:`~PipelineServer.step` once per tick, then
  :meth:`~PipelineServer.close_stepped`.  :meth:`~PipelineServer.run`
  drives exactly that loop inline through
  :func:`repro.runtime.watchdog.run_ticks`, beating a heartbeat around
  each tick, so the same watchdog machinery that guards kernel
  dispatches also cancels a wedged tick; a fleet shard steps its server
  from the fleet's tick instead.
* **One thread.**  Every mutable serving structure - the inbox, the
  tenant registry, the placement map, the backpressure queue - is
  touched only by the thread that steps the server, so none of it is
  locked.
* **Virtual time only.**  Tenant windows execute on the discrete-event
  simulator; a *tick* runs one window for every running tenant.  The
  entire run - admissions, windows, reschedules, evictions, the final
  report - is a pure function of (platform, specs, drifts, seed) and of
  the tick each submission and drift lands on, which is what makes the
  soak test's byte-determinism assertion possible.

Per tick the server: drains the inbox through the admission controller,
retries the backpressure queue (a completed tenant may have freed the
PUs a queued one needs), then serves one window per running tenant -
each simulated under the :class:`~repro.soc.interference.ExternalLoad`
formed by its co-tenants' offered loads plus any injected drift - and
finally lets the online rescheduler react to drifted measurements.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Mapping, Optional

from repro.core.plan_cache import PlanCache
from repro.errors import ReproError, ServeError
from repro.obs.metrics import metrics
from repro.obs.recorder import recorder
from repro.obs.tracer import tracer
from repro.runtime.simulator import (
    SimWindow,
    SimulatedPipelineExecutor,
    WindowMemo,
    simulate_batch,
)
from repro.runtime.trace import Span
from repro.runtime.watchdog import (
    Heartbeat,
    Watchdog,
    WatchdogConfig,
    run_ticks,
)
from repro.serve.admission import ADMIT, QUEUE, AdmissionController
from repro.serve.metrics import ServeReport, TenantMetrics
from repro.serve.placement import PlacementMap, tenant_offered_load
from repro.serve.rescheduler import EVICT, SWITCH, OnlineRescheduler
from repro.serve.tenant import (
    COMPLETED,
    EVICTED,
    FAILED,
    QUEUED,
    REJECTED,
    RUNNING,
    TenantRecord,
    TenantSpec,
    WindowResult,
)
from repro.soc.interference import ExternalLoad
from repro.soc.platform import Platform


@dataclass(frozen=True)
class DriftSpec:
    """Injected outside interference, active over a tick range.

    Models load the server does not control (a foreground app on a
    phone, another container on a Jetson): per-class busy fractions
    plus DRAM bandwidth demand, applied to *every* tenant's external
    load while active.
    """

    start_tick: int
    busy: Mapping[str, float] = field(default_factory=dict)
    demand_gbps: float = 0.0
    end_tick: Optional[int] = None

    def __post_init__(self) -> None:
        if self.start_tick < 0:
            raise ServeError("start_tick must be >= 0")
        if self.end_tick is not None and self.end_tick <= self.start_tick:
            raise ServeError("end_tick must be > start_tick")

    def active_at(self, tick: int) -> bool:
        if tick < self.start_tick:
            return False
        return self.end_tick is None or tick < self.end_tick

    def load(self) -> ExternalLoad:
        return ExternalLoad(busy=dict(self.busy),
                            demand_gbps=self.demand_gbps)


@dataclass
class ServerConfig:
    """Knobs for one serving run."""

    max_ticks: int = 64
    queue_capacity: int = 4
    #: Ticks a tenant may sit in the backpressure queue before the
    #: server rejects it outright (deterministic age-out).  None keeps
    #: queued tenants waiting until the run drains - the pre-overload
    #: behaviour, where sustained overload parks the queue forever.
    queue_patience: Optional[int] = None
    max_impact_ratio: float = 1.5
    max_partition_classes: Optional[int] = None
    #: Price the impact ceiling against each incumbent's *total*
    #: predicted slowdown (co-tenants already running included) rather
    #: than the newcomer's marginal contribution alone.  See
    #: :class:`~repro.serve.admission.AdmissionController`.
    cumulative_impact: bool = False
    drift_threshold: float = 1.2
    min_gain: float = 0.02
    patience: int = 2
    reschedule: bool = True
    profiling_repetitions: int = 3
    candidates_k: int = 8
    stall_timeout_s: float = 60.0
    #: Per-window interference blame decomposition
    #: (:mod:`repro.obs.attribution`).  Off by default: attribution
    #: replays the steady-state rate model per (window, source) pair,
    #: so uninstrumented runs must not pay for it - and reports only
    #: grow an ``attribution`` key when it is on, keeping default
    #: report bytes unchanged.
    attribution: bool = False

    def __post_init__(self) -> None:
        if self.max_ticks < 1:
            raise ServeError("max_ticks must be >= 1")
        if self.queue_patience is not None and self.queue_patience < 1:
            raise ServeError("queue_patience must be >= 1 (or None)")


class PipelineServer:
    """Serve streaming pipeline tenants on one shared virtual SoC."""

    def __init__(
        self,
        platform: Platform,
        seed: int = 0,
        config: Optional[ServerConfig] = None,
        plan_cache: Optional[PlanCache] = None,
    ):
        self.platform = platform
        self.seed = seed
        self.config = config or ServerConfig()
        if plan_cache is None:
            plan_cache = PlanCache(
                platform,
                repetitions=self.config.profiling_repetitions,
                k=self.config.candidates_k,
            )
        elif plan_cache.platform is not platform:
            raise ServeError(
                "injected plan_cache was built for platform "
                f"{plan_cache.platform.name!r}, not {platform.name!r}"
            )
        self.plan_cache = plan_cache
        self.placement = PlacementMap(platform.schedulable_classes())
        self.admission = AdmissionController(
            platform,
            self.plan_cache,
            queue_capacity=self.config.queue_capacity,
            max_impact_ratio=self.config.max_impact_ratio,
            max_partition_classes=self.config.max_partition_classes,
            cumulative_impact=self.config.cumulative_impact,
        )
        self.rescheduler = OnlineRescheduler(
            platform,
            drift_threshold=self.config.drift_threshold,
            min_gain=self.config.min_gain,
            patience=self.config.patience,
        )
        self.records: Dict[str, TenantRecord] = {}
        self.timeline: List[Dict[str, object]] = []
        #: Tenant-tagged spans from each tenant's last served window
        #: (the multi-tenant Gantt input).
        self.trace_spans: List[Span] = []
        self.ticks_executed = 0

        self._inbox: Deque[TenantSpec] = deque()
        self._queue: List[str] = []
        #: Tick each queued tenant entered the queue (age-out clock).
        self._queued_since: Dict[str, int] = {}
        self._drifts: List[DriftSpec] = []
        self._patience: Dict[str, int] = {}
        self._admission_counter = 0
        self._names = set()

        #: Exact replay memo of this session's DES windows, cost tables
        #: and blame weights; emptied by :meth:`close_stepped`.
        self.window_memo = WindowMemo(platform)

        self._heartbeat = Heartbeat(0, "serve-loop")
        #: "new" -> "open" (open_stepped) -> "closed" (close_stepped).
        self._lifecycle = "new"

    # ------------------------------------------------------------------
    # Client surface
    # ------------------------------------------------------------------
    def submit(self, spec: TenantSpec) -> None:
        """Queue one job for admission.

        The inbox is drained in submission order on the next tick, so a
        run is deterministic in which tick each submission lands on -
        everything submitted before :meth:`run` lands on the first.
        """
        if self._lifecycle == "closed":
            raise ServeError(
                f"server has drained; cannot submit {spec.name!r}"
            )
        if spec.name in self._names:
            raise ServeError(
                f"tenant name {spec.name!r} already submitted"
            )
        self._names.add(spec.name)
        self._inbox.append(spec)

    def inject_drift(self, drift: DriftSpec) -> None:
        """Register outside interference.

        Allowed before the run or between ticks: the drift's own tick
        range decides when it applies, so the run stays a pure function
        of its inputs - the fleet chaos injector uses this to degrade a
        live shard deterministically.
        """
        self._drifts.append(drift)

    def run(self, timeout_s: Optional[float] = None) -> ServeReport:
        """Serve until every tenant is terminal; return the report.

        Steps ticks on the calling thread (:func:`run_ticks`) until the
        server drains or ``max_ticks`` runs out, under a watchdog that
        cancels a tick stuck past ``stall_timeout_s``.  ``timeout_s``
        bounds host time, checked between ticks.  The run is closed out
        either way; a tick error or a missed deadline raises
        :class:`ServeError` afterwards.
        """
        watchdog = Watchdog(
            [self._heartbeat],
            WatchdogConfig(stall_timeout_s=self.config.stall_timeout_s),
        )
        report, error, timed_out = run_ticks(
            self, self.config.max_ticks, self._heartbeat, watchdog,
            timeout_s,
        )
        if timed_out:
            raise ServeError(
                f"server did not drain within {timeout_s}s "
                f"(tick {self.ticks_executed})"
            )
        if error is not None:
            raise ServeError(f"serve loop aborted: {error}")
        return report

    # ------------------------------------------------------------------
    # The stepped core: the caller owns the clock
    # ------------------------------------------------------------------
    # A fleet drives many shards in lockstep from its own tick; one
    # clock per shard would make cross-shard event order depend on the
    # thread scheduler and break byte-determinism.  The caller calls
    # step(tick) once per tick (always from the same thread) and
    # close_stepped() to settle terminal states and collect the report.

    def _require_open(self, method: str) -> None:
        if self._lifecycle != "open":
            raise ServeError(f"{method}() requires open_stepped()")

    def open_stepped(self) -> None:
        """Open the run for caller-driven ticking (once per server)."""
        if self._lifecycle != "new":
            raise ServeError("server already started")
        self._lifecycle = "open"

    def step(self, tick: int) -> bool:
        """Run one tick under the caller's clock; True when drained."""
        self._require_open("step")
        self._tick(tick)
        self.ticks_executed += 1
        return self._drained()

    def close_stepped(self, detail: Optional[str] = None) -> ServeReport:
        """Close the run: settle terminal states, return the report.

        ``detail`` (e.g. ``"shard crashed at tick 8"``) becomes the
        status detail of any tenant still live at close.
        """
        self._require_open("close_stepped")
        self._lifecycle = "closed"
        self.window_memo.clear()
        self._close_out(detail)
        return self.report()

    def try_admit(self, spec: TenantSpec, tick: int):
        """Synchronous admission (open run only).

        Evaluates ``spec`` against the current placement and running
        set; on ADMIT the tenant is deployed immediately and serves its
        first window on the next :meth:`step`.  QUEUE/REJECT decisions
        leave no record behind - the fleet router owns the backlog, not
        the shard.  Returns the :class:`AdmissionDecision` either way.
        """
        self._require_open("try_admit")
        if spec.name in self._names:
            raise ServeError(
                f"tenant name {spec.name!r} already known to this shard"
            )
        decision = self.admission.evaluate(
            spec, self.placement, self._running(), queued=0,
        )
        if decision.action == ADMIT:
            self._names.add(spec.name)
            record = TenantRecord(spec=spec)
            self.records[spec.name] = record
            self._deploy(tick, record, decision)
        return decision

    def withdraw(self, name: str, reason: str, tick: int) -> TenantRecord:
        """Remove a live tenant (open run only): release its placement
        and mark it EVICTED with ``reason``.  The fleet failover drain -
        the tenant's remaining windows continue on another shard."""
        self._require_open("withdraw")
        record = self.records.get(name)
        if record is None or record.done:
            raise ServeError(
                f"cannot withdraw {name!r}: not a live tenant"
            )
        if name in self._queue:
            self._queue.remove(name)
            self._queued_since.pop(name, None)
        if name in self.placement.partitions:
            self.placement.release(name)
        record.status = EVICTED
        record.status_detail = reason
        self._event(tick, "withdraw", name, reason=reason)
        return record

    def rescind(self, name: str) -> None:
        """Un-admit a tenant placed via :meth:`try_admit` this tick (the
        fleet rollback primitive): the placement is released and the
        record erased as if the admission never happened."""
        self._require_open("rescind")
        record = self.records.pop(name, None)
        if record is None:
            raise ServeError(f"cannot rescind {name!r}: unknown tenant")
        if name in self.placement.partitions:
            self.placement.release(name)
        self._names.discard(name)
        self._patience.pop(name, None)
        self._queued_since.pop(name, None)

    def running_records(self) -> Dict[str, TenantRecord]:
        """Live RUNNING tenants in admission order (read-only view)."""
        return self._running()

    def knows_tenant(self, name: str) -> bool:
        """Whether this server generation has ever seen ``name``.

        Names are never recycled within a generation, so a fleet router
        must not re-place a tenant onto a shard that already knows it
        (a rejoined shard is a fresh generation and qualifies again).
        """
        return name in self._names

    def report(self) -> ServeReport:
        """The (deterministic) serving report for the run so far."""
        return ServeReport(
            platform=self.platform.name,
            seed=self.seed,
            ticks=self.ticks_executed,
            rescheduling_enabled=self.config.reschedule,
            tenants={
                name: TenantMetrics.from_record(record)
                for name, record in self.records.items()
            },
            timeline=list(self.timeline),
            plan_cache=self.plan_cache.stats(),
            attribution=self._attribution_summary(),
        )

    def _attribution_summary(self) -> Optional[Dict[str, object]]:
        """Blame matrices harvested from tenant histories (None when
        attribution is off, so default report bytes stay unchanged)."""
        if not self.config.attribution:
            return None
        from repro.obs.attribution import top_offenders

        per_tenant: Dict[str, object] = {}
        matrices = []
        for name in sorted(self.records):
            blames = [w.blame for w in self.records[name].history
                      if w.blame is not None]
            if blames:
                per_tenant[name] = [b.to_dict() for b in blames]
                matrices.extend(blames)
        return {
            "tenants": per_tenant,
            "top_offenders": top_offenders(matrices, k=5),
        }

    # ------------------------------------------------------------------
    # Tick internals (one thread; owns all serving state)
    # ------------------------------------------------------------------
    def _drained(self) -> bool:
        if self._inbox:
            return False
        return all(record.done for record in self.records.values())

    def _close_out(self, detail: Optional[str]) -> None:
        """Terminal states for whatever the run left behind."""
        while self._inbox:
            spec = self._inbox.popleft()
            self.records[spec.name] = TenantRecord(
                spec=spec, status=REJECTED,
                status_detail="server stopped before admission",
            )
        detail = detail or "tick budget exhausted before completion"
        for record in self.records.values():
            if record.done:
                continue
            if record.status == RUNNING:
                self.placement.release(record.name)
            if record.status == QUEUED:
                record.status = REJECTED
                record.status_detail = (
                    "queued until the server drained (backpressure)"
                )
            else:
                record.status = FAILED
                record.status_detail = detail

    # -- one tick -------------------------------------------------------
    def _tick(self, tick: int) -> None:
        with tracer().span("serve.tick", "serve", tick=tick):
            self._admit_new(tick)
            self._retry_queued(tick)
            self._serve_windows(tick)

    #: timeline event -> admission-metric counter name.
    _ADMISSION_COUNTERS = {
        "admit": "admission.admits",
        "queue": "admission.queued",
        "reject": "admission.rejects",
        "reschedule": "serve.reschedules",
        "evict": "serve.evictions",
        "withdraw": "serve.withdrawals",
        "queue_evict": "admission.queue_evictions",
    }

    def _event(self, tick: int, event: str, tenant: str,
               **extra: object) -> None:
        entry: Dict[str, object] = {
            "tick": tick, "event": event, "tenant": tenant,
        }
        entry.update(extra)
        self.timeline.append(entry)
        # Mirror every timeline entry into the observability spine:
        # an instant on the tenant's trace track, a flight-recorder
        # event, and the admission/reschedule counters.  All happen on
        # the one stepping thread, so the emission order - and therefore
        # an exported trace's bytes - stays a function of the seed.
        trc = tracer()
        if trc.enabled:
            trc.instant(f"serve.{event}", "serve",
                        track=f"tenant:{tenant}", tick=tick,
                        tenant=tenant)
        rec = recorder()
        if rec.enabled:
            rec.record(f"serve.{event}", tick=tick, tenant=tenant)
        reg = metrics()
        if reg.enabled:
            counter = self._ADMISSION_COUNTERS.get(event)
            if counter is not None:
                total = reg.counter(counter)
                # Cumulative per-tick series of every admission /
                # reschedule counter (bounded ring per series).
                reg.series_point(counter, tick, total or 0.0)
            if event == "window":
                reg.observe("serve.window_latency_s",
                            float(extra["latency_s"]))

    def _admit_new(self, tick: int) -> None:
        while self._inbox:
            spec = self._inbox.popleft()
            record = TenantRecord(spec=spec)
            self.records[spec.name] = record
            self._decide(tick, record)

    def _retry_queued(self, tick: int) -> None:
        # Deterministic age-out before the retry pass: under sustained
        # overload the queue would otherwise park tenants forever, and
        # an open-loop workload keeps refilling it.  FIFO order means
        # the oldest entries are seen (and rejected) first.
        patience = self.config.queue_patience
        if patience is not None:
            for name in list(self._queue):
                queued_since = self._queued_since[name]
                if tick - queued_since < patience:
                    continue
                record = self.records[name]
                self._queue.remove(name)
                self._queued_since.pop(name, None)
                record.status = REJECTED
                record.status_detail = (
                    f"aged out of the admission queue after waiting "
                    f"{tick - queued_since} ticks (patience {patience})"
                )
                self._event(tick, "queue_evict", name,
                            reason=record.status_detail,
                            waited_ticks=tick - queued_since)
        for name in list(self._queue):
            record = self.records[name]
            decision = self.admission.evaluate(
                record.spec, self.placement, self._running(),
                queued=len(self._queue) - 1,
            )
            if decision.action == ADMIT:
                self._queue.remove(name)
                self._queued_since.pop(name, None)
                self._deploy(tick, record, decision)

    def _decide(self, tick: int, record: TenantRecord) -> None:
        decision = self.admission.evaluate(
            record.spec, self.placement, self._running(),
            queued=len(self._queue),
        )
        if decision.action == ADMIT:
            self._deploy(tick, record, decision)
        elif decision.action == QUEUE:
            record.status = QUEUED
            record.status_detail = decision.reason
            self._queue.append(record.name)
            self._queued_since[record.name] = tick
            self._event(tick, "queue", record.name,
                        reason=decision.reason)
        else:
            record.status = REJECTED
            record.status_detail = decision.reason
            self._event(tick, "reject", record.name,
                        reason=decision.reason)

    def _deploy(self, tick: int, record: TenantRecord, decision) -> None:
        assert decision.candidate is not None
        spec = record.spec
        plan = self.plan_cache.plan_for(spec.application)
        schedule = decision.candidate.schedule
        record.partition = self.placement.assign(
            spec.name, spec.application, schedule
        )
        record.plan = plan
        record.schedule = schedule
        record.candidates = plan.optimization.candidates
        record.status = RUNNING
        record.status_detail = decision.reason
        record.admission_order = self._admission_counter
        self._admission_counter += 1
        self._patience[spec.name] = 0
        self._event(
            tick, "admit", spec.name,
            partition=sorted(record.partition),
            predicted_latency_s=round(decision.predicted_latency_s, 9),
        )

    # -- window serving -------------------------------------------------
    def _running(self) -> Dict[str, TenantRecord]:
        running = {
            name: record for name, record in self.records.items()
            if record.status == RUNNING
        }
        return dict(sorted(
            running.items(), key=lambda kv: kv[1].admission_order
        ))

    def _external_sources(
        self,
        name: str,
        running: Dict[str, TenantRecord],
        offered: Dict[str, object],
        drifts: List[tuple],
    ) -> List[tuple]:
        """Per-source external loads tenant ``name`` sees, labelled.

        Ordered deterministically - co-tenants in admission order (the
        ``_running()`` order), then active drifts in injection order -
        so both the combined load *and* any blame decomposition built
        from the pairs are pure functions of the seeded run.  A
        co-tenant failed earlier in the tick no longer counts.
        ``offered`` is the tick's snapshot: each co-tenant's offered
        load (or the :class:`ReproError` computing it raised), filled
        on first use.
        """
        sources: List[tuple] = []
        for other, record in running.items():
            if other == name or record.status != RUNNING:
                continue
            load = offered.get(other)
            if load is None:
                assert record.plan is not None and record.schedule is not None
                try:
                    load = tenant_offered_load(
                        record.spec.application, record.plan.isolated,
                        record.schedule, self.platform,
                    )
                except ReproError as error:
                    load = error
                offered[other] = load
            if isinstance(load, ReproError):
                raise load
            sources.append((other, load))
        return sources + drifts

    def _serve_windows(self, tick: int) -> None:
        """Serve one window per running tenant, as one simulator batch.

        Every tenant's window is simulated against the external-load
        snapshot taken at tick start (a *tick-consistent co-load view*):
        all running tenants of a tick see each other's offered load
        regardless of who completes, reschedules, or fails while the
        tick's windows are processed.  That is what lets the whole
        tick run through :func:`simulate_batch` in one call.
        """
        running = self._running()
        offered: Dict[str, object] = {}
        drifts = [(f"drift:{index}", drift.load())
                  for index, drift in enumerate(self._drifts)
                  if drift.active_at(tick)]
        batch: List[tuple] = []
        for name, record in running.items():
            self._heartbeat.check_cancelled()
            assert (record.plan is not None
                    and record.schedule is not None)
            try:
                sources = self._external_sources(name, running, offered,
                                                 drifts)
                external = ExternalLoad.combined(
                    load for _, load in sources
                )
                executor = SimulatedPipelineExecutor(
                    record.spec.application,
                    record.schedule.chunks(),
                    self.platform,
                    external_load=external,
                    tenant=name,
                    window_memo=self.window_memo,
                )
            except ReproError as error:
                self._fail_tenant(tick, name, record, error)
                continue
            batch.append((name, record, external, sources, SimWindow(
                executor, record.spec.window_tasks, record_trace=True,
            )))
        if not batch:
            return
        outcomes = simulate_batch(
            [entry[4] for entry in batch], collect_errors=True,
        )
        for (name, record, external, sources, window), outcome in zip(
                batch, outcomes):
            try:
                with tracer().span("serve.window", "serve",
                                   tenant=name, tick=tick,
                                   window=record.windows_done):
                    if outcome.error is not None:
                        raise outcome.error
                    self._finish_window(tick, name, record, external,
                                        outcome.result, sources,
                                        window.executor)
            except ReproError as error:
                self._fail_tenant(tick, name, record, error)

    def _fail_tenant(self, tick: int, name: str, record: TenantRecord,
                     error: ReproError) -> None:
        if name in self.placement.partitions:
            self.placement.release(name)
        record.status = FAILED
        record.status_detail = str(error)
        self._event(tick, "fail", name, reason=str(error))

    def _finish_window(self, tick: int, name: str,
                       record: TenantRecord,
                       external: ExternalLoad, result,
                       sources: Optional[List[tuple]] = None,
                       executor=None) -> None:
        measured = result.steady_interval_s
        regime = self.rescheduler.classify(record, measured)
        record.windows_done += 1
        blame = None
        if (self.config.attribution and sources is not None
                and executor is not None and record.plan is not None):
            from repro.obs.attribution import decompose

            isolated = record.plan.isolated_prediction(record.schedule)
            blame = decompose(
                tenant=name,
                window_index=record.windows_done - 1,
                slowdown=measured / isolated if isolated > 0.0 else 1.0,
                chunks=executor.attribution_inputs(),
                platform=self.platform,
                sources=sources,
                weight_memo=self.window_memo.weights,
            )
        record.history.append(WindowResult(
            window_index=record.windows_done - 1,
            schedule=record.schedule,
            measured_latency_s=measured,
            external_busy_classes=sorted(external.busy),
            regime=regime,
            blame=blame,
        ))
        self._event(tick, "window", name,
                    window=record.windows_done - 1,
                    latency_s=round(measured, 9), regime=regime)

        if record.windows_done >= record.spec.windows:
            self.placement.release(name)
            record.status = COMPLETED
            record.status_detail = (
                f"served {record.windows_done} windows"
            )
            self._event(tick, "complete", name,
                        windows=record.windows_done)
            self._record_trace(record, result.spans)
            return
        self._record_trace(record, result.spans)

        if record.baseline_latency_s is None:
            # First window on this schedule: the drift reference point.
            record.baseline_latency_s = measured
            return
        if not self.config.reschedule:
            return
        if not self.rescheduler.drifted(record, measured):
            self._patience[name] = 0
            return
        self._react_to_drift(tick, name, record, external, measured)

    def _record_trace(self, record: TenantRecord,
                      spans: List[Span]) -> None:
        """Keep only each tenant's most recent window of spans."""
        self.trace_spans = [
            span for span in self.trace_spans
            if span.tenant != record.name
        ]
        self.trace_spans.extend(spans)

    # -- drift reaction -------------------------------------------------
    def _react_to_drift(self, tick: int, name: str,
                        record: TenantRecord,
                        external: ExternalLoad,
                        measured: float) -> None:
        action = self.rescheduler.rerank(
            record, external, self.placement.free_classes()
        )
        if action.kind == SWITCH:
            assert action.candidate is not None
            schedule = action.candidate.schedule
            record.partition = self.placement.reassign(
                name, record.spec.application, schedule
            )
            record.schedule = schedule
            record.baseline_latency_s = None
            record.reschedules += 1
            self._patience[name] = 0
            self._event(
                tick, "reschedule", name,
                rank=action.candidate.rank,
                partition=sorted(record.partition),
                measured_s=round(measured, 9),
                predicted_s=round(action.predicted_latency_s, 9),
            )
            return
        self._patience[name] = self._patience.get(name, 0) + 1
        exhausted = self._patience[name] >= self.config.patience
        if action.kind == EVICT or exhausted:
            if self._evict_for(tick, record):
                self._patience[name] = 0
                return
        self._event(tick, "hold", name, reason=action.reason,
                    patience=self._patience[name])

    def _evict_for(self, tick: int, sufferer: TenantRecord) -> bool:
        """Eviction fallback: remove the lowest-priority running tenant
        strictly below the drifted tenant, freeing its PUs for the next
        re-rank.  Returns False when nobody qualifies (the sufferer is
        itself the lowest priority - it just has to cope)."""
        candidates = [
            record for record in self._running().values()
            if record.name != sufferer.name
            and record.priority < sufferer.priority
        ]
        if not candidates:
            return False
        victim = min(
            candidates,
            key=lambda r: (r.priority, -r.admission_order),
        )
        self.placement.release(victim.name)
        victim.status = EVICTED
        victim.status_detail = (
            f"evicted at tick {tick} to relieve contention on "
            f"{sufferer.name!r} (priority {victim.priority} < "
            f"{sufferer.priority})"
        )
        self._event(tick, "evict", victim.name,
                    beneficiary=sufferer.name,
                    priority=victim.priority)
        return True
