"""Deterministic fleet metrics and the final fleet report.

Pure arithmetic over the router's recorded state - no wall clock, no
RNG reads - so a fleet run's report is byte-identical across repeats
with the same seed (the property the fleet soak test and the CI
``fleet-chaos`` job assert by diffing serialized reports).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence

from repro.serve.metrics import percentile
from repro.fleet.tenant import FleetTenant
from repro.serialization import FrozenSlots


@dataclass(frozen=True)
class FleetTenantMetrics(FrozenSlots):
    """Latency + lifecycle summary of one fleet tenant."""

    # Slotted: a fleet report keeps one of these per tenant.
    __slots__ = ("tenant", "status", "windows_served", "migrations",
                 "reschedules", "shards", "mean_latency_s",
                 "p50_latency_s", "p95_latency_s", "max_latency_s")

    tenant: str
    status: str
    windows_served: int
    migrations: int
    reschedules: int
    shards: Sequence[str]
    mean_latency_s: float
    p50_latency_s: float
    p95_latency_s: float
    max_latency_s: float

    @classmethod
    def from_tenant(cls, tenant: FleetTenant) -> "FleetTenantMetrics":
        samples = tenant.samples
        if not samples:
            return cls(
                tenant=tenant.name,
                status=tenant.status,
                windows_served=0,
                migrations=tenant.migrations,
                reschedules=tenant.reschedules,
                shards=tuple(tenant.shard_history),
                mean_latency_s=0.0,
                p50_latency_s=0.0,
                p95_latency_s=0.0,
                max_latency_s=0.0,
            )
        return cls(
            tenant=tenant.name,
            status=tenant.status,
            windows_served=tenant.windows_served,
            migrations=tenant.migrations,
            reschedules=tenant.reschedules,
            shards=tuple(tenant.shard_history),
            mean_latency_s=sum(samples) / len(samples),
            p50_latency_s=percentile(samples, 50.0),
            p95_latency_s=percentile(samples, 95.0),
            max_latency_s=max(samples),
        )

    def to_dict(self) -> Dict[str, object]:
        # Same "n/a" convention as the serve layer: no served windows
        # means no latency distribution to summarize.
        def _latency(value: float) -> object:
            if self.windows_served == 0:
                return "n/a"
            return round(value, 9)

        return {
            "tenant": self.tenant,
            "status": self.status,
            "windows_served": self.windows_served,
            "migrations": self.migrations,
            "reschedules": self.reschedules,
            "shards": list(self.shards),
            "mean_latency_s": _latency(self.mean_latency_s),
            "p50_latency_s": _latency(self.p50_latency_s),
            "p95_latency_s": _latency(self.p95_latency_s),
            "max_latency_s": _latency(self.max_latency_s),
        }


def surviving_p95(tenants: Mapping[str, FleetTenant]) -> float:
    """p95 over the merged per-item samples of tenants that *survived*
    the run (completed every window).  0.0 when nothing survived."""
    samples: List[float] = []
    for tenant in tenants.values():
        if tenant.status == "completed":
            samples.extend(tenant.samples)
    if not samples:
        return 0.0
    return percentile(samples, 95.0)


def surviving_p95_slowdown(tenants: Mapping[str, FleetTenant]) -> float:
    """p95 of surviving tenants' per-segment slowdown ratios - the
    fleet's headline number.

    Absolute latency mixes what the fleet controls (failure response)
    with what it does not (app heterogeneity, the PU class each
    placement drew), so the headline normalizes every sample to its
    placement segment's first-window baseline
    (:meth:`FleetTenant.slowdowns`).  A fleet that leaves tenants on a
    browned-out shard shows up here directly; one that migrates them
    promptly stays near 1.0.  0.0 when nothing survived.
    """
    ratios: List[float] = []
    for tenant in tenants.values():
        if tenant.status == "completed":
            ratios.extend(tenant.slowdowns())
    if not ratios:
        return 0.0
    return percentile(ratios, 95.0)


@dataclass(frozen=True)
class FleetReport:
    """The serialized outcome of one fleet run."""

    seed: int
    ticks: int
    n_shards: int
    failover_enabled: bool
    tenants: Mapping[str, FleetTenantMetrics]
    #: shard -> {state, breaker, generation, windows_served}
    shards: Mapping[str, Mapping[str, object]]
    timeline: Sequence[Mapping[str, object]]
    chaos_events: Sequence[Mapping[str, object]]
    surviving_p95_s: float
    surviving_p95_slowdown: float
    plan_cache: Mapping[str, int]
    #: Blame-decomposition summary (``FleetConfig.attribution``); None
    #: - and absent from the serialized form - when attribution is off.
    attribution: Optional[Mapping[str, object]] = None
    #: Burn-rate alert records (``FleetConfig.burn``); None when burn
    #: alerting is off (an empty list means "armed, nothing burned").
    alerts: Optional[Sequence[Mapping[str, object]]] = None

    @property
    def counts(self) -> Dict[str, int]:
        """Fleet event kind -> occurrences (failovers, migrations,
        shed, breaker transitions, ...)."""
        out: Dict[str, int] = {}
        for entry in self.timeline:
            kind = str(entry["event"])
            out[kind] = out.get(kind, 0) + 1
        return out

    def to_dict(self) -> Dict[str, object]:
        """Stable dict for :func:`repro.serialization.write_json_report`.

        Every mapping is emitted in sorted key order so two runs with
        the same seed serialize byte-identically.
        """
        survivors = [m for m in self.tenants.values()
                     if m.status == "completed"]
        out: Dict[str, object] = {
            "seed": self.seed,
            "ticks": self.ticks,
            "n_shards": self.n_shards,
            "failover_enabled": self.failover_enabled,
            "counts": {k: self.counts[k] for k in sorted(self.counts)},
            "surviving_tenants": len(survivors),
            "surviving_p95_s": (round(self.surviving_p95_s, 9)
                                if survivors else "n/a"),
            "surviving_p95_slowdown": (
                round(self.surviving_p95_slowdown, 9)
                if survivors else "n/a"),
            "tenants": {
                name: self.tenants[name].to_dict()
                for name in sorted(self.tenants)
            },
            "shards": {
                name: dict(self.shards[name])
                for name in sorted(self.shards)
            },
            "timeline": list(self.timeline),
            "chaos_events": list(self.chaos_events),
            "plan_cache": dict(self.plan_cache),
        }
        if self.attribution is not None:
            out["attribution"] = dict(self.attribution)
        if self.alerts is not None:
            out["alerts"] = [dict(alert) for alert in self.alerts]
        return out
