"""The virtual SoC platform: PUs + UMA memory + interference + timers.

A :class:`Platform` is the ground-truth oracle of the reproduction.  Every
"measured" number in the experiments ultimately comes from
:meth:`Platform.true_time` (possibly integrated over time by the
discrete-event pipeline simulator) plus deterministic measurement noise.
The profiler, optimizer and implementer only ever observe noisy times -
they never read the model parameters - which preserves the paper's
black-box methodology (section 3.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from repro.errors import PlatformError
from repro.soc.affinity import AffinityMap
from repro.soc.cost_model import CostBreakdown, pu_cost
from repro.soc.interference import InterferenceModel
from repro.soc.pu import GPU, CpuCluster, Gpu
from repro.soc.timer import MeasurementNoise
from repro.soc.workprofile import WorkProfile


@dataclass
class Platform:
    """A complete edge SoC description (paper Table 2 analogue).

    Attributes:
        name: Registry key, e.g. ``pixel7a``.
        display_name: e.g. ``Google Pixel 7a``.
        soc_model: Marketing SoC name.
        clusters: CPU clusters keyed by PU class (``big``/``medium``/
            ``little``).
        gpu: The integrated GPU, or ``None`` for CPU-only parts.
        interference: Contention + DVFS model.
        affinity: Thread-affinity map (which classes are schedulable).
        noise: Measurement-noise source for all virtual timers.
        os_name: Informational.
        jitter_memo: The DES's per-stage jitter draws, ``schedule key ->
            {(task, stage): scale}``, shared by every
            :class:`~repro.runtime.simulator.SimulatedPipelineExecutor`
            built on this object.  A draw is a pure function of
            ``name|schedule key|task|stage``, so the memo is exact; it
            lives as long as the platform (one flow run), starts empty
            on every new platform - ``dataclasses.replace`` included -
            and takes no part in ``repr`` or ``==``.
    """

    name: str
    display_name: str
    soc_model: str
    clusters: Dict[str, CpuCluster]
    gpu: Optional[Gpu]
    interference: InterferenceModel
    affinity: AffinityMap
    noise: MeasurementNoise = field(default_factory=MeasurementNoise)
    os_name: str = "Linux"
    jitter_memo: Dict[str, Dict[Tuple[int, int], float]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not self.clusters:
            raise PlatformError("a platform needs at least one CPU cluster")
        for pu_class, cluster in self.clusters.items():
            if cluster.pu_class != pu_class:
                raise PlatformError(
                    f"cluster keyed {pu_class!r} declares class "
                    f"{cluster.pu_class!r}"
                )

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    def pu(self, pu_class: str) -> "CpuCluster | Gpu":
        """The PU object for a class name."""
        if pu_class == GPU:
            if self.gpu is None:
                raise PlatformError(f"{self.name} has no GPU")
            return self.gpu
        try:
            return self.clusters[pu_class]
        except KeyError:
            raise PlatformError(
                f"{self.name} has no PU class {pu_class!r}"
            ) from None

    def pu_classes(self) -> Tuple[str, ...]:
        """Every PU class physically present (profiling covers all)."""
        classes = tuple(self.clusters)
        if self.gpu is not None:
            classes = classes + (GPU,)
        return classes

    def schedulable_classes(self) -> Tuple[str, ...]:
        """PU classes the optimizer may target (pinnable only)."""
        classes = []
        for pu_class in self.affinity.schedulable_classes():
            if pu_class == GPU:
                if self.gpu is not None:
                    classes.append(pu_class)
            elif pu_class in self.clusters:
                classes.append(pu_class)
        return tuple(classes)

    def num_other_pus(self, pu_class: str) -> int:
        """How many *other* PU classes exist - the co-load denominator."""
        return len(self.pu_classes()) - (1 if pu_class in self.pu_classes() else 0)

    # ------------------------------------------------------------------
    # Ground-truth timing
    # ------------------------------------------------------------------
    def isolated_breakdown(
        self, work: WorkProfile, pu_class: str
    ) -> CostBreakdown:
        """Roofline cost decomposition on an otherwise idle SoC."""
        return pu_cost(work, self.pu(pu_class))

    def isolated_time(self, work: WorkProfile, pu_class: str) -> float:
        """Isolated wall-clock seconds for one invocation."""
        return self.isolated_breakdown(work, pu_class).total_s

    def bandwidth_demand(self, work: WorkProfile, pu_class: str) -> float:
        """Average GB/s the kernel draws while running in isolation."""
        breakdown = self.isolated_breakdown(work, pu_class)
        return breakdown.demand_bw_gbps(work.bytes_moved)

    def true_time(
        self,
        work: WorkProfile,
        pu_class: str,
        co_load: float = 0.0,
        other_demand_gbps: float = 0.0,
    ) -> float:
        """Wall-clock seconds under a *steady* co-run condition.

        Args:
            work: The kernel invocation.
            pu_class: Where it runs.
            co_load: Fraction of the other PUs concurrently busy (0 =
                isolated, 1 = the paper's interference-heavy condition).
            other_demand_gbps: Total DRAM bandwidth drawn by co-runners.

        The fixed dispatch/launch overhead does not scale with
        interference; only the overlapped compute/memory portion does.
        """
        breakdown = self.isolated_breakdown(work, pu_class)
        overlapped = max(breakdown.compute_s, breakdown.memory_s)
        demand = breakdown.demand_bw_gbps(work.bytes_moved)
        multiplier = self.interference.speed_multiplier(
            pu_class=pu_class,
            memory_boundedness=breakdown.memory_boundedness,
            demand_gbps=demand,
            total_demand_gbps=demand + other_demand_gbps,
            co_load=co_load,
        )
        return overlapped / multiplier + breakdown.overhead_s

    def instantaneous_rate(
        self,
        memory_boundedness: float,
        pu_class: str,
        demand_gbps: float,
        total_demand_gbps: float,
        co_load: float,
    ) -> float:
        """Progress-rate multiplier used by the discrete-event simulator."""
        return self.interference.speed_multiplier(
            pu_class=pu_class,
            memory_boundedness=memory_boundedness,
            demand_gbps=demand_gbps,
            total_demand_gbps=total_demand_gbps,
            co_load=co_load,
        )

    # ------------------------------------------------------------------
    # Measurement
    # ------------------------------------------------------------------
    def measure(
        self, true_seconds: float, rng: np.random.Generator
    ) -> float:
        """One noisy timer observation of a true duration."""
        return self.noise.perturb(true_seconds, rng)

    def measurement_rng(self, *key: object) -> np.random.Generator:
        """Deterministic RNG stream keyed by (platform, *key)."""
        return self.noise.rng(self.name, *key)

    # ------------------------------------------------------------------
    def describe(self) -> str:
        """Multi-line hardware summary (Table 2 style)."""
        lines = [f"{self.display_name} ({self.soc_model}, {self.os_name})"]
        for pu_class, cluster in self.clusters.items():
            lines.append(
                f"  {pu_class}: {cluster.cores}x {cluster.model} @ "
                f"{cluster.freq_ghz:.2f} GHz "
                f"({cluster.peak_gflops:.0f} GFLOP/s)"
            )
        if self.gpu is not None:
            lines.append(
                f"  gpu: {self.gpu.model} ({self.gpu.api}, "
                f"{self.gpu.peak_gflops:.0f} GFLOP/s)"
            )
        lines.append(
            f"  DRAM: {self.interference.dram_bw_gbps:.0f} GB/s shared (UMA)"
        )
        return "\n".join(lines)
