"""BT-Optimizer (paper section 3.3): three-level schedule optimization.

Level 1 - *Utilization*: among the assignments that satisfy C1
(exactly one PU per stage), C2 (contiguity) and the optional C3
per-chunk runtime bounds, minimize **gapness** ``T_max - T_min``
(objective O1).  The key insight: low-gapness schedules keep every PU
busy, which matches the co-run conditions the interference-aware
profiling table was collected under, so their predictions are
trustworthy.

Level 2 - *Latency*: enumerate ``K`` diverse candidates by repeatedly
solving for minimum predicted latency among schedules within the gapness
threshold, each time blocking the previous solution (constraint C5-ell).
Candidates emerge sorted by predicted latency and cluster into
*performance tiers*.

Level 3 - *Autotuning* lives in :mod:`repro.core.autotuner`: the top
candidates are actually executed and the measured best wins.

The paper hands levels 1 and 2 to z3.  Under C1 + C2 a schedule splits
the stage chain into at most M contiguous chunks on distinct PU classes,
so the whole space is small (2,116 schedules at the paper's N=9, M=4).
Each :meth:`BTOptimizer.optimize` call enumerates it once, in
lexicographic order of the assignment tuple, and every solver invocation
is a linear scan that keeps the first optimum it meets: a later schedule
wins only when better by more than 1e-12.  A depth-first branch-and-bound
over stage-major ``x[i][c]`` booleans, trying true first, visits
solutions in that same order and, with admissible bounds, accepts
exactly the same ones, so the scan returns what such a solver returns,
ties included.  C5-ell blocking removes the picked schedule from the
space.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.profiler import ProfilingTable
from repro.core.schedule import Schedule, validate_schedule
from repro.core.stage import Application
from repro.errors import SchedulingError, SolverTimeoutError
from repro.obs.metrics import metrics
from repro.obs.tracer import tracer

#: Number of diverse candidates level 2 produces (paper: K = 20).
DEFAULT_K = 20
#: Gapness slack relative to the level-1 optimum, as a fraction of the
#: optimal T_max.  Schedules above the threshold are filtered out as
#: "underutilizing the device".
DEFAULT_GAP_SLACK = 0.10

#: One schedule of the search space: (PU column index per stage,
#: predicted latency T_max, gapness T_max - T_min).
_Entry = Tuple[Tuple[int, ...], float, float]


@dataclass(frozen=True)
class ScheduleCandidate:
    """One level-2 candidate with its model predictions."""

    rank: int
    schedule: Schedule
    predicted_latency_s: float
    gapness_s: float


@dataclass
class OptimizationResult:
    """Everything BT-Optimizer produces for one (app, platform) pair."""

    application: str
    platform: str
    candidates: List[ScheduleCandidate]
    gap_threshold_s: float
    utilization_optimum: Optional[ScheduleCandidate]
    solver_invocations: int = 0
    solver_wall_s: float = 0.0
    #: True when the solver's wall-clock budget expired and the result
    #: degraded to the greedy best-PU schedule (no optimality claim).
    degraded: bool = False

    @property
    def best(self) -> ScheduleCandidate:
        """The predicted-best candidate (level-2 output; level 3 may
        override it with a measured pick)."""
        if not self.candidates:
            raise SchedulingError("optimization produced no candidates")
        return self.candidates[0]

    def tiers(self, tolerance: float = 0.06) -> List[List[ScheduleCandidate]]:
        """Group candidates into performance tiers: consecutive candidates
        whose predicted latencies sit within ``tolerance`` of the tier's
        first member (the clustering the paper observes in section 3.3)."""
        tiers: List[List[ScheduleCandidate]] = []
        for candidate in self.candidates:
            if (
                tiers
                and candidate.predicted_latency_s
                <= tiers[-1][0].predicted_latency_s * (1.0 + tolerance)
            ):
                tiers[-1].append(candidate)
            else:
                tiers.append([candidate])
        return tiers


class BTOptimizer:
    """Levels 1 and 2 of the BetterTogether optimization.

    Args:
        application: Provides stage names/order.
        table: Profiling table (interference-aware for the real flow;
            prior-work comparisons pass an isolated table).
        pu_classes: Schedulable PU classes (the affinity map's output);
            defaults to the table's columns.
        k: Number of candidates for level 2.
        gap_slack: Gapness threshold slack (fraction of optimal T_max).
        max_chunk_time_s / min_chunk_time_s: Optional hard per-chunk
            bounds (constraints C3a / C3b).
        time_budget_s: Optional wall-clock budget across *all* solver
            invocations of one :meth:`optimize` call, checked before
            each one.  When it expires, the result degrades gracefully
            to the greedy best-PU schedule (``result.degraded`` is True)
            instead of raising.
    """

    def __init__(
        self,
        application: Application,
        table: ProfilingTable,
        pu_classes: Optional[Sequence[str]] = None,
        k: int = DEFAULT_K,
        gap_slack: float = DEFAULT_GAP_SLACK,
        max_chunk_time_s: Optional[float] = None,
        min_chunk_time_s: Optional[float] = None,
        time_budget_s: Optional[float] = None,
    ):
        if k < 1:
            raise SchedulingError("k must be >= 1")
        if time_budget_s is not None and time_budget_s <= 0:
            raise SchedulingError("time_budget_s must be > 0")
        self.application = application
        self.table = table
        self.pu_classes = tuple(pu_classes or table.pu_classes)
        missing = set(self.pu_classes) - set(table.pu_classes)
        if missing:
            raise SchedulingError(
                f"table has no columns for PUs {sorted(missing)}"
            )
        if application.num_stages != len(table.stage_names):
            raise SchedulingError(
                "profiling table does not match the application's stages"
            )
        self.k = k
        self.gap_slack = gap_slack
        self.max_chunk_time_s = max_chunk_time_s
        self.min_chunk_time_s = min_chunk_time_s
        self.time_budget_s = time_budget_s
        self._deadline: Optional[float] = None
        # Dense latency matrix for fast objective evaluation.
        self._lat = [
            [table.latency(stage, pu) for pu in self.pu_classes]
            for stage in application.stage_names
        ]
        self.solver_invocations = 0
        self.solver_wall_s = 0.0

    # ------------------------------------------------------------------
    # Schedule space
    # ------------------------------------------------------------------
    def _schedule_space(self) -> List[_Entry]:
        """Every C1 + C2 assignment that passes C3a, in lexicographic
        order of the assignment tuple (the search order; see the module
        docstring).

        C3a keeps a chunk sum up to ``max_chunk_time_s + 1e-12``, the
        tolerance of the encoding's pseudo-boolean bound; a sum in that
        last 1e-12 stays in the space but scores ``inf`` (see
        :meth:`_entry`).  Its wall time counts toward ``solver_wall_s``.
        """
        start = time.perf_counter()
        n = self.application.num_stages
        m = len(self.pu_classes)
        limit = (
            math.inf if self.max_chunk_time_s is None
            else self.max_chunk_time_s + 1e-12
        )
        space: List[_Entry] = []

        def extend(i: int, assignment: List[int], sums: List[float]) -> None:
            if i == n:
                space.append(self._entry(tuple(assignment), sums))
                return
            for c in range(m):
                if assignment and c == assignment[-1]:
                    grown = sums[:-1] + [sums[-1] + self._lat[i][c]]
                elif c not in assignment:
                    # 0.0 + x: the same float ops as _chunk_sums.
                    grown = sums + [0.0 + self._lat[i][c]]
                else:
                    continue  # C2: a closed chunk's PU never comes back
                if grown[-1] > limit:
                    continue  # C3a
                extend(i + 1, assignment + [c], grown)

        extend(0, [], [])
        self.solver_wall_s += time.perf_counter() - start
        return space

    def _entry(self, assignment: Tuple[int, ...],
               sums: List[float]) -> _Entry:
        """``(assignment, latency, gapness)``; both scores are ``inf``
        when the chunk sums miss the C3 bounds."""
        latency, shortest = max(sums), min(sums)
        if (
            self.max_chunk_time_s is not None
            and latency > self.max_chunk_time_s
        ) or (
            self.min_chunk_time_s is not None
            and shortest < self.min_chunk_time_s
        ):
            return assignment, math.inf, math.inf
        return assignment, latency, latency - shortest

    def _scan(self, space: Sequence[_Entry],
              score: Callable[[_Entry], float]
              ) -> Optional[Tuple[int, float]]:
        """One solver invocation: ``(index, score)`` of the first entry
        of ``space`` with the minimum score, or ``None`` when ``space``
        is empty.  A later entry replaces the incumbent only when it is
        better by more than 1e-12 - the branch-and-bound accept rule, so
        ties keep the earliest schedule in search order."""
        if (
            self._deadline is not None
            and time.perf_counter() >= self._deadline
        ):
            raise SolverTimeoutError(
                f"optimization wall-clock budget exhausted "
                f"({self.time_budget_s}s)"
            )
        start = time.perf_counter()
        best: Optional[Tuple[int, float]] = None
        for index, entry in enumerate(space):
            value = score(entry)
            if best is None or value < best[1] - 1e-12:
                best = (index, value)
        self.solver_invocations += 1
        self.solver_wall_s += time.perf_counter() - start
        reg = metrics()
        if reg.enabled:
            reg.counter("solver.invocations")
        return best

    def _chunk_sums(self, assignment: Tuple[int, ...]) -> List[float]:
        sums: List[float] = []
        previous = None
        for i, c in enumerate(assignment):
            if c != previous:
                sums.append(0.0)
                previous = c
            sums[-1] += self._lat[i][c]
        return sums

    def _gapness(self, assignment: Tuple[int, ...]) -> float:
        sums = self._chunk_sums(assignment)
        return max(sums) - min(sums)

    def _latency(self, assignment: Tuple[int, ...]) -> float:
        return max(self._chunk_sums(assignment))

    def _to_schedule(self, assignment: Tuple[int, ...]) -> Schedule:
        return Schedule.from_assignments(
            [self.pu_classes[c] for c in assignment]
        )

    # ------------------------------------------------------------------
    # Level 1: utilization (gapness) optimum
    # ------------------------------------------------------------------
    def optimize_utilization(self) -> ScheduleCandidate:
        """Solve ``min (T_max - T_min)`` (objective O1)."""
        return self._optimize_utilization(self._schedule_space())

    def _optimize_utilization(
        self, space: Sequence[_Entry]
    ) -> ScheduleCandidate:
        with tracer().span("solver.utilization", "solver",
                           application=self.application.name):
            found = self._scan(space, lambda entry: entry[2])
            if found is None:
                raise SchedulingError(
                    "utilization optimization is infeasible"
                )
            index, gap = found
            if math.isinf(gap):
                raise SchedulingError(
                    "no schedule satisfies the per-chunk runtime bounds (C3)"
                )
            assignment, latency, _ = space[index]
            return ScheduleCandidate(
                rank=0,
                schedule=self._to_schedule(assignment),
                predicted_latency_s=latency,
                gapness_s=gap,
            )

    # ------------------------------------------------------------------
    # Greedy fallback (degraded mode)
    # ------------------------------------------------------------------
    def greedy_assignment(self) -> Tuple[int, ...]:
        """Stage-major greedy best-PU schedule (no solver involved).

        Walks the stages in order; each stage either stays on the
        current chunk's PU or opens a new chunk on the fastest PU not
        used yet, whichever has the lower profiled latency for that
        stage.  Contiguity (C2) holds by construction; the per-chunk
        bounds (C3) are *not* enforced - this is the degraded answer
        when the solver budget expires, not an optimal one.
        """
        n = self.application.num_stages
        m = len(self.pu_classes)
        used: set = set()
        current: Optional[int] = None
        assignment: List[int] = []
        for i in range(n):
            options = ([current] if current is not None else []) + [
                c for c in range(m) if c not in used and c != current
            ]
            best = min(options, key=lambda c: self._lat[i][c])
            if best != current:
                if current is not None:
                    used.add(current)
                current = best
            assignment.append(best)
        return tuple(assignment)

    def _degraded_result(
        self, partial: List[ScheduleCandidate]
    ) -> OptimizationResult:
        """Greedy best-PU schedule plus whatever level 2 already found."""
        greedy = self.greedy_assignment()
        pool: Dict[Tuple[int, ...], ScheduleCandidate] = {}
        pool[greedy] = ScheduleCandidate(
            rank=0,
            schedule=self._to_schedule(greedy),
            predicted_latency_s=self._latency(greedy),
            gapness_s=self._gapness(greedy),
        )
        for candidate in partial:
            key = tuple(
                self.pu_classes.index(pu)
                for pu in candidate.schedule.assignments
            )
            pool.setdefault(key, candidate)
        candidates = sorted(
            pool.values(),
            key=lambda c: (c.predicted_latency_s, c.gapness_s),
        )
        candidates = [
            ScheduleCandidate(
                rank=rank, schedule=c.schedule,
                predicted_latency_s=c.predicted_latency_s,
                gapness_s=c.gapness_s,
            )
            for rank, c in enumerate(candidates)
        ]
        return OptimizationResult(
            application=self.application.name,
            platform=self.table.platform,
            candidates=candidates,
            gap_threshold_s=max(c.gapness_s for c in candidates),
            utilization_optimum=None,
            solver_invocations=self.solver_invocations,
            solver_wall_s=self.solver_wall_s,
            degraded=True,
        )

    # ------------------------------------------------------------------
    # Level 2: latency, K diverse candidates via C5-ell blocking
    # ------------------------------------------------------------------
    def optimize(self) -> OptimizationResult:
        """Run levels 1 and 2; candidates sorted by predicted latency.

        With a ``time_budget_s``, budget expiry degrades to
        :meth:`greedy_assignment` instead of raising; the result is
        flagged ``degraded``.  Every produced candidate is validated
        (C1/C2/C3/availability) before it is returned.
        """
        self._deadline = (
            None if self.time_budget_s is None
            else time.perf_counter() + self.time_budget_s
        )
        partial: List[ScheduleCandidate] = []
        with tracer().span("solver.optimize", "solver",
                           application=self.application.name, k=self.k):
            try:
                result = self._optimize_exact(partial)
            except SolverTimeoutError:
                result = self._degraded_result(partial)
            finally:
                self._deadline = None
        for candidate in result.candidates:
            validate_schedule(
                candidate.schedule,
                self.application,
                table=self.table,
                available_pus=self.pu_classes,
                # The greedy fallback cannot honour the chunk bounds.
                max_chunk_time_s=(
                    None if result.degraded else self.max_chunk_time_s
                ),
                min_chunk_time_s=(
                    None if result.degraded else self.min_chunk_time_s
                ),
            )
        return result

    def _optimize_exact(
        self, partial: List[ScheduleCandidate]
    ) -> OptimizationResult:
        """Levels 1 + 2 over one enumeration of the schedule space;
        appends each candidate to ``partial`` as found so a budget
        expiry can salvage them."""
        space = self._schedule_space()
        utilization = self._optimize_utilization(space)
        threshold = (
            utilization.gapness_s
            + self.gap_slack * utilization.predicted_latency_s
        )
        cut = threshold + 1e-12

        def filtered_objective(entry: _Entry) -> float:
            return math.inf if entry[2] > cut else entry[1]

        def unfiltered_objective(entry: _Entry) -> float:
            return entry[1]

        candidates = partial  # shared so budget expiry can salvage them
        # Phase 2a enumerates within the utilization threshold; when the
        # filtered space runs dry before K candidates exist (small
        # platforms like the Jetson have only ~2(N-1)+2 contiguous
        # schedules in total), phase 2b tops the set up without the
        # filter so autotuning still sees K diverse options.
        objective = filtered_objective
        trc = tracer()
        for rank in range(self.k):
            # One span per blocking round: how each candidate was found
            # (filtered or top-up) and what it cost the search.
            with trc.span("solver.candidate_round", "solver", rank=rank):
                found = self._scan(space, objective)
                if found is None or math.isinf(found[1]):
                    if objective is unfiltered_objective:
                        break  # blocking exhausted the space
                    objective = unfiltered_objective
                    found = self._scan(space, objective)
                    if found is None or math.isinf(found[1]):
                        break
                index, latency = found
                # C5-ell: forbid this exact assignment.
                assignment, _, gapness = space.pop(index)
                candidates.append(
                    ScheduleCandidate(
                        rank=rank,
                        schedule=self._to_schedule(assignment),
                        predicted_latency_s=latency,
                        gapness_s=gapness,
                    )
                )
        # The paper sorts the candidate set by predicted latency (T_max)
        # at the end; the unfiltered top-up phase can otherwise leave a
        # low-latency, high-gapness schedule after a filtered one.
        candidates.sort(
            key=lambda c: (c.predicted_latency_s, c.gapness_s)
        )
        candidates = [
            ScheduleCandidate(
                rank=rank,
                schedule=c.schedule,
                predicted_latency_s=c.predicted_latency_s,
                gapness_s=c.gapness_s,
            )
            for rank, c in enumerate(candidates)
        ]
        return OptimizationResult(
            application=self.application.name,
            platform=self.table.platform,
            candidates=candidates,
            gap_threshold_s=threshold,
            utilization_optimum=utilization,
            solver_invocations=self.solver_invocations,
            solver_wall_s=self.solver_wall_s,
        )
