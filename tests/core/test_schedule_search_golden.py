"""Golden equivalence of levels 1 + 2 over a seeded, tie-heavy corpus.

``GOLDEN_DIGEST`` was recorded with the branch-and-bound constraint
solver that the schedule scan replaced.  The scan walks the C1 + C2
space in that solver's search order and keeps its accept rule, so every
decision - tie picks, last-bit floats, invocation counts and error text -
must hash to the same value.  The corpus favours the cases where an
equivalent-looking rewrite would drift: latencies drawn from small grids
(many exact ties, and ``0.1 + 0.2 != 0.3`` sums), permuted or partial
``pu_classes``, C3a/C3b bounds sitting exactly on chunk sums, K from 1
to past the size of the space, and infeasible bounds.

The second half covers the budget salvage path: a wall budget that
expires between level-2 rounds keeps the candidates found so far.
"""

import hashlib
import json
import random

import pytest

import repro.core.optimizer as optimizer_module
from repro.core import Application, Stage
from repro.core.optimizer import BTOptimizer
from repro.core.profiler import ProfilingTable
from repro.errors import ReproError
from repro.serialization import optimization_to_dict
from repro.soc import WorkProfile

GOLDEN_DIGEST = (
    "d481c45f6b1c0e26a062c95b111706d8467acf73383f482de5e35f100a70318b"
)
CORPUS_SEED = 20251017
CORPUS_SIZE = 300
GRIDS = (
    (1.0, 2.0, 3.0),
    (0.1, 0.2, 0.3, 0.4),
    (0.5, 1.0, 1.5, 2.5, 4.0),
    (1.0,),
)
KS = (1, 3, 5, 20, 40)


def make_case(latencies):
    """Application + table from per-stage rows of per-PU latencies."""
    n, m = len(latencies), len(latencies[0])
    pus = tuple(f"pu{j}" for j in range(m))
    app = Application(
        "golden",
        [Stage.model_only(f"s{i}", WorkProfile(flops=1.0, bytes_moved=1.0))
         for i in range(n)],
    )
    entries = {
        (f"s{i}", pus[j]): latencies[i][j]
        for i in range(n)
        for j in range(m)
    }
    table = ProfilingTable(
        application="golden", platform="test", mode="interference",
        entries=entries, stage_names=app.stage_names, pu_classes=pus,
    )
    return app, table


def draw_case(rng):
    """One corpus case: (latency rows, optimizer keyword arguments)."""
    n = rng.randint(1, 6)
    m = rng.randint(1, 4)
    grid = rng.choice(GRIDS)
    scale = rng.choice((1.0, 1e-3))
    latencies = [[rng.choice(grid) * scale for _ in range(m)]
                 for _ in range(n)]
    order = [f"pu{j}" for j in range(m)]
    rng.shuffle(order)
    if m > 1 and rng.random() < 0.25:
        order = order[:rng.randint(1, m - 1)]
    kwargs = {
        "pu_classes": order,
        "k": rng.choice(KS),
        "gap_slack": rng.choice((0.0, 0.1, 0.5)),
    }
    draw = rng.random()
    if draw < 0.3:
        kwargs["max_chunk_time_s"] = (
            rng.choice(grid) * scale * rng.choice((1, 2, 3))
        )
    elif draw < 0.35:
        kwargs["max_chunk_time_s"] = min(grid) * scale / 2  # infeasible
    draw = rng.random()
    if draw < 0.2:
        kwargs["min_chunk_time_s"] = rng.choice(grid) * scale
    elif draw < 0.25:
        kwargs["min_chunk_time_s"] = max(grid) * scale * (n + 1)
    return latencies, kwargs


def outcome(latencies, kwargs):
    """The serialized result of levels 1 + 2, or the error it raised."""
    app, table = make_case(latencies)
    try:
        result = BTOptimizer(app, table, **kwargs).optimize()
    except ReproError as exc:
        return f"{type(exc).__name__}: {exc}"
    return json.dumps(optimization_to_dict(result), sort_keys=True)


def corpus_digest():
    rng = random.Random(CORPUS_SEED)
    digest = hashlib.sha256()
    for index in range(CORPUS_SIZE):
        latencies, kwargs = draw_case(rng)
        digest.update(f"{index}|{outcome(latencies, kwargs)}\n".encode())
    return digest.hexdigest()


def test_corpus_matches_constraint_solver_golden():
    assert corpus_digest() == GOLDEN_DIGEST


class FakeTime:
    """Stands in for the optimizer's ``time`` module: every
    ``perf_counter()`` call advances the clock by one second."""

    def __init__(self):
        self.now = 0.0

    def perf_counter(self):
        self.now += 1.0
        return self.now


class TestBudgetSalvage:
    K = 8
    #: Wide enough that the gapness filter keeps the whole space, so
    #: level 2 makes exactly one scan per round (no top-up scan).
    GAP_SLACK = 10.0

    @pytest.fixture
    def case(self):
        return make_case([
            [1.0, 2.0, 3.0],
            [4.0, 1.0, 2.0],
            [2.0, 1.0, 1.0],
            [1.0, 2.0, 2.0],
            [3.0, 1.0, 2.0],
        ])

    def test_budget_between_rounds_keeps_found_candidates(
        self, case, monkeypatch
    ):
        app, table = case
        greedy = tuple(
            table.pu_classes[c]
            for c in BTOptimizer(app, table).greedy_assignment()
        )
        salvaged_rounds = []
        # Grow the fake budget one second at a time until level 2
        # completes; every budget before that expires between scans.
        for budget_s in range(1, 200):
            monkeypatch.setattr(optimizer_module, "time", FakeTime())
            result = BTOptimizer(
                app, table, k=self.K, gap_slack=self.GAP_SLACK,
                time_budget_s=float(budget_s),
            ).optimize()
            if not result.degraded:
                break
            assert result.utilization_optimum is None
            latencies = [c.predicted_latency_s for c in result.candidates]
            assert latencies == sorted(latencies)
            assert [c.rank for c in result.candidates] == list(
                range(len(result.candidates))
            )
            rounds = result.solver_invocations - 1  # minus level 1
            if rounds < 1:
                continue
            # The salvage is the greedy schedule plus exactly what the
            # completed rounds found.
            monkeypatch.undo()
            prefix = BTOptimizer(app, table, k=rounds,
                                 gap_slack=self.GAP_SLACK).optimize()
            expected = {greedy} | {
                c.schedule.assignments for c in prefix.candidates
            }
            schedules = [c.schedule.assignments for c in result.candidates]
            assert len(schedules) == len(expected)
            assert set(schedules) == expected
            salvaged_rounds.append(rounds)
        else:
            pytest.fail("level 2 never completed within the budget")
        assert not result.degraded
        assert len(result.candidates) == self.K
        assert salvaged_rounds
        assert set(range(1, self.K)) <= set(salvaged_rounds)
