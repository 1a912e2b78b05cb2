"""The four benchmark workloads: their inputs, answers and pinned values.

Every workload is a closed loop with one caller and one answer in flight.
``build(workload, seed, seconds)`` makes the inputs from the seed alone and
returns the list of answers to ask for, in order; the worker times each one.
The amount of work depends only on (workload, seed, seconds), never on the
clock, so two runs with the same arguments do the same work and their exact
counts repeat.  ``seconds`` scales the repeatable parts (certify instances,
sparsify rounds and builds, Monte Carlo draws) so that a run measures about
that long on a 2-vCPU machine; the pinned threshold, grid and storage queries
of ``enumerate`` always run in full.  Certify instances and sparse builds are
each asked once, with distinct inputs, so those two workloads are timed on
first calls only.  ``enumerate-par`` asks the questions of
``enumerate`` whose calls take ``jobs`` (thresholds, compares, grids,
sandwich), in the same order, at ``jobs=2``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

import numpy as np

from hypermatch import optmatch, randcons, samuels, storage, thresholds
from hypermatch.hypercore import Hypergraph

WORKLOADS = ("certify", "enumerate", "enumerate-par", "sparsify")
DEFAULT_SEED = 0
DEFAULT_SECONDS = 20
PAR_JOBS = 2

# (mode, k, n, d, s) -> value; the values of the acceptance battery and of the
# brute force at the seed commit.
PINNED_THRESHOLDS: tuple[tuple[str, int, int, int, Fraction, int], ...] = (
    ("integral", 3, 6, 0, Fraction(2), 11),
    ("fractional", 3, 6, 2, Fraction(2), 2),
    ("fractional", 3, 6, 0, Fraction(2), 11),
    ("fractional", 3, 6, 1, Fraction(2), 5),
    ("integral", 3, 6, 1, Fraction(2), 6),
    ("integral", 3, 6, 2, Fraction(2), 3),
    ("integral", 2, 7, 1, Fraction(3), 3),
    ("fractional", 2, 7, 1, Fraction(3), 3),
    ("integral", 2, 7, 0, Fraction(2), 7),
    ("fractional", 2, 7, 0, Fraction(5, 2), 12),
    ("integral", 5, 7, 0, Fraction(2), 22),
    ("fractional", 3, 6, 0, Fraction(3, 2), 11),
)

# compare_with_conjecture runs both flavours at (k, n, d, s); all but the
# integral side of (2, 7, 0, 5/2) repeat a pinned query, so 11 of its 12
# threshold calls are memo hits.
COMPARE_QUERIES: tuple[tuple[int, int, int, Fraction], ...] = (
    (3, 6, 0, Fraction(2)),
    (3, 6, 1, Fraction(2)),
    (3, 6, 2, Fraction(2)),
    (2, 7, 1, Fraction(3)),
    (2, 7, 0, Fraction(5, 2)),
    (3, 6, 0, Fraction(3, 2)),
)

# (n, r, budget, q) -> phi of the grid optimum.
PINNED_GRIDS: tuple[tuple[int, int, int, int, int], ...] = (
    (8, 3, 3, 6, 56),
    (9, 3, 2, 6, 49),
    (10, 2, 3, 4, 24),
    (8, 4, 2, 8, 70),
)

# sandwich(5, 2, T) for T = 1, 2 asks f(2,5,0,T) and f(2,5,0,T+1): four
# calls, one of them (f(2,5,0,2) at T = 2) a memo hit.
SANDWICH_BUDGETS = (1, 2)
SANDWICH_N, SANDWICH_R = 5, 2

# Threshold calls and memo hits per run; a run that sees other counts fails.
EXPECTED_QUERIES = len(PINNED_THRESHOLDS) + 2 * len(COMPARE_QUERIES) + 2 * len(SANDWICH_BUDGETS)
EXPECTED_MEMO_HITS = 11 + 1

# Criterion-8 families: (l, x, t).
MC_CASES = ((3, Fraction(1, 5), 0), (3, Fraction(3, 10), 2), (4, Fraction(1, 5), 0))
MC_SAMPLES = 500_000

# Criterion-9 plan: the complete 3-graph on 60 vertices, p = 1/2, d = 1,
# plan seed 7.  Round i depends only on (plan seed, i), so its first rounds
# are those of the acceptance criterion whatever the round count.
SPARSIFY_N, SPARSIFY_K, SPARSIFY_P, SPARSIFY_D, SPARSIFY_PLAN_SEED = 60, 3, 0.5, 1, 7

# Quick answers are the short pure calls of enumerate: each is asked REPEATS
# times, a third of a run apart, and its latency is the best of those.  The
# other answers are asked once: threshold queries are memoised, the grids,
# the q_min grid and the round-one LPs are long, and certify instances and
# sparse builds come in numbers large enough that their median and tail
# need no repeat.  A repeat that returns the very object an earlier call
# returned is a cached answer, and the worker counts it as failed.
QUICK_KINDS = frozenset({"candidates", "boundary", "mc"})
REPEATS = 3
# The answers whose latencies make answer_p50_ms and answer_tail_ms; a
# workload with none of them (enumerate-par) takes every answer.
LATENCY_KINDS = frozenset({"certify", "candidates", "boundary", "mc", "build"})

BUILD_BATCH = 30

CERTIFY_DENSITIES = (0.2, 0.5, 0.8)
CERTIFY_MAX_N = 14


@dataclass
class Answer:
    """One answer to ask for: a label naming its inputs, and the call."""

    label: str
    kind: str
    call: Callable[[], Any]
    spec: Any = None  # what the checks need to know about the inputs

    @property
    def quick(self) -> bool:
        return self.kind in QUICK_KINDS


def threshold_label(mode: str, k: int, n: int, d: int, s: Fraction) -> str:
    return f"threshold/{mode[0]}({k},{n},{d},{s})"


def scale(seconds: int, per_twenty: float, floor: int = 1) -> int:
    """How many units of a repeatable part fit in a run of ``seconds``."""
    return max(floor, round(per_twenty * seconds / DEFAULT_SECONDS))


def certify_instance(seed: int, k: int, n: int, density: float, rep: int) -> Hypergraph:
    """The criterion-1 family: each k-subset of n vertices kept with ``density``.

    The generator is keyed by (seed, k, n, density, rep), so an instance does
    not depend on how many others the run asks for.
    """
    rng = np.random.default_rng([seed, k, n, round(density * 10), rep])
    pool = list(itertools.combinations(range(n), k))
    keep = rng.random(len(pool)) < density
    return Hypergraph(k, n, [e for e, kept in zip(pool, keep) if kept])


def _certify(seed: int, seconds: int) -> list[Answer]:
    # Stratified over (k, n, density) with n raised from 12 to 14, so every
    # seed asks for the same mix of sizes and only the edges vary: the cover
    # DP doubles with each vertex, and an unstratified draw would let the
    # seed decide how many of the slowest instances a run gets.  Nine
    # instances a cell put 27 instances of each of the slowest cells in the
    # run, so the tail, the eleventh slowest answer, does not rest on a few.
    answers = []
    for rep in range(scale(seconds, 9)):
        for k in (2, 3, 4):
            for n in range(k, CERTIFY_MAX_N + 1):
                for density in CERTIFY_DENSITIES:
                    h = certify_instance(seed, k, n, density, rep)
                    label = f"certify/{seed}/k{k}n{n}p{round(density * 10)}/{rep}"
                    answers.append(
                        Answer(label, "certify", _bind(optmatch, "fractional_optimum", h), h)
                    )
    return answers


def _bind(module, name: str, *args, **kwargs) -> Callable[[], Any]:
    # Looked up at call time, so a traced run calls the wrapped function.
    return lambda: getattr(module, name)(*args, **kwargs)


def _threshold_answers(jobs: int) -> list[Answer]:
    answers = []
    for mode, k, n, d, s, value in PINNED_THRESHOLDS:
        query = thresholds.ThresholdQuery(k, n, d, s, mode)
        answers.append(
            Answer(
                threshold_label(mode, k, n, d, s),
                "threshold",
                _bind(thresholds, "brute_force_threshold", query, jobs=jobs),
                (query, value),
            )
        )
    for k, n, d, s in COMPARE_QUERIES:
        query = thresholds.ThresholdQuery(k, n, d, s, "fractional")
        answers.append(
            Answer(
                f"compare/({k},{n},{d},{s})",
                "compare",
                _bind(thresholds, "compare_with_conjecture", query, jobs=jobs),
                query,
            )
        )
    return answers


def _storage_answers(jobs: int) -> list[Answer]:
    answers = []
    for n, r, budget, q, value in PINNED_GRIDS:
        answers.append(
            Answer(
                f"grid/({n},{r},{budget},{q})",
                "grid",
                _bind(storage, "optimize_grid", n, r, budget, q, jobs=jobs),
                (n, r, budget, q, value),
            )
        )
    for budget in SANDWICH_BUDGETS:
        answers.append(
            Answer(
                f"sandwich/({SANDWICH_N},{SANDWICH_R},{budget})",
                "sandwich",
                _bind(storage, "sandwich", SANDWICH_N, SANDWICH_R, budget, jobs=jobs),
                (SANDWICH_N, SANDWICH_R, budget),
            )
        )
    return answers


def _candidate_answers() -> list[Answer]:
    return [
        Answer(
            f"candidates/({n},{r},{budget})",
            "candidates",
            _bind(storage, "candidate_allocations", n, r, budget),
            (n, r, budget),
        )
        for n, r, budget, _, _ in PINNED_GRIDS
    ]


def samuels_grid() -> list[tuple[int, Fraction]]:
    """The criterion-3 grid: uniform means x = i/1000 with (l + 1) x <= 1."""
    points = []
    for l in range(2, 9):
        for i in range(1, 1000 // (l + 1) + 1):
            x = Fraction(i, 1000)
            if x * (l + 1) > 1:
                break
            points.append((l, x))
    return points


def _samuels_answers(seed: int, seconds: int) -> list[Answer]:
    # The q_min grid is one answer: per point it takes 0.1 ms, and its median
    # moved by up to 1.7 times between runs with the machine's slow spells.
    points = samuels_grid()
    queries = [samuels.SamuelsQuery.uniform(l, x) for l, x in points]
    answers = [Answer("qmin/grid", "qmin", lambda: [samuels.q_min(q) for q in queries], points)]
    for l in (2, 3, 4):
        answers.append(Answer(f"boundary/{l}", "boundary", _bind(samuels, "boundary_scan", l), l))
    # Ten draws per case put the median and the tail of the quick answers
    # among the t = 0 draws, clear of the cluster edges.
    for draw in range(scale(seconds, 10)):
        for l, x, t in MC_CASES:
            family = samuels.TwoPointFamily(samuels.SamuelsQuery.uniform(l, x), t)
            mc_seed = seed * 1000 + draw
            answers.append(
                Answer(
                    f"mc/({l},{x},{t})/{mc_seed}",
                    "mc",
                    _bind(samuels, "monte_carlo_small_sum", family, MC_SAMPLES, seed=mc_seed),
                    (l, x, t, MC_SAMPLES),
                )
            )
    return answers


def sparsify_plan(rounds: int) -> randcons.RoundOnePlan:
    base = Hypergraph.complete(SPARSIFY_K, SPARSIFY_N)
    return randcons.RoundOnePlan(
        base, rounds=rounds, p=SPARSIFY_P, d=SPARSIFY_D, seed=SPARSIFY_PLAN_SEED
    )


class _Sparsify:
    """Round one with its LPs, and builds from the outcome of its first round.

    The builds read round 0 alone (|R| = 23), asked first, so that half of
    them can come before the long call with all the rounds and half after:
    builds timed only after it would all fall in the run's last seconds.
    """

    def __init__(self, seed: int, seconds: int):
        # The rounds hold |R| = 23, 37, 32, 33 vertices: LPs of 1771 to 7770
        # columns.
        rounds = scale(seconds, 4)
        self.plans = (sparsify_plan(1),) + ((sparsify_plan(rounds),) if rounds > 1 else ())
        self.outcome: randcons.RoundOneOutcome | None = None
        # One answer is a batch of BUILD_BATCH builds: a single build on round 0
        # costs 0.3 or 0.4 ms by how many edges its draws keep, and a median
        # over single builds sat on the edge between those two levels.  With
        # ten builds a batch, the builds took under a second of the run and
        # their median moved with the machine's speed in that second.
        self.batches = [
            [seed * 1_000_000 + BUILD_BATCH * b + i for i in range(BUILD_BATCH)]
            for b in range(scale(seconds, 360, floor=2))
        ]

    def sample(self, plan: randcons.RoundOnePlan) -> randcons.RoundOneOutcome:
        outcome = randcons.sample_rounds(plan, with_matchings=True)
        if plan.rounds == 1:
            self.outcome = outcome
        return outcome

    def build(self, build_seeds: list[int]) -> list[randcons.SparseSubgraph]:
        if self.outcome is None:
            raise RuntimeError("round 0 did not return an outcome")
        return [randcons.build_sparse_subgraph(self.outcome, seed=s) for s in build_seeds]

    def answers(self) -> list[Answer]:
        rounds = [
            Answer(f"rounds/{plan.rounds}", "rounds", lambda plan=plan: self.sample(plan), plan)
            for plan in self.plans
        ]
        builds = [
            Answer(f"build/1/{seeds[0]}", "build", lambda seeds=seeds: self.build(seeds), self)
            for seeds in self.batches
        ]
        return interleave(rounds, builds)


def interleave(heavy: list[Answer], light: list[Answer]) -> list[Answer]:
    """Spread the light answers evenly after each heavy one, keeping both orders."""
    out: list[Answer] = []
    for i, answer in enumerate(heavy):
        out.append(answer)
        out.extend(light[len(light) * i // len(heavy) : len(light) * (i + 1) // len(heavy)])
    return out


def schedule(answers: list[Answer]) -> list[Answer]:
    """The order of calls: quick answers REPEATS times, spread over the run.

    Quick answers asked back to back would all be timed within one moment,
    so their latencies would follow whatever else the machine did then.
    """
    heavy = [a for a in answers if not a.quick]
    passes = [a for a in answers if a.quick] * REPEATS
    return interleave(heavy, passes) if heavy else passes


def build(workload: str, seed: int, seconds: int) -> list[Answer]:
    """The distinct answers one run asks for."""
    if workload == "certify":
        return _certify(seed, seconds)
    if workload == "enumerate":
        return (
            _threshold_answers(1) + _storage_answers(1) + _candidate_answers() + _samuels_answers(seed, seconds)
        )
    if workload == "enumerate-par":
        return _threshold_answers(PAR_JOBS) + _storage_answers(PAR_JOBS)
    if workload == "sparsify":
        return _Sparsify(seed, seconds).answers()
    raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")

