"""The ten acceptance checks behind ``hypermatch selftest``.

``CRITERIA`` holds one (name, runtime limit, check) row per criterion.  A
check returns (passed, detail); the runner adds timing, enforces the limit
where one is declared, and reports a failed certificate re-check (an
``AssertionError``) as a failure.  tests/test_acceptance.py runs the same
battery, so the CLI table and the test suite can never disagree.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from .extremal import _h1_min_degree, construct_h0, construct_h1, conjecture_values
from .hypercore import (
    Hypergraph,
    VertexWeighting,
    incidence,
    min_d_degree,
    threshold_hypergraph,
)
from .optmatch import (
    fractional_matching,
    fractional_optimum,
    has_perfect_matching,
    matching_number,
)
from .randcons import RoundOnePlan, build_sparse_subgraph, sample_rounds
from .samuels import (
    SamuelsQuery,
    TwoPointFamily,
    _small_count,
    boundary_scan,
    q_min,
    q_t,
)
from .storage import Allocation, candidate_allocations, optimize_grid, phi, sandwich
from .thresholds import (
    ThresholdQuery,
    brute_force_threshold,
    compare_with_conjecture,
)

__all__ = ["CriterionResult", "run_criterion", "run_all", "CRITERIA"]


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    elapsed_seconds: float
    runtime_limit: float | None


def _random_hypergraph(rng: np.random.Generator) -> Hypergraph:
    k = int(rng.integers(2, 5))
    n = int(rng.integers(k, 13))
    density = (0.2, 0.5, 0.8)[int(rng.integers(0, 3))]
    pool = list(itertools.combinations(range(n), k))
    keep = rng.random(len(pool)) < density
    return Hypergraph(k, n, [e for e, kept in zip(pool, keep) if kept])


def _criterion_1() -> tuple[bool, str]:
    """nu <= nu* = tau* <= tau, exactly, on 500 seeded random instances.

    ``fractional_optimum`` re-checks the certificates and asserts the chain."""
    rng = np.random.default_rng(0)
    max_edges = 0
    for _ in range(500):
        h = _random_hypergraph(rng)
        max_edges = max(max_edges, h.num_edges)
        fractional_optimum(h)
    return True, f"500 instances (max {max_edges} edges), chain holds on every instance"


def _criterion_2() -> tuple[bool, str]:
    """Crossover point of the uniform families for l in {2, 3, 4}."""
    golden = (3 - math.sqrt(5)) / 2
    x2 = boundary_scan(2)
    x3 = boundary_scan(3)
    x4 = boundary_scan(4)
    ok = (
        abs(x2 - golden) <= 1e-3
        and 0.275 <= x3 <= 0.279
        and 0.215 <= x4 <= 0.219
    )
    return ok, f"x*(2)={x2:.6f} (golden {golden:.6f}), x*(3)={x3:.6f}, x*(4)={x4:.6f}"


def _criterion_3() -> tuple[bool, str]:
    """On the low-mean grid the first family minimises, exactly."""
    checked = 0
    for l in range(2, 9):
        for i in range(1, 1000 // (l + 1) + 1):
            x = Fraction(i, 1000)
            if x * (l + 1) > 1:
                break
            query = SamuelsQuery.uniform(l, x)
            value, t = q_min(query)
            if t != 0 or value != (1 - x) ** l:
                return False, f"first failure at l={l}, x={x}"
            checked += 1
    return True, f"{checked} grid points, argmin always t=0 with q=(1-x)^l"


def _criterion_4() -> tuple[bool, str]:
    """Four pinned threshold values, each matching its closed form."""
    pinned = (  # (mode, k, n, d, s, expected, closed form)
        ("integral", 3, 6, 0, 2, 11, conjecture_values("Conj1.8", k=3, n=6, s=2).count),
        ("fractional", 3, 6, 2, 2, 2, conjecture_values("f_{k-1}-exact", k=3, n=6).count),
        ("integral", 2, 4, 1, 2, 2, conjecture_values("f_{k-1}-exact", k=2, n=4).count),
        ("integral", 2, 6, 1, 3, 3, conjecture_values("f_{k-1}-exact", k=2, n=6).count),
    )
    ok = True
    parts = []
    for mode, k, n, d, s, expected, formula in pinned:
        got = brute_force_threshold(ThresholdQuery(k, n, d, s, mode)).value
        ok &= got == expected == formula
        parts.append(f"{mode[0]}_{d}({k},{n};s={s})={got}")
    return ok, ", ".join(parts)


def _criterion_5() -> tuple[bool, str]:
    """Fractional <= integral, constructions <= brute force, link monotone."""
    ok = True
    comparisons = []
    for k, n, d, s in ((3, 6, 0, 2), (3, 6, 1, 2), (3, 6, 2, 2), (2, 4, 1, 2), (2, 6, 1, 3)):
        report = compare_with_conjecture(ThresholdQuery(k, n, d, s, "fractional"))
        ok &= all(report.flags.values())
        comparisons.append(
            f"d={d}({k},{n}): f={report.fractional_value}<=m={report.integral_value}"
        )
    left = brute_force_threshold(ThresholdQuery(3, 6, 1, 2, "fractional"))
    right = brute_force_threshold(ThresholdQuery(2, 5, 0, 2, "fractional"))
    ok &= left.value <= right.value
    comparisons.append(f"link bound {left.value}<={right.value}")
    return ok, "; ".join(comparisons)


def _criterion_6() -> tuple[bool, str]:
    """Structural guarantees of the two extremal families."""
    for k, n in ((2, 4), (2, 6), (3, 6), (3, 9), (4, 8)):
        if has_perfect_matching(construct_h0(k, n)):
            return False, f"parity family ({k},{n}) has a perfect matching"
    instances = 0
    for k in (2, 3):
        for n in range(k, 13):
            for s in range(1, n // k + 1):
                h = construct_h1(k, n, s)
                if matching_number(h) != s - 1:
                    return False, f"cover family ({k},{n},{s}) matching number off"
                value, _, _ = fractional_matching(h)
                if value != s - 1:
                    return False, f"cover family ({k},{n},{s}) fractional value off"
                instances += 1
            if n % k == 0:
                s = n // k
                h = construct_h1(k, n, s)
                for d in range(0, k):
                    if min_d_degree(h, d) != _h1_min_degree(k, n, d, s - 1):
                        return False, f"degree closed form off at ({k},{n},d={d})"
    return True, f"parity family never perfect; cover family exact on {instances} instances"


def _criterion_7() -> tuple[bool, str]:
    """Threshold hypergraph size and value bound on random weightings."""
    rng = np.random.default_rng(7)
    for _ in range(100):
        l = int(rng.integers(2, 5))
        m = int(rng.integers(l, 13))
        denominators = rng.integers(1, 13, size=m)
        weights = tuple(
            Fraction(int(rng.integers(0, den + 1)), int(den))
            for den in denominators
        )
        w = VertexWeighting(weights)
        h = threshold_hypergraph(w, l)
        if h.num_edges != phi(Allocation(w, l, math.ceil(w.total()))).phi:
            return False, f"edge count mismatch at m={m}, l={l}"
        value, _, _ = fractional_matching(h)
        if value > w.total():
            return False, f"fractional value {value} exceeds total weight {w.total()}"
    return True, "100 weightings: |H_w| = phi(w) and nu*(H_w) <= total weight"


_MC_CASES = (
    (3, Fraction(1, 5), 0, Fraction(64, 125)),
    (3, Fraction(3, 10), 2, Fraction(1, 4)),
    (4, Fraction(1, 5), 0, Fraction(256, 625)),
)


def _criterion_8() -> tuple[bool, str]:
    """Monte Carlo estimates sit on the exact values, 20 seeds per case."""
    parts = []
    ok = True
    samples = 100_000
    for l, x, t, expected in _MC_CASES:
        query = SamuelsQuery.uniform(l, x)
        exact = q_t(query, t)
        if exact != expected:
            return False, f"closed form off at l={l}, x={x}, t={t}"
        family = TwoPointFamily(query, t)
        num, den = exact.as_integer_ratio()
        # |count / samples - num / den| <= 1/100, decided in integers.
        hits = sum(
            100 * abs(_small_count(family, samples, seed) * den - samples * num)
            <= samples * den
            for seed in range(20)
        )
        ok &= hits >= 19
        parts.append(f"(l={l},x={x},t={t}): {hits}/20 within 0.01 of {float(exact)}")
    return ok, "; ".join(parts)


def _within_3_sigma(deviation: int, reps: int, variance: Fraction) -> bool:
    """|deviation| / reps <= 3 sigma with sigma^2 = variance / reps, decided
    exactly in its squared form deviation^2 <= 9 * reps * variance."""
    return deviation * deviation <= 9 * reps * variance


def _below_3_sigma(excess: int, reps: int, variance: Fraction) -> bool:
    """excess / reps <= 3 sigma with sigma^2 = variance / reps: a sign test,
    then the squared form."""
    return excess <= 0 or _within_3_sigma(excess, reps, variance)


def _criterion_9() -> tuple[bool, str]:
    """Round-two degree concentration on the complete 3-graph, n=60."""
    base = Hypergraph.complete(3, 60)
    plan = RoundOnePlan(base, rounds=40, p=0.5, d=1, seed=7)
    outcome = sample_rounds(plan, with_matchings=True)
    if outcome.skipped_rounds:
        return False, f"rounds without perfect fractional matching: {outcome.skipped_rounds}"

    n = base.n
    coverage, pair_coverage = incidence(outcome.subsets, n)
    support = [(e, w) for matching in outcome.matchings for e, w in matching.support()]
    variance_v, variance_uv = incidence(
        (e for e, w in support), n, (w * (1 - w) for e, w in support)
    )

    reps = 200
    selected = [
        e
        for rep in range(reps)
        for kept in build_sparse_subgraph(outcome, seed=rep).per_round_selected
        for e in kept
    ]
    degree_sum, codegree_sum = incidence(selected, n)

    vertex_hits = sum(
        _within_3_sigma(degree_sum[v] - reps * coverage[v], reps, variance_v[v]) for v in range(n)
    )
    pair_ok = all(
        _below_3_sigma(total - reps * pair_coverage.get(pair, 0), reps, variance_uv.get(pair, 0))
        for pair, total in codegree_sum.items()
    )
    passed = 20 * vertex_hits >= 19 * n and pair_ok  # 95% of the vertices
    detail = (
        f"40/40 rounds perfect; {vertex_hits}/{n} vertex means within 3 sigma; "
        f"pair means {'all' if pair_ok else 'NOT all'} below coverage + 3 sigma"
    )
    return passed, detail


def _criterion_10() -> tuple[bool, str]:
    """Grid optima, candidate closed forms, and the threshold sandwich."""
    grid_ok = (
        optimize_grid(4, 2, 1, 4).phi == 3
        and optimize_grid(5, 2, 2, 4).phi == 7
        and optimize_grid(4, 2, 2, 4).phi == 6
    )
    candidates = candidate_allocations(10, 2, 4)
    candidate_ok = [rep.phi for rep in candidates] == [28, 30]
    sandwiches = [sandwich(5, 2, budget) for budget in (1, 2)]
    sandwich_ok = all(s.holds for s in sandwiches)
    detail = (
        f"grid optima 3/7/6: {grid_ok}; concentrated/spread 28/30: {candidate_ok}; "
        + "; ".join(
            f"T={s.budget}: {s.lower}<={s.grid.phi}<={s.upper}" for s in sandwiches
        )
    )
    return grid_ok and candidate_ok and sandwich_ok, detail


CRITERIA: tuple[tuple[str, float | None, Callable[[], tuple[bool, str]]], ...] = (
    ("duality_chain", 60.0, _criterion_1),
    ("boundary_windows", 5.0, _criterion_2),
    ("argmin_at_zero", 5.0, _criterion_3),
    ("exhaustive_thresholds", 600.0, _criterion_4),
    ("inequality_web", None, _criterion_5),
    ("construction_invariants", None, _criterion_6),
    ("threshold_hypergraph_bridge", None, _criterion_7),
    ("monte_carlo_closed_form", 10.0, _criterion_8),
    ("randomized_construction", 300.0, _criterion_9),
    ("storage_grid_sandwich", 120.0, _criterion_10),
)


def run_criterion(number: int) -> CriterionResult:
    if not 1 <= number <= len(CRITERIA):
        raise ValueError(f"criterion number must be in 1..{len(CRITERIA)}")
    name, limit, check = CRITERIA[number - 1]
    started = time.perf_counter()
    try:
        passed, detail = check()
    except AssertionError as exc:
        passed, detail = False, f"certificate check failed: {exc}"
    elapsed = time.perf_counter() - started
    if limit is not None and elapsed >= limit:
        passed = False
        detail += f" [exceeded {limit:g}s runtime limit]"
    return CriterionResult(
        number=number,
        name=name,
        passed=passed,
        detail=detail,
        elapsed_seconds=elapsed,
        runtime_limit=limit,
    )


def run_all(numbers: list[int] | None = None) -> list[CriterionResult]:
    if numbers is None:
        numbers = list(range(1, len(CRITERIA) + 1))
    return [run_criterion(number) for number in numbers]
