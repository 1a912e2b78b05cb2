"""Storage allocations scored by exact recovery counts.

An allocation spreads a budget of T data units over n storage nodes, at
most one unit per node; recovery succeeds for an r-subset of nodes when
its stored amounts sum to at least 1.  phi counts the successful
r-subsets exactly.  Besides the two closed-form candidate families (all
1/r on r*T nodes, all 1 on T nodes), a grid brute force maximises phi
over allocations whose entries are multiples of 1/q, and a sandwich
report brackets the grid optimum between two brute-forced degree
thresholds.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .extremal import _clique_min_degree, _h1_min_degree
from .hypercore import VertexWeighting
from .thresholds import ThresholdQuery, brute_force_threshold

__all__ = [
    "Allocation",
    "AllocationReport",
    "GridBudgetError",
    "phi",
    "candidate_allocations",
    "optimize_grid",
    "sandwich",
    "SandwichReport",
]


class GridBudgetError(RuntimeError):
    """The composition grid is larger than the enumeration budget."""


# Most compositions a grid may have; all of them count, not just the sorted
# ones that are visited.
_MAX_GRID_POINTS = 2_000_000


@dataclass(frozen=True)
class Allocation:
    """Per-node stored amounts with access-set size r and integer budget."""

    x: VertexWeighting
    r: int
    budget: int

    def __post_init__(self):
        n = len(self.x)
        if not 1 <= self.r <= n:
            raise ValueError(f"need 1 <= r <= n, got r={self.r}, n={n}")
        if self.budget < 0:
            raise ValueError(f"budget must be >= 0, got {self.budget}")
        if self.x.total() > self.budget:
            raise ValueError(
                f"total stored amount {self.x.total()} exceeds budget {self.budget}"
            )

    @property
    def n(self) -> int:
        return len(self.x)


@dataclass(frozen=True)
class AllocationReport:
    phi: int
    success_probability: Fraction
    allocation: Allocation

    def __post_init__(self):
        limit = math.comb(self.allocation.n, self.allocation.r)
        if not 0 <= self.phi <= limit:
            raise ValueError(f"phi={self.phi} outside [0, {limit}]")


def phi(a: Allocation) -> AllocationReport:
    """Count the r-subsets whose stored amounts reach 1, exactly."""
    count = 0
    for subset in itertools.combinations(a.x.weights, a.r):
        if sum(subset) >= 1:
            count += 1
    return AllocationReport(
        phi=count,
        success_probability=Fraction(count, math.comb(a.n, a.r)),
        allocation=a,
    )


def candidate_allocations(n: int, r: int, budget: int) -> list[AllocationReport]:
    """The two closed-form families, each re-counted and cross-checked.

    The concentrated ("clique") allocation stores 1/r on r*budget nodes,
    succeeding exactly on the C(r*budget, r) subsets inside its support;
    it needs r*budget <= n and is omitted otherwise.  The spread
    allocation stores 1 on budget nodes, succeeding exactly on the
    subsets that meet its support, C(n,r) - C(n-budget,r); it needs
    budget <= n.
    """
    if not 1 <= r <= n:
        raise ValueError(f"need 1 <= r <= n, got r={r}, n={n}")
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    reports = []
    if r * budget <= n:
        support = r * budget
        clique = Allocation(
            VertexWeighting(
                (Fraction(1, r),) * support + (Fraction(0),) * (n - support)
            ),
            r,
            budget,
        )
        report = phi(clique)
        if report.phi != _clique_min_degree(r, n, 0, support):
            raise AssertionError("concentrated allocation misses its closed form")
        reports.append(report)
    if budget <= n:
        spread = Allocation(
            VertexWeighting(
                (Fraction(1),) * budget + (Fraction(0),) * (n - budget)
            ),
            r,
            budget,
        )
        report = phi(spread)
        if report.phi != _h1_min_degree(r, n, 0, budget):
            raise AssertionError("spread allocation misses its closed form")
        reports.append(report)
    return reports


def _phi_on_grid(amounts: tuple[int, ...], r: int, q: int) -> int:
    """phi for entries amounts[i]/q, computed in integer arithmetic."""
    count = 0
    for subset in itertools.combinations(amounts, r):
        if sum(subset) >= q:
            count += 1
    return count


def _compositions_desc(length: int, total: int, cap: int):
    """Non-increasing tuples of parts <= cap summing to total, descending lex."""
    if length == 1:
        if 0 <= total <= cap:
            yield (total,)
        return
    for first in range(min(cap, total), -1, -1):
        rest_total = total - first
        if rest_total > first * (length - 1):
            break
        for rest in _compositions_desc(length - 1, rest_total, first):
            yield (first,) + rest


def optimize_grid(
    n: int,
    r: int,
    budget: int,
    q: int | None = None,
    jobs: int = 1,
) -> AllocationReport:
    """Maximise phi over allocations with entries in {0, 1/q, ..., 1}.

    The budget is spent fully (phi never decreases when any entry grows,
    so slack cannot help).  phi does not change when the entries are
    permuted, so the lexicographically largest maximiser is non-increasing,
    and only the non-increasing compositions are visited, in descending
    lexicographic order; only strict improvements replace the incumbent,
    so ties resolve to the lexicographically largest maximiser over all
    compositions.  A grid of more than ``_MAX_GRID_POINTS`` compositions is
    refused with ``GridBudgetError``.  ``jobs`` is accepted for
    compatibility and ignored.
    """
    if q is None:
        q = 2 * r
    if not 1 <= r <= n:
        raise ValueError(f"need 1 <= r <= n, got r={r}, n={n}")
    if q < 1:
        raise ValueError(f"grid denominator must be >= 1, got {q}")
    if not 0 <= budget <= n:
        raise ValueError(
            f"an equality budget needs 0 <= budget <= n, got {budget}"
        )
    total = q * budget
    space = math.comb(total + n - 1, n - 1)
    if space > _MAX_GRID_POINTS:
        raise GridBudgetError(
            f"{space} grid points exceed the limit of {_MAX_GRID_POINTS}"
        )
    best, best_amounts = -1, None
    for amounts in _compositions_desc(n, total, q):
        value = _phi_on_grid(amounts, r, q)
        if value > best:
            best, best_amounts = value, amounts
    if best_amounts is None:
        raise AssertionError("an equality budget within capacity always has points")
    allocation = Allocation(
        VertexWeighting(tuple(Fraction(a, q) for a in best_amounts)), r, budget
    )
    report = phi(allocation)
    if report.phi != best:
        raise AssertionError("grid count disagrees with the exact recount")
    return report


@dataclass(frozen=True)
class SandwichReport:
    """Grid optimum bracketed by two brute-forced fractional thresholds.

    ``lower`` is the threshold at target ``budget``, ``upper`` the one at
    ``budget + 1``; for budgets below n/r the optimum lies between them.
    """

    n: int
    r: int
    budget: int
    lower: int
    grid: AllocationReport
    upper: int
    holds: bool


def sandwich(
    n: int,
    r: int,
    budget: int,
    jobs: int = 1,
) -> SandwichReport:
    """Bracket the optimum on the 1/(2r) grid by thresholds at the budget and above it.

    ``jobs`` is accepted for compatibility and ignored.
    """
    if budget < 1:
        raise ValueError(f"sandwich needs budget >= 1, got {budget}")
    lower = brute_force_threshold(ThresholdQuery(r, n, 0, budget, "fractional")).value
    upper = brute_force_threshold(ThresholdQuery(r, n, 0, budget + 1, "fractional")).value
    grid = optimize_grid(n, r, budget)
    return SandwichReport(
        n=n,
        r=r,
        budget=budget,
        lower=lower,
        grid=grid,
        upper=upper,
        holds=lower <= grid.phi <= upper,
    )
