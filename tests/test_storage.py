"""Allocation counting, closed-form candidates, and grid optimisation."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hypermatch import storage
from hypermatch.hypercore import VertexWeighting, threshold_hypergraph
from hypermatch.optmatch import fractional_matching
from hypermatch.storage import (
    Allocation,
    GridBudgetError,
    candidate_allocations,
    optimize_grid,
    phi,
    sandwich,
)

import oracles


def uniform_allocation(value, n, r, budget):
    return Allocation(VertexWeighting((Fraction(value),) * n), r, budget)


class TestAllocation:
    def test_validation(self):
        with pytest.raises(ValueError):
            uniform_allocation(Fraction(1, 2), 4, 5, 4)
        with pytest.raises(ValueError):
            uniform_allocation(Fraction(1, 2), 4, 2, -1)
        with pytest.raises(ValueError):
            uniform_allocation(Fraction(1, 2), 4, 2, 1)  # total 2 > budget 1

    def test_phi_extremes(self):
        full = uniform_allocation(Fraction(1, 2), 5, 2, 5)
        report = phi(full)
        assert report.phi == math.comb(5, 2)
        assert report.success_probability == 1
        empty = uniform_allocation(0, 5, 2, 0)
        assert phi(empty).phi == 0

    def test_phi_matches_threshold_hypergraph(self):
        x = VertexWeighting(
            (Fraction(1), Fraction(1, 2), Fraction(1, 2), Fraction(1, 3), 0)
        )
        a = Allocation(x, 2, 3)
        assert phi(a).phi == threshold_hypergraph(x, 2).num_edges

    def test_allocation_respects_budget_fractionally(self):
        # the fractional matching number of the success hypergraph never
        # exceeds the stored total: the amounts form a fractional cover
        x = VertexWeighting((Fraction(1, 2),) * 4 + (Fraction(1),))
        a = Allocation(x, 2, 3)
        h = threshold_hypergraph(x, 2)
        value, _, _ = fractional_matching(h)
        assert value <= a.x.total() <= a.budget


class TestThresholdCount:
    """|H_w| = phi(w): the threshold hypergraph of w and an allocation of w
    count the same l-sets, each by its own loop."""

    @staticmethod
    def counts(weights, l):
        w = VertexWeighting(weights)
        edges = threshold_hypergraph(w, l).num_edges
        return edges, phi(Allocation(w, l, math.ceil(w.total()))).phi

    def test_pinned_example(self):
        half = Fraction(1, 2)
        assert self.counts((half, half, half, Fraction(1, 5)), 2) == (3, 3)

    def test_sets_summing_to_exactly_one_count(self):
        third = Fraction(1, 3)
        assert self.counts((third, third, third, Fraction(1, 6)), 3) == (1, 1)
        assert self.counts((Fraction(2, 5), Fraction(3, 5), Fraction(1, 5), 0), 2) == (1, 1)

    @given(
        st.lists(
            st.fractions(min_value=0, max_value=1, max_denominator=10),
            min_size=2,
            max_size=8,
        ),
        st.integers(min_value=2, max_value=3),
    )
    @settings(max_examples=60)
    def test_identity_on_random_weights(self, weights, l):
        if len(weights) < l:
            weights = weights + [Fraction(0)] * (l - len(weights))
        brute = sum(1 for e in itertools.combinations(weights, l) if sum(e) >= 1)
        assert self.counts(tuple(weights), l) == (brute, brute)


class TestCandidates:
    def test_both_families_present(self):
        reports = candidate_allocations(7, 3, 2)
        assert [r.phi for r in reports] == [
            math.comb(6, 3),
            math.comb(7, 3) - math.comb(5, 3),
        ]

    def test_concentrated_family_needs_room(self):
        reports = candidate_allocations(5, 3, 2)  # r*budget = 6 > 5
        assert len(reports) == 1
        assert reports[0].phi == math.comb(5, 3) - math.comb(3, 3)

    def test_budget_beyond_everything(self):
        assert candidate_allocations(4, 2, 5) == []

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: candidate_allocations(4, 5, 1), "need 1 <= r <= n, got r=5, n=4"),
            (lambda: candidate_allocations(4, 2, -1), "budget must be >= 0, got -1"),
            (lambda: optimize_grid(4, 0, 1), "need 1 <= r <= n, got r=0, n=4"),
        ],
    )
    def test_refusal_messages(self, call, message):
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == message

    def test_zero_budget(self):
        reports = candidate_allocations(4, 2, 0)
        assert [r.phi for r in reports] == [0, 0]


class TestOptimizeGrid:
    def test_spread_wins_on_tiny_instance(self):
        report = optimize_grid(4, 2, 1, q=4)
        assert report.phi == 3
        assert report.allocation.x.weights == (1, 0, 0, 0)

    def test_concentrated_wins_with_more_budget(self):
        report = optimize_grid(5, 2, 2, q=4)
        assert report.phi == 7
        assert report.allocation.x.weights == (1, 1, 0, 0, 0)

    def test_half_grid_beats_both_candidates(self):
        report = optimize_grid(4, 2, 2, q=4)
        assert report.phi == 6
        assert report.allocation.x.weights == (Fraction(1, 2),) * 4

    def test_tie_breaks_to_lexicographically_largest(self):
        report = optimize_grid(2, 1, 1, q=2)
        assert report.phi == 1
        assert report.allocation.x.weights == (1, 0)

    def test_budget_is_spent_exactly(self):
        report = optimize_grid(5, 2, 2, q=3)
        assert report.allocation.x.total() == 2

    def test_ignored_jobs_keyword_changes_nothing(self):
        solo = optimize_grid(5, 2, 2, q=4, jobs=1)
        forked = optimize_grid(5, 2, 2, q=4, jobs=3)
        assert solo.phi == forked.phi
        assert solo.allocation == forked.allocation

    def test_grid_budget_error(self, monkeypatch):
        monkeypatch.setattr(storage, "_MAX_GRID_POINTS", 10)
        with pytest.raises(GridBudgetError, match="exceed the limit of 10"):
            optimize_grid(6, 2, 3, q=4)

    def test_default_grid_refusal_message_is_pinned(self):
        with pytest.raises(GridBudgetError) as info:
            optimize_grid(10, 4, 3, q=12)
        assert str(info.value) == "886163135 grid points exceed the limit of 2000000"

    def test_default_denominator_is_twice_r(self):
        report = optimize_grid(3, 2, 1)
        denominators = {w.denominator for w in report.allocation.x.weights}
        assert denominators <= {1, 2, 4}

    def test_budget_range(self):
        with pytest.raises(ValueError):
            optimize_grid(4, 2, 5)
        assert optimize_grid(4, 2, 0).phi == 0
        assert optimize_grid(4, 2, 4).phi == math.comb(4, 2)


class TestGridAgainstOracle:
    def test_sorted_walk_matches_every_composition(self):
        # The all-compositions walk it replaced, on every small grid.
        for n in range(1, 7):
            for q in range(1, 5):
                for r in range(1, n + 1):
                    for budget in range(n + 1):
                        best, amounts = oracles.optimize_grid(n, r, budget, q)
                        report = optimize_grid(n, r, budget, q)
                        assert report.phi == best, (n, r, budget, q)
                        assert report.allocation.x.weights == tuple(
                            Fraction(a, q) for a in amounts
                        ), (n, r, budget, q)

    def test_only_sorted_points_are_visited(self, monkeypatch):
        from hypermatch import storage

        seen = []
        phi_on_grid = storage._phi_on_grid

        def record(amounts, r, q):
            seen.append(amounts)
            return phi_on_grid(amounts, r, q)

        monkeypatch.setattr(storage, "_phi_on_grid", record)
        optimize_grid(6, 3, 3, q=4)
        sorted_points = [
            a for a in oracles._compositions_desc(6, 12, 4) if list(a) == sorted(a, reverse=True)
        ]
        assert seen == sorted_points


class TestSandwich:
    def test_tiny_instance_holds(self):
        report = sandwich(4, 2, 1)
        assert report.holds
        assert report.lower <= report.grid.phi <= report.upper
        assert (report.lower, report.grid.phi, report.upper) == (1, 3, 4)

    def test_bigger_budget(self):
        report = sandwich(5, 2, 2)
        assert report.holds and report.grid == optimize_grid(5, 2, 2, q=4)
        assert (report.lower, report.grid.phi, report.upper) == (5, 7, 11)

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            sandwich(4, 2, 0)
