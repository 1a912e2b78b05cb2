"""Extremal families and the closed-form threshold values."""

import itertools
import math
from fractions import Fraction

import pytest

from hypermatch.extremal import (
    CONTEXTS,
    ConstructionInfeasibleError,
    conjecture_values,
    construct_clique_plus_isolated,
    construct_h0,
    construct_h1,
)
from hypermatch.hypercore import Hypergraph, degree, min_d_degree
from hypermatch.optmatch import (
    fractional_matching,
    has_perfect_matching,
    matching_number,
)


class TestParityFamily:
    def test_small_instance(self):
        h = construct_h0(3, 6)
        assert h.num_edges == 10
        assert min_d_degree(h, 1) == 4

    @pytest.mark.parametrize("k, n", [(2, 4), (2, 6), (3, 6), (3, 9), (4, 8)])
    def test_never_has_perfect_matching(self, k, n):
        assert not has_perfect_matching(construct_h0(k, n))

    def test_needs_divisibility(self):
        with pytest.raises(ConstructionInfeasibleError):
            construct_h0(3, 7)

    def test_edges_have_odd_overlap_with_a_split(self):
        for k, n in ((2, 4), (3, 6), (3, 9), (4, 8)):
            h = construct_h0(k, n)
            # the split class is recoverable: vertices of odd singleton count
            # are not needed; instead check all edges agree on some split A.
            found = False
            for size in range(n + 1):
                import itertools

                for a in itertools.combinations(range(n), size):
                    aset = set(a)
                    if all(len(aset & set(e)) % 2 == 1 for e in h.edges):
                        found = True
                        break
                if found:
                    break
            assert found

    def test_dense_enough_to_matter(self):
        # at (3, 6) the family realises the known fractional-side gap
        value, _, _ = fractional_matching(construct_h0(3, 6))
        assert value == 2  # fractionally perfect, integrally not


class TestCoverFamily:
    @pytest.mark.parametrize(
        "k, n, s", [(2, 6, 1), (2, 6, 3), (3, 9, 2), (3, 12, 4), (4, 8, 2)]
    )
    def test_matching_numbers(self, k, n, s):
        h = construct_h1(k, n, s)
        assert matching_number(h) == s - 1
        value, _, _ = fractional_matching(h)
        assert value == s - 1

    def test_degree_closed_form_at_perfect_target(self):
        for k, n in ((2, 8), (3, 9), (4, 8)):
            s = n // k
            h = construct_h1(k, n, s)
            for d in range(k):
                expected = math.comb(n - d, k - d) - math.comb(
                    n - d - s + 1, k - d
                )
                assert min_d_degree(h, d) == expected

    def test_core_degree(self):
        h = construct_h1(2, 6, 2)
        assert degree(h, (0,)) == 5
        assert h.num_edges == 5

    def test_s_one_is_edgeless(self):
        assert construct_h1(3, 6, 1).num_edges == 0

    def test_range_checks(self):
        with pytest.raises(ConstructionInfeasibleError):
            construct_h1(3, 6, 4)  # above n/k + 1
        with pytest.raises(ConstructionInfeasibleError):
            construct_h1(3, 6, 0)


class TestCliquePlusIsolated:
    def test_structure(self):
        h = construct_clique_plus_isolated(3, 8, 2)
        assert h.num_edges == math.comb(5, 3)
        assert matching_number(h) == 1
        assert all(max(e) <= 4 for e in h.edges)

    def test_needs_room(self):
        with pytest.raises(ConstructionInfeasibleError):
            construct_clique_plus_isolated(3, 4, 2)  # needs ks-1 = 5 > 4

    @pytest.mark.parametrize("k, n", [(0, 4), (5, 4)])
    def test_needs_an_order_at_least_the_uniformity(self, k, n):
        with pytest.raises(ValueError) as info:
            construct_clique_plus_isolated(k, n, 1)
        assert str(info.value) == f"need 1 <= k <= n, got k={k}, n={n}"


@pytest.mark.parametrize(
    "build, args, error, message",
    [
        (construct_h0, (0, 6), ValueError, "need 1 <= k <= n, got k=0, n=6"),
        (construct_h0, (7, 6), ValueError, "need 1 <= k <= n, got k=7, n=6"),
        (construct_h0, (3, 200), ConstructionInfeasibleError, "k=3 must divide n=200"),
        (construct_h0, (3, 1000), ConstructionInfeasibleError, "k=3 must divide n=1000"),
        (construct_h1, (0, 6, 1), ValueError, "need 1 <= k <= n, got k=0, n=6"),
        (construct_h1, (3, 200, 100), ConstructionInfeasibleError, "need 1 <= s <= n/k + 1, got s=100"),
        (construct_h1, (3, 200, 0), ConstructionInfeasibleError, "need 1 <= s <= n/k + 1, got s=0"),
    ],
)
def test_infeasible_families_are_refused_before_the_universe_is_built(
    monkeypatch, build, args, error, message
):
    # K_200^3 holds 1,313,400 edges and K_1000^3 about 1.66e8.
    def refuse(cls, k, n):
        raise AssertionError(f"built K_{n}^{k}")

    monkeypatch.setattr(Hypergraph, "complete", classmethod(refuse))
    with pytest.raises(error) as info:
        build(*args)
    assert type(info.value) is error and str(info.value) == message


def test_constructions_hold_the_constructor_invariant():
    # Built without validation; rebuilding through __init__ changes nothing.
    built = 0
    for n in range(1, 13):
        for k in range(1, n + 1):
            families = []
            if n % k == 0:
                families.append(construct_h0(k, n))
            for s in range(1, n // k + 2):
                families.append(construct_h1(k, n, s))
                if k * s - 1 <= n:
                    families.append(construct_clique_plus_isolated(k, n, s))
            for h in families:
                assert h == Hypergraph(k, n, h.edges)
            built += len(families)
    assert built > 250


class TestConjectureValues:
    def test_survival_coefficients(self):
        assert conjecture_values("Eq4", k=3, d=1).coefficient == Fraction(5, 9)
        assert conjecture_values("Eq4", k=3, d=2).coefficient == Fraction(1, 3)
        assert conjecture_values("Eq3", k=3, d=2).coefficient == Fraction(1, 2)
        assert conjecture_values("Conj1.2", k=3, d=2).coefficient == Fraction(1, 2)
        assert conjecture_values("Conj1.5", k=3, d=1).coefficient == Fraction(5, 9)

    @pytest.mark.parametrize(
        "k, d, expected",
        [
            (4, 1, Fraction(37, 64)),
            (5, 1, Fraction(369, 625)),
            (5, 2, Fraction(1, 2)),
            (6, 2, Fraction(671, 1296)),
            (7, 3, Fraction(1, 2)),
        ],
    )
    def test_established_pairs(self, k, d, expected):
        assert conjecture_values("Cor1.7", k=k, d=d).coefficient == expected

    def test_established_pairs_are_closed(self):
        with pytest.raises(ValueError):
            conjecture_values("Cor1.7", k=3, d=1)

    def test_count_contexts(self):
        assert conjecture_values("Conj1.8", k=3, n=6, s=2).count == 11
        assert conjecture_values("Conj1.8", k=2, n=6, s=3).count == 11
        assert conjecture_values(
            "Conj1.9", l=2, m=5, s=Fraction(2)
        ).count == 5
        assert conjecture_values("f_{k-1}-exact", k=3, n=7).count == 3

    def test_conj_1_9_fractional_target(self):
        # ceil enters both terms when s is not an integer
        value = conjecture_values("Conj1.9", l=2, m=6, s=Fraction(3, 2))
        expected = max(
            math.comb(math.ceil(2 * Fraction(3, 2)) - 1, 2),
            math.comb(6, 2) - math.comb(6 - math.ceil(Fraction(3, 2)) + 1, 2),
        ) + 1
        assert value.count == expected

    def test_conj_1_8_is_one_more_than_the_larger_family(self):
        for k in range(1, 5):
            for n in range(k, 11):
                for s in range(1, n // k + 1):
                    largest = max(
                        construct_h1(k, n, s).num_edges,
                        construct_clique_plus_isolated(k, n, s).num_edges,
                    )
                    value = conjecture_values("Conj1.8", k=k, n=n, s=s)
                    assert value.count == largest + 1, (k, n, s)

    def test_conj_1_9_is_one_more_than_the_larger_family(self):
        # At s = j/l the clique spans j - 1 vertices and the cover's core
        # has ceil(s) - 1 of them.
        for l in range(1, 5):
            for m in range(l, 11):
                for j in range(1, m + 1):
                    s = Fraction(j, l)
                    clique = sum(1 for _ in itertools.combinations(range(j - 1), l))
                    cover = construct_h1(l, m, math.ceil(s)).num_edges
                    value = conjecture_values("Conj1.9", l=l, m=m, s=s)
                    assert value.count == max(clique, cover) + 1, (l, m, s)

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match=r"^context Eq3 requires parameters: d$"):
            conjecture_values("Eq3", k=3)
        with pytest.raises(ValueError, match=r"^context Conj1.9 requires parameters: l, s$"):
            conjecture_values("Conj1.9", m=4)
        with pytest.raises(
            ValueError, match=r"^unknown context 'nonsense'; known: Eq3, Eq4, Conj1.2, "
        ):
            conjecture_values("nonsense", k=3, d=1)

    @pytest.mark.parametrize(
        "context, params, message",
        [
            ("Conj1.9", {"l": 3, "m": 2, "s": Fraction(1, 2)}, "need 1 <= l <= m, got l=3, m=2"),
            ("Conj1.9", {"l": 0, "m": 4, "s": Fraction(1)}, "need 1 <= l <= m, got l=0, m=4"),
            ("Conj1.8", {"k": 0, "n": 4, "s": 1}, "need 1 <= k <= n, got k=0, n=4"),
            ("f_{k-1}-exact", {"k": 5, "n": 4}, "need 1 <= k <= n, got k=5, n=4"),
            ("Conj1.8", {"k": 2, "n": 6, "s": Fraction(3, 2)}, "need integral 1 <= s <= n/k, got s=3/2"),
            ("Conj1.9", {"l": 2, "m": 6, "s": 0}, "need 0 < s <= m/l, got s=0"),
        ],
    )
    def test_counts_need_an_order_at_least_the_uniformity(self, context, params, message):
        with pytest.raises(ValueError) as info:
            conjecture_values(context, **params)
        assert str(info.value) == message

    def test_context_list_is_stable(self):
        assert "Eq3" in CONTEXTS and "Conj1.9" in CONTEXTS
        for context in ("Eq3", "Eq4"):
            value = conjecture_values(context, k=4, d=2)
            assert 0 <= value.coefficient <= 1
