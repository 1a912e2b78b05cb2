"""Exhaustive threshold search, reductions, and formula comparisons."""

import functools
import gc
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hypermatch import thresholds
from hypermatch.hypercore import (
    VertexWeighting,
    min_d_degree,
    threshold_hypergraph,
)
from hypermatch.optmatch import fractional_matching, matching_number
from hypermatch.thresholds import (
    BudgetExceededError,
    ReductionInfeasibleError,
    ThresholdQuery,
    brute_force_threshold,
    compare_with_conjecture,
    linear_remap,
    reduce_fractional_instance,
)

import oracles


class TestQueryValidation:
    def test_mode_and_ranges(self):
        with pytest.raises(ValueError):
            ThresholdQuery(2, 4, 1, 2, "both")
        with pytest.raises(ValueError):
            ThresholdQuery(5, 4, 1, 1, "integral")
        with pytest.raises(ValueError):
            ThresholdQuery(2, 4, 2, 1, "integral")
        with pytest.raises(ValueError):
            ThresholdQuery(2, 4, 1, Fraction(3, 2), "integral")
        with pytest.raises(ValueError):
            ThresholdQuery(2, 4, 1, 0, "fractional")

    @pytest.mark.parametrize(
        "args, message",
        [
            ((2, 4, 1, 2, "both"), "mode must be integral|fractional, got 'both'"),
            ((5, 4, 1, 1, "integral"), "need 1 <= k <= n, got k=5, n=4"),
            ((2, 4, 2, 1, "integral"), "need 0 <= d <= k-1, got d=2"),
            ((2, 4, 1, "3/2", "integral"), "integral mode needs integer s >= 1, got 3/2"),
            ((2, 4, 1, 0, "fractional"), "fractional mode needs s > 0, got 0"),
        ],
    )
    def test_refusal_messages(self, args, message):
        with pytest.raises(ValueError) as info:
            ThresholdQuery(*args)
        assert str(info.value) == message

    def test_target_is_stored_as_a_fraction(self):
        for s in (2, "2", Fraction(4, 2)):
            q = ThresholdQuery(2, 4, 1, s, "integral")
            assert type(q.s) is Fraction and q == ThresholdQuery(k=2, n=4, d=1, s=2, mode="integral")

    def test_float_targets_are_refused(self):
        # 0.1 holds 3602879701896397/2^55, not 1/10; refused as SamuelsQuery
        # refuses a float mean, whatever the mode.
        for s, mode in ((0.1, "fractional"), (2.0, "integral"), (1.5, "fractional")):
            with pytest.raises(TypeError) as info:
                ThresholdQuery(2, 4, 1, s, mode)
            assert str(info.value) == "pass rationals as Fraction/int/str; floats are not exact"
        assert ThresholdQuery(2, 4, 1, "1/10", "fractional").s == Fraction(1, 10)

    def test_fractional_targets_may_exceed_perfect(self):
        # degenerate targets are legal: nothing attains them, so the search
        # maximises the degree over every edge set
        q = ThresholdQuery(2, 5, 0, 3, "fractional")
        assert q.s == Fraction(3)


class TestBruteForce:
    def test_single_edge_suffices_for_one(self):
        result = brute_force_threshold(ThresholdQuery(2, 5, 0, 1, "fractional"))
        assert result.value == 1
        assert result.witness.num_edges == 0

    def test_degenerate_target_maximises_over_everything(self):
        result = brute_force_threshold(ThresholdQuery(2, 5, 0, 3, "fractional"))
        assert result.value == math.comb(5, 2) + 1
        assert result.witness.num_edges == math.comb(5, 2)

    def test_pairs_on_six_disjoint_target(self):
        result = brute_force_threshold(ThresholdQuery(2, 6, 1, 3, "integral"))
        assert result.value == 3

    def test_triples_on_six_with_pair_degrees(self):
        result = brute_force_threshold(ThresholdQuery(3, 6, 2, 2, "integral"))
        assert result.value == 3
        witness = result.witness
        assert min_d_degree(witness, 2) == 2
        assert matching_number(witness) == 1

    def test_witness_is_extremal_not_just_feasible(self):
        result = brute_force_threshold(ThresholdQuery(3, 6, 2, 2, "fractional"))
        assert result.value == 2
        assert min_d_degree(result.witness, 2) == 1
        value, _, _ = fractional_matching(result.witness)
        assert value < 2

    def test_ignored_jobs_keyword_changes_nothing(self):
        query = ThresholdQuery(2, 6, 1, 3, "integral")
        thresholds._memo.clear()
        solo = brute_force_threshold(query, jobs=1)
        thresholds._memo.clear()
        forked = brute_force_threshold(query, jobs=3)
        assert solo.value == forked.value
        assert solo.witness == forked.witness

    def test_k1_scan_of_2_to_the_22_masks_value_and_lp_calls(self):
        thresholds._memo.clear()
        result = brute_force_threshold(ThresholdQuery(1, 22, 0, 11, "fractional"))
        assert (result.value, result.lp_calls) == (11, 11)

    def test_memoised_repeat_is_identical(self):
        query = ThresholdQuery(2, 4, 0, 1, "integral")
        first = brute_force_threshold(query)
        assert brute_force_threshold(query) is first

    def test_budget_refusal_carries_bounds(self, monkeypatch):
        monkeypatch.setattr(thresholds, "_MAX_WORK", 100)
        with pytest.raises(BudgetExceededError) as info:
            brute_force_threshold(ThresholdQuery(3, 6, 1, 2, "integral"))
        err = info.value
        assert 1 <= err.lower_bound <= err.upper_bound
        assert err.upper_bound == math.comb(5, 2) + 1

    def test_work_budget_counts_d_sets_per_mask(self, monkeypatch):
        # i(3,6,1,2) scans 2^20 masks with C(6, 1) = 6 degree counts each.
        query = ThresholdQuery(3, 6, 1, 2, "integral")
        thresholds._memo.clear()
        monkeypatch.setattr(thresholds, "_MAX_WORK", 6 << 20)
        assert brute_force_threshold(query).value == 6
        thresholds._memo.clear()
        monkeypatch.setattr(thresholds, "_MAX_WORK", (6 << 20) - 1)
        with pytest.raises(BudgetExceededError, match="work budget") as info:
            brute_force_threshold(query)
        assert f"takes {6 << 20} d-set counts" in str(info.value)
        assert 1 <= info.value.lower_bound <= info.value.upper_bound

    def test_default_work_budget_refuses_i_22_23_5_1_before_scanning(self, monkeypatch):
        # 2^23 masks with C(23, 5) = 33,649 d-sets each: the work count is
        # over the default budget, so the query is refused and no mask is
        # scanned.
        def no_scan(*args):
            raise AssertionError("the scan ran")

        monkeypatch.setattr(thresholds, "_scan_range", no_scan)
        with pytest.raises(BudgetExceededError, match="work budget") as info:
            brute_force_threshold(ThresholdQuery(22, 23, 5, 1, "integral"))
        assert f"takes {(1 << 23) * 33_649} d-set counts" in str(info.value)
        assert info.value.upper_bound == math.comb(18, 17) + 1
        # 2^24 masks with C(24, 2) = 276 d-sets stay within the default.
        assert (1 << 24) * math.comb(24, 2) <= thresholds._MAX_WORK

    @pytest.mark.parametrize("d, lp_calls", [(0, 11), (2, 14)])
    def test_lp_calls_are_counted(self, d, lp_calls):
        # One in-order scan: the count is that of a mask-by-mask walk.
        thresholds._memo.clear()
        result = brute_force_threshold(ThresholdQuery(3, 6, d, 2, "fractional"))
        assert result.lp_calls == lp_calls
        integral = brute_force_threshold(ThresholdQuery(3, 6, d, 2, "integral"))
        assert integral.lp_calls == 0

    def test_space_beyond_bitmask_is_rejected_outright(self):
        with pytest.raises(ValueError, match="enumeration limit"):
            brute_force_threshold(ThresholdQuery(3, 10, 0, 2, "integral"))

    def test_default_refusal_messages_are_pinned(self):
        with pytest.raises(ValueError) as info:
            brute_force_threshold(ThresholdQuery(3, 9, 1, 3, "integral"))
        assert str(info.value) == "binom(n, k) = 84 exceeds the enumeration limit of 24"
        with pytest.raises(BudgetExceededError) as info:
            brute_force_threshold(ThresholdQuery(22, 23, 5, 1, "integral"))
        assert str(info.value) == (
            "enumerating 8388608 edge sets takes 282268270592 d-set counts, "
            "over the work budget of 8589934592; value is within [1, 19]"
        )

    @pytest.mark.parametrize(
        "mode, k, n, d, s, floor",
        [
            ("integral", 22, 23, 5, 1, 1),
            ("integral", 3, 6, 1, 2, 5),
            ("integral", 3, 6, 0, 2, 11),
            ("fractional", 3, 6, 0, 2, 11),
            ("integral", 2, 6, 1, 3, 3),
            ("fractional", 2, 6, 1, 3, 3),
            ("integral", 3, 9, 1, 3, 14),
            ("fractional", 2, 7, 0, Fraction(5, 2), 12),
        ],
    )
    def test_construction_floors_are_pinned(self, mode, k, n, d, s, floor):
        # The lower bound a refusal carries: h1 and h0, never the clique.
        assert thresholds._construction_floor(ThresholdQuery(k, n, d, s, mode)) == floor

    def test_construction_bounds_equal_the_built_families(self):
        # Every (k, n, d) with n <= 10 and every s in steps of 1/k (which
        # reaches every fractional clique span) up to past n/k + 1.
        cases = 0
        for n in range(1, 11):
            for k in range(1, n + 1):
                for d in range(k):
                    for j in range(1, k * (n // k + 2) + 1):
                        s = Fraction(j, k)
                        assert thresholds._construction_bounds(
                            k, n, d, s
                        ) == oracles.construction_bounds(k, n, d, s)
                        cases += 1
        assert cases > 1000

    def test_refusal_builds_no_construction_degree(self, monkeypatch):
        calls = []

        def counting(h, d):
            calls.append((h.k, h.n, d))
            return min_d_degree(h, d)

        monkeypatch.setattr(thresholds, "min_d_degree", counting)
        with pytest.raises(BudgetExceededError, match=r"value is within \[13, 14\]$"):
            brute_force_threshold(ThresholdQuery(21, 22, 9, 2, "integral"))
        assert calls == []


def _small_queries():
    """Every (k, n, d, mode, s) with binom(n, k) <= 12.

    Integral targets run over 1..n//k + 1, fractional ones over the
    multiples of 1/2 up to (2*n//k + 2)/2, so both sides reach past what
    any edge set can attain.
    """
    for n in range(1, 13):
        for k in range(1, n + 1):
            if math.comb(n, k) > 12:
                continue
            for d in range(k):
                for s in range(1, n // k + 2):
                    yield k, n, d, "integral", Fraction(s)
                for j in range(1, 2 * n // k + 3):
                    yield k, n, d, "fractional", Fraction(j, 2)


@functools.cache
def _oracle_scan(k, n, d, mode, s, start, stop):
    return oracles.scan_range(k, n, d, mode, s, start, stop)


def _seeded_ranges(k, n, d, mode, s):
    space = 1 << math.comb(n, k)
    rng = random.Random(f"{k},{n},{d},{mode},{s}")
    for _ in range(2):
        start = rng.randrange(space)
        yield start, rng.randrange(start, space + 1)


class TestScanAgainstOracle:
    """The window scan against the mask-by-mask loop it replaced."""

    def test_full_ranges(self):
        for k, n, d, mode, s in _small_queries():
            space = 1 << math.comb(n, k)
            expected = _oracle_scan(k, n, d, mode, s, 0, space)
            got = thresholds._scan_range(k, n, d, mode, s, 0, space)
            assert got == expected, (k, n, d, mode, s)

    @pytest.mark.parametrize("low_bits, tables", [(3, 2), (5, 1)])
    def test_full_ranges_in_narrow_windows(self, monkeypatch, low_bits, tables):
        # With windows of 8 or 32 masks, a universe of more than 3 or 5
        # edges has high edges, whose matchings skip windows or leave fewer
        # low edges; room for one or two tables leaves d-set patterns and
        # high matchings past the cap, computed per window.
        monkeypatch.setattr(thresholds, "_LOW_BITS", low_bits)
        monkeypatch.setattr(thresholds, "_TABLE_BYTES", tables << low_bits)
        for k, n, d, mode, s in _small_queries():
            space = 1 << math.comb(n, k)
            expected = _oracle_scan(k, n, d, mode, s, 0, space)
            got = thresholds._scan_range(k, n, d, mode, s, 0, space)
            assert got == expected, (low_bits, k, n, d, mode, s)

    def test_seeded_sub_ranges_across_small_blocks(self, monkeypatch):
        # Windows of 2, 8 and 32 masks put window edges inside every range,
        # and the best-so-far is carried across them.
        for low_bits in (1, 3, 5):
            monkeypatch.setattr(thresholds, "_LOW_BITS", low_bits)
            monkeypatch.setattr(thresholds, "_TABLE_BYTES", 1 << low_bits)
            for query in _small_queries():
                for start, stop in _seeded_ranges(*query):
                    expected = _oracle_scan(*query, start, stop)
                    got = thresholds._scan_range(*query, start, stop)
                    assert got == expected, (low_bits, *query, start, stop)

    @pytest.mark.parametrize("mode, s", [("integral", 7), ("fractional", Fraction(13, 2))])
    def test_single_vertex_edges_need_no_matching_list(self, monkeypatch, mode, s):
        # With k = 1 any set of distinct edges is a matching: in windows of
        # 2^10 masks, every matching among the four high edges leaves all
        # ten low edges, so only the largest one counts.
        monkeypatch.setattr(thresholds, "_LOW_BITS", 10)
        s = Fraction(s)
        expected = oracles.scan_range(1, 14, 0, mode, s, 0, 1 << 14)
        assert thresholds._scan_range(1, 14, 0, mode, s, 0, 1 << 14) == expected


def test_scan_masks_follow_the_set_definitions():
    # Bit j stands for edge j: an edge's mask holds the edges disjoint from
    # it, a d-set's the edges containing it (all of them for the empty set).
    for n in range(1, 11):
        for k in range(1, n + 1):
            edges = list(itertools.combinations(range(n), k))
            sets = [frozenset(e) for e in edges]
            disj = [
                sum(1 << j for j, b in enumerate(sets) if a.isdisjoint(b)) for a in sets
            ]
            for d in range(k + 1):
                contained = [
                    sum(1 << j for j, e in enumerate(sets) if frozenset(ds) <= e)
                    for ds in itertools.combinations(range(n), d)
                ]
                got = thresholds._scan_masks(tuple(edges), n, d)
                assert got == (disj, contained), (k, n, d)


# (k, n, d, mode, s, start, stop) -> (delta, witness mask, LP calls),
# recorded with the uint32 block scan that the window scan replaced.
_PINNED_SCANS = [
    # the cold scans of perfbench's enumerate workload
    (3, 6, 0, "integral", "2", 0, 1 << 20, (10, 1023, 0)),
    (3, 6, 2, "fractional", "2", 0, 1 << 20, (1, 1023, 14)),
    (3, 6, 0, "fractional", "2", 0, 1 << 20, (10, 1023, 11)),
    (3, 6, 1, "fractional", "2", 0, 1 << 20, (4, 1023, 17)),
    (3, 6, 1, "integral", "2", 0, 1 << 20, (5, 242467, 0)),
    (3, 6, 2, "integral", "2", 0, 1 << 20, (2, 242467, 0)),
    (2, 7, 1, "integral", "3", 0, 1 << 21, (2, 2046, 0)),
    (2, 7, 1, "fractional", "3", 0, 1 << 21, (2, 2046, 3)),
    (2, 7, 0, "integral", "2", 0, 1 << 21, (6, 63, 0)),
    (2, 7, 0, "fractional", "5/2", 0, 1 << 21, (11, 2047, 12)),
    (5, 7, 0, "integral", "2", 0, 1 << 21, (21, 2097151, 0)),
    (3, 6, 0, "fractional", "3/2", 0, 1 << 20, (10, 1023, 11)),
    (2, 7, 0, "integral", "3", 0, 1 << 21, (11, 2047, 0)),
    (2, 5, 0, "fractional", "1", 0, 1 << 10, (0, 0, 1)),
    (2, 5, 0, "fractional", "2", 0, 1 << 10, (4, 15, 5)),
    (2, 5, 0, "fractional", "3", 0, 1 << 10, (10, 1023, 11)),
    # the largest admitted scans: 2^24 masks over 276 d-sets, 2^17 masks
    # over 19,448 d-sets, and 2^22 masks of single-vertex edges
    (23, 24, 2, "fractional", "1", 0, 1 << 24, (0, 0, 1)),
    (16, 17, 7, "integral", "1", 0, 1 << 17, (0, 0, 0)),
    (1, 22, 0, "fractional", "11", 0, 1 << 22, (10, 1023, 11)),
    # sub-ranges across windows of 2^16, drawn with random.Random(16)
    (2, 7, 0, "fractional", "5/2", 1516336, 1827879, (11, 1550996, 6)),
    (2, 7, 0, "fractional", "5/2", 2015281, 2097152, (11, 2020648, 5)),
    (2, 7, 0, "fractional", "5/2", 1748826, 1933189, (11, 1821860, 12)),
    (2, 7, 0, "fractional", "5/2", 1873844, 1942448, (10, 1880856, 7)),
    (2, 7, 0, "fractional", "5/2", 1717633, 2097152, (11, 1721407, 6)),
    (2, 7, 0, "fractional", "5/2", 1085718, 1275960, (10, 1122879, 6)),
]


@pytest.mark.parametrize("k, n, d, mode, s, start, stop, expected", _PINNED_SCANS)
def test_pinned_scans(k, n, d, mode, s, start, stop, expected):
    assert thresholds._scan_range(k, n, d, mode, Fraction(s), start, stop) == expected


def test_scan_leaves_no_reference_cycles():
    # Everything a scan builds is freed by reference counting alone.
    gc.collect()
    gc.disable()
    try:
        thresholds._scan_range(2, 7, 0, "fractional", Fraction(5, 2), 0, 1 << 21)
        thresholds._scan_range(3, 6, 1, "integral", Fraction(2), 0, 1 << 20)
        assert gc.collect() == 0
    finally:
        gc.enable()


class TestLinearRemap:
    def test_pinned_reduction(self):
        w = VertexWeighting(
            (Fraction(1, 10), Fraction(1, 5), Fraction(2, 5), Fraction(1, 2))
        )
        red = reduce_fractional_instance(w, 3, 1)
        assert red.l_set == (0,)
        assert red.averaged.weights == w.weights
        assert red.w_prime.weights == (
            Fraction(0),
            Fraction(1, 7),
            Fraction(3, 7),
            Fraction(4, 7),
        )
        assert red.hypergraph.edges == ((0, 2, 3), (1, 2, 3))
        assert red.link_graph.edges == ((1, 2),)
        assert red.link_cover.weights == (
            Fraction(1, 7),
            Fraction(3, 7),
            Fraction(4, 7),
        )

    def test_link_cover_covers_the_link(self):
        w = VertexWeighting(
            (Fraction(1, 10), Fraction(1, 5), Fraction(2, 5), Fraction(1, 2))
        )
        red = reduce_fractional_instance(w, 3, 1)
        for edge in red.link_graph.edges:
            assert sum(red.link_cover[v] for v in edge) >= 1

    def test_infeasible_floor(self):
        # The mean of the d lightest weights is the averaged minimum, so the
        # reduction refuses through linear_remap with the same message.
        heavy = VertexWeighting((Fraction(1, 2),) * 4)
        message = "weight floor 1/2 reaches 1/k for k=3; remap undefined"
        with pytest.raises(ReductionInfeasibleError, match=message):
            reduce_fractional_instance(heavy, 3, 1)
        with pytest.raises(ReductionInfeasibleError, match=message):
            linear_remap(heavy, 3)
        # Two light vertices averaging exactly 1/3 reach 1/k as well.
        with pytest.raises(ReductionInfeasibleError, match="weight floor 1/3 reaches"):
            reduce_fractional_instance(
                VertexWeighting((Fraction(1, 6), Fraction(1, 2), Fraction(1, 2))), 3, 2
            )

    def test_empty_weighting_is_refused(self):
        with pytest.raises(ValueError) as info:
            linear_remap(VertexWeighting(()), 3)
        assert str(info.value) == "empty weighting"

    def test_remap_caps_at_one(self):
        w = VertexWeighting((Fraction(0), Fraction(9, 10)))
        out = linear_remap(w, 2)
        assert out.weights == (Fraction(0), Fraction(9, 10))
        w2 = VertexWeighting((Fraction(1, 10), Fraction(9, 10)))
        out2 = linear_remap(w2, 2)
        assert out2.weights == (Fraction(0), Fraction(1))

    @given(
        st.lists(
            st.fractions(min_value=0, max_value=1, max_denominator=8),
            min_size=3,
            max_size=7,
        ),
        st.integers(min_value=2, max_value=3),
    )
    @settings(max_examples=80)
    def test_remap_preserves_threshold_hypergraph(self, weights, k):
        if len(weights) < k or min(weights) * k >= 1:
            return
        w = VertexWeighting(tuple(weights))
        before = threshold_hypergraph(w, k)
        after = threshold_hypergraph(linear_remap(w, k), k)
        assert before == after

    def test_parameter_validation(self):
        w = VertexWeighting((Fraction(1, 10),) * 4)
        with pytest.raises(ValueError):
            reduce_fractional_instance(w, 3, 0)
        with pytest.raises(ValueError):
            reduce_fractional_instance(w, 3, 3)
        with pytest.raises(ValueError):
            reduce_fractional_instance(w, 5, 1)


class TestComparison:
    def test_triples_on_six_whole_web(self):
        report = compare_with_conjecture(
            ThresholdQuery(3, 6, 0, 2, "fractional"), jobs=2
        )
        assert report.integral_value == 11
        assert report.fractional_value == 11
        assert report.formulas["Conj1.8"] == 11
        assert all(report.flags.values())
        assert report.integral_bounds["h0"] == 11

    def test_pairs_on_four(self):
        report = compare_with_conjecture(ThresholdQuery(2, 4, 1, 2, "integral"))
        assert report.integral_value == 2
        assert report.fractional_value <= report.integral_value
        assert all(report.flags.values())
