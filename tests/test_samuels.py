"""Two-point families, exact small-sum probabilities, boundary scans."""

import hashlib
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from hypermatch import samuels
from hypermatch.samuels import (
    SamuelsQuery,
    TwoPointFamily,
    boundary_profile,
    boundary_scan,
    edge_count_bound,
    monte_carlo_small_sum,
    prop23_check,
    q_min,
    q_t,
)

MUS = (Fraction(1, 10), Fraction(1, 5), Fraction(3, 10))


def random_query(rng: random.Random, l: int) -> SamuelsQuery:
    """Sorted non-uniform means, about one in ten of them zero."""
    raw = [Fraction(rng.randint(0, 9), rng.randint(1, 12)) for _ in range(l)]
    total = sum(raw, Fraction(0))
    return SamuelsQuery(sorted(r / (total + 1) for r in raw))


def criterion_3_grid() -> list[SamuelsQuery]:
    """Uniform means x = i/1000 with (l + 1) x <= 1, l = 2..8: 1327 points."""
    return [
        SamuelsQuery.uniform(l, Fraction(i, 1000))
        for l in range(2, 9)
        for i in range(1, 1000 // (l + 1) + 1)
    ]


class TestQuery:
    def test_requires_sorted_means(self):
        q = SamuelsQuery(MUS)
        assert q.mus == MUS
        assert q.l == 3
        with pytest.raises(ValueError):
            SamuelsQuery((Fraction(3, 10), Fraction(1, 10), Fraction(1, 5)))

    def test_rejects_total_at_least_one(self):
        with pytest.raises(ValueError):
            SamuelsQuery((Fraction(1, 2), Fraction(1, 2)))

    def test_rejects_negative_and_floats(self):
        with pytest.raises(ValueError):
            SamuelsQuery((Fraction(-1, 10),))
        with pytest.raises(TypeError):
            SamuelsQuery((0.1, 0.2))

    def test_uniform(self):
        q = SamuelsQuery.uniform(3, Fraction(3, 10))
        assert q.mus == (Fraction(3, 10),) * 3
        with pytest.raises(ValueError):
            SamuelsQuery.uniform(5, Fraction(1, 5))  # total reaches 1


class TestTwoPointFamily:
    def test_jump_and_probabilities(self):
        family = TwoPointFamily(SamuelsQuery(MUS), 1)
        assert family.jump_value() == Fraction(9, 10)
        assert family.success_probabilities() == (
            Fraction(2, 9),
            Fraction(1, 3),
        )
        assert family.means() == MUS

    def test_t_range(self):
        query = SamuelsQuery(MUS)
        TwoPointFamily(query, 0)
        TwoPointFamily(query, 2)
        with pytest.raises(ValueError):
            TwoPointFamily(query, 3)
        with pytest.raises(ValueError):
            TwoPointFamily(query, -1)


class TestExactProbabilities:
    def test_pinned_example(self):
        query = SamuelsQuery(MUS)
        assert q_t(query, 1) == Fraction(14, 27)

    def test_t_zero_is_product_of_complements(self):
        query = SamuelsQuery(MUS)
        expected = Fraction(9, 10) * Fraction(4, 5) * Fraction(7, 10)
        assert q_t(query, 0) == expected

    def test_qmin_uniform_three_tenths(self):
        value, t = q_min(SamuelsQuery.uniform(3, Fraction(3, 10)))
        assert (value, t) == (Fraction(1, 4), 2)

    def test_qmin_prefers_smallest_t_on_ties(self):
        # one coordinate: q_0 is the only candidate
        value, t = q_min(SamuelsQuery((Fraction(1, 2),)))
        assert (value, t) == (Fraction(1, 2), 0)

    @pytest.mark.parametrize(
        "l, x, expected",
        [(4, Fraction(1, 5), True), (3, Fraction(3, 10), False)],
    )
    def test_prop23_examples(self, l, x, expected):
        assert prop23_check(l, x) is expected

    @given(
        st.integers(min_value=1, max_value=5),
        st.fractions(min_value=Fraction(1, 100), max_value=Fraction(9, 10), max_denominator=100),
    )
    def test_probabilities_in_unit_interval(self, l, total):
        x = total / l
        query = SamuelsQuery.uniform(l, x)
        for t in range(l):
            assert 0 <= q_t(query, t) <= 1


class TestAgainstFractionProducts:
    """q_t and q_min equal the Fraction products of ``oracles``."""

    def test_criterion_3_grid(self):
        grid = criterion_3_grid()
        assert len(grid) == 1327
        for query in grid:
            assert q_min(query) == oracles.q_min(query)

    @pytest.mark.parametrize("l", range(1, 9))
    def test_random_non_uniform_means(self, l):
        rng = random.Random(l)
        for _ in range(40):
            query = random_query(rng, l)
            assert q_min(query) == oracles.q_min(query)
            for t in range(l):
                assert q_t(query, t) == oracles.q_t(query, t)

    def test_zero_means(self):
        zero = Fraction(0)
        for mus in [(zero,), (zero, zero), (zero, zero, Fraction(1, 3)), (zero, Fraction(1, 4), Fraction(1, 2))]:
            query = SamuelsQuery(mus)
            assert q_min(query) == oracles.q_min(query)
            for t in range(query.l):
                assert q_t(query, t) == oracles.q_t(query, t)


class TestBoundary:
    def test_scan_windows(self):
        assert abs(boundary_scan(2) - (3 - math.sqrt(5)) / 2) <= 1e-3
        assert 0.275 <= boundary_scan(3) <= 0.279
        assert 0.215 <= boundary_scan(4) <= 0.219

    def test_profile_rows_cover_the_range(self):
        rows = boundary_profile(3)
        assert rows[0][0] == pytest.approx(0.001)
        assert all(x < 1 / 3 for x, _, _ in rows)
        # q_0 - min_rest changes sign exactly once on the grid
        signs = [q0 >= rest for _, q0, rest in rows]
        flips = sum(a != b for a, b in zip(signs, signs[1:]))
        assert flips == 1

    def test_scan_needs_at_least_two_families(self):
        with pytest.raises(ValueError):
            boundary_scan(1)

    def test_tolerance_below_float_spacing_ends(self):
        x = boundary_scan(2, 1e-20)
        assert abs(x - (3 - math.sqrt(5)) / 2) <= 1e-12

    def test_default_tolerance_results_are_pinned(self):
        assert [boundary_scan(l).hex() for l in (2, 3, 4, 8)] == [
            "0x1.87222d0e56042p-2",
            "0x1.1bf0c49ba5e36p-2",
            "0x1.bd2d4fdf3b646p-3",
            "0x1.dcc3126e978d5p-4",
        ]

    @pytest.mark.parametrize("tolerance", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_rejects_non_finite_or_non_positive_tolerance(self, tolerance):
        with pytest.raises(ValueError):
            boundary_scan(2, tolerance)

    @pytest.mark.parametrize("l", [1000, 2_000_000])
    def test_rejects_l_with_an_empty_grid(self, l):
        assert boundary_profile(l) == []
        with pytest.raises(ValueError):
            boundary_scan(l)


class TestMonteCarlo:
    def test_reproducible(self):
        family = TwoPointFamily(SamuelsQuery.uniform(3, Fraction(1, 5)), 0)
        a = monte_carlo_small_sum(family, 20_000, seed=4)
        b = monte_carlo_small_sum(family, 20_000, seed=4)
        assert a == b

    def test_sharding_changes_stream_not_contract(self):
        family = TwoPointFamily(SamuelsQuery.uniform(3, Fraction(1, 5)), 0)
        exact = float(q_t(SamuelsQuery.uniform(3, Fraction(1, 5)), 0))
        sharded = monte_carlo_small_sum(family, 50_000, seed=9, shards=5)
        assert abs(sharded - exact) < 0.02

    def test_close_to_exact(self):
        query = SamuelsQuery(MUS)
        family = TwoPointFamily(query, 1)
        estimate = monte_carlo_small_sum(family, 100_000, seed=0)
        assert abs(estimate - float(q_t(query, 1))) < 0.01

    def test_argument_validation(self):
        family = TwoPointFamily(SamuelsQuery(MUS), 0)
        with pytest.raises(ValueError):
            monte_carlo_small_sum(family, 0)
        with pytest.raises(ValueError):
            monte_carlo_small_sum(family, 10, shards=11)

    @pytest.mark.parametrize("l", range(1, 9))
    def test_same_estimates_as_one_array_per_shard(self, l):
        chunk = samuels._CHUNK_ROWS
        query = random_query(random.Random(50 + l), l)
        for t in sorted({0, l - 1}):
            family = TwoPointFamily(query, t)
            for samples in (1, 5, chunk - 1, chunk, chunk + 1, 2 * chunk + 3):
                for shards in (1, 5):
                    if shards > samples:
                        continue
                    seed = 10 * l + t
                    assert monte_carlo_small_sum(
                        family, samples, seed=seed, shards=shards
                    ) == oracles.monte_carlo_small_sum(family, samples, seed=seed, shards=shards)

    def test_pinned_estimates(self):
        # Recorded with the one-array-per-shard draw now in oracles.py.
        rng = random.Random(12)
        lines = []
        for l in range(1, 9):
            query = random_query(rng, l)
            for t in sorted({0, l // 2, l - 1}):
                family = TwoPointFamily(query, t)
                for samples in (9, (1 << 14) + 7, 3 * (1 << 14) - 1):
                    for shards in (1, 5):
                        estimate = monte_carlo_small_sum(
                            family, samples, seed=100 * l + t, shards=shards
                        )
                        lines.append(f"{l} {t} {samples} {shards} {estimate.hex()}")
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == "4c56f60aa37b37a71dc4057b520a9d110762a03f1ec0cd4a29d5196059c2a13e"

    def test_work_budget_refuses_before_drawing(self, monkeypatch):
        family = TwoPointFamily(SamuelsQuery.uniform(3, Fraction(1, 5)), 0)
        # Criterion 8, the CLI default and the benchmark's draws of 500k
        # samples at l <= 4 are all admitted.
        assert 500_000 * 4 <= samuels._MAX_WORK
        with pytest.raises(ValueError, match="work budget"):
            monte_carlo_small_sum(family, samuels._MAX_WORK // 3 + 1)
        monkeypatch.setattr(samuels, "_MAX_WORK", 30)
        assert monte_carlo_small_sum(family, 10, seed=2) == oracles.monte_carlo_small_sum(family, 10, seed=2)
        with pytest.raises(ValueError, match="work budget"):
            monte_carlo_small_sum(family, 11, seed=2)

    def test_shards_are_charged_against_the_work_budget(self, monkeypatch):
        family = TwoPointFamily(SamuelsQuery.uniform(3, Fraction(1, 5)), 0)
        # Ten samples of three uniforms, and four shards past the first.
        monkeypatch.setattr(samuels, "_MAX_WORK", 30 + 4 * samuels._SHARD_WORK)
        for shards in (1, 5):
            assert monte_carlo_small_sum(
                family, 10, seed=3, shards=shards
            ) == oracles.monte_carlo_small_sum(family, 10, seed=3, shards=shards)
        with pytest.raises(ValueError, match="work budget"):
            monte_carlo_small_sum(family, 10, seed=3, shards=6)

    def test_jumps_are_decided_on_the_exact_probability(self, monkeypatch):
        # u = float(2/3) lies just below p = 2/3, so the coordinate jumps and
        # the sum reaches 1; compared with float(p) instead, u would not jump.
        u = float(Fraction(2, 3))
        assert u < Fraction(2, 3) and not u < float(Fraction(2, 3))

        class Constant:
            def random(self, out):
                out.fill(u)

        monkeypatch.setattr(np.random, "default_rng", lambda seed: Constant())
        family = TwoPointFamily(SamuelsQuery.uniform(1, Fraction(2, 3)), 0)
        assert monte_carlo_small_sum(family, 7) == 0.0

    def test_memory_does_not_grow_with_samples(self):
        family = TwoPointFamily(SamuelsQuery.uniform(3, Fraction(1, 5)), 0)
        tracemalloc.start()
        try:
            monte_carlo_small_sum(family, 4_000_000, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


class TestEdgeCountBound:
    def test_pinned_example(self):
        weights = (
            Fraction(1, 2),
            Fraction(1, 2),
            Fraction(1, 2),
            Fraction(1, 5),
        )
        assert edge_count_bound(weights, 2) == (3, 3)

    @given(
        st.lists(
            st.fractions(min_value=0, max_value=1, max_denominator=10),
            min_size=2,
            max_size=8,
        ),
        st.integers(min_value=2, max_value=3),
    )
    @settings(max_examples=60)
    def test_partition_property(self, weights, l):
        if len(weights) < l:
            weights = weights + [Fraction(0)] * (l - len(weights))
        below, at_least = edge_count_bound(tuple(weights), l)
        assert below + at_least == math.comb(len(weights), l)
        import itertools

        brute_below = sum(
            1
            for e in itertools.combinations(weights, l)
            if sum(e) < 1
        )
        assert below == brute_below
