"""Two-point families, exact small-sum probabilities, boundary scans."""

import hashlib
import math
import os
import random
import sys
import threading
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
    monte_carlo_small_sum,
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

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.fractions(min_value=0, max_value=Fraction(1, 2), max_denominator=40),
                st.fractions(min_value=0, max_value=1, max_denominator=40).map(str),
                st.integers(min_value=0, max_value=1),
                st.sampled_from(["0.25", " 1/3 ", "-0", "3/12"]),
            ),
            max_size=5,
        ),
        st.lists(
            st.one_of(
                st.fractions(min_value=-1, max_value=0, max_denominator=40),
                st.integers(min_value=-2, max_value=-1),
                st.floats(min_value=0, max_value=0.5),
                st.sampled_from(["x", "1/0", "", "-1/3", True, None]),
            ),
            max_size=1,
        ),
        st.integers(min_value=0, max_value=5),
        st.booleans(),
    )
    def test_checks_agree_with_the_fraction_checks(self, good, bad, at, sort):
        # Sorted inputs reach the total check; unsorted ones the order check.
        mus = sorted(good, key=Fraction) if sort else good
        mus[at:at] = bad
        try:
            expected = ("ok", oracles.samuels_query_means(mus))
        except Exception as exc:
            expected = (type(exc), str(exc))
        try:
            got = ("ok", SamuelsQuery(mus).mus)
        except Exception as exc:
            got = (type(exc), str(exc))
        assert got == expected

    def test_uniform(self):
        q = SamuelsQuery.uniform(3, Fraction(3, 10))
        assert q.mus == (Fraction(3, 10),) * 3
        with pytest.raises(ValueError):
            SamuelsQuery.uniform(5, Fraction(1, 5))  # total reaches 1

    @pytest.mark.parametrize("l", [0, -2])
    def test_uniform_needs_a_coordinate(self, l):
        with pytest.raises(ValueError) as info:
            SamuelsQuery.uniform(l, Fraction(1, 5))
        assert str(info.value) == f"need l >= 1, got {l}"


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
        # Proposition 2.3: whether t = 0, of value (1 - x)^l, minimises q_t.
        query = SamuelsQuery.uniform(l, x)
        assert q_t(query, 0) == (1 - x) ** l
        assert (q_min(query)[1] == 0) is expected

    @given(
        st.integers(min_value=1, max_value=5),
        st.fractions(min_value=Fraction(1, 100), max_value=Fraction(9, 10), max_denominator=100),
    )
    def test_probabilities_in_unit_interval(self, l, total):
        x = total / l
        query = SamuelsQuery.uniform(l, x)
        for t in range(l):
            assert 0 <= q_t(query, t) <= 1
            assert all(0 <= p < 1 for p in TwoPointFamily(query, t).success_probabilities())


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
                assert all(0 <= p < 1 for p in TwoPointFamily(query, t).success_probabilities())

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
        assert len(rows) == 333
        assert [[v.hex() for v in row] for row in (rows[0], rows[-1])] == [
            ["0x1.0624dd2f1a9fcp-10", "0x1.fe772d5570166p-1", "0x1.fef9b994e3d81p-1"],
            ["0x1.54fdf3b645a1dp-2", "0x1.2fdcdceddfca9p-2", "0x1.886e5f0abad52p-9"],
        ]
        assert all(x < 1 / 3 for x, _, _ in rows)
        # q_0 - min_rest changes sign exactly once on the grid
        signs = [q0 >= rest for _, q0, rest in rows]
        flips = sum(a != b for a, b in zip(signs, signs[1:]))
        assert flips == 1
        # On every admitted l the gap is not positive at the first grid
        # point and turns positive at most once, so the scan's walk up to
        # the first positive point finds the only crossing.
        for l in range(2, 1000):
            positive = [q0 - rest > 0 for _, q0, rest in boundary_profile(l)]
            assert not positive[0], l
            assert sum(a != b for a, b in zip(positive, positive[1:])) <= 1, l

    def test_scan_needs_at_least_two_families(self):
        with pytest.raises(ValueError):
            boundary_scan(1)

    def test_default_tolerance_results_are_pinned(self):
        assert [boundary_scan(l).hex() for l in (2, 3, 4, 8)] == [
            "0x1.87222d0e56042p-2",
            "0x1.1bf0c49ba5e36p-2",
            "0x1.bd2d4fdf3b646p-3",
            "0x1.dcc3126e978d5p-4",
        ]
        # Every admitted l, pinned as one digest of "l hex" lines.
        lines = "".join(f"{l} {boundary_scan(l).hex()}\n" for l in range(2, 1000))
        assert hashlib.sha256(lines.encode()).hexdigest() == (
            "5ef3c4c7c6d90710ab28115208fb857080d04c44684b4875fe0cc3ba3f352c3c"
        )

    @pytest.mark.parametrize("l", [25, 40, 100, 999])
    def test_a_change_past_the_last_grid_point_is_bisected(self, l):
        # t = 0 still wins at the last grid point below 1/l, so the change
        # lies between that point and 1/l.  Bisect q_0 - min_{t>=1} q_t
        # there independently, with q_t = (1 - x / (1 - t x))^(l - t).
        def gap(x):
            return (1 - x) ** l - min((1 - x / (1 - t * x)) ** (l - t) for t in range(1, l))

        assert gap(boundary_profile(l)[-1][0]) <= 0
        lo, hi = 0.0, 1 / l
        while hi - lo > 1e-12:
            mid = (lo + hi) / 2
            lo, hi = (lo, mid) if gap(mid) > 0 else (mid, hi)
        assert abs(boundary_scan(l) - lo) <= 1e-6

    @pytest.mark.parametrize("l", [1000, 2_000_000])
    def test_rejects_l_with_an_empty_grid(self, l):
        message = f"the 0.001 grid has no point below 1/l for l={l}"
        with pytest.raises(ValueError, match=message):
            boundary_profile(l)
        with pytest.raises(ValueError, match=message):
            boundary_scan(l)


class TestMonteCarlo:
    def test_reproducible(self):
        family = TwoPointFamily(SamuelsQuery.uniform(3, Fraction(1, 5)), 0)
        a = monte_carlo_small_sum(family, 20_000, seed=4)
        b = monte_carlo_small_sum(family, 20_000, seed=4)
        assert a == b

    def test_close_to_exact(self):
        query = SamuelsQuery(MUS)
        family = TwoPointFamily(query, 1)
        estimate = monte_carlo_small_sum(family, 100_000, seed=0)
        assert abs(estimate - float(q_t(query, 1))) < 0.01

    def test_argument_validation(self):
        family = TwoPointFamily(SamuelsQuery(MUS), 0)
        with pytest.raises(ValueError):
            monte_carlo_small_sum(family, 0)

    @pytest.mark.parametrize("l", range(1, 9))
    def test_same_estimates_as_one_array_per_shard(self, l):
        chunk = samuels._CHUNK_ROWS
        query = random_query(random.Random(50 + l), l)
        for t in sorted({0, l - 1}):
            family = TwoPointFamily(query, t)
            for samples in (1, 5, chunk - 1, chunk, chunk + 1, 2 * chunk + 3):
                seed = 10 * l + t
                assert monte_carlo_small_sum(
                    family, samples, seed=seed
                ) == oracles.monte_carlo_small_sum(family, samples, seed=seed)

    def test_pinned_estimates(self):
        # Recorded with the one-array draw now in oracles.py.
        rng = random.Random(12)
        lines = []
        for l in range(1, 9):
            query = random_query(rng, l)
            for t in sorted({0, l // 2, l - 1}):
                family = TwoPointFamily(query, t)
                for samples in (9, (1 << 14) + 7, 3 * (1 << 14) - 1):
                    estimate = monte_carlo_small_sum(family, samples, seed=100 * l + t)
                    lines.append(f"{l} {t} {samples} {estimate.hex()}")
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == "2bfdf0ddd221a2c13890a100f68451111a1d0fd3fdee6284b6bfc0efdcc69410"

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


def record_runs(monkeypatch) -> list[tuple[int, int, int, bool]]:
    """Patch the run function to log (start, stop, rows, in calling thread)."""
    runs = []
    count_small = samuels._count_small

    def recorded(probs, seed, start, stop, rows):
        runs.append((start, stop, rows, threading.current_thread() is threading.main_thread()))
        return count_small(probs, seed, start, stop, rows)

    monkeypatch.setattr(samuels, "_count_small", recorded)
    return runs


def split_every_call(monkeypatch, cpus: int) -> None:
    """Cut every call into min(cpus, uniforms) runs, however small."""
    monkeypatch.setattr(samuels, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(samuels, "_MIN_RUN_WORK", 1)


class TestMonteCarloRuns:
    """The rows of a call are cut into one run per usable CPU."""

    @pytest.mark.parametrize("cpus", [1, 2, 3, 5])
    def test_run_count_does_not_change_the_estimate(self, monkeypatch, cpus):
        split_every_call(monkeypatch, cpus)
        runs = record_runs(monkeypatch)
        # Threads switch as often as the interpreter allows, so a run that
        # read or wrote another's state would show.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            self.check_against_the_one_pass_oracle(cpus, runs)
        finally:
            sys.setswitchinterval(interval)

    @staticmethod
    def check_against_the_one_pass_oracle(cpus, runs):
        chunk = samuels._CHUNK_ROWS
        # A run that starts past row 0 jumps its generator ahead.
        jumped_ahead = False
        for l in (1, 3, 5):
            query = random_query(random.Random(70 + l), l)
            family = TwoPointFamily(query, 0)
            for samples in (1, chunk - 1, chunk + 1, 2 * chunk + 3, 5 * chunk + 7):
                seed = 7 * l + 1
                runs.clear()
                assert monte_carlo_small_sum(
                    family, samples, seed=seed
                ) == oracles.monte_carlo_small_sum(family, samples, seed=seed)
                count = min(cpus, samples * l)
                assert sorted(run[:2] for run in runs) == [
                    (samples * w // count, samples * (w + 1) // count) for w in range(count)
                ]
                assert all(rows == min(chunk, 2 * chunk // count) for _, _, rows, _ in runs)
                jumped_ahead |= any(start > 0 for start, _, _, _ in runs)
        assert jumped_ahead == (cpus > 1)

    @pytest.mark.parametrize("cpus", [1, 2, 3, 5])
    @pytest.mark.parametrize(
        "mus",
        [(Fraction(1, 10),) * l for l in range(1, 9)]
        + [
            # Tied means: groups of two and two, and of one, three and one.
            tuple(map(Fraction, ("1/10", "1/10", "1/5", "1/5"))),
            tuple(map(Fraction, ("1/20", "1/10", "1/10", "1/10", "1/5"))),
            # A zero mean never jumps.
            tuple(map(Fraction, ("0", "1/10", "1/5"))),
        ],
    )
    def test_grouped_thresholds_give_the_one_pass_estimates(self, monkeypatch, cpus, mus):
        split_every_call(monkeypatch, cpus)
        family = TwoPointFamily(SamuelsQuery(mus), 0)
        chunk = samuels._CHUNK_ROWS
        for samples in (1, chunk - 1, chunk + 1, 2 * chunk + 3):
            seed = 31 * len(mus) + samples % 7
            assert monte_carlo_small_sum(
                family, samples, seed=seed
            ) == oracles.monte_carlo_small_sum(family, samples, seed=seed)

    def test_small_calls_draw_in_the_calling_thread(self, monkeypatch):
        # Criterion 8 and the CLI default, 100k samples at l <= 4, draw in one
        # run; two runs start at 2 * _MIN_RUN_WORK uniforms.
        assert 100_000 * 4 < 2 * samuels._MIN_RUN_WORK
        monkeypatch.setattr(samuels, "_usable_cpus", lambda: 2)
        runs = record_runs(monkeypatch)
        # Three uniforms a sample: 174,762 samples draw 2^19 - 2 uniforms.
        family = TwoPointFamily(SamuelsQuery.uniform(3, Fraction(1, 5)), 0)
        least = -(-2 * samuels._MIN_RUN_WORK // 3)
        for samples, in_caller in ((least - 1, [True]), (least, [False, True])):
            runs.clear()
            estimate = monte_carlo_small_sum(family, samples, seed=4)
            assert estimate == oracles.monte_carlo_small_sum(family, samples, seed=4)
            assert sorted(run[3] for run in runs) == in_caller

    @pytest.mark.parametrize("failing_run", [0, 4])
    def test_a_run_that_raises_makes_the_call_raise(self, monkeypatch, failing_run):
        # Five runs: run 0 is drawn in the calling thread, run 4 in a helper.
        split_every_call(monkeypatch, 5)
        samples = 2 * samuels._CHUNK_ROWS + 3
        count_small = samuels._count_small
        in_caller = []

        def failing(probs, seed, start, stop, rows):
            if start == samples * failing_run // 5:
                in_caller.append(threading.current_thread() is threading.main_thread())
                raise RuntimeError(f"run {failing_run} failed")
            return count_small(probs, seed, start, stop, rows)

        monkeypatch.setattr(samuels, "_count_small", failing)
        family = TwoPointFamily(SamuelsQuery.uniform(3, Fraction(1, 5)), 0)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match=f"run {failing_run} failed"):
            monte_carlo_small_sum(family, samples, seed=1)
        assert in_caller == [failing_run == 0]
        assert threading.active_count() == before

    def test_no_thread_outlives_the_call(self, monkeypatch):
        split_every_call(monkeypatch, 3)
        family = TwoPointFamily(SamuelsQuery.uniform(3, Fraction(1, 5)), 0)
        before = threading.active_count()
        monte_carlo_small_sum(family, 3 * samuels._CHUNK_ROWS, seed=1)
        assert threading.active_count() == before

    def test_memory_does_not_grow_with_the_cpu_count(self, monkeypatch):
        # Twelve runs hold 2 * _CHUNK_ROWS rows between them, as two do.
        monkeypatch.setattr(samuels, "_usable_cpus", lambda: 12)
        runs = record_runs(monkeypatch)
        family = TwoPointFamily(SamuelsQuery.uniform(3, Fraction(1, 5)), 0)
        tracemalloc.start()
        try:
            monte_carlo_small_sum(family, 4_000_000, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(runs) == 12
        assert peak < 4 * 2**20

    def test_usable_cpus_fall_back_to_the_cpu_count(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
        assert samuels._usable_cpus() == 3
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        assert samuels._usable_cpus() == 4
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert samuels._usable_cpus() == 1

