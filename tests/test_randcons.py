"""Randomised two-round construction: sampling, checks and build."""

import hashlib
import itertools
import math
import multiprocessing
import random
from fractions import Fraction

import numpy as np
import pytest

import oracles
from hypermatch import hypercore, randcons, thresholds
from hypermatch.hypercore import Hypergraph
from hypermatch.randcons import (
    RoundOnePlan,
    RoundOneOutcome,
    build_sparse_subgraph,
    compute_round_matchings,
    preset_scale_parameters,
    sample_rounds,
)
from hypermatch.storage import optimize_grid, sandwich
from hypermatch.thresholds import ThresholdQuery, brute_force_threshold

TWO_TRIPLES = Hypergraph(3, 6, ((0, 1, 2), (3, 4, 5)))


class TestPlan:
    def test_validation(self):
        with pytest.raises(ValueError):
            RoundOnePlan(TWO_TRIPLES, 2, 0.0, 1)
        with pytest.raises(ValueError):
            RoundOnePlan(TWO_TRIPLES, 2, 1.5, 1)
        with pytest.raises(ValueError):
            RoundOnePlan(TWO_TRIPLES, -1, 0.5, 1)
        with pytest.raises(ValueError):
            RoundOnePlan(TWO_TRIPLES, 2, 0.5, 3)

    def test_plans_on_the_complete_base_share_it(self):
        # perfbench's sparsify workload builds a one-round and a four-round
        # plan on K_60^3; the second must not hold a second 34,220-edge base.
        one = RoundOnePlan(Hypergraph.complete(3, 60), rounds=1, p=0.5, d=1)
        four = RoundOnePlan(Hypergraph.complete(3, 60), rounds=4, p=0.5, d=1)
        assert one.base is four.base

    def test_sampling_is_reproducible(self):
        plan = RoundOnePlan(Hypergraph.complete(3, 12), 5, 0.5, 1, seed=3)
        a = sample_rounds(plan)
        b = sample_rounds(plan)
        assert a.subsets == b.subsets
        assert a.subsets != sample_rounds(
            RoundOnePlan(Hypergraph.complete(3, 12), 5, 0.5, 1, seed=4)
        ).subsets


class TestChecks:
    def test_full_sampling_fails_multiplicity_only_by_duplication(self):
        plan = RoundOnePlan(TWO_TRIPLES, 2, 1.0, 1)
        outcome = sample_rounds(plan)
        multiplicity = outcome.check("edge_multiplicity")
        assert not multiplicity.passed
        assert multiplicity.violations == 2  # both edges appear twice

    def test_zero_rounds_is_vacuous(self):
        outcome = sample_rounds(RoundOnePlan(TWO_TRIPLES, 0, 0.5, 1))
        assert outcome.subsets == ()
        for c in outcome.checks:
            assert c.passed, c.name

    def test_unknown_check_name(self):
        outcome = sample_rounds(RoundOnePlan(TWO_TRIPLES, 0, 0.5, 1))
        with pytest.raises(KeyError):
            outcome.check("colourfulness")

    def test_size_band_on_a_large_sample(self):
        base = Hypergraph.complete(3, 60)
        plan = RoundOnePlan(base, 40, 0.5, 1, seed=7)
        outcome = sample_rounds(plan)
        sizes = [len(r) for r in outcome.subsets]
        assert outcome.check("subset_sizes").passed
        assert 20 <= min(sizes) and max(sizes) <= 40
        # at rate 1/2 over 40 rounds, pair coverage necessarily exceeds the
        # cap of 2, and the checks report rather than raise
        assert not outcome.check("pair_coverage").passed
        assert len(outcome.check("pair_coverage").witnesses) <= 10


class TestExactBands:
    def test_a_size_on_the_band_edge_passes(self):
        # n * p = 9 with tolerance 1/3 is the band [6, 12]; in floats its
        # lower edge was (1 - 1/3) * 9 = 6.000000000000001, and 6 failed.
        outcome = sample_rounds(RoundOnePlan(Hypergraph.complete(2, 18), 3, 0.5, 1, 7))
        assert [len(r) for r in outcome.subsets] == [6, 14, 10]
        sizes = outcome.check("subset_sizes")
        assert sizes.witnesses == ((1, 14),) and sizes.violations == 1
        assert sizes.detail == "subset sizes vs n*p = 9 (tolerance 0.333333)"

    def test_check_band_keeps_both_edges_at_one_third(self):
        # Within 1/3 of 3 is the band [2, 4], and within 1/3 of 5/2 the band
        # [5/3, 10/3]: its integers are 2 and 3.
        for target, values, witnesses in (
            (Fraction(3), (1, 2, 3, 4, 5), ((0, 1), (4, 5))),
            (Fraction(5, 2), (1, 2, 3, 4), ((0, 1), (3, 4))),
        ):
            for tolerance in (randcons._VERTEX_TOLERANCE, randcons._SIZE_TOLERANCE):
                band = randcons._check_band("s", values, target, tolerance, "w")
                assert band.witnesses == witnesses and band.violations == 2
                assert band.detail == f"w = {float(target):g} (tolerance 0.333333)"

    def test_induced_degree_on_the_required_fraction_passes(self):
        # K_6^2 with d = 1 and R = all six vertices: a vertex needs
        # ceil(C(5, 1) / 2) = 3 of its edges.  With (0, 1) and (0, 2) gone,
        # vertex 0 keeps exactly 3 and passes; with (0, 3) gone too it keeps
        # 2 and is the one violation.
        for missing, witnesses in ((2, ()), (3, ((0, (0,), 2),))):
            gone = [(0, v) for v in range(1, missing + 1)]
            base = Hypergraph(
                2, 6, [e for e in itertools.combinations(range(6), 2) if e not in gone]
            )
            plan = RoundOnePlan(base, 1, 1.0, 1)
            subsets = randcons._sample_subsets(plan)
            assert subsets == (tuple(range(6)),)
            _, degrees = randcons._check_edges(plan, subsets)
            assert degrees.witnesses == witnesses
            assert degrees == oracles.check_induced_degrees(plan, subsets)

    def test_subset_sizes_caps_its_witnesses_at_ten(self):
        # n * p = 1 on two vertices: the band is [1, 1], and 12 of these 30
        # rounds draw 0 or 2 vertices.
        outcome = sample_rounds(RoundOnePlan(Hypergraph.complete(2, 2), 30, 0.5, 1))
        bad = [(i, len(r)) for i, r in enumerate(outcome.subsets) if len(r) != 1]
        sizes = outcome.check("subset_sizes")
        assert sizes.violations == len(bad) == 12
        assert sizes.witnesses == tuple(bad[:10])


def random_plan(rng: random.Random, k: int, d: int, seed: int) -> RoundOnePlan:
    """A seeded plan on a random k-graph with n <= 10, dense or sparse."""
    n = rng.randint(k, 10)
    density = rng.choice((0.3, 0.7, 1.0))
    edges = [e for e in itertools.combinations(range(n), k) if rng.random() < density]
    return RoundOnePlan(
        Hypergraph(k, n, edges), rng.randint(0, 5), rng.choice((0.3, 0.6, 0.9, 1.0)), d, seed
    )


class TestRoundOneAuditsMatchOracles:
    @pytest.mark.parametrize(
        "k, d", [(k, d) for k in range(2, 5) for d in range(k)]
    )
    def test_seeded_plans(self, k, d):
        rng = random.Random(100 * k + d)
        passed = {True: 0, False: 0}
        for trial in range(40):
            plan = random_plan(rng, k, d, seed=trial)
            subsets = randcons._sample_subsets(plan)
            multiplicity, degrees = randcons._check_edges(plan, subsets)
            # Equal reprs: the same types too, ints rather than numpy scalars.
            assert repr(multiplicity) == repr(oracles.check_edge_multiplicity(plan, subsets))
            assert repr(degrees) == repr(oracles.check_induced_degrees(plan, subsets))
            passed[multiplicity.passed] += 1
            passed[degrees.passed] += 1
        assert passed[True] and passed[False]

    def test_criterion_9_plan(self):
        # Four rounds at rate 1/2 on K_60^3: 2974 edges lie in two rounds.  A
        # vertex keeps C(|R|-1, 2) induced edges if it is in R and C(|R|, 2)
        # if not, so every vertex keeps more than half.
        plan = RoundOnePlan(Hypergraph.complete(3, 60), 4, 0.5, 1, seed=7)
        subsets = randcons._sample_subsets(plan)
        multiplicity, degrees = randcons._check_edges(plan, subsets)
        assert multiplicity.violations == 2974
        assert multiplicity == oracles.check_edge_multiplicity(plan, subsets)
        assert degrees.passed
        assert degrees == oracles.check_induced_degrees(plan, subsets)

    def test_lex_ranks_number_the_dsets_in_order(self):
        # (70, 68): C(70, 35) overflows int64, C(70, 68) does not.
        for n, d in ((1, 1), (5, 0), (6, 2), (7, 3), (8, 7), (70, 68)):
            dsets = list(itertools.combinations(range(n), d))
            array = np.array(dsets, dtype=np.intp).reshape(len(dsets), d)
            ranks = randcons._lex_ranks(array, tuple(range(d)), n)
            assert ranks.tolist() == list(range(len(dsets)))
            assert [randcons._lex_unrank(i, n, d) for i in range(len(dsets))] == dsets


def digest_plans():
    """120 seeded plans: k 2-4, n <= 14, 0-12 rounds, every d."""
    rng = random.Random(2024)
    for trial in range(120):
        k = rng.randint(2, 4)
        n = rng.randint(k, 14)
        density = rng.choice((0.3, 0.7, 1.0))
        edges = [e for e in itertools.combinations(range(n), k) if rng.random() < density]
        plan = RoundOnePlan(
            Hypergraph(k, n, edges),
            rng.randint(0, 12),
            rng.choice((0.2, 0.5, 0.8)),
            rng.randint(0, k - 1),
            seed=trial,
        )
        # Four draws once chose check bands; they stay so the plans do.
        for choices in ((0.2, 1 / 3, 0.6), (1, 2, 4), (0.2, 1 / 3, 0.6), (0.0, 0.2, 0.5, 1.0)):
            rng.choice(choices)
        yield plan


def test_outcomes_match_pinned_digest():
    # Pins subsets, every check (witnesses and details included), the round
    # matchings and the skipped rounds.  Each of the five checks both passes
    # and fails on these plans, and each but subset_sizes, which sees at most
    # nine bad rounds, has more violations than witnesses on some of them.
    digest = hashlib.sha256()
    passed, capped = {}, set()
    for plan in digest_plans():
        outcome = sample_rounds(plan, with_matchings=True)
        for c in outcome.checks:
            passed.setdefault(c.name, set()).add(c.passed)
            if c.violations > len(c.witnesses):
                capped.add(c.name)
        digest.update(repr(outcome).encode())
    assert len(passed) == 5 and capped == set(passed) - {"subset_sizes"}
    assert all(seen == {True, False} for seen in passed.values())
    assert digest.hexdigest() == (
        "78319ea8ad5618787fbf084667324a09c65d6bff2c32e8271bc156f9e11aa6c3"
    )


class TestRoundMatchings:
    def test_perfect_round_is_kept(self):
        plan = RoundOnePlan(TWO_TRIPLES, 1, 1.0, 1)
        outcome = sample_rounds(plan, with_matchings=True)
        assert outcome.skipped_rounds == ()
        (matching,) = outcome.matchings
        assert sum(w for _, w in matching.support()) == Fraction(2)

    def test_imperfect_round_is_skipped(self):
        plan = RoundOnePlan(TWO_TRIPLES, 1, 0.5, 1)
        outcome = RoundOneOutcome(plan, subsets=((0, 1, 2, 3),), checks=())
        solved = compute_round_matchings(outcome)
        assert solved.skipped_rounds == (0,)
        assert solved.matchings == (None,)


class TestBuild:
    def test_single_perfect_round_keeps_the_matching(self):
        plan = RoundOnePlan(TWO_TRIPLES, 1, 1.0, 1)
        outcome = sample_rounds(plan, with_matchings=True)
        sparse = build_sparse_subgraph(outcome)
        assert sparse.hypergraph.edges == TWO_TRIPLES.edges
        assert sparse.degrees == (1,) * 6
        assert sparse.coverage == (1,) * 6
        assert sparse.max_codegree() == 1
        assert sparse.skipped_rounds == ()

    def test_an_edge_in_two_rounds_doubles_the_multiset_degree(self):
        plan = RoundOnePlan(TWO_TRIPLES, 2, 1.0, 1)
        outcome = sample_rounds(plan, with_matchings=True)
        assert not outcome.check("edge_multiplicity").passed
        sparse = build_sparse_subgraph(outcome)
        # both rounds keep both weight-1 edges: the multiset degree doubles
        assert sparse.degrees == (2,) * 6

    def test_build_is_reproducible(self):
        plan = RoundOnePlan(Hypergraph.complete(3, 9), 4, 0.7, 1, seed=5)
        outcome = sample_rounds(plan, with_matchings=True)
        a = build_sparse_subgraph(outcome, seed=11)
        b = build_sparse_subgraph(outcome, seed=11)
        assert a == b

    def test_builds_match_pinned_digest(self):
        # Every round of this plan carries strictly fractional weights, so the
        # builds consume draws; the digest pins the draw order, the selections
        # and the degree accounting across seeds.
        plan = RoundOnePlan(Hypergraph.complete(3, 9), 4, 0.7, 1, seed=5)
        outcome = sample_rounds(plan, with_matchings=True)
        assert all(
            any(0 < w < 1 for w in m.weights) for m in outcome.matchings
        )
        digest = hashlib.sha256()
        for seed in range(4):
            s = build_sparse_subgraph(outcome, seed=seed)
            record = (
                s.per_round_selected,
                s.degrees,
                sorted(s.codegrees.items()),
                s.coverage,
                s.hypergraph.edges,
            )
            digest.update(repr(record).encode())
        assert digest.hexdigest() == (
            "6b317ee8cd84966b39ea57f4430ee220c4897f9527a2151dac83026e9fee70a7"
        )

    def test_criterion_9_round_0_builds_match_pinned_digest(self):
        # 500 build seeds on round 0 of the criterion-9 plan (K_60^3, plan
        # seed 7), recorded with one scalar draw per weight compared with the
        # exact Fraction.
        plan = RoundOnePlan(Hypergraph.complete(3, 60), 1, 0.5, 1, seed=7)
        outcome = sample_rounds(plan, with_matchings=True)
        digest = hashlib.sha256()
        for seed in range(500):
            s = build_sparse_subgraph(outcome, seed=seed)
            record = (
                s.per_round_selected,
                s.degrees,
                sorted(s.codegrees.items()),
                s.coverage,
                s.hypergraph.edges,
            )
            digest.update(repr(record).encode())
        assert digest.hexdigest() == (
            "be4b1cda03048e2c0df150bb26d3bb29e15c2bacf29d0ad634fec36c1559a4eb"
        )

    def test_builds_without_matchings_equal_builds_with_them(self):
        rng = random.Random(17)
        for trial in range(12):
            k = rng.randint(2, 4)
            plan = random_plan(rng, k, rng.randint(0, k - 1), seed=trial)
            unsolved = sample_rounds(plan)
            solved = sample_rounds(plan, with_matchings=True)
            for seed in range(3):
                assert build_sparse_subgraph(unsolved, seed=seed) == build_sparse_subgraph(
                    solved, seed=seed
                )

    def test_unsolved_outcome_solves_its_round_lps_once(self, monkeypatch):
        # Every third triple of K_9^3 left out: round 1 of seed 2 falls short.
        base = Hypergraph(
            3, 9, [e for i, e in enumerate(itertools.combinations(range(9), 3)) if i % 3]
        )
        plan = RoundOnePlan(base, 4, 0.7, 1, seed=2)
        solved = sample_rounds(plan, with_matchings=True)
        assert solved.skipped_rounds == (1,)
        unsolved = sample_rounds(plan)
        calls = []
        solve = randcons.fractional_matching
        monkeypatch.setattr(
            randcons, "fractional_matching", lambda h: calls.append(h) or solve(h)
        )
        builds = [build_sparse_subgraph(unsolved, seed=seed) for seed in (0, 1)]
        assert len(calls) == plan.rounds
        assert unsolved.matchings is None
        assert builds == [build_sparse_subgraph(solved, seed=seed) for seed in (0, 1)]
        assert builds[0].skipped_rounds == (1,)

    def test_builds_from_one_outcome_share_no_mutable_state(self):
        plan = RoundOnePlan(Hypergraph.complete(3, 9), 4, 0.7, 1, seed=5)
        outcome = sample_rounds(plan, with_matchings=True)
        first = build_sparse_subgraph(outcome, seed=2)
        second = build_sparse_subgraph(outcome, seed=2)
        assert first == second
        assert first.codegrees is not second.codegrees
        assert type(first.degrees) is tuple
        kept = dict(second.codegrees)
        first.codegrees.clear()
        first.codegrees[(0, 1)] = 10**6
        assert second.codegrees == kept
        assert build_sparse_subgraph(outcome, seed=2) == second

    def test_weight_one_edges_are_counted_once_per_outcome(self, monkeypatch):
        # incidence runs only while the draw plan is made; the builds after
        # it count the drawn edges that hit and nothing else.
        plan = RoundOnePlan(Hypergraph.complete(3, 9), 4, 0.7, 1, seed=5)
        outcome = sample_rounds(plan, with_matchings=True)
        calls = []
        count = randcons.incidence
        monkeypatch.setattr(
            randcons,
            "incidence",
            lambda *args, **kwargs: calls.append("_draw_plan" in vars(outcome))
            or count(*args, **kwargs),
        )
        first = build_sparse_subgraph(outcome, seed=4)
        assert calls and not any(calls)
        del calls[:]
        second = build_sparse_subgraph(outcome, seed=4)
        assert calls == []
        assert first == second == oracles.build_sparse_subgraph(outcome, seed=4)

    def test_degrees_decompose_over_rounds(self):
        plan = RoundOnePlan(Hypergraph.complete(3, 9), 5, 0.7, 1, seed=2)
        outcome = sample_rounds(plan, with_matchings=True)
        sparse = build_sparse_subgraph(outcome, seed=3)
        for v in range(9):
            recount = sum(
                sum(1 for e in kept if v in e)
                for kept in sparse.per_round_selected
            )
            assert sparse.degrees[v] == recount
            assert sparse.coverage[v] == sum(1 for r in outcome.subsets if v in r)


class TestBuildMatchesOracle:
    def test_seeded_outcomes(self):
        rng = random.Random(9)
        fractional = skipped = 0
        for trial in range(30):
            k = rng.randint(2, 4)
            plan = random_plan(rng, k, rng.randint(0, k - 1), seed=trial)
            outcome = sample_rounds(plan, with_matchings=True)
            skipped += len(outcome.skipped_rounds)
            fractional += any(
                0 < w < 1 for m in outcome.matchings if m is not None for w in m.weights
            )
            for seed in range(3):
                assert build_sparse_subgraph(outcome, seed=seed) == oracles.build_sparse_subgraph(
                    outcome, seed=seed
                )
        assert fractional and skipped

    def test_all_integral_and_skipped_rounds(self):
        # Round 0 induces the one edge (0, 1, 2) at weight 1, so it draws
        # nothing.  Round 1 induces K_4^3, whose only perfect fractional
        # matching weighs 1/3 on every edge.  Round 2 induces (0, 1, 2) alone
        # on four vertices and is skipped.
        base = Hypergraph(3, 7, [(0, 1, 2), *itertools.combinations(range(3, 7), 3)])
        unsolved = RoundOneOutcome(
            RoundOnePlan(base, 3, 0.5, 1), subsets=((0, 1, 2), (3, 4, 5, 6), (0, 1, 2, 3)), checks=()
        )
        outcome = compute_round_matchings(unsolved)
        assert outcome.skipped_rounds == (2,)
        assert outcome.matchings[0].weights == (1,)
        assert set(outcome.matchings[1].weights) == {Fraction(1, 3)}
        for seed in range(20):
            assert build_sparse_subgraph(outcome, seed=seed) == oracles.build_sparse_subgraph(
                outcome, seed=seed
            )
        # Every weight 1: no round draws at all.
        integral = sample_rounds(RoundOnePlan(TWO_TRIPLES, 2, 1.0, 1), with_matchings=True)
        for seed in range(3):
            assert build_sparse_subgraph(integral, seed=seed) == oracles.build_sparse_subgraph(
                integral, seed=seed
            )

    def test_one_edge_at_weight_one_and_drawn(self):
        # (0, 1, 2) is round 0's whole support at weight 1 and one of round
        # 1's K_4^3 edges at 1/3: the plan's counts and a build's drawn
        # counts meet on one edge and its pairs.
        base = Hypergraph.complete(3, 4)
        outcome = compute_round_matchings(
            RoundOneOutcome(
                RoundOnePlan(base, 2, 0.5, 1), subsets=((0, 1, 2), (0, 1, 2, 3)), checks=()
            )
        )
        assert outcome.matchings[0].support() == (((0, 1, 2), 1),)
        assert dict(outcome.matchings[1].support())[(0, 1, 2)] == Fraction(1, 3)
        builds = [build_sparse_subgraph(outcome, seed=seed) for seed in range(50)]
        for seed, built in enumerate(builds):
            assert built == oracles.build_sparse_subgraph(outcome, seed=seed)
        twice = [b for b in builds if (0, 1, 2) in b.per_round_selected[1]]
        assert twice and all(b.degrees[0] >= 2 and b.codegrees[(1, 2)] >= 2 for b in twice)

    def test_criterion_9_outcome(self):
        plan = RoundOnePlan(Hypergraph.complete(3, 60), 40, 0.5, 1, seed=7)
        outcome = sample_rounds(plan, with_matchings=True)
        for seed in (0, 1, 2, 199):
            assert build_sparse_subgraph(outcome, seed=seed) == oracles.build_sparse_subgraph(
                outcome, seed=seed
            )

    def test_dyadic_threshold_decides_like_the_exact_fraction(self):
        ulp = 2.0**-53
        weights = [
            Fraction(1, 2),
            Fraction(1, 2**53),
            1 - Fraction(1, 2**53),
            Fraction(2**60 + 1, 2**61),
            Fraction(1, 3),
            Fraction(2, 3),
        ]
        for w in weights:
            t = hypercore._draw_threshold(w)
            near = math.floor(w * 2**53) * ulp
            for u in (0.0, ulp, near - ulp, near, near + ulp, 0.5 - ulp, 0.5, 0.5 + ulp, 1 - ulp):
                if 0 <= u < 1:
                    assert (u < t) == (u < w), (w, u)
        # (2^60 + 1) / 2^61 is just above 1/2, so u = 1/2 is below it, while
        # float(w) rounds to 1/2 and would decide the other way.
        w = Fraction(2**60 + 1, 2**61)
        assert 0.5 < w and not 0.5 < float(w) and 0.5 < hypercore._draw_threshold(w)


class TestCanonicalSubHypergraphs:
    def test_induced_and_kept_edges_equal_validated_hypergraphs(self):
        # Round matchings are solved on induced hypergraphs, and builds
        # return the kept edges, both made without re-validation.
        for plan in itertools.islice(digest_plans(), 40):
            k, n = plan.base.k, plan.base.n
            outcome = sample_rounds(plan, with_matchings=True)
            for r, matching in zip(outcome.subsets, outcome.matchings):
                edges = tuple(e for e in plan.base.edges if set(e) <= set(r))
                validated = Hypergraph(k, n, edges)
                assert Hypergraph._canonical(k, n, edges) == validated
                if matching is not None:
                    assert matching.hypergraph == validated
            built = build_sparse_subgraph(outcome, seed=plan.seed)
            assert built.hypergraph == Hypergraph(
                k, n, itertools.chain.from_iterable(built.per_round_selected)
            )


class TestPreset:
    def test_scale_preset(self):
        p, rounds = preset_scale_parameters(60)
        assert p == pytest.approx(60**-0.9)
        assert rounds == round(60**1.1)
        with pytest.raises(ValueError):
            preset_scale_parameters(0)


def test_searches_and_round_lps_start_no_process(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was asked for")

    monkeypatch.setattr(multiprocessing, "get_context", no_pool)
    monkeypatch.setattr(multiprocessing, "Pool", no_pool)
    thresholds._memo.clear()
    assert brute_force_threshold(ThresholdQuery(1, 22, 0, 11, "fractional"), jobs=2).value == 11
    assert optimize_grid(5, 2, 2, q=4, jobs=3).phi == 7
    assert sandwich(5, 2, 2, jobs=3).holds
    plan = RoundOnePlan(Hypergraph.complete(3, 9), 4, 0.7, 1, seed=5)
    solved = sample_rounds(plan, with_matchings=True)
    assert len(solved.matchings) == 4
    unsolved = sample_rounds(plan)
    assert unsolved.matchings is None
    assert build_sparse_subgraph(unsolved, seed=1) == build_sparse_subgraph(solved, seed=1)
