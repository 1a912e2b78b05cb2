"""Randomised two-round construction: sampling, checks, build, tail bounds."""

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
    AmbiguousMembershipError,
    CheckConfig,
    RoundOnePlan,
    RoundOneOutcome,
    build_sparse_subgraph,
    chernoff_bound,
    check_near_regularity,
    compute_round_matchings,
    coverage_count,
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
            config = CheckConfig(degree_fraction=rng.choice((0.0, 0.2, 0.5, 1.0)))
            subsets = randcons._sample_subsets(plan)
            multiplicity, degrees = randcons._check_edges(plan, subsets, config)
            # Equal reprs: the same types too, ints rather than numpy scalars.
            assert repr(multiplicity) == repr(oracles.check_edge_multiplicity(plan, subsets))
            assert repr(degrees) == repr(oracles.check_induced_degrees(plan, subsets, config))
            passed[multiplicity.passed] += 1
            passed[degrees.passed] += 1
        assert passed[True] and passed[False]

    def test_criterion_9_plan(self):
        # Four rounds at rate 1/2 on K_60^3: 2974 edges lie in two rounds.  A
        # vertex keeps C(|R|-1, 2) induced edges if it is in R and C(|R|, 2)
        # if not, so asking for 1.05 times C(|R|-1, 2) fails the members.
        plan = RoundOnePlan(Hypergraph.complete(3, 60), 4, 0.5, 1, seed=7)
        subsets = randcons._sample_subsets(plan)
        for fraction, violations in ((1.0, 0), (1.05, sum(map(len, subsets)))):
            config = CheckConfig(degree_fraction=fraction)
            multiplicity, degrees = randcons._check_edges(plan, subsets, config)
            assert multiplicity.violations == 2974
            assert multiplicity == oracles.check_edge_multiplicity(plan, subsets)
            assert degrees.violations == violations
            assert degrees == oracles.check_induced_degrees(plan, subsets, config)

    def test_lex_ranks_number_the_dsets_in_order(self):
        # (70, 68): C(70, 35) overflows int64, C(70, 68) does not.
        for n, d in ((1, 1), (5, 0), (6, 2), (7, 3), (8, 7), (70, 68)):
            dsets = list(itertools.combinations(range(n), d))
            array = np.array(dsets, dtype=np.intp).reshape(len(dsets), d)
            ranks = randcons._lex_ranks(array, tuple(range(d)), n)
            assert ranks.tolist() == list(range(len(dsets)))
            assert [randcons._lex_unrank(i, n, d) for i in range(len(dsets))] == dsets


def digest_plans():
    """120 seeded plans and configs: k 2-4, n <= 14, 0-12 rounds, every d."""
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
        config = CheckConfig(
            vertex_tolerance=rng.choice((0.2, 1 / 3, 0.6)),
            pair_cap=rng.choice((1, 2, 4)),
            size_tolerance=rng.choice((0.2, 1 / 3, 0.6)),
            degree_fraction=rng.choice((0.0, 0.2, 0.5, 1.0)),
        )
        yield plan, config


def test_outcomes_match_pinned_digest():
    # Pins subsets, every check (witnesses and details included), the round
    # matchings and the skipped rounds.  Each of the five checks both passes
    # and fails on these plans, and each has more violations than witnesses on
    # some of them.
    digest = hashlib.sha256()
    passed, capped = {}, set()
    for plan, config in digest_plans():
        outcome = sample_rounds(plan, config, with_matchings=True)
        for c in outcome.checks:
            passed.setdefault(c.name, set()).add(c.passed)
            if c.violations > len(c.witnesses):
                capped.add(c.name)
        digest.update(repr(outcome).encode())
    assert len(passed) == len(capped) == 5
    assert all(seen == {True, False} for seen in passed.values())
    assert digest.hexdigest() == (
        "fcbca12b19877dc74797355ca18825d0fb423fdfbc1278176c32e0b3d8b3f6e1"
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

    def test_strict_mode_requires_unambiguous_membership(self):
        plan = RoundOnePlan(TWO_TRIPLES, 2, 1.0, 1)
        outcome = sample_rounds(plan, with_matchings=True)
        with pytest.raises(AmbiguousMembershipError):
            build_sparse_subgraph(outcome, strict=True)
        sparse = build_sparse_subgraph(outcome, strict=False)
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
            assert sparse.coverage[v] == coverage_count(outcome.subsets, {v})


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
            strict_ok = outcome.check("edge_multiplicity").passed
            for seed in range(3):
                for strict in (False, True):
                    if strict and not strict_ok:
                        with pytest.raises(AmbiguousMembershipError):
                            build_sparse_subgraph(outcome, seed=seed, strict=True)
                        continue
                    assert build_sparse_subgraph(
                        outcome, seed=seed, strict=strict
                    ) == oracles.build_sparse_subgraph(outcome, seed=seed, strict=strict)
        assert fractional and skipped

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


class TestRegularity:
    def test_matching_is_perfectly_regular(self):
        report = check_near_regularity(TWO_TRIPLES, 1.0, 0.5)
        assert report
        assert report.max_codegree == 0

    def test_complete_triples_fail_on_codegree(self):
        report = check_near_regularity(Hypergraph.complete(3, 6), 10.0, 0.1)
        assert not report
        assert report.max_codegree == 4
        assert report.degree_violators == ()

    def test_edgeless_fails(self):
        assert not check_near_regularity(Hypergraph(3, 6, ()), 1.0, 0.5)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            check_near_regularity(TWO_TRIPLES, 0, 0.5)
        with pytest.raises(ValueError):
            check_near_regularity(TWO_TRIPLES, 1.0, 0)


class TestChernoff:
    def test_small_deviation_value(self):
        bound = chernoff_bound("small", expectation=50, alpha=0.3)
        assert bound == pytest.approx(2 * math.exp(-1.5))

    def test_binomial_matches_small_at_matching_alpha(self):
        lam = 6.0
        by_binomial = chernoff_bound("binomial", n=40, p=0.5, lam=lam)
        alpha = lam / (40 * 0.5)
        by_small = chernoff_bound("small", expectation=20, alpha=alpha)
        assert by_binomial == pytest.approx(by_small / 2)

    def test_large_deviation_value(self):
        assert chernoff_bound("large", expectation=1, x=10) == pytest.approx(
            math.exp(-10)
        )

    def test_validity_ranges(self):
        with pytest.raises(ValueError):
            chernoff_bound("small", expectation=50, alpha=2.0)
        with pytest.raises(ValueError):
            chernoff_bound("binomial", n=40, p=0.5, lam=31.0)
        with pytest.raises(ValueError):
            chernoff_bound("large", expectation=10, x=69)
        with pytest.raises(ValueError):
            chernoff_bound("huge", expectation=1, x=10)
        with pytest.raises(TypeError):
            chernoff_bound("small", expectation=50, alpha=0.3, slack=1)
        with pytest.raises(TypeError, match="missing \\['alpha'\\]"):
            chernoff_bound("small", expectation=1)
        with pytest.raises(TypeError, match="missing \\['n', 'lam'\\]"):
            chernoff_bound("binomial", p=0.5)

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
    assert sandwich(5, 2, 2, q=4, jobs=3).holds
    plan = RoundOnePlan(Hypergraph.complete(3, 9), 4, 0.7, 1, seed=5)
    solved = sample_rounds(plan, with_matchings=True)
    assert len(solved.matchings) == 4
    unsolved = sample_rounds(plan)
    assert unsolved.matchings is None
    assert build_sparse_subgraph(unsolved, seed=1) == build_sparse_subgraph(solved, seed=1)
