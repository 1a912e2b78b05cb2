"""Matching and cover optima against independent brute-force oracles."""

import gc
import hashlib
import itertools
import re
from fractions import Fraction

import numpy as np
import pytest

from hypermatch import optmatch, simplex
from hypermatch.extremal import construct_clique_plus_isolated, construct_h1
from hypermatch.hypercore import EdgeWeighting, Hypergraph, VertexWeighting, vertex_masks
from hypermatch.optmatch import (
    _COVER_DP_LIMIT,
    _check_lp_pair,
    _cover_by_branching,
    _subset_tables,
    DualityReport,
    cover_number,
    fractional_matching,
    fractional_optimum,
    has_perfect_matching,
    matching_number,
    maximum_matching,
    minimum_cover,
)
from hypermatch.simplex import PackingResult, solve_unit_packing

import oracles


def _pairwise_disjoint(edges) -> bool:
    seen: set[int] = set()
    for e in edges:
        if not seen.isdisjoint(e):
            return False
        seen.update(e)
    return True


def integer_pair(denom: int, xs, ys, z: int | None = None) -> PackingResult:
    """A solver result with the given integers over ``denom`` (Z = sum xs by default)."""
    z = sum(xs) if z is None else z
    return PackingResult(
        Fraction(z, denom),
        tuple(Fraction(x, denom) for x in xs),
        tuple(Fraction(y, denom) for y in ys),
        0,
        denom,
        tuple(xs),
        tuple(ys),
        z,
    )


def oracle_matching_number(h: Hypergraph) -> int:
    """Largest set of pairwise-disjoint edges, by subset enumeration."""
    for size in range(h.num_edges, 0, -1):
        for edges in itertools.combinations(h.edges, size):
            if _pairwise_disjoint(edges):
                return size
    return 0


def oracle_cover_number(h: Hypergraph) -> int:
    """Smallest vertex set meeting every edge, by subset enumeration."""
    if h.num_edges == 0:
        return 0
    for size in range(h.n + 1):
        for cover in itertools.combinations(range(h.n), size):
            cset = set(cover)
            if all(cset & set(e) for e in h.edges):
                return size
    raise AssertionError("the full vertex set always covers")


def random_small_hypergraphs(count: int, seed: int = 11):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        k = int(rng.integers(2, 4))
        n = int(rng.integers(k, 9))
        pool = list(itertools.combinations(range(n), k))
        keep = rng.random(len(pool)) < 0.4
        edges = [e for e, kept in zip(pool, keep) if kept][:12]
        yield Hypergraph(k, n, edges)


def seeded_edge_set(k: int, n: int, density: float, key) -> Hypergraph:
    """Each k-subset of n vertices kept with ``density``, drawn from ``key``."""
    rng = np.random.default_rng(key)
    pool = list(itertools.combinations(range(n), k))
    keep = rng.random(len(pool)) < density
    return Hypergraph(k, n, [e for e, kept in zip(pool, keep) if kept])


class TestIntegralOptima:
    def test_against_oracles_on_random_instances(self):
        for h in random_small_hypergraphs(80):
            assert matching_number(h) == oracle_matching_number(h)
            assert cover_number(h) == oracle_cover_number(h)

    def test_certificates_are_real(self):
        for h in random_small_hypergraphs(30, seed=5):
            matching = maximum_matching(h)
            seen: set[int] = set()
            for e in matching:
                assert e in h
                assert seen.isdisjoint(e)
                seen.update(e)
            cover = minimum_cover(h)
            cset = set(cover)
            assert all(cset & set(e) for e in h.edges)

    def test_complete_graph_values(self):
        k4 = Hypergraph.complete(3, 4)
        assert matching_number(k4) == 1
        assert cover_number(k4) == 2
        assert minimum_cover(k4) == (0, 1)
        k6 = Hypergraph.complete(3, 6)
        assert matching_number(k6) == 2
        assert cover_number(k6) == 4

    def test_edgeless(self):
        h = Hypergraph(3, 7, [])
        assert matching_number(h) == 0
        assert cover_number(h) == 0
        assert maximum_matching(h) == ()
        assert minimum_cover(h) == ()

    def test_graph_matching_number_against_networkx(self):
        nx = pytest.importorskip("networkx")
        rng = np.random.default_rng(14)
        for _ in range(60):
            n = int(rng.integers(2, 15))
            density = float(rng.uniform(0.05, 0.6))
            h = seeded_edge_set(2, n, density, int(rng.integers(1 << 32)))
            g = nx.Graph()
            g.add_nodes_from(range(n))
            g.add_edges_from(h.edges)
            expected = len(nx.max_weight_matching(g, maxcardinality=True))
            assert matching_number(h) == expected

    @pytest.mark.parametrize(
        "h, expected",
        [
            (Hypergraph(3, 6, [(0, 1, 2), (3, 4, 5)]), True),
            (Hypergraph(3, 6, [(0, 1, 2), (2, 3, 4)]), False),
            (Hypergraph(3, 7, [(0, 1, 2), (3, 4, 5)]), False),  # 3 does not divide 7
            (Hypergraph.complete(2, 6), True),
        ],
    )
    def test_has_perfect_matching(self, h, expected):
        assert has_perfect_matching(h) is expected

    @pytest.mark.parametrize("search", [maximum_matching, _cover_by_branching])
    def test_searches_leave_no_reference_cycle(self, search):
        # A recursive closure left in its cell would keep the search tables
        # alive until the cyclic collector happened to run.
        h = Hypergraph.complete(3, 9)
        gc.collect()
        gc.disable()
        try:
            search(h)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestMatchingAgainstEdgeLists:
    """The lex-block matching search against the per-vertex edge lists it
    replaced: the same certificate, not only the same size."""

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_seeded_instances_up_to_twelve_vertices(self, k):
        for n in range(k, 13):
            for density in (0.1, 0.3, 0.5, 0.8):
                for rep in range(3):
                    h = seeded_edge_set(k, n, density, [k, n, round(density * 10), rep, 1])
                    assert maximum_matching(h) == oracles.maximum_matching(h)

    @pytest.mark.parametrize("k, n", [(1, 5), (2, 9), (3, 9), (4, 12)])
    def test_complete_and_edgeless(self, k, n):
        for h in (Hypergraph.complete(k, n), Hypergraph(k, n, [])):
            assert maximum_matching(h) == oracles.maximum_matching(h)


class TestVerifyIntegral:
    H = Hypergraph(2, 4, [(0, 1), (1, 2), (2, 3)])

    def test_real_certificates_pass(self):
        optmatch._verify_integral(self.H, ((0, 1), (2, 3)), (1, 2))

    @pytest.mark.parametrize(
        "matching, message",
        [
            (((0, 1), (0, 3)), r"foreign edge \(0, 3\)"),
            # Certificates hold sorted edges: a reversed one is foreign.
            (((1, 0),), r"foreign edge \(1, 0\)"),
            ((("a", "b"),), r"foreign edge \('a', 'b'\)"),
            (((0, 1), (1, 2)), "matching certificate edges intersect"),
        ],
    )
    def test_bad_matchings_are_refused(self, matching, message):
        with pytest.raises(AssertionError, match=message):
            optmatch._verify_integral(self.H, matching, (1, 2))

    def test_vertices_equal_to_ints_are_not_foreign(self):
        optmatch._verify_integral(self.H, ((False, 1.0), (2.0, np.int64(3))), (1, 2))

    def test_a_cover_that_misses_an_edge_is_refused(self):
        with pytest.raises(AssertionError, match=r"cover certificate misses edge \(2, 3\)"):
            optmatch._verify_integral(self.H, ((0, 1),), (1,))


class TestCoverAgainstSubsetLoop:
    """The zeta-transform cover DP against the subset-by-subset loop it
    replaced: the same cover tuple, not only the same size."""

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_every_size_up_to_ten(self, k):
        for n in range(k, 11):
            for density in (0.1, 0.3, 0.5, 0.8):
                for rep in range(3):
                    h = seeded_edge_set(k, n, density, [k, n, round(density * 10), rep])
                    assert minimum_cover(h) == oracles.cover_by_complement(h)

    @pytest.mark.parametrize(
        "k, n, density", [(2, 15, 0.3), (3, 15, 0.1), (3, 16, 0.05), (4, 16, 0.02)]
    )
    def test_fifteen_and_sixteen_vertices(self, k, n, density):
        h = seeded_edge_set(k, n, density, [k, n, 7])
        assert h.num_edges > 0
        assert minimum_cover(h) == oracles.cover_by_complement(h)

    @pytest.mark.parametrize(
        "h, cover",
        [
            (Hypergraph(1, 1, [(0,)]), (0,)),
            (Hypergraph(3, 3, [(0, 1, 2)]), (0,)),
            (Hypergraph(4, 4, [(0, 1, 2, 3)]), (0,)),
            (Hypergraph(5, 5, [(0, 1, 2, 3, 4)]), (0,)),
            (Hypergraph(1, 6, [(1,), (3,), (4,)]), (1, 3, 4)),
            (Hypergraph(1, 4, [(0,), (1,), (2,), (3,)]), (0, 1, 2, 3)),
            (Hypergraph(3, 9, [(2, 5, 7)]), (2,)),
            (Hypergraph(2, 2, [(0, 1)]), (0,)),
        ],
    )
    def test_corner_cases(self, h, cover):
        assert minimum_cover(h) == cover == oracles.cover_by_complement(h)

    @pytest.mark.parametrize("n", [1, 2])
    def test_tables_shorter_than_one_byte(self, n):
        # 2^n < 8 positions: the edge table is one partly used byte.
        for k in range(1, n + 1):
            pool = list(itertools.combinations(range(n), k))
            for r in range(1, len(pool) + 1):
                for edges in itertools.combinations(pool, r):
                    h = Hypergraph(k, n, edges)
                    assert minimum_cover(h) == oracles.cover_by_complement(h)

    @pytest.mark.parametrize(
        "k, density", [(2, 0.1), (3, 0.02), (3, 0.05), (4, 0.005), (4, 0.01)]
    )
    def test_largest_table_against_branching(self, k, density):
        # At the limit the table has 2^20 bits; the subset loop is too slow
        # there, so the check is a valid cover of the size branching finds.
        n = _COVER_DP_LIMIT
        h = seeded_edge_set(k, n, density, [k, n, 7])
        cover = minimum_cover(h)
        assert all(set(e) & set(cover) for e in h.edges)
        assert len(cover) == len(_cover_by_branching(h))

    def test_certify_covers_match_pinned_digest(self):
        # The 972 criterion-1 style instances of seed 0 (k in {2, 3, 4},
        # n <= 14, nine of each size and density); the digest was recorded
        # with the subset-by-subset loop.
        digest = hashlib.sha256()
        count = 0
        for rep in range(9):
            for k in (2, 3, 4):
                for n in range(k, 15):
                    for density in (0.2, 0.5, 0.8):
                        key = [0, k, n, round(density * 10), rep]
                        h = seeded_edge_set(k, n, density, key)
                        digest.update(repr(minimum_cover(h)).encode())
                        count += 1
        assert count == 972
        assert digest.hexdigest() == (
            "ae41ac28e71c0c0101f051aa6fb9cb155c5c92e31f9a038dc8a6df60d9a4d757"
        )


class TestSubsetTables:
    """The cover DP's per-n bit tables against their definitions."""

    @pytest.mark.parametrize("n", range(13))
    def test_tables_match_their_definitions(self, n):
        low, by_size = _subset_tables(n)
        masks = range(1 << n)
        assert len(low) == n and len(by_size) == n + 1
        for b, table in enumerate(low):
            assert table == sum(1 << x for x in masks if not x >> b & 1)
        for size, table in enumerate(by_size):
            assert table == sum(1 << x for x in masks if x.bit_count() == size)


class TestFractionalOptima:
    def test_known_values(self):
        value, _, _ = fractional_matching(Hypergraph.complete(3, 4))
        assert value == Fraction(4, 3)
        cycle5 = Hypergraph(2, 5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
        value, _, _ = fractional_matching(cycle5)
        assert value == Fraction(5, 2)
        fano = Hypergraph(
            3,
            7,
            [
                (0, 1, 2),
                (0, 3, 4),
                (0, 5, 6),
                (1, 3, 5),
                (1, 4, 6),
                (2, 3, 6),
                (2, 4, 5),
            ],
        )
        value, _, _ = fractional_matching(fano)
        assert value == Fraction(7, 3)

    def test_complete_graphs_reach_n_over_k(self):
        for k, n in ((2, 5), (2, 6), (3, 6), (3, 7), (4, 8)):
            value, _, _ = fractional_matching(Hypergraph.complete(k, n))
            assert value == Fraction(n, k)

    def test_empty_instances(self):
        value, matching, cover = fractional_matching(Hypergraph(3, 5, []))
        assert value == 0
        assert matching.total() == 0

    def test_certificate_pair_is_self_verifying(self):
        # Feasibility of both sides plus equal totals is an optimality
        # certificate by weak duality, independent of the solver.
        for h in random_small_hypergraphs(40, seed=23):
            value, matching, cover = fractional_matching(h)
            assert matching.total() == value
            assert sum(cover.weights, Fraction(0)) == value
            for e in h.edges:
                assert sum(cover[v] for v in e) >= 1

    def test_recheck_rejects_a_cover_short_on_one_edge(self):
        # Both totals are 35/12, but edge (0, 1) is covered only 11/12.
        h = Hypergraph(2, 6, ((0, 1), (2, 3), (4, 5)))
        with pytest.raises(AssertionError, match=r"cover misses edge \(0, 1\)"):
            _check_lp_pair(h, integer_pair(12, [11, 12, 12], [3, 8, 6, 6, 6, 6]))

    def test_recheck_rejects_totals_that_disagree(self):
        h = Hypergraph.complete(3, 4)
        result = solve_unit_packing(h.n, h.edges)
        _check_lp_pair(h, result)
        d, xs, ys = result.denom, list(result.x), list(result.y)
        with pytest.raises(AssertionError, match="totals disagree"):
            _check_lp_pair(h, integer_pair(d, xs, ys, z=result.z + 1))
        with pytest.raises(AssertionError, match="totals disagree"):
            _check_lp_pair(h, integer_pair(d, [0] * h.num_edges, ys, z=result.z))
        # The matching's total is right, the cover's is 1/D too high.
        with pytest.raises(AssertionError, match="totals disagree"):
            _check_lp_pair(h, integer_pair(d, xs, [ys[0] + 1, *ys[1:]], z=result.z))

    def test_recheck_rejects_a_load_above_one(self):
        # Both edges at weight 1 load vertex 0 twice; the cover (1, 1, 0)
        # meets both edges and has the same total 2.
        h = Hypergraph(2, 3, ((0, 1), (0, 2)))
        with pytest.raises(AssertionError, match="vertex 0 carries load 2 > 1"):
            _check_lp_pair(h, integer_pair(1, [1, 1], [1, 1, 0]))

    @pytest.mark.parametrize(
        "xs, ys, match",
        [
            ([5, -1], [2, 0, 2, 0], "outside"),  # an edge below 0
            ([3, 1], [2, 0, 2, 0], "vertex 0 carries load 3/2 > 1"),  # an edge above 1
            ([2, 2], [2, 0, 3, -1], "outside"),  # vertices below 0 and above 1
            ([2, 2], [3, 0, 1, 0], "outside"),  # a vertex above 1
        ],
    )
    def test_recheck_rejects_weights_outside_the_unit_interval(self, xs, ys, match):
        # D = 2 and every total is 4/2; the optimum is xs = (2, 2), ys = (2, 0, 2, 0).
        h = Hypergraph(2, 4, ((0, 1), (2, 3)))
        _check_lp_pair(h, integer_pair(2, [2, 2], [2, 0, 2, 0]))
        with pytest.raises(AssertionError, match=match):
            _check_lp_pair(h, integer_pair(2, xs, ys))

    def test_fractional_matching_checks_what_the_solver_returns(self, monkeypatch):
        h = Hypergraph(2, 6, ((0, 1), (2, 3), (4, 5)))
        tampered = integer_pair(12, [11, 12, 12], [3, 8, 6, 6, 6, 6])
        monkeypatch.setattr(optmatch, "solve_unit_packing", lambda n, columns: tampered)
        with pytest.raises(AssertionError, match="cover misses edge"):
            fractional_matching(h)

    def test_checked_weightings_equal_validated_ones(self):
        # The private constructors used after the integer check build the
        # same objects that the validating public constructors build.
        corpus = [Hypergraph(3, 5, []), Hypergraph.complete(3, 6), *random_small_hypergraphs(40, seed=29)]
        for h in corpus:
            value, matching, cover = fractional_matching(h)
            public_matching = EdgeWeighting(h, matching.weights)
            public_cover = VertexWeighting(cover.weights)
            assert matching == public_matching and cover == public_cover
            assert matching.support() == public_matching.support()
            assert matching.total() == public_matching.total() == value
            assert cover.total() == public_cover.total() == value
            assert type(matching.weights) is tuple and type(cover.weights) is tuple
            assert all(type(w) is Fraction for w in (*matching.weights, *cover.weights))

    def test_duality_report_chain(self):
        for h in random_small_hypergraphs(25, seed=31):
            report = fractional_optimum(h)
            assert report.nu <= report.nu_star == report.tau_star <= report.tau
            assert report.nu == len(report.matching_certificate)
            assert report.tau == len(report.cover_certificate)

    def test_report_rejects_broken_chain(self):
        h = Hypergraph.complete(3, 4)
        good = fractional_optimum(h)
        with pytest.raises(AssertionError):
            DualityReport(
                hypergraph=h,
                nu=2,  # claims more than nu* allows
                nu_star=good.nu_star,
                tau_star=good.tau_star,
                tau=good.tau,
                matching_certificate=good.matching_certificate,
                fractional_matching=good.fractional_matching,
                fractional_cover=good.fractional_cover,
                cover_certificate=good.cover_certificate,
            )

    @pytest.mark.parametrize(
        "build, args, nu, nu_star, cover",
        [
            (construct_h1, (3, 22, 3), 2, 2, (0, 1)),
            (construct_h1, (2, 24, 4), 3, 3, (0, 1, 2)),
            (construct_clique_plus_isolated, (3, 21, 3), 2, Fraction(8, 3), (0, 1, 2, 3, 4, 5)),
        ],
    )
    def test_covers_past_the_dp_limit_are_searched_and_rechecked(
        self, monkeypatch, build, args, nu, nu_star, cover
    ):
        # Past _COVER_DP_LIMIT vertices the cover comes from the branching
        # search, and fractional_optimum re-checks both certificates.
        searched, checked = [], []
        branching, verify = optmatch._cover_by_branching, optmatch._verify_integral
        monkeypatch.setattr(
            optmatch, "_cover_by_branching", lambda h: searched.append(h) or branching(h)
        )
        monkeypatch.setattr(
            optmatch, "_verify_integral", lambda *a: checked.append(a) or verify(*a)
        )
        h = build(*args)
        assert h.n > _COVER_DP_LIMIT
        report = fractional_optimum(h)
        assert (report.nu, report.nu_star, report.tau) == (nu, nu_star, len(cover))
        assert report.cover_certificate == cover
        assert searched == [h]
        assert checked == [(h, report.matching_certificate, cover)]

    def test_integrality_gap_instance(self):
        # One triple from each complementary pair on 6 vertices:
        # intersecting (nu = 1) yet fractionally perfect (nu* = 2).
        edges = [
            (0, 1, 2),
            (0, 1, 3),
            (0, 2, 4),
            (0, 3, 5),
            (0, 4, 5),
            (1, 2, 5),
            (1, 3, 4),
            (1, 4, 5),
            (2, 3, 4),
            (2, 3, 5),
        ]
        report = fractional_optimum(Hypergraph(3, 6, edges))
        assert report.nu == 1
        assert report.nu_star == 2
        assert report.tau == 3


class TestCertifyReportsPinned:
    def test_certify_reports_match_pinned_digest(self):
        # Three seed-0 instances per criterion-1 cell (k in {2, 3, 4},
        # n <= 14, densities 0.2/0.5/0.8), drawn as the certify benchmark
        # draws them; every field of each report goes into the digest.
        digest = hashlib.sha256()
        count = 0
        for rep in range(3):
            for k in (2, 3, 4):
                for n in range(k, 15):
                    for density in (0.2, 0.5, 0.8):
                        key = [0, k, n, round(density * 10), rep]
                        r = fractional_optimum(seeded_edge_set(k, n, density, key))
                        fields = (
                            r.nu,
                            r.nu_star,
                            r.tau_star,
                            r.tau,
                            r.matching_certificate,
                            r.fractional_matching.weights,
                            r.fractional_cover.weights,
                            r.cover_certificate,
                        )
                        digest.update(repr(fields).encode())
                        count += 1
        assert count == 324
        assert digest.hexdigest() == (
            "f91f91a42dac138fbef714a585a5ef8425299688cdf2d681b46063e480bf19bf"
        )


def report_fields(r: DualityReport) -> tuple:
    return (
        r.nu,
        r.nu_star,
        r.tau,
        r.matching_certificate,
        r.fractional_matching.weights,
        r.fractional_cover.weights,
        r.cover_certificate,
    )


def first_missed_edge(h: Hypergraph, denom: int, ys) -> tuple[int, ...]:
    return next(e for e in h.edges if sum(ys[v] for v in e) < denom)


def zeroed_vertex(denom: int, xs, ys, z: int) -> PackingResult:
    """The pair with its first vertex of positive weight set to 0 and as much
    taken off the matching: totals agree and loads only fall, and a tight
    edge through that vertex (complementary slackness gives one) falls
    short of D."""
    xs, ys = list(xs), list(ys)
    u = next(v for v, y in enumerate(ys) if y)
    left, ys[u] = ys[u], 0
    z -= left
    for j, x in enumerate(xs):
        xs[j] -= min(x, left)
        left -= x - xs[j]
    return integer_pair(denom, xs, ys, z)


class TestArrayRoutes:
    """Every per-edge pass read edge by edge (cut infinite) and from one
    array (cut 0) must give the same answers and name the same edges."""

    ROUTES = pytest.mark.parametrize("cut", [0, float("inf")], ids=["arrays", "loops"])

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_routes_give_equal_reports(self, monkeypatch, k):
        reports = {}
        for cut in (0, float("inf")):
            monkeypatch.setattr(optmatch, "_ARRAY_CUT", cut)
            reports[cut] = [
                report_fields(fractional_optimum(seeded_edge_set(k, n, density, [k, n, rep])))
                for n in range(k, 13)
                for density in (0.2, 0.8)
                for rep in range(2)
            ]
        assert reports[0] == reports[float("inf")]

    @pytest.mark.parametrize("n", [61, 62, 63, 64])
    def test_masks_past_62_vertices_are_exact(self, monkeypatch, n):
        # int64 holds the masks of vertices 0..61 only; an array reaching
        # vertex 62 or 63 is read as Python ints, as the edge tuples are.
        monkeypatch.setattr(optmatch, "_ARRAY_CUT", 0)
        h = seeded_edge_set(3, n, 0.002, [n])
        h = Hypergraph(3, n, [*h.edges, (0, n - 2, n - 1)])
        expected = [sum(1 << v for v in e) for e in h.edges]
        masks = vertex_masks(optmatch._edge_rows(h))
        assert masks == expected and all(type(m) is int for m in masks)
        assert vertex_masks(h.edges) == expected

    @pytest.mark.parametrize("n", [63, 64])
    def test_searches_past_62_vertices_agree_on_both_routes(self, monkeypatch, n):
        h = construct_h1(3, n, 2)
        answers = []
        for cut in (0, float("inf")):
            monkeypatch.setattr(optmatch, "_ARRAY_CUT", cut)
            answers.append((maximum_matching(h), minimum_cover(h)))
        assert answers[0] == answers[1]
        assert len(answers[0][1]) == 1

    @ROUTES
    def test_tampered_cover_names_the_first_missed_edge(self, monkeypatch, cut):
        monkeypatch.setattr(optmatch, "_ARRAY_CUT", cut)
        for k, n in ((2, 9), (3, 12), (4, 14), (5, 12)):
            h = seeded_edge_set(k, n, 0.6, [k, n])
            result = solve_unit_packing(h.n, h.edges)
            _check_lp_pair(h, result)
            tampered = zeroed_vertex(result.denom, result.x, result.y, result.z)
            missed = first_missed_edge(h, tampered.denom, tampered.y)
            with pytest.raises(AssertionError, match=re.escape(f"cover misses edge {missed}")):
                _check_lp_pair(h, tampered)

    @ROUTES
    def test_certificates_past_the_int64_bound_are_checked_edge_by_edge(self, monkeypatch, cut):
        # Past the bound the cover sums are taken in Python ints whatever
        # the cut.  Every weight of the triangle is 2^63/2^64, one past what
        # int64 holds.
        monkeypatch.setattr(optmatch, "_ARRAY_CUT", cut)
        half = 1 << 63
        _check_lp_pair(Hypergraph.complete(2, 3), integer_pair(2 * half, [half] * 3, [half] * 3))
        # The optimum scaled to D >= 2^64, and with a vertex zeroed.
        h = seeded_edge_set(4, 14, 0.6, [4, 14])
        result = solve_unit_packing(h.n, h.edges)
        c = (1 << 64) // result.denom + 1
        d, xs, ys = c * result.denom, [c * x for x in result.x], [c * y for y in result.y]
        _check_lp_pair(h, integer_pair(d, xs, ys, z=c * result.z))
        tampered = zeroed_vertex(d, xs, ys, c * result.z)
        missed = first_missed_edge(h, d, tampered.y)
        with pytest.raises(AssertionError, match=re.escape(f"cover misses edge {missed}")):
            _check_lp_pair(h, tampered)

    @ROUTES
    def test_tampered_integral_cover_names_the_first_missed_edge(self, monkeypatch, cut):
        # A vertex is in the cover as the set of its vertices says: v - n is
        # no vertex, though numpy would read it as one, and 1.0 is vertex 1.
        monkeypatch.setattr(optmatch, "_ARRAY_CUT", cut)
        for k, n in ((2, 9), (3, 12), (4, 14), (5, 12)):
            h = seeded_edge_set(k, n, 0.6, [k, n])
            matching, cover = maximum_matching(h), minimum_cover(h)
            optmatch._verify_integral(h, matching, [float(v) for v in cover])
            for tampered in (cover[1:], [v - n for v in cover], [*cover[:-1], cover[-1] - n]):
                missed = next(e for e in h.edges if set(tampered).isdisjoint(e))
                with pytest.raises(AssertionError, match=re.escape(f"cover certificate misses edge {missed}")):
                    optmatch._verify_integral(h, matching, tampered)

    def test_a_large_answer_converts_its_edges_once(self, monkeypatch):
        # The solver and every per-edge pass read the one cached edge array;
        # the only other array built from Python values is the cover's.
        h = seeded_edge_set(4, 14, 0.8, [4, 14, 8])
        assert h.num_edges * h.k >= optmatch._ARRAY_CUT
        expected = report_fields(fractional_optimum(Hypergraph(h.k, h.n, h.edges)))
        built, given = [], []
        fromiter = np.fromiter
        monkeypatch.setattr(np, "fromiter", lambda *a: built.append(np.dtype(a[1])) or fromiter(*a))
        solve = optmatch.solve_unit_packing
        monkeypatch.setattr(optmatch, "solve_unit_packing", lambda n, cols: given.append(cols) or solve(n, cols))
        assert report_fields(fractional_optimum(h)) == expected
        assert built == [np.uint8, np.bool_]
        assert len(given) == 1 and given[0] is h.edge_array

    def test_bound_forced_to_zero_names_the_same_edges(self, monkeypatch):
        monkeypatch.setattr(optmatch, "_ARRAY_CUT", 0)
        named = {}
        for bound in (simplex._INT64_BOUND, 0):
            monkeypatch.setattr(simplex, "_INT64_BOUND", bound)
            named[bound] = []
            for k in (2, 3, 4, 5):
                h = seeded_edge_set(k, 11, 0.5, [k, 11, 1])
                result = solve_unit_packing(h.n, h.edges)
                _check_lp_pair(h, result)
                with pytest.raises(AssertionError, match="cover misses edge") as info:
                    _check_lp_pair(h, zeroed_vertex(result.denom, result.x, result.y, result.z))
                named[bound].append(str(info.value))
        assert named[0] == named[simplex._INT64_BOUND]
