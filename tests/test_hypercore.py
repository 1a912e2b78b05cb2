"""Core types: construction rules, degrees, links, threshold graphs, I/O."""

import copy
import dataclasses
import gc
import itertools
import math
import pickle
import random
import weakref
from collections import namedtuple
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles

from hypermatch.hypercore import (
    EdgeWeighting,
    Hypergraph,
    VertexWeighting,
    degree,
    format_rational,
    hypergraph_to_text,
    incidence,
    link,
    min_d_degree,
    parse_rational,
    read_hypergraph,
    read_weighting,
    threshold_hypergraph,
    vertex_masks,
    write_hypergraph,
    write_weighting,
)

K4 = Hypergraph.complete(3, 4)


class TestRationals:
    @pytest.mark.parametrize(
        "text, expected",
        [
            ("1/3", Fraction(1, 3)),
            ("4/6", Fraction(2, 3)),
            ("0.3", Fraction(3, 10)),
            ("2", Fraction(2)),
            ("-1/2", Fraction(-1, 2)),
        ],
    )
    def test_parse(self, text, expected):
        assert parse_rational(text) == expected

    def test_parse_rejects_junk(self):
        with pytest.raises(ValueError):
            parse_rational("one half")

    @pytest.mark.parametrize(
        "value, expected",
        [(Fraction(4, 3), "4/3"), (Fraction(2), "2/1"), (Fraction(0), "0/1")],
    )
    def test_format(self, value, expected):
        assert format_rational(value) == expected

    @given(st.fractions(max_denominator=1000))
    def test_round_trip(self, q):
        assert parse_rational(format_rational(q)) == q


class TestHypergraph:
    def test_complete_counts(self):
        assert K4.num_edges == 4
        assert Hypergraph.complete(2, 5).num_edges == 10
        assert Hypergraph.complete(4, 4).edges == ((0, 1, 2, 3),)

    def test_complete_equals_the_validated_build(self):
        for n in range(1, 10):
            for k in range(1, n + 1):
                h = Hypergraph.complete(k, n)
                assert h == Hypergraph(k, n, itertools.combinations(range(n), k))

    @pytest.mark.parametrize("k, n", [(0, 3), (4, 3)])
    def test_complete_rejects_like_the_constructor(self, k, n):
        with pytest.raises(ValueError) as direct:
            Hypergraph(k, n, itertools.combinations(range(n), k))
        with pytest.raises(ValueError) as complete:
            Hypergraph.complete(k, n)
        message = f"need 1 <= k <= n, got k={k}, n={n}"
        assert str(complete.value) == str(direct.value) == message

    def test_complete_returns_the_live_object(self):
        h = Hypergraph.complete(3, 7)
        assert Hypergraph.complete(3, 7) is h
        assert Hypergraph.complete(4, 7) is not h

    def test_complete_keys_a_subclass_and_the_argument_types_apart(self):
        class Sub(Hypergraph):
            pass

        h = Hypergraph.complete(2, 5)
        sub = Sub.complete(2, 5)
        assert type(h) is Hypergraph and type(sub) is Sub
        assert Sub.complete(2, 5) is sub and Hypergraph.complete(2, 5) is h
        # Only int k and n are shared; other int-like ones, unhashable
        # 0-d arrays too, build a fresh hypergraph with the k and n given.
        one = Hypergraph.complete(1, 5)
        assert Hypergraph.complete(True, 5).k is True and type(one.k) is int
        assert type(Hypergraph.complete(2, np.int64(5)).n) is np.int64
        assert type(Hypergraph.complete(2, 5).n) is int
        assert Hypergraph.complete(np.array(2), np.array(5)).edges == h.edges

    def test_complete_keeps_no_hypergraph_alive(self):
        h = Hypergraph.complete(5, 13)
        ref = weakref.ref(h)
        del h
        gc.collect()
        assert ref() is None

    def test_edges_are_sorted_and_deduplicated(self):
        h = Hypergraph(2, 3, [(2, 1), (1, 2), (0, 1)])
        assert h.edges == ((0, 1), (1, 2))
        assert h.num_edges == 2

    def test_membership_and_index(self):
        h = Hypergraph(2, 4, [(0, 1), (2, 3)])
        assert (1, 0) in h
        assert (0, 2) not in h
        assert h.edge_index()[(2, 3)] == 1

    @pytest.mark.parametrize(
        "probe, expected",
        [
            ((3, 1), True),
            ((1.0, 3.0), True),
            ((True, 3), True),
            ((np.int64(2), np.int64(3)), True),
            ((Fraction(1), 3), True),
            ((0, 2), False),
            ((0.5, 1), False),
            ((0, 1, 2), False),
            ((), False),
            ((4, 5), False),
            (("a", "b"), False),
            ((None,), False),
            ((b"\x00", b"\x01"), False),
        ],
    )
    def test_membership_answers_as_a_set_lookup(self, probe, expected):
        # A vertex that cannot be ordered against ints is not an edge's;
        # no TypeError escapes.
        h = Hypergraph(2, 4, [(0, 1), (1, 3), (2, 3)])
        assert (probe in h) is expected
        assert (tuple(sorted(probe)) in set(h.edges)) is expected

    def test_membership_of_an_unordered_vertex_equal_to_an_int(self):
        # 1 + 0j equals 1 but cannot be ordered against ints.
        h = Hypergraph(1, 3, [(0,), (1,)])
        assert (1 + 0j,) in h and (2 + 0j,) not in h

    def test_membership_by_bisection_answers_as_a_set_lookup(self):
        # Every k-set of seeded hypergraphs, in and out, and probes before
        # the first edge and past the last.
        rng = random.Random(46)
        for trial in range(40):
            k, n = rng.randint(1, 4), rng.randint(4, 9)
            pool = list(itertools.combinations(range(n), k))
            h = Hypergraph(k, n, [e for e in pool if rng.random() < 0.4])
            edges = set(h.edges)
            for probe in [*pool, (-1,) * k, (n,) * k, (0,) * (k + 1)]:
                assert (probe[::-1] in h) is (tuple(sorted(probe)) in edges)

    @pytest.mark.parametrize(
        "k, n, edges",
        [
            (0, 3, []),
            (4, 3, []),
            (2, 3, [(0, 3)]),
            (2, 3, [(0, 0)]),
            (2, 3, [(0,)]),
        ],
    )
    def test_invalid_construction(self, k, n, edges):
        with pytest.raises(ValueError):
            Hypergraph(k, n, edges)

    def test_invalid_construction_messages(self):
        for k, n, edges, message in (
            (0, 3, [], "need 1 <= k <= n, got k=0, n=3"),
            (2, 3, [(0, 1), (3, 0)], r"edge \(0, 3\) out of vertex range 0..2"),
            (2, 3, [(1, 1)], r"edge \(1, 1\) is not a 2-set"),
            (2, 3, [(0, 1, 2)], r"edge \(0, 1, 2\) is not a 2-set"),
            # Several faults, after a canonical start: the first is named.
            (2, 4, [(0, 1), (0, 2), (0, 9), (1, 1)], r"edge \(0, 9\) out of vertex range"),
            (2, 4, [(0, 1), (2, 2), (0, 9)], r"edge \(2, 2\) is not a 2-set"),
        ):
            with pytest.raises(ValueError, match=message):
                Hypergraph(k, n, edges)

    def test_non_integer_vertices_are_rejected(self):
        # 1.0 passes the range test: it used to build a graph that the LP
        # could not index, or merge (1.0, 0) into (0, 1).  The first faulty
        # edge in input order is named, a malformed one before it first.
        for edges, message in (
            ([(0, 1.0), (1.0, 2)], r"edge \(0, 1.0\) has a vertex that is not an integer"),
            ([(0, 1), (1.0, 0)], r"edge \(1.0, 0\) has a vertex that is not an integer"),
            ([(0, 1), (2, "a")], r"edge \(2, 'a'\) has a vertex that is not an integer"),
            ([(0, 1), (0, 0), (0, 1.5)], r"edge \(0, 0\) is not a 2-set"),
        ):
            with pytest.raises(ValueError, match=message):
                Hypergraph(2, 3, edges)
        # Integers of other types are vertices: a numpy integer sends the
        # edges through the converting pass, which stores ints.
        h = Hypergraph(2, 3, [(np.int64(2), 0), (True, 0)])
        assert h.edges == ((0, 1), (0, 2)) and all(type(v) is int for e in h.edges for v in e)

    def test_vertices(self):
        assert list(Hypergraph(2, 3, []).vertices()) == [0, 1, 2]


class TestEdgeArray:
    EDGES = [(0, 1, 2), (0, 2, 5), (1, 3, 6), (4, 5, 6)]

    @pytest.mark.parametrize(
        "n, dtype", [(7, np.uint8), (256, np.uint8), (257, np.uint16), (70000, np.uint32)]
    )
    def test_read_only_in_the_least_dtype_that_holds_every_vertex(self, n, dtype):
        h = Hypergraph(3, n, [*self.EDGES, (0, 1, n - 1)])
        rows = h.edge_array
        assert rows.dtype == dtype and rows.shape == (5, 3)
        assert rows.tolist() == [list(e) for e in h.edges]
        with pytest.raises(ValueError, match="read-only"):
            rows[0, 0] = 1
        assert h.edge_array is rows

    def test_no_edges(self):
        assert Hypergraph(3, 5).edge_array.shape == (0, 3)

    def test_built_on_first_use_only(self, tmp_path):
        path = str(tmp_path / "h.hg")
        write_hypergraph(Hypergraph(3, 7, self.EDGES), path)
        for h in (
            Hypergraph(3, 7, self.EDGES),
            Hypergraph(3, 7, reversed(self.EDGES)),
            Hypergraph.complete(3, 7),
            Hypergraph._canonical(3, 7, tuple(self.EDGES)),
            read_hypergraph(path),
        ):
            assert "edge_array" not in vars(h)

    def test_the_cache_is_invisible(self):
        built, fresh = Hypergraph(3, 7, self.EDGES), Hypergraph(3, 7, self.EDGES)
        built.edge_array
        assert built == fresh and hash(built) == hash(fresh) and repr(built) == repr(fresh)
        for back in (pickle.loads(pickle.dumps(built)), copy.copy(built), copy.deepcopy(built)):
            assert back == fresh and "edge_array" not in vars(back)
            assert not back.edge_array.flags.writeable
        replaced = dataclasses.replace(built, n=8)
        assert replaced == dataclasses.replace(fresh, n=8) and "edge_array" not in vars(replaced)
        assert replaced.edge_array.dtype == np.uint8

    def test_a_sub_hypergraph_takes_the_rows_it_is_given(self):
        base = Hypergraph.complete(3, 7)
        keep = np.array([sum(e) % 3 == 0 for e in base.edges])
        rows = base.edge_array[keep]
        sub = Hypergraph._canonical(3, 7, tuple(itertools.compress(base.edges, keep)), rows)
        assert sub.edge_array is rows and not rows.flags.writeable
        assert np.array_equal(rows, Hypergraph(3, 7, sub.edges).edge_array)


def same_as_reference(k: int, n: int, make_edges) -> bool:
    """Whether Hypergraph(k, n, edges) accepts; either way it must store the
    reference's tuples, vertex types included, or raise its message.
    ``make_edges`` returns a fresh input, so that a generator can be read
    twice."""
    try:
        want = oracles.hypergraph_edges(k, n, make_edges())
    except ValueError as exc:
        with pytest.raises(ValueError) as info:
            Hypergraph(k, n, make_edges())
        assert str(info.value) == str(exc)
        return False
    got = Hypergraph(k, n, make_edges()).edges
    assert type(got) is tuple and got == want
    assert [(type(e), *map(type, e)) for e in got] == [(type(e), *map(type, e)) for e in want]
    return True


class V(int):
    pass


Pair = namedtuple("Pair", "a b")

# (k, n, canonical edge list): every list is already what the constructor
# stores.
CANONICAL = {
    "empty": (2, 4, []),
    "one edge": (2, 4, [(1, 3)]),
    "k = n": (3, 3, [(0, 1, 2)]),
    "complete": (3, 6, list(itertools.combinations(range(6), 3))),
    "k = 1": (1, 3, [(0,), (2,)]),
}


class TestConstructorAgainstReference:
    """Canonical lists are accepted by bulk checks and kept as given; every
    other input takes the converting path.  Both must agree with the
    constructor's edge check as it was, tuple for tuple."""

    @pytest.mark.parametrize("name", CANONICAL)
    def test_canonical_lists_and_their_variants(self, name):
        k, n, edges = CANONICAL[name]
        assert same_as_reference(k, n, lambda: edges)
        # Kept as given: the very tuples, not sorted copies of them.
        assert all(a is b for a, b in zip(Hypergraph(k, n, edges).edges, edges))
        variants = [
            lambda: edges[::-1],
            lambda: random.Random(7).sample(edges, len(edges)),
            lambda: edges + edges[:1],
            lambda: edges[:1] + edges,
            lambda: [e[::-1] if i == len(edges) // 2 else e for i, e in enumerate(edges)],
            lambda: [list(e) for e in edges],
            lambda: iter(edges),
            lambda: (e for e in edges),
        ]
        for make in variants:
            assert same_as_reference(k, n, make)

    @pytest.mark.parametrize(
        "k, n, edges",
        [
            (2, 4, [(0, np.int64(1)), (0, 2)]),
            (2, 4, [tuple(np.array(e)) for e in itertools.combinations(range(4), 2)]),
            (2, 4, [(False, True), (0, 2)]),
            (2, 4, [(True, 0), (0, 2)]),
            (2, 4, [(0, True), (1, 2), (np.int64(0), 3)]),
            (2, 4, [(V(0), V(2)), (1, V(3))]),
            (2, 4, [Pair(0, 1), (0, 2)]),
            (2, 4, [(0, 1.0)]),
            (2, 4, [(0, 1), (1, 2.0)]),
            (2, 4, [(0, 1), (Fraction(1), 2)]),
            (2, 4, [(-1, 2)]),
            (2, 4, [(0, 1), (1, 4)]),
            (2, 4, [(0, 1, 2)]),
            (2, 4, [(0, 1), (2,)]),
            (2, 4, [(0, 1), (1, 1)]),
            (2, 4, [(0, 1), (0, 2), (0, 9), (1, 1)]),
            (2, 4, [(0, 1), (2, 2), (0, 9)]),
            (2, 4, [(0, 1), (0, 2.0), (0, 9)]),
            (2, 4, [(0, 9), (0, 2.0), (1, 1)]),
            (2, 4, [(0, 1), (2, "a"), (0, 9)]),
            (3, 5, [(0, 1, 2), (0, 1, 5), (0, 1)]),
            (0, 3, []),
            (4, 3, [(0, 1, 2, 3)]),
        ],
    )
    def test_vertex_types_and_faults(self, k, n, edges):
        same_as_reference(k, n, lambda: edges)

    def test_random_lists_near_canonical(self):
        rng = random.Random(36)
        accepted = refused = 0
        for _ in range(600):
            k = rng.randint(1, 3)
            n = rng.randint(k, 6)
            pool = list(itertools.combinations(range(n), k))
            edges = [e for e in pool if rng.random() < 0.5]
            if edges and rng.random() < 0.6:
                i = rng.randrange(len(edges))
                v = rng.randrange(k)
                e = list(edges[i])
                e[v] = rng.choice((-1, n, e[v] + 1, e[v] - 1, 1.0, True, np.int64(e[v])))
                edges[i] = tuple(e)
            if same_as_reference(k, n, lambda: edges):
                accepted += 1
            else:
                refused += 1
        assert accepted > 100 and refused > 100


class TestWeightings:
    def test_vertex_weighting_bounds(self):
        w = VertexWeighting((Fraction(1, 2), Fraction(1)))
        assert w.total() == Fraction(3, 2)
        with pytest.raises(ValueError, match=r"weight -1/2 outside \[0, 1\]"):
            VertexWeighting((Fraction(-1, 2),))
        with pytest.raises(ValueError):
            VertexWeighting((Fraction(3, 2),))
        with pytest.raises(ValueError, match=r"weight 101/100 outside \[0, 1\]"):
            VertexWeighting((Fraction(0), Fraction(1), Fraction(101, 100)))

    def test_edge_weighting_checks_loads(self):
        EdgeWeighting(K4, [Fraction(1, 3)] * 4)
        with pytest.raises(ValueError):
            EdgeWeighting(K4, [Fraction(1, 2)] * 4)
        with pytest.raises(ValueError):
            EdgeWeighting(K4, [Fraction(1, 3)] * 3)

    def test_support(self):
        ew = EdgeWeighting(K4, [Fraction(1, 2), 0, 0, Fraction(1, 2)])
        assert ew.support() == (
            ((0, 1, 2), Fraction(1, 2)),
            ((1, 2, 3), Fraction(1, 2)),
        )
        assert ew.total() == 1

    def test_overload_is_rejected_whatever_the_zeros(self):
        with pytest.raises(ValueError, match="vertex 1 carries load 3/2"):
            EdgeWeighting(K4, [Fraction(1, 2), Fraction(1, 2), 0, Fraction(1, 2)])

    def test_support_leaves_out_zero_weights(self):
        ew = EdgeWeighting(K4, [0, 1, 0, 0])
        assert ew.support() == (((0, 1, 3), Fraction(1)),)
        assert EdgeWeighting(K4, [0] * 4).support() == ()

    def test_weights_become_fractions_from_any_input(self):
        class Half(Fraction):
            pass

        raw = [1, "1/3", Half(1, 2), 0.25, Fraction(0)]
        w = VertexWeighting(raw)
        assert w.weights == (1, Fraction(1, 3), Fraction(1, 2), Fraction(1, 4), 0)
        assert all(type(x) is Fraction for x in w.weights)
        ew = EdgeWeighting(K4, (x for x in ["1/3", 0, Half(1, 3), 1 / 4]))
        assert ew.weights == (Fraction(1, 3), 0, Fraction(1, 3), Fraction(1, 4))
        assert all(type(x) is Fraction for x in ew.weights)

    def test_pickle_round_trip(self):
        ew = EdgeWeighting(K4, [Fraction(1, 3)] * 4)
        back = pickle.loads(pickle.dumps(ew))
        assert back == ew
        assert back.support() == ew.support()


def _reference_weights(raw):
    """Each weight as a Fraction in [0, 1], checked with Fraction arithmetic."""
    out = []
    for w in raw:
        f = Fraction(w)
        if f < 0 or f > 1:
            raise ValueError(f"weight {f} outside [0, 1]")
        out.append(f)
    return tuple(out)


def _reference_edge_weighting(h, raw):
    """(weights, support, total) of a feasible edge weighting, or the error."""
    ws = _reference_weights(raw)
    if len(ws) != h.num_edges:
        raise ValueError(f"{len(ws)} weights for {h.num_edges} edges")
    loads = [Fraction(0)] * h.n
    for e, w in zip(h.edges, ws):
        for v in e:
            loads[v] += w
    for v, load in enumerate(loads):
        if load > 1:
            raise ValueError(f"vertex {v} carries load {load} > 1")
    support = tuple((e, w) for e, w in zip(h.edges, ws) if w != 0)
    return ws, support, sum(ws, Fraction(0))


def _outcome(build):
    try:
        return "accepted", build()
    except ValueError as exc:
        return "rejected", str(exc)


# A weight in one of the accepted input forms: int, "p/q" text or Fraction.
# Zeros and small weights are common, so that both feasible weightings and
# overloaded vertices turn up; some weights lie outside [0, 1].
_WEIGHTS = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=0, max_value=Fraction(1, 3), max_denominator=12),
    st.fractions(min_value=0, max_value=1, max_denominator=12),
    st.fractions(min_value=-1, max_value=2, max_denominator=6),
).flatmap(
    lambda f: st.sampled_from(
        [f, str(f)] + ([f.numerator] if f.denominator == 1 else [])
    )
)


class TestWeightingsAgainstFractionReference:
    @settings(max_examples=300, deadline=None)
    @given(
        k=st.integers(1, 3),
        n=st.integers(3, 6),
        picks=st.lists(st.integers(0, 19), max_size=8),
        raw=st.lists(_WEIGHTS, max_size=9),
        pad=st.booleans(),
    )
    @example(k=2, n=3, picks=[0, 1], raw=["1/2", Fraction(2, 3)], pad=False)  # vertex 0 at 7/6
    @example(k=2, n=3, picks=[0, 1, 2], raw=[0, "0", Fraction(0)], pad=False)
    @example(k=1, n=3, picks=[0], raw=[Fraction(5, 4)], pad=False)
    def test_edge_weighting(self, k, n, picks, raw, pad):
        pool = list(itertools.combinations(range(n), k))
        h = Hypergraph(k, n, [pool[i % len(pool)] for i in picks])
        if pad:  # mostly the right number of weights, sometimes not
            raw = (raw + [0] * h.num_edges)[: h.num_edges]

        def build():
            ew = EdgeWeighting(h, raw)
            assert all(type(w) is Fraction for w in ew.weights)
            assert type(ew.total()) is Fraction
            return ew.weights, ew.support(), ew.total()

        assert _outcome(build) == _outcome(lambda: _reference_edge_weighting(h, raw))

    @settings(max_examples=300, deadline=None)
    @given(raw=st.lists(_WEIGHTS, max_size=8))
    @example(raw=[])
    @example(raw=[1, "1/2", Fraction(-1, 3)])
    def test_vertex_weighting(self, raw):
        def build():
            w = VertexWeighting(raw)
            assert type(w.total()) is Fraction
            return w.weights, w.total()

        def reference():
            ws = _reference_weights(raw)
            return ws, sum(ws, Fraction(0))

        assert _outcome(build) == _outcome(reference)


class TestIncidence:
    def test_plain_counts(self):
        vertex, pair = incidence(K4.edges, 5)
        assert vertex == [3, 3, 3, 3, 0]
        assert pair == {(u, v): 2 for u in range(4) for v in range(u + 1, 4)}

    def test_fraction_weights(self):
        vertex, pair = incidence(
            [(0, 1, 2), (1, 2, 3)], 4, [Fraction(1, 3), Fraction(1, 2)]
        )
        assert vertex == [Fraction(1, 3), Fraction(5, 6), Fraction(5, 6), Fraction(1, 2)]
        assert pair[(1, 2)] == Fraction(5, 6)
        assert pair[(0, 1)] == Fraction(1, 3)

    def test_empty_family(self):
        assert incidence([], 3) == ([0, 0, 0], {})

    def test_uncovered_pair_is_absent(self):
        _, pair = incidence([(0, 1), (2, 3)], 4)
        assert (0, 2) not in pair
        assert pair == {(0, 1): 1, (2, 3): 1}

    def test_vertices_only(self):
        assert incidence(K4.edges, 4, pairs=False) == ([3, 3, 3, 3], {})

    def test_vertex_masks(self):
        assert vertex_masks([(0, 2), (), (1, 3, 4)]) == [0b101, 0, 0b11010]

    @pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.uint64, np.int8, np.intp])
    def test_vertex_masks_of_an_integer_array_signed_or_not(self, dtype):
        # Vertices 0..61 are taken whole in int64; 62 and 63 are read as ints.
        for top in (61, 63):
            sets = [(0, 2, 5), (1, 3, top), (7, 8, 60)]
            masks = vertex_masks(np.array(sets, dtype))
            assert masks == vertex_masks(sets) and all(type(m) is int for m in masks)


class TestDegrees:
    def test_degree_of_sets(self):
        assert degree(K4, ()) == 4
        assert degree(K4, (0,)) == 3
        assert degree(K4, (0, 1)) == 2
        assert degree(K4, (0, 1, 2)) == 1
        assert degree(Hypergraph(2, 4, [(0, 1)]), (2,)) == 0

    def test_min_d_degree_complete(self):
        h = Hypergraph.complete(3, 6)
        assert min_d_degree(h, 0) == 20
        assert min_d_degree(h, 1) == math.comb(5, 2)
        assert min_d_degree(h, 2) == 4

    def test_min_d_degree_sees_untouched_sets(self):
        h = Hypergraph(2, 4, [(0, 1), (0, 2), (0, 3)])
        assert min_d_degree(h, 1) == 1  # vertex 0 has 3, the others 1
        assert min_d_degree(Hypergraph(2, 4, [(0, 1)]), 1) == 0

    def test_degree_rejects_bad_set(self):
        with pytest.raises(ValueError):
            degree(K4, (0, 1, 2, 3))  # larger than the uniformity
        with pytest.raises(ValueError):
            degree(K4, (4,))

    def test_degree_treats_input_as_a_set(self):
        assert degree(K4, (0, 0)) == degree(K4, (0,)) == 3


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: min_d_degree(K4, 4), "need 0 <= d <= k=3, got d=4"),
        (lambda: min_d_degree(K4, -1), "need 0 <= d <= k=3, got d=-1"),
        (lambda: link(K4, (4,)), "vertex 4 out of range 0..3"),
        (
            lambda: threshold_hypergraph(VertexWeighting((Fraction(1),) * 2), 3),
            "need 1 <= k <= n=2, got k=3",
        ),
    ],
)
def test_out_of_range_arguments_are_refused(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


class TestLink:
    def test_link_of_complete_is_complete(self):
        g = link(K4, (0,))
        assert g.k == 2 and g.n == 3
        assert g.edges == ((0, 1), (0, 2), (1, 2))

    def test_link_relabels_in_order(self):
        h = Hypergraph(3, 5, [(0, 2, 4), (1, 2, 4)])
        g = link(h, (2,))
        # survivors 0,1,3,4 -> 0,1,2,3
        assert g.k == 2 and g.n == 4
        assert g.edges == ((0, 3), (1, 3))

    def test_link_size_bounds(self):
        with pytest.raises(ValueError):
            link(K4, ())
        with pytest.raises(ValueError):
            link(K4, (0, 1, 2))


class TestThresholdHypergraph:
    def test_known_instance(self):
        w = VertexWeighting(
            (Fraction(1, 2), Fraction(1, 2), Fraction(1, 2), Fraction(1, 5))
        )
        h = threshold_hypergraph(w, 2)
        assert h.edges == ((0, 1), (0, 2), (1, 2))

    def test_all_or_nothing(self):
        n = 5
        ones = VertexWeighting((Fraction(1),) * n)
        zeros = VertexWeighting((Fraction(0),) * n)
        assert threshold_hypergraph(ones, 3).num_edges == math.comb(n, 3)
        assert threshold_hypergraph(zeros, 3).num_edges == 0

    @given(
        st.lists(
            st.fractions(min_value=0, max_value=1, max_denominator=8),
            min_size=2,
            max_size=7,
        ),
        st.integers(min_value=2, max_value=3),
    )
    def test_membership_is_the_sum_rule(self, weights, k):
        if len(weights) < k:
            weights = weights + [Fraction(0)] * (k - len(weights))
        w = VertexWeighting(tuple(weights))
        h = threshold_hypergraph(w, k)
        assert h == Hypergraph(k, len(weights), h.edges)
        for e in itertools.combinations(range(len(weights)), k):
            assert (e in h) == (sum(w[v] for v in e) >= 1)


class TestFileFormats:
    def test_hypergraph_round_trip(self, tmp_path):
        path = str(tmp_path / "h.hg")
        write_hypergraph(K4, path)
        assert read_hypergraph(path) == K4

    def test_hypergraph_text_shape(self):
        text = hypergraph_to_text(Hypergraph(2, 3, [(0, 2)]))
        lines = [l for l in text.splitlines() if l and not l.startswith("#")]
        assert lines[0].split() == ["2", "3"]
        assert lines[1].split() == ["0", "2"]

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "h.hg"
        path.write_text("# comment\n\n3 4\n0 1 2\n\n# tail\n1 2 3\n")
        h = read_hypergraph(str(path))
        assert h.edges == ((0, 1, 2), (1, 2, 3))

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "h.hg"
        path.write_text("3\n0 1 2\n")
        with pytest.raises(ValueError):
            read_hypergraph(str(path))
        path.write_text("")
        with pytest.raises(ValueError):
            read_hypergraph(str(path))

    def test_edge_of_the_wrong_size_is_refused(self, tmp_path):
        path = tmp_path / "h.hg"
        path.write_text("3 4\n0 1 2\n# short\n1 3\n")
        with pytest.raises(ValueError) as info:
            read_hypergraph(str(path))
        assert str(info.value) == f"{path}:4: expected 3 vertices, got 2"

    def test_weighting_round_trip(self, tmp_path):
        path = str(tmp_path / "w.wt")
        w = VertexWeighting((Fraction(1, 3), Fraction(0), Fraction(1)))
        write_weighting(w, path)
        assert read_weighting(path) == w
