"""Exact primitives for k-uniform hypergraphs.

Vertices are the integers 0..n-1.  Edges are k-element subsets stored as
sorted tuples, and the edge list itself is kept in lexicographic order, so
every downstream iteration (enumeration indices, LP columns, witnesses) is
deterministic.  All weights are ``fractions.Fraction``: threshold comparisons
are exact, never within an epsilon.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import operator
import weakref
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "Hypergraph",
    "VertexWeighting",
    "EdgeWeighting",
    "incidence",
    "vertex_masks",
    "degree",
    "min_d_degree",
    "link",
    "threshold_hypergraph",
    "parse_rational",
    "format_rational",
    "read_hypergraph",
    "write_hypergraph",
    "hypergraph_to_text",
    "read_weighting",
    "write_weighting",
    "weighting_to_text",
]


def parse_rational(text: str) -> Fraction:
    """Parse ``p/q``, an integer, or a decimal literal into an exact Fraction.

    Decimals are read digit-exactly (``0.3`` becomes 3/10, never a binary
    float), which is why this never routes through ``float``.
    """
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational literal: {text!r}") from exc


def format_rational(value: Fraction) -> str:
    """Render a Fraction as the unambiguous reduced form ``p/q``."""
    f = Fraction(value)
    return f"{f.numerator}/{f.denominator}"


def _draw_threshold(w: Fraction) -> float:
    """The float t = ceil(w * 2^53) / 2^53, so that u < w iff u < t.

    ``Generator.random`` returns multiples of 2^-53 in [0, 1), and for such
    a u = U / 2^53 with U an integer, U < w * 2^53 iff U < ceil(w * 2^53).
    For 0 <= w <= 1 the numerator is at most 2^53, so t is an exact float.
    Kept out of ``__all__``, whose functions perfbench's tracer wraps: the
    Monte Carlo and every round-two draw plan call it once per probability.
    """
    return math.ldexp(-((-w.numerator << 53) // w.denominator), -53)


@dataclass(frozen=True)
class Hypergraph:
    """An immutable k-uniform hypergraph on vertices 0..n-1.

    Edges are deduplicated, each sorted, and the edge tuple is sorted
    lexicographically.  The index of an edge in ``edges`` is its canonical
    index everywhere in this package (bitmask enumerations, LP columns).

    Edges are checked where they enter: here, in ``complete`` and in
    ``read_hypergraph`` (which builds through this constructor).  A list
    that is canonical already passes a few bulk checks and is kept as
    given; any other input is converted and checked edge by edge, and the
    first faulty edge is named.  Past the constructors the invariant is
    trusted: ``_canonical`` builds a sub-hypergraph without a check.
    ``simplex.solve_unit_packing`` is a public entry too and checks the
    columns of every call, a ``Hypergraph``'s edges included.

    ``edge_array`` is the same edges as one (E, k) array, built from
    ``edges`` on first use, or handed to ``_canonical`` by a caller that
    holds a sub-hypergraph's rows already, and trusted as such.  It is a
    cache: kept in the instance dict, outside the fields, it changes no
    equality, hash, repr or ``dataclasses.replace``, and a pickle leaves it
    out.
    """

    k: int
    n: int
    edges: tuple[tuple[int, ...], ...]

    def __init__(self, k: int, n: int, edges: Iterable[Iterable[int]] = ()):
        if not (1 <= k <= n):
            raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
        edges = list(edges)
        if not _is_canonical(k, n, edges):
            # The sum stays an int only if every vertex is one (bools aside):
            # 1.0 would pass the range test and merge (0, 1.0) with (0, 1).
            try:
                ts = [tuple(sorted(e)) for e in edges]
                exact = type(sum(itertools.chain.from_iterable(ts))) is int
            except TypeError:
                exact = False
            if not exact:
                # Convert edge by edge, so that the first faulty edge in
                # input order is the one reported.
                ts = map(_integer_edge, edges)
            canon = set()
            for t in ts:
                if len(t) != k or len(set(t)) != k:
                    raise ValueError(f"edge {t} is not a {k}-set")
                if t[0] < 0 or t[-1] >= n:
                    raise ValueError(f"edge {t} out of vertex range 0..{n - 1}")
                canon.add(t)
            edges = sorted(canon)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", tuple(edges))

    @classmethod
    def _canonical(
        cls, k: int, n: int, edges: tuple[tuple[int, ...], ...], rows: np.ndarray | None = None
    ) -> "Hypergraph":
        """A Hypergraph on edges that are canonical already, not checked again.

        The caller guarantees 1 <= k <= n and the invariant ``__init__``
        establishes: ``edges`` is a tuple of distinct sorted k-tuples, in
        lex order.  It holds for edges taken in order from an existing
        ``Hypergraph`` on the same k and n (a sub-hypergraph), and for an
        in-order filter of ``itertools.combinations(range(n), k)``, which
        yields the sorted k-subsets of 0..n-1 in lex order.  Input from
        outside the package goes through ``Hypergraph(k, n, edges)``, which
        validates it.

        ``rows``, if given, is kept as ``edge_array`` and made read-only,
        without a check: the caller guarantees that it is the array
        ``edge_array`` would build, dtype included, as the rows of the same
        edges in a hypergraph on the same n are.
        """
        h = object.__new__(cls)
        object.__setattr__(h, "k", k)
        object.__setattr__(h, "n", n)
        object.__setattr__(h, "edges", edges)
        if rows is not None:
            rows.flags.writeable = False
            vars(h)["edge_array"] = rows
        return h

    @classmethod
    def complete(cls, k: int, n: int) -> "Hypergraph":
        """The complete k-graph on 0..n-1: every k-subset, in lex order.

        For int k and n, while a complete hypergraph for the same class, k
        and n is still referenced, that object is returned rather than a
        second, equal one (K_60^3 holds 34,220 edges).  The lookup holds its
        values weakly, so it keeps none alive itself: once the last
        reference is dropped the hypergraph is freed and the next call
        builds it again.  Sharing is safe because a ``Hypergraph`` is
        immutable.  Other int-like k and n build a fresh one each call.

        No caller in the package asks again while an equal one is alive
        (the criteria and the scans drop each universe before the next
        call); what shares is a caller that builds two plans on one base,
        as perfbench's sparsify set-up does.
        """
        if not (1 <= k <= n):
            raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
        if type(k) is not int or type(n) is not int:
            return cls._canonical(k, n, tuple(itertools.combinations(range(n), k)))
        h = _COMPLETE.get((cls, k, n))
        if h is None:
            h = cls._canonical(k, n, tuple(itertools.combinations(range(n), k)))
            _COMPLETE[cls, k, n] = h
        return h

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def vertices(self) -> range:
        return range(self.n)

    def edge_index(self) -> dict[tuple[int, ...], int]:
        return {e: i for i, e in enumerate(self.edges)}

    @functools.cached_property
    def edge_array(self) -> np.ndarray:
        """The edges as one read-only (E, k) array, in canonical order.

        Its dtype is the least that holds n - 1, uint8 up to 256 vertices.
        Built on first use, never by a constructor: a caller that holds
        many hypergraphs pays only for those it asks.
        """
        flat = itertools.chain.from_iterable(self.edges)
        dtype = np.min_scalar_type(self.n - 1)
        rows = np.fromiter(flat, dtype, self.num_edges * self.k).reshape(-1, self.k)
        rows.flags.writeable = False
        return rows

    def __getstate__(self) -> dict:
        # ``edge_array`` is left out of a pickle, which would bring it back
        # writeable; it is built again on first use.
        state = vars(self).copy()
        state.pop("edge_array", None)
        return state

    def __contains__(self, edge: Iterable[int]) -> bool:
        return self._has_edge(tuple(sorted(edge)))

    def _has_edge(self, t: tuple) -> bool:
        """Whether the tuple t, as given, is one of the edges, as a set lookup says.

        The edges are in lex order, so one bisection finds t; a vertex that
        cannot be ordered against ints, such as 1 + 0j, may still equal one,
        and is looked up in a set.
        """
        edges = self.edges
        try:
            i = bisect.bisect_left(edges, t)
        except TypeError:
            return t in set(edges)
        return i < len(edges) and edges[i] == t


# The live complete hypergraphs, for ``Hypergraph.complete``.
_COMPLETE: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def _is_canonical(k: int, n: int, edges: list) -> bool:
    """Whether ``edges`` is canonical already, by bulk checks only.

    Canonical means: plain tuples of k vertices whose sum is an int (so
    every vertex is one, bools aside), each tuple strictly increasing
    inside 0..n-1, and the list in strictly increasing lex order, hence
    free of repeats.  The constructor's general path would build the same
    tuples from such a list.
    """
    if not edges:
        return True
    if set(map(type, edges)) != {tuple} or set(map(len, edges)) != {k}:
        return False
    # Column i holds every edge's i-th vertex: each edge is strictly
    # increasing iff every column is below the next, position by position.
    columns = list(zip(*edges))
    try:
        if type(sum(map(sum, columns))) is not int:
            return False
    except TypeError:
        return False
    return (
        all(all(map(operator.lt, a, b)) for a, b in zip(columns, columns[1:]))
        and min(columns[0]) >= 0
        and max(columns[-1]) < n
        and all(map(operator.lt, edges, edges[1:]))
    )


def _integer_edge(e: Iterable[int]) -> tuple[int, ...]:
    """The sorted tuple of e's vertices as ints (numpy integers convert)."""
    try:
        return tuple(sorted(map(operator.index, e)))
    except TypeError:
        raise ValueError(f"edge {e!r} has a vertex that is not an integer") from None


def _check_weights(weights: Iterable[Fraction | int | str]) -> tuple[Fraction, ...]:
    out = []
    for w in weights:
        f = w if type(w) is Fraction else Fraction(w)
        # Exact without Fraction comparisons: the denominator is positive.
        num, den = f.as_integer_ratio()
        if num < 0 or num > den:
            raise ValueError(f"weight {f} outside [0, 1]")
        out.append(f)
    return tuple(out)


def _exact(value: Fraction | int | str) -> Fraction:
    """``value`` as a Fraction; a float is refused, as it holds a binary fraction."""
    if isinstance(value, float):
        raise TypeError(
            "pass rationals as Fraction/int/str; floats are not exact"
        )
    return Fraction(value)


def _over_lcm(weights: Sequence[Fraction]) -> tuple[list[int], int]:
    """The weights' numerators over the lcm of their denominators, and the lcm."""
    common = math.lcm(*[w.denominator for w in weights])
    return [w.numerator * (common // w.denominator) for w in weights], common


@dataclass(frozen=True)
class VertexWeighting:
    """Exact rational weights in [0, 1], one per vertex 0..n-1."""

    weights: tuple[Fraction, ...]

    def __init__(self, weights: Iterable[Fraction | int | str]):
        object.__setattr__(self, "weights", _check_weights(weights))

    @classmethod
    def _trusted(cls, weights: tuple[Fraction, ...]) -> "VertexWeighting":
        """A VertexWeighting on a tuple of Fractions in [0, 1], not checked
        again: ``optmatch.fractional_matching`` has checked them in integers.
        Input from outside goes through ``VertexWeighting(weights)``."""
        w = object.__new__(cls)
        object.__setattr__(w, "weights", weights)
        return w

    def __len__(self) -> int:
        return len(self.weights)

    def __getitem__(self, v: int) -> Fraction:
        return self.weights[v]

    def __iter__(self):
        return iter(self.weights)

    def total(self) -> Fraction:
        scaled, common = _over_lcm(self.weights)
        return Fraction(sum(scaled), common)


@dataclass(frozen=True)
class EdgeWeighting:
    """Exact rational edge weights aligned with ``hypergraph.edges``.

    Construction enforces the fractional-matching feasibility invariant:
    every weight lies in [0, 1] and the load sum at each vertex is at most 1.
    """

    hypergraph: Hypergraph
    weights: tuple[Fraction, ...]

    def __init__(self, hypergraph: Hypergraph, weights: Iterable[Fraction | int | str]):
        ws = _check_weights(weights)
        if len(ws) != hypergraph.num_edges:
            raise ValueError(
                f"{len(ws)} weights for {hypergraph.num_edges} edges"
            )
        support = tuple((e, w) for e, w in zip(hypergraph.edges, ws) if w.numerator)
        # Loads in integers over the lcm of the support's denominators.
        scaled, common = _over_lcm([w for _, w in support])
        loads, _ = incidence((e for e, _ in support), hypergraph.n, scaled, pairs=False)
        for v, load in enumerate(loads):
            if load > common:
                raise ValueError(f"vertex {v} carries load {Fraction(load, common)} > 1")
        object.__setattr__(self, "hypergraph", hypergraph)
        object.__setattr__(self, "weights", ws)
        object.__setattr__(self, "_support", support)

    @classmethod
    def _trusted(
        cls,
        hypergraph: Hypergraph,
        weights: tuple[Fraction, ...],
        support: tuple[tuple[tuple[int, ...], Fraction], ...],
    ) -> "EdgeWeighting":
        """An EdgeWeighting not checked again: ``weights`` is a tuple of
        Fractions in [0, 1], one per edge, with every vertex load at most 1,
        as ``optmatch.fractional_matching`` has checked in integers, and
        ``support`` its nonzero (edge, weight) pairs in edge order.  Input
        from outside goes through ``EdgeWeighting(hypergraph, weights)``."""
        w = object.__new__(cls)
        object.__setattr__(w, "hypergraph", hypergraph)
        object.__setattr__(w, "weights", weights)
        object.__setattr__(w, "_support", support)
        return w

    def __len__(self) -> int:
        return len(self.weights)

    def __getitem__(self, i: int) -> Fraction:
        return self.weights[i]

    def total(self) -> Fraction:
        scaled, common = _over_lcm([w for _, w in self._support])
        return Fraction(sum(scaled), common)

    def support(self) -> tuple[tuple[tuple[int, ...], Fraction], ...]:
        """The (edge, weight) pairs with nonzero weight, in edge order."""
        return self._support


def incidence(
    sets: Iterable[Sequence[int]],
    n: int,
    weights: Iterable | None = None,
    *,
    pairs: bool = True,
) -> tuple[list, dict[tuple[int, int], Fraction | int]]:
    """Per-vertex and per-pair sums over a family of sorted vertex tuples.

    Each set adds its weight (1 when ``weights`` is None) to every vertex
    of 0..n-1 it contains and, unless ``pairs`` is False, to every pair
    (u, v), u < v, of them.  Returns (vertex sums as a list, pair sums as
    a dict); a pair that no set contains is absent from the dict.
    """
    if weights is None:
        weights = itertools.repeat(1)
    vertex = [0] * n
    pair: dict[tuple[int, int], Fraction | int] = {}
    for s, w in zip(sets, weights):
        for v in s:
            vertex[v] += w
        if pairs:
            for uv in itertools.combinations(s, 2):
                pair[uv] = pair.get(uv, 0) + w
    return vertex, pair


def vertex_masks(sets: Iterable[Iterable[int]]) -> list[int]:
    """The bitmask (bit v set for vertex v) of each vertex set, in order.

    A two-dimensional integer numpy array, one set a row, signed or not, is
    taken whole in int64 when its entries lie in 0..61, so that every mask
    fits; past that its rows are read as Python ints, as any other input is
    read set by set.
    """
    if isinstance(sets, np.ndarray) and sets.ndim == 2 and sets.dtype.kind in "iu":
        if sets.size and 0 <= sets.min() and sets.max() < 62:
            return np.bitwise_or.reduce(np.left_shift(1, sets, dtype=np.int64), axis=1).tolist()
        sets = sets.tolist()
    out = []
    for s in sets:
        m = 0
        for v in s:
            m |= 1 << v
        out.append(m)
    return out


def degree(h: Hypergraph, s: Iterable[int]) -> int:
    """Number of edges containing every vertex of ``s`` (s may be empty)."""
    ss = frozenset(s)
    if len(ss) > h.k:
        raise ValueError(f"{sorted(ss)} is larger than the uniformity {h.k}")
    for v in ss:
        if not (0 <= v < h.n):
            raise ValueError(f"vertex {v} out of range 0..{h.n - 1}")
    return sum(1 for e in h.edges if ss <= set(e))


def min_d_degree(h: Hypergraph, d: int) -> int:
    """Minimum, over all d-subsets of the vertex set, of the subset degree.

    d = 0 returns the edge count.  Subsets never touched by an edge count
    with degree 0, so isolated vertices drag the minimum down by design.
    """
    if not (0 <= d <= h.k):
        raise ValueError(f"need 0 <= d <= k={h.k}, got d={d}")
    if d == 0:
        return h.num_edges
    counts: dict[tuple[int, ...], int] = {}
    for e in h.edges:
        for s in itertools.combinations(e, d):
            counts[s] = counts.get(s, 0) + 1
    total_subsets = math.comb(h.n, d)
    if len(counts) < total_subsets:
        return 0
    return min(counts.values())


def link(h: Hypergraph, l_set: Iterable[int]) -> Hypergraph:
    """The link of a vertex set: residues of edges containing all of it.

    The surviving vertices (those outside ``l_set``) are relabelled to
    0..n-d-1 in increasing order of their original labels.
    """
    ls = frozenset(l_set)
    d = len(ls)
    if not (1 <= d <= h.k - 1):
        raise ValueError(f"link set size must be in 1..{h.k - 1}, got {d}")
    for v in ls:
        if not (0 <= v < h.n):
            raise ValueError(f"vertex {v} out of range 0..{h.n - 1}")
    survivors = [v for v in range(h.n) if v not in ls]
    relabel = {v: i for i, v in enumerate(survivors)}
    new_edges = [
        tuple(relabel[v] for v in e if v not in ls)
        for e in h.edges
        if ls <= set(e)
    ]
    return Hypergraph(h.k - d, h.n - d, new_edges)


def threshold_hypergraph(w: VertexWeighting, k: int) -> Hypergraph:
    """All k-sets whose total weight reaches 1, as a k-uniform hypergraph."""
    n = len(w)
    if not (1 <= k <= n):
        raise ValueError(f"need 1 <= k <= n={n}, got k={k}")
    edges = tuple(
        e
        for e in itertools.combinations(range(n), k)
        if sum((w[v] for v in e), Fraction(0)) >= 1
    )
    return Hypergraph._canonical(k, n, edges)


# ---------------------------------------------------------------------------
# File formats.
#
# ".hg":  first non-comment line "k n"; every further non-empty line holds k
#         whitespace-separated vertex indices.  "#" starts a comment.
# ".wt":  one rational per line, either "p/q" or a decimal literal, parsed
#         exactly.  The writer always emits reduced "p/q".
# ---------------------------------------------------------------------------


def _strip(line: str) -> str:
    return line.split("#", 1)[0].strip()


def hypergraph_to_text(h: Hypergraph) -> str:
    lines = [f"{h.k} {h.n}"]
    lines.extend(" ".join(str(v) for v in e) for e in h.edges)
    return "\n".join(lines) + "\n"


def write_hypergraph(h: Hypergraph, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(hypergraph_to_text(h))


def read_hypergraph(path: str) -> Hypergraph:
    header: tuple[int, int] | None = None
    edges: list[tuple[int, ...]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            body = _strip(raw)
            if not body:
                continue
            parts = body.split()
            try:
                values = [int(p) for p in parts]
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: non-integer token") from exc
            if header is None:
                if len(values) != 2:
                    raise ValueError(f"{path}:{lineno}: header must be 'k n'")
                header = (values[0], values[1])
                continue
            if len(values) != header[0]:
                raise ValueError(
                    f"{path}:{lineno}: expected {header[0]} vertices, got {len(values)}"
                )
            edges.append(tuple(values))
    if header is None:
        raise ValueError(f"{path}: missing 'k n' header")
    return Hypergraph(header[0], header[1], edges)


def weighting_to_text(w: VertexWeighting) -> str:
    return "\n".join(format_rational(x) for x in w) + "\n"


def write_weighting(w: VertexWeighting, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(weighting_to_text(w))


def read_weighting(path: str) -> VertexWeighting:
    values: list[Fraction] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            body = _strip(raw)
            if not body:
                continue
            try:
                values.append(parse_rational(body))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
    return VertexWeighting(values)
