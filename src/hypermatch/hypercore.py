"""Exact primitives for k-uniform hypergraphs.

Vertices are the integers 0..n-1.  Edges are k-element subsets stored as
sorted tuples, and the edge list itself is kept in lexicographic order, so
every downstream iteration (enumeration indices, LP columns, witnesses) is
deterministic.  All weights are ``fractions.Fraction``: threshold comparisons
are exact, never within an epsilon.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

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
    Monte Carlo and every round-two build call it once per probability.
    """
    return math.ldexp(-((-w.numerator << 53) // w.denominator), -53)


@dataclass(frozen=True)
class Hypergraph:
    """An immutable k-uniform hypergraph on vertices 0..n-1.

    Edges are deduplicated, each sorted, and the edge tuple is sorted
    lexicographically.  The index of an edge in ``edges`` is its canonical
    index everywhere in this package (bitmask enumerations, LP columns).
    """

    k: int
    n: int
    edges: tuple[tuple[int, ...], ...]

    def __init__(self, k: int, n: int, edges: Iterable[Iterable[int]] = ()):
        if not (1 <= k <= n):
            raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
        canon = set()
        for e in edges:
            t = tuple(sorted(e))
            if len(t) != k or len(set(t)) != k:
                raise ValueError(f"edge {t} is not a {k}-set")
            if t[0] < 0 or t[-1] >= n:
                raise ValueError(f"edge {t} out of vertex range 0..{n - 1}")
            canon.add(t)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", tuple(sorted(canon)))

    @classmethod
    def complete(cls, k: int, n: int) -> "Hypergraph":
        return cls(k, n, itertools.combinations(range(n), k))

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def vertices(self) -> range:
        return range(self.n)

    def edge_index(self) -> dict[tuple[int, ...], int]:
        return {e: i for i, e in enumerate(self.edges)}

    def __contains__(self, edge: Iterable[int]) -> bool:
        return tuple(sorted(edge)) in set(self.edges)


def _check_weights(weights: Iterable[Fraction | int | str]) -> tuple[Fraction, ...]:
    out = []
    for w in weights:
        f = w if type(w) is Fraction else Fraction(w)
        # Exact without Fraction comparisons: the denominator is positive.
        if f.numerator < 0 or f.numerator > f.denominator:
            raise ValueError(f"weight {f} outside [0, 1]")
        out.append(f)
    return tuple(out)


@dataclass(frozen=True)
class VertexWeighting:
    """Exact rational weights in [0, 1], one per vertex 0..n-1."""

    weights: tuple[Fraction, ...]

    def __init__(self, weights: Iterable[Fraction | int | str]):
        object.__setattr__(self, "weights", _check_weights(weights))

    def __len__(self) -> int:
        return len(self.weights)

    def __getitem__(self, v: int) -> Fraction:
        return self.weights[v]

    def __iter__(self):
        return iter(self.weights)

    def total(self) -> Fraction:
        return sum(self.weights, Fraction(0))


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
        support = tuple((e, w) for e, w in zip(hypergraph.edges, ws) if w != 0)
        loads, _ = incidence(
            (e for e, w in support), hypergraph.n, (w for e, w in support), pairs=False
        )
        for v, load in enumerate(loads):
            if load > 1:
                raise ValueError(f"vertex {v} carries load {load} > 1")
        object.__setattr__(self, "hypergraph", hypergraph)
        object.__setattr__(self, "weights", ws)
        object.__setattr__(self, "_support", support)

    def __len__(self) -> int:
        return len(self.weights)

    def __getitem__(self, i: int) -> Fraction:
        return self.weights[i]

    def total(self) -> Fraction:
        return sum((w for _, w in self._support), Fraction(0))

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
    """The bitmask (bit v set for vertex v) of each vertex set, in order."""
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
    edges = [
        e
        for e in itertools.combinations(range(n), k)
        if sum((w[v] for v in e), Fraction(0)) >= 1
    ]
    return Hypergraph(k, n, edges)


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
