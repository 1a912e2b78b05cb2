"""Exact matching and cover optimisation on k-uniform hypergraphs.

Provides the integral matching number (branch and bound), the integral
vertex cover number, and the fractional matching/cover LP pair solved
exactly over rationals.  One LP solve produces both the optimal fractional
matching and the optimal fractional cover, which is why the two optimal
values are equal by construction; every certificate is re-verified anyway
so a bug cannot go unnoticed.

The LP pair is checked once, in ``fractional_matching``, by
``_check_lp_pair`` on the solver's integers over its one denominator D:
weights in range, equal totals, every vertex load at most D and every
edge's cover sum at least D.  The two weightings are then built without a
second check.  The integral matching and cover are checked by
``_verify_integral`` in ``fractional_optimum``.

Three passes read every edge: the edge masks of the matching and cover
searches (``vertex_masks``), the 2^n table of the cover DP and the cover
sums of ``_check_lp_pair``.  A hypergraph whose edges hold at least
``simplex._ARRAY_CUT`` vertices in all (E * k, the solver's cut) gives
each pass one (E, k) integer array, built afresh by that pass: the masks
are taken in int64 (vertices 0..61 only), the table is set from them with
one fancy-index store and ``np.packbits``, and the cover sums are one
gather of the dual.  Smaller ones are read edge by edge, where one numpy
call costs more than the loop (see the ``simplex`` module docstring for
the measured crossover).  No array is kept on the ``Hypergraph``: certify
holds every input it asks about alive, and its 972 inputs' arrays would
add about 2 MB to the process.
"""

from __future__ import annotations

import bisect
import functools
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from typing import Sequence

import numpy as np

from . import simplex
from .hypercore import (
    EdgeWeighting,
    Hypergraph,
    VertexWeighting,
    _edge_array,
    incidence,
    vertex_masks,
)
from .simplex import PackingResult, solve_unit_packing

__all__ = [
    "DualityReport",
    "matching_number",
    "maximum_matching",
    "has_perfect_matching",
    "cover_number",
    "minimum_cover",
    "fractional_matching",
    "fractional_optimum",
]

_COVER_DP_LIMIT = 20  # 2^n table; beyond this fall back to branching search


def _edge_rows(h: Hypergraph):
    """The edges as one (E, k) array when they hold at least
    ``simplex._ARRAY_CUT`` vertices in all, else ``h.edges`` itself, which
    the passes below then read edge by edge (see the module docstring)."""
    return h.edges if h.num_edges * h.k < simplex._ARRAY_CUT else _edge_array(h)


def maximum_matching(h: Hypergraph) -> tuple[tuple[int, ...], ...]:
    """A maximum set of pairwise disjoint edges, deterministically chosen.

    Branch and bound on the lowest still-available vertex: either it is
    matched by one of its edges (tried in lexicographic order) or it is left
    unmatched.  Subtrees are cut with the bound  current + floor(free/k),
    and a visited-state table keyed by the availability mask prunes
    re-entries that cannot beat an earlier visit.
    """
    edge_masks = vertex_masks(_edge_rows(h))
    # Only edges led by the lowest available vertex v can fit: any other
    # edge through v holds a lower vertex, which is taken.  In the lex-sorted
    # edges those led by v are one block, edges[block[v]:block[v + 1]].
    block = [bisect.bisect_left(h.edges, (v,)) for v in range(h.n + 1)]

    full = (1 << h.n) - 1
    k = h.k
    best_count = 0
    best_edges: list[int] = []
    seen: dict[int, int] = {}

    def dfs(avail: int, count: int, chosen: list[int]) -> None:
        nonlocal best_count, best_edges
        if count > best_count:
            best_count = count
            best_edges = chosen.copy()
        if avail == 0:
            return
        if count + avail.bit_count() // k <= best_count:
            return
        prev = seen.get(avail)
        if prev is not None and prev >= count:
            return
        seen[avail] = count
        v = (avail & -avail).bit_length() - 1
        for idx in range(block[v], block[v + 1]):
            em = edge_masks[idx]
            if em & avail == em:
                chosen.append(idx)
                dfs(avail ^ em, count + 1, chosen)
                chosen.pop()
        dfs(avail ^ (1 << v), count, chosen)

    try:
        dfs(full, 0, [])
    finally:
        del dfs  # dfs reaches itself through its cell; break that cycle
    return tuple(sorted(h.edges[i] for i in best_edges))


def matching_number(h: Hypergraph) -> int:
    return len(maximum_matching(h))


def has_perfect_matching(h: Hypergraph) -> bool:
    """True iff k divides n and some matching covers every vertex."""
    return h.n % h.k == 0 and matching_number(h) == h.n // h.k


def minimum_cover(h: Hypergraph) -> tuple[int, ...]:
    """A minimum vertex set meeting every edge, deterministically chosen.

    A set C covers every edge exactly when its complement spans no edge.  For
    n <= 20 one Python int holds a bit for each of the 2^n vertex subsets,
    bit x for the subset with mask x.  The edge masks' bits are set, and one
    subset zeta transform (an exact OR along each vertex bit, done as a
    shift of the whole int) closes the table upwards, so a subset's bit is
    set iff it spans an edge.  The complement of the largest clear subset is
    the cover; among clear subsets of maximum size the numerically largest
    mask wins, so the cover is the one whose vertex mask is smallest.
    Larger instances use iterative-deepening branching on an uncovered edge.
    """
    if h.num_edges == 0:
        return ()
    if h.n <= _COVER_DP_LIMIT:
        return _cover_by_complement(h)
    return _cover_by_branching(h)


@functools.lru_cache(maxsize=_COVER_DP_LIMIT + 1)
def _subset_tables(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Bit tables over the masks 0..2^n - 1: (low, by_size).

    Bit x of ``low[b]`` is set iff bit b of x is clear, and bit x of
    ``by_size[s]`` iff x has s bits set.  The masks of n bits are those of
    n - 1 bits followed by the same masks with bit n - 1 added, so each
    table is built from the one for n - 1 with shifts and ors.
    """
    if n == 0:
        return (), (1,)
    low, by_size = _subset_tables(n - 1)
    half = 1 << (n - 1)
    return (
        tuple(t | t << half for t in low) + ((1 << half) - 1,),
        tuple(a | b << half for a, b in zip(by_size + (0,), (0,) + by_size)),
    )


def _cover_by_complement(h: Hypergraph) -> tuple[int, ...]:
    n = h.n
    low, by_size = _subset_tables(n)
    rows = _edge_rows(h)
    masks = vertex_masks(rows)
    if rows is h.edges:
        table = bytearray(((1 << n) + 7) >> 3)
        for em in masks:
            table[em >> 3] |= 1 << (em & 7)
    else:
        spans = np.zeros(1 << n, np.bool_)
        spans[masks] = True
        table = np.packbits(spans, bitorder="little")
    spans_edge = int.from_bytes(table, "little")
    for b in range(n):
        # Subset zeta transform over bit b: a mask with bit b spans an edge
        # if the same mask without b does.
        spans_edge |= (spans_edge & low[b]) << (1 << b)
    free = spans_edge ^ ((1 << (1 << n)) - 1)
    for size in range(n, -1, -1):
        best = free & by_size[size]
        if best:
            break
    best_mask = best.bit_length() - 1
    return tuple(v for v in range(n) if not best_mask >> v & 1)


def _cover_by_branching(h: Hypergraph) -> tuple[int, ...]:
    edge_masks = vertex_masks(_edge_rows(h))

    def greedy_disjoint(masks: list[int]) -> int:
        used = 0
        count = 0
        for em in masks:
            if em & used == 0:
                used |= em
                count += 1
        return count

    def attempt(budget: int, masks: list[int], chosen: list[int]) -> list[int] | None:
        if not masks:
            return chosen.copy()
        if greedy_disjoint(masks) > budget:
            return None
        first = masks[0]
        v = first & -first
        while v <= first:
            if first & v:
                vid = v.bit_length() - 1
                rest = [em for em in masks if not em & v]
                chosen.append(vid)
                got = attempt(budget - 1, rest, chosen)
                chosen.pop()
                if got is not None:
                    return got
            v <<= 1
        return None

    try:
        for budget in range(greedy_disjoint(edge_masks), h.n + 1):
            got = attempt(budget, edge_masks, [])
            if got is not None:
                return tuple(sorted(got))
    finally:
        del attempt  # attempt reaches itself through its cell; break that cycle
    raise AssertionError("cover search must terminate by budget n")


def cover_number(h: Hypergraph) -> int:
    return len(minimum_cover(h))


def fractional_matching(
    h: Hypergraph,
) -> tuple[Fraction, EdgeWeighting, VertexWeighting]:
    """Solve the fractional matching LP exactly.

    Returns (optimal value, optimal fractional matching, optimal fractional
    cover).  Both certificates pass ``_check_lp_pair`` before they are
    built, and share the same total weight, which pins the value from both
    sides.
    """
    result = solve_unit_packing(h.n, h.edges)
    _check_lp_pair(h, result)
    support = tuple(zip(compress(h.edges, result.x), compress(result.primal, result.x)))
    matching = EdgeWeighting._trusted(h, result.primal, support)
    cover = VertexWeighting._trusted(result.dual)
    return result.value, matching, cover


def _check_lp_pair(h: Hypergraph, result: PackingResult) -> None:
    """Check the solver's optimum in integers over its one denominator D.

    With primal X/D, dual Y/D and value Z/D: every X_e >= 0, every
    0 <= Y_v <= D, sum X = sum Y = Z, every vertex load sum(X_e for e
    containing v) <= D (so each X_e <= D too, an edge having a vertex), and
    every edge's cover sum(Y_v for v in e) >= D.  Then X/D is a fractional
    matching, Y/D a fractional cover, and their equal totals prove both
    optimal.

    With E * k at the array cut the cover sums are taken in one int64
    gather when k * D is below ``simplex._INT64_BOUND``: each Y_v <= D, so
    no sum can overflow.  If any sum falls short, or the bound fails, the
    edges are read one by one, and the first missed edge is named.
    """
    denom, xs, ys, z = result.denom, result.x, result.y, result.z
    if len(xs) != h.num_edges or len(ys) != h.n:
        raise AssertionError("certificate lengths disagree with the hypergraph")
    if denom <= 0 or min(xs, default=0) < 0 or min(ys) < 0 or max(ys) > denom:
        raise AssertionError("certificate weight outside [0, 1]")
    if sum(xs) != z or sum(ys) != z:
        raise AssertionError("certificate totals disagree with the LP value")
    loads, _ = incidence(compress(h.edges, xs), h.n, filter(None, xs), pairs=False)
    for v, load in enumerate(loads):
        if load > denom:
            raise AssertionError(f"vertex {v} carries load {Fraction(load, denom)} > 1")
    rows = _edge_rows(h)
    if rows is not h.edges and h.k * denom < simplex._INT64_BOUND:
        # Every Y_v <= D, so no cover sum exceeds k*D, which int64 holds.
        if not np.count_nonzero(np.array(ys, np.int64).take(rows).sum(axis=1) < denom):
            return
    # The loop names the first edge the cover misses.
    get = ys.__getitem__
    for e in h.edges:
        if sum(map(get, e)) < denom:
            raise AssertionError(f"cover misses edge {e}")


@dataclass(frozen=True)
class DualityReport:
    """All four optima of one hypergraph with verifiable certificates.

    The chain  nu <= nu_star == tau_star <= tau  holds exactly; the middle
    equality is rational equality, not a tolerance.
    """

    hypergraph: Hypergraph
    nu: int
    nu_star: Fraction
    tau_star: Fraction
    tau: int
    matching_certificate: tuple[tuple[int, ...], ...]
    fractional_matching: EdgeWeighting
    fractional_cover: VertexWeighting
    cover_certificate: tuple[int, ...]

    def __post_init__(self) -> None:
        if not (self.nu <= self.nu_star == self.tau_star <= self.tau):
            raise AssertionError(
                f"duality chain violated: nu={self.nu} nu*={self.nu_star} "
                f"tau*={self.tau_star} tau={self.tau}"
            )


def fractional_optimum(h: Hypergraph) -> DualityReport:
    """Compute nu, nu*, tau*, tau with certificates, all exactly."""
    value, frac_matching, frac_cover = fractional_matching(h)
    matching = maximum_matching(h)
    cover = minimum_cover(h)
    _verify_integral(h, matching, cover)
    return DualityReport(
        hypergraph=h,
        nu=len(matching),
        nu_star=value,
        tau_star=value,
        tau=len(cover),
        matching_certificate=matching,
        fractional_matching=frac_matching,
        fractional_cover=frac_cover,
        cover_certificate=cover,
    )


def _verify_integral(
    h: Hypergraph,
    matching: Sequence[tuple[int, ...]],
    cover: Sequence[int],
) -> None:
    used: set[int] = set()
    edge_set = set(h.edges)
    for e in matching:
        if e not in edge_set:
            raise AssertionError(f"matching certificate uses foreign edge {e}")
        if used & set(e):
            raise AssertionError("matching certificate edges intersect")
        used |= set(e)
    cset = set(cover)
    for e in h.edges:
        if cset.isdisjoint(e):
            raise AssertionError(f"cover certificate misses edge {e}")
