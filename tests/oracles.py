"""Slow, obviously-correct searches that the fast ones are checked against.

These are the mask-by-mask threshold scan, the all-compositions grid walk
and the subset-by-subset cover loop that ``thresholds._scan_range``,
``storage.optimize_grid`` and ``optmatch._cover_by_complement`` replaced.
They decide every candidate in the same order as the fast searches, so they
must return the same answers and, for the scan, the same LP count.
"""

from __future__ import annotations

import math
from fractions import Fraction

from hypermatch.hypercore import Hypergraph, vertex_masks
from hypermatch.simplex import solve_unit_packing
from hypermatch.storage import _phi_on_grid
from hypermatch.thresholds import _disjointness_masks, _dset_edge_masks, _edge_universe


def has_matching_of_size(mask: int, need: int, disj: list[int]) -> bool:
    """Does the edge set of ``mask`` contain ``need`` pairwise disjoint edges?"""
    if need <= 0:
        return True
    if mask.bit_count() < need:
        return False
    m = mask
    while m:
        b = m & -m
        m ^= b
        i = b.bit_length() - 1
        rest = mask & disj[i] & ~((b << 1) - 1)
        if has_matching_of_size(rest, need - 1, disj):
            return True
    return False


def scan_range(
    k: int, n: int, d: int, mode: str, s: Fraction, start: int, stop: int
) -> tuple[int, int, int]:
    """(delta, witness mask, LP count) over [start, stop), one mask at a time."""
    edges = _edge_universe(k, n)
    dmasks = _dset_edge_masks(edges, n, d)
    disj = _disjointness_masks(edges)
    s_ceil = math.ceil(s)
    integral = mode == "integral"
    s_int = int(s) if integral else 0

    best = -1
    best_mask = -1
    lp_calls = 0
    for mask in range(start, stop):
        delta = 1 << 30
        for sm in dmasks:
            c = (mask & sm).bit_count()
            if c < delta:
                delta = c
                if delta <= best:
                    break
        if delta <= best:
            continue
        if integral:
            qualifies = not has_matching_of_size(mask, s_int, disj)
        elif has_matching_of_size(mask, s_ceil, disj):
            qualifies = False  # nu >= ceil(s) forces nu* >= s
        else:
            lp_calls += 1
            columns = [edges[i] for i in range(len(edges)) if mask >> i & 1]
            qualifies = solve_unit_packing(n, columns).value < s
        if qualifies:
            best = delta
            best_mask = mask
    return best, best_mask, lp_calls


def cover_by_complement(h: Hypergraph) -> tuple[int, ...]:
    """Minimum cover as the complement of the largest edge-free vertex set.

    Walks every vertex subset in increasing mask order, marking the
    up-closure of the edges bit by bit; among edge-free subsets of maximum
    size the largest mask wins.
    """
    size = 1 << h.n
    spans_edge = bytearray(size)
    for em in vertex_masks(h.edges):
        spans_edge[em] = 1
    full = size - 1
    best_mask = 0
    best_pop = 0
    for mask in range(size):
        if spans_edge[mask]:
            rest = full & ~mask
            while rest:
                b = rest & -rest
                spans_edge[mask | b] = 1
                rest ^= b
        else:
            pop = mask.bit_count()
            if pop > best_pop or (pop == best_pop and mask > best_mask):
                best_pop = pop
                best_mask = mask
    return tuple(v for v in range(h.n) if not best_mask >> v & 1)


def _compositions_desc(length: int, total: int, cap: int):
    """Tuples in {0..cap}^length summing to total, descending lex order."""
    if length == 1:
        if 0 <= total <= cap:
            yield (total,)
        return
    for first in range(min(cap, total), -1, -1):
        rest_total = total - first
        if rest_total > cap * (length - 1):
            break
        for rest in _compositions_desc(length - 1, rest_total, cap):
            yield (first,) + rest


def optimize_grid(n: int, r: int, budget: int, q: int) -> tuple[int, tuple[int, ...]]:
    """(best phi, amounts) over every composition of q*budget into n parts <= q.

    Compositions are walked in descending lexicographic order and only strict
    improvements replace the incumbent, so the lexicographically largest
    maximiser wins.
    """
    best, best_amounts = -1, None
    for amounts in _compositions_desc(n, q * budget, q):
        value = _phi_on_grid(amounts, r, q)
        if value > best:
            best, best_amounts = value, amounts
    return best, best_amounts
