"""Brute-forced degree thresholds for matchings in small hypergraphs.

For uniformity k, vertex count n, degree order d and a size target s, the
integral threshold is the least m such that every k-graph on n vertices
with min d-degree at least m has a matching of size s; the fractional
threshold asks instead for fractional matching number at least s.  Both
equal  1 + max { min-d-degree(H) : H fails the target },  and that maximum
is found by enumerating all 2^binom(n, k) edge sets.

The enumeration walks edge-set bitmasks in increasing numeric order (edges
indexed lexicographically), so results, witnesses and LP counts are
reproducible.  Each aligned window of 2^16 masks is one high part joined
with every pattern of the 16 lowest edges, decided whole by a few exact
numpy passes over 2^16 bytes.  The per-pattern arrays those passes read
are kept for later windows in one cache, filled on first use up to a byte
cap.  The prunes: a window is skipped whole when its high edges alone hold
a matching of size ceil(s), or when no mask in it can beat the best min
d-degree so far; then one loop, the same in both modes, takes the masks in
order whose min d-degree beats the best so far and that hold no matching
of size ceil(s), solving an LP for each in fractional mode only, because
an integral matching of that size already rules the edge set out.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .extremal import _clique_min_degree, _h1_min_degree, conjecture_values, construct_h0
from .hypercore import (
    Hypergraph,
    VertexWeighting,
    _exact,
    link,
    min_d_degree,
    threshold_hypergraph,
    vertex_masks,
)
from .optmatch import fractional_matching, matching_number
from .simplex import solve_unit_packing

__all__ = [
    "ThresholdQuery",
    "ThresholdResult",
    "BudgetExceededError",
    "ReductionInfeasibleError",
    "FractionalReduction",
    "ThresholdComparison",
    "brute_force_threshold",
    "linear_remap",
    "reduce_fractional_instance",
    "compare_with_conjecture",
]


@dataclass(frozen=True)
class ThresholdQuery:
    """One threshold instance.

    mode "integral" targets matchings of integer size s >= 1; mode
    "fractional" targets fractional matching number >= s for rational
    s > 0.  Targets above n/k are permitted and yield the degenerate
    maximum over all edge sets (nothing can reach them), which the
    sandwich bounds of the storage module rely on.  s may be given as a
    Fraction, an int or a string ``Fraction`` accepts, and is stored as a
    ``Fraction``; a float is refused with a TypeError.
    """

    k: int
    n: int
    d: int
    s: Fraction
    mode: str

    def __post_init__(self) -> None:
        if self.mode not in ("integral", "fractional"):
            raise ValueError(f"mode must be integral|fractional, got {self.mode!r}")
        if not 1 <= self.k <= self.n:
            raise ValueError(f"need 1 <= k <= n, got k={self.k}, n={self.n}")
        if not 0 <= self.d <= self.k - 1:
            raise ValueError(f"need 0 <= d <= k-1, got d={self.d}")
        s = _exact(self.s)
        if self.mode == "integral":
            if s.denominator != 1 or s < 1:
                raise ValueError(f"integral mode needs integer s >= 1, got {self.s}")
        elif s <= 0:
            raise ValueError(f"fractional mode needs s > 0, got {self.s}")
        object.__setattr__(self, "s", s)


# Most edges in a scanned universe, so a scan walks at most 2^24 masks.
_MAX_EDGES = 24

# Bound on masks times C(n, d), the d-set degree counts that decide the
# masks.  With no window skipped, an admitted scan makes at most 2^17 passes
# of one d-set over a window of 2^16 masks, about 2.5 s if every pass is
# past the table cap.  The prunes usually do far better: f(23,24,2,1), 2^24
# masks over 276 d-sets, takes 0.01 s and i(16,17,7,1), 2^17 masks over
# 19,448 d-sets, 0.4 s; the refused i(22,23,5,1) and i(22,23,5,2), 2^23
# masks over 33,649 d-sets, would take 0.4 s and 1.4 s.
_MAX_WORK = 1 << 33


class BudgetExceededError(RuntimeError):
    """Enumeration would overrun the budget; carries the free bounds."""

    def __init__(self, query: ThresholdQuery, overrun: str):
        self.query = query
        self.lower_bound = _construction_floor(query)
        self.upper_bound = math.comb(query.n - query.d, query.k - query.d) + 1
        super().__init__(
            f"{overrun}; value is within [{self.lower_bound}, {self.upper_bound}]"
        )


class ReductionInfeasibleError(ValueError):
    """The weight floor reaches 1/k, so the linear remap loses its slack."""


@dataclass(frozen=True)
class ThresholdResult:
    """Threshold value with its witness and what the scan did.

    ``lp_calls`` counts the LPs solved by the one in-order scan of all
    edge sets.
    """

    query: ThresholdQuery
    value: int
    witness: Hypergraph
    lp_calls: int


def _scan_masks(
    edges: tuple[tuple[int, ...], ...], n: int, d: int
) -> tuple[list[int], list[int]]:
    """Each edge's mask of the edges disjoint from it, and each d-set's edge mask.

    Bit j of a mask stands for edges[j].  On vertex masks two edges are
    disjoint iff a & b == 0, and a d-set S lies in edge e iff e & S == S; at
    d = 0 the one d-set is empty, so its mask holds every edge.
    """
    vertex_sets = vertex_masks(edges)
    disj = []
    for a in vertex_sets:
        m = 0
        for j, b in enumerate(vertex_sets):
            if a & b == 0:
                m |= 1 << j
        disj.append(m)
    dset_masks = []
    for ds in vertex_masks(itertools.combinations(range(n), d)):
        m = 0
        for j, e in enumerate(vertex_sets):
            if e & ds == ds:
                m |= 1 << j
        dset_masks.append(m)
    return disj, dset_masks


# Each window of 2^_LOW_BITS masks is one fixed high part joined with every
# low pattern.  At most 16: the low patterns are held as uint16.
_LOW_BITS = 16
# Bound on the bytes of the arrays a scan keeps for later windows, one byte
# per low pattern each; what does not fit is computed per window.
_TABLE_BYTES = 1 << 24


def _low_matching_numbers(disj_low: list[int], low: int) -> np.ndarray:
    """Matching number of every set of the ``low`` lowest edges, as uint8.

    The top edge t of a set is either left out or matched, leaving only the
    lower edges disjoint from it: nu[L] = max(nu[L - 2^t], 1 + nu[(L - 2^t) &
    disj_t]).
    """
    nu = np.zeros(1 << low, dtype=np.uint8)
    for t in range(low):
        half = 1 << t
        rest = nu[np.arange(half) & disj_low[t]] + 1
        np.maximum(nu[:half], rest, out=nu[half : 2 * half])
    return nu


def _high_matchings(
    high: list[int], disj: list[int], low_mask: int, need: int
) -> dict[int, int]:
    """Low edges disjoint from a matching among ``high``, with its largest size.

    Maps the low edge mask left by each set of at most ``need`` pairwise
    disjoint ``high`` edges (the empty set included) to the largest such set
    leaving it.  The sets are visited depth first, in edge order.
    """
    out: dict[int, int] = {}
    stack = [(0, -1, 0)]
    while stack:
        i, allowed, size = stack.pop()
        key = allowed & low_mask
        if out.get(key, -1) < size:
            out[key] = size
        if size < need:
            # pushed last edge first, so the first is popped first
            for j in range(len(high) - 1, i - 1, -1):
                e = high[j]
                if allowed >> e & 1:
                    stack.append((j + 1, allowed & disj[e], size + 1))
    return out


def _edges_of(edges: tuple[tuple[int, ...], ...], mask: int) -> list[tuple[int, ...]]:
    """The edges whose bits are set in ``mask``, in edge order."""
    return [e for j, e in enumerate(edges) if mask >> j & 1]


def _scan_range(
    k: int,
    n: int,
    d: int,
    mode: str,
    s: Fraction,
    start: int,
    stop: int,
) -> tuple[int, int, int]:
    """Best (delta, witness mask) over masks in [start, stop), plus LP count.

    Witness is the smallest mask in the range attaining the returned delta
    among qualifying edge sets; delta is -1 if nothing in range qualifies.
    Each aligned window of 2^``_LOW_BITS`` masks is a high part H joined
    with every low pattern L, decided whole in exact integers, with the
    masks outside the range cleared.  The min d-degree is
    min_j(popcount(H & sm_j) + T_j[L]), with T_j the popcount of L on the
    low edges of the d-set's edge mask sm_j.  A mask has a matching of size
    need = ceil(s) iff some matching M among H's edges leaves low edges A
    with nu[L & A] >= need - |M|, nu the matching number of the low
    patterns; a window where M alone reaches need is skipped.  The T_j and
    the masks short of each (A, need - |M|) are kept for later windows in
    one cache, filled on first use up to ``_TABLE_BYTES`` bytes.  One loop
    decides the masks left in mask order: it takes each whose min d-degree
    beats the best so far, in fractional mode only if its LP falls short of
    s, so the LP count is that of a mask-by-mask walk of the range.
    """
    edges = Hypergraph.complete(k, n).edges
    low = min(_LOW_BITS, len(edges))
    width = 1 << low
    low_mask = width - 1
    disj, dset_masks = _scan_masks(edges, n, d)
    nu = _low_matching_numbers([m & low_mask for m in disj[:low]], low)
    # d-sets sharing their low edges share a table; the high parts of a
    # group matter only through their least count.
    groups: dict[int, list[int]] = {}
    for sm in dset_masks:
        groups.setdefault(sm & low_mask, []).append(sm >> low)
    reach = [p.bit_count() for p in groups]
    lows = np.arange(width, dtype=np.uint16)
    # d-set pattern -> its low counts; (low edges a high matching leaves,
    # edges it still needs) -> the low patterns whose matching number falls
    # short
    cache: dict[int | tuple[int, int], np.ndarray] = {}
    room = _TABLE_BYTES >> low
    fractional = mode == "fractional"
    need = math.ceil(s)
    deg = np.empty(width, dtype=np.uint8)
    part = np.empty(width, dtype=np.uint8)

    best = -1
    best_mask = -1
    lp_calls = 0
    for base in range(start & ~low_mask, stop, width):
        hi = base >> low
        matchings = _high_matchings(
            [low + i for i in range(hi.bit_length()) if hi >> i & 1], disj, low_mask, need
        )
        if max(matchings.values()) >= need:
            continue
        counts = [min((hi & h).bit_count() for h in hs) for hs in groups.values()]
        if min(map(int.__add__, counts, reach)) <= best:
            continue
        for j, (p, c) in enumerate(zip(groups, counts)):
            table = cache.get(p)
            if table is None:
                table = np.bitwise_count(lows & p)
                if len(cache) < room:
                    cache[p] = table
            if j == 0:
                np.add(table, c, out=deg)
            else:
                np.minimum(deg, np.add(table, c, out=part), out=deg)
        cand = deg > best
        cand[: max(start - base, 0)] = False
        cand[stop - base :] = False
        for allowed, size in matchings.items():
            left = need - size
            short = cache.get((allowed, left))
            if short is None:
                if allowed == low_mask:
                    short = nu < left
                elif left == 1:
                    short = (lows & allowed) == 0
                else:
                    short = nu[lows & allowed] < left
                if len(cache) < room:
                    cache[allowed, left] = short
            cand &= short
        # argmax finds the first candidate at or after i, or 0 if none is
        # left; taking one clears the later ones it is not beaten by.
        i = 0
        while True:
            i += int(cand[i:].argmax())
            if not cand[i]:
                break
            if fractional:
                lp_calls += 1
                if solve_unit_packing(n, _edges_of(edges, base + i)).value >= s:
                    cand[i] = False
                    continue
            best = int(deg[i])
            best_mask = base + i
            cand[i:] &= deg[i:] > best
    return best, best_mask, lp_calls


_memo: dict[tuple, ThresholdResult] = {}


def brute_force_threshold(query: ThresholdQuery, jobs: int = 1) -> ThresholdResult:
    """Exhaustively determine the threshold value with a witness.

    Requires binom(n, k) <= ``_MAX_EDGES``.  That is a size cap, not a word
    width (each window's high part is a Python int): it keeps a scan within
    2^24 masks, 2^8 windows of 2^16.  The scan walks every mask in
    increasing order in this process.  A scan whose masks times C(n, d)
    exceed ``_MAX_WORK`` is refused with ``BudgetExceededError`` before it
    starts.  ``jobs`` is accepted for compatibility and ignored.
    The result is memoised per query (it is a pure function of it).
    """
    num_edges = math.comb(query.n, query.k)
    if num_edges > _MAX_EDGES:
        raise ValueError(
            f"binom(n, k) = {num_edges} exceeds the enumeration limit of {_MAX_EDGES}"
        )
    space = 1 << num_edges
    work = space * math.comb(query.n, query.d)
    if work > _MAX_WORK:
        raise BudgetExceededError(
            query,
            f"enumerating {space} edge sets takes {work} d-set counts, "
            f"over the work budget of {_MAX_WORK}",
        )

    key = (query.mode, query.k, query.n, query.d, query.s)
    cached = _memo.get(key)
    if cached is not None:
        return cached

    best, best_mask, lp_calls = _scan_range(
        query.k, query.n, query.d, query.mode, query.s, 0, space
    )
    if best < 0 or best_mask < 0:
        raise AssertionError("the empty edge set always qualifies")
    edges = Hypergraph.complete(query.k, query.n).edges
    witness = Hypergraph(query.k, query.n, _edges_of(edges, best_mask))
    _verify_witness(query, witness, best)
    result = ThresholdResult(
        query=query,
        value=best + 1,
        witness=witness,
        lp_calls=lp_calls,
    )
    _memo[key] = result
    return result


def _verify_witness(query: ThresholdQuery, witness: Hypergraph, delta: int) -> None:
    """Re-check the winning edge set with the independent solvers."""
    if min_d_degree(witness, query.d) != delta:
        raise AssertionError("witness degree disagrees with the scan")
    if query.mode == "integral":
        if matching_number(witness) > query.s - 1:
            raise AssertionError("witness admits the matching it must avoid")
    else:
        value, _, _ = fractional_matching(witness)
        if value >= query.s:
            raise AssertionError("witness reaches the fractional target")


def _construction_bounds(
    k: int, n: int, d: int, s: Fraction
) -> tuple[dict[str, int], dict[str, int]]:
    """Construction lower bounds on the integral and fractional values at s.

    Each bound is the min d-degree, plus one, of a family that provably
    fails the target: the integral side's target is ceil(s), the
    fractional side's s itself.  The h1 and clique degrees are counted in
    closed form; only the parity family h0 is built.
    """
    s_ceil = math.ceil(s)
    int_bounds: dict[str, int] = {}
    frac_bounds: dict[str, int] = {}
    if 1 <= s_ceil <= n // k + 1:
        int_bounds["h1"] = frac_bounds["h1"] = _h1_min_degree(k, n, d, s_ceil - 1) + 1
    if n % k == 0 and s == n // k:
        int_bounds["h0"] = min_d_degree(construct_h0(k, n), d) + 1
    if k * s_ceil - 1 <= n:
        int_bounds["clique"] = _clique_min_degree(k, n, d, k * s_ceil - 1) + 1
    frac_clique_span = math.ceil(k * s) - 1
    if k <= frac_clique_span <= n:
        frac_bounds["clique"] = _clique_min_degree(k, n, d, frac_clique_span) + 1
    return int_bounds, frac_bounds


def _construction_floor(query: ThresholdQuery) -> int:
    """Best of 1 and the h1 and h0 construction bounds of the query's mode."""
    int_bounds, frac_bounds = _construction_bounds(query.k, query.n, query.d, query.s)
    bounds = int_bounds if query.mode == "integral" else frac_bounds
    return max(bounds.get("h1", 1), bounds.get("h0", 1))


# ---------------------------------------------------------------------------
# Fractional-instance reduction: strip the weight floor, pass to a link.
# ---------------------------------------------------------------------------


def linear_remap(w: VertexWeighting, k: int) -> VertexWeighting:
    """Shift out the minimum weight and rescale so k-set thresholds survive.

    With floor w0 = min(w) < 1/k, maps each weight to (x - w0)/(1 - k*w0),
    capped at 1.  A k-set sums to at least 1 before iff it does after:
    subtracting k*w0 from both sides of  sum >= 1  and dividing by the
    positive 1 - k*w0 is an equivalence, and capping only changes
    coordinates that already dominate any sum they join.
    """
    if len(w) == 0:
        raise ValueError("empty weighting")
    w0 = min(w.weights)
    scale = 1 - k * w0
    if scale <= 0:
        raise ReductionInfeasibleError(
            f"weight floor {w0} reaches 1/k for k={k}; remap undefined"
        )
    return VertexWeighting(
        tuple(min((x - w0) / scale, Fraction(1)) for x in w.weights)
    )


@dataclass(frozen=True)
class FractionalReduction:
    """Outcome of one reduction step.

    ``averaged`` replaces the d lightest weights by their mean (ties broken
    by vertex index); ``w_prime`` is its remap, which zeroes exactly the
    vertices of ``l_set``.  The threshold hypergraphs of ``averaged`` and
    ``w_prime`` coincide edge for edge, ``link_graph`` is the link of that
    hypergraph at ``l_set``, and ``link_cover`` (w_prime restricted to the
    surviving vertices, relabelled like the link) is a fractional cover of
    the link: an edge of the link plus l_set sums to >= 1 entirely on the
    surviving coordinates because l_set carries weight 0.
    """

    k: int
    d: int
    l_set: tuple[int, ...]
    averaged: VertexWeighting
    w_prime: VertexWeighting
    hypergraph: Hypergraph
    link_graph: Hypergraph
    link_cover: VertexWeighting


def reduce_fractional_instance(
    w: VertexWeighting, k: int, d: int
) -> FractionalReduction:
    """Average the d lightest weights, remap, and restrict to the link.

    ``linear_remap`` refuses a mean that reaches 1/k: it is the averaged minimum."""
    n = len(w)
    if not 1 <= d <= k - 1:
        raise ValueError(f"need 1 <= d <= k-1, got d={d}")
    if not k <= n:
        raise ValueError(f"need k <= n, got k={k}, n={n}")
    order = sorted(range(n), key=lambda v: (w[v], v))
    l_set = tuple(sorted(order[:d]))
    mean = sum((w[v] for v in l_set), Fraction(0)) / d
    averaged = VertexWeighting(
        tuple(mean if v in l_set else w[v] for v in range(n))
    )
    w_prime = linear_remap(averaged, k)
    hypergraph = threshold_hypergraph(w_prime, k)
    link_graph = link(hypergraph, l_set)
    survivors = [v for v in range(n) if v not in l_set]
    link_cover = VertexWeighting(tuple(w_prime[v] for v in survivors))
    return FractionalReduction(
        k=k,
        d=d,
        l_set=l_set,
        averaged=averaged,
        w_prime=w_prime,
        hypergraph=hypergraph,
        link_graph=link_graph,
        link_cover=link_cover,
    )


# ---------------------------------------------------------------------------
# Brute force versus the closed-form predictions.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ThresholdComparison:
    query: ThresholdQuery
    integral_value: int
    fractional_value: int
    integral_bounds: dict[str, int]
    fractional_bounds: dict[str, int]
    formulas: dict[str, object]
    flags: dict[str, bool] = field(default_factory=dict)


def compare_with_conjecture(query: ThresholdQuery, jobs: int = 1) -> ThresholdComparison:
    """Brute-force both threshold flavours and line them up with the formulas.

    The integral side runs at ceil(s), the fractional side at s itself; the
    construction lower bounds are the min-d-degrees (plus one) of the
    families that provably fail each target.  Flags record the inequality
    web: fractional <= integral, and each brute-forced value at least its
    construction bounds.  ``jobs`` is accepted for compatibility and ignored.
    """
    s = query.s
    s_ceil = math.ceil(s)
    integral = brute_force_threshold(
        ThresholdQuery(query.k, query.n, query.d, s_ceil, "integral")
    )
    fractional = brute_force_threshold(
        ThresholdQuery(query.k, query.n, query.d, s, "fractional")
    )

    k, n, d = query.k, query.n, query.d
    int_bounds, frac_bounds = _construction_bounds(k, n, d, s)

    formulas: dict[str, object] = {}
    if d == 0 and s_ceil * k <= n:
        formulas["Conj1.8"] = conjecture_values(
            "Conj1.8", k=k, n=n, s=s_ceil
        ).count
        formulas["Conj1.9"] = conjecture_values("Conj1.9", l=k, m=n, s=s).count
    if 1 <= d <= k - 1:
        formulas["Eq3"] = conjecture_values("Eq3", k=k, d=d).coefficient
        formulas["Eq4"] = conjecture_values("Eq4", k=k, d=d).coefficient

    flags = {
        "fractional_le_integral": fractional.value <= integral.value,
        "integral_ge_bounds": all(
            integral.value >= b for b in int_bounds.values()
        ),
        "fractional_ge_bounds": all(
            fractional.value >= b for b in frac_bounds.values()
        ),
    }
    return ThresholdComparison(
        query=query,
        integral_value=integral.value,
        fractional_value=fractional.value,
        integral_bounds=int_bounds,
        fractional_bounds=frac_bounds,
        formulas=formulas,
        flags=flags,
    )
