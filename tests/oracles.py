"""Slow, obviously-correct searches that the fast ones are checked against.

These are the mask-by-mask threshold scan, the all-compositions grid walk
and the subset-by-subset cover loop that ``thresholds._scan_range``,
``storage.optimize_grid`` and ``optmatch._cover_by_complement`` replaced.
They decide every candidate in the same order as the fast searches, so they
must return the same answers and, for the scan, the same LP count.

``solve_unit_packing`` is the unit-packing simplex with the column-by-column
Bland pricing scan that ``simplex.solve_unit_packing``'s numpy gather
replaced, and with the full row update, every row but the pivot row rebuilt
on every pivot, that its in-place update on pivots with p = D replaced.
Both follow Bland's rule on the same integer basis, so they must agree on
value, primal, dual and pivot count exactly.

``q_t``, ``q_min`` and ``monte_carlo_small_sum`` are the Samuels kernels
that ``samuels`` replaced: the first two multiply ``Fraction`` complements
family by family, the last draws each shard as one (samples, l) array and
reduces it with ``any(axis=1)``.  The fast kernels must return the same
fractions, the same minimising t and the same seeded estimates.  This
oracle compares each uniform with ``float(p)`` where the fast kernel uses
the exact ``u < p``; the two differ only on the doubles between the two
thresholds, at most one per coordinate, which seeded draws do not hit.

``check_edge_multiplicity``, ``check_induced_degrees`` and
``build_sparse_subgraph`` are the round-one audits and the round-two build
that ``randcons`` replaced: the audits walk every base edge (and, for the
induced degrees, every d-subset of it) against every sampled subset's
bitmask; the build draws one scalar uniform per strictly fractional weight
and compares it with the exact ``Fraction``.  The fast ones must return
equal ``CheckResult``s and equal builds.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Sequence

import numpy as np

from hypermatch.hypercore import Hypergraph, incidence, vertex_masks
from hypermatch.randcons import (
    _WITNESS_CAP,
    AmbiguousMembershipError,
    CheckConfig,
    CheckResult,
    RoundOneOutcome,
    RoundOnePlan,
    SparseSubgraph,
    compute_round_matchings,
)
from hypermatch.samuels import SamuelsQuery, TwoPointFamily
from hypermatch.simplex import PackingResult
from hypermatch.storage import _phi_on_grid
from hypermatch.thresholds import _disjointness_masks, _dset_edge_masks, _edge_universe

_ZERO = Fraction(0)


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


def solve_unit_packing(
    n_rows: int, columns: Sequence[Sequence[int]]
) -> PackingResult:
    """Maximise the total column weight under unit row capacities.

    ``columns[j]`` lists the rows column j hits (distinct indices in
    0..n_rows-1, at least one).  Returns exact optimal primal and dual
    vectors; with no columns the optimum is 0 with an all-zero dual.
    """
    ncols = len(columns)
    cols = [tuple(col) for col in columns]
    for col in cols:
        if not col:
            raise ValueError("a column must hit at least one row")
        for r in col:
            if not (0 <= r < n_rows):
                raise ValueError(f"row index {r} out of range 0..{n_rows - 1}")
        if len(set(col)) != len(col):
            raise ValueError(f"column {col} repeats a row")
    if ncols == 0 or n_rows == 0:
        return PackingResult(_ZERO, (_ZERO,) * ncols, (_ZERO,) * n_rows, 0)

    # The tableau holds only the rows some column touches, relabelled in
    # increasing order so that slack ids keep their order.  An untouched
    # row's slack would stay basic with a zero dual throughout.
    touched = sorted({r for col in cols for r in col})
    label = {r: i for i, r in enumerate(touched)}
    cols = [tuple(label[r] for r in col) for col in cols]
    m = len(touched)

    # Variable ids: 0..ncols-1 are structural columns, ncols..ncols+m-1 are
    # slacks.  The initial basis is the slack identity (b = 1 is feasible),
    # with zero duals.
    denom = 1
    mat = [[int(i == j) for j in range(m)] for i in range(m)]
    xs = [1] * m
    ys = [0] * m
    basis = [ncols + i for i in range(m)]
    pivots = 0
    while True:
        # Bland pricing.  A basic variable has reduced cost exactly 0, so it
        # never enters.
        get = ys.__getitem__
        entering = next(
            (j for j, col in enumerate(cols) if denom - sum(map(get, col)) > 0), -1
        )
        if entering < 0:
            entering = next((ncols + i for i in range(m) if ys[i] < 0), -1)
        if entering < 0:
            break  # optimal: no variable has positive reduced cost

        # d = M * A_entering = D * B^-1 * A_entering, and c = D * reduced cost.
        if entering < ncols:
            col = cols[entering]
            d = [sum(map(row.__getitem__, col)) for row in mat]
            cost = denom - sum(map(get, col))
        else:
            i = entering - ncols
            d = [row[i] for row in mat]
            cost = -ys[i]

        # Ratio test on X[r] / d[r], which is x_B[r] / (B^-1 a)[r] with D
        # cancelled, compared cross-multiplied.
        lr = -1
        for r in range(m):
            if d[r] > 0 and (
                lr < 0
                or xs[r] * d[lr] < xs[lr] * d[r]
                or (xs[r] * d[lr] == xs[lr] * d[r] and basis[r] < basis[lr])
            ):
                lr = r
        if lr < 0:
            raise ArithmeticError("unit packing LP cannot be unbounded")

        p = d[lr]
        prow = mat[lr]
        px = xs[lr]
        for r in range(m):
            if r != lr:
                f = d[r]
                mat[r] = [(p * a - f * b) // denom for a, b in zip(mat[r], prow)]
                xs[r] = (p * xs[r] - f * px) // denom
        ys = [(p * v + cost * b) // denom for v, b in zip(ys, prow)]
        denom = p
        basis[lr] = entering
        pivots += 1

    primal = [_ZERO] * ncols
    for r in range(m):
        if basis[r] < ncols:
            primal[basis[r]] = Fraction(xs[r], denom)
    value = Fraction(sum(xs[r] for r in range(m) if basis[r] < ncols), denom)
    dual = [_ZERO] * n_rows
    for r, v in zip(touched, ys):
        dual[r] = Fraction(v, denom)
    return PackingResult(value, tuple(primal), tuple(dual), pivots)


def q_t(query: SamuelsQuery, t: int) -> Fraction:
    """Small-sum probability of the t-th two-point family: prod (1 - p_i)."""
    family = TwoPointFamily(query, t)
    result = Fraction(1)
    for p in family.success_probabilities():
        result *= 1 - p
    return result


def q_min(query: SamuelsQuery) -> tuple[Fraction, int]:
    """Minimum q_t over t = 0..l-1 and the smallest minimising t."""
    best: Fraction | None = None
    best_t = 0
    for t in range(query.l):
        value = q_t(query, t)
        if best is None or value < best:
            best = value
            best_t = t
    assert best is not None
    return best, best_t


def monte_carlo_small_sum(
    family: TwoPointFamily, samples: int, seed: int = 0, shards: int = 1
) -> float:
    """Frequency of no jump over ``samples`` draws, one array per shard."""
    if samples < 1:
        raise ValueError("need at least one sample")
    if shards < 1 or shards > samples:
        raise ValueError(f"need 1 <= shards <= samples, got {shards}")
    probs = np.array([float(p) for p in family.success_probabilities()])
    per_shard = [samples // shards] * shards
    for i in range(samples % shards):
        per_shard[i] += 1
    children = np.random.SeedSequence(seed).spawn(shards)
    small = 0
    for child, count in zip(children, per_shard):
        rng = np.random.default_rng(child)
        draws = rng.random((count, len(probs))) < probs
        small += int(np.count_nonzero(~draws.any(axis=1)))
    return small / samples


def check_edge_multiplicity(plan: RoundOnePlan, subsets) -> CheckResult:
    masks = vertex_masks(subsets)
    bad = []
    for e, em in zip(plan.base.edges, vertex_masks(plan.base.edges)):
        hits = sum(1 for m in masks if em & ~m == 0)
        if hits > 1:
            bad.append((e, hits))
    return CheckResult(
        name="edge_multiplicity",
        passed=not bad,
        violations=len(bad),
        witnesses=tuple(bad[:_WITNESS_CAP]),
        detail="every base edge inside at most one sampled subset",
    )


def check_induced_degrees(
    plan: RoundOnePlan, subsets, config: CheckConfig
) -> CheckResult:
    """Check (v): every d-set keeps a fraction of its possible degree.

    For a d-set D and a sampled subset R, the induced degree counts base
    edges f with D inside f and all other vertices of f inside R; the
    requirement is degree_fraction * C(|R|-d, k-d) of them, for every D
    and every round.
    """
    k, d = plan.base.k, plan.d
    edge_bits = vertex_masks(plan.base.edges)
    dsets = list(itertools.combinations(range(plan.base.n), d))
    dset_bits = dict(zip(dsets, vertex_masks(dsets)))

    bad = []
    for i, (r, rmask) in enumerate(zip(subsets, vertex_masks(subsets))):
        need = config.degree_fraction * math.comb(max(len(r) - d, 0), k - d)
        deg = dict.fromkeys(dsets, 0)
        for e, em in zip(plan.base.edges, edge_bits):
            for s in itertools.combinations(e, d):
                if (em ^ dset_bits[s]) & ~rmask == 0:
                    deg[s] += 1
        for s in dsets:
            if deg[s] < need:
                bad.append((i, s, deg[s]))
    return CheckResult(
        name="induced_degrees",
        passed=not bad,
        violations=len(bad),
        witnesses=tuple(bad[:_WITNESS_CAP]),
        detail=f"each d-set keeps >= {config.degree_fraction:g} of "
        f"C(|R|-d, k-d) induced degree in every round",
    )


def build_sparse_subgraph(
    outcome: RoundOneOutcome,
    seed: int = 0,
    strict: bool = False,
) -> SparseSubgraph:
    """Keep each induced edge with its round's matching weight as probability.

    Every round contributes independently: an edge induced by several
    rounds gets one inclusion trial per round (multiset semantics), which
    is what makes E[degree of v] equal v's coverage exactly.  With
    strict=True the edge-multiplicity check must have passed, so each
    edge belongs to at most one round and the subgraph is an ordinary
    (simple) sample.  Draws consume one uniform per strictly-fractional
    weight, rounds in order, edges in canonical order, so results are
    reproducible bit for bit given the seed.
    """
    if strict and not outcome.check("edge_multiplicity").passed:
        raise AmbiguousMembershipError(
            "an edge lies in several sampled subsets; rerun with sparser "
            "rounds or strict=False for per-round multiset semantics"
        )
    if outcome.matchings is None:
        outcome = compute_round_matchings(outcome)

    base = outcome.plan.base
    n = base.n
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    selected_all = []
    for matching in outcome.matchings:
        support = () if matching is None else matching.support()
        selected_all.append(
            tuple(e for e, w in support if w == 1 or rng.random() < w)
        )
    kept = [e for selected in selected_all for e in selected]
    degrees, codegrees = incidence(kept, n)
    coverage, _ = incidence(outcome.subsets, n, pairs=False)
    return SparseSubgraph(
        hypergraph=Hypergraph(base.k, n, kept),
        degrees=tuple(degrees),
        codegrees=codegrees,
        coverage=tuple(coverage),
        per_round_selected=tuple(selected_all),
        skipped_rounds=outcome.skipped_rounds,
    )
