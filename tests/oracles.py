"""Slow, obviously-correct searches that the fast ones are checked against.

These are the mask-by-mask threshold scan, the all-compositions grid walk
and the subset-by-subset cover loop that ``thresholds._scan_range``,
``storage.optimize_grid`` and ``optmatch._cover_by_complement`` replaced.
They decide every candidate in the same order as the fast searches, so they
must return the same answers and, for the scan, the same LP count.

``maximum_matching`` is the matching search as it was before it walked
the lex block of edges led by the lowest available vertex: it scans every
edge through that vertex.  Both try the fitting edges in the same order,
so they must return the same certificate.

``solve_unit_packing`` is the unit-packing simplex with the column-by-column
Bland pricing scan that ``simplex.solve_unit_packing``'s numpy gather
replaced, and with a list-of-rows tableau, every row but the pivot row
rebuilt on every pivot, that its packed-column update replaced.
Both follow Bland's rule on the same integer basis, so they must agree on
value, primal, dual and pivot count exactly.

``q_t``, ``q_min`` and ``monte_carlo_small_sum`` are the Samuels kernels
that ``samuels`` replaced: the first two multiply ``Fraction`` complements
family by family, the last draws its stream as one (samples, l) array and
reduces it with ``any(axis=1)``.  The fast kernels must return the same
fractions, the same minimising t and the same seeded estimates.  This
oracle compares each uniform with ``float(p)`` where the fast kernel uses
the exact ``u < p``; the two differ only on the doubles between the two
thresholds, at most one per coordinate, which seeded draws do not hit.

``samuels_query_means`` is ``SamuelsQuery``'s input check as it was on
``Fraction``s: sign, order and total compared as fractions.  The check on
integer ratios must accept the same means and raise the same exception
with the same message.

``construction_bounds`` is ``thresholds._construction_bounds`` as it was,
taking the min d-degree of each construction built in full; the closed-form
counts must give the same bounds.

``check_edge_multiplicity``, ``check_induced_degrees`` and
``build_sparse_subgraph`` are the round-one audits and the round-two build
that ``randcons`` replaced: the audits walk every base edge (and, for the
induced degrees, every d-subset of it) against every sampled subset's
bitmask; the build draws one scalar uniform per strictly fractional weight
and compares it with the exact ``Fraction``.  The fast ones must return
equal ``CheckResult``s and equal builds.

``hypergraph_edges`` is the ``Hypergraph`` constructor's edge check as it
was before canonical lists were accepted by bulk checks: every edge sorted,
checked and put in a set, the set sorted.  The constructor must store the
same tuples, with the same vertex types, or raise the same message.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from typing import Sequence

import numpy as np

from hypermatch.extremal import (
    construct_clique_plus_isolated,
    construct_h0,
    construct_h1,
)
from hypermatch.hypercore import Hypergraph, incidence, min_d_degree, vertex_masks
from hypermatch.randcons import (
    _WITNESS_CAP,
    CheckResult,
    RoundOneOutcome,
    RoundOnePlan,
    SparseSubgraph,
    compute_round_matchings,
)
from hypermatch.samuels import SamuelsQuery, TwoPointFamily, _exact
from hypermatch.simplex import PackingResult
from hypermatch.storage import _phi_on_grid

_ZERO = Fraction(0)


def _integer_edge(e) -> tuple[int, ...]:
    try:
        return tuple(sorted(map(operator.index, e)))
    except TypeError:
        raise ValueError(f"edge {e!r} has a vertex that is not an integer") from None


def hypergraph_edges(k: int, n: int, edges) -> tuple[tuple[int, ...], ...]:
    if not (1 <= k <= n):
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    edges = list(edges)
    try:
        ts = [tuple(sorted(e)) for e in edges]
        exact = type(sum(itertools.chain.from_iterable(ts))) is int
    except TypeError:
        exact = False
    if not exact:
        # Converted lazily, so that the first faulty edge is the one named.
        ts = map(_integer_edge, edges)
    canon = set()
    for t in ts:
        if len(t) != k or len(set(t)) != k:
            raise ValueError(f"edge {t} is not a {k}-set")
        if t[0] < 0 or t[-1] >= n:
            raise ValueError(f"edge {t} out of vertex range 0..{n - 1}")
        canon.add(t)
    return tuple(sorted(canon))


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
    """(delta, witness mask, LP count) over [start, stop), one mask at a time.

    Edge i is the i-th k-subset in lexicographic order; each d-set's mask
    has the edges containing it, each edge's disjointness mask the edges
    it shares no vertex with.
    """
    edges = list(itertools.combinations(range(n), k))
    bits = [1 << i for i in range(len(edges))]
    dmasks = [
        sum(b for b, e in zip(bits, edges) if set(ds) <= set(e))
        for ds in itertools.combinations(range(n), d)
    ]
    disj = [
        sum(b for b, f in zip(bits, edges) if not set(e) & set(f)) for e in edges
    ]
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


def maximum_matching(h: Hypergraph) -> tuple[tuple[int, ...], ...]:
    """``optmatch.maximum_matching`` with its per-vertex edge lists.

    At the lowest available vertex it tries every edge through that vertex,
    in index order, and keeps those whose vertices are all available.
    """
    edge_masks = vertex_masks(h.edges)
    by_vertex: list[list[int]] = [[] for _ in range(h.n)]
    for idx, e in enumerate(h.edges):
        for v in e:
            by_vertex[v].append(idx)

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
        for idx in by_vertex[v]:
            em = edge_masks[idx]
            if em & avail == em:
                chosen.append(idx)
                dfs(avail ^ em, count + 1, chosen)
                chosen.pop()
        dfs(avail ^ (1 << v), count, chosen)

    dfs((1 << h.n) - 1, 0, [])
    return tuple(sorted(h.edges[i] for i in best_edges))


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


def samuels_query_means(mus) -> tuple[Fraction, ...]:
    """The means ``SamuelsQuery(mus)`` keeps, or the error it raises."""
    ms = tuple(_exact(m) for m in mus)
    if not ms:
        raise ValueError("need at least one mean")
    if any(m < 0 for m in ms):
        raise ValueError("means must be nonnegative")
    if any(a > b for a, b in zip(ms, ms[1:])):
        raise ValueError("means must be sorted nondecreasingly")
    if sum(ms) >= 1:
        raise ValueError(f"means must sum below 1, got {sum(ms)}")
    return ms


def monte_carlo_small_sum(family: TwoPointFamily, samples: int, seed: int = 0) -> float:
    """Frequency of no jump over ``samples`` draws, one array from the first
    child of ``SeedSequence(seed)``."""
    if samples < 1:
        raise ValueError("need at least one sample")
    probs = np.array([float(p) for p in family.success_probabilities()])
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    draws = rng.random((samples, len(probs))) < probs
    return int(np.count_nonzero(~draws.any(axis=1))) / samples


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


def check_induced_degrees(plan: RoundOnePlan, subsets) -> CheckResult:
    """Check (v): every d-set keeps half of its possible degree.

    For a d-set D and a sampled subset R, the induced degree counts base
    edges f with D inside f and all other vertices of f inside R; the
    requirement is 1/2 * C(|R|-d, k-d) of them, for every D and every
    round.
    """
    k, d = plan.base.k, plan.d
    edge_bits = vertex_masks(plan.base.edges)
    dsets = list(itertools.combinations(range(plan.base.n), d))
    dset_bits = dict(zip(dsets, vertex_masks(dsets)))

    bad = []
    for i, (r, rmask) in enumerate(zip(subsets, vertex_masks(subsets))):
        need = Fraction(1, 2) * math.comb(max(len(r) - d, 0), k - d)
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
        detail="each d-set keeps >= 0.5 of C(|R|-d, k-d) induced degree in every round",
    )


def build_sparse_subgraph(
    outcome: RoundOneOutcome,
    seed: int = 0,
) -> SparseSubgraph:
    """Keep each induced edge with its round's matching weight as probability.

    Every round contributes independently: an edge induced by several
    rounds gets one inclusion trial per round (multiset semantics), which
    is what makes E[degree of v] equal v's coverage exactly.  Draws consume
    one uniform per strictly-fractional weight, rounds in order, edges in
    canonical order, so results are reproducible bit for bit given the seed.
    """
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


def construction_bounds(
    k: int, n: int, d: int, s: Fraction
) -> tuple[dict[str, int], dict[str, int]]:
    """Integral and fractional construction bounds from the built families."""
    s_ceil = math.ceil(s)
    int_bounds: dict[str, int] = {}
    frac_bounds: dict[str, int] = {}
    if 1 <= s_ceil <= n // k + 1:
        h1_delta = min_d_degree(construct_h1(k, n, s_ceil), d)
        int_bounds["h1"] = h1_delta + 1
        frac_bounds["h1"] = h1_delta + 1
    if n % k == 0 and s == n // k:
        try:
            int_bounds["h0"] = min_d_degree(construct_h0(k, n), d) + 1
        except ValueError:
            pass
    if k * s_ceil - 1 <= n:
        int_bounds["clique"] = (
            min_d_degree(construct_clique_plus_isolated(k, n, s_ceil), d) + 1
        )
    frac_clique_span = math.ceil(k * s) - 1
    if k <= frac_clique_span <= n:
        frac_clique = Hypergraph(
            k, n, itertools.combinations(range(frac_clique_span), k)
        )
        frac_bounds["clique"] = min_d_degree(frac_clique, d) + 1
    return int_bounds, frac_bounds
