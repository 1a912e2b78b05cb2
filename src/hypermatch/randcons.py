"""Two-round randomized sparsification of a hypergraph, with checks.

Round one samples `rounds` independent vertex subsets, each vertex kept
with probability p, and audits five structural properties of the sample
(coverage concentration, pair-coverage cap, edge multiplicity, subset
sizes, induced minimum degrees).  Round two solves a perfect fractional
matching on each induced subhypergraph and keeps each of its edges
independently with the matching weight as probability; summing over
rounds, the expected multiset degree of a vertex equals the number of
rounds that contain it.  Check failures are reported with witnesses, not
raised; the per-vertex/per-pair identities are what the Monte Carlo
batteries in the acceptance suite verify.
"""

from __future__ import annotations

import dataclasses
import functools
import heapq
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .hypercore import EdgeWeighting, Hypergraph, _draw_threshold, _edge_array, incidence
from .optmatch import fractional_matching

__all__ = [
    "RoundOnePlan",
    "CheckResult",
    "RoundOneOutcome",
    "SparseSubgraph",
    "sample_rounds",
    "compute_round_matchings",
    "build_sparse_subgraph",
    "preset_scale_parameters",
]

_WITNESS_CAP = 10

# The bands of the sample checks: per-vertex coverage within 1/3 of
# rounds*p (i), pair coverage at most 2 (ii), subset sizes within 1/3 of
# n*p (iv), and every d-set keeping 1/2 of C(|R|-d, k-d) induced degree (v).
_VERTEX_TOLERANCE = Fraction(1, 3)
_PAIR_CAP = 2
_SIZE_TOLERANCE = Fraction(1, 3)
_DEGREE_FRACTION = Fraction(1, 2)


@dataclass(frozen=True)
class RoundOnePlan:
    """Sampling plan: which hypergraph, how many rounds, at what rate.

    ``p`` may be a float or a Fraction; a vertex is kept iff its uniform
    is below p exactly (see ``_sample_subsets``).
    """

    base: Hypergraph
    rounds: int
    p: float | Fraction
    d: int
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.p <= 1:
            raise ValueError(f"need 0 < p <= 1, got {self.p}")
        if self.rounds < 0:
            raise ValueError(f"rounds must be >= 0, got {self.rounds}")
        if not 0 <= self.d <= self.base.k - 1:
            raise ValueError(
                f"need 0 <= d <= k-1 = {self.base.k - 1}, got {self.d}"
            )


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    violations: int
    witnesses: tuple
    detail: str


class _DrawPlan(NamedTuple):
    """What every round-two build from one outcome shares; nothing depends on the seed.

    The weight-1 support edges are kept by every build, so their vertex
    degrees and pair codegrees are counted here, once per outcome.  A build
    copies them and adds only the strictly fractional edges its draws keep;
    ``codegrees`` is that copy's source and is never handed out.
    """

    joined: tuple[tuple[int, ...], ...]  # the rounds' support edges, one round after another
    bounds: tuple[tuple[int, int], ...]  # each round's slice of ``joined``
    # The positions of ``joined`` in the lex order of their edges, and the
    # edges in that order; both None when ``joined`` is strictly increasing
    # already (always so for one round), where the order is the identity.
    order: tuple[int, ...] | None
    ordered: tuple[tuple[int, ...], ...] | None
    degrees: tuple[int, ...]  # vertex degrees of the weight-1 support edges
    codegrees: dict[tuple[int, int], int]  # their pair codegrees
    # One entry per strictly fractional weight, in draw order: its position
    # in the joined supports, its edge, the edge's pairs and its exact
    # dyadic threshold.
    fractional: tuple[tuple[int, tuple[int, ...], tuple[tuple[int, int], ...], float], ...]
    coverage: tuple[int, ...]
    skipped_rounds: tuple[int, ...]


@dataclass(frozen=True)
class RoundOneOutcome:
    plan: RoundOnePlan
    subsets: tuple[tuple[int, ...], ...]
    checks: tuple[CheckResult, ...]
    matchings: tuple[EdgeWeighting | None, ...] | None = None
    skipped_rounds: tuple[int, ...] = ()

    def check(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    @functools.cached_property
    def _draw_plan(self) -> _DrawPlan:
        """The round matchings' supports, base counts and draws, made on the first build.

        An outcome without matchings solves its round LPs here, once.  Kept
        in the instance dict, outside the dataclass fields, so that
        equality, repr and ``dataclasses.replace`` do not see it.
        """
        solved = self if self.matchings is not None else compute_round_matchings(self)
        n = self.plan.base.n
        joined, bounds, certain, fractional = [], [], [], []
        for matching in solved.matchings:
            support = () if matching is None else matching.support()
            start = len(joined)
            for i, (e, w) in enumerate(support, start):
                # A support weight lies in (0, 1], so it is 1 iff its denominator is.
                if w.denominator == 1:
                    certain.append(e)
                else:
                    pairs = tuple(itertools.combinations(e, 2))
                    fractional.append((i, e, pairs, _draw_threshold(w)))
            joined.extend(e for e, _ in support)
            bounds.append((start, len(joined)))
        degrees, codegrees = incidence(certain, n)
        coverage, _ = incidence(self.subsets, n, pairs=False)
        joined = tuple(joined)
        order = ordered = None
        if any(a >= b for a, b in itertools.pairwise(joined)):
            order = tuple(sorted(range(len(joined)), key=joined.__getitem__))
            ordered = tuple(map(joined.__getitem__, order))
        return _DrawPlan(
            joined,
            tuple(bounds),
            order,
            ordered,
            tuple(degrees),
            codegrees,
            tuple(fractional),
            tuple(coverage),
            solved.skipped_rounds,
        )


def _sample_subsets(plan: RoundOnePlan) -> tuple[tuple[int, ...], ...]:
    """Round i draws from the i-th child of SeedSequence(seed), made when drawn.

    A vertex is kept iff its uniform u is below p, decided exactly by the
    dyadic threshold of ``Fraction(p)``; for a float p that is ``u < p``.
    """
    threshold = _draw_threshold(Fraction(plan.p))
    out = []
    for i in range(plan.rounds):
        rng = np.random.default_rng(np.random.SeedSequence(plan.seed, spawn_key=(i,)))
        keep = rng.random(plan.base.n) < threshold
        out.append(tuple(int(v) for v in np.flatnonzero(keep)))
    return tuple(out)


def _result(name: str, bad: list, detail: str, violations: int | None = None) -> CheckResult:
    """A check that passes iff it has no violations (by default, len(bad))."""
    violations = len(bad) if violations is None else violations
    return CheckResult(
        name=name,
        passed=not violations,
        violations=violations,
        witnesses=tuple(bad[:_WITNESS_CAP]),
        detail=detail,
    )


def _check_band(
    name: str, values, target: Fraction, tolerance: Fraction, what: str
) -> CheckResult:
    """Checks (i) and (iv): every integer value within tolerance * target of target.

    The closed band is taken in rationals, so a value on its edge passes.
    """
    low = math.ceil((1 - tolerance) * target)
    high = math.floor((1 + tolerance) * target)
    bad = [(i, v) for i, v in enumerate(values) if not low <= v <= high]
    return _result(name, bad, f"{what} = {float(target):g} (tolerance {float(tolerance):g})")


def _lex_ranks(edges: np.ndarray, at: tuple[int, ...], n: int) -> np.ndarray:
    """Lex rank, among the d-subsets of range(n), of each edge's d-set at ``at``.

    The rank of s_0 < ... < s_(d-1) is C(n, d) - 1 - sum C(n-1-s_i, d-i):
    the sum counts the d-sets after s in lex order.  Only terms with
    s_i >= i are looked up, and these are at most C(n-1, d), so the table
    holds zeros elsewhere and fits int64 whenever C(n, d) does.
    """
    d = len(at)
    table = np.array(
        [
            [math.comb(a, b) if a - b <= n - 1 - d else 0 for b in range(d + 1)]
            for a in range(n)
        ],
        dtype=np.int64,
    )
    ranks = np.full(len(edges), math.comb(n, d) - 1, dtype=np.intp)
    for i, column in enumerate(at):
        ranks -= table[n - 1 - edges[:, column], d - i]
    return ranks


def _lex_unrank(rank: int, n: int, d: int) -> tuple[int, ...]:
    """The d-subset of range(n) with the given lex rank."""
    out = []
    v = 0
    for i in range(d, 0, -1):
        while rank >= math.comb(n - 1 - v, i - 1):
            rank -= math.comb(n - 1 - v, i - 1)
            v += 1
        out.append(v)
        v += 1
    return tuple(out)


def _inside(edges: np.ndarray, n: int, subset) -> np.ndarray:
    """(E, k) booleans: is each entry of ``edges`` a vertex of ``subset``?"""
    members = np.zeros(n, dtype=bool)
    members[list(subset)] = True
    return members[edges]


def _check_edges(plan: RoundOnePlan, subsets, edges: np.ndarray) -> tuple[CheckResult, CheckResult]:
    """Checks (iii) and (v), edge multiplicity and induced degrees.

    (iii): no base edge lies inside two sampled subsets.  (v): for a d-set
    D and a sampled subset R, the induced degree counts base edges f with
    D inside f and all other vertices of f inside R; every D must keep
    1/2 of C(|R|-d, k-d) of them in every round.

    Per round one boolean "inside R" array is gathered through ``edges``,
    the (E, k) array of the base edges.  An edge with all k entries inside
    is a hit for (iii).  Each choice of d positions in the array names one
    d-set of every edge; the edges whose other k - d entries are inside
    count onto their d-sets' lex ranks by one ``bincount``, so violations
    of (v) come out round by round in lex order.
    """
    base, d = plan.base, plan.d
    n, k = base.n, base.k
    choices = [
        (_lex_ranks(edges, at, n), [j for j in range(k) if j not in at])
        for at in itertools.combinations(range(k), d)
    ]
    size = math.comb(n, d)

    hits = np.zeros(len(edges), dtype=np.intp)
    short_degrees = []
    violations = 0
    for i, r in enumerate(subsets):
        inside = _inside(edges, n, r)
        hits += inside.all(axis=1)
        deg = np.zeros(size, dtype=np.intp)
        for ranks, rest in choices:
            deg += np.bincount(ranks[inside[:, rest].all(axis=1)], minlength=size)
        # An integer degree falls short of the fraction iff it is below its ceiling.
        need = math.ceil(_DEGREE_FRACTION * math.comb(max(len(r) - d, 0), k - d))
        short = np.flatnonzero(deg < need)
        violations += len(short)
        for j in short[: _WITNESS_CAP - len(short_degrees)]:
            short_degrees.append((i, _lex_unrank(int(j), n, d), int(deg[j])))
    shared = np.flatnonzero(hits > 1)
    return (
        _result(
            "edge_multiplicity",
            [(base.edges[j], int(hits[j])) for j in shared[:_WITNESS_CAP]],
            "every base edge inside at most one sampled subset",
            len(shared),
        ),
        _result(
            "induced_degrees",
            short_degrees,
            f"each d-set keeps >= {float(_DEGREE_FRACTION):g} of "
            f"C(|R|-d, k-d) induced degree in every round",
            violations,
        ),
    )


def compute_round_matchings(outcome: RoundOneOutcome) -> RoundOneOutcome:
    """Attach a perfect fractional matching of each induced subhypergraph.

    A matching is kept only when its value is exactly |R|/k; rounds whose
    induced subhypergraph falls short are recorded in skipped_rounds with
    a None entry.
    """
    base = outcome.plan.base
    # ``sample_rounds`` hands over the edge array its checks used.
    edges = vars(outcome).get("_edges")
    if edges is None:
        edges = _edge_array(base)
    matchings: list[EdgeWeighting | None] = []
    skipped = []
    for i, r in enumerate(outcome.subsets):
        inside = _inside(edges, base.n, r).all(axis=1).tolist()
        induced = Hypergraph._canonical(
            base.k, base.n, tuple(itertools.compress(base.edges, inside))
        )
        value, matching, _ = fractional_matching(induced)
        if value == Fraction(len(r), base.k):
            matchings.append(matching)
        else:
            matchings.append(None)
            skipped.append(i)
    return dataclasses.replace(
        outcome, matchings=tuple(matchings), skipped_rounds=tuple(skipped)
    )


def sample_rounds(plan: RoundOnePlan, with_matchings: bool = False) -> RoundOneOutcome:
    """Sample the subsets and run the five checks; never raises on failure."""
    subsets = _sample_subsets(plan)
    n = plan.base.n
    coverage, pair_coverage = incidence(subsets, n)
    over_cap = [(pair, c) for pair, c in pair_coverage.items() if c > _PAIR_CAP]
    edges = _edge_array(plan.base)
    multiplicity, degrees = _check_edges(plan, subsets, edges)
    checks = (
        _check_band(
            "vertex_coverage", coverage, plan.rounds * Fraction(plan.p), _VERTEX_TOLERANCE,
            "per-vertex coverage vs rounds*p",
        ),
        _result(
            "pair_coverage",
            heapq.nsmallest(_WITNESS_CAP, over_cap),
            f"pair coverage capped at {_PAIR_CAP}",
            len(over_cap),
        ),
        multiplicity,
        _check_band(
            "subset_sizes", map(len, subsets), n * Fraction(plan.p), _SIZE_TOLERANCE,
            "subset sizes vs n*p",
        ),
        degrees,
    )
    outcome = RoundOneOutcome(plan=plan, subsets=subsets, checks=checks)
    if with_matchings:
        # In the instance dict, outside the fields, for this one call: the
        # outcome returned is a new one, without it.
        vars(outcome)["_edges"] = edges
        outcome = compute_round_matchings(outcome)
    return outcome


@dataclass(frozen=True)
class SparseSubgraph:
    """Round-two result: the kept edges with multiset degree accounting.

    ``hypergraph`` deduplicates the kept edges; ``degrees`` and
    ``codegrees`` count (round, edge) selections, so an edge kept in two
    rounds contributes twice — this keeps the expected degree of a vertex
    equal to ``coverage`` (the number of rounds containing it) when every
    round carries a perfect fractional matching.
    """

    hypergraph: Hypergraph
    degrees: tuple[int, ...]
    codegrees: dict[tuple[int, int], int]
    coverage: tuple[int, ...]
    per_round_selected: tuple[tuple[tuple[int, ...], ...], ...]
    skipped_rounds: tuple[int, ...]

    @classmethod
    def _trusted(
        cls,
        hypergraph: Hypergraph,
        degrees: tuple[int, ...],
        codegrees: dict[tuple[int, int], int],
        coverage: tuple[int, ...],
        per_round_selected: tuple[tuple[tuple[int, ...], ...], ...],
        skipped_rounds: tuple[int, ...],
    ) -> "SparseSubgraph":
        """A SparseSubgraph made without the dataclass ``__init__``, its
        fields put straight into the instance dict: ``build_sparse_subgraph``
        hands over fields of the right types.  Equality, repr and
        ``dataclasses.replace`` read the fields, so they see no difference."""
        s = object.__new__(cls)
        vars(s).update(
            hypergraph=hypergraph,
            degrees=degrees,
            codegrees=codegrees,
            coverage=coverage,
            per_round_selected=per_round_selected,
            skipped_rounds=skipped_rounds,
        )
        return s

    def max_codegree(self) -> int:
        return max(self.codegrees.values(), default=0)


def build_sparse_subgraph(
    outcome: RoundOneOutcome,
    seed: int = 0,
) -> SparseSubgraph:
    """Keep each induced edge with its round's matching weight as probability.

    Every round contributes independently: an edge induced by several
    rounds gets one inclusion trial per round (multiset semantics), which
    is what makes E[degree of v] equal v's coverage exactly.  When
    ``outcome.check("edge_multiplicity").passed``, each edge belongs to at
    most one round and the subgraph is an ordinary (simple) sample.  Draws
    consume one uniform per strictly-fractional weight, rounds in order,
    edges in canonical order, so results are reproducible bit for bit given
    the seed.

    Only the generator and its draws depend on the seed, and they are the
    floor of what a build costs; the rest is one pass over the draws.
    Everything else a build needs is the outcome's draw plan, made on its
    first build and kept on it: the rounds' joined support edges and their
    lex order, the vertex degrees and pair codegrees of the weight-1
    support edges (counted once per outcome), each strictly fractional
    weight's position, edge, pairs and exact dyadic threshold
    (``_draw_threshold``), the coverage and the skipped rounds.  An
    outcome without matchings has its round LPs solved once, for that
    plan.  A build takes all of its uniforms in one call, which yields the
    same doubles as one call per weight, copies the plan's counts, adds
    the drawn edges that hit and marks the ones that miss.  Its kept edges
    are one ``compress`` over the lex order, an edge kept in several
    rounds taken once; where that order is the identity they are the
    joined supports' own ``compress``, and for one round they are also
    the round's selection.
    """
    base = outcome.plan.base
    draws = outcome._draw_plan
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    keep = [True] * len(draws.joined)
    degrees = list(draws.degrees)
    codegrees = draws.codegrees.copy()
    uniforms = rng.random(len(draws.fractional)).tolist()
    for (i, edge, pairs, t), u in zip(draws.fractional, uniforms):
        if u < t:
            for v in edge:
                degrees[v] += 1
            for uv in pairs:
                codegrees[uv] = codegrees.get(uv, 0) + 1
        else:
            keep[i] = False
    if draws.order is None:
        kept = tuple(itertools.compress(draws.joined, keep))
    else:
        # An edge kept in several rounds is taken once.
        kept = itertools.compress(draws.ordered, map(keep.__getitem__, draws.order))
        kept = tuple(dict.fromkeys(kept))
    if len(draws.bounds) == 1:
        selected_all = (kept,)
    else:
        selected_all = tuple(
            tuple(itertools.compress(draws.joined[a:b], keep[a:b])) for a, b in draws.bounds
        )
    return SparseSubgraph._trusted(
        Hypergraph._canonical(base.k, base.n, kept),
        tuple(degrees),
        codegrees,
        draws.coverage,
        selected_all,
        draws.skipped_rounds,
    )


def preset_scale_parameters(n: int) -> tuple[float, int]:
    """The asymptotic preset: p = n^-0.9 and rounds = round(n^1.1)."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return n**-0.9, round(n**1.1)
