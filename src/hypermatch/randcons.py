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

Also here: the strict near-regularity predicate used as a hypothesis
check for almost-perfect matching extraction, and three exponential tail
bounds with their validity preconditions enforced.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .hypercore import EdgeWeighting, Hypergraph, _draw_threshold, incidence
from .optmatch import fractional_matching

__all__ = [
    "RoundOnePlan",
    "CheckConfig",
    "CheckResult",
    "RoundOneOutcome",
    "SparseSubgraph",
    "RegularityReport",
    "AmbiguousMembershipError",
    "sample_rounds",
    "compute_round_matchings",
    "coverage_count",
    "build_sparse_subgraph",
    "check_near_regularity",
    "chernoff_bound",
    "preset_scale_parameters",
]

_WITNESS_CAP = 10


@dataclass(frozen=True)
class RoundOnePlan:
    """Sampling plan: which hypergraph, how many rounds, at what rate."""

    base: Hypergraph
    rounds: int
    p: float
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
class CheckConfig:
    """Tolerances for the five sample checks.

    vertex_tolerance: relative band around rounds*p for per-vertex
    coverage (check i).  pair_cap: maximum allowed pair coverage
    (check ii).  size_tolerance: relative band around n*p for subset
    sizes (check iv).  degree_fraction: required fraction of
    C(|R|-d, k-d) for every d-set's induced degree (check v).
    """

    vertex_tolerance: float = 1 / 3
    pair_cap: int = 2
    size_tolerance: float = 1 / 3
    degree_fraction: float = 1 / 2


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    violations: int
    witnesses: tuple
    detail: str


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


class AmbiguousMembershipError(RuntimeError):
    """Some edge lies in several sampled subsets, so "its round" is undefined."""


def coverage_count(subsets, vertex_set) -> int:
    """Number of sampled subsets containing every vertex of the set."""
    wanted = frozenset(vertex_set)
    return sum(1 for r in subsets if wanted <= frozenset(r))


def _sample_subsets(plan: RoundOnePlan) -> tuple[tuple[int, ...], ...]:
    """Round i draws from the i-th child of SeedSequence(seed), made when drawn."""
    out = []
    for i in range(plan.rounds):
        rng = np.random.default_rng(np.random.SeedSequence(plan.seed, spawn_key=(i,)))
        keep = rng.random(plan.base.n) < plan.p
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


def _check_band(name: str, values, target: float, tolerance: float, what: str) -> CheckResult:
    """Checks (i) and (iv): every value within tolerance * target of target."""
    low = (1 - tolerance) * target
    high = (1 + tolerance) * target
    bad = [(i, v) for i, v in enumerate(values) if not low <= v <= high]
    return _result(name, bad, f"{what} = {target:g} (tolerance {tolerance:g})")


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


def _edge_array(base: Hypergraph) -> np.ndarray:
    """The base edges as an (E, k) intp array, in canonical order."""
    flat = itertools.chain.from_iterable(base.edges)
    return np.fromiter(flat, np.intp, base.num_edges * base.k).reshape(-1, base.k)


def _inside(edges: np.ndarray, n: int, subset) -> np.ndarray:
    """(E, k) booleans: is each entry of ``edges`` a vertex of ``subset``?"""
    members = np.zeros(n, dtype=bool)
    members[list(subset)] = True
    return members[edges]


def _check_edges(
    plan: RoundOnePlan, subsets, config: CheckConfig
) -> tuple[CheckResult, CheckResult]:
    """Checks (iii) and (v), edge multiplicity and induced degrees.

    (iii): no base edge lies inside two sampled subsets.  (v): for a d-set
    D and a sampled subset R, the induced degree counts base edges f with
    D inside f and all other vertices of f inside R; every D must keep
    degree_fraction * C(|R|-d, k-d) of them in every round.

    Per round one boolean "inside R" array is gathered through the (E, k)
    array of the base edges.  An edge with all k entries inside is a hit
    for (iii).  Each choice of d positions in the array names one d-set of
    every edge; the edges whose other k - d entries are inside count onto
    their d-sets' lex ranks by one ``bincount``, so violations of (v) come
    out round by round in lex order.
    """
    base, d = plan.base, plan.d
    n, k = base.n, base.k
    edges = _edge_array(base)
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
        need = config.degree_fraction * math.comb(max(len(r) - d, 0), k - d)
        short = np.flatnonzero(deg < need)
        violations += len(short)
        for j in short[: _WITNESS_CAP - len(short_degrees)]:
            short_degrees.append((i, _lex_unrank(int(j), n, d), int(deg[j])))
    shared = [(base.edges[j], int(hits[j])) for j in np.flatnonzero(hits > 1)]
    return (
        _result("edge_multiplicity", shared, "every base edge inside at most one sampled subset"),
        _result(
            "induced_degrees",
            short_degrees,
            f"each d-set keeps >= {config.degree_fraction:g} of "
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
    edges = _edge_array(base)
    matchings: list[EdgeWeighting | None] = []
    skipped = []
    for i, r in enumerate(outcome.subsets):
        induced = itertools.compress(base.edges, _inside(edges, base.n, r).all(axis=1).tolist())
        value, matching, _ = fractional_matching(Hypergraph(base.k, base.n, induced))
        if value == Fraction(len(r), base.k):
            matchings.append(matching)
        else:
            matchings.append(None)
            skipped.append(i)
    return dataclasses.replace(
        outcome, matchings=tuple(matchings), skipped_rounds=tuple(skipped)
    )


def sample_rounds(
    plan: RoundOnePlan,
    config: CheckConfig = CheckConfig(),
    with_matchings: bool = False,
) -> RoundOneOutcome:
    """Sample the subsets and run the five checks; never raises on failure."""
    subsets = _sample_subsets(plan)
    n = plan.base.n
    coverage, pair_coverage = incidence(subsets, n)
    over_cap = sorted((pair, c) for pair, c in pair_coverage.items() if c > config.pair_cap)
    multiplicity, degrees = _check_edges(plan, subsets, config)
    checks = (
        _check_band(
            "vertex_coverage", coverage, plan.rounds * plan.p, config.vertex_tolerance,
            "per-vertex coverage vs rounds*p",
        ),
        _result("pair_coverage", over_cap, f"pair coverage capped at {config.pair_cap}"),
        multiplicity,
        _check_band(
            "subset_sizes", map(len, subsets), n * plan.p, config.size_tolerance,
            "subset sizes vs n*p",
        ),
        degrees,
    )
    outcome = RoundOneOutcome(plan=plan, subsets=subsets, checks=checks)
    if with_matchings:
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

    def max_codegree(self) -> int:
        return max(self.codegrees.values(), default=0)


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
    reproducible bit for bit given the seed.  Each round takes its uniforms
    in one call, which yields the same doubles as one call per weight, and
    compares them with exact dyadic thresholds (``_draw_threshold``).
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
        # A support weight lies in (0, 1], so it is 1 iff its denominator is.
        draws = iter(rng.random(sum(w.denominator != 1 for _, w in support)).tolist())
        selected_all.append(
            tuple(
                e
                for e, w in support
                if w.denominator == 1 or next(draws) < _draw_threshold(w)
            )
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


@dataclass(frozen=True)
class RegularityReport:
    passed: bool
    degree_band: tuple[float, float]
    degree_violators: tuple[tuple[int, int], ...]
    max_codegree: int
    codegree_bound: float

    def __bool__(self) -> bool:
        return self.passed


def check_near_regularity(
    h: Hypergraph, target_degree: float, tolerance: float
) -> RegularityReport:
    """Strict degree band plus a strict codegree cap.

    True iff every vertex degree lies strictly between
    (1 - tolerance) * target_degree and (1 + tolerance) * target_degree,
    and the maximum codegree is strictly below tolerance * target_degree.
    The codegree here is measured over pairs shared by at least two
    edges, so a linear hypergraph (a matching in particular) scores 0.
    An edgeless hypergraph fails: degree 0 is never inside the band.
    """
    if target_degree <= 0:
        raise ValueError(f"target degree must be > 0, got {target_degree}")
    if tolerance <= 0:
        raise ValueError(f"tolerance must be > 0, got {tolerance}")
    low = (1 - tolerance) * target_degree
    high = (1 + tolerance) * target_degree
    degs, codeg = incidence(h.edges, h.n)
    violators = tuple(
        (v, c) for v, c in enumerate(degs) if not low < c < high
    )
    max_codegree = max((c for c in codeg.values() if c >= 2), default=0)
    passed = not violators and max_codegree < tolerance * target_degree
    return RegularityReport(
        passed=passed,
        degree_band=(low, high),
        degree_violators=violators,
        max_codegree=max_codegree,
        codegree_bound=tolerance * target_degree,
    )


_CHERNOFF_PARAMETERS = {
    "small": ("expectation", "alpha"),
    "binomial": ("n", "p", "lam"),
    "large": ("expectation", "x"),
}


def chernoff_bound(kind: str, **params) -> float:
    """Exponential tail bounds with their validity ranges enforced.

    kind="small": P(|X - EX| > alpha*EX) <= 2*exp(-alpha^2*EX/3), valid
    for alpha <= 3/2; pass expectation and alpha.
    kind="binomial": P(|X - np| > lam) <= exp(-lam^2/(3np)) for X
    binomial(n, p), the previous bound at alpha = lam/(np), hence valid
    for lam <= (3/2)*n*p; pass n, p, lam.
    kind="large": P(X > x) <= exp(-x) for x >= 7*EX; pass expectation
    and x.
    """
    names = _CHERNOFF_PARAMETERS.get(kind)
    if names is None:
        raise ValueError(f"kind must be small|binomial|large, got {kind!r}")
    missing = [name for name in names if name not in params]
    unexpected = sorted(set(params) - set(names))
    if missing or unexpected:
        raise TypeError(
            f"the {kind} bound takes {names}: missing {missing}, unexpected {unexpected}"
        )
    values = [params[name] for name in names]
    if kind == "small":
        expectation, alpha = values
        if expectation < 0:
            raise ValueError("expectation must be >= 0")
        if not 0 <= alpha <= 1.5:
            raise ValueError(
                f"small-deviation bound needs alpha <= 3/2, got alpha={alpha}"
            )
        return 2 * math.exp(-(alpha**2) * expectation / 3)
    if kind == "binomial":
        n, p, lam = values
        if n <= 0 or not 0 < p <= 1:
            raise ValueError("need n > 0 and 0 < p <= 1")
        if not 0 <= lam <= 1.5 * n * p:
            raise ValueError(
                f"binomial bound needs lam <= (3/2)*n*p = {1.5 * n * p:g}, "
                f"got lam={lam}"
            )
        return math.exp(-(lam**2) / (3 * n * p))
    expectation, x = values
    if expectation < 0:
        raise ValueError("expectation must be >= 0")
    if x < 7 * expectation:
        raise ValueError(
            f"large-deviation bound needs x >= 7*expectation = "
            f"{7 * expectation:g}, got x={x}"
        )
    return math.exp(-x)


def preset_scale_parameters(n: int) -> tuple[float, int]:
    """The asymptotic preset: p = n^-0.9 and rounds = round(n^1.1)."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return n**-0.9, round(n**1.1)
