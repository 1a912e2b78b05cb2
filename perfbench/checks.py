"""Checks on every answer, run outside the timed region.

Two kinds of check, both counted per answer:

* a digest of the answer's values, certificates, witnesses and maximisers,
  compared with ``golden.json`` wherever the golden file has the answer's
  label.  Labels of seed-independent answers (thresholds, grids, rounds)
  are checked at every seed and for every ``jobs``; seed-dependent ones
  only at the default seed, where the golden file was recorded.
* an independent re-verification, at any seed, written here without the
  solver that produced the answer: matchings are disjoint edges of H,
  covers meet every edge, fractional loads are at most 1 with equal
  totals, thresholds match their pinned values and closed forms, witness
  degrees are recounted, phi is recounted, Monte Carlo lies within 0.01 of
  q_t, and sparsification outcomes are recounted from their rounds.

``problems(answer, result)`` returns a list of strings; empty means the
answer passed.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from fractions import Fraction
from pathlib import Path
from typing import Any

from hypermatch.optmatch import fractional_matching
from workloads import PINNED_THRESHOLDS, SPARSIFY_K, SPARSIFY_N, Answer

GOLDEN_PATH = Path(__file__).with_name("golden.json")


def load_golden() -> dict[str, str]:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# Digests: a canonical rendering of what an answer returned.
# ---------------------------------------------------------------------------


def _canon(value: Any) -> Any:
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (bool, int, str)) or value is None:
        return value
    if isinstance(value, dict):
        return {str(key): _canon(val) for key, val in sorted(value.items(), key=lambda kv: str(kv[0]))}
    if isinstance(value, (list, tuple)):
        return [_canon(v) for v in value]
    raise TypeError(f"cannot canonicalise {type(value).__name__}")


def _hg(h) -> list:
    return [h.k, h.n, h.edges]


def _allocation(report) -> list:
    a = report.allocation
    return [report.phi, report.success_probability, a.r, a.budget, a.x.weights]


def summary(kind: str, result: Any) -> Any:
    """The parts of a result that must stay bit-identical."""
    if kind == "certify":
        return [
            result.nu,
            result.nu_star,
            result.tau_star,
            result.tau,
            result.matching_certificate,
            result.fractional_matching.weights,
            result.fractional_cover.weights,
            result.cover_certificate,
        ]
    if kind == "threshold":
        return [result.value, _hg(result.witness)]
    if kind == "compare":
        return [
            result.integral_value,
            result.fractional_value,
            result.integral_bounds,
            result.fractional_bounds,
            result.formulas,
            result.flags,
        ]
    if kind == "grid":
        return _allocation(result)
    if kind == "sandwich":
        return [result.lower, _allocation(result.grid), result.upper, result.holds]
    if kind == "candidates":
        return [_allocation(r) for r in result]
    if kind in ("qmin", "boundary", "mc"):
        return result
    if kind == "rounds":
        return [
            result.subsets,
            [[c.name, c.passed, c.violations, c.witnesses] for c in result.checks],
            [None if m is None else [m.hypergraph.edges, m.weights] for m in result.matchings],
            result.skipped_rounds,
        ]
    if kind == "build":
        return [
            [
                b.hypergraph.edges,
                b.degrees,
                sorted(b.codegrees.items()),
                b.coverage,
                b.per_round_selected,
                b.skipped_rounds,
            ]
            for b in result
        ]
    raise ValueError(f"unknown answer kind {kind!r}")


def digest(kind: str, result: Any) -> str:
    text = json.dumps(_canon(summary(kind, result)), separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Independent re-verification.
# ---------------------------------------------------------------------------


def _matching_problems(h, matching) -> list[str]:
    edges = set(h.edges)
    used: set[int] = set()
    out = []
    for e in matching:
        if tuple(e) not in edges:
            out.append(f"matching uses {e}, not an edge of H")
        if used & set(e):
            out.append(f"matching edge {e} meets another")
        used |= set(e)
    return out


def _cover_problems(h, cover) -> list[str]:
    cset = set(cover)
    if len(cset) != len(cover) or not all(0 <= v < h.n for v in cset):
        return [f"cover {cover} repeats or leaves the vertex range"]
    missed = [e for e in h.edges if not cset.intersection(e)]
    return [f"cover misses {len(missed)} edges, first {missed[0]}"] if missed else []


def _loads(h, weights) -> list[Fraction]:
    loads = [Fraction(0)] * h.n
    for e, w in zip(h.edges, weights):
        for v in e:
            loads[v] += w
    return loads


def _fractional_pair_problems(h, matching_weights, cover_weights) -> list[str]:
    """A feasible fractional matching and cover of one total certify each other."""
    out = []
    if len(matching_weights) != h.num_edges:
        out.append("fractional matching has the wrong length")
    if any(not 0 <= w <= 1 for w in matching_weights):
        out.append("fractional matching weight outside [0, 1]")
    if any(load > 1 for load in _loads(h, matching_weights)):
        out.append("fractional matching loads a vertex above 1")
    if len(cover_weights) != h.n or any(not 0 <= w <= 1 for w in cover_weights):
        out.append("fractional cover has the wrong length or range")
    elif any(sum((cover_weights[v] for v in e), Fraction(0)) < 1 for e in h.edges):
        out.append("fractional cover leaves an edge below 1")
    if sum(matching_weights, Fraction(0)) != sum(cover_weights, Fraction(0)):
        out.append("fractional matching and cover totals differ")
    return out


def certify_problems(h, report) -> list[str]:
    out = []
    if (report.hypergraph.k, report.hypergraph.n, report.hypergraph.edges) != (h.k, h.n, h.edges):
        out.append("report is for another hypergraph")
    out += _matching_problems(h, report.matching_certificate)
    out += _cover_problems(h, report.cover_certificate)
    fm, fc = report.fractional_matching.weights, report.fractional_cover.weights
    out += _fractional_pair_problems(h, fm, fc)
    if len(report.matching_certificate) != report.nu:
        out.append("nu differs from its matching certificate")
    if len(report.cover_certificate) != report.tau:
        out.append("tau differs from its cover certificate")
    if not sum(fm, Fraction(0)) == report.nu_star == report.tau_star == sum(fc, Fraction(0)):
        out.append("nu* and tau* differ from their certificate totals")
    if not report.nu <= report.nu_star <= report.tau:
        out.append("duality chain broken")
    return out


def min_d_degree(h, d: int) -> int:
    """Minimum over all d-subsets of vertices of the number of edges containing it."""
    return min(
        sum(1 for e in h.edges if set(s) <= set(e))
        for s in itertools.combinations(range(h.n), d)
    )


def has_matching(edges: list[tuple[int, ...]], size: int, used: frozenset = frozenset()) -> bool:
    if size == 0:
        return True
    for i, e in enumerate(edges):
        if used.isdisjoint(e) and has_matching(edges[i + 1 :], size - 1, used | set(e)):
            return True
    return False


def closed_form(mode: str, k: int, n: int, d: int, s: Fraction) -> int | None:
    """The threshold value the extremal families predict, where it is known."""
    if d == 0 and k * s > n:
        return math.comb(n, k) + 1  # no s disjoint edges fit at all
    if d == 0 and mode == "integral":  # Conj1.8
        s_int = int(s)
        return max(math.comb(k * s_int - 1, k), math.comb(n, k) - math.comb(n - s_int + 1, k)) + 1
    if d == 0:  # Conj1.9
        clique = math.comb(math.ceil(k * s) - 1, k)
        cover = math.comb(n, k) - math.comb(max(n - math.ceil(s) + 1, 0), k)
        return max(clique, cover) + 1
    if mode == "fractional" and d == k - 1 and s == Fraction(n, k):
        return -(-n // k)  # the codegree threshold ceil(n/k)
    return None


def threshold_problems(query, value: int, result) -> list[str]:
    out = []
    if result.value != value:
        out.append(f"value {result.value}, pinned {value}")
    formula = closed_form(query.mode, query.k, query.n, query.d, query.s)
    if formula is not None and result.value != formula:
        out.append(f"value {result.value}, closed form {formula}")
    w = result.witness
    if (w.k, w.n) != (query.k, query.n):
        return out + ["witness has the wrong shape"]
    if min_d_degree(w, query.d) != result.value - 1:
        out.append("witness min d-degree is not value - 1")
    if query.mode == "integral":
        if has_matching(list(w.edges), int(query.s)):
            out.append("witness has the matching it must avoid")
    else:
        # Weak duality: a fractional cover of total below s proves nu* < s,
        # whoever found it.
        _, matching, cover = fractional_matching(w)
        out += _fractional_pair_problems(w, matching.weights, cover.weights)
        if cover.total() >= query.s:
            out.append("witness certificate does not prove nu* < s")
    return out


def pinned_value(mode: str, k: int, n: int, d: int, s: Fraction) -> int | None:
    for p_mode, p_k, p_n, p_d, p_s, value in PINNED_THRESHOLDS:
        if (p_mode, p_k, p_n, p_d, p_s) == (mode, k, n, d, s):
            return value
    return closed_form(mode, k, n, d, s)


def compare_problems(query, result) -> list[str]:
    out = []
    if not all(result.flags.values()):
        out.append(f"inequality web flags {result.flags}")
    s_ceil = Fraction(math.ceil(query.s))
    for mode, s, got in (
        ("integral", s_ceil, result.integral_value),
        ("fractional", query.s, result.fractional_value),
    ):
        want = pinned_value(mode, query.k, query.n, query.d, s)
        if want is None:
            out.append(f"no pinned {mode} value for {query}")
        elif got != want:
            out.append(f"{mode} value {got}, expected {want}")
    return out


def phi(weights, r: int) -> int:
    return sum(1 for subset in itertools.combinations(weights, r) if sum(subset) >= 1)


def _allocation_problems(report, n: int, r: int, budget: int, q: int | None) -> list[str]:
    out = []
    x = report.allocation.x.weights
    if len(x) != n or report.allocation.r != r:
        return ["allocation has the wrong shape"]
    if any(not 0 <= w <= 1 for w in x) or sum(x) > budget:
        out.append("allocation outside [0, 1] or over budget")
    if q is not None and (sum(x) != budget or any((w * q).denominator != 1 for w in x)):
        out.append("grid allocation off the grid or not spending the budget")
    recount = phi(x, r)
    if recount != report.phi:
        out.append(f"phi {report.phi}, recount {recount}")
    if report.success_probability != Fraction(recount, math.comb(n, r)):
        out.append("success probability is not phi / C(n, r)")
    return out


def candidate_phis(n: int, r: int, budget: int) -> list[int]:
    """Closed forms: 1/r on r*budget nodes, and 1 on budget nodes."""
    out = []
    if r * budget <= n:
        out.append(math.comb(r * budget, r))
    if budget <= n:
        out.append(math.comb(n, r) - math.comb(n - budget, r))
    return out


def grid_problems(spec, report) -> list[str]:
    n, r, budget, q, value = spec
    out = _allocation_problems(report, n, r, budget, q)
    if report.phi != value:
        out.append(f"phi {report.phi}, pinned {value}")
    if q % r == 0 and report.phi < max(candidate_phis(n, r, budget)):
        out.append("grid optimum below a closed-form candidate on the grid")
    return out


def sandwich_problems(spec, result) -> list[str]:
    n, r, budget = spec
    out = _allocation_problems(result.grid, n, r, budget, 2 * r)
    if not (result.holds and result.lower <= result.grid.phi <= result.upper):
        out.append(f"sandwich {result.lower} <= {result.grid.phi} <= {result.upper} fails")
    for side, s in ((result.lower, budget), (result.upper, budget + 1)):
        if side != closed_form("fractional", r, n, 0, Fraction(s)):
            out.append(f"threshold f({r},{n},0,{s}) = {side} misses its closed form")
    return out


def candidates_problems(spec, reports) -> list[str]:
    n, r, budget = spec
    out = []
    if [rep.phi for rep in reports] != candidate_phis(n, r, budget):
        out.append("candidate phis differ from their closed forms")
    for rep in reports:
        out += _allocation_problems(rep, n, r, budget, None)
    return out


def q_t(l: int, x: Fraction, t: int) -> Fraction:
    """Uniform means x: the l - t two-point coordinates jump w.p. x / (1 - t x)."""
    return (1 - x / (1 - t * x)) ** (l - t)


_BOUNDARY_WINDOWS = {2: ((3 - math.sqrt(5)) / 2 - 1e-3, (3 - math.sqrt(5)) / 2 + 1e-3), 3: (0.275, 0.279), 4: (0.215, 0.219)}


def samuels_problems(kind: str, spec, result) -> list[str]:
    if kind == "qmin":
        if len(result) != len(spec):
            return ["one q_min per grid point expected"]
        return [
            f"q_min({l}, {x}) = {value} at t={t}, expected (1-x)^l at t=0"
            for (l, x), (value, t) in zip(spec, result)
            if t != 0 or value != (1 - x) ** l or value != q_t(l, x, 0)
        ][:3]
    if kind == "boundary":
        low, high = _BOUNDARY_WINDOWS[spec]
        return [] if low <= result <= high else [f"boundary {result} outside [{low}, {high}]"]
    l, x, t, _ = spec
    exact = float(q_t(l, x, t))
    return [] if abs(result - exact) <= 0.01 else [f"Monte Carlo {result} off q_t = {exact}"]


def rounds_problems(plan, outcome) -> list[str]:
    """Round one of the complete base: subsets, the five check flags, the LPs."""
    out = []
    n, k = plan.base.n, plan.base.k
    subsets = outcome.subsets
    if len(subsets) != plan.rounds or (n, k) != (SPARSIFY_N, SPARSIFY_K):
        return ["wrong number of rounds or base"]
    for r in subsets:
        if list(r) != sorted(set(r)) or not all(0 <= v < n for v in r):
            out.append("a sampled subset is not a sorted vertex set")
    coverage = [sum(1 for r in subsets if v in r) for v in range(n)]
    target = plan.rounds * plan.p
    pair_counts: dict[tuple[int, int], int] = {}
    for r in subsets:
        for pair in itertools.combinations(r, 2):
            pair_counts[pair] = pair_counts.get(pair, 0) + 1
    # On the complete base an edge lies in two subsets iff they share 3 vertices,
    # and every d-set keeps its full induced degree C(|R|-d, k-d).
    expected_flags = {
        "vertex_coverage": all((2 / 3) * target <= c <= (4 / 3) * target for c in coverage),
        "pair_coverage": max(pair_counts.values(), default=0) <= 2,
        "edge_multiplicity": all(
            len(set(a) & set(b)) < k for a, b in itertools.combinations(subsets, 2)
        ),
        "subset_sizes": all((2 / 3) * n * plan.p <= len(r) <= (4 / 3) * n * plan.p for r in subsets),
        "induced_degrees": True,
    }
    got_flags = {c.name: c.passed for c in outcome.checks}
    if got_flags != expected_flags:
        out.append(f"check flags {got_flags}, recount {expected_flags}")
    if outcome.matchings is None or len(outcome.matchings) != len(subsets):
        return out + ["round matchings missing"]
    skipped = []
    for i, (r, matching) in enumerate(zip(subsets, outcome.matchings)):
        if matching is None:
            skipped.append(i)
            continue
        h = matching.hypergraph
        inside = set(r)
        if h.k != k or not all(inside.issuperset(e) for e in h.edges):
            out.append(f"round {i} matching leaves its subset")
        if len(h.edges) != math.comb(len(r), k):
            out.append(f"round {i} matching is not on the induced subhypergraph")
        loads = _loads(h, matching.weights)
        if any(not 0 <= w <= 1 for w in matching.weights) or any(
            loads[v] != (1 if v in inside else 0) for v in range(h.n)
        ):
            out.append(f"round {i} matching is not perfect on its subset")
    if tuple(skipped) != outcome.skipped_rounds:
        out.append("skipped rounds differ from the missing matchings")
    return out


def build_problems(outcome, result) -> list[str]:
    """Recount a sparse subgraph from the rounds it selected."""
    out = []
    if len(result.per_round_selected) != len(outcome.matchings):
        return ["one selection per round expected"]
    n = outcome.plan.base.n
    degrees = [0] * n
    codegrees: dict[tuple[int, int], int] = {}
    kept = set()
    for matching, selected in zip(outcome.matchings, result.per_round_selected):
        weights = {} if matching is None else dict(zip(matching.hypergraph.edges, matching.weights))
        for e in selected:
            if weights.get(e, 0) == 0:
                out.append(f"selected {e} outside its round's support")
        for e, w in weights.items():
            if w == 1 and e not in selected:
                out.append(f"dropped weight-one edge {e}")
        for e in selected:
            kept.add(e)
            for v in e:
                degrees[v] += 1
            for pair in itertools.combinations(e, 2):
                codegrees[pair] = codegrees.get(pair, 0) + 1
    coverage = tuple(sum(1 for r in outcome.subsets if v in r) for v in range(n))
    if tuple(degrees) != result.degrees or codegrees != result.codegrees:
        out.append("degrees or codegrees differ from the recount")
    if coverage != result.coverage or tuple(sorted(kept)) != result.hypergraph.edges:
        out.append("coverage or kept edges differ from the recount")
    if result.skipped_rounds != outcome.skipped_rounds:
        out.append("skipped rounds differ from round one")
    return out


def problems(answer: Answer, result: Any) -> list[str]:
    """Independent re-verification of one answer; empty when it passes."""
    kind, spec = answer.kind, answer.spec
    if kind == "certify":
        return certify_problems(spec, result)
    if kind == "threshold":
        query, value = spec
        return threshold_problems(query, value, result)
    if kind == "compare":
        return compare_problems(spec, result)
    if kind == "grid":
        return grid_problems(spec, result)
    if kind == "sandwich":
        return sandwich_problems(spec, result)
    if kind == "candidates":
        return candidates_problems(spec, result)
    if kind in ("qmin", "boundary", "mc"):
        return samuels_problems(kind, spec, result)
    if kind == "rounds":
        return rounds_problems(spec, result)
    if kind == "build":
        return [problem for build in result for problem in build_problems(spec.outcome, build)]
    raise ValueError(f"unknown answer kind {kind!r}")
