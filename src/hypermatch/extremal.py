"""Extremal constructions witnessing degree-threshold lower bounds.

Three families recur in everything downstream:

* a parity obstruction (``construct_h0``): split the vertices into two
  near-equal classes and keep the k-sets meeting the first class in an odd
  number of vertices; with the class size chosen against the parity of n/k,
  no perfect matching can exist even though degrees stay high;
* a cover obstruction (``construct_h1``): keep every k-set meeting a fixed
  (s-1)-set, so no s edges can be pairwise disjoint;
* a clique obstruction (``construct_clique_plus_isolated``): a complete
  k-graph on ks-1 vertices padded with isolated vertices.

The cover and clique families' min d-degrees have one closed form each,
read by ``conjecture_values`` (the threshold predictions these families
support, keyed by short context labels) and by ``thresholds`` and ``storage``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .hypercore import Hypergraph

__all__ = [
    "ConstructionInfeasibleError",
    "ConjectureValue",
    "construct_h0",
    "construct_h1",
    "construct_clique_plus_isolated",
    "conjecture_values",
    "CONTEXTS",
]


class ConstructionInfeasibleError(ValueError):
    """No parameter choice satisfies the construction's parity constraints."""


def construct_h0(k: int, n: int) -> Hypergraph:
    """The parity obstruction on a near-balanced split.

    Requires k | n.  The first class is A = {0..a-1} where a is chosen with
    |a - (n - a)| <= 2 and parity(a) != parity(n/k); ties prefer the a
    closest to n/2 and then the smaller a.  Such an a always exists:
    floor(n/2) and floor(n/2) + 1 both qualify on size and differ in
    parity.  Edges are exactly the k-sets with an odd intersection with A.
    Any perfect matching would need n/k odd numbers summing to |A|, which
    the parity choice forbids.
    """
    if k < 1 or n < k:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    if n % k != 0:
        raise ConstructionInfeasibleError(f"k={k} must divide n={n}")
    target_parity = 1 - (n // k) % 2
    candidates = [
        a
        for a in range(n + 1)
        if abs(2 * a - n) <= 2 and a % 2 == target_parity
    ]
    a = min(candidates, key=lambda c: (abs(2 * c - n), c))
    a_set = frozenset(range(a))
    universe = Hypergraph.complete(k, n).edges
    edges = tuple(e for e in universe if len(a_set.intersection(e)) % 2 == 1)
    return Hypergraph._canonical(k, n, edges)


def construct_h1(k: int, n: int, s: int) -> Hypergraph:
    """Every k-set meeting the fixed core {0..s-2}; no s disjoint edges fit."""
    if k < 1 or n < k:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    if not 1 <= s <= n // k + 1:
        raise ConstructionInfeasibleError(f"need 1 <= s <= n/k + 1, got s={s}")
    core = frozenset(range(s - 1))
    universe = Hypergraph.complete(k, n).edges
    edges = tuple(e for e in universe if core.intersection(e))
    return Hypergraph._canonical(k, n, edges)


def _h1_min_degree(k: int, n: int, d: int, core: int) -> int:
    """Min d-degree of ``construct_h1``: the k-sets meeting a ``core``-set.

    A d-set meeting the core lies in all C(n-d, k-d) k-sets through it; one
    avoiding the core misses the C(n-d-core, k-d) of them that avoid the
    core too.  When every d-set meets the core, n-d-core < 0 and the clamp
    to C(0, k-d) = 0 (d < k) subtracts nothing.
    """
    return math.comb(n - d, k - d) - math.comb(max(n - d - core, 0), k - d)


def construct_clique_plus_isolated(k: int, n: int, s: int) -> Hypergraph:
    """A complete k-graph on {0..ks-2} plus isolated vertices up to n-1.

    The clique spans ks-1 vertices, one short of s disjoint edges, so its
    matching number is s-1 while its edge count is binom(ks-1, k).
    """
    if k < 1 or n < k:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    if s < 1 or k * s - 1 > n:
        raise ConstructionInfeasibleError(
            f"need 1 <= s with k*s-1 <= n, got s={s}"
        )
    # An in-order filter of the k-subsets of 0..n-1: those inside 0..ks-2.
    edges = tuple(itertools.combinations(range(k * s - 1), k))
    return Hypergraph._canonical(k, n, edges)


def _clique_min_degree(k: int, n: int, d: int, span: int) -> int:
    """Min d-degree of the complete k-graph on 0..span-1 padded to n vertices.

    For d >= 1 a d-set through an isolated vertex has degree 0, and with
    none isolated every d-set has degree C(n-d, k-d).
    """
    if d == 0:
        return math.comb(span, k)
    if span < n:
        return 0
    return math.comb(n - d, k - d)


@dataclass(frozen=True)
class ConjectureValue:
    """One evaluated threshold formula.

    ``coefficient`` carries asymptotic leading coefficients (a rational in
    [0, 1]); ``count`` carries exact finite edge or degree counts.  Exactly
    one of the two is set, depending on the context.
    """

    context: str
    parameters: dict[str, object]
    coefficient: Fraction | None = None
    count: int | None = None

    def __post_init__(self) -> None:
        if (self.coefficient is None) == (self.count is None):
            raise ValueError("exactly one of coefficient/count must be set")
        if self.coefficient is not None and not 0 <= self.coefficient <= 1:
            raise AssertionError(f"coefficient {self.coefficient} outside [0, 1]")
        if self.count is not None and self.count < 0:
            raise AssertionError(f"count {self.count} negative")


_COR17_PAIRS = {(4, 1), (5, 1), (5, 2), (6, 2), (7, 3)}

# The parameters each context reads, in the order a missing one is named.
_PARAMETERS = {
    "Eq3": ("k", "d"),
    "Eq4": ("k", "d"),
    "Conj1.2": ("k", "d"),
    "Conj1.5": ("k", "d"),
    "Conj1.8": ("k", "n", "s"),
    "Conj1.9": ("l", "m", "s"),
    "Cor1.7": ("k", "d"),
    "f_{k-1}-exact": ("k", "n"),
}

CONTEXTS = tuple(_PARAMETERS)


def conjecture_values(
    context: str,
    *,
    k: int | None = None,
    n: int | None = None,
    s: Fraction | int | None = None,
    d: int | None = None,
    l: int | None = None,
    m: int | None = None,
) -> ConjectureValue:
    """Evaluate a named threshold formula at the given parameters.

    Contexts "Eq3"/"Conj1.2" and "Eq4"/"Conj1.5" are asymptotic degree
    coefficients in (k, d); "Cor1.7" restricts the former to its five
    established (k, d) pairs; "Conj1.8" (k, n, s) and "Conj1.9" (l, m, s)
    are exact extremal counts plus one; "f_{k-1}-exact" (k, n) is the known
    codegree threshold ceil(n/k).
    """
    if context not in _PARAMETERS:
        raise ValueError(f"unknown context {context!r}; known: {', '.join(CONTEXTS)}")
    given = {"k": k, "n": n, "s": s, "d": d, "l": l, "m": m}
    missing = [name for name in _PARAMETERS[context] if given[name] is None]
    if missing:
        raise ValueError(f"context {context} requires parameters: {', '.join(missing)}")

    if context == "f_{k-1}-exact":
        if not 1 <= k <= n:
            raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
        return ConjectureValue(context, {"k": k, "n": n}, count=-(-n // k))

    if context in ("Conj1.8", "Conj1.9"):
        # Conj1.9 is Conj1.8's fractional form, on an l-graph with m vertices.
        uniformity, order, _ = _PARAMETERS[context]
        if context == "Conj1.8":
            target = int(s)
            if target != s or target < 1 or k * target > n:
                raise ValueError(f"need integral 1 <= s <= n/k, got s={s}")
        else:
            k, n, target = l, m, Fraction(s)
            if target <= 0 or k * target > n:
                raise ValueError(f"need 0 < s <= m/l, got s={s}")
        if not 1 <= k <= n:
            raise ValueError(
                f"need 1 <= {uniformity} <= {order}, got {uniformity}={k}, {order}={n}"
            )
        clique = _clique_min_degree(k, n, 0, math.ceil(k * target) - 1)
        cover = _h1_min_degree(k, n, 0, math.ceil(target) - 1)
        return ConjectureValue(
            context,
            {uniformity: k, order: n, "s": target},
            count=max(clique, cover) + 1,
        )

    # The five coefficient contexts: the mass a random k-set leaves behind,
    # 1 - ((k-1)/k)^(k-d), floored at 1/2 in Eq3 and its two restatements.
    if not 1 <= d <= k - 1:
        raise ValueError(f"need 1 <= d <= k-1, got k={k}, d={d}")
    if context == "Cor1.7" and (k, d) not in _COR17_PAIRS:
        raise ValueError(
            f"Cor1.7 is established only at {sorted(_COR17_PAIRS)}, got {(k, d)}"
        )
    coeff = 1 - Fraction(k - 1, k) ** (k - d)
    if context in ("Eq3", "Conj1.2", "Cor1.7"):
        coeff = max(Fraction(1, 2), coeff)
    return ConjectureValue(context, {"k": k, "d": d}, coefficient=coeff)
