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

``conjecture_values`` evaluates the closed-form threshold predictions that
these families support, keyed by short context labels.
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
    edges = tuple(
        e
        for e in itertools.combinations(range(n), k)
        if len(a_set.intersection(e)) % 2 == 1
    )
    return Hypergraph._canonical(k, n, edges)


def construct_h1(k: int, n: int, s: int) -> Hypergraph:
    """Every k-set meeting the fixed core {0..s-2}; no s disjoint edges fit."""
    if k < 1 or n < k:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    if not 1 <= s <= n // k + 1:
        raise ConstructionInfeasibleError(f"need 1 <= s <= n/k + 1, got s={s}")
    core = frozenset(range(s - 1))
    edges = tuple(
        e for e in itertools.combinations(range(n), k) if core.intersection(e)
    )
    return Hypergraph._canonical(k, n, edges)


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


def _survival_coefficient(k: int, d: int) -> Fraction:
    # Probability mass a random k-set leaves behind: 1 - ((k-1)/k)^(k-d).
    return 1 - Fraction(k - 1, k) ** (k - d)


_COR17_PAIRS = {(4, 1), (5, 1), (5, 2), (6, 2), (7, 3)}

CONTEXTS = (
    "Eq3",
    "Eq4",
    "Conj1.2",
    "Conj1.5",
    "Conj1.8",
    "Conj1.9",
    "Cor1.7",
    "f_{k-1}-exact",
)


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
    if context in ("Eq3", "Conj1.2", "Cor1.7"):
        _need(context, k=k, d=d)
        assert k is not None and d is not None
        if not 1 <= d <= k - 1:
            raise ValueError(f"need 1 <= d <= k-1, got k={k}, d={d}")
        if context == "Cor1.7" and (k, d) not in _COR17_PAIRS:
            raise ValueError(
                f"Cor1.7 is established only at {sorted(_COR17_PAIRS)}, got {(k, d)}"
            )
        coeff = max(Fraction(1, 2), _survival_coefficient(k, d))
        return ConjectureValue(context, {"k": k, "d": d}, coefficient=coeff)

    if context in ("Eq4", "Conj1.5"):
        _need(context, k=k, d=d)
        assert k is not None and d is not None
        if not 1 <= d <= k - 1:
            raise ValueError(f"need 1 <= d <= k-1, got k={k}, d={d}")
        return ConjectureValue(
            context, {"k": k, "d": d}, coefficient=_survival_coefficient(k, d)
        )

    if context == "Conj1.8":
        _need(context, k=k, n=n, s=s)
        assert k is not None and n is not None and s is not None
        s_int = int(s)
        if s_int != s or s_int < 1 or k * s_int > n:
            raise ValueError(f"need integral 1 <= s <= n/k, got s={s}")
        clique = math.comb(k * s_int - 1, k)
        cover = math.comb(n, k) - math.comb(n - s_int + 1, k)
        return ConjectureValue(
            context, {"k": k, "n": n, "s": s_int}, count=max(clique, cover) + 1
        )

    if context == "Conj1.9":
        _need(context, l=l, m=m, s=s)
        assert l is not None and m is not None and s is not None
        s_frac = Fraction(s)
        if s_frac <= 0 or l * s_frac > m:
            raise ValueError(f"need 0 < s <= m/l, got s={s}")
        clique = math.comb(math.ceil(l * s_frac) - 1, l)
        cover = math.comb(m, l) - math.comb(max(m - math.ceil(s_frac) + 1, 0), l)
        return ConjectureValue(
            context, {"l": l, "m": m, "s": s_frac}, count=max(clique, cover) + 1
        )

    if context == "f_{k-1}-exact":
        _need(context, k=k, n=n)
        assert k is not None and n is not None
        if not 1 <= k <= n:
            raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
        return ConjectureValue(context, {"k": k, "n": n}, count=-(-n // k))

    raise ValueError(f"unknown context {context!r}; known: {', '.join(CONTEXTS)}")


def _need(context: str, **params: object) -> None:
    missing = [name for name, value in params.items() if value is None]
    if missing:
        raise ValueError(f"context {context} requires parameters: {', '.join(missing)}")
