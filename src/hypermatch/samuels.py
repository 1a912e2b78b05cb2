"""Small-sum probabilities for independent [0, 1] variables with fixed means.

For means mu_1 <= ... <= mu_l summing below 1, the candidate minimisers of
P(X_1 + ... + X_l < 1) are the two-point families indexed by t: the first t
variables sit at their means, the rest jump to 1 - (mu_1 + ... + mu_t) with
the probability that preserves their means.  ``q_t`` evaluates the small-sum
probability of family t exactly; ``q_min`` takes the minimum over t.  Both
scale the means to one common denominator and work in Python integers:
candidates are compared by cross-multiplying, and only the answer becomes a
``Fraction``.

``monte_carlo_small_sum`` draws each shard in fixed blocks of rows into one
reused buffer and decides a block column by column with the exact
``u < p`` comparison.  The blocks fill the generator's stream in the same
order as one array of all the draws, so seeded estimates do not depend on
the block size, and memory stays bounded however many samples are asked
for.

The uniform-mean boundary where t = 0 stops being the minimiser is located
numerically by ``boundary_scan``; the grid and bisection run in floating
point with an explicit tolerance, everything else stays rational.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .hypercore import _draw_threshold

__all__ = [
    "SamuelsQuery",
    "TwoPointFamily",
    "q_t",
    "q_min",
    "prop23_check",
    "boundary_scan",
    "boundary_profile",
    "monte_carlo_small_sum",
    "edge_count_bound",
]

# Rows of uniforms a Monte Carlo shard draws at a time, so that its buffer
# holds _CHUNK_ROWS * l floats however many samples are asked for.
_CHUNK_ROWS = 1 << 14

# Bound on samples times l, the uniforms a Monte Carlo estimate draws.  At
# the 3.3e8 uniforms/s measured on a 2-vCPU AMD EPYC it admits runs of about
# 13 s, and refuses 10^11 samples at l = 3 (some 15 min) before drawing any.
_MAX_WORK = 1 << 32

# What each shard after the first adds to the work, in uniforms: a shard's
# generator set-up (about 12 us on the same machine) costs about as much as
# drawing 2^12 uniforms.  The one shard every run has is not charged, so a
# single shard is admitted for exactly _MAX_WORK uniforms, as before.
_SHARD_WORK = 1 << 12


def _exact(value: Fraction | int | str) -> Fraction:
    if isinstance(value, float):
        raise TypeError(
            "pass rationals as Fraction/int/str; floats are not exact"
        )
    return Fraction(value)


@dataclass(frozen=True)
class SamuelsQuery:
    """Sorted nonnegative means with total below 1."""

    mus: tuple[Fraction, ...]

    def __init__(self, mus: Iterable[Fraction | int | str]):
        ms = tuple(_exact(m) for m in mus)
        if not ms:
            raise ValueError("need at least one mean")
        if any(m < 0 for m in ms):
            raise ValueError("means must be nonnegative")
        if any(a > b for a, b in zip(ms, ms[1:])):
            raise ValueError("means must be sorted nondecreasingly")
        if sum(ms) >= 1:
            raise ValueError(f"means must sum below 1, got {sum(ms)}")
        object.__setattr__(self, "mus", ms)

    @classmethod
    def uniform(cls, l: int, x: Fraction | int | str) -> "SamuelsQuery":
        if l < 1:
            raise ValueError(f"need l >= 1, got {l}")
        return cls((_exact(x),) * l)

    @property
    def l(self) -> int:
        return len(self.mus)


@dataclass(frozen=True)
class TwoPointFamily:
    """The t-th candidate family for a query: t constants, l-t two-pointers.

    Coordinate i <= t is the constant mu_i; coordinate i > t takes the value
    c = 1 - (mu_1 + ... + mu_t) with probability mu_i / c and 0 otherwise,
    so every coordinate keeps its prescribed mean exactly.
    """

    query: SamuelsQuery
    t: int

    def __post_init__(self) -> None:
        if not 0 <= self.t < self.query.l:
            raise ValueError(f"need 0 <= t < l={self.query.l}, got t={self.t}")
        for p in self.success_probabilities():
            if not 0 <= p <= 1:
                raise ValueError(f"success probability {p} outside [0, 1]")

    def jump_value(self) -> Fraction:
        return 1 - sum(self.query.mus[: self.t], Fraction(0))

    def success_probabilities(self) -> tuple[Fraction, ...]:
        c = self.jump_value()
        return tuple(m / c for m in self.query.mus[self.t :])

    def means(self) -> tuple[Fraction, ...]:
        """Exact per-coordinate means; equals the query means by design."""
        c = self.jump_value()
        constants = self.query.mus[: self.t]
        jumps = tuple(c * p for p in self.success_probabilities())
        return constants + jumps


def _scaled_means(query: SamuelsQuery) -> tuple[int, list[int]]:
    """(L, a) with mu_i = a_i / L over the common denominator L."""
    total = math.lcm(*(m.denominator for m in query.mus))
    return total, [m.numerator * (total // m.denominator) for m in query.mus]


def _q_terms(total: int, scaled: list[int], t: int) -> tuple[int, int]:
    """Unreduced (numerator, denominator) of q_t from ``_scaled_means``.

    With C = L - (a_1 + ... + a_t), family t jumps with p_i = a_i / C, so
    q_t = prod_{i > t} (C - a_i) / C^(l - t); every factor is positive
    because the means sum below 1.
    """
    c = total - sum(scaled[:t])
    numerator = 1
    for a in scaled[t:]:
        numerator *= c - a
    return numerator, c ** (len(scaled) - t)


def q_t(query: SamuelsQuery, t: int) -> Fraction:
    """Small-sum probability of the t-th two-point family, exactly.

    The constant block contributes strictly less than 1, so the sum stays
    below 1 iff no two-point coordinate jumps: the product of (1 - p_i).
    """
    TwoPointFamily(query, t)  # checks t
    return Fraction(*_q_terms(*_scaled_means(query), t))


def q_min(query: SamuelsQuery) -> tuple[Fraction, int]:
    """Minimum q_t over t = 0..l-1 and the smallest minimising t.

    Candidates are compared as integer cross-products; only the minimum
    becomes a ``Fraction``.
    """
    total, scaled = _scaled_means(query)
    best_num, best_den = _q_terms(total, scaled, 0)
    best_t = 0
    for t in range(1, query.l):
        num, den = _q_terms(total, scaled, t)
        if num * best_den < best_num * den:
            best_num, best_den, best_t = num, den, t
    return Fraction(best_num, best_den), best_t


def prop23_check(l: int, x: Fraction | int | str) -> bool:
    """Is t = 0 a minimiser for uniform means x, with value (1-x)^l?

    Exact at rational x; ties count as success.
    """
    query = SamuelsQuery.uniform(l, x)
    best, best_t = q_min(query)
    return best_t == 0 and best == (1 - _exact(x)) ** l


def _q_uniform_float(l: int, t: int, x: float) -> float:
    # ((1 - (t+1) x) / (1 - t x))^(l - t); valid for 0 < x < 1/l.
    return ((1 - (t + 1) * x) / (1 - t * x)) ** (l - t)


def boundary_profile(
    l: int, step: float = 1e-3
) -> list[tuple[float, float, float]]:
    """Rows (x, q_0(x), min over t >= 1 of q_t(x)) across 0 < x < 1/l."""
    if l < 2:
        raise ValueError(f"need l >= 2 so that t >= 1 exists, got l={l}")
    rows = []
    count = int(1 / (l * step))
    for i in range(1, count + 1):
        x = i * step
        if x * l >= 1:
            break
        q0 = _q_uniform_float(l, 0, x)
        rest = min(_q_uniform_float(l, t, x) for t in range(1, l))
        rows.append((x, q0, rest))
    return rows


def boundary_scan(l: int, tolerance: float = 1e-6) -> float:
    """Largest uniform mean x for which t = 0 still minimises q_t.

    Scans a fixed grid of pitch 1e-3 for the first sign change of
    q_0 - min_{t>=1} q_t, confirms the change is unique on the grid (a
    second change is reported as a warning but the first is returned), and
    bisects to the requested tolerance, or until the floats between the
    ends run out.
    """
    if l < 2:
        raise ValueError(f"need l >= 2, got l={l}")
    if not (math.isfinite(tolerance) and tolerance > 0):
        raise ValueError(f"tolerance must be positive and finite, got {tolerance}")

    def gap(x: float) -> float:
        return _q_uniform_float(l, 0, x) - min(
            _q_uniform_float(l, t, x) for t in range(1, l)
        )

    rows = boundary_profile(l, step=1e-3)
    if not rows:
        raise ValueError(f"the 1e-3 grid has no point below 1/l for l={l}")
    first_positive = None
    for i, (x, q0, rest) in enumerate(rows):
        if q0 - rest > 0:
            first_positive = i
            break
    if first_positive is None:
        return rows[-1][0]
    if first_positive == 0:
        raise ValueError(f"t = 0 already loses at the smallest grid point for l={l}")
    for x, q0, rest in rows[first_positive:]:
        if q0 - rest <= 0:
            warnings.warn(
                f"multiple sign changes on the l={l} grid; reporting the first",
                RuntimeWarning,
                stacklevel=2,
            )
            break
    lo = rows[first_positive - 1][0]
    hi = rows[first_positive][0]
    while hi - lo > tolerance:
        mid = (lo + hi) / 2
        if not lo < mid < hi:
            break
        if gap(mid) > 0:
            hi = mid
        else:
            lo = mid
    return (lo + hi) / 2


def monte_carlo_small_sum(
    family: TwoPointFamily,
    samples: int,
    seed: int = 0,
    shards: int = 1,
) -> float:
    """Empirical frequency of sum < 1 over independent draws of the family.

    Reproducible: shard i draws from the i-th child of SeedSequence(seed),
    made when the shard is drawn, so the result depends only on (seed,
    samples, shards); the default plan is a single shard.  The sum
    comparison is decided on the exact jump count, never on accumulated
    floats, and each jump on the exact ``u < p``.  Shards are drawn in
    blocks of ``_CHUNK_ROWS`` rows, which take the stream in the order of
    one (count, l) array.  More than ``_MAX_WORK`` uniforms in all, each
    shard after the first counted as ``_SHARD_WORK`` more, is refused
    before any is drawn.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    if shards < 1 or shards > samples:
        raise ValueError(f"need 1 <= shards <= samples, got {shards}")
    probs = [_draw_threshold(p) for p in family.success_probabilities()]
    if samples * len(probs) + (shards - 1) * _SHARD_WORK > _MAX_WORK:
        raise ValueError(
            f"{samples} samples of {len(probs)} uniforms in {shards} shards "
            f"exceed the work budget of {_MAX_WORK} uniforms"
        )
    base, extra = divmod(samples, shards)
    buf = np.empty((_CHUNK_ROWS, len(probs)))
    jumped = np.empty(_CHUNK_ROWS, dtype=bool)
    column = np.empty(_CHUNK_ROWS, dtype=bool)
    small = 0
    for i in range(shards):
        count = base + (i < extra)
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i,)))
        for start in range(0, count, _CHUNK_ROWS):
            n = min(_CHUNK_ROWS, count - start)
            u, hit, col = buf[:n], jumped[:n], column[:n]
            rng.random(out=u)
            # Sum < 1 iff the constant block (< 1 by construction) gains no
            # jump: coordinate j jumps when u_j < p_j.
            np.less(u[:, 0], probs[0], out=hit)
            for j in range(1, len(probs)):
                np.less(u[:, j], probs[j], out=col)
                hit |= col
            small += n - int(np.count_nonzero(hit))
    return small / samples


def edge_count_bound(
    weights: Sequence[Fraction], l: int
) -> tuple[int, int]:
    """(N, binom(n, l) - N) where N counts l-subsets of total weight < 1.

    The second component is the edge count of the weight-threshold
    hypergraph, hence an upper bound for any hypergraph whose fractional
    cover the weights form.
    """
    ws = [Fraction(w) for w in weights]
    n = len(ws)
    if not 1 <= l <= n:
        raise ValueError(f"need 1 <= l <= n={n}, got l={l}")
    small = sum(
        1
        for combo in itertools.combinations(ws, l)
        if sum(combo, Fraction(0)) < 1
    )
    return small, math.comb(n, l) - small
