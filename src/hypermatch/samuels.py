"""Small-sum probabilities for independent [0, 1] variables with fixed means.

For means mu_1 <= ... <= mu_l summing below 1, the candidate minimisers of
P(X_1 + ... + X_l < 1) are the two-point families indexed by t: the first t
variables sit at their means, the rest jump to 1 - (mu_1 + ... + mu_t) with
the probability that preserves their means.  ``q_t`` evaluates the small-sum
probability of family t exactly; ``q_min`` takes the minimum over t.  Both
work in Python integers on the means scaled to one common denominator, which
``SamuelsQuery`` computes once while it checks them: candidates are compared
by cross-multiplying, and only the answer becomes a ``Fraction``.

``monte_carlo_small_sum`` draws one stream a call, the PCG64 generator of
``SeedSequence(seed, spawn_key=(0,))``, in fixed blocks of rows into a
reused buffer.  It decides a block one group of equal jump probabilities
at a time: a row gains no jump in a group iff the least of the group's
uniforms is at least the group's dyadic threshold, which is the exact
``u < p`` comparison for every column of the group at once.  The blocks
fill the stream in the same order as one array of all the draws, so
seeded estimates do not depend on the block size, and memory stays
bounded however many samples are asked for.  A call of at least
2 * ``_MIN_RUN_WORK`` uniforms is cut into contiguous runs of its rows,
one per usable CPU and each of about ``_MIN_RUN_WORK`` uniforms or more,
with its own buffers: the first runs in the calling thread, the others in
threads joined before the call returns.  A run that starts ``start`` rows
of ``m`` uniforms into the call advances its own copy of the generator by
``start * m`` outputs, since ``Generator.random`` takes one 64-bit output
per double and an LCG jumps ahead exactly in O(log n) steps.  So every
run draws exactly the doubles one pass would, and the estimate, a sum of
integer counts, is the same for any number of runs.

The uniform-mean boundary where t = 0 stops being the minimiser is located
numerically by ``boundary_scan``: it walks a float grid up to the first
crossing and bisects to a fixed width ``_TOLERANCE``; everything else stays
rational.
"""

from __future__ import annotations

import itertools
import os
import threading
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

import numpy as np

from .hypercore import _draw_threshold, _exact, _over_lcm

__all__ = [
    "SamuelsQuery",
    "TwoPointFamily",
    "q_t",
    "q_min",
    "boundary_scan",
    "boundary_profile",
    "monte_carlo_small_sum",
]

# Rows of uniforms a Monte Carlo run draws at a time (fewer when a call is
# cut into more than two runs), so that its buffer holds at most
# _CHUNK_ROWS * l floats however many samples are asked for.
_CHUNK_ROWS = 1 << 14

# Fewest uniforms a run draws when a call is cut into several.  Starting and
# joining a thread costs about 0.16 ms on a 2-vCPU Intel Xeon, and the runs
# pass the interpreter lock back and forth between their numpy calls: there
# two runs first beat one at about 2e5 uniforms a call.  At 2^19, in medians
# of interleaved calls, families of two to four uniforms a row ran 12-25%
# faster in two in 8 of 9 passes (2% slower in the ninth); one uniform a row
# ranged from 28% slower to 19% faster as the load on the second core moved.
# So criterion 8 and the CLI default, 100k samples of at most four uniforms,
# draw in the calling thread.
_MIN_RUN_WORK = 1 << 18

# Bound on samples times l, the uniforms a Monte Carlo estimate draws.  At
# the 3.3e8 uniforms/s one thread drew on a 2-vCPU AMD EPYC it admits calls
# of about 13 s on one core, and refuses 10^11 samples at l = 3 (some 15 min
# there) before drawing any.  A call drawn on more cores ends sooner; the
# bound counts work, not time.
_MAX_WORK = 1 << 32

# Pitch of the boundary grid x = i * _STEP, i = 1, 2, ... below 1/l.
_STEP = 1e-3

# Width to which ``boundary_scan`` bisects.  On x >= _STEP the floats are
# far denser than this, so the midpoint always falls between the ends.
_TOLERANCE = 1e-6


@dataclass(frozen=True)
class SamuelsQuery:
    """Sorted nonnegative means with total below 1."""

    mus: tuple[Fraction, ...]

    def __init__(self, mus: Iterable[Fraction | int | str]):
        ms = tuple(m if type(m) is Fraction else _exact(m) for m in mus)
        if not ms:
            raise ValueError("need at least one mean")
        # Decided on integers, over the positive common denominator.
        scaled, common = _over_lcm(ms)
        if any(a < 0 for a in scaled):
            raise ValueError("means must be nonnegative")
        if any(a > b for a, b in zip(scaled, scaled[1:])):
            raise ValueError("means must be sorted nondecreasingly")
        total = sum(scaled)
        if total >= common:
            raise ValueError(f"means must sum below 1, got {Fraction(total, common)}")
        object.__setattr__(self, "mus", ms)
        # (L, a) with mu_i = a_i / L over the common denominator L, for the
        # q_t kernels; an attribute, not a field, so eq, repr and hash see
        # only the means.
        object.__setattr__(self, "_scaled", (common, tuple(scaled)))

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
    so every coordinate keeps its prescribed mean exactly.  Only t needs
    checking: a valid query has nonnegative means summing below 1, so for
    every j > t, c = (sum of mu_i over i > t) + (1 - sum of all mu_i) > mu_j
    >= 0, and each success probability mu_j / c lies in [0, 1).
    """

    query: SamuelsQuery
    t: int

    def __post_init__(self) -> None:
        if not 0 <= self.t < self.query.l:
            raise ValueError(f"need 0 <= t < l={self.query.l}, got t={self.t}")

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


def _q_terms(total: int, scaled: tuple[int, ...], t: int) -> tuple[int, int]:
    """Unreduced (numerator, denominator) of q_t from a query's (L, a).

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
    return Fraction(*_q_terms(*query._scaled, t))


def q_min(query: SamuelsQuery) -> tuple[Fraction, int]:
    """Minimum q_t over t = 0..l-1 and the smallest minimising t.

    Candidates are compared as integer cross-products; only the minimum
    becomes a ``Fraction``.
    """
    total, scaled = query._scaled
    best_num, best_den = _q_terms(total, scaled, 0)
    best_t = 0
    for t in range(1, query.l):
        num, den = _q_terms(total, scaled, t)
        if num * best_den < best_num * den:
            best_num, best_den, best_t = num, den, t
    return Fraction(best_num, best_den), best_t


def _q_uniform_float(l: int, t: int, x: float) -> float:
    # ((1 - (t+1) x) / (1 - t x))^(l - t); valid for 0 < x < 1/l.
    return ((1 - (t + 1) * x) / (1 - t * x)) ** (l - t)


def _grid(l: int) -> Iterator[float]:
    """The boundary grid x = i * _STEP, i = 1, 2, ..., below 1/l."""
    for i in itertools.count(1):
        x = i * _STEP
        if x * l >= 1:
            return
        yield x


def _admit(l: int) -> None:
    """Refuse an l with no t >= 1, or one whose grid has no point below 1/l."""
    if l < 2:
        raise ValueError(f"need l >= 2 so that t >= 1 exists, got l={l}")
    if l * _STEP >= 1:
        raise ValueError(f"the {_STEP} grid has no point below 1/l for l={l}")


def boundary_profile(l: int) -> list[tuple[float, float, float]]:
    """Rows (x, q_0(x), min over t >= 1 of q_t(x)) at x = i * _STEP below 1/l."""
    _admit(l)
    return [
        (x, _q_uniform_float(l, 0, x), min(_q_uniform_float(l, t, x) for t in range(1, l)))
        for x in _grid(l)
    ]


def boundary_scan(l: int) -> float:
    """Largest uniform mean x for which t = 0 still minimises q_t.

    Walks the grid of pitch ``_STEP`` up to the first point where
    q_0 - min_{t>=1} q_t is positive and bisects the interval before it to
    width ``_TOLERANCE``.  If t = 0 still wins at the last grid point, the
    change lies between that point and 1/l, where q_{l-1} falls to 0 and
    t = 0 loses, and that interval is bisected.  On every admitted l,
    2..999, the gap is not positive at the first grid point and changes
    sign at most once on the grid, so the walk stops at the only crossing.
    """
    _admit(l)

    def gap(x: float) -> float:
        return _q_uniform_float(l, 0, x) - min(
            _q_uniform_float(l, t, x) for t in range(1, l)
        )

    lo, hi = 0.0, 1 / l
    for x in _grid(l):
        if gap(x) > 0:
            hi = x
            break
        lo = x
    while hi - lo > _TOLERANCE:
        mid = (lo + hi) / 2
        if gap(mid) > 0:
            hi = mid
        else:
            lo = mid
    return (lo + hi) / 2


def _usable_cpus() -> int:
    """The CPUs this process may run on, or all of them where that is unknown."""
    affinity = getattr(os, "sched_getaffinity", None)
    if affinity is None:
        return os.cpu_count() or 1
    return len(affinity(0))


def _count_small(probs: list[float], seed: int, start: int, stop: int, rows: int) -> int:
    """How many of the call's rows start..stop-1 gain no jump.

    They are drawn in blocks of ``rows`` rows of ``m = len(probs)`` doubles.
    A run that starts past row 0 advances its own generator past the
    ``start * m`` doubles the rows before it took, one 64-bit output each.
    The sum stays below 1 iff the constant block (< 1 by construction)
    gains no jump, and column j jumps when u_j < t_j.  A row gains no jump
    in the columns of one threshold t iff their least uniform is >= t, so a
    block takes one running minimum and one compare per distinct threshold:
    m + 1 numpy calls for uniform means.  Thresholds and doubles are both
    multiples of 2^-53, so thresholds that decide alike are equal floats.
    """
    m = len(probs)
    groups: dict[float, list[int]] = {}
    for j, t in enumerate(probs):
        groups.setdefault(t, []).append(j)
    plan = [(t, cols[0], cols[1:]) for t, cols in groups.items()]
    size = min(rows, stop - start)
    buf = np.empty((size, m))
    # Contiguous: a minimum into a strided column of buf took twice as long.
    least = np.empty(size)
    kept = np.empty(size, dtype=bool)
    group_kept = np.empty(size, dtype=bool)
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,)))
    if start:
        rng.bit_generator.advance(start * m)
    small = 0
    for block in range(start, stop, rows):
        n = min(rows, stop - block)
        u, keep = buf[:n], kept[:n]
        rng.random(out=u)
        for g, (t, first, rest) in enumerate(plan):
            column = u[:, first]
            for j in rest:
                column = np.minimum(column, u[:, j], out=least[:n])
            if g:
                np.greater_equal(column, t, out=group_kept[:n])
                keep &= group_kept[:n]
            else:
                np.greater_equal(column, t, out=keep)
        small += int(np.count_nonzero(keep))
    return small


def monte_carlo_small_sum(family: TwoPointFamily, samples: int, seed: int = 0) -> float:
    """Empirical frequency of sum < 1 over independent draws of the family.

    Reproducible: the call draws from the first child of
    SeedSequence(seed), made when it is drawn, so the result depends only
    on (seed, samples).  The sum comparison is decided on the exact jump
    count, never on accumulated floats, and each jump on the exact
    ``u < p``.  The stream is drawn in blocks of at most ``_CHUNK_ROWS``
    rows, which take it in the order of one (samples, l) array.  The rows
    are cut into one run per usable CPU, each of about ``_MIN_RUN_WORK``
    uniforms or more; the first runs in the calling thread and the others
    in threads joined before the call returns.  More than ``_MAX_WORK``
    uniforms in all is refused before any is drawn.
    """
    return _small_count(family, samples, seed) / samples


def _small_count(family: TwoPointFamily, samples: int, seed: int) -> int:
    """How many of ``monte_carlo_small_sum``'s draws have sum < 1."""
    if samples < 1:
        raise ValueError("need at least one sample")
    probs = [_draw_threshold(p) for p in family.success_probabilities()]
    if samples * len(probs) > _MAX_WORK:
        raise ValueError(
            f"{samples} samples of {len(probs)} uniforms "
            f"exceed the work budget of {_MAX_WORK} uniforms"
        )
    runs = max(1, min(_usable_cpus(), samples * len(probs) // _MIN_RUN_WORK))
    # Blocks of _CHUNK_ROWS rows for one or two runs, smaller for more, so
    # the buffers of all runs hold at most 2 * _CHUNK_ROWS rows together
    # however many CPUs there are.
    rows = min(_CHUNK_ROWS, 2 * _CHUNK_ROWS // runs)
    cuts = [samples * w // runs for w in range(runs + 1)]
    counts = [0] * runs
    errors: list[BaseException | None] = [None] * runs

    # A run's exception is kept and raised again here once every run has
    # been joined, so a failed run can never count as zero.
    def run(w: int) -> None:
        try:
            counts[w] = _count_small(probs, seed, cuts[w], cuts[w + 1], rows)
        except BaseException as exc:
            errors[w] = exc

    threads = []
    try:
        for w in range(1, runs):
            thread = threading.Thread(target=run, args=(w,))
            thread.start()
            threads.append(thread)
        run(0)
    finally:
        for thread in threads:
            thread.join()
    for exc in errors:
        if exc is not None:
            raise exc
    return sum(counts)
