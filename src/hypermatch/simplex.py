"""Exact revised simplex for unit packing programs.

Solves   max sum(x_j)  subject to  sum_{j: i in col_j} x_j <= 1 for every
row i, x >= 0, where each column is a set of row indices (an edge viewed as
its incident vertices).  This is the fractional matching LP; the dual read
off the final basis is a fractional vertex cover of the same value.

Nothing is rounded anywhere.  The basis inverse, the basic solution and
the duals y are ``fractions.Fraction``; pricing is done in integers.  Once
per pivot the duals are scaled by their common denominator D to integers
Y = D*y, and a column enters iff  D - sum(Y[r] for r in column) > 0, a
slack i iff  Y[i] < 0.  These are the exact signs of the reduced costs.

Only the rows that some column touches enter the tableau.  A row that no
column touches keeps a basic slack, a zero dual and an untouched row of
B^-1 throughout, so leaving it out changes nothing; the dual is expanded
back to all rows with zeros.

Pivoting uses Bland's rule (smallest variable id enters, smallest basis
variable leaves among the minimum ratios), which terminates and makes the
optimal basis, hence both certificates, deterministic.  The touched rows
are relabelled in increasing order, so slack ids keep their order and the
rule's choices are those on the full row set.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Sequence

__all__ = ["PackingResult", "solve_unit_packing"]

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class PackingResult:
    value: Fraction
    primal: tuple[Fraction, ...]  # one weight per column
    dual: tuple[Fraction, ...]  # one weight per row
    pivots: int


def solve_unit_packing(
    n_rows: int, columns: Sequence[Sequence[int]]
) -> PackingResult:
    """Maximise the total column weight under unit row capacities.

    ``columns[j]`` lists the rows column j hits (distinct indices in
    0..n_rows-1).  Returns exact optimal primal and dual vectors; with no
    columns the optimum is 0 with an all-zero dual.
    """
    ncols = len(columns)
    cols = [tuple(col) for col in columns]
    for col in cols:
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
    # slacks.  The initial basis is the slack identity (b = 1 is feasible).
    binv = [[_ONE if i == j else _ZERO for j in range(m)] for i in range(m)]
    xb = [_ONE] * m
    basis = [ncols + i for i in range(m)]

    # Duals y = c_B B^-1, zero for the slack basis.
    y = [_ZERO] * m
    pivots = 0
    while True:
        # Bland pricing in integers: Y = D*y with D the common denominator.
        # A basic variable has reduced cost exactly 0, so it never enters.
        denom = 1
        for v in y:
            denom = denom // gcd(denom, v.denominator) * v.denominator
        ys = [v.numerator * (denom // v.denominator) for v in y]
        get = ys.__getitem__
        entering = next(
            (j for j, col in enumerate(cols) if denom - sum(map(get, col)) > 0), -1
        )
        if entering < 0:
            entering = next((ncols + i for i in range(m) if ys[i] < 0), -1)
        if entering < 0:
            break  # optimal: no variable has positive reduced cost

        # Direction d = B^-1 * A_entering, and the entering reduced cost.
        if entering < ncols:
            col = cols[entering]
            d = [sum((binv[r][i] for i in col), _ZERO) for r in range(m)]
            cost = Fraction(denom - sum(map(get, col)), denom)
        else:
            i = entering - ncols
            d = [binv[r][i] for r in range(m)]
            cost = -y[i]

        leaving_row = -1
        best_ratio: Fraction | None = None
        for r in range(m):
            if d[r] > 0:
                ratio = xb[r] / d[r]
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[r] < basis[leaving_row])
                ):
                    best_ratio = ratio
                    leaving_row = r
        if leaving_row < 0:
            raise ArithmeticError("unit packing LP cannot be unbounded")

        piv = d[leaving_row]
        if piv != 1:
            inv = 1 / piv
            binv[leaving_row] = [v * inv for v in binv[leaving_row]]
            xb[leaving_row] *= inv
        prow = binv[leaving_row]
        pxb = xb[leaving_row]
        for r in range(m):
            if r != leaving_row and d[r]:
                f = d[r]
                row = binv[r]
                for i in range(m):
                    if prow[i]:
                        row[i] -= f * prow[i]
                xb[r] -= f * pxb
        # The new duals are the old ones plus the entering reduced cost times
        # the pivot row of the new B^-1.
        for i in range(m):
            if prow[i]:
                y[i] += cost * prow[i]
        basis[leaving_row] = entering
        pivots += 1

    primal = [_ZERO] * ncols
    value = _ZERO
    for r in range(m):
        if basis[r] < ncols:
            primal[basis[r]] = xb[r]
            value += xb[r]
    dual = [_ZERO] * n_rows
    for r, v in zip(touched, y):
        dual[r] = v
    return PackingResult(value, tuple(primal), tuple(dual), pivots)
