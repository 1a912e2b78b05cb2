"""Exact fraction-free revised simplex for unit packing programs.

Solves   max sum(x_j)  subject to  sum_{j: i in col_j} x_j <= 1 for every
row i, x >= 0, where each column is a set of row indices (an edge viewed as
its incident vertices).  This is the fractional matching LP; the dual read
off the final basis is a fractional vertex cover of the same value.

Nothing is rounded anywhere, and the basis is kept in integers.  With one
shared denominator D > 0 the state is  B^-1 = M/D,  x_B = X/D,
y = c_B B^-1 = Y/D  and the objective value Z/D,  with M, X, Y and Z
integer; initially D = 1, M = I, X = 1 and Y = Z = 0.  They form one
integer tableau: rows 0..m-1 hold [M | X] and row m holds [Y | Z].  For
the entering variable let d[r] = (M a)[r] for r < m, with a the entering
column, and let d[m] = -c, with c = D times its reduced cost: so
d[m] = sum(Y[r] for r in column) - D for a column, and Y[i] for slack i.
A pivot on p = d[leaving row] keeps the pivot row and replaces every other
row, row m too, by  (p*row - d[r]*pivot row) // D,  and then sets D = p.
By Sylvester's identity every such division is exact (Edmonds 1967;
Bareiss 1968): D stays |det B|, so M = D*B^-1 is the adjugate up to sign,
and as the pivot is positive D never changes sign.  Pricing reads the
exact signs of the reduced costs from Y and D: a column enters iff
sum(Y[r] for r in column) < D, a slack i iff Y[i] < 0.  Rationals are
formed once, from the final X, Y, Z and D.

Column pricing is one numpy gather per pivot.  Once per solve the columns'
rows go into a (width, ncols) index array, short columns padded with a
sentinel row m whose dual is always 0; each pivot gathers Y through it,
sums over the width and takes the first column whose sum is below D.  The
sums are exact in int64 while D and max|Y| are below 2^62 // (width + 1),
which is checked on every pivot in O(m) on the Python ints; past that bound
the same arrays are built with dtype object, whose elements are Python
ints.  No float is involved.  When the pivot p equals D, as on most pivots
of the larger LPs, a row's new value (D*a - f*b) // D is a - f*b // D, the
division again exact: so the tableau changes in place, and only where the
pivot row is nonzero, and a row with f = d[r] = 0 not at all.  Other
pivots rebuild every row but the pivot row, a row with f = 0 by scaling
alone.  The tableau stays a list of Python int lists.

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
from operator import itemgetter
from typing import Sequence

import numpy as np

__all__ = ["PackingResult", "solve_unit_packing"]

_ZERO = Fraction(0)

# Pricing sums in int64 while D and max|Y| are below this over (width + 1),
# so that no sum of width duals, and no comparison with D, can overflow.
_INT64_BOUND = 1 << 62


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
    0..n_rows-1, at least one).  Returns exact optimal primal and dual
    vectors; with no columns the optimum is 0 with an all-zero dual.
    """
    ncols = len(columns)
    cols = [tuple(col) for col in columns]
    touched = sorted(set().union(*cols))
    if (
        not all(cols)
        or (touched and (touched[0] < 0 or touched[-1] >= n_rows))
        or any(len(set(col)) != len(col) for col in cols)
    ):
        # Report the first fault in column order.
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
    m = len(touched)
    if touched[-1] != m - 1:
        label = {r: i for i, r in enumerate(touched)}
        cols = [tuple(label[r] for r in col) for col in cols]

    # Variable ids: 0..ncols-1 are structural columns, ncols..ncols+m-1 are
    # slacks.  The initial basis is the slack identity (b = 1 is feasible),
    # with zero duals and value.  Rows 0..m-1 of the tableau are [M | X],
    # row m is [Y | Z].
    denom = 1
    tab = [[int(i == j) for j in range(m)] + [1] for i in range(m)]
    tab.append([0] * (m + 1))
    basis = [ncols + i for i in range(m)]
    pivots = 0
    # Each column's rows, padded with the sentinel row m (dual 0), held as
    # (width, ncols) so that the sum runs over rows of contiguous memory,
    # and the largest D or |Y| for which the int64 sums below are exact.
    width = max(map(len, cols))
    rows = np.array([col + (m,) * (width - len(col)) for col in cols], dtype=np.intp).T.copy()
    limit = _INT64_BOUND // (width + 1)
    while True:
        # Bland pricing: the first column with positive reduced cost, else
        # the first slack with one.  A basic variable has reduced cost
        # exactly 0, so it never enters.  Z is set aside while the gather
        # reads entry m as the sentinel row's dual 0.
        ys = tab[m]
        z, ys[m] = ys[m], 0
        fits = denom < limit and max(ys) < limit and -min(ys) < limit
        gain = np.array(ys, np.int64 if fits else object).take(rows).sum(axis=0) < denom
        ys[m] = z
        entering = int(gain.argmax())
        if not gain[entering]:
            entering = next((ncols + i for i in range(m) if ys[i] < 0), -1)
        if entering < 0:
            break  # optimal: no variable has positive reduced cost

        # The entering column of the tableau: d[r] = (M a)[r] for r < m, and
        # d[m] = -(D times the reduced cost), so that every row, the
        # objective row too, is updated by the same rule.
        if entering >= ncols:
            i = entering - ncols
            d = [row[i] for row in tab]
        else:
            col = cols[entering]
            if len(col) == 1:
                i = col[0]
                d = [row[i] for row in tab]
            else:
                get = itemgetter(*col)
                d = [sum(get(row)) for row in tab]
            d[m] -= denom

        # Ratio test on X[r] / d[r], which is x_B[r] / (B^-1 a)[r] with D
        # cancelled, compared cross-multiplied.
        lr = -1
        for r in range(m):
            f = d[r]
            if f > 0:
                x = tab[r][m]
                if lr < 0 or x * fl < xl * f or (x * fl == xl * f and basis[r] < basis[lr]):
                    lr, fl, xl = r, f, x
        if lr < 0:
            raise ArithmeticError("unit packing LP cannot be unbounded")

        p = fl
        prow = tab[lr]
        if p == denom:
            # (D*a - f*b) // D is a - f*b // D, exactly: only the positions
            # where the pivot row is nonzero change, and a row with f = 0
            # not at all.
            nonzero = [(j, b) for j, b in enumerate(prow) if b]
            for r, f in enumerate(d):
                if f and r != lr:
                    row = tab[r]
                    for j, b in nonzero:
                        row[j] -= f * b // denom
        else:
            for r, f in enumerate(d):
                if r != lr:
                    if f:
                        tab[r] = [(p * a - f * b) // denom for a, b in zip(tab[r], prow)]
                    else:
                        tab[r] = [p * a // denom for a in tab[r]]
        denom = p
        basis[lr] = entering
        pivots += 1

    primal = [_ZERO] * ncols
    for r in range(m):
        if basis[r] < ncols:
            primal[basis[r]] = Fraction(tab[r][m], denom)
    dual = [_ZERO] * n_rows
    for r, v in zip(touched, tab[m]):
        dual[r] = Fraction(v, denom)
    return PackingResult(Fraction(tab[m][m], denom), tuple(primal), tuple(dual), pivots)
