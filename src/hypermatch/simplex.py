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
ints.  No float is involved.

Each column j of [M | X] is held as one Python int,
C_j = sum(T[r][j] * 2^(w*r) for r < m), a field of w signed bits a row
(Kronecker substitution); [Y | Z] stays a list.  The entering column is
packed the same way: d is C_i for slack i, and the sum of the C_i over
the column's rows for a column, since M a adds the columns of M that a
selects.  A field is read by adding the bias 2^(w-1) to every field at
once, so that no field borrows from the next, then shifting and masking.
The Bareiss rule, read down a column instead of along a row, is one rule
for every column and for [Y | Z]: with b = T[lr][j] the column's pivot-row
entry and e = d - D*2^(w*lr), the packed d with its pivot field p replaced
by p - D,

    C_j <- (p*C_j - b*e) // D,    Y_j <- (p*Y_j - b*d[m]) // D.

Field r of the numerator is p*T[r][j] - d[r]*b for r != lr, which
Sylvester's identity makes a multiple of D, and D*b for r = lr, which keeps
the pivot row.  A sum of multiples of D times powers of two is a multiple
of D, so the whole integer divides exactly and its fields are the new
entries, provided that each of them fits in its field.  A column with
b = 0 only scales by p/D, and is left as it is when p = D.

The width w follows from Hadamard's bound, |det| <= the product of the
columns' Euclidean norms.  Every basis column is a slack unit vector or a
column of at most ``width`` ones, of norm at most sqrt(width).  D = |det B|
and every entry of M, a cofactor of B, are at most width^(m/2); every
entry of X = M 1, and of d = M a, is by Cramer's rule a determinant of B
with one column replaced by the all-ones vector (norm sqrt(m)) or by a,
so at most sqrt(m * width^(m-1)).  Hence every field t has
t^2 <= m * width^m, and a signed field holds it when
2^(2(w-1)) > m * width^m, which is the integer rule ``_field_width`` meets
with the least such w.  These bounds hold for every basis the solver
visits, so no field ever spills into its neighbour.

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
from typing import Sequence

import numpy as np

__all__ = ["PackingResult", "solve_unit_packing"]

_ZERO = Fraction(0)

# Pricing sums in int64 while D and max|Y| are below this over (width + 1),
# so that no sum of width duals, and no comparison with D, can overflow.
_INT64_BOUND = 1 << 62


def _field_width(m: int, width: int) -> int:
    """The least w with 2^(2(w-1)) > m * width^m: the bits of one signed
    field of a packed column over m rows, when no column has more than
    ``width`` rows (see the module docstring)."""
    return ((m * width**m).bit_length() + 1) // 2 + 1


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
    # with zero duals and value: M = I and X = 1, packed into one integer a
    # column, and [Y | Z] = 0.
    denom = 1
    basis = [ncols + i for i in range(m)]
    pivots = 0
    # Each column's rows, padded with the sentinel row m (dual 0), held as
    # (width, ncols) so that the sum runs over rows of contiguous memory,
    # and the largest D or |Y| for which the int64 sums below are exact.
    width = max(map(len, cols))
    rows = np.array([col + (m,) * (width - len(col)) for col in cols], dtype=np.intp).T.copy()
    limit = _INT64_BOUND // (width + 1)
    w = _field_width(m, width)
    half = 1 << (w - 1)
    mask = (1 << w) - 1
    ones = ((1 << (w * m)) - 1) // mask  # a 1 in every field
    bias = half * ones  # added before a read, so that no field borrows
    shifts = range(0, w * m, w)
    packed = [1 << sh for sh in shifts] + [ones]
    ys = [0] * (m + 1)
    while True:
        # Bland pricing: the first column with positive reduced cost, else
        # the first slack with one.  A basic variable has reduced cost
        # exactly 0, so it never enters.  Z is set aside while the gather
        # reads entry m as the sentinel row's dual 0.
        z, ys[m] = ys[m], 0
        fits = denom < limit and max(ys) < limit and -min(ys) < limit
        gain = np.array(ys, np.int64 if fits else object).take(rows).sum(axis=0) < denom
        ys[m] = z
        entering = int(gain.argmax())
        if not gain[entering]:
            entering = next((ncols + i for i in range(m) if ys[i] < 0), -1)
        if entering < 0:
            break  # optimal: no variable has positive reduced cost

        # The entering column, packed: d = M a, the sum of the packed
        # columns of a's rows, and dm = -(D times the reduced cost).
        if entering >= ncols:
            i = entering - ncols
            d = packed[i]
            dm = ys[i]
        else:
            col = cols[entering]
            d = sum(map(packed.__getitem__, col))
            dm = sum(map(ys.__getitem__, col)) - denom

        # Ratio test on X[r] / d[r], which is x_B[r] / (B^-1 a)[r] with D
        # cancelled, compared cross-multiplied.
        lr = -1
        du = d + bias
        xu = packed[m] + bias
        for r, f in enumerate([(du >> sh & mask) - half for sh in shifts]):
            if f > 0:
                x = (xu >> shifts[r] & mask) - half
                if lr < 0 or x * fl < xl * f or (x * fl == xl * f and basis[r] < basis[lr]):
                    lr, fl, xl = r, f, x
        if lr < 0:
            raise ArithmeticError("unit packing LP cannot be unbounded")

        # Every column, X and [Y | Z] too, by the one rule: b is the
        # column's pivot-row entry, and e is d with its pivot field p
        # replaced by p - D, so that the pivot row comes out unchanged.
        p = fl
        shift = shifts[lr]
        e = d - (denom << shift)
        for j, c in enumerate(packed):
            b = ((c + bias) >> shift & mask) - half
            if b:
                packed[j] = (p * c - b * e) // denom
                ys[j] = (p * ys[j] - b * dm) // denom
            elif p != denom:
                packed[j] = p * c // denom
                ys[j] = p * ys[j] // denom
        denom = p
        basis[lr] = entering
        pivots += 1

    xu = packed[m] + bias
    primal = [_ZERO] * ncols
    for r, sh in enumerate(shifts):
        if basis[r] < ncols:
            primal[basis[r]] = Fraction((xu >> sh & mask) - half, denom)
    dual = [_ZERO] * n_rows
    for r, v in zip(touched, ys):
        dual[r] = Fraction(v, denom)
    return PackingResult(Fraction(ys[m], denom), tuple(primal), tuple(dual), pivots)
