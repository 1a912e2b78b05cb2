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
sum(Y[r] for r in column) < D, a slack i iff Y[i] < 0.  The result
carries the final D, X (per column, 0 off the basis), Y (per row) and Z
as integers, and its rationals are formed once from them, one Fraction
per distinct numerator.

Pricing computes s_j = sum(Y[r] for r in column j) for every column and
takes the first j with s_j < D.  It takes one of two paths, chosen before
the set-up: an LP whose rows are Python ints, in columns of one nonzero
width, prices with the numpy gather below iff bound * ncols * v (v below,
taken at bound) reaches ``_PACKED_PRICING_CUT``, where
bound = min(n_rows, ncols * width) is at least the touched count m; every
other LP prices on packed integers.  Both take Bland's column, so the
choice changes no pivot.

Small LPs price on packed integers (Kronecker substitution across the
columns).  Once per solve each touched row r gets
A_r = sum(2^(v*j) for j with r in column j), and each pivot forms

    S = sum(Y[r] * A_r) + sum((2^(v-1) - D) * 2^(v*j)),

one big-integer multiply-add per row.  Field j of S is s_j - D + 2^(v-1),
which lies in [0, 2^v) when |s_j - D| < 2^(v-1), so the fields do not
overlap and the top bit of field j is clear exactly when s_j < D.  The
entering column is the lowest field whose top bit is clear, which is
Bland's choice, so no pivot changes.  The width v follows from Hadamard's
bound on the bordered basis: s_j - D is D times minus column j's reduced
cost 1 - y a_j, and by the Schur complement D * (1 - c_B B^-1 a_j) is,
up to sign, det [[B, a_j], [c_B, 1]], as D = |det B|.  Each of its m + 1
columns is a basis column with its cost below it (at most width + 1 ones,
or a slack unit vector) or a_j over 1, of norm at most sqrt(width + 1), so
|s_j - D| <= (width + 1)^((m + 1) / 2).  A field holds it when
2^(2(v-1)) > (width + 1)^(m + 1), which ``_price_width`` meets with the
least such v.  A pivot costs O(m * ncols * v) bit operations and a handful
of interpreter steps, where the numpy gather below costs four numpy calls
whatever the size.  The cut, 2^16, is where the two cross.  Over the 916
seed-1 certify LPs that have columns (2-vCPU Intel Xeon, Python 3.11.7),
a solve priced on packed integers took 0.60-0.85 of the gather's time in
each octave of packed size below 2^16, 0.98 in [2^16, 2^17) and 1.23 in
[2^17, 2^18); the four criterion-9 round LPs, of 2^20 to 2^23, took
2.1-6.7 times as long.  862 of those 916 LPs fall below the cut (their
median has 20 columns), and no round LP does.

Larger LPs price with numpy gathers.  Once per solve the columns' rows go
into (width, block) index arrays of at most ``_GATHER_BLOCK`` columns each;
each pivot gathers Y[0..m-1] through the first block, sums over the width
and takes the first column whose sum is below D.  Only if that block has
none does it go on to the next, and so on, so the column it takes is the
one a single gather over all columns would take.  Bland's entering column lies early:
over the 1,827 column pivots of the four criterion-9 round LPs its median
position is 0.30 of the way along.  A block is worth its fixed cost, about
1.6 us a gather against 1.5 ns a column of width 3 (2-vCPU AMD EPYC, numpy
2.4.6), only when it is some thousand columns or more; those four solves
took 37.7 ms with blocks of 512 columns, 33 ms with 1024, 32 ms with 2048,
33 ms with 4096 and 37.7 ms with one gather, hence blocks of 2048.  An LP
of at most one block prices with one gather, as before.  The sums are
exact in int64 while D and max|Y| are below 2^62 // (width + 1), which is
checked on every pivot in O(m) on the Python ints; past that bound the
same arrays are gathered with dtype object, whose elements are Python
ints.  No float is involved on either path.

A gather LP is set up from one (ncols, width) array of its rows: the
columns themselves when they are a two-dimensional integer numpy array,
such as ``Hypergraph.edge_array``, or else read once with ``np.fromiter``,
never before the test that they are Python ints (fromiter reads 1.5 as 1
and '3' as 3; a row past the intp range is a fault).  Its minimum and
maximum are the range check.  It is then copied once to a (width, ncols)
intp array, in which ``np.bincount`` gives the touched rows and a
repeated row is two equal positions of one column, found by comparing
the array with itself shifted down by 1..width-1 rows, each a row of
contiguous memory.  That array, cut into blocks and relabelled through a
lookup array indexed by row, gives the index arrays; each pivot reads
the entering column from it.

A packed LP, or a gather LP whose array shows a fault, is copied and
checked column by column, so the first faulty column is the one named;
an array is read as its ``tolist()`` for that, and so is any array that
is not two-dimensional, of integers and of nonzero width.
Columns of one width are cleared of repeats position by position (``zip``
and ``operator.lt``, as for a ``Hypergraph``'s edges), and only if some
column is not increasing does each get a set.  The indicators A_r are
built over rows 0..max touched and then kept for the touched rows.  On
either path only the entering column is relabelled, once per pivot,
through one list indexed by row.

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

The ratio test reads two sign masks off the packed d and X.  Field r of
d + bias is d[r] + 2^(w-1), which is at least 1 as |d[r]| < 2^(w-1), so
subtracting ``ones`` (a 1 in every field) borrows across no field, and
the top bit of field r of d + bias - ones is set iff d[r] >= 1: masked
with the top bits, which ``bias`` holds, these are the rows the test
admits.  X >= 0 always, as it starts at 1 and the ratio test keeps x_B
feasible, so the top bit of field r of X + bias - ones is clear iff
X[r] = 0, which gives the second mask.  A row in both masks has ratio 0,
the least there is, so if there are such rows only they are visited and
the one with the least basis id among them leaves; otherwise only the
rows of the first mask are visited.  Either way the leaving row is
Bland's, the one a scan of every row picks.

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

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from operator import index, lt, mul
from typing import Sequence

import numpy as np
from numpy import ndarray

__all__ = ["PackingResult", "solve_unit_packing"]

_ZERO = Fraction(0)

# Equal-width LPs of Python ints whose packed size bound * ncols * v
# reaches this price with the numpy gather, the rest on packed integers (see
# the module docstring).
_PACKED_PRICING_CUT = 1 << 16

# The gather prices at most this many columns at a time (see the module
# docstring).
_GATHER_BLOCK = 2048

# The gather sums in int64 while D and max|Y| are below this over
# (width + 1), so that no sum of width duals, and no comparison with D, can
# overflow.
_INT64_BOUND = 1 << 62


def _signed_bits(bound: int) -> int:
    """The least w with 2^(2(w-1)) > bound: a signed field of w bits holds
    every t with t^2 <= bound."""
    return (bound.bit_length() + 1) // 2 + 1


def _field_width(m: int, width: int) -> int:
    """The least w with 2^(2(w-1)) > m * width^m: the bits of one signed
    field of a packed column over m rows, when no column has more than
    ``width`` rows (see the module docstring)."""
    return _signed_bits(m * width**m)


def _price_width(m: int, width: int) -> int:
    """The least v with 2^(2(v-1)) > (width + 1)^(m + 1): the bits of one
    field of the packed pricing sum (see the module docstring)."""
    return _signed_bits((width + 1) ** (m + 1))


def _repeats_a_row(cols: list[tuple], widths: set[int]) -> bool:
    """Whether some column lists a row twice.

    Columns of one width that are all strictly increasing, as a
    ``Hypergraph``'s edges are, pass position by position (the i-th rows of
    all columns below their (i+1)-th rows) with no set per column; a set a
    column is built only when that test fails.
    """
    if len(widths) == 1:
        by_pos = list(zip(*cols))
        if all(all(map(lt, a, b)) for a, b in zip(by_pos, by_pos[1:])):
            return False
    return any(len(set(col)) != len(col) for col in cols)


@dataclass(frozen=True)
class PackingResult:
    value: Fraction
    primal: tuple[Fraction, ...]  # one weight per column
    dual: tuple[Fraction, ...]  # one weight per row
    pivots: int
    # The same optimum in integers over one denominator D > 0:
    # value = Z/D, primal[j] = X[j]/D and dual[i] = Y[i]/D, the Fractions
    # being formed from exactly these integers.  None when a result is made
    # from its Fractions alone; left out of equality and repr.
    denom: int | None = field(default=None, compare=False, repr=False)
    x: tuple[int, ...] | None = field(default=None, compare=False, repr=False)
    y: tuple[int, ...] | None = field(default=None, compare=False, repr=False)
    z: int | None = field(default=None, compare=False, repr=False)


def solve_unit_packing(
    n_rows: int, columns: Sequence[Sequence[int]] | ndarray
) -> PackingResult:
    """Maximise the total column weight under unit row capacities.

    ``columns[j]`` lists the rows column j hits (distinct indices in
    0..n_rows-1, at least one).  ``columns`` may also be a two-dimensional
    integer numpy array, one column a row, such as ``Hypergraph.edge_array``;
    it solves exactly as its ``tolist()`` does.  Returns exact optimal
    primal and dual vectors; with no columns the optimum is 0 with an
    all-zero dual.

    The columns are checked on every call, a ``Hypergraph``'s edges
    included, and the first faulty column is named.
    """
    given = n_rows
    try:
        n_rows = index(n_rows)
    except TypeError:
        n_rows = -1
    if n_rows < 0:
        raise ValueError(f"n_rows must be a non-negative integer, not {given!r}")
    ncols = len(columns)
    # The columns as one (ncols, width) integer array, if they are one.  A
    # given integer array of one nonzero width is an LP of ints; any other
    # array is read as its lists, so that it solves, or fails, as they do.
    array = None
    if isinstance(columns, ndarray):
        if columns.ndim == 2 and columns.dtype.kind in "iu" and columns.size:
            array = columns
            exact, widths = True, {columns.shape[1]}
        else:
            columns = columns.tolist()
    if array is None:
        # The sum stays an int only if every row is one (bools aside): a row
        # such as 1.0 would pass the range test and fail as a list index.
        try:
            widths = set(map(len, columns))
            exact = type(sum(chain.from_iterable(columns))) is int
        except TypeError:
            exact = False
    # The pricing path is chosen first, on bound >= m in place of the touched
    # count m (see the module docstring).  A gather LP is checked and set up
    # from that array, or one read from the lists; a packed LP, or a gather
    # LP with a fault, is copied and checked column by column, so the first
    # faulty column is named.
    by_row = None
    if exact and len(widths) == 1 and 0 not in widths:
        (width,) = widths
        bound = min(n_rows, ncols * width)
        if bound * ncols * _price_width(bound, width) >= _PACKED_PRICING_CUT:
            if array is None:
                try:
                    # Only after the exact test: np.fromiter reads 1.5 as 1 and
                    # '3' as 3.  A row past the intp range is a fault.
                    array = np.fromiter(chain.from_iterable(columns), np.intp, ncols * width)
                    array = array.reshape(ncols, width)
                except OverflowError:
                    pass
            if array is not None and 0 <= array.min() and array.max() < n_rows:
                # Rows in range fit intp.  Held as (width, ncols), so that a
                # repeated row, two equal positions of one column, is found
                # by comparing rows of contiguous memory.
                by_row = array.T.astype(np.intp, order="C")
                if any(np.count_nonzero(by_row[s:] == by_row[:-s]) for s in range(1, width)):
                    by_row = None
                else:
                    touched = np.flatnonzero(np.bincount(by_row.ravel())).tolist()
    if by_row is None:
        if isinstance(columns, ndarray):
            columns = columns.tolist()
        cols = [tuple(col) for col in columns]
        touched = sorted(set().union(*cols)) if exact else []
        if (
            not exact
            or not all(cols)
            or (touched and (touched[0] < 0 or touched[-1] >= n_rows))
            or _repeats_a_row(cols, widths)
        ):
            # Report the first fault in column order; numpy integers are rows.
            for col in cols:
                if not col:
                    raise ValueError("a column must hit at least one row")
                for r in col:
                    try:
                        index(r)
                    except TypeError:
                        raise ValueError(f"column {col} has a row index that is not an integer") from None
                    if not (0 <= r < n_rows):
                        raise ValueError(f"row index {r} out of range 0..{n_rows - 1}")
                if len(set(col)) != len(col):
                    raise ValueError(f"column {col} repeats a row")
            touched = sorted(set().union(*cols))
    if ncols == 0 or n_rows == 0:
        return PackingResult(
            _ZERO, (_ZERO,) * ncols, (_ZERO,) * n_rows, 0, 1, (0,) * ncols, (0,) * n_rows, 0
        )

    # The tableau holds only the rows some column touches, relabelled in
    # increasing order so that slack ids keep their order.  An untouched
    # row's slack would stay basic with a zero dual throughout.  Each pivot
    # relabels only the entering column, through one list indexed by row.
    m = len(touched)
    relabel = None
    if touched[-1] != m - 1:
        relabel = [0] * (touched[-1] + 1)
        for i, r in enumerate(touched):
            relabel[r] = i

    # Variable ids: 0..ncols-1 are structural columns, ncols..ncols+m-1 are
    # slacks.  The initial basis is the slack identity (b = 1 is feasible),
    # with zero duals and value: M = I and X = 1, packed into one integer a
    # column, and [Y | Z] = 0.
    denom = 1
    basis = [ncols + i for i in range(m)]
    pivots = 0
    if by_row is None:
        # Row r's column indicator, one field of v bits a column, built over
        # rows 0..touched[-1] and then kept for the touched rows only, and
        # the sum's constant part without D: 2^(v-1) in every field.
        rows = None
        width = max(map(len, cols))
        v = _price_width(m, width)
        indicator = [0] * (touched[-1] + 1)
        for j, col in enumerate(cols):
            bit = 1 << (v * j)
            for r in col:
                indicator[r] |= bit
        indicator = list(map(indicator.__getitem__, touched))
        units = ((1 << (v * ncols)) - 1) // ((1 << v) - 1)
        tops = units << (v - 1)
    else:
        # Each block of columns' rows held as (width, block) so that the sum
        # runs over rows of contiguous memory; the first block is ``rows``
        # and the others wait in ``later`` with their first column.  Also
        # the largest D or |Y| for which the int64 sums below are exact.
        starts = range(0, ncols, _GATHER_BLOCK)
        blocks = [by_row[:, a : a + _GATHER_BLOCK] for a in starts]
        lookup = None if relabel is None else np.array(relabel, np.intp)
        rows, *rest = [b.copy() if lookup is None else lookup.take(b) for b in blocks]
        later = list(zip(starts[1:], rest))
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
        # exactly 0, so it never enters.
        if rows is None:
            # Field j's top bit is clear iff s_j < D; map stops at Y[m - 1].
            # The lowest clear top bit, v*j + v - 1, gives j (-1 if none).
            clear = ~sum(map(mul, ys, indicator), tops - denom * units) & tops
            entering = (clear & -clear).bit_length() // v - 1
        else:
            duals = ys[:m]  # entry m is Z
            fits = denom < limit and max(duals) < limit and -min(duals) < limit
            duals = np.array(duals, np.int64 if fits else object)
            gain = duals.take(rows).sum(axis=0) < denom
            entering = int(gain.argmax())
            if not gain[entering]:
                # The later blocks in order, up to the first with a gain.
                entering = -1
                for start, block in later:
                    gain = duals.take(block).sum(axis=0) < denom
                    j = int(gain.argmax())
                    if gain[j]:
                        entering = start + j
                        break
        if entering < 0:
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
            col = cols[entering] if rows is None else by_row[:, entering].tolist()
            if relabel is not None:
                col = tuple(map(relabel.__getitem__, col))
            d = sum(map(packed.__getitem__, col))
            dm = sum(map(ys.__getitem__, col)) - denom
            if dm >= 0:
                # A priced sum that spilled out of its field would enter a
                # column with no gain, and Bland's rule could then cycle.
                raise ArithmeticError(f"pricing entered column {entering} at no gain")

        # Ratio test on X[r] / d[r], which is x_B[r] / (B^-1 a)[r] with D
        # cancelled, compared cross-multiplied.  It visits only the rows with
        # d[r] > 0 and, if any of them has X[r] = 0 and so the least ratio,
        # only those (sign masks, see the module docstring).
        du = d + bias
        xu = packed[m] + bias
        rising = (du - ones) & bias
        if not rising:
            raise ArithmeticError("unit packing LP cannot be unbounded")
        visit = rising & ~(xu - ones) or rising
        lr = -1
        while visit:
            low = visit & -visit
            visit ^= low
            r = low.bit_length() // w - 1
            f = (du >> shifts[r] & mask) - half
            x = (xu >> shifts[r] & mask) - half
            if lr < 0 or x * fl < xl * f or (x * fl == xl * f and basis[r] < basis[lr]):
                lr, fl, xl = r, f, x

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

    # X over the columns, Y over all rows (an untouched row's is 0) and Z,
    # then one Fraction, one gcd, per distinct numerator.
    xu = packed[m] + bias
    x_col = [0] * ncols
    for r, sh in enumerate(shifts):
        if basis[r] < ncols:
            x_col[basis[r]] = (xu >> sh & mask) - half
    y_row = [0] * n_rows
    for r, t in zip(touched, ys):
        y_row[r] = t
    z = ys[m]
    frac = {t: Fraction(t, denom) for t in {*x_col, *y_row, z}}
    get = frac.__getitem__
    return PackingResult(
        frac[z], tuple(map(get, x_col)), tuple(map(get, y_row)), pivots,
        denom, tuple(x_col), tuple(y_row), z,
    )
