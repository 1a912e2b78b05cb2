"""The exact unit-packing simplex against a pinned corpus and two oracles.

Bland's rule makes the optimal basis deterministic, so value, primal, dual
and pivot count are pinned exactly: any difference from the recorded
fingerprints is a change of the solver's path, not rounding.  The same four
are compared exactly with ``oracles.solve_unit_packing``, which keeps the
column-by-column pricing scan and rebuilds every row on every pivot, and
the value with a float LP solver.
"""

import hashlib
import itertools
import random
import re
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

import oracles
from hypermatch import simplex
from hypermatch.hypercore import Hypergraph
from hypermatch.randcons import RoundOnePlan, sample_rounds
from hypermatch.simplex import PackingResult, solve_unit_packing


def fingerprint(result: PackingResult) -> str:
    """sha256 over value, primal, dual and pivots, rationals as p/q text."""
    text = "|".join(
        (
            str(result.value),
            ",".join(map(str, result.primal)),
            ",".join(map(str, result.dual)),
            str(result.pivots),
        )
    )
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def k_graph(rng: random.Random) -> tuple[int, list[tuple[int, ...]]]:
    """A k-graph with n <= 14; vertices outside `active` are isolated."""
    k = rng.choice((2, 3, 4))
    n = rng.randint(k + 1, 14)
    active = sorted(rng.sample(range(n), rng.randint(k, n)))
    density = rng.choice((0.2, 0.5, 0.8))
    edges = [e for e in itertools.combinations(active, k) if rng.random() < density]
    return n, edges


def small_corpus():
    """Fifty seeded k-graphs drawn in turn from one generator."""
    rng = random.Random(1107)
    for i in range(50):
        yield (i, *k_graph(rng))


def round_columns(index: int) -> list[tuple[int, ...]]:
    """Edges of K_60^3 induced on round `index` of the criterion-9 plan."""
    base = Hypergraph.complete(3, 60)
    subset = frozenset(sample_rounds(RoundOnePlan(base, rounds=40, p=0.5, d=1, seed=7)).subsets[index])
    return [e for e in base.edges if subset.issuperset(e)]


# (columns, value, pivots, fingerprint), recorded from the solver as first
# written (float prefilter, exact confirmation).
ROUNDS = {
    0: (1771, Fraction(23, 3), 231, '5e2d965b677cf6f9'),
    1: (7770, Fraction(37, 3), 631, '4b5d040596d7e6f6'),
    2: (4960, Fraction(32, 3), 465, 'eaaf2cc762a54e30'),
    3: (5456, Fraction(11, 1), 500, 'c40edc7c5ebacb32'),
}

# index -> (value, pivots, fingerprint), recorded as ROUNDS was.
SMALL = {
    0: ('7/4', 11, 'b7d23ff5fd4b18d7'),
    1: ('8/3', 22, '83ee54d816ff06c8'),
    2: ('7/4', 12, 'eb47bf01e4b539d3'),
    3: ('11/4', 40, '6470c13173fdfe3a'),
    4: ('0', 0, '9800dfcfc675e119'),
    5: ('2', 8, '11a85c6403d5948c'),
    6: ('1', 2, '6486f54a35a1c69a'),
    7: ('0', 0, 'c0abdcc359d0ee70'),
    8: ('1', 3, '341620203a37b5de'),
    9: ('2', 6, 'a9d8928159144f77'),
    10: ('9/4', 21, '5c670d870d8a1715'),
    11: ('7/4', 16, '5e01234f56da4562'),
    12: ('3/2', 5, '9c4fa0ae87f30c3d'),
    13: ('11/3', 35, '8fd853de3e4973cf'),
    14: ('3/2', 6, '6d3b7c9ea9766c64'),
    15: ('1', 2, 'e24794d1aa5f6853'),
    16: ('1', 1, 'a445e47cfd8a52d4'),
    17: ('3', 28, '6a64e932992b22dc'),
    18: ('1', 1, 'bfd12fc6776f3fb6'),
    19: ('3/2', 3, 'f26ad378b3381ff8'),
    20: ('5/2', 26, 'a2efbb6d53a77f2e'),
    21: ('9/4', 19, '3d6c6ebd0a815766'),
    22: ('6', 15, 'c28c656c5a84bde2'),
    23: ('2', 5, 'f06ddcf2d4a3e715'),
    24: ('1', 1, 'e46c99123523d965'),
    25: ('7/3', 13, '38a364b9fda1a2ab'),
    26: ('1', 2, '535e722208f96ef9'),
    27: ('11/4', 36, '80ef3cc79b4d9855'),
    28: ('1', 2, '900e20b6c5e44b6f'),
    29: ('1', 2, '9a77b44c90d3976f'),
    30: ('0', 0, 'a3c0cb667362b37b'),
    31: ('3/2', 10, 'c57ab3a73c44d0de'),
    32: ('2', 12, '2f78d1b346fa96fc'),
    33: ('3', 7, 'f269d0c866f1ee9c'),
    34: ('3', 24, 'e3622fc747680df3'),
    35: ('0', 0, '93215e62beaa42ae'),
    36: ('2', 5, '38f859b4cb0ad369'),
    37: ('2', 8, '90a344428b7299ea'),
    38: ('7/4', 16, '1518e9269a480045'),
    39: ('7/2', 93, '862807144dc832ea'),
    40: ('5', 21, '77c98995c90f16bc'),
    41: ('9/2', 20, '4cfd9fd82354c332'),
    42: ('4', 15, 'f3613cf184ffaf2e'),
    43: ('4', 19, 'cb983d319f1ef6d1'),
    44: ('1', 2, '43982a1ce9e08dd1'),
    45: ('1', 1, 'bfd12fc6776f3fb6'),
    46: ('3/2', 5, 'a6df3f713930ee92'),
    47: ('2', 4, '544370b650dbd3a4'),
    48: ('7/3', 18, 'ad86aa12b93eed01'),
    49: ('4/3', 4, '336ab914027d09ca'),
}

# seed -> (value, pivots, fingerprint) of k_graph(random.Random(seed)),
# recorded from the solver with a Fraction basis inverse, before the basis
# was kept in integers.  These exist for the slack-entering branch of
# Bland's rule: each solve pivots a slack back into the basis (seed 1846
# twice), which no round above and no graph of the small corpus does.
SLACK_ENTERING = {
    60: ('2', 7, '1effc535ffa62bd0'),
    290: ('3/2', 6, '1c78aacd4bd8634d'),
    1701: ('3', 11, 'a7e1f5a431cbb57d'),
    1846: ('29/10', 12, '7efaa9224caea077'),
    2307: ('3', 16, 'ae9cffeaef8bca63'),
}


def packed_size(columns) -> int:
    """m * ncols * v, which ``solve_unit_packing`` compares with the cut."""
    m = len({r for col in columns for r in col})
    return m * len(columns) * simplex._price_width(m, max(map(len, columns)))


@pytest.mark.parametrize("index", sorted(ROUNDS))
def test_criterion_9_rounds_are_pinned(index):
    columns = round_columns(index)
    ncols, value, pivots, digest = ROUNDS[index]
    result = solve_unit_packing(60, columns)
    assert len(columns) == ncols
    # Packed pricing is slower on LPs this large, so they keep the gather.
    assert packed_size(columns) >= simplex._PACKED_PRICING_CUT
    assert (result.value, result.pivots) == (value, pivots)
    assert fingerprint(result) == digest


@pytest.mark.parametrize("index", sorted(ROUNDS))
def test_matches_reference_on_criterion_9_rounds(index):
    # Most pivots of these LPs have p = D, so a packed column whose
    # pivot-row entry is 0 is left as it is; the rest are rescaled.  (The
    # 12-sets LP below pivots the other way round, with p = D on only a few
    # pivots.)
    columns = round_columns(index)
    assert solve_unit_packing(60, columns) == oracles.solve_unit_packing(60, columns)


@pytest.mark.parametrize("index, n, edges", list(small_corpus()), ids=[f"k-graph-{i}" for i in range(50)])
def test_small_k_graphs_are_pinned(index, n, edges):
    result = solve_unit_packing(n, edges)
    value, pivots, digest = SMALL[index]
    assert (str(result.value), result.pivots) == (value, pivots)
    assert fingerprint(result) == digest
    touched = {v for e in edges for v in e}
    assert all(result.dual[v] == 0 for v in range(n) if v not in touched)


@pytest.mark.parametrize("seed", sorted(SLACK_ENTERING))
def test_slack_entering_solves_are_pinned(seed):
    n, edges = k_graph(random.Random(seed))
    result = solve_unit_packing(n, edges)
    value, pivots, digest = SLACK_ENTERING[seed]
    assert (str(result.value), result.pivots) == (value, pivots)
    assert fingerprint(result) == digest


def test_object_pricing_matches_int64_pricing(monkeypatch):
    # A bound of 0 sends every pivot's pricing through dtype object, which
    # otherwise runs only once D or |Y| outgrows int64.  These LPs are small
    # enough to price on packed integers, so a cut of 0 sends them, all of
    # equal width, to the gather first.
    monkeypatch.setattr(simplex, "_PACKED_PRICING_CUT", 0)
    corpus = [(n, edges) for _, n, edges in small_corpus()]
    corpus += [k_graph(random.Random(seed)) for seed in sorted(SLACK_ENTERING)]
    int64_results = [solve_unit_packing(n, edges) for n, edges in corpus]
    monkeypatch.setattr(simplex, "_INT64_BOUND", 0)
    assert [solve_unit_packing(n, edges) for n, edges in corpus] == int64_results


def random_k_graphs():
    rng = random.Random(1846)
    for _ in range(300):
        k = rng.randint(1, 4)
        n = rng.randint(k, 12)
        density = rng.choice((0.2, 0.5, 0.8))
        yield n, [e for e in itertools.combinations(range(n), k) if rng.random() < density]


def mixed_unsorted_columns():
    # Columns of widths 1 to 5 in shuffled row order, which price on packed
    # integers whatever the cut: no step may rely on sorted rows.
    rng = random.Random(290)
    for _ in range(300):
        n = rng.randint(1, 12)
        yield n, [rng.sample(range(n), rng.randint(1, min(5, n))) for _ in range(rng.randint(1, 40))]


def s_matrix_columns(m: int) -> list[list[int]]:
    """The columns of a 0/1 matrix of order m with the largest determinant
    of any, (m + 1)^((m + 1) / 2) / 2^m, for m = 2^j - 1 (from Sylvester's
    Hadamard matrix) and for prime m = 3 mod 4 (quadratic residues)."""
    if m & (m + 1) == 0:
        return [[i for i in range(m) if ((i + 1) & (j + 1)).bit_count() % 2] for j in range(m)]
    squares = {x * x % m for x in range(m)}
    return [[i for i in range(m) if (i - j) % m in squares] for j in range(m)]


def largest_minors():
    """(m, columns, value): value is nu* for an S-matrix alone, else None.

    Packed fields must hold every minor of a basis.  The S-matrices' own
    columns form the optimal basis (x = y = 2 / (m + 1) everywhere), so D
    ends at det 2^17 on 15 rows and 19,531,250 (about 2^24.2) on 19, the
    largest for any 0/1 matrix of those orders; shuffled column orders and
    extra columns send Bland's rule along other bases.  Random dense
    columns of every width up to m on 12-20 rows fill in the rest.
    """
    rng = random.Random(1968)
    for m in (7, 11, 15, 19):
        base = s_matrix_columns(m)
        for extra in (0, 3, m):
            columns = base + [rng.sample(range(m), rng.randint(1, m)) for _ in range(extra)]
            rng.shuffle(columns)
            yield m, columns, None if extra else Fraction(2 * m, m + 1)
    for _ in range(40):
        m = rng.randint(12, 20)
        yield m, [rng.sample(range(m), rng.randint(1, m)) for _ in range(rng.randint(m, 3 * m))], None


# One field a column, and the narrowest fields: w = 2 for one row.
ONE_ROW_AND_WIDTH_ONE = [
    (1, [(0,)]),
    (1, [(0,), (0,), (0,)]),
    (5, [(3,), (3,)]),
    (4, [(2,), (0,), (2,), (3,), (0,)]),
    (9, [(r,) for r in range(9)] * 2),
]


def test_matches_reference_on_random_k_graphs():
    for n, edges in random_k_graphs():
        assert solve_unit_packing(n, edges) == oracles.solve_unit_packing(n, edges)


def test_matches_reference_on_mixed_unsorted_columns():
    for n, columns in mixed_unsorted_columns():
        assert solve_unit_packing(n, columns) == oracles.solve_unit_packing(n, columns)


def test_matches_reference_on_the_largest_minors():
    for m, columns, value in largest_minors():
        result = solve_unit_packing(m, columns)
        assert result == oracles.solve_unit_packing(m, columns)
        if value is not None:
            assert result.value == value


def test_matches_reference_on_one_row_and_on_width_one():
    for n_rows, columns in ONE_ROW_AND_WIDTH_ONE:
        assert solve_unit_packing(n_rows, columns) == oracles.solve_unit_packing(n_rows, columns)


def test_ratio_zero_tie_leaves_by_basis_id_not_by_row():
    # At the fifth pivot rows 2 and 4 both have X = 0 and d > 0, and their
    # basic variables are columns 3 and 1: the row of the least basis id,
    # row 4, leaves, not the first tied row.
    columns = [(0, 2), (0, 4), (1, 4), (2, 4), (3, 4)]
    result = solve_unit_packing(5, columns)
    assert result == oracles.solve_unit_packing(5, columns)
    assert result.value == 2 and result.pivots == 5


def test_integers_over_one_denominator_give_the_fractions():
    corpus = [*random_k_graphs(), *mixed_unsorted_columns(), *ONE_ROW_AND_WIDTH_ONE, (4, []), (0, [])]
    for n_rows, columns in corpus:
        result = solve_unit_packing(n_rows, columns)
        d = result.denom
        assert d > 0 and result.value == Fraction(result.z, d)
        assert result.primal == tuple(Fraction(x, d) for x in result.x)
        assert result.dual == tuple(Fraction(y, d) for y in result.y)


@pytest.mark.parametrize("cut", [0, 1 << 40], ids=["gather", "packed"])
def test_both_pricing_paths_match_reference(monkeypatch, cut):
    # A cut of 0 prices every equal-width LP of Python ints with the numpy
    # gather, set up from one array, and 2^40 every LP here on packed
    # integers, set up column by column; by default the corpora split
    # between them.  Each path must give the reference's optimum, and the
    # default's integers, pivots and all.
    corpus = [*random_k_graphs(), *mixed_unsorted_columns(), *ONE_ROW_AND_WIDTH_ONE]
    corpus += [(m, columns) for m, columns, _ in largest_minors()]
    corpus += [*wide_k_graphs(), (4, []), (0, [])]
    corpus += [(32, gather_sized_columns(seed)) for seed in (60, 61)]
    corpus += [(31, [sorted(col, reverse=True) for col in gather_sized_columns(62)])]
    assert any(columns and packed_size(columns) >= simplex._PACKED_PRICING_CUT for _, columns in corpus)
    defaults = [solve_unit_packing(n_rows, columns) for n_rows, columns in corpus]
    monkeypatch.setattr(simplex, "_PACKED_PRICING_CUT", cut)
    for (n_rows, columns), b in zip(corpus, defaults):
        a = solve_unit_packing(n_rows, columns)
        assert a == oracles.solve_unit_packing(n_rows, columns)
        assert a == b and (a.denom, a.x, a.y, a.z) == (b.denom, b.x, b.y, b.z)


def test_field_width_is_the_least_that_holds_every_entry():
    # Every packed entry t has t^2 <= m * width^m (module docstring), and a
    # field of w signed bits holds |t| < 2^(w - 1).
    for m in range(1, 65):
        for width in range(1, m + 1):
            w = simplex._field_width(m, width)
            assert 4 ** (w - 2) <= m * width**m < 4 ** (w - 1)


def test_price_width_is_the_least_that_holds_every_reduced_cost():
    # Every priced s_j - D has (s_j - D)^2 <= (width + 1)^(m + 1) (module
    # docstring), and a field of v bits with bias 2^(v - 1) holds
    # |s_j - D| < 2^(v - 1).
    for m in range(1, 65):
        for width in range(1, m + 1):
            v = simplex._price_width(m, width)
            assert 4 ** (v - 2) <= (width + 1) ** (m + 1) < 4 ** (v - 1)


def test_a_price_that_spills_its_field_is_refused(monkeypatch):
    # After the three unit columns enter, s_3 - D = 3 - 1 = 2, which a field
    # of 2 bits cannot hold: its top bit reads clear, so column 3 would enter
    # at no gain.  The true width is 6.
    columns = [(0,), (1,), (2,), (0, 1, 2)]
    assert solve_unit_packing(3, columns) == oracles.solve_unit_packing(3, columns)
    monkeypatch.setattr(simplex, "_price_width", lambda m, width: 2)
    with pytest.raises(ArithmeticError, match="pricing entered column 3 at no gain"):
        solve_unit_packing(3, columns)


def test_matches_reference_where_int64_pricing_would_overflow(monkeypatch):
    # 400 random 12-sets on 60 rows: D and |Y| outgrow 2^62 // 13 on some
    # pivots, so pricing falls back to dtype object and then returns.  The
    # LP is large enough to price with the gather.
    rng = random.Random(60)
    columns = [rng.sample(range(60), 12) for _ in range(400)]
    assert packed_size(columns) >= simplex._PACKED_PRICING_CUT
    expected = oracles.solve_unit_packing(60, columns)
    dtypes = []

    def array(values, dtype):
        # The columns' rows, then one array per pricing pass; overflowed
        # prices would send Bland's rule round a cycle, so stop there.
        dtypes.append(np.dtype(dtype))
        assert len(dtypes) <= expected.pivots + 2, "more pricing passes than the reference"
        return np.array(values, dtype)

    def fromiter(values, dtype, count):
        return array(np.fromiter(values, dtype, count), dtype)

    fake = SimpleNamespace(
        array=array, fromiter=fromiter, bincount=np.bincount, count_nonzero=np.count_nonzero,
        flatnonzero=np.flatnonzero, intp=np.intp, int64=np.int64,
    )
    monkeypatch.setattr(simplex, "np", fake)
    assert solve_unit_packing(60, columns) == expected
    pricing = dtypes[1:]
    assert np.dtype(object) in pricing and np.dtype(np.int64) in pricing


def blocks_of_pairs(offset: int) -> tuple[int, list[tuple[int, int]]]:
    """(n_rows, columns): a block of copies of one pair, a block of copies of
    a second, then five disjoint pairs, all on rows offset + 0..13.

    Once a copy of the first pair is basic no other copy gains, so every
    later pivot's column comes from a later block, and nu* = 7 needs them.
    """
    block = simplex._GATHER_BLOCK
    pairs = [(offset + 2 * j, offset + 2 * j + 1) for j in range(7)]
    return offset + 14, [pairs[0]] * block + [pairs[1]] * block + pairs[2:]


def log_pricing(monkeypatch, setup: int) -> list[int]:
    """Columns gathered on each pricing pass, one entry a pass; the first
    ``setup`` arrays made are the set-up's."""
    passes: list[int] = []
    made = []

    class Logged(np.ndarray):
        def take(self, indices):
            passes[-1] += indices.shape[1]
            return np.asarray(self).take(indices)

    def array(values, dtype):
        made.append(dtype)
        if len(made) <= setup:
            return np.array(values, dtype)
        passes.append(0)
        return np.array(values, dtype).view(Logged)

    def fromiter(values, dtype, count):
        return array(np.fromiter(values, dtype, count), dtype)

    fake = SimpleNamespace(
        array=array, fromiter=fromiter, bincount=np.bincount, count_nonzero=np.count_nonzero,
        flatnonzero=np.flatnonzero, intp=np.intp, int64=np.int64,
    )
    monkeypatch.setattr(simplex, "np", fake)
    return passes


@pytest.mark.parametrize("offset", [0, 3], ids=["rows-from-0", "relabelled"])
def test_later_blocks_price_like_one_gather(monkeypatch, offset):
    # Each pass stops at the first block with a gain, so the first reads one
    # block and the second, which enters the first copy of the second pair,
    # two; the last pass finds no gain and reads every block.  The set-up
    # makes the columns' array, and the row lookup if rows are relabelled.
    n_rows, columns = blocks_of_pairs(offset)
    block = simplex._GATHER_BLOCK
    expected = oracles.solve_unit_packing(n_rows, columns)
    passes = log_pricing(monkeypatch, setup=2 if offset else 1)
    result = solve_unit_packing(n_rows, columns)
    assert result == expected and result.value == 7
    assert result.primal[block] == 1 and all(x == 1 for x in result.primal[2 * block:])
    assert len(passes) == result.pivots + 1
    assert passes[:2] == [block, 2 * block]
    assert passes[-1] == len(columns)
    # Dtype object prices through the same blocks.
    monkeypatch.setattr(simplex, "_INT64_BOUND", 0)
    passes = log_pricing(monkeypatch, setup=2 if offset else 1)
    assert solve_unit_packing(n_rows, columns) == expected
    assert passes[:2] == [block, 2 * block] and passes[-1] == len(columns)


@pytest.mark.parametrize("block", [1, 5, 64])
def test_small_blocks_match_reference(monkeypatch, block):
    # With the cut at 0 every equal-width LP here prices with the gather, in
    # blocks of a few columns: entering columns in later blocks, slacks
    # entering after a pass over every block and relabelled rows.
    monkeypatch.setattr(simplex, "_PACKED_PRICING_CUT", 0)
    monkeypatch.setattr(simplex, "_GATHER_BLOCK", block)
    corpus = [*random_k_graphs(), *mixed_unsorted_columns(), *ONE_ROW_AND_WIDTH_ONE]
    corpus += [k_graph(random.Random(seed)) for seed in sorted(SLACK_ENTERING)]
    for n_rows, columns in corpus:
        assert solve_unit_packing(n_rows, columns) == oracles.solve_unit_packing(n_rows, columns)


def test_object_pricing_across_blocks_matches_int64_pricing(monkeypatch):
    monkeypatch.setattr(simplex, "_PACKED_PRICING_CUT", 0)
    monkeypatch.setattr(simplex, "_GATHER_BLOCK", 3)
    corpus = [(n, edges) for _, n, edges in small_corpus()]
    corpus += [k_graph(random.Random(seed)) for seed in sorted(SLACK_ENTERING)]
    int64_results = [solve_unit_packing(n, edges) for n, edges in corpus]
    monkeypatch.setattr(simplex, "_INT64_BOUND", 0)
    assert [solve_unit_packing(n, edges) for n, edges in corpus] == int64_results


def gather_sized_columns(seed: int) -> list[list[int]]:
    """600 random 3-sets on rows 1..30 of 32: an LP for the gather, relabelled."""
    rng = random.Random(seed)
    columns = [rng.sample(range(1, 31), 3) for _ in range(600)]
    assert packed_size(columns) >= simplex._PACKED_PRICING_CUT
    return columns


@pytest.mark.parametrize(
    "last",
    [[5, 9, 5], [5, 5, 9], [9, 5, 5], [0, 1, 32], [-1, 4, 7], []],
    ids=["repeat-0-2", "repeat-0-1", "repeat-1-2", "out-of-range", "negative", "empty"],
)
def test_fault_in_the_last_column_of_a_gather_lp_is_named_like_the_reference(last):
    columns = gather_sized_columns(60) + [last]
    with pytest.raises(ValueError) as expected:
        oracles.solve_unit_packing(32, columns)
    with pytest.raises(ValueError) as info:
        solve_unit_packing(32, columns)
    assert str(info.value) == str(expected.value)


def test_non_integer_row_in_the_last_column_of_a_gather_lp_is_named():
    for last in ([3, 1.0, 2], [2, "x", 7]):
        with pytest.raises(ValueError) as info:
            solve_unit_packing(32, gather_sized_columns(60) + [last])
        assert str(info.value) == f"column {tuple(last)} has a row index that is not an integer"


def test_mixed_widths_in_a_gather_lp_solve_like_the_reference():
    # One column of another width sends the set-up column by column and the
    # pricing to packed integers.
    for last in ([4, 6], [3, 8, 9, 11]):
        columns = gather_sized_columns(60) + [last]
        assert solve_unit_packing(32, columns) == oracles.solve_unit_packing(32, columns)


def test_first_fault_of_a_gather_lp_is_reported_like_the_reference():
    # Two or three faults in seeded places of equal-width gather LPs: the
    # first in column order is named.
    rng = random.Random(41)
    faults = (lambda c: [c[0], c[1], c[0]], lambda c: [c[0], c[1], 31], lambda c: [c[0], -1, c[2]])
    for trial in range(40):
        columns = gather_sized_columns(trial)
        for j in sorted(rng.sample(range(len(columns)), rng.randint(2, 3))):
            columns[j] = rng.choice(faults)(columns[j])
        with pytest.raises(ValueError) as expected:
            oracles.solve_unit_packing(31, columns)
        with pytest.raises(ValueError) as info:
            solve_unit_packing(31, columns)
        assert str(info.value) == str(expected.value)


def test_gather_lp_rows_as_bools_and_numpy_integers_solve_alike():
    # Bools are rows 0 and 1; numpy integers take the column-by-column set-up.
    columns = gather_sized_columns(61) + [[False, True, 2]]
    expected = solve_unit_packing(32, [[int(r) for r in col] for col in columns])
    assert solve_unit_packing(32, columns) == expected
    assert solve_unit_packing(32, [np.array(col) for col in columns]) == expected


def test_untouched_rows_bring_an_equal_width_lp_to_the_gather(monkeypatch):
    # All 45 pairs of the odd rows 1..19 of 80.  The 10 touched rows alone
    # give a packed size below the cut, but the path is chosen before the
    # rows are counted, on bound = min(80, 45 * 2) = 80 rows, which reaches
    # it.  The set-up makes the columns' array and the row lookup.
    columns = list(itertools.combinations(range(1, 20, 2), 2))
    assert packed_size(columns) < simplex._PACKED_PRICING_CUT
    expected = oracles.solve_unit_packing(80, columns)
    passes = log_pricing(monkeypatch, setup=2)
    result = solve_unit_packing(80, columns)
    assert result == expected
    assert len(passes) == result.pivots + 1 and passes[-1] == len(columns)


def test_mixed_widths_and_numpy_rows_price_on_packed_integers(monkeypatch):
    # Both reach the cut in packed size, but neither is an equal-width LP of
    # Python ints: each is set up column by column and priced with no numpy
    # array at all.
    for columns in (
        gather_sized_columns(60) + [[4, 6]],
        [np.array(col) for col in gather_sized_columns(61)],
    ):
        assert packed_size(columns) >= simplex._PACKED_PRICING_CUT
        expected = oracles.solve_unit_packing(32, [[int(r) for r in col] for col in columns])
        passes = log_pricing(monkeypatch, setup=0)
        assert solve_unit_packing(32, columns) == expected
        assert passes == []


def equal_width_lps():
    """(n_rows, columns) of one nonzero width on both pricing paths, each also
    with row 0 left untouched, so that the gather looks its rows up."""
    corpus = [(n, edges) for n, edges in random_k_graphs() if edges]
    corpus += [(n, edges) for n, edges in wide_k_graphs() if edges]
    corpus += ONE_ROW_AND_WIDTH_ONE
    corpus += [(32, gather_sized_columns(60)), blocks_of_pairs(0)]
    return corpus + [(n_rows + 1, [[r + 1 for r in col] for col in columns]) for n_rows, columns in corpus]


@pytest.mark.parametrize("cut", [None, 0, 1 << 40], ids=["default", "gather", "packed"])
@pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.intp])
def test_an_integer_array_solves_like_its_tuples(monkeypatch, cut, dtype):
    # The array's own checks and set-up, the lists' on the packed path: the
    # same optimum, its integers and its pivots, whatever the layout.
    corpus = equal_width_lps()
    if cut is not None:
        monkeypatch.setattr(simplex, "_PACKED_PRICING_CUT", cut)
    for n_rows, columns in corpus:
        expected = solve_unit_packing(n_rows, [tuple(col) for col in columns])
        array = np.array(columns, dtype)
        for given in (array, np.asfortranarray(array)):
            result = solve_unit_packing(n_rows, given)
            assert result == expected
            assert (result.denom, result.x, result.y, result.z) == (
                expected.denom, expected.x, expected.y, expected.z
            )


def outcome(n_rows, columns):
    """The solver's result, or the type and message of its refusal."""
    try:
        return solve_unit_packing(n_rows, columns)
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc)


def with_last(dtype, last) -> np.ndarray:
    return np.array(gather_sized_columns(60) + [last], dtype)


@pytest.mark.parametrize("cut", [0, 1 << 40], ids=["gather", "packed"])
@pytest.mark.parametrize(
    "array",
    [
        with_last(np.intp, [0, -1, 5]),
        with_last(np.uint8, [0, 1, 32]),
        with_last(np.uint64, [0, 1, (1 << 64) - 1]),
        with_last(np.uint8, [5, 9, 5]),
        np.array(gather_sized_columns(60), float),
        np.array(gather_sized_columns(60)) > 9,
        np.arange(5),
        np.zeros((600, 0), np.intp),
    ],
    ids=["negative", "past-n-rows", "past-intp", "repeat", "float", "bool", "one-dimensional", "zero-width"],
)
def test_a_faulty_array_is_named_like_its_lists(monkeypatch, cut, array):
    monkeypatch.setattr(simplex, "_PACKED_PRICING_CUT", cut)
    expected = outcome(32, array.tolist())
    assert isinstance(expected, tuple)
    assert outcome(32, array) == expected


def wide_k_graphs():
    """Seeded k-graphs, k = 2..5, some priced with the gather by default
    and some on packed integers."""
    rng = random.Random(1308)
    for _ in range(60):
        k = rng.randint(2, 5)
        n = rng.randint(k, 13)
        density = rng.choice((0.2, 0.5, 0.8))
        yield n, [e for e in itertools.combinations(range(n), k) if rng.random() < density]


@pytest.mark.parametrize("cut", [0, 1 << 40], ids=["array-set-up", "column-by-column"])
@pytest.mark.parametrize(
    "last, message",
    [
        ([3, 1.5, 2], "column (3, 1.5, 2) has a row index that is not an integer"),
        ([2, "3", 7], "column (2, '3', 7) has a row index that is not an integer"),
        ([0, 1, 1 << 70], f"row index {1 << 70} out of range 0..31"),
        ([0, -(1 << 70), 1], f"row index {-(1 << 70)} out of range 0..31"),
    ],
    ids=["float", "string", "past-int64", "below-int64"],
)
def test_rows_np_fromiter_would_misread_are_refused(monkeypatch, cut, last, message):
    # np.fromiter reads 1.5 as 1 and '3' as 3, and cannot hold 2^70: on
    # both set-ups the column is named with the column-by-column message.
    # The pricing cut selects the set-up.
    columns = gather_sized_columns(60) + [last]
    monkeypatch.setattr(simplex, "_PACKED_PRICING_CUT", cut)
    with pytest.raises(ValueError) as info:
        solve_unit_packing(32, columns)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "columns, repeats",
    [
        ([(0, 1, 2), (1, 3, 4)], False),
        ([(2, 1, 0), (1, 3, 4)], False),  # unsorted but distinct: a set a column
        ([(0, 1, 2), (3, 4, 3)], True),
        ([(0, 1), (2, 3, 3)], True),  # mixed widths
        ([(5,), (5,)], False),
        ([], False),
    ],
)
def test_repeat_check_without_a_set_per_column(columns, repeats):
    assert simplex._repeats_a_row(columns, set(map(len, columns))) is repeats


def test_no_columns():
    assert solve_unit_packing(4, []) == PackingResult(Fraction(0), (), (Fraction(0),) * 4, 0)


def test_no_rows():
    assert solve_unit_packing(0, []) == PackingResult(Fraction(0), (), (), 0)


@pytest.mark.parametrize("n_rows", [14.0, "14", None, -1], ids=["float", "string", "none", "negative"])
@pytest.mark.parametrize("size", ["empty", "small", "gather-sized"])
def test_n_rows_that_is_not_a_non_negative_integer_is_refused(n_rows, size):
    # Checked where it enters: 14.0 used to run the whole LP and then fail
    # with a TypeError, and -1 with no columns gave a result with no dual.
    columns = {"empty": [], "small": [(0, 1), (1, 2)], "gather-sized": gather_sized_columns(60)}[size]
    message = f"n_rows must be a non-negative integer, not {n_rows!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        solve_unit_packing(n_rows, columns)


def test_n_rows_as_a_bool_or_numpy_integer_counts_rows():
    columns = gather_sized_columns(60)
    assert solve_unit_packing(np.int64(32), columns) == solve_unit_packing(32, columns)
    assert solve_unit_packing(True, [(0,)]) == solve_unit_packing(1, [(0,)])


def test_rows_missed_by_every_column_have_zero_dual():
    # A triangle on rows 1, 3, 5 of seven: nu* = 3/2 with every weight 1/2.
    result = solve_unit_packing(7, [(1, 3), (3, 5), (1, 5)])
    half = Fraction(1, 2)
    assert result.value == Fraction(3, 2)
    assert result.primal == (half, half, half)
    assert result.dual == (0, half, 0, half, 0, half, 0)


@pytest.mark.parametrize("columns", [[(0, 4)], [(-1, 2)], [(1, 1)], [(0, 2, 0)], [()]])
def test_bad_rows_are_rejected(columns):
    # A column that hits no row would be unbounded; it is rejected even
    # with no rows at all, before the early return for that case.
    for n_rows in (0, 2, 4):
        with pytest.raises(ValueError):
            solve_unit_packing(n_rows, columns)


def test_non_integer_rows_are_rejected():
    # 1.0 passes the range test and used to fail as a list index with a
    # TypeError; the first faulty column is named.  numpy integers are rows.
    for n_rows, columns, message in (
        (3, [(0, 1.0)], r"column \(0, 1.0\) has a row index that is not an integer"),
        (3, [(0, 1), (1.0, 2)], r"column \(1.0, 2\) has a row index that is not an integer"),
        (3, [(2, "x"), (0, 1)], r"column \(2, 'x'\) has a row index that is not an integer"),
        (3, [(0, 3), (1.0,)], r"row index 3 out of range 0..2"),
    ):
        with pytest.raises(ValueError, match=message):
            solve_unit_packing(n_rows, columns)
    triangle = [(0, 1), (1, 2), (0, 2)]
    as_numpy = [tuple(np.array(col, dtype=np.int64)) for col in triangle]
    assert solve_unit_packing(3, as_numpy) == solve_unit_packing(3, triangle)


def test_first_fault_in_column_order_is_reported_like_the_reference():
    # The solver tests the columns as a whole before it looks for the
    # fault, so the message must still be the first faulty column's.
    rng = random.Random(31)
    faults = 0
    for _ in range(300):
        n = rng.randint(1, 8)
        columns = [
            [rng.randint(-1, n) for _ in range(rng.randint(0, 4))]
            for _ in range(rng.randint(1, 6))
        ]
        try:
            expected = oracles.solve_unit_packing(n, columns)
        except ValueError as exc:
            faults += 1
            with pytest.raises(ValueError) as info:
                solve_unit_packing(n, columns)
            assert str(info.value) == str(exc)
        else:
            assert solve_unit_packing(n, columns) == expected
    assert 100 < faults < 300


def test_highs_agrees_on_nu_star():
    optimize = pytest.importorskip("scipy.optimize")
    for _, n, edges in small_corpus():
        if not edges:
            continue
        incidence = [[1 if v in e else 0 for e in edges] for v in range(n)]
        res = optimize.linprog(
            [-1] * len(edges), A_ub=incidence, b_ub=[1] * n, bounds=(0, None), method="highs"
        )
        assert res.status == 0
        assert abs(-res.fun - float(solve_unit_packing(n, edges).value)) <= 1e-9
