"""Exact linear algebra: echelon ranks, kernels, Hermite bases."""

import itertools
import math
import random
from decimal import Decimal
from fractions import Fraction

import pytest

from helpers import (
    oracle_det,
    oracle_kernel_basis,
    oracle_nullity,
    oracle_pivot_columns,
    oracle_rank,
)
from toric_origami.exceptions import DegenerateInput, DimensionError
from toric_origami.lattice import (
    dot,
    hermite_basis,
    integer_kernel_basis,
    kernel_basis,
    kernel_dimension,
    pivot_columns,
    primitive,
    rank,
    rational_to_primitive,
    recession_direction,
)


def test_dot_and_primitive_basics():
    assert dot((1, 2, 3), (4, 5, 6)) == 32
    assert primitive((2, 4, -6)) == (1, 2, -3)
    assert primitive((0, -3)) == (0, -1)
    assert primitive((5,)) == (1,)
    with pytest.raises(DegenerateInput):
        primitive((0, 0))
    assert primitive((Fraction(4), Fraction(-6))) == (2, -3)
    with pytest.raises(DegenerateInput, match="integer"):  # no silent truncation to (1, 0)
        primitive((Fraction(3, 2), Fraction(1, 2)))


def test_rational_to_primitive_clears_denominators():
    assert rational_to_primitive((Fraction(1, 2), Fraction(1, 3))) == (3, 2)
    assert rational_to_primitive((Fraction(-2), Fraction(4))) == (-1, 2)
    assert rational_to_primitive((Fraction(3, 2), Fraction(1, 2))) == (3, 1)
    assert rational_to_primitive((Fraction(2, 3), Fraction(-4, 9), 0)) == (3, -2, 0)
    with pytest.raises(DegenerateInput):
        rational_to_primitive((Fraction(0), 0))


def test_rank_and_kernel_match_plain_gauss():
    rng = random.Random(99)
    for _ in range(60):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        rows = [
            [Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(m)
        ]
        assert rank(rows, n) == rank(rows) == oracle_rank(rows, n)
        assert kernel_dimension(rows, n) == kernel_dimension(rows) == oracle_nullity(rows, n)
        basis = kernel_basis(rows, n)
        assert len(basis) == oracle_nullity(rows, n)
        for vec in basis:
            for row in rows:
                assert dot(row, vec) == 0


# Adversarial magnitudes: the primes 2**61 - 1, 2**62 - 57 and 2**63 - 25
# (moduli a modular route would pick) and their multiples and reciprocals.
LARGE = (2**61 - 1, 2**62 - 57, 2**63 - 25)
P = LARGE[0]


def _random_entry(rng):
    """Small integers and rationals, mixed with the large values, their
    multiples and fractions with a large value in the denominator."""
    roll = rng.random()
    if roll < 0.35:
        return 0
    if roll < 0.6:
        return rng.randint(-5, 5)
    if roll < 0.8:
        return Fraction(rng.randint(-7, 7), rng.randint(1, 9))
    if roll < 0.9:
        return rng.choice((1, -1, 2, 3)) * rng.choice(LARGE)
    return Fraction(rng.choice((1, -1, 2)), rng.choice(LARGE))


def test_certified_kernel_matches_fraction_route():
    rng = random.Random(61)
    for _ in range(400):
        m = rng.randint(1, 6)
        n = rng.randint(1, 6)
        rows = [[_random_entry(rng) for _ in range(n)] for _ in range(m)]
        assert rank(rows, n) == oracle_rank(rows, n), rows
        assert kernel_dimension(rows, n) == oracle_nullity(rows, n), rows
        basis = kernel_basis(rows, n)
        assert basis == oracle_kernel_basis(rows, n), rows
        assert all(type(c) is Fraction for vec in basis for c in vec)


def _mixed_entry(rng):
    """A rational with denominator 1, 2, 4, 5 or 8, as an int, a Fraction,
    a "p/q" string, a float or a Decimal (all five are exact there)."""
    q = Fraction(rng.randint(-9, 9), rng.choice((1, 2, 4, 5, 8)))
    kind = rng.randrange(5)
    if kind == 0:
        return int(q) if q.denominator == 1 else q
    if kind == 1:
        return q
    if kind == 2:
        return f"{q.numerator}/{q.denominator}"
    if kind == 3 and q.denominator != 5:
        return float(q)
    return Decimal(q.numerator) / Decimal(q.denominator)


def test_mixed_entry_types_read_as_their_fractions():
    # ints and Fractions are read directly; the other types go through Fraction()
    rng = random.Random(67)
    # "0/1" and "0" are truthy strings that convert to zero
    cases = [[["0/1", 1, "0/3"]], [["0", "1/2"], [1, 0]], [[0.0, "0/5", Decimal("0.5")]]]
    for _ in range(200):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        cases.append([[_mixed_entry(rng) for _ in range(n)] for _ in range(m)])
    for rows in cases:
        n = len(rows[0])
        assert rank(rows, n) == oracle_rank(rows, n), rows
        assert kernel_basis(rows, n) == oracle_kernel_basis(rows, n), rows


def _lu_product(rng, m, n, k):
    """A row-shuffled m×n product L·U of rank k: L is m×k lower trapezoidal
    and U is k×n in row echelon form, both with non-unit pivots, and entries
    reach about 10**6."""
    cols = sorted(rng.sample(range(n), k))
    left = [[0] * k for _ in range(m)]
    for i in range(m):
        for j in range(min(i + 1, k)):
            left[i][j] = rng.randint(-300, 300)
    right = [[0] * n for _ in range(k)]
    for i, c in enumerate(cols):
        right[i][c + 1:] = [rng.randint(-300, 300) for _ in range(n - c - 1)]
    for i in range(k):  # non-unit, nonzero pivots keep the ranks of L and U at k
        left[i][i] = rng.choice((-1, 1)) * rng.randint(2, 300)
        right[i][cols[i]] = rng.choice((-1, 1)) * rng.randint(2, 300)
    rows = [[sum(a * b for a, b in zip(lr, col)) for col in zip(*right)] for lr in left]
    rng.shuffle(rows)
    return rows


def test_certified_kernel_on_wider_integer_matrices():
    rng = random.Random(7)
    cases = []
    for _ in range(40):
        m = rng.randint(5, 14)
        n = rng.randint(5, 14)
        # low-rank products keep the kernel large and its entries rational
        k = rng.randint(1, min(m, n))
        left = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(m)]
        right = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(k)]
        rows = [[sum(a * b for a, b in zip(lr, col)) for col in zip(*right)] for lr in left]
        cases.append((rows, n))
    # products with pivots other than ±1 make the elimination scale rows by
    # factors other than ±1, at full rank and below it
    deficient = 0
    for _ in range(30):
        m = rng.randint(2, 9)
        n = rng.randint(2, 9)
        k = rng.randint(1, min(m, n))
        deficient += k < min(m, n)
        cases.append((_lu_product(rng, m, n, k), n))
    assert deficient > 10
    denominators = [1]
    for rows, n in cases:
        assert rank(rows, n) == oracle_rank(rows, n), rows
        assert kernel_dimension(rows, n) == oracle_nullity(rows, n), rows
        assert kernel_basis(rows, n) == oracle_kernel_basis(rows, n), rows
        denominators.extend(x.denominator for vec in oracle_kernel_basis(rows, n) for x in vec)
    assert max(denominators) > 1  # some case is not unimodular


def test_multiple_of_a_large_value_keeps_its_rank():
    rows = [[P, 2 * P]]  # the zero row modulo P, rank 1 over Q
    assert rank(rows, 2) == oracle_rank(rows, 2) == 1
    assert kernel_basis(rows, 2) == oracle_kernel_basis(rows, 2) == [(Fraction(-2), Fraction(1))]


def test_kernel_entry_beyond_reconstruction_is_exact():
    # the kernel holds -P, beyond rational reconstruction modulo any of LARGE
    rows = [[Fraction(1, P), 1]]
    assert kernel_basis(rows, 2) == oracle_kernel_basis(rows, 2) == [(Fraction(-P), Fraction(1))]
    # a wide matrix whose transpose has the kernel vector (-P, 1)
    rows = [[1, 0, 0], [P, 0, 0]]
    assert rank(rows, 3) == oracle_rank(rows, 3) == 1


def test_row_side_rank_matches_the_oracle_on_every_shape():
    # wide, square and tall matrices alike
    rng = random.Random(71)
    shapes = {"wide": 0, "square": 0, "tall": 0}
    for _ in range(300):
        m = rng.randint(1, 6)
        n = rng.randint(1, 6)
        shapes["wide" if n > m else "square" if n == m else "tall"] += 1
        rows = [[_mixed_entry(rng) for _ in range(n)] for _ in range(m)]
        if m >= 2 and rng.random() < 0.3:  # a dependent row lowers the rank
            i, j = rng.sample(range(m), 2)
            rows[i] = list(rows[j])
        expected = oracle_rank(rows, n)
        assert rank(rows, n) == expected, rows
        assert kernel_dimension(rows, n) == n - expected, rows
    assert min(shapes.values()) > 30


def _sparse_deficient(rng):
    """A wide integer matrix of about two nonzeros per row, its rows drawn on
    fewer columns than there are rows, and a few sums of two rows."""
    ncols = rng.randint(40, 300)
    m = rng.randint(10, 40)
    support = rng.sample(range(ncols), rng.randint(m // 3, m - 1))
    rows = []
    for _ in range(m):
        row = [0] * ncols
        for c in rng.sample(support, min(2, len(support))):
            row[c] = rng.choice((-1, 1)) * rng.randint(1, 9)
        rows.append(row)
    for _ in range(3):
        i, j = rng.sample(range(m), 2)
        rows.append([a + b for a, b in zip(rows[i], rows[j])])
    return rows, ncols


def test_answers_do_not_depend_on_row_order_or_scale():
    # the echelon found depends on the order and scale of the rows; the rank,
    # the pivot columns and the reduced echelon form, and so the kernel
    # basis, do not
    rng = random.Random(83)
    for _ in range(6):
        rows, ncols = _sparse_deficient(rng)
        pivots = oracle_pivot_columns(rows, ncols)
        expected = (len(pivots), ncols - len(pivots), pivots, oracle_kernel_basis(rows, ncols))
        assert len(pivots) < min(len(rows), ncols)
        scalings = (
            lambda: rng.choice((-3, -2, -1, 2, 7)),  # integer rows
            lambda: Fraction(rng.choice((-5, -1, 1, 3)), rng.choice((2, 9))),  # Fraction rows
            lambda: 1,  # the order alone
        )
        for scaling in scalings:
            order = [[x * scale for x in row] for row, scale in ((row, scaling()) for row in rows)]
            rng.shuffle(order)
            got = (
                rank(order, ncols),
                kernel_dimension(order, ncols),
                pivot_columns(order, ncols),
                kernel_basis(order, ncols),
            )
            assert got == expected, ncols


def test_an_empty_matrix_needs_its_column_count_only_for_the_nullity():
    assert rank([]) == rank([], 3) == 0
    assert kernel_dimension([], 3) == 3
    with pytest.raises(DimensionError, match="column count required"):
        kernel_dimension([])


def test_ragged_rows_are_refused_on_either_side():
    for rows, ncols in (([[1, 2, 3], [1, 2]], 3), ([[1, 2], [3, 4], [5]], 2)):
        with pytest.raises(DimensionError, match="row of length"):
            rank(rows, ncols)
        with pytest.raises(DimensionError, match="row of length"):
            kernel_dimension(rows, ncols)


def _sparse_entry(rng):
    """An int, a Fraction or a "p/q" string, zero about half the time."""
    q = Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3, 7))) if rng.random() < 0.5 else Fraction(0)
    kind = rng.randrange(3)
    if kind == 0:
        return math.floor(q)
    if kind == 1:
        return q
    k = rng.randint(1, 3)  # "0/3" is a zero that only its conversion shows
    return f"{q.numerator * k}/{q.denominator * k}"


def test_mapping_rows_read_as_their_dense_rows():
    # a {column: value} row is the dense row with those entries and 0
    # elsewhere, whatever its key order and whether its zeros are given
    rng = random.Random(89)
    for _ in range(300):
        m = rng.randint(1, 6)
        n = rng.randint(1, 8)
        dense = [[_sparse_entry(rng) for _ in range(n)] for _ in range(m)]
        sparse = []
        for row in dense:
            items = [(c, x) for c, x in enumerate(row) if x != 0 or rng.random() < 0.5]
            rng.shuffle(items)
            sparse.append(dict(items))
        mixed = [rng.choice(pair) for pair in zip(dense, sparse)]
        expected = (oracle_rank(dense, n), oracle_nullity(dense, n),
                    oracle_pivot_columns(dense, n), oracle_kernel_basis(dense, n))
        for rows in (dense, sparse, mixed):
            got = (rank(rows, n), kernel_dimension(rows, n), pivot_columns(rows, n), kernel_basis(rows, n))
            assert got == expected, rows


def test_a_mapping_column_outside_the_matrix_is_refused():
    for bad in (-1, 3, 10):
        for query in (rank, kernel_dimension, pivot_columns, kernel_basis):
            with pytest.raises(DimensionError) as info:
                query([{0: 1}, {1: 2, bad: 1}], 3)
            assert str(info.value) == f"column {bad} in a 3-column matrix"
    assert (rank([{}], 3), kernel_dimension([{}, {2: 0}], 3)) == (0, 3)
    for query in (rank, kernel_dimension):
        with pytest.raises(DimensionError) as info:
            query([{0: 1}])
        assert str(info.value) == "column count required for a matrix of mapping rows"


def test_hermite_basis_normal_form_shape():
    rows = [(2, 4, 4), (-6, 6, 12), (10, 4, 16)]
    basis = hermite_basis(rows, 3)
    # pivots positive, entries above each pivot reduced into [0, pivot)
    pivot_cols = []
    for vec in basis:
        col = next(i for i, c in enumerate(vec) if c)
        assert vec[col] > 0
        pivot_cols.append(col)
    assert pivot_cols == sorted(pivot_cols)
    for i, vec in enumerate(basis):
        col = next(j for j, c in enumerate(vec) if c)
        for upper in basis[:i]:
            assert 0 <= upper[col] < vec[col]


def test_hermite_basis_spans_the_same_lattice():
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randint(1, 3)
        m = rng.randint(1, 4)
        rows = [tuple(rng.randint(-5, 5) for _ in range(n)) for _ in range(m)]
        basis = hermite_basis(rows, n)
        # every original row must be an integer combination of the basis
        for row in rows:
            residue = list(row)
            for vec in basis:
                col = next(i for i, c in enumerate(vec) if c)
                q = residue[col] // vec[col]
                residue = [a - q * b for a, b in zip(residue, vec)]
            assert all(c == 0 for c in residue), (row, basis)


def test_integer_kernel_basis_spans_the_saturated_kernel():
    """Saturation and the Hermite shape (positive pivots in ascending
    columns, entries above each pivot in [0, pivot)) pin the basis uniquely."""
    rng = random.Random(13)
    for _ in range(300):
        n = rng.randint(1, 6)
        while True:
            v = tuple(rng.choice((0, rng.randint(-12, 12))) for _ in range(n))
            if any(v):
                break
        v = primitive(v)
        basis = integer_kernel_basis(v)
        assert len(basis) == n - 1
        for b in basis:
            assert dot(v, b) == 0
        pivots = [next(c for c, x in enumerate(b) if x) for b in basis]
        assert pivots == sorted(set(pivots)), (v, basis)
        for k, (c, b) in enumerate(zip(pivots, basis)):
            assert b[c] > 0, (v, basis)
            assert all(0 <= above[c] < b[c] for above in basis[:k]), (v, basis)
        # saturation: the gcd of all maximal minors of the basis matrix is 1,
        # so the basis generates all of v-perp intersected with Z^n
        minors = []
        for cols in itertools.combinations(range(n), n - 1):
            sub = [[Fraction(b[c]) for c in cols] for b in basis]
            minors.append(abs(oracle_det(sub)))
        assert math.gcd(*(int(m) for m in minors)) == 1, (v, basis, minors)


def test_recession_direction_detects_unbounded_cones():
    # x >= 0, y >= 0 leaves the positive quadrant unbounded
    assert recession_direction([(-1, 0), (0, -1)], 2) is not None
    # a box's normals admit no recession direction
    assert (
        recession_direction([(-1, 0), (1, 0), (0, -1), (0, 1)], 2) is None
    )
    # rank-deficient normal set is unbounded along the missing direction
    assert recession_direction([(1, 0), (-1, 0)], 2) is not None
    assert recession_direction([], 0) is None
