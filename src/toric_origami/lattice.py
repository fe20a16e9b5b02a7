"""Exact lattice and rational linear algebra.

Everything here is computed over Python ints and `fractions.Fraction`; no
floating point is used anywhere in the package core.  Lattice vectors are
tuples of ints, rational points are tuples of Fractions, and matrices are
sequences of row tuples.  All functions are pure and their outputs are
deterministic (pivots are always the first nonzero entry in column order).

`rank`, `kernel_dimension`, `kernel_basis` and `pivot_columns` read one
elimination, exact over ℤ.  Each row is scaled to integers (a row of ints
is taken as it is, with no per-entry work in Python) and the matrix is
brought to reduced row echelon form by fraction-free Gauss–Jordan
elimination: every pivot row is kept as an integer multiple of its reduced
echelon row, and every division in the update is exact, because every
entry held is a minor of the matrix (Bareiss).  The reduced echelon form
is unique, so the kernel basis read off its free columns does not depend
on the row order.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations, compress

from .exceptions import DegenerateInput, DimensionError


def dot(a, x):
    """Exact inner product of two equal-length vectors."""
    return sum(ai * xi for ai, xi in zip(a, x, strict=True))


def primitive(v):
    """Divide an integer vector by the gcd of its entries.

    Keeps the direction: primitive((2, 4)) == (1, 2) and
    primitive((-3, 0)) == (-1, 0).  Raises DegenerateInput on a
    non-integer entry (use `rational_to_primitive`) and on the zero vector,
    which has no primitive representative.
    """
    ints = tuple(int(c) for c in v)
    if ints != tuple(v):
        raise DegenerateInput(f"primitive needs integer entries, got {tuple(v)}")
    g = math.gcd(*ints)
    if g == 0:
        raise DegenerateInput("zero vector has no primitive representative")
    return tuple(c // g for c in ints)


def _integer_rows(rows, ncols):
    """Each row scaled by the lcm of its denominators, as a sparse {column: int} dict.

    int and Fraction entries are read as they are; any other entry goes
    through Fraction(), so "1/2", 0.5 and Decimal("0.5") are all 1/2, and an
    entry that is zero only once converted ("0/1") is dropped.
    """
    out = []
    for row in rows:
        if len(row) != ncols:
            raise DimensionError(f"row of length {len(row)} in a {ncols}-column matrix")
        entries = dict(compress(enumerate(row), row))
        if not {int}.issuperset(map(type, entries.values())):  # a row of ints needs no scaling
            entries = {
                c: x if isinstance(x, (int, Fraction)) else Fraction(x)
                for c, x in entries.items()
            }
            scale = math.lcm(*(x.denominator for x in entries.values()))
            entries = {
                c: x.numerator * (scale // x.denominator) for c, x in entries.items() if x
            }
        out.append(entries)
    return out


def _eliminate(int_rows):
    """Fraction-free Gauss–Jordan elimination of sparse integer rows.

    Returns (d, {pivot column: row}).  d is the last pivot, and each stored
    row is d times its reduced echelon row, without the pivot entry d
    itself, so it holds only free columns.  A new row r is reduced as
    d·r − Σ r[c]·(pivot row c) over its pivot columns; its leading entry e
    becomes the new d, and every earlier pivot row R with entry g in the
    new leading column becomes (e·R − g·r) / d.  Each such division is
    exact (Bareiss, Math. Comp. 1968), and every stored entry is a minor
    of the matrix.  A pivot row with no entry in the new leading column is
    kept as it is when e == d.
    """
    d = 1
    pivots = {}
    for row in int_rows:
        r = {c: d * a for c, a in row.items() if c not in pivots}
        # pivot rows vanish on each other's pivot columns: one pass clears them
        for c in pivots.keys() & row.keys():
            f = row[c]
            for j, a in pivots[c].items():
                v = r.get(j, 0) - f * a
                if v:
                    r[j] = v
                else:
                    del r[j]
        if not r:
            continue
        lead = min(r)
        e = r.pop(lead)
        for c, prow in pivots.items():
            g = prow.pop(lead, 0)
            if g:
                new = {j: e * a for j, a in prow.items()}
                for j, a in r.items():
                    new[j] = new.get(j, 0) - g * a
                pivots[c] = {j: v // d for j, v in new.items() if v}
            elif e != d:
                pivots[c] = {j: e * a // d for j, a in prow.items()}
        pivots[lead] = r
        d = e
    return d, pivots


def _column_count(rows, ncols):
    if ncols is not None:
        return ncols
    if not rows:
        raise DimensionError("column count required for an empty matrix")
    return len(rows[0])


def pivot_columns(rows, ncols):
    """The columns of a rational matrix independent of the columns before them."""
    return sorted(_eliminate(_integer_rows(rows, ncols))[1])


def rank(rows, ncols=None):
    """Rank of a rational matrix (exact)."""
    if not rows:
        return 0
    return len(_eliminate(_integer_rows(rows, _column_count(rows, ncols)))[1])


def kernel_dimension(rows, ncols=None):
    """Nullity of a rational matrix.  An empty matrix has nullity ncols."""
    ncols = _column_count(rows, ncols)
    return ncols - rank(rows, ncols)


def kernel_basis(rows, ncols):
    """Deterministic basis of the right kernel of a rational matrix.

    One basis vector per free column f, read off the elimination: 1 in
    column f and −row[f] / d in the column of each pivot row; the empty
    matrix yields the standard basis.
    """
    d, pivots = _eliminate(_integer_rows(rows, ncols))
    zero, one = Fraction(0), Fraction(1)
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        vec = [zero] * ncols
        vec[f] = one
        for c, row in pivots.items():  # row[f] is d times the reduced echelon entry
            if f in row:
                vec[c] = Fraction(-row[f], d)
        basis.append(tuple(vec))
    return basis


def rational_to_primitive(vec):
    """Scale a nonzero int/Fraction vector to a primitive integer vector (same direction)."""
    lcm = math.lcm(*(c.denominator for c in vec))
    return primitive(tuple(c.numerator * (lcm // c.denominator) for c in vec))


def hermite_basis(rows, ncols):
    """Canonical (Hermite-reduced) basis of the lattice generated by integer rows.

    Row-style Hermite normal form: pivots positive, entries above each pivot
    reduced into [0, pivot).  The result depends only on the generated
    lattice, which makes it a deterministic normal form.
    """
    work = [list(map(int, r)) for r in rows if any(r)]
    basis = []  # list of (pivot_col, row)
    for col in range(ncols):
        # gcd-reduce this column down to a single nonzero row
        while True:
            live = [r for r in work if r[col] != 0]
            if len(live) <= 1:
                break
            live.sort(key=lambda r: abs(r[col]))
            small = live[0]
            for r in live[1:]:
                q = r[col] // small[col]
                if q:
                    for j in range(ncols):
                        r[j] -= q * small[j]
        pivot_row = next((r for r in work if r[col] != 0), None)
        if pivot_row is None:
            continue
        work = [r for r in work if r is not pivot_row and any(r)]
        if pivot_row[col] < 0:
            pivot_row = [-x for x in pivot_row]
        basis.append((col, pivot_row))
    # reduce entries above each pivot
    for i in range(len(basis)):
        pc, prow = basis[i]
        for k in range(i):
            q = basis[k][1][pc] // prow[pc]
            if q:
                basis[k] = (basis[k][0], [a - q * b for a, b in zip(basis[k][1], prow)])
    return tuple(tuple(r) for _, r in basis)


def integer_kernel_basis(v):
    """Hermite-reduced basis of the integer vectors orthogonal to integer vector v.

    The rows (v_j, e_j) generate {(<v, w>, w) : w in Z^n}, and the rows of
    its Hermite basis that start with 0, without that 0, are the Hermite
    basis of {w : <v, w> = 0}: n - 1 rows for a nonzero v of length n,
    spanning that full sublattice of Z^n (a direct summand).
    """
    n = len(v)
    rows = [(int(v[j]), *(1 if k == j else 0 for k in range(n))) for j in range(n)]
    return tuple(r[1:] for r in hermite_basis(rows, n + 1) if r[0] == 0)


def recession_direction(normals, n):
    """A nonzero primitive integer direction d with <a, d> <= 0 for every normal, or None.

    Detects unboundedness of {x : <a_i, x> <= b_i}: the recession cone is
    nontrivial iff it contains a line (rank deficiency) or an extreme ray,
    and every extreme ray of a pointed cone is cut out by n-1 of the
    inequalities.
    """
    if n == 0:
        return None
    ker = kernel_basis(normals, n)
    if ker:  # rank below n: the normals leave a line free
        return rational_to_primitive(ker[0])
    for subset in combinations(range(len(normals)), n - 1):
        ker = kernel_basis([normals[i] for i in subset], n)
        if len(ker) != 1:
            continue
        d = rational_to_primitive(ker[0])
        for cand in (d, tuple(-x for x in d)):
            if all(dot(a, cand) <= 0 for a in normals):
                return cand
    return None
