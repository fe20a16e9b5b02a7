"""Exact lattice and rational linear algebra.

Everything here is computed over Python ints and `fractions.Fraction`; no
floating point is used anywhere in the package core.  Lattice vectors are
tuples of ints, rational points are tuples of Fractions, and matrices are
sequences of row tuples.  All functions are pure and their outputs are
deterministic (pivots are always the first nonzero entry in column order).

`rank`, `kernel_dimension`, `kernel_basis` and `pivot_columns` read one
elimination, exact over ℤ.  Each row is scaled to integers (a row of ints
is taken as it is, with no per-entry work in Python) and brought to
echelon form by forward elimination alone: a row is cleared in its
leading column by an integer combination with the pivot row there, and
each new pivot row is divided by the gcd of its entries.  The rank and
the pivot columns are read off the echelon as it stands; only
`kernel_basis` brings it to reduced row echelon form, from the last
pivot row up, with the same combination step.  The reduced echelon form
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


def _combine(r, R, col):
    """r with its entry in column col cleared by R: (b/g)·r − (a/g)·R, where
    a = r[col], b = R[col] and g = gcd(a, b), so every entry stays an int."""
    a, b = r[col], R[col]
    g = math.gcd(a, b)
    a, b = a // g, b // g
    out = {j: b * x for j, x in r.items()} if b != 1 else dict(r)
    for j, x in R.items():
        v = out.get(j, 0) - a * x
        if v:
            out[j] = v
        else:
            del out[j]
    return out


def _eliminate(int_rows):
    """Forward elimination of sparse integer rows: {leading column: row}.

    Each incoming row is combined with the pivot row of its least column
    for as long as there is one; what is left, divided by the gcd of its
    entries, becomes the pivot row of its least column.  Earlier pivot rows
    are never revisited, so this is an echelon form, not a reduced one.
    """
    pivots = {}
    for r in int_rows:
        while r:
            lead = min(r)
            R = pivots.get(lead)
            if R is None:
                g = math.gcd(*r.values())
                pivots[lead] = {j: x // g for j, x in r.items()} if g != 1 else r
                break
            r = _combine(r, R, lead)
    return pivots


def _column_count(rows, ncols):
    if ncols is not None:
        return ncols
    if not rows:
        raise DimensionError("column count required for an empty matrix")
    return len(rows[0])


def pivot_columns(rows, ncols):
    """The columns of a rational matrix independent of the columns before them."""
    return sorted(_eliminate(_integer_rows(rows, ncols)))


def rank(rows, ncols=None):
    """Rank of a rational matrix (exact)."""
    if not rows:
        return 0
    return len(_eliminate(_integer_rows(rows, _column_count(rows, ncols))))


def kernel_dimension(rows, ncols=None):
    """Nullity of a rational matrix.  An empty matrix has nullity ncols."""
    ncols = _column_count(rows, ncols)
    return ncols - rank(rows, ncols)


def kernel_basis(rows, ncols):
    """Deterministic basis of the right kernel of a rational matrix.

    The echelon is brought to reduced form, from the last pivot row up:
    each pivot row is cleared, by `_combine`, in the pivot columns after
    its own.  One basis vector per free column f: 1 in column f and
    −R[f] / R[c] in the column c of each pivot row R; the empty matrix
    yields the standard basis.
    """
    pivots = _eliminate(_integer_rows(rows, ncols))
    for c in sorted(pivots, reverse=True):
        R = pivots[c]
        for p in [j for j in R if j != c and j in pivots]:
            R = _combine(R, pivots[p], p)
        pivots[c] = R
    zero, one = Fraction(0), Fraction(1)
    basis = {}
    for f in range(ncols):
        if f not in pivots:
            basis[f] = [zero] * ncols
            basis[f][f] = one
    for c, R in pivots.items():  # in reduced form R holds only c and free columns
        for f, x in R.items():
            if f != c:
                basis[f][c] = Fraction(-x, R[c])
    return [tuple(vec) for vec in basis.values()]


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
