"""Exact lattice and rational linear algebra.

Everything here is computed over Python ints and `fractions.Fraction`; no
floating point is used anywhere in the package core.  Lattice vectors are
tuples of ints, rational points are tuples of Fractions, and matrices are
sequences of row tuples.  All functions are pure and their outputs are
deterministic (pivots are always the first nonzero entry in column order).

`rank`, `kernel_dimension` and `kernel_basis` share one certified modular
kernel.  Each row is scaled to integers and the matrix is brought to
reduced row echelon form modulo a large prime p; every kernel
vector read off the free columns is lifted to the rationals by rational
reconstruction and checked exactly against every row.  A passing check is
a proof: the lifted vectors are independent (the identity sits on the free
columns), so the rational nullity is at least the modular one, and rank
mod p never exceeds the rational rank.  The lifted basis is then the
rational reduced echelon basis itself.  When reconstruction or the check
fails the next prime is tried, and past the last one the matrix is reduced
over `Fraction` instead.

A wide matrix (more columns than rows) has its rank certified on the row
side: `rank`, and with it `kernel_dimension` (ncols - rank), eliminates the
transpose, whose rank is the same, so the certificate lifts one vector per
dependent row instead of one per free column.  Its fallback reduces the
original rows.  A row of ints is taken as it is, with no per-entry work in
Python; only a row holding another type is scaled to integers.
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


def _reduced_echelon(rows, ncols):
    """Reduced row echelon form over Fraction; returns (rows, pivot_columns)."""
    mat = [[Fraction(c) for c in r] for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        pv = mat[r][c]
        mat[r] = [x / pv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
    return mat[:r], pivots


# Fixed primes for the modular kernel, tried in order before the Fraction route.
_PRIMES = (2**61 - 1, 2**62 - 57, 2**63 - 25)


def _integer_rows(rows, ncols):
    """Each row scaled by the lcm of its denominators, as a sparse {column: int} dict.

    int and Fraction entries are read as they are; any other entry goes
    through Fraction(), so "1/2", 0.5 and Decimal("0.5") are all 1/2.
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
            entries = {c: x.numerator * (scale // x.denominator) for c, x in entries.items()}
        out.append(entries)
    return out


def _reconstruct(x, p, bound):
    """(n, d) with n = d * x mod p, |n| <= bound and 0 < d <= bound, or None (Wang 1981)."""
    r0, r1 = p, x
    t0, t1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if t1 < 0:
        r1, t1 = -r1, -t1
    return (r1, t1) if t1 <= bound else None


def _modular_kernel(int_rows, ncols, p):
    """Certified (pivot columns, kernel vectors) of an integer matrix, or None.

    The matrix is reduced mod p to reduced row echelon form, pivoting on
    each new row's leading column.  The kernel vector of each free column
    is lifted to the rationals and must annihilate every row exactly; on
    any failure the answer is None.  Kernel vectors are sparse
    {column: (numerator, denominator)} dicts in free-column order.
    """
    pivots = {}  # pivot column -> its reduced row mod p, without the leading 1
    for row in int_rows:
        r = {}
        for c, a in row.items():
            a %= p
            if a:
                r[c] = a
        # pivot rows vanish on each other's pivot columns: one pass clears them
        for c in [c for c in r if c in pivots]:
            f = r.pop(c)
            for j, a in pivots[c].items():
                v = (r.get(j, 0) - f * a) % p
                if v:
                    r[j] = v
                else:
                    del r[j]
        if not r:
            continue
        lead = min(r)
        inv = pow(r.pop(lead), -1, p)
        new = {j: a * inv % p for j, a in r.items()}
        for prow in pivots.values():
            g = prow.pop(lead, 0)
            if g:
                for j, a in new.items():
                    v = (prow.get(j, 0) - g * a) % p
                    if v:
                        prow[j] = v
                    else:
                        del prow[j]
        pivots[lead] = new

    kernel = {f: {f: 1} for f in range(ncols) if f not in pivots}
    for c, prow in pivots.items():
        for j, a in prow.items():
            kernel[j][c] = p - a
    columns = [[] for _ in range(ncols)]  # the integer matrix by column
    for i, row in enumerate(int_rows):
        for c, a in row.items():
            columns[c].append((i, a))
    bound = math.isqrt(p // 2)
    vectors = []
    for vec in kernel.values():
        lifted = {}
        for c, x in vec.items():
            q = _reconstruct(x, p, bound)
            if q is None:
                return None
            lifted[c] = q
        scale = math.lcm(*(d for _, d in lifted.values()))
        residual = {}
        for c, (n, d) in lifted.items():
            w = n * (scale // d)
            for i, a in columns[c]:
                residual[i] = residual.get(i, 0) + a * w
        if any(residual.values()):
            return None
        vectors.append(lifted)
    return sorted(pivots), vectors


def _solve(rows, ncols):
    """Pivot columns and kernel vectors of a rational matrix, exactly.

    Tries the modular kernel at each prime of `_PRIMES`, then falls back to
    `_reduced_echelon`; both give the same answer.
    """
    int_rows = _integer_rows(rows, ncols)
    for p in _PRIMES:
        found = _modular_kernel(int_rows, ncols, p)
        if found is not None:
            return found
    ech, pivots = _reduced_echelon(rows, ncols)
    pivot_set = set(pivots)
    vectors = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = {free: (1, 1)}
        for row, pc in zip(ech, pivots):
            if row[free]:
                vec[pc] = (-row[free].numerator, row[free].denominator)
        vectors.append(vec)
    return pivots, vectors


def _column_count(rows, ncols):
    if ncols is not None:
        return ncols
    if not rows:
        raise DimensionError("column count required for an empty matrix")
    return len(rows[0])


def pivot_columns(rows, ncols):
    """The columns of a rational matrix independent of the columns before them."""
    return _solve(rows, ncols)[0]


def rank(rows, ncols=None):
    """Rank of a rational matrix (exact).

    A wide matrix is eliminated by its columns, whose rank is the same, so
    the certificate lifts one vector per dependent row, not one per free
    column.
    """
    if not rows:
        return 0
    ncols = _column_count(rows, ncols)
    if ncols <= len(rows):
        return len(_solve(rows, ncols)[0])
    columns = [{} for _ in range(ncols)]
    for i, row in enumerate(_integer_rows(rows, ncols)):
        for c, a in row.items():
            columns[c][i] = a
    columns = [column for column in columns if column]  # zero columns add no rank
    for p in _PRIMES:
        found = _modular_kernel(columns, len(rows), p)
        if found is not None:
            return len(found[0])
    return len(_reduced_echelon(rows, ncols)[1])


def kernel_dimension(rows, ncols=None):
    """Nullity of a rational matrix.  An empty matrix has nullity ncols."""
    ncols = _column_count(rows, ncols) if rows or ncols is None else ncols
    return ncols - rank(rows, ncols)


def kernel_basis(rows, ncols):
    """Deterministic basis of the right kernel of a rational matrix.

    One basis vector per free column, with a 1 in the free column and the
    pivot columns back-substituted; the empty matrix yields the standard
    basis.
    """
    zero = Fraction(0)
    basis = []
    for vec in _solve(rows, ncols)[1]:
        dense = [zero] * ncols
        for c, (n, d) in vec.items():
            dense[c] = Fraction(n, d)
        basis.append(tuple(dense))
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

    For a primitive v of length n the result has n - 1 rows and spans the
    full sublattice {w : <v, w> = 0} of Z^n (a direct summand).
    """
    n = len(v)
    pairs = [(int(v[j]), [1 if k == j else 0 for k in range(n)]) for j in range(n)]
    kernel = [vec for val, vec in pairs if val == 0]
    live = [(val, vec) for val, vec in pairs if val != 0]
    while len(live) > 1:
        live.sort(key=lambda t: abs(t[0]))
        g, gvec = live[0]
        nxt = [(g, gvec)]
        for val, vec in live[1:]:
            q = val // g
            nval = val - q * g
            nvec = [x - q * y for x, y in zip(vec, gvec)]
            if nval == 0:
                kernel.append(nvec)
            else:
                nxt.append((nval, nvec))
        live = nxt
    return hermite_basis(kernel, n)


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
