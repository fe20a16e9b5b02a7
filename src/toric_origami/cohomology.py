"""Equivariant class spaces of a moment graph, over exact rationals.

A degree-d class assigns to every fixed point a homogeneous degree-d
polynomial in n variables such that along every graph edge the two
endpoint polynomials differ by a multiple of the edge weight (a linear
form).  This module computes the dimensions of those spaces (the Hilbert
function), derives even Betti numbers from them under the freeness
recursion, decides membership of explicit tuples with exact division,
and locates the degrees where new generators appear.

Class spaces are solved in the coordinates of a breadth-first spanning
forest of the moment graph: one degree-d polynomial f_r per component
root and one degree-(d - 1) quotient g_e per forest edge, with
f_v = f_r + sum alpha_e g_e over the forest edges on the root path of v.
A nonzero linear form alpha_e is not a zero divisor, so each g_e is fixed
by the class and this map onto the class space is an isomorphism.  Forest
edges hold by construction, so only the E - V + c edges off the forest
(E edges, V fixed points, c components) add constraint rows.  The rows
are sparse {column: int} dicts with no zero entry, handed to `lattice`
as they are: divisibility by an edge weight is read as vanishing on its
hyperplane, through an integer basis of it.  Restriction there is a ring
homomorphism, so the image of alpha_e x^m is that of the linear form
alpha_e, l_e, times that of the monomial x^m, of degree d - 1.  A
request over several degrees builds the forest once, and every degree
(one loop, for Hilbert and Betti numbers) shares each off-forest
weight's hyperplane basis, monomial images and l_e per forest weight,
held by the forest, so degree d + 1 extends the images of degree d - 1;
nothing outlives the request.  No row holds a root-block column, so
generator counts need only the classes on the forest-edge blocks, read
as integer {column: int} kernel vectors; multiplying by a variable
commutes with the map, so their products are taken block by block.
Ranks and kernels come from `lattice`, which eliminates over the
integers without fractions, so every answer is exact by construction.
Membership tests are exact polynomial division, never numerical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement
from typing import NamedTuple

from .exceptions import FreenessViolation, InternalConsistency, ShapeError
from .gkm import MomentGraph
from .lattice import _kernel_vectors, dot, integer_kernel_basis, kernel_dimension, rank

# bound here though unused: the benchmark's tracer (perfbench/tracing.py)
# wraps `cohomology.kernel_basis` by name and reports it missing otherwise
from .lattice import kernel_basis  # noqa: F401


@lru_cache(maxsize=None)
def monomial_basis(variables: int, degree: int) -> tuple:
    """Exponent tuples of the degree-d monomials in n variables, lex-descending."""
    if variables < 0 or degree < 0:
        raise ShapeError("variables and degree must be nonnegative")
    return tuple(
        tuple(c.count(i) for i in range(variables))
        for c in combinations_with_replacement(range(variables), degree)
    )


@dataclass(frozen=True)
class GradedPolySpace:
    """The space of homogeneous degree-d polynomials in n variables."""

    variables: int
    degree: int

    def __post_init__(self):
        if self.variables < 0 or self.degree < 0:
            raise ShapeError("variables and degree must be nonnegative")

    @property
    def basis(self) -> tuple:
        return monomial_basis(self.variables, self.degree)

    @property
    def dimension(self) -> int:
        if self.variables == 0:
            return 1 if self.degree == 0 else 0
        return math.comb(self.variables + self.degree - 1, self.variables - 1)

    def __len__(self):
        return self.dimension


@dataclass(frozen=True)
class _IntVector:
    """A tuple of ints, indexed and iterated as one; equal only within a class.
    A value equal to no int, such as 1.5 or "1", is refused, not truncated."""

    values: tuple

    def __post_init__(self):
        given = tuple(self.values)
        values = tuple(map(int, given))
        if values != given:
            raise TypeError(f"values must be integers, got {given!r}")
        object.__setattr__(self, "values", values)

    def __getitem__(self, i):
        return self.values[i]

    def __iter__(self):
        return iter(self.values)

    def __len__(self):
        return len(self.values)


class HilbertFunction(_IntVector):
    """Class-space dimensions h_0, h_1, ..., h_D of a moment graph."""

    def __str__(self):
        return " ".join(f"h{d}={v}" for d, v in enumerate(self.values))


class BettiVector(_IntVector):
    """Even Betti numbers b_0, b_2, ..., b_{2n}; entry i is b_{2i}."""

    @property
    def total(self) -> int:
        return sum(self.values)

    def __str__(self):
        return " ".join(f"b{2 * i}={v}" for i, v in enumerate(self.values))


@dataclass(frozen=True)
class ClassTuple:
    """A candidate class: one coefficient vector per fixed point.

    Coefficients are read against `monomial_basis(n, degree)` in order.
    """

    degree: int
    coefficients: tuple

    def __post_init__(self):
        if self.degree < 0:
            raise ShapeError("class degree must be nonnegative")
        coeffs = tuple(
            tuple(Fraction(c) for c in vec) for vec in self.coefficients
        )
        object.__setattr__(self, "coefficients", coeffs)


@dataclass(frozen=True)
class MembershipResult:
    """Outcome of a membership check.

    On success `quotients` holds, per graph edge, the exact polynomial
    quotient (an exponent-tuple -> Fraction mapping) of the endpoint
    difference by the edge weight.  On failure `violating_edge` is the
    first edge whose divisibility fails.
    """

    ok: bool
    quotients: tuple | None
    violating_edge: object | None
    violating_index: int | None

    def __bool__(self):
        return self.ok


def _unit_exponent(n, j):
    return tuple(1 if i == j else 0 for i in range(n))


def _poly_sub(p, q):
    out = dict(p)
    for e, c in q.items():
        r = out.get(e, Fraction(0)) - c
        if r:
            out[e] = r
        elif e in out:
            del out[e]
    return out


def _pivot_index(alpha):
    for i, c in enumerate(alpha):
        if c:
            return i
    raise InternalConsistency("edge weight is the zero vector")


def _times(poly, ell):
    """A polynomial in y, as a {y exponent: int} dict, times sum_k ell[k] y_k."""
    out = {}
    for k, a in enumerate(ell):
        if a:
            for y, c in poly.items():
                z = y[:k] + (y[k] + 1,) + y[k + 1 :]
                out[z] = out.get(z, 0) + a * c
    return out


def _restriction(mono, plane, images):
    """x^mono at x = sum_k y_k plane[k], as a {y exponent: int} dict memoised in images.

    It is the image of x^(mono - e_i) times that of x_i, sum_k plane[k][i] y_k.
    """
    if not any(mono):
        return {(0,) * len(plane): 1}
    if mono not in images:
        i = next(i for i, e in enumerate(mono) if e)
        lower = _restriction(mono[:i] + (mono[i] - 1,) + mono[i + 1 :], plane, images)
        images[mono] = _times(lower, [b[i] for b in plane])
    return images[mono]


def _endpoint_indices(g: MomentGraph):
    index = {fp: i for i, fp in enumerate(g.fixed_points)}
    out = []
    for e in g.edges:
        a, b = e.endpoints
        if a not in index or b not in index:
            raise InternalConsistency("edge endpoint is not among the fixed points")
        if len(e.weight) != g.dimension:
            raise ShapeError(
                f"edge weight has {len(e.weight)} entries in rank-{g.dimension} graph"
            )
        out.append((index[a], index[b], e))
    return out


class _Forest(NamedTuple):
    """A breadth-first spanning forest of a moment graph, as unknown blocks.

    `blocks` lists the unknowns in column order: None for the polynomial
    f_r at a component root, the weight alpha_e for the quotient g_e of a
    forest edge.  `up[v]` is (parent fixed point or None at a root, block
    of v's root or of the forest edge into v), so f_v = f_parent +
    alpha_e g_e.  `cycles` holds, per other edge (p, q), its weight and the
    (block, sign) pairs of the forest edges on exactly one of the root
    paths of p and q, + on p's side: f_p - f_q = sum sign * alpha_e g_e.
    `planes` maps each cycle weight to its hyperplane basis B, the images
    there of monomials of degree below d (the `_restriction` memo) and,
    per forest weight alpha_e, l_e = (<alpha_e, B_k>)_k, filled by
    `_constraint_rows` as degrees are solved over the forest and shared
    by them.
    """

    blocks: tuple
    up: tuple
    cycles: tuple
    planes: dict


def _spanning_forest(g: MomentGraph) -> _Forest:
    """The forest of a breadth-first search taking fixed points and edges in graph order."""
    ends = _endpoint_indices(g)
    if any(not any(e.weight) for _, _, e in ends):
        raise InternalConsistency("edge weight is the zero vector")
    at = [[] for _ in g.fixed_points]  # (edge index, other end) per edge end, a loop twice
    for k, (pi, qi, _) in enumerate(ends):
        at[pi].append((k, qi))
        at[qi].append((k, pi))
    blocks, up, depth = [], [None] * len(at), [0] * len(at)
    in_forest = set()
    for root in range(len(at)):
        if up[root] is not None:
            continue
        up[root] = (None, len(blocks))
        blocks.append(None)
        queue = [root]
        for u in queue:
            for k, w in at[u]:
                if up[w] is None:
                    up[w] = (u, len(blocks))
                    blocks.append(ends[k][2].weight)
                    depth[w] = depth[u] + 1
                    in_forest.add(k)
                    queue.append(w)
    cycles = []
    for k, (p, q, e) in enumerate(ends):
        if k in in_forest:
            continue
        path = []
        while p != q:
            if depth[p] >= depth[q]:
                p, b = up[p]
                path.append((b, 1))
            else:
                q, b = up[q]
                path.append((b, -1))
        if path:  # a loop constrains nothing
            cycles.append((e.weight, tuple(path)))
    return _Forest(tuple(blocks), tuple(up), tuple(cycles), {})


def _block_bases(n, degree):
    """Monomial bases of a root block (degree d) and a forest-edge block (d - 1)."""
    return monomial_basis(n, degree), (monomial_basis(n, degree - 1) if degree else ())


def _offsets(blocks, root_size, edge_size):
    """Column offset of each unknown block, and the column count."""
    offsets, total = [], 0
    for b in blocks:
        offsets.append(total)
        total += root_size if b is None else edge_size
    return offsets, total


def _constraint_rows(g: MomentGraph, degree: int, forest: _Forest | None = None):
    """Rows of the divisibility system over the forest unknowns (block, monomial).

    A forest edge holds by construction, so only each other edge (p, q)
    adds rows: f_p - f_q = sum sign * alpha_e g_e is divisible by its
    weight alpha exactly when it vanishes at x = B y, where the n - 1 rows
    of B = `integer_kernel_basis(alpha)` span alpha^perp.  Restriction is
    a ring homomorphism, so the coefficient of g_e[m] there is l_e(y) times
    the image of x^m, where l_e = (<alpha_e, B_k>)_k is 0, with nothing to
    add, when alpha_e is parallel to alpha.  Each row is one y-coefficient,
    a {column: int} dict holding no 0; a root block never appears in one,
    as f_r cancels in f_p - f_q.  `forest` is `_spanning_forest(g)`, built
    here when it is not passed in; B, the monomial images and each l_e are
    kept in `forest.planes`, so the degrees solved over one forest work
    each out once.
    """
    if forest is None:  # built first, so every graph is checked, with unknowns or none
        forest = _spanning_forest(g)
    n = g.dimension
    basis, lower = _block_bases(n, degree)
    if not basis:
        return [], 0
    offsets, ncols = _offsets(forest.blocks, len(basis), len(lower))
    rows = []
    if not lower:  # degree 0: f is constant on each component
        return rows, ncols
    ys = {y: i for i, y in enumerate(monomial_basis(n - 1, degree))}
    terms = {}  # (cycle weight, forest weight) -> per m in lower, alpha_e x^m as (row, int) pairs
    for weight, path in forest.cycles:
        if weight not in forest.planes:
            forest.planes[weight] = (integer_kernel_basis(weight), {}, {})
        plane, images, ells = forest.planes[weight]
        cycle_rows = [{} for _ in ys]
        for b, sign in path:
            alpha = forest.blocks[b]
            if (weight, alpha) not in terms:
                if alpha not in ells:
                    ells[alpha] = [dot(alpha, row) for row in plane]
                ell = ells[alpha]
                terms[weight, alpha] = [
                    [(ys[y], c) for y, c in _times(_restriction(m, plane, images), ell).items() if c]
                    for m in lower
                ] if any(ell) else ()
            # a root path holds each forest edge once, so no entry is written twice
            for col, image in enumerate(terms[weight, alpha], offsets[b]):
                for i, c in image:
                    cycle_rows[i][col] = sign * c
        rows.extend(cycle_rows)
    return rows, ncols


def _nullities(g: MomentGraph, max_degree: int):
    """The class-space dimension in degrees 0 through max_degree, over one
    spanning forest, built before degree 0."""
    forest = _spanning_forest(g)
    for d in range(max_degree + 1):
        rows, ncols = _constraint_rows(g, d, forest)
        yield kernel_dimension(rows, ncols) if ncols else 0


def _check_count(value, name):
    """Refuse, naming it, a degree or rank that is not a nonnegative int;
    a bool or 1.0 is refused too, before any cached basis can match it."""
    if type(value) is not int:
        raise ShapeError(f"{name} must be an int, not {type(value).__name__}")
    if value < 0:
        raise ShapeError(f"{name} must be nonnegative")


def gkm_dimension(g: MomentGraph, degree: int) -> int:
    """Dimension of the degree-d class space of a moment graph."""
    _check_count(degree, "degree")
    rows, ncols = _constraint_rows(g, degree)  # builds its own forest
    return kernel_dimension(rows, ncols) if ncols else 0


def hilbert_function(g: MomentGraph, max_degree: int) -> HilbertFunction:
    """Class-space dimensions in degrees 0 through max_degree."""
    _check_count(max_degree, "max_degree")
    return HilbertFunction(tuple(_nullities(g, max_degree)))


def betti_numbers(g: MomentGraph, n: int | None = None) -> BettiVector:
    """Even Betti numbers from the Hilbert function via the freeness recursion.

    Peels off one free module generator layer per degree:
    b_{2d} = h_d - sum_{j<d} b_{2j} * C(d-j+n-1, n-1).  A negative value
    or a total different from the number of fixed points contradicts
    freeness of the class module and raises FreenessViolation.
    """
    if n is None:
        n = g.dimension
    _check_count(n, "ambient rank")
    h = list(_nullities(g, n))
    b = []
    for d in range(n + 1):
        val = h[d] - sum(b[j] * GradedPolySpace(n, d - j).dimension for j in range(d))
        if val < 0:
            raise FreenessViolation(
                f"negative Betti number b_{2 * d} = {val}; module is not free"
            )
        b.append(val)
    if sum(b) != len(g.fixed_points):
        raise FreenessViolation(
            f"Betti numbers sum to {sum(b)}, expected {len(g.fixed_points)}"
        )
    return BettiVector(tuple(b))


def class_from_polynomials(g: MomentGraph, degree: int, polynomials) -> ClassTuple:
    """Build a ClassTuple from per-fixed-point exponent->coefficient mappings."""
    basis = monomial_basis(g.dimension, degree)
    polys = list(polynomials)
    if len(polys) != len(g.fixed_points):
        raise ShapeError(
            f"{len(polys)} polynomial(s) for {len(g.fixed_points)} fixed point(s)"
        )
    allowed = set(basis)
    for p in polys:
        for exp in p:
            if tuple(exp) not in allowed:
                raise ShapeError(f"monomial {exp} is not homogeneous of degree {degree}")
    coefficients = tuple(
        tuple(Fraction(p.get(m, 0)) for m in basis) for p in polys
    )
    return ClassTuple(degree=degree, coefficients=coefficients)


def _divide_by_linear(poly, alpha):
    """Exact quotient of a polynomial by a linear form, or None if not divisible."""
    if not poly:
        return {}
    k0 = _pivot_index(alpha)
    n = len(alpha)
    lead = Fraction(alpha[k0])
    divisor = {
        _unit_exponent(n, j): Fraction(alpha[j]) for j in range(n) if alpha[j]
    }
    remainder = dict(poly)
    quotient = {}
    while remainder:
        term = max(remainder, key=lambda m: (m[k0], m))
        if term[k0] == 0:
            return None
        qexp = term[:k0] + (term[k0] - 1,) + term[k0 + 1 :]
        qc = remainder[term] / lead
        quotient[qexp] = quotient.get(qexp, Fraction(0)) + qc
        for de, dc in divisor.items():
            e = tuple(a + b for a, b in zip(qexp, de))
            c = remainder.get(e, Fraction(0)) - qc * dc
            if c:
                remainder[e] = c
            elif e in remainder:
                del remainder[e]
    return {e: c for e, c in quotient.items() if c}


def check_membership(g: MomentGraph, c: ClassTuple) -> MembershipResult:
    """Decide whether a tuple satisfies every edge divisibility, exactly.

    Success carries the per-edge quotient polynomials as witnesses;
    failure names the first violating edge.  Shape mismatches between the
    tuple and the graph raise ShapeError.
    """
    n = g.dimension
    basis = monomial_basis(n, c.degree)
    if len(c.coefficients) != len(g.fixed_points):
        raise ShapeError(
            f"class has {len(c.coefficients)} component(s) for "
            f"{len(g.fixed_points)} fixed point(s)"
        )
    for i, vec in enumerate(c.coefficients):
        if len(vec) != len(basis):
            raise ShapeError(
                f"component {i} has {len(vec)} coefficient(s); degree-{c.degree} "
                f"basis has {len(basis)}"
            )
    polys = [
        {m: coef for m, coef in zip(basis, vec) if coef} for vec in c.coefficients
    ]
    quotients = []
    for idx, (pi, qi, e) in enumerate(_endpoint_indices(g)):
        diff = _poly_sub(polys[pi], polys[qi])
        q = _divide_by_linear(diff, e.weight)
        if q is None:
            return MembershipResult(
                ok=False, quotients=None, violating_edge=e, violating_index=idx
            )
        quotients.append(q)
    return MembershipResult(
        ok=True, quotients=tuple(quotients), violating_edge=None, violating_index=None
    )


def _shift_targets(blocks, n, degree):
    """Per variable x_i, {degree-(d - 1) column: degree-d column} of x_i
    times each forest-edge block column.

    Multiplying by x_i commutes with the forest coordinates, as
    x_i f_v = x_i f_r + sum alpha_e (x_i g_e), so it takes each g_e from
    degree d - 2 to d - 1.  The root blocks are left out: the classes
    `generator_degrees` multiplies hold none of their columns.
    """
    src = _block_bases(n, degree - 1)
    dst = _block_bases(n, degree)
    src_offsets, _ = _offsets(blocks, *map(len, src))
    dst_offsets, _ = _offsets(blocks, *map(len, dst))
    edges = [(s, t) for b, s, t in zip(blocks, src_offsets, dst_offsets) if b is not None]
    index = {m: j for j, m in enumerate(dst[1])}
    targets = []
    for i in range(n):
        shifted = list(enumerate(index[m[:i] + (m[i] + 1,) + m[i + 1 :]] for m in src[1]))
        targets.append({s + j: t + k for s, t in edges for j, k in shifted})
    return targets


def generator_degrees(g: MomentGraph, max_degree: int | None = None) -> tuple:
    """Degrees (with multiplicities) where new module generators appear.

    In each degree d the count is h_d minus the dimension spanned inside
    the degree-d class space by monomial multiples of lower-degree
    classes; as x^m * c = x_i * (x^(m - e_i) * c), the products of the
    variables with the degree d - 1 classes span it.  No constraint row
    holds a root-block column, so the class space is the whole of each
    root block (c of them, one per component) plus the classes on the
    forest-edge blocks alone, and for d >= 1 the variables times the root
    blocks fill every root column.  So the count is h_d - c dim S_d minus
    the rank of the variables times the degree-(d - 1) classes off the
    root blocks, read as integer kernel vectors; degree 0 has the c
    constants.  The last degree needs only h_d.  Only nonzero counts are
    reported, as (degree, count) pairs in increasing degree.
    """
    n = g.dimension
    if max_degree is None:
        max_degree = n
    _check_count(max_degree, "max_degree")
    forest = _spanning_forest(g)
    roots = forest.blocks.count(None)
    lower = []  # the degree d - 1 classes off the root blocks, as {column: int} vectors
    out = []
    for d in range(max_degree + 1):
        rows, ncols = _constraint_rows(g, d, forest)
        products = []
        if lower:  # latest free column first: far fewer elimination steps than column order
            for target in _shift_targets(forest.blocks, n, d):
                products += [{target[c]: x for c, x in vec.items()} for vec in reversed(lower)]
        spanned = rank(products, ncols) if products else 0
        basis, edge_basis = _block_bases(n, d)
        if d < max_degree:
            offsets, _ = _offsets(forest.blocks, len(basis), len(edge_basis))
            root_columns = {
                t + j
                for b, t in zip(forest.blocks, offsets)
                if b is None
                for j in range(len(basis))
            }
            vectors = _kernel_vectors(rows, ncols) if ncols else {}
            lower = [vec for f, vec in vectors.items() if f not in root_columns]
            dimension = len(lower)
        else:
            dimension = (kernel_dimension(rows, ncols) if ncols else 0) - roots * len(basis)
        count = dimension - spanned if d else roots
        if count < 0:
            raise InternalConsistency(
                f"degree-{d} products exceed the class space they live in"
            )
        if count:
            out.append((d, count))
    return tuple(out)
