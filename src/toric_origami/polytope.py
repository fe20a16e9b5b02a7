"""Convex rational polytopes in halfspace representation.

A polytope here is the solution set of finitely many inequalities
``<normal, x> <= offset`` with primitive integer normals and rational
offsets.  Construction enforces the structural requirements — nonempty,
bounded, full-dimensional, no duplicate or redundant halfspace — while
simplicity and smoothness stay queryable predicates so that candidate
polytopes can be inspected and rejected with a reason.

Polytope facts come from one vertex–facet incidence, the halfspaces tight
at each vertex, recorded while the vertices are enumerated.  Enumeration
is a depth-first walk over facet subsets that reduces the integer rows
[a | b] of each prefix by Bareiss's fraction-free elimination and drops a
subset as soon as its normals are linearly dependent.  That is the only
elimination for vertices: each nonsingular n-subset is back-substituted
from its echelon, and its last pivot is ±det of its normals, so
smoothness (|det| = 1 at every simple vertex) is recorded by the walk
too.  Past VERTEX_WALK_LIMIT independent subsets the input is refused
with Unsupported instead of left to run.  A face has dimension
n − rank(normals of the facets containing it), since its affine
hull is cut out by the inequalities tight on all of it; at a vertex on
exactly n facets those normals are a basis, so the rank is a count.  If
every vertex is on exactly n facets, the polytope is bounded when each
edge has two end vertices.  So on simple input no elimination runs after
the scan: `recession_direction` and `rank` serve only inputs with no
vertex or one on more than n facets.  That check records the two end
vertices of each edge, keyed by the n − 1 facets they share, and the
instance keeps the record: those pairs are the 1-faces (`one_faces`), so
asking for edges builds no other face.  Faces are closed and ordered over
bitmasks of the sorted vertices.

All vertex coordinates are exact (`fractions.Fraction`).  Inside, each
vertex number also keeps an integer key, the vertex times one positive
common denominator: the vertices are sorted by these keys, and edge
directions are read off their differences, so no `Fraction` is compared
or subtracted for either.  Each halfspace keeps its normalized pair as
one integer row (`HalfSpace.row`), compared and hashed as ints, so fold
agreement and facet charts hash or compare no `Fraction`.  A face is
identified by its active facets, which determine it uniquely within its
polytope, and no vertex point set is built unless asked for; two
structurally identical polytopes produce equal faces, so code that mixes
several polytopes must key faces by (polytope id, face).
A face holds its polytope through a weak reference (`Face.owner`), so a
polytope and the faces it caches form no reference cycle, and a polytope
nothing else holds is freed by reference count.  A polytope pickles and
deep-copies as its description: the copy is rebuilt from its halfspaces.
"""

from __future__ import annotations

import math
import weakref
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from operator import mul

from .exceptions import (
    DegenerateInput,
    DimensionError,
    FaceMismatch,
    NotDelzant,
    NotSimple,
    Unsupported,
)
from .lattice import (
    dot,
    integer_kernel_basis,
    pivot_columns,
    primitive,
    rank,
    recession_direction,
)


def _exact(value, what) -> Fraction:
    """`value` read exactly as a `Fraction` (a finite float too); DegenerateInput
    naming it when it is no exact rational, such as nan, inf, None or "x"."""
    if type(value) is Fraction:
        return value
    try:
        return Fraction(value)
    except (TypeError, ValueError, OverflowError, ZeroDivisionError):
        raise DegenerateInput(f"halfspace {what} must be an exact rational, got {value!r}") from None


@dataclass(frozen=True, eq=False)
class HalfSpace:
    """One inequality <normal, x> <= offset with a primitive integer normal.

    The pair is normalized at construction: (2, 4) . x <= 6 is stored as
    (1, 2) . x <= 3.  Two HalfSpace values are equal exactly when they
    describe the same subset of the ambient space.  `row` is the
    normalized pair as one tuple of ints, (*normal, offset numerator,
    offset denominator), and equality and hashing read only that.
    """

    normal: tuple
    offset: Fraction

    def __post_init__(self):
        entries = tuple(self.normal)
        if not all(type(c) is int for c in entries):
            exact = [_exact(c, "normal entry") for c in entries]
            if any(c.denominator != 1 for c in exact):
                raise DegenerateInput(
                    f"halfspace normal must have integer entries, got {self.normal}"
                )
            entries = tuple(c.numerator for c in exact)
        g = math.gcd(*entries)
        if g == 0:
            raise DegenerateInput("halfspace normal must be a nonzero integer vector")
        offset = _exact(self.offset, "offset")
        if g != 1:
            entries = tuple(c // g for c in entries)
            offset = offset / g
        object.__setattr__(self, "normal", entries)
        object.__setattr__(self, "offset", offset)
        object.__setattr__(self, "row", (*entries, offset.numerator, offset.denominator))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.row == other.row

    def __hash__(self):
        return hash(self.row)

    def contains(self, point) -> bool:
        return dot(self.normal, point) <= self.offset

    def on_boundary(self, point) -> bool:
        return dot(self.normal, point) == self.offset

    def __repr__(self):
        return f"HalfSpace({list(self.normal)} . x <= {self.offset})"


def _as_halfspace(item) -> HalfSpace:
    if isinstance(item, HalfSpace):
        return item
    normal, offset = item
    return HalfSpace(tuple(normal), offset)


def _is_facet_index(f, p) -> bool:
    """Is `f` an int (not a bool) naming one of the halfspaces of `p`?"""
    return isinstance(f, int) and not isinstance(f, bool) and 0 <= f < len(p.halfspaces)


def _require_facet(p, f):
    if not _is_facet_index(f, p):
        raise FaceMismatch(
            f"facet index {f!r} names no halfspace of a polytope with {len(p.halfspaces)} halfspaces"
        )


@dataclass(frozen=True)
class Face:
    """A nonempty face of a polytope.

    `active` is maximal (every facet index whose facet contains the face)
    and `vertices` is sorted, so within one polytope equal Face values
    describe equal subsets of the ambient space, and distinct faces have
    distinct active sets: a Face hashes its `active`.  `numbers` holds the
    vertices' indices into `owner.vertices`, in the same order, and
    `vertex_set` the vertices as a frozenset, built on first access.  A
    face holds its polytope weakly (`owner_ref`), so `owner` is the
    polytope while it lives and None after.  `owner_ref` and `numbers` are
    excluded from comparison; see the module docstring.
    """

    active: frozenset
    vertices: tuple
    dim: int
    owner_ref: weakref.ref = field(compare=False, repr=False)
    numbers: tuple = field(compare=False, repr=False)

    @property
    def owner(self) -> "DelzantPolytope | None":
        return self.owner_ref()

    @cached_property
    def vertex_set(self) -> frozenset:
        return frozenset(self.vertices)

    def __hash__(self):
        return hash(self.active)  # a frozenset caches its hash

    def __repr__(self):
        return f"Face(dim={self.dim}, active={sorted(self.active)}, vertices={list(self.vertices)})"


# The most independent facet-subset prefixes one vertex walk may visit.  An
# 11-cube visits 31 412 and builds.  A 12-cube would visit 76 685, and 40
# halfspaces in general position in dimension 8 at least C(40, 8) ≈ 7.7·10^7,
# so both are refused, in about a second, instead of left to run.
VERTEX_WALK_LIMIT = 50_000


def _independent_subsets(rows, n) -> list:
    """The Bareiss echelon of every n-subset of the rows [a_i | b_i] whose
    normals a_i are linearly independent, in lexicographic subset order.

    An echelon is a tuple of (row index, pivot column, reduced row).  A
    depth-first walk over increasing prefixes reduces each new row against
    the prefix's echelon by Bareiss's fraction-free step, which divides
    exactly by the previous pivot (Bareiss, Math. Comp. 1968), and drops
    the prefix as soon as the normal part reduces to zero, since every
    subset holding a dependent prefix is singular.  Every entry is then a
    minor of the integer matrix [A | b], and the last pivot of an n-subset
    S is ±det A_S.  Raises Unsupported once the walk has visited more than
    VERTEX_WALK_LIMIT independent prefixes, before any system is solved.
    """
    m = len(rows)
    found = []
    visited = 0
    stack = [()]  # echelons of the prefixes to extend
    while stack:
        echelon = stack.pop()
        if len(echelon) == n:
            found.append(echelon)
            continue
        # pushed last to first, so the stack extends the first index first
        for i in reversed(range(echelon[-1][0] + 1 if echelon else 0, m - n + len(echelon) + 1)):
            row = rows[i]
            prev = 1
            for _, c, e in echelon:  # each echelon row is zero on the pivots before its own
                p, x = e[c], row[c]
                row = [(p * a - x * b) // prev for a, b in zip(row, e)]
                prev = p
            pivot = next((c for c in range(n) if row[c]), None)
            if pivot is None:  # the normal lies in the span of the prefix
                continue
            visited += 1
            if visited > VERTEX_WALK_LIMIT:
                raise Unsupported(
                    f"vertex enumeration in dimension {n} over {m} halfspaces visits more "
                    f"than {VERTEX_WALK_LIMIT} independent facet subsets"
                )
            stack.append(echelon + ((i, pivot, row),))
    return found


def solve_square(echelon, n) -> tuple:
    """(X, d) with A_S·X = d·b_S, from the Bareiss echelon of an n-subset S.

    d is the last pivot, ±det A_S (1 for n = 0), and X is back-substituted
    in integers (Cramer's rule): row by row from the last, each division by
    the row's pivot is exact.
    """
    d = echelon[-1][2][echelon[-1][1]] if echelon else 1
    X = [0] * n
    for _, c, row in reversed(echelon):  # X is 0 on the pivots still unsolved
        X[c] = (d * row[n] - sum(map(mul, row, X))) // row[c]
    return X, d


def _vertex_incidence(normals, offsets, n) -> tuple:
    """(each vertex's integer key, sorted; the indices of the halfspaces
    tight at each; the keys' common denominator; whether every subset
    solved to a vertex has |det| = 1), the first two indexed alike, by
    vertex number.

    Only the n-subsets with independent normals (`_independent_subsets`)
    are solved; every other subset is singular.  Offsets are scaled to
    integers, and a solution is held as integers X over a denominator d > 0
    with gcd(X, d) = 1, so the slacks d·b − <a, X> are ints.  A vertex's
    key is X scaled to the lcm D of the d's: every key is the vertex times
    one positive constant, step = D times the lcm of the offsets'
    denominators, so keys sort as the vertices do, and the vertices are
    sorted by their keys.  When every vertex is simple, its tight set is
    the one subset solved to it, so the record is smoothness.
    """
    scale = math.lcm(*(b.denominator for b in offsets))
    rhs = [b.numerator * (scale // b.denominator) for b in offsets]
    incidence = {}  # (X, d) -> tight indices
    smooth = True
    for echelon in _independent_subsets([(*a, b) for a, b in zip(normals, rhs)], n):
        X, det = solve_square(echelon, n)
        g = math.gcd(det, *X) if det > 0 else -math.gcd(det, *X)
        point, d = tuple(x // g for x in X), det // g
        slacks = [b * d - sum(map(mul, a, point)) for a, b in zip(normals, rhs)]
        if min(slacks, default=0) >= 0:
            incidence[point, d] = tuple(i for i, s in enumerate(slacks) if s == 0)
            smooth = smooth and abs(det) == 1
    D = math.lcm(*(d for _, d in incidence))
    keyed = sorted((tuple(x * (D // d) for x in X), t) for (X, d), t in incidence.items())
    return tuple(key for key, _ in keyed), tuple(t for _, t in keyed), D * scale, smooth


def _edge_pairs(tight_sets, n) -> tuple | None:
    """The edges of a bounded simple polytope as sorted (vertex number, vertex
    number) pairs, or None.

    When there is a vertex, each lies on exactly n facets and each n − 1 of
    those are shared by exactly two vertices, every edge has two ends, and a
    pointed polyhedron with no unbounded edge is bounded.  Those two
    vertices are then the ends of an edge, and the n − 1 facets its active
    set.  None otherwise.
    """
    if not tight_sets or n == 0 or any(len(t) != n for t in tight_sets):
        return None
    ends = {}
    for k, t in enumerate(tight_sets):
        for s in combinations(t, n - 1):
            ends.setdefault(s, []).append(k)
    if any(len(e) != 2 for e in ends.values()):
        return None
    return tuple(sorted(map(tuple, ends.values())))


def _is_nonempty_without_vertex(normals, offsets, n) -> bool:
    """Whether {x : <a_i, x> <= b_i}, known to have no vertex, is nonempty.

    With normals of full rank n it is pointed, so it is empty.  With rank
    r < n it contains lines and is nonempty exactly when its image on r
    pivot columns of the normals is, which is pointed and so has a vertex.
    """
    pivots = pivot_columns(normals, n)
    if len(pivots) == n:
        return False
    image = [[a[j] for j in pivots] for a in normals]
    return bool(_vertex_incidence(image, offsets, len(pivots))[0])


class DelzantPolytope:
    """A bounded full-dimensional polytope given by irredundant halfspaces.

    Raises NotDelzant at construction when the data is empty, unbounded,
    lower-dimensional (a halfspace tight at every vertex), duplicated, or
    contains a halfspace whose facet has dimension below n − 1, and
    Unsupported when enumerating its vertices would visit more than
    VERTEX_WALK_LIMIT independent facet subsets.  From the
    tight sets, `is_simple` counts n at every vertex; `is_smooth` returns
    the walk's record that |det A_S| = 1 for each facet subset S solved to
    a vertex, on a simple polytope its tight set; `is_delzant` is their
    conjunction.
    Boundedness and face dimensions are read off the tight sets as well;
    `recession_direction` runs only when some vertex is not simple, some
    edge has one end or there is no vertex, and `rank` only for a face
    with two or more vertices, none of them simple.
    Instances are immutable and safe to share between templates.
    """

    def __init__(self, dimension: int, halfspaces):
        if not isinstance(dimension, int) or isinstance(dimension, bool) or dimension < 0:
            raise DimensionError(f"dimension must be a nonnegative int, got {dimension!r}")
        hs = tuple(_as_halfspace(h) for h in halfspaces)
        for h in hs:
            if len(h.normal) != dimension:
                raise DimensionError(
                    f"normal {h.normal} has length {len(h.normal)}, expected {dimension}"
                )
        rows = frozenset(h.row for h in hs)
        if len(rows) != len(hs):
            raise NotDelzant("duplicate halfspace in description")
        normals = [h.normal for h in hs]
        offsets = [h.offset for h in hs]
        self._store(dimension, hs, rows, _vertex_incidence(normals, offsets, dimension))
        if not self._vertices and not _is_nonempty_without_vertex(normals, offsets, dimension):
            raise NotDelzant("polytope is empty")
        if self._edge_pairs is None:
            ray = recession_direction(normals, dimension)
            if ray is not None:
                raise NotDelzant(f"polytope is unbounded in direction {ray}")
        if (1 << len(self._vertices)) - 1 in self._facet_masks:
            raise NotDelzant("polytope is not full-dimensional")
        for i, mask in enumerate(self._facet_masks):
            if not mask or self._active_and_dimension(mask)[1] != dimension - 1:
                raise NotDelzant(f"halfspace {hs[i]!r} is redundant (does not support a facet)")

    @classmethod
    def _from_incidence(cls, dimension, halfspaces, keys, tights, step):
        """The Delzant polytope whose sorted vertex keys over `step` and tight
        sets are given; the caller vouches for them, so nothing is checked."""
        self = cls.__new__(cls)
        rows = frozenset(h.row for h in halfspaces)
        self._store(dimension, halfspaces, rows, (keys, tights, step, True))
        return self

    def _store(self, dimension, halfspaces, rows, incidence):
        """Keep the vertex–facet incidence and derive every fact read off it."""
        self._dim = dimension
        self._halfspaces = halfspaces
        self._halfspace_set = rows
        self._keys, self._tights, self._step, self._smooth = incidence
        self._vertices = tuple(tuple(Fraction(x, self._step) for x in key) for key in self._keys)
        tights = self._tights  # vertex k is bit k of a vertex mask
        self._edge_pairs = _edge_pairs(tights, dimension)
        # per facet: its vertex numbers, ascending, and the same as a mask
        self._facet_numbers = [
            tuple(k for k, t in enumerate(tights) if i in t) for i in range(len(halfspaces))
        ]
        self._facet_masks = [sum(1 << k for k in ks) for ks in self._facet_numbers]
        self._simple_mask = sum(1 << k for k, t in enumerate(tights) if len(t) == dimension)
        self._simple = self._simple_mask == (1 << len(self._vertices)) - 1
        self._face_map = self._sorted_faces = self._one_faces = self._edges_at = None

    # -- construction checks ---------------------------------------------

    def _active_and_dimension(self, mask) -> tuple:
        """The facets containing a face's vertex mask, and the face's dimension.

        The face's affine hull is cut out by the inequalities tight on all
        of it (Schrijver, Theory of Linear and Integer Programming, §8.3),
        so its dimension is n − rank of their normals.  When the face has
        a vertex on exactly n facets, those n normals form a basis holding
        the active ones, so the rank is their count.
        """
        active = frozenset(i for i, fm in enumerate(self._facet_masks) if mask & fm == mask)
        if mask & self._simple_mask:
            return active, self._dim - len(active)
        if mask & (mask - 1) == 0:  # a vertex: its tight normals have rank n
            return active, 0
        normals = [self._halfspaces[i].normal for i in active]
        return active, self._dim - rank(normals, self._dim)

    # -- basic accessors ---------------------------------------------------

    @property
    def dimension(self) -> int:
        return self._dim

    @property
    def halfspaces(self) -> tuple:
        return self._halfspaces

    @property
    def vertices(self) -> tuple:
        """All vertices, sorted lexicographically."""
        return self._vertices

    @cached_property
    def facet_vertex_sets(self) -> tuple:
        """For each halfspace index, the frozenset of vertices on that facet."""
        return tuple(frozenset(self._vertices[k] for k in ks) for ks in self._facet_numbers)

    def contains(self, point) -> bool:
        return all(h.contains(point) for h in self._halfspaces)

    def active_at(self, vertex) -> tuple:
        """Indices of halfspaces tight at a point of the polytope."""
        return tuple(i for i, h in enumerate(self._halfspaces) if h.on_boundary(vertex))

    # -- classification ------------------------------------------------------

    def is_simple(self) -> bool:
        """True when every vertex lies on exactly `dimension` facets."""
        return self._simple

    def vertex_edge_directions(self, vertex) -> tuple:
        """Primitive integer directions of the edges leaving a vertex.

        Defined for simple polytopes: for each facet through the vertex,
        the direction of the edge through the vertex that leaves that
        facet, from the vertex to the edge's other endpoint.  Order
        matches `active_at`.
        """
        if not self.is_simple():
            raise NotSimple("edge directions at a vertex need a simple polytope")
        point = tuple(vertex)
        k = bisect_left(self._vertices, point)  # vertices are sorted
        if k == len(self._vertices) or self._vertices[k] != point:
            raise FaceMismatch(f"{vertex} is not a vertex of this polytope")
        tight = self._tights[k]
        dirs = {}
        keys = self._keys
        for edge in self.one_faces_at(self._vertices[k]):
            (leave,) = set(tight) - edge.active  # an edge lies on all but one facet of the vertex
            a, b = edge.numbers
            other = b if a == k else a
            dirs[leave] = primitive([y - x for x, y in zip(keys[k], keys[other])])
        return tuple(dirs[i] for i in tight)

    def is_smooth(self) -> bool:
        """True when at each vertex the primitive edge directions form a lattice basis.

        At a simple vertex with primitive tight normals A these directions are
        the columns of −A⁻¹ made primitive, a basis exactly when |det A| = 1.
        A is the facet subset the vertex walk solved to that vertex, so the
        answer is the walk's |det| record and nothing is computed here.
        Raises NotSimple for non-simple polytopes, where the criterion does
        not apply.
        """
        if not self.is_simple():
            raise NotSimple("smoothness is only defined for simple polytopes")
        return self._smooth

    def is_delzant(self) -> bool:
        return self.is_simple() and self.is_smooth()

    # -- face structure -----------------------------------------------------

    def _face(self, active, numbers, dim) -> Face:
        vertices = tuple(self._vertices[k] for k in numbers)
        return Face(active, vertices, dim, weakref.ref(self), numbers)

    def faces(self) -> tuple:
        """All nonempty faces, the polytope itself included, sorted by (dim, vertices).

        The facet intersections are closed over vertex masks, and faces sort
        by (dim, vertex numbers), which is (dim, vertices) order.
        """
        if self._sorted_faces is not None:
            return self._sorted_faces
        full = (1 << len(self._vertices)) - 1
        seen = {full}
        queue = [full]
        while queue:
            current = queue.pop()
            for facet_mask in self._facet_masks:
                meet = current & facet_mask
                if meet and meet not in seen:
                    seen.add(meet)
                    queue.append(meet)
        keyed = []
        for mask in seen:
            active, dim = self._active_and_dimension(mask)
            numbers = tuple(k for k in range(len(self._vertices)) if mask >> k & 1)
            keyed.append(((dim, numbers), active))
        keyed.sort(key=lambda ka: ka[0])
        # on a simple polytope the 1-faces are the edge record's objects
        edges = {f.numbers: f for f in self.one_faces()} if self._edge_pairs is not None else {}
        self._sorted_faces = tuple(
            edges.get(numbers) or self._face(a, numbers, dim) for (dim, numbers), a in keyed
        )
        return self._sorted_faces

    def one_faces(self) -> tuple:
        """The 1-faces (edges), in `faces()` order.

        On a bounded simple polytope they come from the edge record kept
        from the boundedness check: each pair of vertices sharing n − 1
        facets, those facets its active set, so no other face is built, and
        `faces()` takes its 1-faces from here.  Otherwise they are read off
        `faces()`.  Either way a 1-face's two vertex numbers ascend, and the
        integer keys sort as the vertices do, so the difference of its
        second and first vertex key is lex-positive.
        """
        if self._one_faces is None:
            if self._edge_pairs is None:
                self._one_faces = tuple(f for f in self.faces() if f.dim == 1)
            else:
                tights = self._tights
                self._one_faces = tuple(
                    self._face(frozenset(tights[a]).intersection(tights[b]), (a, b), 1)
                    for a, b in self._edge_pairs
                )
        return self._one_faces

    def face_with_vertices(self, vertex_set) -> Face:
        """The face whose vertex set is exactly `vertex_set`; FaceMismatch if absent."""
        points = frozenset(map(tuple, vertex_set))
        if self._face_map is None:
            self._face_map = {f.vertex_set: f for f in self.faces()}
        try:
            return self._face_map[points]
        except KeyError:
            raise FaceMismatch(f"no face of this polytope has vertex set {sorted(points)}") from None

    def faces_meeting(self, face: Face) -> tuple:
        """Indices of the facets whose intersection with `face` is nonempty.

        Facets containing the face itself are included; two faces of one
        polytope meet exactly when they share a vertex.
        """
        if face.owner is not self:
            raise FaceMismatch("face does not belong to this polytope")
        mask = sum(1 << k for k in face.numbers)
        return tuple(i for i, fm in enumerate(self._facet_masks) if mask & fm)

    def one_faces_at(self, vertex) -> tuple:
        """The edges (1-faces) through a vertex, in `faces()` order; () for a non-vertex."""
        if self._edges_at is None:
            self._edges_at = {v: () for v in self._vertices}
            for f in self.one_faces():
                for v in f.vertices:
                    self._edges_at[v] += (f,)
        return self._edges_at.get(tuple(vertex), ())

    # -- equality -------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, DelzantPolytope):
            return NotImplemented
        return self._dim == other._dim and self._halfspace_set == other._halfspace_set

    def __hash__(self):
        return hash((self._dim, self._halfspace_set))

    def __reduce__(self):
        # rebuilt from its description: a copy's faces hold the copy, and
        # the cached faces, which hold their polytope weakly, are not pickled
        return DelzantPolytope, (self._dim, self._halfspaces)

    def __repr__(self):
        return (
            f"DelzantPolytope(dim={self._dim}, facets={len(self._halfspaces)}, "
            f"vertices={len(self._vertices)})"
        )


def agree_near_facet(p1: DelzantPolytope, f1: int, p2: DelzantPolytope, f2: int) -> bool:
    """Do two polytopes coincide in a neighborhood of a shared facet?

    True when (a) facet f1 of p1 and facet f2 of p2 are the same subset of
    the ambient space, and (b) the supporting halfspaces of the p1-facets
    meeting that subset equal, as a set of halfspaces, those of the
    p2-facets meeting it.  This is the local compatibility condition for
    gluing two polytopes along a fold facet: near the fold the two
    polytopes must superimpose exactly.  Raises FaceMismatch when f1 or
    f2 names no halfspace of its polytope.

    Both are decided in integers.  A facet's vertex numbers ascend in
    vertex order, so (a) holds when the facets have equally many vertices
    and their keys agree pairwise, each scaled by the other polytope's
    common denominator.  (b) compares the halfspace rows of the facets
    whose vertex masks meet the fold's.
    """
    if p1.dimension != p2.dimension:
        raise DimensionError(
            f"cannot compare facets across dimensions {p1.dimension} and {p2.dimension}"
        )
    _require_facet(p1, f1)
    _require_facet(p2, f2)
    numbers1, numbers2 = p1._facet_numbers[f1], p2._facet_numbers[f2]
    if len(numbers1) != len(numbers2):
        return False
    g = math.gcd(p1._step, p2._step)
    scale1, scale2 = p2._step // g, p1._step // g
    keys1, keys2 = p1._keys, p2._keys
    if [x * scale1 for k in numbers1 for x in keys1[k]] != [
        x * scale2 for k in numbers2 for x in keys2[k]
    ]:
        return False
    fold1, fold2 = p1._facet_masks[f1], p2._facet_masks[f2]
    near1 = {h.row for h, mask in zip(p1._halfspaces, p1._facet_masks) if mask & fold1}
    near2 = {h.row for h, mask in zip(p2._halfspaces, p2._facet_masks) if mask & fold2}
    return near1 == near2


def facet_as_polytope(p: DelzantPolytope, i: int) -> tuple:
    """Rewrite facet i of p as a full-dimensional polytope one dimension down.

    The facet's affine span is translated to put its lexicographically
    smallest vertex at the origin and coordinatized by the Hermite-reduced
    basis of the span's integer direction lattice, which makes the output
    canonical: point y in the new coordinates corresponds to
    base + sum(y[k] * basis[k]) in the old ones.  Returns
    (polytope, base_point, basis_rows).  Raises FaceMismatch when i names
    no halfspace of p.

    The base is the facet's first vertex number, and each new offset
    b - <a, base> is formed over ints from the base's key and the
    polytope's common denominator.  A facet of a Delzant p is Delzant, so
    its chart is read off p's incidence with no vertex walk: key(v) −
    key(base) lies in a^⊥ ∩ ℤⁿ, which the basis spans over ℤ, so forward
    substitution along the basis's pivots gives integer chart keys over
    p's denominator, a walk's keys times one positive factor, which fold
    agreement, chart offsets, moment-graph weights and edge directions
    all ignore.  Any other p is charted by building the polytope.
    """
    n = p.dimension
    if n == 0:
        raise DimensionError("a 0-dimensional polytope has no facets")
    _require_facet(p, i)
    basis = integer_kernel_basis(p.halfspaces[i].normal)
    first = p._facet_numbers[i][0]
    base, key, step = p._vertices[first], p._keys[first], p._step
    facet = p._facet_masks[i]
    cuts, index = [], {}  # index: p's facet number -> its cut's number
    for j, (h, mask) in enumerate(zip(p._halfspaces, p._facet_masks)):
        shared = mask & facet
        # keep only the facets meeting facet i in one of facet i's own facets
        if j == i or not shared or p._active_and_dimension(shared)[1] != n - 2:
            continue
        a, (num, den) = h.normal, h.row[n:]
        row = tuple(sum(map(mul, a, b)) for b in basis)
        index[j] = len(cuts)
        cuts.append(HalfSpace(row, Fraction(num * step - den * sum(map(mul, a, key)), den * step)))
    if not p.is_delzant():
        return DelzantPolytope(n - 1, cuts), base, basis
    pivots = [next(c for c, x in enumerate(b) if x) for b in basis]
    charted = []
    for k in p._facet_numbers[i]:
        rest, z = [x - y for x, y in zip(p._keys[k], key)], []
        for b, c in zip(basis, pivots):  # the rows after b are 0 at c
            z.append(rest[c] // b[c])
            rest = [x - z[-1] * y for x, y in zip(rest, b)]
        charted.append((tuple(z), tuple(index[j] for j in p._tights[k] if j != i)))
    keys, tights = zip(*sorted(charted))
    return DelzantPolytope._from_incidence(n - 1, tuple(cuts), keys, tights, step), base, basis
