"""Convex rational polytopes in halfspace representation.

A polytope here is the solution set of finitely many inequalities
``<normal, x> <= offset`` with primitive integer normals and rational
offsets.  Construction enforces the structural requirements — nonempty,
bounded, full-dimensional, no duplicate or redundant halfspace — while
simplicity and smoothness stay queryable predicates so that candidate
polytopes can be inspected and rejected with a reason.

Polytope facts come from one vertex–facet incidence, the halfspaces tight
at each vertex, recorded while the vertices are enumerated.  A face has
dimension n − rank(normals of the facets containing it), since its affine
hull is cut out by the inequalities tight on all of it.

All vertex coordinates are exact (`fractions.Fraction`).  A face is
identified by its vertex set, which determines it uniquely within its
polytope; two structurally identical polytopes produce equal faces, so
code that mixes several polytopes must key faces by (polytope id, face).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

from .exceptions import (
    DegenerateInput,
    DimensionError,
    FaceMismatch,
    NotDelzant,
    NotSimple,
)
from .lattice import (
    dot,
    integer_kernel_basis,
    lattice_determinant,
    pivot_columns,
    rank,
    rational_to_primitive,
    recession_direction,
    solve_square,
)


@dataclass(frozen=True)
class HalfSpace:
    """One inequality <normal, x> <= offset with a primitive integer normal.

    The pair is normalized at construction: (2, 4) . x <= 6 is stored as
    (1, 2) . x <= 3.  Two HalfSpace values are equal exactly when they
    describe the same subset of the ambient space.
    """

    normal: tuple
    offset: Fraction

    def __post_init__(self):
        entries = []
        for c in self.normal:
            as_frac = Fraction(c)
            if as_frac.denominator != 1:
                raise DegenerateInput(
                    f"halfspace normal must have integer entries, got {self.normal}"
                )
            entries.append(int(as_frac))
        if not entries or all(c == 0 for c in entries):
            raise DegenerateInput("halfspace normal must be a nonzero integer vector")
        g = math.gcd(*(abs(c) for c in entries))
        object.__setattr__(self, "normal", tuple(c // g for c in entries))
        object.__setattr__(self, "offset", Fraction(self.offset) / g)

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
    return HalfSpace(tuple(normal), Fraction(offset))


@dataclass(frozen=True)
class Face:
    """A nonempty face of a polytope.

    `active` is maximal (every facet index whose facet contains the face)
    and `vertices` is sorted, so within one polytope equal Face values
    describe equal subsets of the ambient space.  `vertex_set` holds the
    same vertices as a frozenset.  `owner` and `vertex_set` are excluded
    from comparison; see the module docstring.
    """

    active: frozenset
    vertices: tuple
    dim: int
    owner: "DelzantPolytope" = field(compare=False, repr=False)
    vertex_set: frozenset = field(compare=False, repr=False)

    def __hash__(self):
        # equal faces have equal vertex sets, and a frozenset caches its hash
        return hash(self.vertex_set)

    def __repr__(self):
        return f"Face(dim={self.dim}, active={sorted(self.active)}, vertices={list(self.vertices)})"


def _vertex_incidence(normals, offsets, n) -> dict:
    """{vertex: indices of the halfspaces tight at it}, from every n-subset solve."""
    incidence = {}
    for subset in combinations(range(len(normals)), n):
        sol = solve_square([normals[i] for i in subset], [offsets[i] for i in subset])
        if sol is not None and sol not in incidence:
            slacks = [b - dot(a, sol) for a, b in zip(normals, offsets)]
            if all(s >= 0 for s in slacks):
                incidence[sol] = tuple(i for i, s in enumerate(slacks) if s == 0)
    return incidence


def _is_nonempty_without_vertex(normals, offsets, n) -> bool:
    """Whether {x : <a_i, x> <= b_i}, known to have no vertex, is nonempty.

    With normals of full rank n it is pointed, so it is empty.  With rank
    r < n it contains lines and is nonempty exactly when its image on r
    pivot columns of the normals is, which is pointed and so has a vertex.
    """
    pivots = pivot_columns(normals, n)
    if len(pivots) == n:
        return False
    return bool(_vertex_incidence([[a[j] for j in pivots] for a in normals], offsets, len(pivots)))


class DelzantPolytope:
    """A bounded full-dimensional polytope given by irredundant halfspaces.

    Raises NotDelzant at construction when the data is empty, unbounded,
    lower-dimensional (a halfspace tight at every vertex), duplicated, or
    contains a halfspace whose facet has dimension below n − 1.  From the
    tight sets, `is_simple` counts n at every vertex and `is_smooth` asks
    |det| = 1 of the tight normals; `is_delzant` is their conjunction.
    Instances are immutable and safe to share between templates.
    """

    def __init__(self, dimension: int, halfspaces):
        if not isinstance(dimension, int) or dimension < 0:
            raise DimensionError(f"dimension must be a nonnegative int, got {dimension!r}")
        hs = tuple(_as_halfspace(h) for h in halfspaces)
        for h in hs:
            if len(h.normal) != dimension:
                raise DimensionError(
                    f"normal {h.normal} has length {len(h.normal)}, expected {dimension}"
                )
        self._halfspace_set = frozenset(hs)
        if len(self._halfspace_set) != len(hs):
            raise NotDelzant("duplicate halfspace in description")
        self._dim = dimension
        self._halfspaces = hs
        normals = [h.normal for h in hs]
        offsets = [h.offset for h in hs]
        self._tight = _vertex_incidence(normals, offsets, dimension)
        self._vertices = tuple(sorted(self._tight))
        if not self._vertices and not _is_nonempty_without_vertex(normals, offsets, dimension):
            raise NotDelzant("polytope is empty")
        ray = recession_direction(normals, dimension)
        if ray is not None:
            raise NotDelzant(f"polytope is unbounded in direction {ray}")
        self._facet_vertex_sets = tuple(
            frozenset(v for v, tight in self._tight.items() if i in tight) for i in range(len(hs))
        )
        if any(len(fs) == len(self._vertices) for fs in self._facet_vertex_sets):
            raise NotDelzant("polytope is not full-dimensional")
        for i, facet in enumerate(self._facet_vertex_sets):
            if not facet or self._active_and_dimension(facet)[1] != dimension - 1:
                raise NotDelzant(f"halfspace {hs[i]!r} is redundant (does not support a facet)")
        self._face_map = None
        self._sorted_faces = None
        self._edges_at = None
        self._simple = None
        self._smooth = None

    # -- construction checks ---------------------------------------------

    def _active_and_dimension(self, vertex_set) -> tuple:
        """The facets containing a face's vertex set, and the face's dimension.

        The face's affine hull is cut out by the inequalities tight on all
        of it (Schrijver, Theory of Linear and Integer Programming, §8.3),
        so its dimension is n − rank of their normals.
        """
        active = frozenset(
            i for i, fs in enumerate(self._facet_vertex_sets) if vertex_set <= fs
        )
        if len(vertex_set) == 1:  # a vertex: its tight normals have rank n
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

    @property
    def facet_vertex_sets(self) -> tuple:
        """For each halfspace index, the frozenset of vertices on that facet."""
        return self._facet_vertex_sets

    def contains(self, point) -> bool:
        return all(h.contains(point) for h in self._halfspaces)

    def active_at(self, vertex) -> tuple:
        """Indices of halfspaces tight at a point of the polytope."""
        return tuple(i for i, h in enumerate(self._halfspaces) if h.on_boundary(vertex))

    # -- classification ------------------------------------------------------

    def is_simple(self) -> bool:
        """True when every vertex lies on exactly `dimension` facets."""
        if self._simple is None:
            self._simple = all(len(t) == self._dim for t in self._tight.values())
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
        tight = self._tight.get(vertex)
        if tight is None:
            raise FaceMismatch(f"{vertex} is not a vertex of this polytope")
        dirs = {}
        for edge in self.one_faces_at(vertex):
            (leave,) = set(tight) - edge.active  # an edge lies on all but one facet of the vertex
            a, b = edge.vertices
            other = b if a == vertex else a
            dirs[leave] = rational_to_primitive(tuple(y - x for x, y in zip(vertex, other)))
        return tuple(dirs[i] for i in tight)

    def is_smooth(self) -> bool:
        """True when at each vertex the primitive edge directions form a lattice basis.

        At a simple vertex with primitive tight normals A these directions are
        the columns of −A⁻¹ made primitive, a basis exactly when |det A| = 1.
        Raises NotSimple for non-simple polytopes, where the criterion does
        not apply.
        """
        if not self.is_simple():
            raise NotSimple("smoothness is only defined for simple polytopes")
        if self._smooth is None:
            hs = self._halfspaces
            self._smooth = all(
                abs(lattice_determinant([hs[i].normal for i in tight])) == 1
                for tight in self._tight.values()
            )
        return self._smooth

    def is_delzant(self) -> bool:
        return self.is_simple() and self.is_smooth()

    # -- face structure -----------------------------------------------------

    def faces(self) -> tuple:
        """All nonempty faces, the polytope itself included, sorted by (dim, vertices)."""
        if self._sorted_faces is None:
            self._sorted_faces = tuple(
                sorted(self._faces().values(), key=lambda f: (f.dim, f.vertices))
            )
        return self._sorted_faces

    def _faces(self) -> dict:
        if self._face_map is not None:
            return self._face_map
        full = frozenset(self._vertices)
        seen = {full}
        queue = [full]
        while queue:
            current = queue.pop()
            for facet_set in self._facet_vertex_sets:
                meet = current & facet_set
                if meet and meet not in seen:
                    seen.add(meet)
                    queue.append(meet)
        faces = {}
        for vset in seen:
            active, dim = self._active_and_dimension(vset)
            faces[vset] = Face(
                active=active, vertices=tuple(sorted(vset)), dim=dim, owner=self, vertex_set=vset
            )
        self._face_map = faces
        return faces

    def face_with_vertices(self, vertex_set) -> Face:
        """The face whose vertex set is exactly `vertex_set`; FaceMismatch if absent."""
        try:
            return self._faces()[frozenset(vertex_set)]
        except KeyError:
            raise FaceMismatch(
                f"no face of this polytope has vertex set {sorted(vertex_set)}"
            ) from None

    def faces_meeting(self, face: Face) -> tuple:
        """Indices of the facets whose intersection with `face` is nonempty.

        Facets containing the face itself are included; two faces of one
        polytope meet exactly when they share a vertex.
        """
        if face.owner is not self:
            raise FaceMismatch("face does not belong to this polytope")
        vset = face.vertex_set
        return tuple(i for i, fs in enumerate(self._facet_vertex_sets) if vset & fs)

    def one_faces_at(self, vertex) -> tuple:
        """The edges (1-faces) through a vertex, in `faces()` order; () for a non-vertex."""
        if self._edges_at is None:  # built on demand: `face_poset` never asks for edges
            self._edges_at = {v: () for v in self._vertices}
            for f in self.faces():
                if f.dim == 1:
                    for v in f.vertices:
                        self._edges_at[v] += (f,)
        return self._edges_at.get(vertex, ())

    # -- equality -------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, DelzantPolytope):
            return NotImplemented
        return self._dim == other._dim and self._halfspace_set == other._halfspace_set

    def __hash__(self):
        return hash((self._dim, self._halfspace_set))

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
    polytopes must superimpose exactly.
    """
    if p1.dimension != p2.dimension:
        raise DimensionError(
            f"cannot compare facets across dimensions {p1.dimension} and {p2.dimension}"
        )
    set1 = p1.facet_vertex_sets[f1]
    set2 = p2.facet_vertex_sets[f2]
    if set1 != set2:
        return False
    near1 = {p1.halfspaces[i] for i, fs in enumerate(p1.facet_vertex_sets) if fs & set1}
    near2 = {p2.halfspaces[i] for i, fs in enumerate(p2.facet_vertex_sets) if fs & set2}
    return near1 == near2


def facet_as_polytope(p: DelzantPolytope, i: int) -> tuple:
    """Rewrite facet i of p as a full-dimensional polytope one dimension down.

    The facet's affine span is translated to put its lexicographically
    smallest vertex at the origin and coordinatized by the Hermite-reduced
    basis of the span's integer direction lattice, which makes the output
    canonical: point y in the new coordinates corresponds to
    base + sum(y[k] * basis[k]) in the old ones.  Returns
    (polytope, base_point, basis_rows).
    """
    n = p.dimension
    if n == 0:
        raise DimensionError("a 0-dimensional polytope has no facets")
    normal = p.halfspaces[i].normal
    basis = integer_kernel_basis(normal)
    facet_set = p.facet_vertex_sets[i]
    base = min(facet_set)
    cuts = []
    for j, h in enumerate(p.halfspaces):
        if j == i:
            continue
        shared = p.facet_vertex_sets[j] & facet_set
        # keep only the facets meeting facet i in one of facet i's own facets
        if not shared or p._active_and_dimension(shared)[1] != n - 2:
            continue
        row = tuple(dot(h.normal, b) for b in basis)
        cuts.append(HalfSpace(row, h.offset - dot(h.normal, base)))
    return DelzantPolytope(n - 1, cuts), base, basis
