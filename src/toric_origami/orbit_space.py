"""The glued orbit space of a template: facets, face poset, face subgraphs.

The polytopes of a template overlap in the ambient space (neighbors
superimpose near folds), so the orbit space Q is never represented as a
global point set.  A face of Q is kept as its pieces, (template vertex,
polytope face) pairs, glued by one rule.  The d-pieces are the d-faces of
the polytopes that lie in no fold facet of their own polytope; two
d-pieces, one at each end of a template edge, are glued when they cut
the edge's fold facet in the same nonempty vertex set, since the two
polytopes coincide near the fold.  That set, a piece's trace, is an int
mask over fold-local vertex numbers: by condition (1) both copies of the
fold facet are one point set, so the j-th vertex number on it at one end
names the same point as the j-th at the other, and no coordinate is
compared.  The faces of Q are the classes of one
union-find over these links (`_glue`, `_classes`), every dimension in one
pass: the whole space at d = n, the glued facets at d = n - 1, and the
moment-graph edges of `gkm` at d = 1, whose pieces come from each
polytope's edge record alone.  A face's template subgraph is read
off its class: the vertices of its pieces and the edges of its links,
kept as id tuples and built into a `TemplateGraph` on first access.  Q is
a manifold with corners, so a face covers exactly the faces one
dimension lower that it contains (`FacePoset.covers`); a face lies in
every glued facet holding a face above it, so only faces whose
`defining` sets nest are compared.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import repeat

from .exceptions import FaceMismatch, InternalConsistency
from .template import OrigamiTemplate, TemplateGraph


@dataclass(frozen=True)
class GluedFacet:
    """One facet of the orbit space: an equivalence class of polytope facets.

    Members are (template vertex id, facet index) pairs, none of which is
    a fold facet; facets of different polytopes land in one class when the
    gluing identifies them along a fold.
    """

    members: tuple

    def __post_init__(self):
        object.__setattr__(self, "members", tuple(sorted(self.members)))

    def __repr__(self):
        return f"GluedFacet({list(self.members)})"


@dataclass(frozen=True)
class OrbitFace:
    """A face of the orbit space.

    `members` is a frozenset of (template vertex id, polytope Face) pairs
    — the pieces of the face inside each polytope; `defining` indexes the
    glued facets containing this face (empty for the top face); `subgraph`
    is the induced template subgraph of the face (vertices whose polytope
    meets it, edges whose fold meets it), read off the face's class: the
    vertices of its pieces and the edges of its links, so it is connected.
    The class keeps those vertex and edge ids (`vertex_ids`, `edge_ids`,
    both in graph order) and `subgraph` is built from them, over the
    template graph `graph`, on first access.
    """

    members: frozenset
    dimension: int
    defining: frozenset
    vertex_ids: tuple = field(compare=False, repr=False)
    edge_ids: tuple = field(compare=False, repr=False)
    graph: TemplateGraph = field(compare=False, repr=False)

    @cached_property
    def subgraph(self) -> TemplateGraph:
        return TemplateGraph(
            self.vertex_ids, self.edge_ids, {e: self.graph.ends(e) for e in self.edge_ids}
        )

    def member_vertices(self) -> tuple:
        return tuple(sorted({vid for vid, _ in self.members}))

    def __repr__(self):
        pieces = ", ".join(
            f"{vid}:{list(f.vertices)}" for vid, f in sorted(self.members, key=lambda m: (m[0], m[1].vertices))
        )
        return f"OrbitFace(dim={self.dimension}, {pieces})"


@dataclass(frozen=True, eq=False)
class FacePoset:
    """All orbit-space faces ordered by inclusion, top element last."""

    faces: tuple
    top: OrbitFace

    def __iter__(self):
        return iter(self.faces)

    def __len__(self):
        return len(self.faces)

    def by_dimension(self, d: int) -> tuple:
        return tuple(f for f in self.faces if f.dimension == d)

    def covers(self) -> tuple:
        """The covering pairs (i, j) of `faces`, in order of i, then j.

        Faces are graded by dimension, so a face covers exactly the faces
        one dimension lower that it contains.  A face lies in every glued
        facet that contains a face above it, so only the faces one
        dimension up whose `defining` set is inside its own are tested.
        """
        above = {}  # dimension -> (index, face) pairs, in order of index
        for j, b in enumerate(self.faces):
            above.setdefault(b.dimension - 1, []).append((j, b))
        return tuple(
            (i, j)
            for i, a in enumerate(self.faces)
            for j, b in above.get(a.dimension, ())
            if b.defining <= a.defining and self.leq(a, b)
        )

    @staticmethod
    def leq(a: OrbitFace, b: OrbitFace) -> bool:
        """Inclusion order: every piece of `a` sits inside a piece of `b`.

        Both pieces lie in one polytope, where a face is the polytope cut by
        the facets that hold it, so f ⊆ g exactly when g.active ⊆ f.active."""
        for vid, f in a.members:
            for wid, g in b.members:
                if vid == wid and g.active <= f.active:
                    break
            else:
                return False
        return True


def _glue(t: OrigamiTemplate, dims) -> tuple:
    """The d-dimensional pieces of the orbit space, d in `dims`, and the folds linking them.

    `pieces` holds (vid, Face) for each d-face of each polytope that lies
    in no fold facet of its own polytope: template vertices in graph
    order, faces in `faces()` order (at d = 1 alone, from `one_faces()`,
    which builds no other face).  `links` holds (i, j, eid, trace) for each
    template edge `eid`, in graph order, and each piece i at its first end
    and piece j at its second end (i = j on a loop) that meet the fold
    facet in the same nonempty vertex set, compared as `trace`: an int
    mask whose bit j is the j-th vertex number on the fold facet, ascending
    (`_facet_numbers`), the same point at either end (module docstring).
    In a simple polytope a d-face outside a facet meets it in a (d - 1)-face,
    and that face lies in only one d-face outside the facet, so a trace
    names at most one piece per end, whatever the dimensions.
    """
    graph = t.graph
    pieces = []
    at = {}  # vid -> indices of its pieces
    for vid in graph.vertices:
        folds = t.fold_facet_indices(vid)
        p = t.polytope(vid)
        faces = p.one_faces() if tuple(dims) == (1,) else (f for f in p.faces() if f.dim in dims)
        start = len(pieces)
        pieces += [(vid, f) for f in faces if f.active.isdisjoint(folds)]
        at[vid] = range(start, len(pieces))
    links = []
    for eid in graph.edges:
        (u, v), (fu, fv) = graph.ends(eid), t.edge_facets(eid)
        first_end = {trace: i for i, trace in _traces(pieces, at[u], t.polytope(u), fu)}
        for j, trace in _traces(pieces, at[v], t.polytope(v), fv):
            if trace in first_end:
                links.append((first_end[trace], j, eid, trace))
    return pieces, links


def _traces(pieces, indices, p, facet):
    """(piece index, trace) for each of `pieces[indices]` that meets facet
    `facet` of `p`: its vertex numbers on the facet as an int mask over
    fold-local numbers (bit j for the j-th vertex number on the facet)."""
    local = {k: 1 << j for j, k in enumerate(p._facet_numbers[facet])}
    for i in indices:
        trace = sum(map(local.get, pieces[i][1].numbers, repeat(0)))  # distinct bits: a union
        if trace:
            yield i, trace


def _classes(count: int, links) -> list:
    """The classes of pieces 0..count-1 under `links`: one union-find.

    Each class is a list of piece indices in increasing order, and the
    classes are ordered by their least piece.
    """
    parent = list(range(count))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j, *_ in links:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)  # a root is the least piece of its class
    classes = {}
    for i in range(count):
        classes.setdefault(find(i), []).append(i)
    return list(classes.values())


def _facet_members(pieces, classes, n) -> list:
    """The glued facets among `classes`, those of (n-1)-pieces, as member tuples.

    A facet lies in itself alone, so its active set is its index, and a
    piece is the member (vid, facet index).  Each tuple is sorted, and the
    tuples are sorted.
    """
    return sorted(
        tuple(sorted((pieces[i][0], *pieces[i][1].active) for i in cls))
        for cls in classes
        if pieces[cls[0]][1].dim == n - 1
    )


def glued_facets(t: OrigamiTemplate) -> tuple:
    """The facets of the orbit space: the glued classes of (n-1)-pieces.

    The pieces are the polytope facets other than fold facets (those are
    interior to the orbit space, not part of its boundary), and facets F
    at u and F' at v are glued when an edge e=(u,v) exists and F and F'
    cut the fold facet of e in the same nonempty set.  Members are
    (template vertex id, facet index) pairs; classes are sorted by their
    members.
    """
    t.require_valid()
    pieces, links = _glue(t, (t.dimension - 1,))
    classes = _classes(len(pieces), links)
    return tuple(map(GluedFacet, _facet_members(pieces, classes, t.dimension)))


def face_poset(t: OrigamiTemplate) -> FacePoset:
    """All faces of the orbit space: the glued classes of d-pieces, d = 0..n, in one pass.

    A face's `defining` set is read off the active facets of any of its
    pieces, through the glued facet holding each (numbered as in
    `glued_facets`, from this pass's classes), and its subgraph off its
    class.  Deterministic: faces are sorted by (dimension, sorted (vid,
    piece index) pairs); within one polytope the piece index follows the
    order of the vertex tuples.
    """
    t.require_valid()
    graph = t.graph
    pieces, links = _glue(t, range(t.dimension + 1))
    classes = _classes(len(pieces), links)
    facets = _facet_members(pieces, classes, t.dimension)
    glued = {m: gi for gi, members in enumerate(facets) for m in members}
    tops = sum(pieces[cls[0]][1].dim == t.dimension for cls in classes)
    if tops != 1:
        raise InternalConsistency(f"the orbit space has {tops} top faces, expected 1")
    owner = {i: k for k, cls in enumerate(classes) for i in cls}
    edges = [{} for _ in classes]  # per class: the edges of its links, in graph order, once
    for i, _, eid, _ in links:
        edges[owner[i]][eid] = None
    keyed = []  # (sort key, face)
    for cls, eids in zip(classes, edges):
        members = frozenset(pieces[i] for i in cls)
        vid, f = pieces[cls[0]]
        face = OrbitFace(
            members=members,
            dimension=f.dim,
            defining=frozenset(glued[(vid, fi)] for fi in f.active),
            vertex_ids=tuple(dict.fromkeys(pieces[i][0] for i in cls)),  # pieces are in graph order
            edge_ids=tuple(eids),
            graph=graph,
        )
        if any(frozenset(glued[(w, fi)] for fi in g.active) != face.defining for w, g in members):
            raise InternalConsistency(f"the pieces of {face!r} lie in different glued facets")
        keyed.append(((f.dim, tuple(sorted((pieces[i][0], i) for i in cls))), face))
    keyed.sort(key=lambda kf: kf[0])
    return FacePoset(faces=tuple(face for _, face in keyed), top=keyed[-1][1])


def face_subgraph(t: OrigamiTemplate, face: OrbitFace) -> TemplateGraph:
    """The induced template subgraph of an orbit-space face, from the definition.

    Vertices are the template vertices whose polytope meets the face;
    edges are the template edges whose fold facet meets it, both in graph
    order.  Raises FaceMismatch when the face's members do not belong to
    this template, or when a fold meets the face but the face misses one
    of the fold's end polytopes.
    """
    graph = t.graph
    pieces = {}  # vid -> vertex sets of the face's pieces there
    for vid, f in face.members:
        if vid not in graph.vertices:
            raise FaceMismatch(f"face member references unknown template vertex {vid!r}")
        try:
            found = t.polytope(vid).face_with_vertices(f.vertex_set)
        except FaceMismatch:
            raise FaceMismatch(f"face member at {vid} is not a face of that polytope") from None
        if found.dim != f.dim:
            raise FaceMismatch(f"face member at {vid} has inconsistent dimension")
        pieces.setdefault(vid, []).append(f.vertex_set)
    chosen = []
    for eid in graph.edges:
        ends, fold = graph.ends(eid), t.fold_vertex_set(eid)
        if any(vs & fold for w in ends for vs in pieces.get(w, ())):
            if not all(w in pieces for w in ends):
                raise FaceMismatch(
                    f"the fold of edge {eid} meets the face, which misses one of its end polytopes"
                )
            chosen.append(eid)
    return TemplateGraph(
        tuple(w for w in graph.vertices if w in pieces),
        tuple(chosen),
        {e: graph.ends(e) for e in chosen},
    )


def is_face_acyclic(t: OrigamiTemplate) -> bool:
    """Is every orbit-space face's template subgraph a tree?

    Equivalent to template-graph acyclicity; both directions of that
    equivalence are exercised in the test suite.  Every face subgraph is
    connected, as a face is one class of pieces linked along its edges.
    """
    return all(face.subgraph.is_acyclic() for face in face_poset(t))
