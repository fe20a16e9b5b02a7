"""The glued orbit space of a template: facets, face poset, face subgraphs.

The polytopes of a template overlap in the ambient space (neighbors
superimpose near folds), so the orbit space is never represented as a
global point set.  Every face is kept as a set of member pairs
(template vertex, polytope face) and two members are identified only
through fold facets, mirroring the quotient that defines the space.

Faces are the nonempty intersections of glued facets, plus the whole
space as top element.  A set-theoretic intersection of two faces can fall
apart into several connected components in the quotient; each component
is its own face, which keeps every face's template subgraph connected.
`face_poset` finds them by a worklist closure: every new face is
intersected with each glued facet that has a member at one of the face's
own template vertices (no other glued facet can meet it), and each new
component joins the worklist.  The closure indexes the glued facets and
the template edges by template vertex once, so a face is only compared
with the facets and folds of its own polytopes.  The orbit space is a
manifold with corners, so its faces are graded by dimension and a face
covers exactly the faces one dimension lower that it contains
(`FacePoset.covers`); a face lies in every glued facet holding a face
above it, so only faces whose `defining` sets nest are compared.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    meets it, edges whose fold meets it).
    """

    members: frozenset
    dimension: int
    defining: frozenset
    subgraph: TemplateGraph = field(compare=False)

    def member_vertices(self) -> tuple:
        return tuple(sorted({vid for vid, _ in self.members}))

    def sort_key(self):
        return (
            self.dimension,
            tuple(sorted((vid, f.vertices) for vid, f in self.members)),
        )

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
        """Inclusion order: every piece of `a` sits inside a piece of `b`."""
        for vid, f in a.members:
            if not any(
                vid == wid and f.vertex_set <= g.vertex_set for wid, g in b.members
            ):
                return False
        return True


def glued_facets(t: OrigamiTemplate) -> tuple:
    """The facets of the orbit space, as equivalence classes of polytope facets.

    Classes are computed by union-find: facets F at u and F' at v are
    joined whenever an edge e=(u,v) exists and F and F' cut the fold facet
    of e in the same nonempty set.  Fold facets themselves are excluded —
    they are interior to the orbit space, not part of its boundary.
    """
    t.require_valid()
    graph = t.graph
    nodes = []
    for vid in graph.vertices:
        folds = t.fold_facet_indices(vid)
        for fi in range(len(t.polytope(vid).halfspaces)):
            if fi not in folds:
                nodes.append((vid, fi))
    parent = {node: node for node in nodes}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)

    for eid in graph.edges:
        u, v = graph.ends(eid)
        fold_vs = t.fold_vertex_set(eid)
        traces_u = {
            node: t.polytope(u).facet_vertex_sets[node[1]] & fold_vs
            for node in nodes
            if node[0] == u
        }
        traces_v = {
            node: t.polytope(v).facet_vertex_sets[node[1]] & fold_vs
            for node in nodes
            if node[0] == v
        }
        for nu, tu in traces_u.items():
            if not tu:
                continue
            for nv, tv in traces_v.items():
                if tu == tv:
                    union(nu, nv)

    classes = {}
    for node in nodes:
        classes.setdefault(find(node), []).append(node)
    return tuple(
        GluedFacet(tuple(sorted(members)))
        for _, members in sorted(classes.items())
    )


def _edge_data(t: OrigamiTemplate) -> dict:
    """Per template edge id: (position in graph order, end u, end v, fold facet vertex set)."""
    return {
        eid: (k, *t.graph.ends(eid), t.fold_vertex_set(eid))
        for k, eid in enumerate(t.graph.edges)
    }


def _link_components(pieces, folds) -> tuple:
    """Split a set of (vid, Face) pieces into glued connected components.

    Two pieces are linked when they live in one polytope and share a
    polytope vertex, or when they live at the two ends of a template edge
    and share a geometric vertex lying on that edge's fold facet.
    """
    items = list(pieces)
    owner = [None] * len(items)  # index of the component holding each piece
    components = []
    for seed in range(len(items)):
        if owner[seed] is not None:
            continue
        owner[seed] = len(components)
        comp = [seed]
        for cur in comp:
            cvid, cface = items[cur]
            for k, (ovid, oface) in enumerate(items):
                if owner[k] is not None:
                    continue
                common = cface.vertex_set & oface.vertex_set
                if ovid == cvid:
                    linked = bool(common)
                else:
                    linked = any(common & fold_vs for fold_vs in folds.get((cvid, ovid), ()))
                if linked:
                    owner[k] = len(components)
                    comp.append(k)
        components.append(frozenset(items[k] for k in comp))
    return tuple(components)


def _face_subgraph(t: OrigamiTemplate, members, edge_data) -> TemplateGraph:
    """Only the edges at the face's own vertices can meet it; they are taken in graph order."""
    graph = t.graph
    pieces = {}  # vid -> vertex sets of the face's pieces there
    for vid, f in members:
        pieces.setdefault(vid, []).append(f.vertex_set)
    near = {eid for vid in pieces for eid in graph.incident_edges(vid)}
    chosen = []
    for eid in sorted(near, key=lambda e: edge_data[e][0]):
        _, eu, ev, fold_vs = edge_data[eid]
        if any(vs & fold_vs for w in {eu, ev} for vs in pieces.get(w, ())):
            if eu not in pieces or ev not in pieces:
                raise InternalConsistency(
                    f"fold of edge {eid} meets a face that misses one of its end polytopes"
                )
            chosen.append(eid)
    sub_vertices = tuple(w for w in graph.vertices if w in pieces)
    return TemplateGraph(
        sub_vertices, tuple(chosen), {e: graph.ends(e) for e in chosen}
    )


def face_poset(t: OrigamiTemplate) -> FacePoset:
    """All faces of the orbit space: glued facets, their intersections, and the top.

    A worklist closure: each new face is intersected, memberwise inside
    each polytope, with the glued facets that have a member at one of its
    own template vertices (no other facet can meet it), and the
    intersection is split into connected components of the quotient; each
    component not seen before is a new face.  Deterministic: faces are
    sorted by (dimension, member vertex data).
    """
    t.require_valid()
    glued = glued_facets(t)
    edge_data = _edge_data(t)
    folds = {}  # (vid, wid) -> fold facet vertex sets of the edges joining them
    for _, eu, ev, fold_vs in edge_data.values():
        for key in {(eu, ev), (ev, eu)}:
            folds.setdefault(key, []).append(fold_vs)
    facet_sets = [{} for _ in glued]  # per glued facet: vid -> member facet vertex sets
    at_vertex = {}  # vid -> indices of the glued facets with a member there, increasing
    for gi, (sets, g) in enumerate(zip(facet_sets, glued)):
        for vid, fi in g.members:
            sets.setdefault(vid, []).append(t.polytope(vid).facet_vertex_sets[fi])
        for vid in sets:
            at_vertex.setdefault(vid, []).append(gi)

    def face_from_members(members: frozenset) -> OrbitFace:
        dims = {f.dim for _, f in members}
        if len(dims) != 1:
            raise InternalConsistency(
                f"face members disagree on dimension: {sorted(dims)}"
            )
        # a glued facet containing the face has a member at each of its vertices
        first_vid = next(iter(members))[0]
        defining = frozenset(
            gi
            for gi in at_vertex.get(first_vid, ())
            if all(
                any(f.vertex_set <= fs for fs in facet_sets[gi].get(vid, ()))
                for vid, f in members
            )
        )
        subgraph = _face_subgraph(t, members, edge_data)
        if not subgraph.is_connected():
            raise InternalConsistency("orbit face has a disconnected template subgraph")
        return OrbitFace(
            members=members, dimension=dims.pop(), defining=defining, subgraph=subgraph
        )

    top_members = frozenset(
        (vid, t.polytope(vid).face_with_vertices(t.polytope(vid).vertices))
        for vid in t.graph.vertices
    )
    faces = {}
    queue = []

    def add(members: frozenset):
        if members not in faces:
            faces[members] = face_from_members(members)
            queue.append(members)

    # The glued facets are connected, so they come out of the top face.  A
    # component C of X is clopen in X, so the components of C and a glued
    # facet are those of X and that facet lying in C: intersecting new faces
    # with glued facets alone reaches every intersection of faces.
    add(top_members)
    while queue:
        members = queue.pop()
        # increasing facet order, so faces are met in the order of a full scan
        for gi in sorted({gi for vid, _ in members for gi in at_vertex.get(vid, ())}):
            sets = facet_sets[gi]
            pieces = set()
            for vid, f in members:
                for fs in sets.get(vid, ()):
                    common = f.vertex_set & fs
                    if common:
                        pieces.add((vid, t.polytope(vid).face_with_vertices(common)))
            for comp in _link_components(pieces, folds):
                add(comp)

    ordered = tuple(sorted(faces.values(), key=OrbitFace.sort_key))
    return FacePoset(faces=ordered, top=faces[top_members])


def face_subgraph(t: OrigamiTemplate, face: OrbitFace) -> TemplateGraph:
    """The induced template subgraph of an orbit-space face.

    Vertices are the template vertices whose polytope meets the face;
    edges are the template edges whose fold facet meets it.  Raises
    FaceMismatch when the face's members do not belong to this template.
    """
    for vid, f in face.members:
        if vid not in t.graph.vertices:
            raise FaceMismatch(f"face member references unknown template vertex {vid!r}")
        p = t.polytope(vid)
        try:
            found = p.face_with_vertices(f.vertex_set)
        except FaceMismatch:
            raise FaceMismatch(
                f"face member at {vid} is not a face of that polytope"
            ) from None
        if found.dim != f.dim:
            raise FaceMismatch(f"face member at {vid} has inconsistent dimension")
    return _face_subgraph(t, face.members, _edge_data(t))


def is_face_acyclic(t: OrigamiTemplate) -> bool:
    """Is every orbit-space face's template subgraph a tree?

    Equivalent to template-graph acyclicity; both directions of that
    equivalence are exercised in the test suite.  `face_poset` has already
    checked that every face subgraph is connected.
    """
    return all(face.subgraph.is_acyclic() for face in face_poset(t))
