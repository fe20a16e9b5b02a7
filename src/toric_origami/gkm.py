"""Moment graphs: fixed points, chains of 1-faces, and primitive weights.

The fixed points of a template are the polytope vertices that avoid every
fold facet of their own polytope.  Each such vertex emits one graph edge
per incident polytope 1-face; an edge is a chain of collinear 1-faces
that may cross folds — at a fold, the chain continues in the neighbor
polytope along the unique 1-face at the same geometric vertex that is not
inside the fold.  Because neighboring polytopes superimpose near folds,
the chain retraces its line backwards at each crossing; chains that cross
at least one fold are the folded edges.

Tracing is defined for valid, coorientable, acyclic templates with at
least one fixed point; everything else is refused with a typed error.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exceptions import InternalConsistency, NoFixedPoints, Unsupported
from .lattice import rational_to_primitive
from .template import OrigamiTemplate


@dataclass(frozen=True)
class FixedPoint:
    """A torus-fixed point: a polytope vertex on no fold facet of its polytope."""

    vertex_id: str
    point: tuple
    key: str

    def __hash__(self):
        # equal fixed points have equal keys, and a str caches its hash
        return hash(self.key)

    def __repr__(self):
        return f"FixedPoint({self.key} at {format_point(self.point)})"


@dataclass(frozen=True)
class GkmEdge:
    """One edge of the moment graph.

    `chain` lists the traversed (template vertex id, polytope 1-face)
    segments in walk order from `endpoints[0]` to `endpoints[1]`; all
    segments lie on one line, whose primitive direction — sign-normalized
    to have positive first nonzero entry — is `weight`.  `folded` marks
    chains that cross at least one fold.
    """

    endpoints: tuple
    weight: tuple
    chain: tuple
    folded: bool

    def __repr__(self):
        a, b = self.endpoints
        kind = "folded" if self.folded else "straight"
        return f"GkmEdge({a.key} -- {b.key}, weight={self.weight}, {kind})"


@dataclass(frozen=True)
class MomentGraph:
    """The GKM graph: fixed points, edges with primitive weights, ambient rank."""

    fixed_points: tuple
    edges: tuple
    dimension: int

    def __repr__(self):
        return (
            f"MomentGraph(n={self.dimension}, fixed_points={len(self.fixed_points)}, "
            f"edges={len(self.edges)})"
        )


def format_point(point) -> str:
    return "(" + ", ".join(str(c) for c in point) + ")"


def lex_positive(vec) -> tuple:
    """Flip the sign of an integer vector so its first nonzero entry is positive."""
    for c in vec:
        if c:
            return tuple(vec) if c > 0 else tuple(-x for x in vec)
    raise InternalConsistency("zero vector cannot be sign-normalized")


def fixed_points(t: OrigamiTemplate) -> tuple:
    """All (template vertex, polytope vertex) pairs avoiding every incident fold.

    Deterministic order: template vertices in graph order, polytope
    vertices lexicographically.  Defined for valid coorientable templates.
    """
    t.require_valid()
    if not t.is_coorientable():
        raise Unsupported("fixed points are defined for coorientable templates only")
    out = []
    for vid in t.graph.vertices:
        p = t.polytope(vid)
        fold_sets = [p.facet_vertex_sets[f] for f in t.fold_facet_indices(vid)]
        for idx, w in enumerate(p.vertices):
            if not any(w in s for s in fold_sets):
                out.append(FixedPoint(vertex_id=vid, point=w, key=f"{vid}:{idx}"))
    return tuple(out)


def _direction(a, b) -> tuple:
    return rational_to_primitive(tuple(y - x for x, y in zip(a, b)))


def _trace(t: OrigamiTemplate, start: FixedPoint, first_face):
    """Walk a chain of 1-faces from a fixed point until another fixed point.

    Returns (chain, end FixedPoint-key-pair) where chain is a tuple of
    (template vertex id, Face) segments.
    """
    vid = start.vertex_id
    face = first_face
    at = start.point
    a, b = face.vertices
    ahead = b if a == at else a
    line = frozenset((_direction(at, ahead), _direction(ahead, at)))
    chain = [(vid, face)]
    guard = len(t.graph.vertices) + 1
    while True:
        p = t.polytope(vid)
        on_folds = [
            (eid, f)
            for eid, f in t.fold_entries(vid)
            if ahead in p.facet_vertex_sets[f]
        ]
        if not on_folds:
            return tuple(chain), (vid, ahead)
        if len(on_folds) != 1:
            raise InternalConsistency(
                f"vertex {format_point(ahead)} lies on several fold facets at {vid}"
            )
        (eid, _), = on_folds
        u, v = t.graph.ends(eid)
        vid = v if u == vid else u
        fu, fv = t.edge_facets(eid)
        across_facet = fv if vid == v else fu
        candidates = [
            m for m in t.polytope(vid).one_faces_at(ahead) if across_facet not in m.active
        ]
        if len(candidates) != 1:
            raise InternalConsistency(
                f"no unique continuation at {format_point(ahead)} across edge {eid}"
            )
        face = candidates[0]
        a, b = face.vertices
        at, ahead = ahead, (b if a == ahead else a)
        if _direction(at, ahead) not in line:
            raise InternalConsistency(
                f"chain direction changes across edge {eid} at {format_point(at)}"
            )
        chain.append((vid, face))
        if len(chain) > guard:
            raise InternalConsistency("chain does not terminate (template cycle?)")


def moment_graph(t: OrigamiTemplate) -> MomentGraph:
    """Extract the GKM graph of a valid, coorientable, acyclic template.

    Raises NoFixedPoints when there is nothing to anchor the graph
    (checked first, so a free torus action is reported as such), and
    Unsupported for non-acyclic templates, where chains have no
    terminating semantics.
    """
    fps = fixed_points(t)
    if not fps:
        raise NoFixedPoints("template has no fixed points")
    if not t.is_acyclic():
        raise Unsupported("moment graph extraction needs an acyclic template")
    by_location = {(fp.vertex_id, fp.point): fp for fp in fps}
    edges = {}
    discoveries = {}
    for fp in fps:
        p = t.polytope(fp.vertex_id)
        for face in p.one_faces_at(fp.point):
            chain, end_loc = _trace(t, fp, face)
            if end_loc not in by_location:
                raise InternalConsistency(
                    f"chain from {fp.key} ends at non-fixed vertex {end_loc}"
                )
            end = by_location[end_loc]
            segs = tuple((vid, f.vertices) for vid, f in chain)
            key = min(segs, tuple(reversed(segs)))
            discoveries[key] = discoveries.get(key, 0) + 1
            if key in edges:
                prior = edges[key]
                prior_segs = tuple((vid, f.vertices) for vid, f in prior.chain)
                same = prior.endpoints == (fp, end) and prior_segs == segs
                reverse = (
                    prior.endpoints == (end, fp)
                    and tuple(reversed(prior_segs)) == segs
                )
                if not (same or reverse):
                    raise InternalConsistency(
                        f"re-tracing edge {prior!r} gave a different chain"
                    )
                continue
            first_vid, first_face = chain[0]
            va, vb = first_face.vertices
            weight = lex_positive(_direction(va, vb))
            edges[key] = GkmEdge(
                endpoints=(fp, end),
                weight=weight,
                chain=chain,
                folded=len(chain) > 1,
            )
    for key, count in discoveries.items():
        if count != 2:
            raise InternalConsistency(
                f"edge {key} discovered {count} times, expected exactly 2"
            )
    ordered = tuple(
        sorted(
            edges.values(),
            key=lambda e: (
                e.endpoints[0].key,
                e.endpoints[1].key,
                e.weight,
                tuple((vid, f.vertices) for vid, f in e.chain),
            ),
        )
    )
    return MomentGraph(fixed_points=fps, edges=ordered, dimension=t.dimension)


def export_dot(g: MomentGraph) -> str:
    """Serialize a moment graph as DOT text; folded edges are dashed."""
    lines = ["graph moment {"]
    for fp in g.fixed_points:
        label = f"{fp.key} {format_point(fp.point)}"
        lines.append(f'  "{fp.key}" [label="{label}"];')
    for e in g.edges:
        a, b = e.endpoints
        style = ', style=dashed' if e.folded else ""
        weight = "(" + ", ".join(str(c) for c in e.weight) + ")"
        lines.append(f'  "{a.key}" -- "{b.key}" [label="{weight}"{style}];')
    lines.append("}")
    return "\n".join(lines) + "\n"
