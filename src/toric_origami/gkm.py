"""Moment graphs: fixed points, glued 1-faces, and primitive weights.

The fixed points of a template are the polytope vertices that avoid every
fold facet of their own polytope.  The edges are the glued classes of
1-pieces of the orbit space (`orbit_space._glue` at d = 1): polytope
1-faces in no fold facet, linked across a fold where they meet it at the
same vertex.  Neighboring polytopes superimpose near folds, so a class is
a chain of collinear 1-faces between two fixed points that retraces its
line at each fold it crosses; chains that cross a fold are the folded
edges.  There is no chain tracing.

Fold-freeness is read off each polytope's facet bitmasks, and piece ends,
links, the chain walk and the edge order are keyed by vertex number within
each polytope (numbers sort as the sorted vertices do).  A link's two end
numbers are read off its trace: the one fold-local number it holds is an
index into the fold facet's vertex numbers at either end.  A weight is the
primitive difference of a 1-face's two integer vertex keys (the vertices
times one positive constant per polytope), computed once per distinct
1-face (keyed by polytope and vertex numbers); `Fraction` coordinates
serve only the output.

Edges are defined for valid, coorientable, acyclic templates with at
least one fixed point; everything else is refused with a typed error.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exceptions import InternalConsistency, NoFixedPoints, Unsupported
from .lattice import primitive
from .orbit_space import _classes, _glue
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
    """A point or a lattice vector as text, "(a, b, ...)"."""
    return "(" + ", ".join(str(c) for c in point) + ")"


def fixed_points(t: OrigamiTemplate) -> tuple:
    """All (template vertex, polytope vertex) pairs avoiding every incident fold.

    Deterministic order: template vertices in graph order, polytope
    vertices lexicographically.  A key is "vid:k", k the vertex's number
    (its index in the polytope's sorted `vertices`).  Defined for valid
    coorientable templates.
    """
    t.require_valid()
    if not t.is_coorientable():
        raise Unsupported("fixed points are defined for coorientable templates only")
    out = []
    for vid in t.graph.vertices:
        p = t.polytope(vid)
        on_fold = 0  # the vertices on a fold facet, as a mask over vertex numbers
        for f in t.fold_facet_indices(vid):
            on_fold |= p._facet_masks[f]
        out += (
            FixedPoint(vertex_id=vid, point=w, key=f"{vid}:{k}")
            for k, w in enumerate(p.vertices)
            if not on_fold >> k & 1
        )
    return tuple(out)


def _name(chain) -> str:
    """A chain of (template vertex id, polytope 1-face) pieces as text."""
    return " ".join(f"{vid}:" + "-".join(format_point(w) for w in f.vertices) for vid, f in chain)


def moment_graph(t: OrigamiTemplate) -> MomentGraph:
    """Extract the GKM graph of a valid, coorientable, acyclic template.

    Each edge is a glued class of 1-pieces, a path of collinear 1-faces
    walked from its end at the earlier fixed point in `fixed_points`
    order to its end at the other.  Piece ends are keyed by vertex number
    within their polytope, a link's ends are read off its fold-local
    trace, and each distinct 1-face's weight is computed once, in
    integers, from the polytope's vertex keys.

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
    by_key = {fp.key: k for k, fp in enumerate(fps)}
    pieces, links = _glue(t, (1,))
    across = {}  # (piece, vertex number) -> (linked piece, its number for the same point)
    for i, j, eid, trace in links:
        # a 1-piece outside the fold meets it in one end: bit `local` of the
        # trace, the local-th vertex number on the fold facet at either end
        local = trace.bit_length() - 1
        ki, kj = (
            t.polytope(w)._facet_numbers[facet][local]
            for w, facet in zip(t.graph.ends(eid), t.edge_facets(eid))
        )
        for end, k, other in ((i, ki, (j, kj)), (j, kj, (i, ki))):
            if across.setdefault((end, k), other) != other:
                w = t.polytope(pieces[end][0]).vertices[k]
                raise InternalConsistency(
                    f"chain piece {_name([pieces[end]])} has two links at {format_point(w)}"
                )
    # (polytope, 1-face vertex numbers) -> primitive direction, lex-positive
    # because a 1-face's vertex numbers ascend (see `one_faces`)
    weights = {}
    edges = []
    for cls in _classes(len(pieces), links):
        # (fixed point index, or -1 for none; piece index; vertex number) per unlinked piece end
        ends = sorted(
            (by_key.get(f"{pieces[i][0]}:{k}", -1), i, k)
            for i in cls
            for k in pieces[i][1].numbers
            if (i, k) not in across
        )
        if len(ends) != 2 or ends[0][0] < 0 or ends[0][0] == ends[1][0]:
            raise InternalConsistency(
                f"chain {_name(pieces[k] for k in cls)} does not end at two distinct fixed points"
            )
        (first, i, at), (last, _, _) = ends
        # a connected class with two unlinked ends and at most one link per
        # piece end is a path, so the walk passes each piece once
        chain = [pieces[i]]
        while True:
            a, b = pieces[i][1].numbers
            at = b if a == at else a
            if (i, at) not in across:
                break
            i, at = across[(i, at)]
            chain.append(pieces[i])
        directions = set()
        for vid, f in chain:
            p = t.polytope(vid)
            key = (id(p), f.numbers)  # the template holds every polytope
            if key not in weights:
                a, b = (p._keys[k] for k in f.numbers)
                weights[key] = primitive([y - x for x, y in zip(a, b)])
            directions.add(weights[key])
        if len(directions) != 1:
            raise InternalConsistency(f"chain {_name(chain)} changes direction")
        edges.append(
            GkmEdge(
                endpoints=(fps[first], fps[last]),
                weight=directions.pop(),
                chain=tuple(chain),
                folded=len(chain) > 1,
            )
        )
    ordered = tuple(
        sorted(
            edges,
            key=lambda e: (
                e.endpoints[0].key,
                e.endpoints[1].key,
                e.weight,
                # within one polytope, vertex numbers sort as the vertices do
                tuple((vid, f.numbers) for vid, f in e.chain),
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
        lines.append(f'  "{a.key}" -- "{b.key}" [label="{format_point(e.weight)}"{style}];')
    lines.append("}")
    return "\n".join(lines) + "\n"
