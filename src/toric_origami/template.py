"""Origami templates: polytopes glued along shared fold facets.

A template is a finite connected multigraph whose vertices carry Delzant
polytopes (all of one dimension) and whose edges name one facet of each
endpoint polytope — the fold facet along which the two polytopes are glued.
Validity is the conjunction of two local conditions:

(1) for every edge, the two referenced facets are the same subset of the
    ambient space and the polytopes agree near it (they superimpose in a
    neighborhood of the fold);
(2) for every template vertex, the fold facets of distinct incident edges
    are pairwise disjoint.

Templates are immutable; `cut_leaf` and `radial_blow_up` return new
values.  Loop edges (both ends at one vertex) are allowed and model
non-coorientable folds; condition (1) forces a loop's two facet references
to coincide.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, replace
from itertools import combinations

from .exceptions import (
    ConditionOneViolation,
    ConditionTwoViolation,
    DimensionError,
    InvalidTemplate,
    MalformedTemplate,
    NotALeaf,
    Unsupported,
)
from .polytope import DelzantPolytope, _is_facet_index, agree_near_facet, facet_as_polytope


def _pair(entry) -> tuple:
    """An entry as a tuple, () when it is a str or not iterable: the length check refuses it."""
    if isinstance(entry, str):
        return ()
    try:
        return tuple(entry)
    except TypeError:
        return ()


@dataclass(frozen=True, eq=False)
class TemplateGraph:
    """A finite multigraph with string-identified vertices and edges.

    `incidence` maps each edge id to its ordered pair of end vertex ids;
    the pair order only matters for aligning per-end data (fold facet
    references), not for the graph structure.  Loops are pairs with equal
    ends.  Every vertex, edge and end id must be a str, `vertices` and
    `edges` iterables of ids but not a str themselves, and `incidence` a
    mapping, or MalformedTemplate names the id or the argument.  The graph
    is indexed once, at construction: each vertex lists an (edge id, other
    end) entry per edge end in edge order, a loop twice; degrees and
    incident edges are read off these lists, and one walk over them stores
    the components and whether a 2-colouring exists.  A graph that surgery
    derives takes its parent's index with the one change (a leaf removed,
    a pendant added), neither checked nor walked.
    """

    vertices: tuple
    edges: tuple
    incidence: dict

    def __post_init__(self):
        ids = []
        for name in ("vertices", "edges"):
            value = getattr(self, name)
            if isinstance(value, str):
                raise MalformedTemplate(f"{name} must be a sequence of ids, not a str")
            try:
                ids.append(tuple(value))
            except TypeError:
                raise MalformedTemplate(
                    f"{name} must be a sequence of ids, not {type(value).__name__}"
                ) from None
        verts, eids = ids
        if not isinstance(self.incidence, Mapping):
            raise MalformedTemplate(
                f"incidence must map edge ids to end pairs, not {type(self.incidence).__name__}"
            )
        for kind, ids in (("vertex", verts), ("edge", eids)):
            for i in ids:
                if not isinstance(i, str):
                    raise MalformedTemplate(f"{kind} id {i!r} is not a string")
        if len(set(verts)) != len(verts):
            raise MalformedTemplate("duplicate vertex identifiers")
        if len(set(eids)) != len(eids):
            raise MalformedTemplate("duplicate edge identifiers")
        if set(self.incidence) != set(eids):
            raise MalformedTemplate("incidence must give exactly one end pair per edge")
        inc = {}
        at = {v: () for v in verts}  # (edge id, other end) per edge end in edge order, a loop twice
        for e in eids:
            ends = _pair(self.incidence[e])
            if len(ends) != 2:
                raise MalformedTemplate(f"edge {e}: incidence needs exactly two ends")
            for w in ends:
                if not isinstance(w, str):
                    raise MalformedTemplate(f"edge {e}: end vertex id {w!r} is not a string")
                if w not in at:
                    raise MalformedTemplate(f"edge {e}: unknown end vertex {w!r}")
            u, v = inc[e] = ends
            at[u] += ((e, v),)
            at[v] += ((e, u),)
        # seeds in sorted order, so components come out ordered by least id;
        # the colouring fails on a loop (other == w) or an odd cycle
        color, components, bipartite = {}, [], True
        for seed in sorted(verts):
            if seed in color:
                continue
            color[seed] = 0
            comp = [seed]
            for w in comp:  # grows as the walk reaches new vertices
                for _, other in at[w]:
                    if other not in color:
                        color[other] = 1 - color[w]
                        comp.append(other)
                    elif color[other] == color[w]:
                        bipartite = False
            components.append(frozenset(comp))
        loops = tuple(e for e in eids if inc[e][0] == inc[e][1])
        self._store(verts, eids, inc, at, loops, tuple(components), bipartite)

    @classmethod
    def _derived(cls, *index):
        """A graph made by one change to a checked graph, with its index; its
        ids come from that graph or from `_fresh_id`, so nothing is checked."""
        self = cls.__new__(cls)
        self._store(*index)
        return self

    def _store(self, *index):
        names = "vertices edges incidence _at _loops _components _bipartite"
        for name, value in zip(names.split(), index):
            object.__setattr__(self, name, value)

    def _without_leaf(self, vid, eid, neighbor):
        """This forest's graph less the leaf `vid` and its edge `eid` to
        `neighbor`: one tree, so no loop and a 2-colouring."""
        verts = tuple(w for w in self.vertices if w != vid)
        eids = tuple(e for e in self.edges if e != eid)
        at = {w: ends for w, ends in self._at.items() if w != vid}
        at[neighbor] = tuple(end for end in at[neighbor] if end[0] != eid)
        inc = {e: self.incidence[e] for e in eids}
        return TemplateGraph._derived(verts, eids, inc, at, (), (frozenset(verts),), True)

    def _with_pendant(self, vid, new_vid, new_eid):
        """This graph plus a new vertex joined to `vid` by a new last edge,
        which adds no loop or cycle and keeps any 2-colouring."""
        at = {**self._at, new_vid: ((new_eid, vid),)}
        at[vid] += ((new_eid, new_vid),)
        inc = {**self.incidence, new_eid: (vid, new_vid)}
        components = tuple(c | {new_vid} if vid in c else c for c in self._components)
        return TemplateGraph._derived(
            self.vertices + (new_vid,), self.edges + (new_eid,), inc,
            at, self._loops, components, self._bipartite,
        )

    def ends(self, eid: str) -> tuple:
        return self.incidence[eid]

    def incident_edges(self, vid: str) -> tuple:
        """The edges with an end at the vertex, in edge order; a loop once."""
        return tuple(dict.fromkeys(e for e, _ in self._at.get(vid, ())))

    def degree(self, vid: str) -> int:
        """Number of edge ends at the vertex; a loop counts twice."""
        return len(self._at.get(vid, ()))

    def loops(self) -> tuple:
        return self._loops

    def connected_components(self) -> tuple:
        return self._components

    def is_connected(self) -> bool:
        return len(self._components) <= 1

    def is_acyclic(self) -> bool:
        """True iff the multigraph is a forest (loops and multi-edges are cycles)."""
        return len(self.edges) == len(self.vertices) - len(self._components)

    def is_bipartite(self) -> bool:
        return self._bipartite


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of template validation, itemized per edge, vertex, and polytope.

    `valid` is the conjunction of all itemized checks.  The classification
    flags are informational and do not affect validity; `orientable` is
    None for non-coorientable (loop-carrying) templates, whose
    orientability this toolkit does not decide.
    """

    valid: bool
    edge_condition1: dict
    vertex_condition2: dict
    polytope_delzant: dict
    acyclic: bool
    coorientable: bool
    orientable: bool | None
    messages: tuple = ()

    def summary(self) -> str:
        lines = ["verdict: valid" if self.valid else "verdict: INVALID"]
        for vid in sorted(self.polytope_delzant):
            ok = self.polytope_delzant[vid]
            lines.append(f"polytope at {vid}: {'Delzant' if ok else 'NOT Delzant'}")
        for eid in sorted(self.edge_condition1):
            ok = self.edge_condition1[eid]
            lines.append(f"condition (1) at edge {eid}: {'ok' if ok else 'FAIL'}")
        for vid in sorted(self.vertex_condition2):
            ok = self.vertex_condition2[vid]
            lines.append(f"condition (2) at vertex {vid}: {'ok' if ok else 'FAIL'}")
        flags = (
            f"acyclic={'yes' if self.acyclic else 'no'} "
            f"coorientable={'yes' if self.coorientable else 'no'} "
            f"orientable="
            + ("n/a" if self.orientable is None else ("yes" if self.orientable else "no"))
        )
        lines.append(flags)
        lines.extend(self.messages)
        return "\n".join(lines)


@dataclass(frozen=True)
class CutResult:
    """Everything produced by cutting a leaf off a template.

    `c_minus` is the removed leaf polytope, `c_plus` the remaining
    template, and `b` the shared fold facet rewritten as a full-dimensional
    polytope one dimension down (`fold_base`/`fold_basis` give the affine
    chart: y corresponds to fold_base + sum(y[k] * fold_basis[k])).  The
    attachment data is exactly what `radial_blow_up` needs to rebuild the
    original template.
    """

    c_minus: DelzantPolytope
    c_plus: "OrigamiTemplate"
    b: DelzantPolytope
    leaf_vertex: str
    leaf_facet: int
    attach_vertex: str
    attach_facet: int
    fold_base: tuple
    fold_basis: tuple


class OrigamiTemplate:
    """An origami template: a connected graph of Delzant polytopes glued on folds.

    Construction checks only structural integrity (references resolve,
    dimensions agree, the graph is connected) and raises MalformedTemplate
    otherwise; the geometric gluing conditions are evaluated by
    `validate()`, so that invalid-but-well-formed templates can be
    inspected and reported.  `polytope_ids` optionally remembers the file
    identifiers polytopes were defined under, to keep serialization stable;
    they must be strs.  The dimension must be an int (not a bool), or
    DimensionError is raised, as for a polytope.
    """

    def __init__(self, dimension, graph, psi_v, psi_e, polytope_ids=None):
        if not isinstance(dimension, int) or isinstance(dimension, bool) or dimension < 0:
            raise DimensionError(f"dimension must be a nonnegative int, got {dimension!r}")
        if not isinstance(graph, TemplateGraph):
            graph = TemplateGraph(*graph)
        if not graph.vertices:
            raise MalformedTemplate("a template needs at least one vertex")
        psi_v = dict(psi_v)
        if set(psi_v) != set(graph.vertices):
            raise MalformedTemplate("psi_v must assign exactly one polytope per graph vertex")
        for vid, p in psi_v.items():
            if not isinstance(p, DelzantPolytope):
                raise MalformedTemplate(f"vertex {vid}: not a DelzantPolytope")
            if p.dimension != dimension:
                raise DimensionError(
                    f"vertex {vid}: polytope dimension {p.dimension} != template dimension {dimension}"
                )
        psi_e = {e: _pair(fs) for e, fs in dict(psi_e).items()}
        if set(psi_e) != set(graph.edges):
            raise MalformedTemplate("psi_e must assign exactly one facet pair per edge")
        for eid, facets in psi_e.items():
            u, v = graph.ends(eid)
            if len(facets) != 2:
                raise MalformedTemplate(f"edge {eid}: needs one facet index per end")
            for w, f in zip((u, v), facets):
                if not _is_facet_index(f, psi_v[w]):
                    raise MalformedTemplate(
                        f"edge {eid}: facet index {f!r} out of range for vertex {w}"
                    )
        components = graph.connected_components()
        if len(components) > 1:
            hint = "; ".join("{" + ", ".join(sorted(c)) + "}" for c in components)
            raise MalformedTemplate(f"template graph is disconnected: components {hint}")
        polytope_ids = dict(polytope_ids) if polytope_ids else {}
        for vid, pid in polytope_ids.items():
            if not isinstance(pid, str):
                raise MalformedTemplate(f"vertex {vid}: polytope id {pid!r} is not a string")
        # the fold ends, indexed once: per vertex, in edge order, (edge id,
        # own facet, neighbour, own halfspace row, other halfspace row); a
        # loop has both its ends at one vertex
        ends = {vid: () for vid in graph.vertices}
        for eid in graph.edges:
            (u, v), (fu, fv) = graph.ends(eid), psi_e[eid]
            hu, hv = psi_v[u].halfspaces[fu].row, psi_v[v].halfspaces[fv].row
            ends[u] += ((eid, fu, v, hu, hv),)
            ends[v] += ((eid, fv, u, hv, hu),)
        self._store(dimension, graph, psi_v, psi_e, polytope_ids, None, ends)

    @classmethod
    def _derived(cls, dimension, graph, psi_v, psi_e, polytope_ids, report, fold_ends):
        """A template made from a validated one by one change, with the report
        `validate()` would give and its parent's fold ends with that change;
        the caller vouches for it, so nothing is checked."""
        self = cls.__new__(cls)
        self._store(dimension, graph, psi_v, psi_e, polytope_ids, report, fold_ends)
        return self

    def _store(self, dimension, graph, psi_v, psi_e, polytope_ids, report, fold_ends):
        self._dim = dimension
        self._graph = graph
        self._psi_v = psi_v
        self._psi_e = psi_e
        self._polytope_ids = polytope_ids
        self._report = report
        self._fold_ends = fold_ends
        self._fold_facets = {vid: frozenset(end[1] for end in e) for vid, e in fold_ends.items()}

    # -- accessors -----------------------------------------------------------

    @property
    def dimension(self) -> int:
        return self._dim

    @property
    def graph(self) -> TemplateGraph:
        return self._graph

    @property
    def psi_v(self) -> dict:
        return dict(self._psi_v)

    @property
    def psi_e(self) -> dict:
        return dict(self._psi_e)

    @property
    def polytope_ids(self) -> dict:
        return dict(self._polytope_ids)

    def polytope(self, vid: str) -> DelzantPolytope:
        try:
            return self._psi_v[vid]
        except KeyError:
            raise MalformedTemplate(f"unknown template vertex {vid!r}") from None

    def edge_facets(self, eid: str) -> tuple:
        """The (first-end, second-end) facet indices of an edge's fold."""
        try:
            return self._psi_e[eid]
        except KeyError:
            raise MalformedTemplate(f"unknown template edge {eid!r}") from None

    def fold_entries(self, vid: str) -> tuple:
        """All (edge id, facet index) pairs of fold facets at a vertex, in edge
        order, read off its fold ends.

        A loop edge contributes each distinct facet reference once.
        """
        return tuple(dict.fromkeys(end[:2] for end in self._fold_ends.get(vid, ())))

    def fold_facet_indices(self, vid: str) -> frozenset:
        return self._fold_facets.get(vid, frozenset())

    def fold_vertex_set(self, eid: str) -> frozenset:
        """The geometric vertex set of an edge's fold facet (first-end copy)."""
        u, _ = self._graph.ends(eid)
        fu, _ = self._psi_e[eid]
        return self._psi_v[u].facet_vertex_sets[fu]

    def distinct_polytopes(self) -> tuple:
        return tuple(dict.fromkeys(self._psi_v.values()))

    # -- validation -----------------------------------------------------------

    def validate(self) -> ValidationReport:
        """Check the gluing conditions and classify the template; cached."""
        if self._report is not None:
            return self._report
        messages = []
        delzant = {}
        for vid in self._graph.vertices:
            delzant[vid] = ok = self._psi_v[vid].is_delzant()
            if not ok:
                messages.append(f"polytope at {vid} is not Delzant")
        cond1 = {}
        for eid in self._graph.edges:
            u, v = self._graph.ends(eid)
            fu, fv = self._psi_e[eid]
            ok = agree_near_facet(self._psi_v[u], fu, self._psi_v[v], fv)
            cond1[eid] = ok
            if not ok:
                messages.append(
                    f"edge {eid}: polytopes at {u} and {v} do not agree near the fold"
                )
        cond2 = {}
        for vid in self._graph.vertices:
            masks = self._psi_v[vid]._facet_masks
            folds = sorted({end[:2] for end in self._fold_ends[vid]})  # (edge id, facet) pairs
            meets = sorted(
                (e1, e2) for (e1, f1), (e2, f2) in combinations(folds, 2)
                if e1 != e2 and masks[f1] & masks[f2]
            )
            for e1, e2 in meets:
                messages.append(f"vertex {vid}: fold facets of edges {e1} and {e2} intersect")
            cond2[vid] = not meets
        coorientable = not self._graph.loops()
        report = ValidationReport(
            valid=all(delzant.values()) and all(cond1.values()) and all(cond2.values()),
            edge_condition1=cond1,
            vertex_condition2=cond2,
            polytope_delzant=delzant,
            acyclic=self._graph.is_acyclic(),
            coorientable=coorientable,
            orientable=self._graph.is_bipartite() if coorientable else None,
            messages=tuple(messages),
        )
        self._report = report
        return report

    def require_valid(self):
        report = self.validate()
        if not report.valid:
            raise InvalidTemplate("; ".join(report.messages) or "template is invalid")

    # -- classification ---------------------------------------------------------

    def is_acyclic(self) -> bool:
        """True iff the template graph has no cycle (loops and multi-edges included)."""
        self.require_valid()
        return self._graph.is_acyclic()

    def is_coorientable(self) -> bool:
        """True iff the template graph has no loop edge."""
        self.require_valid()
        return not self._graph.loops()

    def is_orientable(self) -> bool:
        """True iff the template graph is bipartite (no odd cycle).

        Only defined for coorientable templates; raises Unsupported on
        loop-carrying input.
        """
        self.require_valid()
        if self._graph.loops():
            raise Unsupported("orientability of non-coorientable (loop) templates is not decided")
        return self._graph.is_bipartite()

    # -- surgery -----------------------------------------------------------------

    def cut_leaf(self, vid: str) -> CutResult:
        """Split off a degree-1 vertex, returning the two pieces and the fold.

        Needs a valid acyclic template; the remainder keeps all other
        vertices and edges unchanged, and takes this template's graph index
        and fold ends less the leaf and its edge.
        """
        self.require_valid()
        if vid not in self._psi_v:
            raise MalformedTemplate(f"unknown template vertex {vid!r}")
        if not self._graph.is_acyclic():
            raise Unsupported("cutting is defined for acyclic templates only")
        degree = self._graph.degree(vid)
        if degree != 1:
            raise NotALeaf(f"vertex {vid} has degree {degree}, expected 1")
        ((eid, leaf_facet, neighbor, *_),) = self._fold_ends[vid]
        (attach_facet,) = (f for e, f, *_ in self._fold_ends[neighbor] if e == eid)
        leaf_polytope = self._psi_v[vid]
        fold_polytope, base, basis = facet_as_polytope(leaf_polytope, leaf_facet)
        graph = self._graph._without_leaf(vid, eid, neighbor)
        ends = {w: e for w, e in self._fold_ends.items() if w != vid}
        ends[neighbor] = tuple(end for end in ends[neighbor] if end[0] != eid)
        # cutting a leaf off a valid forest leaves every other polytope and
        # fold as it was, and a forest: no loop and a 2-colouring
        remainder = OrigamiTemplate._derived(
            self._dim, graph, {w: self._psi_v[w] for w in graph.vertices},
            {e: self._psi_e[e] for e in graph.edges},
            {w: pid for w, pid in self._polytope_ids.items() if w != vid},
            _passed(self._report, graph), ends,
        )
        return CutResult(
            c_minus=leaf_polytope, c_plus=remainder, b=fold_polytope, leaf_vertex=vid,
            leaf_facet=leaf_facet, attach_vertex=neighbor, attach_facet=attach_facet,
            fold_base=base, fold_basis=basis,
        )

    def __repr__(self):
        return (
            f"OrigamiTemplate(dim={self._dim}, vertices={len(self._graph.vertices)}, "
            f"edges={len(self._graph.edges)})"
        )


def _passed(report, graph) -> ValidationReport:
    """The report of a valid template, for a graph made from its graph by a
    cut or a blow-up: every check passes, and the flags stay the same."""
    checks = dict.fromkeys(graph.vertices, True)
    return replace(
        report, edge_condition1=dict.fromkeys(graph.edges, True),
        vertex_condition2=checks, polytope_delzant=dict(checks),
    )


def _fresh_id(prefix: str, taken) -> str:
    k = 0
    while f"{prefix}{k}" in taken:
        k += 1
    return f"{prefix}{k}"


def radial_blow_up(t: OrigamiTemplate, p: DelzantPolytope, vid: str, f_t: int, f_p: int) -> OrigamiTemplate:
    """Attach a polytope to a template along an agreeing facet.

    Adds one new vertex carrying `p` and one new edge gluing facet `f_t`
    of the polytope at `vid` to facet `f_p` of `p`.  Raises
    ConditionOneViolation when the polytopes do not agree near the shared
    facet and ConditionTwoViolation when the new fold would meet an
    existing fold facet at `vid`, and InvalidTemplate when `p` is not
    Delzant.  Those checks and t's validity are the result's validation
    report, so nothing is re-checked, and the result takes t's graph index
    and fold ends with the pendant added.  Inverse to `cut_leaf` up to
    isomorphism.
    """
    t.require_valid()
    host = t.polytope(vid)
    if not isinstance(p, DelzantPolytope):
        raise MalformedTemplate("radial_blow_up needs a DelzantPolytope to attach")
    if p.dimension != t.dimension:
        raise DimensionError(
            f"cannot attach a {p.dimension}-dimensional polytope to a {t.dimension}-dimensional template"
        )
    if not _is_facet_index(f_t, host):
        raise MalformedTemplate(f"facet index {f_t!r} out of range for vertex {vid}")
    if not _is_facet_index(f_p, p):
        raise MalformedTemplate(f"facet index {f_p!r} out of range for the attached polytope")
    if not agree_near_facet(host, f_t, p, f_p):
        raise ConditionOneViolation(
            f"attached polytope does not agree with the polytope at {vid} near facet {f_t}"
        )
    new_fold = host._facet_masks[f_t]
    for eid, f, *_ in t._fold_ends[vid]:
        if host._facet_masks[f] & new_fold:
            raise ConditionTwoViolation(
                f"new fold facet at {vid} intersects the fold facet of edge {eid}"
            )
    new_vid = _fresh_id("bu", set(t.graph.vertices))
    if not p.is_delzant():
        raise InvalidTemplate(f"polytope at {new_vid} is not Delzant")
    new_eid = _fresh_id("be", set(t.graph.edges))
    hu, hp = host.halfspaces[f_t].row, p.halfspaces[f_p].row
    ends = {**t._fold_ends, new_vid: ((new_eid, f_p, vid, hp, hu),)}
    ends[vid] += ((new_eid, f_t, new_vid, hu, hp),)
    psi_v, psi_e = {**t._psi_v, new_vid: p}, {**t._psi_e, new_eid: (f_t, f_p)}
    # a pendant edge adds no cycle or loop and keeps a 2-colouring
    graph = t.graph._with_pendant(vid, new_vid, new_eid)
    return OrigamiTemplate._derived(
        t.dimension, graph, psi_v, psi_e, t.polytope_ids, _passed(t.validate(), graph), ends
    )


def isomorphic(t1: OrigamiTemplate, t2: OrigamiTemplate) -> bool:
    """Are two templates the same up to renaming vertices and edges?

    A graph isomorphism must match polytopes exactly (equal halfspace
    sets) and fold facets end by end, as each template stored its fold
    ends.  Vertices are placed breadth-first from the one with the fewest
    candidates, each checked at once against those already placed; in a
    valid template each fold facet carries at most one edge, so every
    placement after the first is forced.
    """
    if t1.dimension != t2.dimension:
        return False
    g1, g2 = t1.graph, t2.graph
    if len(g1.vertices) != len(g2.vertices) or len(g1.edges) != len(g2.edges):
        return False
    # an end is compared by its fields 2-4, (neighbour, own halfspace row,
    # other halfspace row): a fold is named by its halfspace, not its index,
    # so that reordering a polytope's halfspace list does not break matching
    ends1, ends2 = t1._fold_ends, t2._fold_ends
    kinds = {}
    for v2 in g2.vertices:
        kinds.setdefault((t2.polytope(v2), g2.degree(v2)), {})[v2] = None
    candidates = {v1: kinds.get((t1.polytope(v1), g1.degree(v1)), {}) for v1 in g1.vertices}
    root = min(g1.vertices, key=lambda v: len(candidates[v]))
    order, parent = [root], {root: None}
    for v1 in order:
        for _, _, n, _, _ in ends1[v1]:
            if n not in parent:
                parent[n] = v1
                order.append(n)
    mapping, placed = {}, set()

    def place(i):
        if i == len(order):
            return True
        v1 = order[i]
        # every image after the root's sits next to its parent's image
        pool = dict.fromkeys(end[2] for end in ends2[mapping[parent[v1]]]) if i else candidates[v1]
        for v2 in pool:
            if v2 in placed or v2 not in candidates[v1]:
                continue
            mapping[v1] = v2
            placed.add(v2)
            # equal sorted lists are equal multisets; (str, row, row) always compare
            mine = sorted((mapping[n], a, b) for _, _, n, a, b in ends1[v1] if n in mapping)
            if mine == sorted(end[2:] for end in ends2[v2] if end[2] in placed) and place(i + 1):
                return True
            del mapping[v1]
            placed.discard(v2)
        return False

    try:
        return place(0)
    finally:
        del place  # it holds itself through this cell: free it by reference count
