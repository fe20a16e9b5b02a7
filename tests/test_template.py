"""Template graphs, validation, classification flags, cut and blow-up."""

import gc
import hashlib
import itertools
import random
import re
from operator import mul

import pytest

from helpers import (
    box_path_template,
    box_polytope,
    build_template,
    hexagon_cycle_template,
    hexagon_polytope,
    hexagon_tree_template,
    oracle_components,
    oracle_degrees,
    oracle_has_odd_cycle,
    oracle_is_forest,
    oracle_isomorphic,
    oracle_loops,
    random_fold_template,
    random_multigraph,
    stopwatch,
    surgery_templates,
)
from toric_origami import load_corpus, radial_blow_up
from toric_origami.exceptions import (
    ConditionOneViolation,
    ConditionTwoViolation,
    DimensionError,
    InvalidTemplate,
    MalformedTemplate,
    NotALeaf,
    Unsupported,
)
from toric_origami.fileformat import corpus_names
from toric_origami.polytope import DelzantPolytope, HalfSpace
from toric_origami.template import OrigamiTemplate, TemplateGraph, isomorphic


def square():
    # ordered left, bottom, right, top like the bundled chain template
    return DelzantPolytope(
        2,
        [
            HalfSpace((-1, 0), 0),
            HalfSpace((0, -1), 0),
            HalfSpace((1, 0), 1),
            HalfSpace((0, 1), 1),
        ],
    )


def triangle():
    return DelzantPolytope(
        2,
        [
            HalfSpace((-1, 0), 0),
            HalfSpace((0, -1), 0),
            HalfSpace((1, 1), 1),
        ],
    )


# ---------------------------------------------------------------------------
# TemplateGraph


def test_graph_structure_checks():
    with pytest.raises(MalformedTemplate):
        TemplateGraph(vertices=("a", "a"), edges=(), incidence={})
    with pytest.raises(MalformedTemplate):
        TemplateGraph(vertices=("a",), edges=("e",), incidence={})
    with pytest.raises(MalformedTemplate):
        TemplateGraph(vertices=("a",), edges=("e",), incidence={"e": ("a", "b")})


def test_graph_ids_that_are_not_strings_are_refused_by_name():
    with pytest.raises(MalformedTemplate, match=r"^vertex id 1 is not a string$"):
        TemplateGraph((1, 2), ("e",), {"e": (1, 2)})
    with pytest.raises(MalformedTemplate, match=r"^edge id 5 is not a string$"):
        TemplateGraph(("1", "2"), (5,), {5: ("1", "2")})
    with pytest.raises(MalformedTemplate, match=r"^edge e: end vertex id 2 is not a string$"):
        TemplateGraph(("1", "2"), ("e",), {"e": ("1", 2)})
    with pytest.raises(MalformedTemplate, match=r"^vertex id None is not a string$"):
        TemplateGraph(("a", None), (), {})


def test_graph_queries():
    g = TemplateGraph(
        vertices=("a", "b", "c"),
        edges=("e1", "e2", "loop"),
        incidence={"e1": ("a", "b"), "e2": ("b", "c"), "loop": ("c", "c")},
    )
    assert g.ends("e1") == ("a", "b")
    assert g.incident_edges("b") == ("e1", "e2")
    assert g.degree("c") == 3  # loop counts twice
    assert g.loops() == ("loop",)
    assert g.is_connected()
    assert not g.is_acyclic()  # the loop is a cycle
    assert not g.is_bipartite()

    tree = TemplateGraph(
        vertices=("a", "b", "c"),
        edges=("e1", "e2"),
        incidence={"e1": ("a", "b"), "e2": ("b", "c")},
    )
    assert tree.is_acyclic() and tree.is_bipartite()

    two_cycle = TemplateGraph(
        vertices=("a", "b"),
        edges=("e1", "e2"),
        incidence={"e1": ("a", "b"), "e2": ("a", "b")},
    )
    assert not two_cycle.is_acyclic()
    assert two_cycle.is_bipartite()  # even cycle


def test_graph_queries_match_independent_oracles():
    rng = random.Random(19)
    seen = set()
    for _ in range(400):
        vertices, edges, incidence = random_multigraph(rng)
        g = TemplateGraph(vertices=vertices, edges=edges, incidence=incidence)
        components = oracle_components(vertices, incidence)
        assert g.connected_components() == components
        assert g.is_connected() == (len(components) == 1)
        assert g.is_acyclic() == oracle_is_forest(vertices, incidence)
        assert g.is_bipartite() == (not oracle_has_odd_cycle(vertices, incidence))
        assert g.loops() == oracle_loops(edges, incidence)
        degrees = oracle_degrees(vertices, incidence)
        assert {v: g.degree(v) for v in vertices} == degrees
        for v in vertices:  # in edge order, a loop once
            assert g.incident_edges(v) == tuple(e for e in edges if v in incidence[e])
        seen.update(
            name
            for name, present in (
                ("several components", len(components) > 1),
                ("loop", g.loops()),
                ("odd cycle without a loop", not g.loops() and not g.is_bipartite()),
                ("even cycle", not g.is_acyclic() and g.is_bipartite()),
                ("isolated vertex", len(vertices) > 1 and 0 in degrees.values()),
            )
            if present
        )
    assert len(seen) == 5


# ---------------------------------------------------------------------------
# template construction and validation


def test_template_structural_errors():
    sq = square()
    with pytest.raises(MalformedTemplate):  # no vertices
        build_template(2, {}, [])
    with pytest.raises(MalformedTemplate):  # disconnected
        build_template(2, {"a": sq, "b": sq}, [])
    with pytest.raises(DimensionError):  # polytope dimension mismatch
        build_template(1, {"a": sq}, [])
    with pytest.raises(MalformedTemplate) as info:  # facet index out of range
        build_template(2, {"a": sq, "b": sq}, [("e", "a", "b", 9, 0)])
    assert str(info.value) == "edge e: facet index 9 out of range for vertex a"
    chain = load_corpus("chain3")
    with pytest.raises(MalformedTemplate):  # a bool is no facet index
        OrigamiTemplate(2, chain.graph, chain.psi_v, {"e1": (2, 2), "e2": (False, False)})


def test_refusals_only_the_python_api_reaches():
    """`parse` refuses these shapes before a graph or template is built, so
    only the Python API reaches them: each is a MalformedTemplate with this
    text."""
    chain = load_corpus("chain3")
    g, psi_v, psi_e, sq = chain.graph, chain.psi_v, chain.psi_e, chain.polytope("v1")
    one_pair = "incidence must give exactly one end pair per edge"
    two_ends = "edge e: incidence needs exactly two ends"
    one_polytope = "psi_v must assign exactly one polytope per graph vertex"
    cases = [
        (lambda: TemplateGraph(("a", "b"), ("e", "e"), {"e": ("a", "b")}), "duplicate edge identifiers"),
        (lambda: TemplateGraph(("a",), ("e",), {}), one_pair),
        (lambda: TemplateGraph(("a",), (), {"e": ("a", "a")}), one_pair),
        (lambda: TemplateGraph(("a", "b"), ("e",), {"e": ("a", "b", "a")}), two_ends),
        (lambda: TemplateGraph(("a", "b"), ("e",), {"e": ("a",)}), two_ends),
        # a str of ids was once read one character at a time
        (lambda: TemplateGraph("ab", (), {}), "vertices must be a sequence of ids, not a str"),
        (lambda: TemplateGraph(("a", "b"), "e", {"e": ("a", "b")}), "edges must be a sequence of ids, not a str"),
        # an argument that is no iterable, or no mapping, once escaped as a bare TypeError
        (lambda: TemplateGraph(None, (), {}), "vertices must be a sequence of ids, not NoneType"),
        (lambda: TemplateGraph(("a",), 5, {}), "edges must be a sequence of ids, not int"),
        (lambda: TemplateGraph(("a",), (), None), "incidence must map edge ids to end pairs, not NoneType"),
        (lambda: TemplateGraph(("a",), ("e",), ["e"]), "incidence must map edge ids to end pairs, not list"),
        (lambda: OrigamiTemplate(2, g, {"v1": sq, "v2": sq}, psi_e), one_polytope),
        (lambda: OrigamiTemplate(2, g, {**psi_v, "v4": sq}, psi_e), one_polytope),
        (lambda: OrigamiTemplate(2, g, {**psi_v, "v2": sq.halfspaces}, psi_e), "vertex v2: not a DelzantPolytope"),
        (lambda: OrigamiTemplate(2, g, psi_v, {"e1": (2, 2)}), "psi_e must assign exactly one facet pair per edge"),
        (lambda: OrigamiTemplate(2, g, psi_v, {**psi_e, "e2": (0, 0, 0)}), "edge e2: needs one facet index per end"),
        (lambda: OrigamiTemplate(2, g, psi_v, {**psi_e, "e2": (0,)}), "edge e2: needs one facet index per end"),
        (lambda: chain.edge_facets("e9"), "unknown template edge 'e9'"),
    ]
    for build, text in cases:
        with pytest.raises(MalformedTemplate) as info:
            build()
        assert type(info.value) is MalformedTemplate and str(info.value) == text


@pytest.mark.parametrize("bad", [3, None, 2.5, "ab", "01"])
def test_an_entry_that_is_no_pair_is_refused_by_name(bad):
    """An end pair or facet pair that is not iterable once escaped as a bare
    TypeError, and a str of two characters was read as the pair of them;
    each is refused as a pair of the wrong length is."""
    chain = load_corpus("chain3")
    with pytest.raises(MalformedTemplate) as info:
        OrigamiTemplate(2, chain.graph, chain.psi_v, {**chain.psi_e, "e1": bad})
    assert str(info.value) == "edge e1: needs one facet index per end"
    with pytest.raises(MalformedTemplate) as info:
        TemplateGraph(("a", "b"), ("e",), {"e": bad})
    assert str(info.value) == "edge e: incidence needs exactly two ends"


def test_fold_entries_match_a_scan_of_the_edges():
    """`fold_entries` and `fold_facet_indices` against a scan of the edges in
    order that keeps each (edge, facet) pair once, on the corpus (a loop,
    parallel edges, an odd cycle), the surgery templates, hexagon cycles and
    a square with a loop on two facets."""
    templates = [load_corpus(name) for name in corpus_names()]
    templates += [t for _, t in surgery_templates()]
    templates += [hexagon_cycle_template(k) for k in (3, 4, 5)]
    templates.append(build_template(2, {"a": square()}, [("l", "a", "a", 0, 2)]))
    for t in templates:
        for vid in t.graph.vertices:
            expected = []
            for eid in t.graph.edges:
                for w, f in zip(t.graph.ends(eid), t.edge_facets(eid)):
                    if w == vid and (eid, f) not in expected:
                        expected.append((eid, f))
            assert t.fold_entries(vid) == tuple(expected), vid
            assert t.fold_facet_indices(vid) == {f for _, f in expected}, vid
    assert templates[-1].fold_entries("a") == (("l", 0), ("l", 2))


@pytest.mark.parametrize("bad", [True, False, 2.0, -1, "2"])
def test_a_dimension_that_is_no_int_is_refused(bad):
    """A bool dimension once built and was written as `"dimension": true`,
    which `parse` refuses; a polytope and a template now refuse it alike."""
    with pytest.raises(DimensionError, match="dimension must be a nonnegative int"):
        DelzantPolytope(bad, [HalfSpace((-1,), 0), HalfSpace((1,), 1)])
    segment = DelzantPolytope(1, [HalfSpace((-1,), 0), HalfSpace((1,), 1)])
    with pytest.raises(DimensionError, match="dimension must be a nonnegative int"):
        build_template(bad, {"a": segment}, [])


@pytest.mark.parametrize("bad", [5, None, b"p", ("p",)])
def test_a_polytope_id_that_is_no_string_is_refused(bad):
    """A polytope id of 5 was once written as `"id": 5`, which `parse` refuses."""
    chain = load_corpus("chain3")
    message = rf"^vertex v2: polytope id {re.escape(repr(bad))} is not a string$"
    with pytest.raises(MalformedTemplate, match=message):
        OrigamiTemplate(2, chain.graph, chain.psi_v, chain.psi_e, {"v1": "sq", "v2": bad})


# sha256 of the `validate().summary()` texts of 400 `random_fold_template`
# templates (seed 67) joined by blank lines, recorded from the code that
# grouped each vertex's fold facets by edge and compared them edge pair by
# edge pair in nested loops
FOLD_SUMMARIES_FROZEN = "2d4047c663b7eb575a94737cc75d18012ff94c53de7aee4309ac5c70ce620c4e"


def test_validation_summaries_of_random_fold_templates_are_frozen():
    """Condition (2) fails at most of these templates, with several edge
    pairs meeting at one vertex and loops that name two facets, so its
    messages and their order are pinned."""
    rng = random.Random(67)
    templates = [random_fold_template(rng) for _ in range(400)]
    reports = [t.validate() for t in templates]
    text = "\n\n".join(r.summary() for r in reports)
    assert hashlib.sha256(text.encode()).hexdigest() == FOLD_SUMMARIES_FROZEN
    assert 300 < sum(not all(r.vertex_condition2.values()) for r in reports) < 400
    assert sum(len(set(t.edge_facets(e))) == 2 for t in templates for e in t.graph.loops()) > 100


def test_validation_report_on_good_template():
    t = load_corpus("chain3")
    report = t.validate()
    assert report.valid
    assert report.acyclic and report.coorientable and report.orientable
    assert all(report.edge_condition1.values())
    assert all(report.vertex_condition2.values())
    assert all(report.polytope_delzant.values())
    assert "verdict: valid" in report.summary()


def test_condition_one_failure_reported():
    # y = 0 facets match as sets, but the neighbor facets differ
    t = build_template(
        2, {"a": square(), "b": triangle()}, [("e", "a", "b", 1, 1)]
    )
    report = t.validate()
    assert not report.valid
    assert report.edge_condition1 == {"e": False}
    with pytest.raises(InvalidTemplate):
        t.require_valid()


def test_condition_two_failure_reported():
    # two folds of the middle square share the corner (1, 1)
    sq = square()
    t = build_template(
        2,
        {"a": sq, "b": sq, "c": sq},
        [("e1", "a", "b", 2, 2), ("e2", "b", "c", 3, 3)],
    )
    report = t.validate()
    assert not report.valid
    assert report.vertex_condition2["b"] is False
    assert report.vertex_condition2["a"] is True


def test_non_delzant_polytope_reported():
    skew = DelzantPolytope(
        2,
        [
            HalfSpace((-1, 0), 0),
            HalfSpace((0, -1), 0),
            HalfSpace((2, 1), 2),
        ],
    )
    t = build_template(2, {"a": skew}, [])
    report = t.validate()
    assert not report.valid
    assert report.polytope_delzant == {"a": False}


def test_classification_flags():
    assert load_corpus("chain3").is_acyclic()
    assert not load_corpus("torus").is_acyclic()
    assert not load_corpus("rp2").is_coorientable()
    assert load_corpus("oddcycle3").is_coorientable()
    assert not load_corpus("oddcycle3").is_orientable()  # odd cycle
    assert load_corpus("torus").is_orientable()  # even cycle
    with pytest.raises(Unsupported):
        load_corpus("rp2").is_orientable()


def test_acyclic_implies_orientable():
    rng = random.Random(21)
    for _ in range(20):
        t = box_path_template(rng)
        assert t.is_acyclic()
        assert t.is_orientable()


# ---------------------------------------------------------------------------
# cut_leaf


def test_cut_leaf_of_bundled_chain():
    t = load_corpus("chain3")
    result = t.cut_leaf("v1")
    assert result.leaf_vertex == "v1"
    assert result.c_plus.graph.vertices == ("v2", "v3")
    assert result.c_minus.dimension == 2
    assert result.b.dimension == 1
    assert len(result.b.vertices) == 2
    result.c_plus.require_valid()


def test_cut_leaf_errors():
    t = load_corpus("chain3")
    with pytest.raises(NotALeaf):
        t.cut_leaf("v2")
    with pytest.raises(MalformedTemplate):
        t.cut_leaf("nope")
    with pytest.raises(Unsupported):
        load_corpus("torus").cut_leaf("v1")
    with pytest.raises(NotALeaf):
        load_corpus("cp2").cut_leaf("v1")  # isolated vertex has degree 0


# ---------------------------------------------------------------------------
# radial blow-up


def test_radial_blow_up_attaches_a_polytope():
    t = load_corpus("cp2")
    tri = t.polytope("v1")
    t2 = radial_blow_up(t, tri, "v1", 2, 2)
    assert len(t2.graph.vertices) == 2
    assert len(t2.graph.edges) == 1
    t2.require_valid()
    assert t2.is_acyclic()


def test_radial_blow_up_condition_violations():
    chain = load_corpus("chain3")
    sq = chain.polytope("v1")
    with pytest.raises(ConditionOneViolation):
        radial_blow_up(chain, triangle(), "v1", 3, 2)
    # the top facet 3 touches the right-side fold of v1 at (1, 1)
    with pytest.raises(ConditionTwoViolation):
        radial_blow_up(chain, sq, "v1", 3, 3)
    with pytest.raises(MalformedTemplate):
        radial_blow_up(chain, sq, "missing", 0, 0)
    with pytest.raises(MalformedTemplate, match="needs a DelzantPolytope"):
        radial_blow_up(chain, sq.halfspaces, "v1", 3, 3)
    with pytest.raises(DimensionError, match="3-dimensional polytope to a 2-dimensional"):
        radial_blow_up(chain, box_polytope(((0, 1),) * 3), "v1", 3, 3)


def test_radial_blow_up_takes_the_first_free_ids():
    sq = box_polytope(((0, 1), (0, 1)))
    once = radial_blow_up(build_template(2, {"a": sq}, []), sq, "a", 1, 1)
    twice = radial_blow_up(once, sq, "a", 0, 0)  # bu0 and be0 are taken now
    assert once.graph.vertices == ("a", "bu0") and once.graph.edges == ("be0",)
    assert twice.graph.vertices == ("a", "bu0", "bu1") and twice.graph.edges == ("be0", "be1")
    assert twice.graph.ends("be1") == ("a", "bu1") and twice.edge_facets("be1") == (0, 0)


def test_fold_overlaps_match_the_facet_vertex_sets():
    """Condition 2 in `validate` and the overlap check of `radial_blow_up`
    flag a pair of fold facets exactly when their vertex sets meet, on every
    pair of facets of a square, a triangle, a hexagon, a cube and a twisted
    3-box."""
    polytopes = [square(), triangle(), hexagon_polytope(), box_polytope(((0, 1),) * 3)]
    polytopes += box_path_template(random.Random(17), n=3, length=1).distinct_polytopes()
    meets = set()
    for p in polytopes:
        n = p.dimension
        for f1, f2 in itertools.product(range(len(p.halfspaces)), repeat=2):
            meet = bool(p.facet_vertex_sets[f1] & p.facet_vertex_sets[f2])
            meets.add(meet)
            t = build_template(
                n, {"a": p, "b": p, "c": p}, [("e1", "a", "b", f1, f1), ("e2", "b", "c", f2, f2)]
            )
            report = t.validate()
            assert report.vertex_condition2 == {"a": True, "b": not meet, "c": True}
            message = "vertex b: fold facets of edges e1 and e2 intersect"
            assert report.messages == ((message,) if meet else ())
            leaf = build_template(n, {"a": p, "b": p}, [("e", "a", "b", f1, f1)])
            if meet:
                with pytest.raises(ConditionTwoViolation) as caught:
                    radial_blow_up(leaf, p, "a", f2, f2)
                assert str(caught.value) == "new fold facet at a intersects the fold facet of edge e"
            else:
                radial_blow_up(leaf, p, "a", f2, f2).require_valid()
    assert meets == {False, True}


@pytest.mark.parametrize("bad", [2.5, "1", True, -1, 4])
def test_radial_blow_up_refuses_a_facet_that_is_no_index(bad):
    t = load_corpus("cp2")
    tri = t.polytope("v1")
    with pytest.raises(MalformedTemplate) as info:
        radial_blow_up(t, tri, "v1", bad, 2)
    assert str(info.value) == f"facet index {bad!r} out of range for vertex v1"
    with pytest.raises(MalformedTemplate) as info:
        radial_blow_up(t, tri, "v1", 2, bad)
    assert str(info.value) == f"facet index {bad!r} out of range for the attached polytope"


def test_blow_up_then_cut_returns_the_original():
    t = load_corpus("cp2")
    tri = t.polytope("v1")
    t2 = radial_blow_up(t, tri, "v1", 2, 2)
    new_leaf = next(v for v in t2.graph.vertices if v != "v1")
    back = t2.cut_leaf(new_leaf).c_plus
    assert isomorphic(t, back)


def test_every_leaf_round_trip_of_hexagon_trees():
    # trees of one repeated polytope give every vertex many candidate images
    rng = random.Random(3)
    with stopwatch(20.0):
        for size in range(2, 31):
            t = hexagon_tree_template(rng, size)
            for vid in t.graph.vertices:
                if t.graph.degree(vid) != 1:
                    continue
                cut = t.cut_leaf(vid)
                rebuilt = radial_blow_up(
                    cut.c_plus, cut.c_minus, cut.attach_vertex, cut.attach_facet, cut.leaf_facet
                )
                assert isomorphic(rebuilt, t), (size, vid)


def _fields(t):
    """Every stored field of a template, with its graph's fields for the graph."""
    fields = dict(vars(t))
    fields["_graph"] = vars(fields["_graph"])
    return fields


def _built_afresh(t):
    """The same template through the public constructors, validated."""
    g = t.graph
    graph = TemplateGraph(g.vertices, g.edges, g.incidence)
    fresh = OrigamiTemplate(t.dimension, graph, t.psi_v, t.psi_e, t.polytope_ids)
    fresh.validate()
    return fresh


def test_surgery_derives_what_a_fresh_build_proves():
    """The remainder of every leaf cut and its blow-up back, which carry
    their reports from the template they came from, equal in every stored
    field the templates built and validated from the same arguments."""
    leaves = 0
    for label, t in surgery_templates():
        for vid in t.graph.vertices:
            if t.graph.degree(vid) != 1:
                continue
            cut = t.cut_leaf(vid)
            rebuilt = radial_blow_up(
                cut.c_plus, cut.c_minus, cut.attach_vertex, cut.attach_facet, cut.leaf_facet
            )
            for derived in (cut.c_plus, rebuilt):
                fresh = _built_afresh(derived)
                assert _fields(derived) == _fields(fresh), (label, vid)
                assert derived.validate() == fresh.validate()
            leaves += 1
    assert leaves > 300


def test_blow_ups_keep_the_flags_of_any_valid_template():
    """A copy of a polytope attached at each facet where the gluing holds,
    on the corpus templates (loops and odd cycles included) and an even
    cycle of hexagons, is the template built and validated from scratch."""
    flags = set()
    templates = [(name, load_corpus(name)) for name in corpus_names()]
    for name, t in templates + [("hexagon 4-cycle", hexagon_cycle_template(4))]:
        for vid in t.graph.vertices:
            p = t.polytope(vid)
            for f in range(len(p.halfspaces)):
                try:
                    result = radial_blow_up(t, p, vid, f, f)
                except ConditionTwoViolation:
                    continue
                assert _fields(result) == _fields(_built_afresh(result)), (name, vid, f)
                report = result.validate()
                flags.add((report.acyclic, report.coorientable, report.orientable))
    assert flags == {(True, True, True), (False, True, True), (False, True, False), (False, False, None)}


def test_radial_blow_up_refuses_a_polytope_that_is_not_delzant():
    """A simple polygon that agrees with the square near x = 1 but is not
    smooth at (-1, 0) is refused as the full validation of the result once
    was, naming the new vertex."""
    sq = DelzantPolytope(2, [((1, 0), 1), ((-1, 0), 0), ((0, -1), 0), ((0, 1), 1)])
    p = DelzantPolytope(2, [((1, 0), 1), ((-2, -1), 2), ((0, -1), 0), ((0, 1), 1)])
    assert p.is_simple() and not p.is_smooth()
    with pytest.raises(InvalidTemplate) as info:
        radial_blow_up(build_template(2, {"a": sq}, []), p, "a", 0, 0)
    assert str(info.value) == "polytope at bu0 is not Delzant"


def test_surgery_builds_and_walks_no_template_graph(monkeypatch):
    """A leaf cut and the blow-up back take the graph index of the template
    they came from, with its one change: no TemplateGraph is checked or
    walked on the way."""
    templates = [t for label, t in surgery_templates() if label.startswith(("box", "hexagon"))]
    walk, calls = TemplateGraph.__post_init__, []

    def counted(graph):
        calls.append(graph.vertices)
        walk(graph)

    monkeypatch.setattr(TemplateGraph, "__post_init__", counted)
    rounds = 0
    for t in templates:
        for vid in t.graph.vertices:
            if t.graph.degree(vid) != 1:
                continue
            cut = t.cut_leaf(vid)
            radial_blow_up(cut.c_plus, cut.c_minus, cut.attach_vertex, cut.attach_facet, cut.leaf_facet)
            rounds += 1
    assert calls == []
    assert rounds > 300


# ---------------------------------------------------------------------------
# isomorphism


def test_isomorphic_rebuilds_no_fold_index(monkeypatch):
    """`isomorphic` reads the fold ends each template stored at construction:
    over every leaf round trip of the surgery templates it asks no edge for
    its ends or its facets."""
    pairs = []
    for _, t in surgery_templates():
        for vid in t.graph.vertices:
            if t.graph.degree(vid) == 1:
                cut = t.cut_leaf(vid)
                back = radial_blow_up(cut.c_plus, cut.c_minus, cut.attach_vertex, cut.attach_facet, cut.leaf_facet)
                pairs.append((t, back))
    calls = []
    for cls, name in ((OrigamiTemplate, "edge_facets"), (TemplateGraph, "ends")):
        method = getattr(cls, name)
        monkeypatch.setattr(cls, name, lambda self, eid, m=method: calls.append(eid) or m(self, eid))
    for t, back in pairs:
        assert isomorphic(back, t) and isomorphic(t, back)
    assert calls == []
    assert len(pairs) > 300


def test_isomorphic_on_relabeled_template():
    t = load_corpus("chain3")
    relabeled = build_template(
        2,
        {"x": square(), "y": square(), "z": square()},
        [("f2", "y", "z", 0, 0), ("f1", "x", "y", 2, 2)],
    )
    assert isomorphic(t, relabeled)
    assert isomorphic(relabeled, t)


def test_isomorphic_reads_an_edge_either_way_round():
    """An edge written with its ends the other way round names the same
    fold, also where the two facets' halfspaces differ (an invalid fold), so
    each end's own and other rows must be kept apart."""
    polytopes = {"a": square(), "b": square(), "c": triangle()}
    t = build_template(2, polytopes, [("e", "a", "b", 0, 2), ("f", "b", "c", 3, 0)])
    flipped = build_template(2, polytopes, [("e", "b", "a", 2, 0), ("f", "c", "b", 0, 3)])
    assert not t.validate().valid
    assert oracle_isomorphic(t, flipped) and isomorphic(t, flipped) and isomorphic(flipped, t)
    moved = build_template(2, polytopes, [("e", "b", "a", 0, 2), ("f", "c", "b", 0, 3)])
    assert not oracle_isomorphic(t, moved) and not isomorphic(t, moved)


def test_isomorphic_distinguishes_fold_patterns():
    sq = square()
    a = build_template(
        2,
        {"a": sq, "b": sq, "c": sq},
        [("e1", "a", "b", 2, 2), ("e2", "b", "c", 0, 0)],
    )
    b = build_template(
        2,
        {"a": sq, "b": sq, "c": sq},
        [("e1", "a", "b", 2, 2), ("e2", "b", "c", 3, 3)],
    )
    assert not isomorphic(a, b)
    assert not isomorphic(a, load_corpus("s4"))


def test_isomorphic_respects_polytope_geometry():
    rng = random.Random(77)
    t = hexagon_tree_template(rng, 4)
    assert isomorphic(t, t)
    # same graph and facet pattern, but every hexagon shifted by (1, 0)
    moved = DelzantPolytope(
        2,
        [
            HalfSpace((-1, 0), -1),
            HalfSpace((0, -1), 0),
            HalfSpace((1, 0), 3),
            HalfSpace((0, 1), 2),
            HalfSpace((-1, -1), -2),
            HalfSpace((1, 1), 4),
        ],
    )
    shifted = build_template(
        2,
        {vid: moved for vid in t.graph.vertices},
        [
            (eid, *t.graph.ends(eid), *t.edge_facets(eid))
            for eid in t.graph.edges
        ],
    )
    assert not isomorphic(t, shifted)


def _relabelled(rng, t):
    """The template under new vertex and edge ids, in shuffled vertex and
    edge orders, each edge's ends in a random order and each polytope's
    halfspaces permuted (the fold indices follow them)."""
    graph = t.graph
    vertex_ids = {v: f"w{k}" for k, v in enumerate(rng.sample(graph.vertices, len(graph.vertices)))}
    edge_ids = {e: f"d{k}" for k, e in enumerate(rng.sample(graph.edges, len(graph.edges)))}
    permuted = {}  # polytope -> (its copy, old facet index -> new)
    for v in graph.vertices:
        p = t.polytope(v)
        if p not in permuted:
            order = rng.sample(range(len(p.halfspaces)), len(p.halfspaces))
            copy = DelzantPolytope(p.dimension, [p.halfspaces[i] for i in order])
            permuted[p] = (copy, {i: k for k, i in enumerate(order)})
    rows = []
    for e in graph.edges:
        ends = [
            (vertex_ids[w], permuted[t.polytope(w)][1][f])
            for w, f in zip(graph.ends(e), t.edge_facets(e))
        ]
        rng.shuffle(ends)
        rows.append((edge_ids[e], ends[0][0], ends[1][0], ends[0][1], ends[1][1]))
    rng.shuffle(rows)
    vertices = rng.sample(graph.vertices, len(graph.vertices))
    return build_template(
        t.dimension, {vertex_ids[v]: permuted[t.polytope(v)][0] for v in vertices}, rows
    )


def _one_change(rng, t):
    """Copies of the template with one fold moved to another facet at one
    end of one edge, and with the polytope at one vertex translated."""
    graph, changed = t.graph, []
    if graph.edges:
        eid = rng.choice(graph.edges)
        end = rng.randrange(2)
        facets = list(t.edge_facets(eid))
        others = range(len(t.polytope(graph.ends(eid)[end]).halfspaces))
        facets[end] = rng.choice([f for f in others if f != facets[end]])
        changed.append(OrigamiTemplate(t.dimension, graph, t.psi_v, {**t.psi_e, eid: tuple(facets)}))
    vid = rng.choice(graph.vertices)
    shift = [0] * t.dimension
    shift[rng.randrange(t.dimension)] = rng.choice((-1, 1))
    moved = DelzantPolytope(
        t.dimension,
        [HalfSpace(h.normal, h.offset + sum(map(mul, h.normal, shift))) for h in t.polytope(vid).halfspaces],
    )
    changed.append(OrigamiTemplate(t.dimension, graph, {**t.psi_v, vid: moved}, t.psi_e))
    return changed


def test_isomorphic_agrees_with_trying_every_bijection():
    """The placement search against every vertex bijection: each corpus
    template (parallel edges, a loop, an odd cycle) and box paths and
    hexagon trees of at most 6 polytopes against a relabelled copy and
    against copies with one fold moved or one polytope translated, the
    corpus templates against each other, and `torus` against itself with
    the folds of its parallel edges swapped."""
    rng = random.Random(30)
    corpus = [load_corpus(name) for name in corpus_names()]
    generated = [box_path_template(rng, n=2 + k % 2, length=rng.randint(2, 6)) for k in range(8)]
    generated += [hexagon_tree_template(rng, rng.randint(2, 6)) for _ in range(8)]
    torus = load_corpus("torus")
    swapped = {"e1": torus.edge_facets("e2"), "e2": torus.edge_facets("e1")}
    same = [(torus, OrigamiTemplate(1, torus.graph, torus.psi_v, swapped))]
    different = []
    for t in corpus + generated:
        same.append((t, _relabelled(rng, t)))
        different += [(t, changed) for changed in _one_change(rng, t)]
    others = list(itertools.combinations(corpus, 2))
    for pairs, expected in ((same, True), (different, False), (others, False)):
        for t1, t2 in pairs:
            assert oracle_isomorphic(t1, t2) is expected
            assert isomorphic(t1, t2) is expected
            assert isomorphic(t2, t1) is expected
    assert len(same) == 26 and len(different) == 49


def test_isomorphic_leaves_no_reference_cycle():
    t = hexagon_tree_template(random.Random(3), 10)
    gc.collect()
    gc.disable()  # so that only reference counting can free the search
    try:
        assert isomorphic(t, t)
        assert gc.collect() == 0
    finally:
        gc.enable()
