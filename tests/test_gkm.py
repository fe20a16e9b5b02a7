"""Moment graphs: fixed points, fold-crossing chains, primitive weights."""

import gc
import random
import weakref
from fractions import Fraction

import pytest

from helpers import (
    OCTAHEDRON_HALFSPACES,
    SQUARE_PYRAMID_HALFSPACES,
    _oracle_primitive,
    box_path_template,
    box_polytope,
    build_template,
    hexagon_tree_template,
    rescale_template,
)
from toric_origami import betti_numbers, gkm, load_corpus
from toric_origami.exceptions import InternalConsistency, NoFixedPoints, Unsupported
from toric_origami.fileformat import corpus_names, parse, serialize
from toric_origami.gkm import (
    FixedPoint,
    export_dot,
    fixed_points,
    moment_graph,
)
from toric_origami.orbit_space import face_poset
from toric_origami.polytope import DelzantPolytope, HalfSpace


def test_one_face_key_differences_are_lex_positive():
    """`moment_graph` takes a weight as the primitive difference of a 1-face's
    second and first vertex key, with no sign flip: the vertex numbers of
    every 1-face ascend and the keys sort as the vertices do.  On the corpus,
    seeded box paths and hexagon trees, and the square pyramid and the
    octahedron, whose 1-faces are read off `faces()`."""
    rng = random.Random(29)
    templates = [load_corpus(name) for name in corpus_names()]
    templates += [box_path_template(rng, n=n) for n in (1, 2, 3, 3, 4)]
    templates += [hexagon_tree_template(rng, size) for size in (1, 4, 9)]
    polytopes = {t.polytope(vid) for t in templates for vid in t.graph.vertices}
    non_simple = [DelzantPolytope(3, SQUARE_PYRAMID_HALFSPACES), DelzantPolytope(3, OCTAHEDRON_HALFSPACES)]
    assert not any(p.is_simple() for p in non_simple)
    checked = 0
    for p in [*polytopes, *non_simple]:
        for f in p.one_faces():
            a, b = f.numbers
            assert a < b and f.vertices == (p.vertices[a], p.vertices[b])
            delta = [y - x for x, y in zip(p._keys[a], p._keys[b])]
            assert next(c for c in delta if c) > 0, (p, f)
            checked += 1
    assert checked > 100


# ---------------------------------------------------------------------------
# fixed points


def test_fixed_points_of_bundled_templates():
    assert [fp.key for fp in fixed_points(load_corpus("s2"))] == ["v1:0", "v2:0"]
    assert [fp.key for fp in fixed_points(load_corpus("s4"))] == ["v1:0", "v2:0"]
    assert [fp.key for fp in fixed_points(load_corpus("chain3"))] == [
        "v1:0",
        "v1:1",
        "v3:2",
        "v3:3",
    ]
    assert fixed_points(load_corpus("torus")) == ()
    assert len(fixed_points(load_corpus("oddcycle3"))) == 6
    with pytest.raises(Unsupported):
        fixed_points(load_corpus("rp2"))


def test_fixed_point_payload():
    fps = fixed_points(load_corpus("s4"))
    assert fps[0].vertex_id == "v1" and fps[0].point == (0, 0)
    assert fps[1].vertex_id == "v2" and fps[1].point == (0, 0)


def test_an_equal_fixed_point_finds_its_dict_entry():
    fps = fixed_points(load_corpus("chain3"))
    index = {fp: i for i, fp in enumerate(fps)}
    for i, fp in enumerate(fps):
        twin = FixedPoint(fp.vertex_id, tuple(Fraction(c) for c in fp.point), fp.key)
        assert twin is not fp and twin == fp and hash(twin) == hash(fp)
        assert index[twin] == i
    other = FixedPoint(fps[0].vertex_id, fps[1].point, fps[0].key)
    assert other != fps[0]  # equality still compares every field


# ---------------------------------------------------------------------------
# moment graphs of the bundled templates


def test_two_interval_template_gives_one_folded_edge():
    g = moment_graph(load_corpus("s2"))
    assert g.dimension == 1
    assert len(g.fixed_points) == 2
    (e,) = g.edges
    assert {fp.key for fp in e.endpoints} == {"v1:0", "v2:0"}
    assert e.weight == (1,)
    assert e.folded and len(e.chain) == 2


def test_two_triangle_template_gives_coordinate_weights():
    g = moment_graph(load_corpus("s4"))
    assert len(g.fixed_points) == 2
    assert [e.weight for e in g.edges] == [(0, 1), (1, 0)]
    for e in g.edges:
        assert e.folded and len(e.chain) == 2
        assert {fp.key for fp in e.endpoints} == {"v1:0", "v2:0"}


def test_two_simplex_template_gives_three_folded_edges():
    g = moment_graph(load_corpus("s6"))
    assert len(g.fixed_points) == 2
    assert sorted(e.weight for e in g.edges) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]
    assert all(e.folded for e in g.edges)


def test_chain_template_has_two_long_folded_chains():
    g = moment_graph(load_corpus("chain3"))
    assert len(g.fixed_points) == 4
    folded = [e for e in g.edges if e.folded]
    straight = [e for e in g.edges if not e.folded]
    assert len(folded) == 2 and len(straight) == 2
    for e in folded:
        assert len(e.chain) == 3
        assert e.weight == (1, 0)
        assert {fp.vertex_id for fp in e.endpoints} == {"v1", "v3"}
        assert [vid for vid, _ in e.chain] == ["v1", "v2", "v3"]
    for e in straight:
        assert len(e.chain) == 1
        assert e.weight == (0, 1)
        a, b = e.endpoints
        assert a.vertex_id == b.vertex_id


def test_trapezoid_pair_graph():
    g = moment_graph(load_corpus("hirzebruch"))
    assert len(g.fixed_points) == 4
    assert sum(e.folded for e in g.edges) == 2
    assert sum(not e.folded for e in g.edges) == 2
    assert {e.weight for e in g.edges} == {(1, 0), (0, 1)}


def test_single_polytope_graph_is_its_edge_skeleton():
    g = moment_graph(load_corpus("cp2"))
    assert len(g.fixed_points) == 3
    assert len(g.edges) == 3
    assert not any(e.folded for e in g.edges)
    assert sorted(e.weight for e in g.edges) == [(0, 1), (1, -1), (1, 0)]


def test_weights_between_rational_vertices():
    """Edge directions between non-integer vertices are scaled up, not truncated."""
    half_square = box_polytope(((0, Fraction(1, 2)), (0, Fraction(1, 2))))
    g = moment_graph(build_template(2, {"v1": half_square}, []))
    assert sorted(e.weight for e in g.edges) == [(0, 1), (0, 1), (1, 0), (1, 0)]
    assert betti_numbers(g).values == (1, 2, 1)
    # vertices (0, 0), (3/2, 1/2), (2, 0), (2, 1/2)
    polygon = DelzantPolytope(
        2,
        [
            HalfSpace((0, -1), 0),
            HalfSpace((-1, 3), 0),
            HalfSpace((1, 0), 2),
            HalfSpace((0, 1), Fraction(1, 2)),
        ],
    )
    g = moment_graph(build_template(2, {"v1": polygon}, []))
    assert [e.weight for e in g.edges] == [(3, 1), (1, 0), (1, 0), (0, 1)]
    assert betti_numbers(g).values == (1, 2, 1)


# ---------------------------------------------------------------------------
# refusals


def test_fully_folded_template_reports_no_fixed_points():
    # the missing-fixed-point diagnosis wins over the cycle diagnosis
    with pytest.raises(NoFixedPoints):
        moment_graph(load_corpus("torus"))


def test_cyclic_template_with_fixed_points_is_unsupported():
    with pytest.raises(Unsupported):
        moment_graph(load_corpus("oddcycle3"))


def test_non_coorientable_template_is_unsupported():
    with pytest.raises(Unsupported):
        moment_graph(load_corpus("rp2"))


# ---------------------------------------------------------------------------
# structural properties on generated templates


def test_gkm_valence_equals_dimension():
    rng = random.Random(31)
    for _ in range(15):
        t = box_path_template(rng)
        g = moment_graph(t)
        valence = {fp.key: 0 for fp in g.fixed_points}
        for e in g.edges:
            a, b = e.endpoints
            valence[a.key] += 1
            valence[b.key] += 1
        assert set(valence.values()) == {t.dimension}
        assert len(g.edges) * 2 == t.dimension * len(g.fixed_points)


def test_weights_are_primitive_and_sign_normalized():
    rng = random.Random(32)
    from math import gcd

    for make in (box_path_template, lambda r: hexagon_tree_template(r, 4)):
        for _ in range(8):
            g = moment_graph(make(rng))
            for e in g.edges:
                nonzero = [c for c in e.weight if c]
                assert nonzero, "weight must not vanish"
                assert nonzero[0] > 0
                assert gcd(*(abs(c) for c in e.weight)) == 1 if len(e.weight) > 1 else abs(e.weight[0]) == 1
                assert e.folded == (len(e.chain) > 1)


def test_weights_are_the_primitive_fraction_differences():
    """Every 1-face of an edge's chain has the edge's weight as its direction,
    made primitive and sign-normalized here from the `Fraction` vertices, on
    box paths and hexagon trees scaled by 1/3 and shifted by halves, thirds,
    fifths and sevenths, and on a polygon with vertices of denominators 1 and 2."""
    rng = random.Random(71)
    shift = (Fraction(1, 2), Fraction(-1, 3), Fraction(1, 5), Fraction(-1, 7))
    plain = [box_path_template(rng, n=n) for n in (1, 2, 2, 3, 3, 4)]
    plain.append(hexagon_tree_template(rng, 6))
    templates = [rescale_template(t, Fraction(1, 3), shift[: t.dimension]) for t in plain]
    polygon = DelzantPolytope(
        2,
        [
            HalfSpace((0, -1), 0),
            HalfSpace((-1, 3), 0),
            HalfSpace((1, 0), 2),
            HalfSpace((0, 1), Fraction(1, 2)),
        ],
    )
    templates.append(build_template(2, {"v1": polygon}, []))
    denominators = set()
    for t in templates:
        for e in moment_graph(t).edges:
            for vid, f in e.chain:
                a, b = f.vertices
                denominators.update(c.denominator for c in a + b)
                w = _oracle_primitive([y - x for x, y in zip(a, b)])
                first = next(c for c in w if c)
                assert e.weight == (w if first > 0 else tuple(-c for c in w)), (t, e)
    assert {2, 3, 5, 6} <= denominators


def test_chain_segments_are_collinear_and_connected():
    rng = random.Random(33)
    for _ in range(8):
        t = box_path_template(rng)
        for e in moment_graph(t).edges:
            points = set()
            for vid, face in e.chain:
                assert face.dim == 1
                points.update(face.vertices)
            # all chain vertices lie on one line with direction e.weight
            base = min(points)
            for q in points:
                delta = tuple(b - a for a, b in zip(base, q))
                scales = {
                    d / w for d, w in zip(delta, e.weight) if w
                } | {0 for d, w in zip(delta, e.weight) if not w and d}
                assert len(scales) <= 1


def test_moment_graph_is_deterministic():
    t = load_corpus("chain3")
    g1, g2 = moment_graph(t), moment_graph(t)
    assert [fp.key for fp in g1.fixed_points] == [fp.key for fp in g2.fixed_points]
    assert [
        (e.endpoints[0].key, e.endpoints[1].key, e.weight) for e in g1.edges
    ] == [(e.endpoints[0].key, e.endpoints[1].key, e.weight) for e in g2.edges]
    assert export_dot(g1) == export_dot(g2)


def _pieces(pairs):
    return frozenset((vid, f.vertices) for vid, f in pairs)


def test_moment_graph_is_the_one_skeleton_of_the_orbit_space():
    rng = random.Random(34)
    templates = [load_corpus(name) for name in corpus_names()]
    templates += [box_path_template(rng) for _ in range(10)]
    templates += [hexagon_tree_template(rng, rng.randint(1, 12)) for _ in range(10)]
    checked = 0
    for t in templates:
        if not (t.is_acyclic() and t.is_coorientable() and fixed_points(t)):
            continue
        checked += 1
        poset, g = face_poset(t), moment_graph(t)
        corners = [_pieces(f.members) for f in poset.by_dimension(0)]
        assert len(corners) == len(g.fixed_points), t
        assert set(corners) == {
            frozenset({(fp.vertex_id, (fp.point,))}) for fp in g.fixed_points
        }, t
        one_faces = [_pieces(f.members) for f in poset.by_dimension(1)]
        assert len(one_faces) == len(g.edges), t
        assert set(one_faces) == {_pieces(e.chain) for e in g.edges}, t
    assert checked == 26  # the corpus has three templates outside the class


def test_a_broken_chain_is_named(monkeypatch):
    real = gkm._glue

    def one_link_short(t, d):
        pieces, links = real(t, d)
        return pieces, links[1:]

    monkeypatch.setattr(gkm, "_glue", one_link_short)
    with pytest.raises(
        InternalConsistency, match=r"chain v1:\(0\)-\(1\) does not end at two distinct fixed points"
    ):
        moment_graph(load_corpus("s2"))


def _ingest_texts():
    """The corpus templates with a moment graph, 4 box paths and 4 hexagon
    trees, as file text."""
    rng = random.Random(47)
    templates = [load_corpus(name) for name in corpus_names()]
    templates += [box_path_template(rng, n=rng.randint(2, 4)) for _ in range(4)]
    templates += [hexagon_tree_template(rng, rng.randint(2, 12)) for _ in range(4)]
    return [
        serialize(t)
        for t in templates
        if t.is_acyclic() and t.is_coorientable() and fixed_points(t)
    ]


def test_moment_graph_builds_no_face_lattice(monkeypatch):
    calls = []
    real = DelzantPolytope.faces

    def counted(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(DelzantPolytope, "faces", counted)
    texts = _ingest_texts()
    assert len(texts) == 14 and calls == []
    for text in texts:
        assert moment_graph(parse(text)).edges
    assert calls == []


def test_a_request_frees_its_polytopes_by_reference_count():
    texts = _ingest_texts()
    gc.disable()  # so that only reference counting can free them
    try:
        for text in texts:
            t = parse(text)
            refs = [weakref.ref(p) for p in t.psi_v.values()]
            g, poset = moment_graph(t), face_poset(t)
            assert all(face.subgraph.is_connected() for face in poset)
            (vid, piece), *_ = g.edges[0].chain
            assert piece.owner is t.polytope(vid)
            del t, g, poset
            assert [r() for r in refs] == [None] * len(refs), text
            assert piece.owner is None
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# DOT export


def test_export_dot_shape():
    text = export_dot(moment_graph(load_corpus("s4")))
    lines = text.strip().splitlines()
    assert lines[0] == "graph moment {"
    assert lines[-1] == "}"
    assert '  "v1:0" [label="v1:0 (0, 0)"];' in lines
    assert '  "v1:0" -- "v2:0" [label="(0, 1)", style=dashed];' in lines
    assert text.count("style=dashed") == 2

    straight = export_dot(moment_graph(load_corpus("cp2")))
    assert "style=dashed" not in straight
