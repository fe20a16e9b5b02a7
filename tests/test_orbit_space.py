"""Glued orbit spaces: facet classes, face posets, face subgraphs."""

import random
import re

import pytest

from helpers import (
    box_even_cycle_template,
    box_path_template,
    hexagon_cycle_template,
    hexagon_tree_template,
    oracle_covers,
    oracle_face_members,
    oracle_face_subgraph,
    oracle_glue,
    oracle_glued_facets,
    random_unimodular,
    stopwatch,
    transform_template,
)
from toric_origami import OrigamiTemplate, TemplateGraph, load_corpus, orbit_space
from toric_origami.exceptions import FaceMismatch, InternalConsistency
from toric_origami.fileformat import corpus_names, face_poset_dot, parse, serialize
from toric_origami.orbit_space import (
    FacePoset,
    face_poset,
    face_subgraph,
    glued_facets,
    is_face_acyclic,
)


def dims(poset):
    return tuple(f.dimension for f in poset)


# ---------------------------------------------------------------------------
# glued facets


def test_glued_facets_of_two_triangles():
    t = load_corpus("s4")
    classes = glued_facets(t)
    assert len(classes) == 2
    members = {c.members for c in classes}
    assert members == {(("v1", 0), ("v2", 0)), (("v1", 1), ("v2", 1))}


def test_glued_facets_of_the_chain():
    t = load_corpus("chain3")
    classes = glued_facets(t)
    sizes = sorted(len(c.members) for c in classes)
    assert sizes == [1, 1, 3, 3]  # two loose sides, glued top and bottom
    all_members = {m for c in classes for m in c.members}
    # fold facets never appear among the orbit-space facets
    assert ("v1", 2) not in all_members
    assert ("v2", 0) not in all_members and ("v2", 2) not in all_members


def test_glued_facets_of_the_trapezoid_pair():
    assert len(glued_facets(load_corpus("hirzebruch"))) == 4


def test_fully_folded_template_has_no_boundary():
    assert glued_facets(load_corpus("torus")) == ()


# ---------------------------------------------------------------------------
# face posets on the bundled templates


def test_face_poset_of_two_triangles():
    poset = face_poset(load_corpus("s4"))
    assert dims(poset) == (0, 0, 1, 1, 2)
    assert poset.top is poset.faces[-1]
    assert poset.top.defining == frozenset()
    # the two 0-faces are the two copies of the corner opposite the fold
    corners = poset.by_dimension(0)
    assert {f.member_vertices() for f in corners} == {("v1",), ("v2",)}
    # every 1-face runs through both polytopes
    for f in poset.by_dimension(1):
        assert f.member_vertices() == ("v1", "v2")


def test_face_poset_of_the_chain():
    poset = face_poset(load_corpus("chain3"))
    assert len(poset) == 9
    assert dims(poset) == (0, 0, 0, 0, 1, 1, 1, 1, 2)
    spans = sorted(f.member_vertices() for f in poset.by_dimension(1))
    assert spans == [
        ("v1",),
        ("v1", "v2", "v3"),
        ("v1", "v2", "v3"),
        ("v3",),
    ]
    # glued 1-faces carry the whole path as their subgraph
    for f in poset.by_dimension(1):
        if f.member_vertices() == ("v1", "v2", "v3"):
            assert set(f.subgraph.edges) == {"e1", "e2"}
            assert f.subgraph.is_acyclic()


def test_face_poset_of_the_trapezoid_pair():
    poset = face_poset(load_corpus("hirzebruch"))
    assert len(poset) == 9
    assert dims(poset) == (0, 0, 0, 0, 1, 1, 1, 1, 2)


def test_face_poset_of_fully_folded_and_loop_templates():
    torus = face_poset(load_corpus("torus"))
    assert len(torus) == 1 and torus.faces == (torus.top,)
    assert set(torus.top.subgraph.edges) == {"e1", "e2"}

    rp2 = face_poset(load_corpus("rp2"))
    assert dims(rp2) == (0, 1)
    assert rp2.top.subgraph.loops() == ("e1",)


def test_face_poset_of_the_hexagon_cycle():
    poset = face_poset(load_corpus("oddcycle3"))
    assert len(poset) == 13
    assert dims(poset) == (0,) * 6 + (1,) * 6 + (2,)


# ---------------------------------------------------------------------------
# the inclusion order


def test_leq_is_a_partial_order_with_top():
    poset = face_poset(load_corpus("chain3"))
    for f in poset:
        assert FacePoset.leq(f, f)
        assert FacePoset.leq(f, poset.top)
        if f is not poset.top:
            assert not FacePoset.leq(poset.top, f)
    for a in poset:
        for b in poset:
            if FacePoset.leq(a, b) and FacePoset.leq(b, a):
                assert a == b
            if FacePoset.leq(a, b):
                assert a.dimension <= b.dimension


def test_every_corner_lies_under_its_defining_facets():
    poset = face_poset(load_corpus("hirzebruch"))
    one_faces = poset.by_dimension(1)
    for corner in poset.by_dimension(0):
        above = [g for g in one_faces if FacePoset.leq(corner, g)]
        assert len(above) == 2  # simple polytopes: a corner meets n facets
        assert corner.defining == frozenset().union(*(g.defining for g in above))


def _templates(rng):
    """The corpus, seeded box paths and hexagon trees, hexagon cycles of
    length 3 to 7 and the box 4-cycle."""
    templates = [load_corpus(name) for name in corpus_names()]
    templates += [box_path_template(rng) for _ in range(8)]
    templates += [hexagon_tree_template(rng) for _ in range(8)]
    templates += [hexagon_cycle_template(length) for length in range(3, 8)]
    templates.append(box_even_cycle_template())
    return templates


def test_faces_are_those_of_the_plain_fixed_point():
    for t in _templates(random.Random(29)):
        got = {
            frozenset((vid, f.vertex_set) for vid, f in face.members)
            for face in face_poset(t)
        }
        assert got == oracle_face_members(t, oracle_glued_facets(t)), t


def test_glued_facets_are_those_of_the_oracle():
    for t in _templates(random.Random(41)):
        assert [g.members for g in glued_facets(t)] == oracle_glued_facets(t), t


def test_covers_are_the_covering_relation():
    for t in _templates(random.Random(23)):
        poset = face_poset(t)
        assert list(poset.covers()) == oracle_covers(poset.faces, FacePoset.leq), t


def _point_set_leq(a, b):
    """Inclusion by definition: each piece's vertices lie among those of a
    piece of `b` in the same polytope."""
    return all(
        any(vid == wid and set(f.vertices) <= set(g.vertices) for wid, g in b.members)
        for vid, f in a.members
    )


def test_leq_is_point_set_inclusion():
    rng = random.Random(47)
    templates = [load_corpus(name) for name in corpus_names()]
    templates += [box_path_template(rng) for _ in range(4)]
    templates += [hexagon_tree_template(rng) for _ in range(4)]
    seen = set()
    for t in templates:
        faces = face_poset(t).faces
        for a in faces:
            for b in faces:
                expected = _point_set_leq(a, b)
                assert FacePoset.leq(a, b) == expected, (t, a, b)
                seen.add(expected)
    assert seen == {False, True}


def test_covers_build_no_point_sets():
    rng = random.Random(53)
    templates = [box_path_template(rng) for _ in range(3)] + [hexagon_tree_template(rng) for _ in range(3)]
    for text in map(serialize, templates):
        t = parse(text)
        face_poset_dot(t)
        for vid in t.graph.vertices:
            assert not [f for f in t.polytope(vid).faces() if "vertex_set" in f.__dict__], vid


def _relabelled(rng, t):
    """The template with its vertices renamed by a random bijection and its
    vertex and edge orders shuffled; returns it and the renaming."""
    graph = t.graph
    names = list(graph.vertices)
    rng.shuffle(names)
    rename = dict(zip(graph.vertices, names))
    vertices = [rename[v] for v in graph.vertices]
    edges = list(graph.edges)
    rng.shuffle(vertices)
    rng.shuffle(edges)
    relabelled = OrigamiTemplate(
        dimension=t.dimension,
        graph=TemplateGraph(
            tuple(vertices),
            tuple(edges),
            {e: tuple(rename[w] for w in graph.ends(e)) for e in edges},
        ),
        psi_v={rename[v]: t.polytope(v) for v in graph.vertices},
        psi_e={e: t.edge_facets(e) for e in edges},
    )
    return relabelled, rename


def _poset_summary(t, rename=None):
    """Face counts per dimension, the cover count and the sorted DOT labels,
    with vertex names read back through `rename` when given."""
    back = {new: old for old, new in (rename or {}).items()}
    dot = face_poset_dot(t)
    labels = []
    for line in dot.splitlines():
        if "[label=" in line:
            head, vids, pieces = re.search(r'label="(dim \d+): (\S+) (\(.*\))"', line).groups()
            vids = ",".join(sorted(back.get(v, v) for v in vids.split(",")))
            labels.append(f"{head}: {vids} {pieces}")
    poset = face_poset(t)
    counts = [len(poset.by_dimension(d)) for d in range(t.dimension + 1)]
    return counts, dot.count(" -> "), sorted(labels)


def test_poset_is_invariant_under_lattice_maps_and_relabelling():
    rng = random.Random(31)
    for t in _templates(random.Random(37)):
        expected = _poset_summary(t)
        mat = random_unimodular(rng, t.dimension)
        shift = tuple(rng.randint(-3, 3) for _ in range(t.dimension))
        assert _poset_summary(transform_template(t, mat, shift)) == expected, t
        relabelled, rename = _relabelled(rng, t)
        assert _poset_summary(relabelled, rename) == expected, t


def test_five_cube_path_poset_size_and_time():
    t = box_path_template(random.Random(0), n=5, length=3)
    with stopwatch(5.0):
        poset = face_poset(t)
        covers = poset.covers()
    assert len(poset) == 3**5
    assert len(covers) == 2 * 5 * 3**4


def test_a_split_top_face_is_refused(monkeypatch):
    real = orbit_space._glue

    def unlinked_top(t, dims):
        pieces, links = real(t, dims)
        return pieces, [link for link in links if pieces[link[0]][1].dim < t.dimension]

    monkeypatch.setattr(orbit_space, "_glue", unlinked_top)
    with pytest.raises(InternalConsistency, match="the orbit space has 2 top faces, expected 1"):
        face_poset(load_corpus("s4"))


def test_face_poset_glues_in_one_pass(monkeypatch):
    """One `_glue` call over every dimension 0..n; the glued facets are
    numbered from its classes, with no second pass through `glued_facets`."""
    real_glue = orbit_space._glue
    calls = []  # dimensions per `_glue` call

    def counted_glue(t, dims):
        calls.append(tuple(dims))
        return real_glue(t, dims)

    monkeypatch.setattr(orbit_space, "_glue", counted_glue)
    monkeypatch.setattr(orbit_space, "glued_facets", lambda t: pytest.fail("glued_facets called"))
    t = box_path_template(random.Random(0), n=3)
    face_poset(t)
    assert calls == [(0, 1, 2, 3)]


def _named(pieces, links):
    """`_glue` output as the oracle's: (vid, vertices) pieces and sorted
    (eid, first-end piece, second-end piece) links."""
    named = [(vid, f.vertices) for vid, f in pieces]
    return named, sorted((eid, named[i], named[j]) for i, j, eid, _ in links)


def test_glue_links_match_the_point_set_oracle():
    """The links read off fold-local int traces are those of point-set cuts,
    at every dimension alone (d = 1 from the polytopes' edge records) and
    all at once, as `face_poset` asks."""
    rng = random.Random(44)
    templates = [load_corpus(name) for name in corpus_names()]
    templates += [box_path_template(rng) for _ in range(20)]
    templates += [hexagon_tree_template(rng) for _ in range(20)]
    for t in templates:
        assert t.validate().valid
        n = t.dimension
        every = ([], [])
        for d in range(n + 1):
            expected = oracle_glue(t, d)
            assert _named(*orbit_space._glue(t, (d,))) == expected, (t, d)
            for whole, part in zip(every, expected):
                whole += part
        pieces, links = _named(*orbit_space._glue(t, range(n + 1)))
        assert (sorted(pieces), links) == (sorted(every[0]), sorted(every[1])), t


def test_face_subgraphs_are_built_on_first_access(monkeypatch):
    built = []
    real = TemplateGraph.__post_init__

    def counted(self):
        built.append(self)
        real(self)

    t = box_path_template(random.Random(45), n=3, length=3)
    monkeypatch.setattr(TemplateGraph, "__post_init__", counted)
    face_poset_dot(t)
    poset = face_poset(t)
    assert built == []
    face = poset.faces[0]
    assert face.subgraph is face.subgraph and len(built) == 1
    built.clear()
    assert is_face_acyclic(t)
    assert len(built) == len(poset)


# ---------------------------------------------------------------------------
# face subgraphs


def test_face_subgraph_matches_stored_subgraph():
    rng = random.Random(43)
    templates = [load_corpus(name) for name in corpus_names()]
    templates += [box_path_template(rng) for _ in range(6)]
    templates += [hexagon_tree_template(rng) for _ in range(6)]
    templates += [hexagon_cycle_template(length) for length in range(3, 6)]
    templates.append(box_even_cycle_template())
    loops = 0
    for t in templates:
        for face in face_poset(t):
            expected = oracle_face_subgraph(t, face)
            for g in (face.subgraph, face_subgraph(t, face)):
                assert (g.vertices, g.edges) == expected, (t, face)
                assert g.incidence == {e: t.graph.ends(e) for e in g.edges}
            loops += len(face.subgraph.loops())
    assert loops == 1  # the top face of the corpus's `rp2`


def test_face_subgraph_rejects_foreign_faces():
    s4 = load_corpus("s4")
    chain = load_corpus("chain3")
    with pytest.raises(FaceMismatch):
        face_subgraph(chain, face_poset(s4).top)
    with_v3 = next(
        f for f in face_poset(chain) if "v3" in f.member_vertices()
    )
    with pytest.raises(FaceMismatch):
        face_subgraph(s4, with_v3)
    # a face of a one-polytope template on chain3's middle polytope: every
    # piece is a face of that polytope, but the face stops at the folds
    solo = OrigamiTemplate(
        dimension=2,
        graph=TemplateGraph(("v2",), (), {}),
        psi_v={"v2": chain.polytope("v2")},
        psi_e={},
    )
    with pytest.raises(FaceMismatch, match="edge e1"):
        face_subgraph(chain, face_poset(solo).top)


# ---------------------------------------------------------------------------
# acyclicity transfer


def test_face_acyclicity_agrees_with_graph_acyclicity_on_bundled_templates():
    for name in corpus_names():
        t = load_corpus(name)
        assert is_face_acyclic(t) == t.graph.is_acyclic(), name


def test_face_acyclicity_on_random_trees_and_cycles():
    rng = random.Random(5)
    for _ in range(5):
        assert is_face_acyclic(box_path_template(rng))
    for length in (3, 4):
        assert not is_face_acyclic(hexagon_cycle_template(length))
