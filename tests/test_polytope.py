"""Delzant polytopes: construction gates, faces, smoothness, fold agreement."""

import ast
import copy
import gc
import itertools
import math
import pickle
import random
import re
from fractions import Fraction
from operator import mul

import pytest

from helpers import (
    OCTAHEDRON_HALFSPACES,
    SQUARE_PYRAMID_HALFSPACES,
    TRIANGULAR_PRISM_HALFSPACES,
    apply_unimodular,
    box_path_template,
    box_polytope,
    dropped_halfspace_inputs,
    hexagon_polytope,
    hexagon_tree_template,
    oracle_edge_directions,
    oracle_edges_at,
    oracle_det,
    oracle_agree_near_facet,
    oracle_facet_chart,
    oracle_faces,
    oracle_halfspace,
    oracle_solve_square,
    oracle_vertex_incidence,
    random_lattice_polygon,
    random_unimodular,
    rescale_template,
    stopwatch,
    surgery_templates,
    twisted_box_halfspaces,
)
from toric_origami import load_corpus
from toric_origami import polytope as polytope_module
from toric_origami.exceptions import (
    DegenerateInput,
    DimensionError,
    FaceMismatch,
    NotDelzant,
    NotSimple,
    OrigamiError,
    Unsupported,
)
from toric_origami.fileformat import corpus_names, parse, serialize
from toric_origami.gkm import export_dot, moment_graph
from toric_origami.lattice import pivot_columns
from toric_origami.polytope import (
    DelzantPolytope,
    HalfSpace,
    agree_near_facet,
    facet_as_polytope,
)
from toric_origami.orbit_space import face_poset


def triangle():
    return DelzantPolytope(
        2,
        [
            HalfSpace((-1, 0), 0),
            HalfSpace((0, -1), 0),
            HalfSpace((1, 1), 1),
        ],
    )


def unit_square():
    return box_polytope(((0, 1), (0, 1)))


def test_halfspace_normalization_and_validation():
    h = HalfSpace((2, -4), 6)
    assert h.normal == (1, -2) and h.offset == 3
    h = HalfSpace((0, 3), Fraction(1, 2))
    assert h.normal == (0, 1) and h.offset == Fraction(1, 6)
    with pytest.raises(DegenerateInput):
        HalfSpace((0, 0), 1)
    with pytest.raises(DegenerateInput):
        HalfSpace((), 1)
    with pytest.raises(DegenerateInput):
        HalfSpace((Fraction(1, 2), 1), 1)


def test_halfspace_equality_and_hash_follow_the_subset():
    """Equal subsets give equal, equally hashed halfspaces, however the
    offset was written, and copies keep both."""
    a, b = HalfSpace((2, 4), 6), HalfSpace((1, 2), 3)
    assert a == b and hash(a) == hash(b)
    assert repr(a) == repr(b) == "HalfSpace([1, 2] . x <= 3)"
    assert HalfSpace((1, 2), 4) != b and HalfSpace((-1, -2), -3) != b
    assert HalfSpace((2, 1), 3) != b
    for offset, normal, expected in (
        (Fraction(3, 2), (1, 0), HalfSpace((1, 0), Fraction(3, 2))),
        (3, (2, 0), HalfSpace((1, 0), Fraction(3, 2))),
        (-7, (0, -3), HalfSpace((0, -1), Fraction(-7, 3))),
        (4, (1, 1), HalfSpace((1, 1), 4)),
    ):
        for written in (offset, Fraction(offset), str(Fraction(offset)), float(offset)):
            h = HalfSpace(normal, written)
            assert h == expected and hash(h) == hash(expected), written
            assert repr(h) == repr(expected) and type(h.offset) is Fraction
        assert HalfSpace(tuple(Fraction(c) for c in normal), offset) == expected
    # offsets read from "p/q" file text equal the Fraction-built ones
    path = box_path_template(random.Random(5), n=2, length=3)
    t = rescale_template(path, Fraction(2, 3), (Fraction(1, 2), 0))
    text = serialize(t)
    assert '/3"' in text
    back = parse(text)
    for vid in t.graph.vertices:
        for h, g in zip(t.polytope(vid).halfspaces, back.polytope(vid).halfspaces):
            assert h == g and hash(h) == hash(g) and repr(h) == repr(g)
    for h in (a, HalfSpace((1, 0), Fraction(3, 2)), HalfSpace((0, -3, 6), Fraction(-5, 7))):
        for c in (pickle.loads(pickle.dumps(h)), copy.deepcopy(h), copy.copy(h)):
            assert c == h and hash(c) == hash(h) and repr(c) == repr(h)
            assert c.normal == h.normal and c.offset == h.offset
            assert {h: 1}[c] == 1


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf"), None, "x", "1/0", 1j])
def test_values_that_are_no_exact_rational_are_refused_by_name(bad):
    named = re.escape(f"must be an exact rational, got {bad!r}")
    with pytest.raises(DegenerateInput, match="halfspace offset " + named):
        HalfSpace((1, 0), bad)
    with pytest.raises(DegenerateInput, match="halfspace normal entry " + named):
        HalfSpace((1, bad), 0)
    with pytest.raises(DegenerateInput, match="halfspace offset " + named):
        DelzantPolytope(1, [((-1,), 0), ((1,), bad)])


def _rational_offset_samples():
    """Polytopes with rational offsets: the hexagon, the triangle, the square
    pyramid and twisted boxes for n = 1..4, each scaled by a rational factor
    and shifted by a rational vector, so their vertex denominators differ."""
    rng = random.Random(2207)
    bases = [hexagon_polytope(), triangle(), DelzantPolytope(3, SQUARE_PYRAMID_HALFSPACES)]
    for n in (1, 2, 3, 4):
        bases += [DelzantPolytope(n, twisted_box_halfspaces(rng, n)) for _ in range(2)]
    out = []
    for p in bases:
        factor = Fraction(2 * rng.randint(0, 3) + 1, rng.choice((2, 4, 6)))
        shift = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(p.dimension)]
        out.append(
            DelzantPolytope(
                p.dimension,
                [
                    HalfSpace(h.normal, factor * h.offset + sum(map(mul, h.normal, shift)))
                    for h in p.halfspaces
                ],
            )
        )
    return out


def test_polytope_equality_ignores_halfspace_order_and_scaling():
    rng = random.Random(2208)
    for p in _rational_offset_samples():
        halves = list(p.halfspaces)
        for _ in range(3):
            rng.shuffle(halves)
            scaled = [HalfSpace(tuple(2 * c for c in h.normal), 2 * h.offset) for h in halves]
            for q in (DelzantPolytope(p.dimension, halves), DelzantPolytope(p.dimension, scaled)):
                assert q == p and hash(q) == hash(p) and q.vertices == p.vertices
        moved = [HalfSpace(h.normal, h.offset + Fraction(1, 3)) for h in halves]
        assert DelzantPolytope(p.dimension, moved) != p


def test_facet_charts_match_the_fraction_route_oracle():
    for p in _rational_offset_samples():
        n = p.dimension
        assert any(h.offset.denominator > 1 for h in p.halfspaces)
        for i, h in enumerate(p.halfspaces):
            chart, base, basis = facet_as_polytope(p, i)
            expected_base, cuts = oracle_facet_chart(p, i, basis)
            assert base == expected_base, (p, i)
            assert [oracle_halfspace(c.normal, c.offset) for c in chart.halfspaces] == cuts, (p, i)
            # the basis spans the integer vectors orthogonal to the normal:
            # its maximal minors are coprime
            assert len(basis) == n - 1 and all(sum(map(mul, h.normal, row)) == 0 for row in basis)
            if n > 1:
                minors = [
                    oracle_det([[row[c] for c in cols] for row in basis])
                    for cols in itertools.combinations(range(n), n - 1)
                ]
                assert math.gcd(*map(int, minors)) == 1
            # the chart's vertices are the facet's vertices
            images = {
                tuple(x + sum(y * row[c] for y, row in zip(v, basis)) for c, x in enumerate(base))
                for v in chart.vertices
            }
            assert images == {v for v in p.vertices if sum(map(mul, h.normal, v)) == h.offset}


def test_vertices_of_simple_shapes():
    sq = unit_square()
    assert sq.vertices == ((0, 0), (0, 1), (1, 0), (1, 1))
    tri = triangle()
    assert tri.vertices == ((0, 0), (0, 1), (1, 0))
    interval = box_polytope(((-2, 5),))
    assert interval.vertices == ((-2,), (5,))
    point = DelzantPolytope(0, [])
    assert point.vertices == ((),) and point.is_delzant()  # the empty determinant is 1


def test_construction_gates_reject_bad_input():
    with pytest.raises(NotDelzant, match="unbounded"):  # a wedge with one vertex
        DelzantPolytope(2, [HalfSpace((-1, 0), 0), HalfSpace((0, -1), 0), HalfSpace((1, -1), 1)])
    with pytest.raises(NotDelzant, match=r"unbounded in direction \(0, 1\)"):  # a strip: no vertex
        DelzantPolytope(2, [HalfSpace((-1, 0), 0), HalfSpace((1, 0), 1)])
    with pytest.raises(NotDelzant, match="empty"):  # x <= 0 and x >= 1 in the plane
        DelzantPolytope(2, [HalfSpace((1, 0), 0), HalfSpace((-1, 0), -1)])
    with pytest.raises(NotDelzant, match="empty"):  # contradictory bounds
        DelzantPolytope(1, [HalfSpace((1,), 0), HalfSpace((-1,), -1)])
    with pytest.raises(NotDelzant, match="redundant"):  # x <= 5 never tight
        DelzantPolytope(
            2,
            [
                HalfSpace((-1, 0), 0),
                HalfSpace((0, -1), 0),
                HalfSpace((1, 1), 1),
                HalfSpace((1, 0), 5),
            ],
        )
    with pytest.raises(NotDelzant, match="redundant"):  # x + y <= 2 tight at (1, 1) only
        DelzantPolytope(2, list(unit_square().halfspaces) + [HalfSpace((1, 1), 2)])
    with pytest.raises(NotDelzant, match="duplicate"):
        DelzantPolytope(
            1, [HalfSpace((-1,), 0), HalfSpace((1,), 1), HalfSpace((2,), 2)]
        )
    with pytest.raises(NotDelzant, match="not full-dimensional"):  # squeezed to a segment
        DelzantPolytope(
            2,
            [
                HalfSpace((-1, 0), 0),
                HalfSpace((1, 0), 0),
                HalfSpace((0, -1), 0),
                HalfSpace((0, 1), 1),
            ],
        )
    with pytest.raises(NotDelzant, match="not full-dimensional"):  # a square in z = 0
        DelzantPolytope(
            3,
            list(box_polytope(((0, 1), (0, 1), (0, 1))).halfspaces[:5])
            + [HalfSpace((0, 0, 1), 0)],
        )
    with pytest.raises(DimensionError):
        DelzantPolytope(2, [HalfSpace((1,), 1)])


def test_contains_and_active_at():
    sq = unit_square()
    assert sq.contains((Fraction(1, 2), Fraction(1, 2)))
    assert not sq.contains((2, 0))
    assert tuple(sq.active_at((0, 0))) == (0, 2)
    assert tuple(sq.active_at((Fraction(1, 2), 0))) == (2,)


def test_faces_closure_of_square():
    sq = unit_square()
    faces = sq.faces()
    by_dim = {}
    for f in faces:
        by_dim.setdefault(f.dim, []).append(f)
    assert len(by_dim[2]) == 1
    assert len(by_dim[1]) == 4
    assert len(by_dim[0]) == 4
    top = by_dim[2][0]
    assert set(top.vertices) == set(sq.vertices)


def test_face_lookup_and_mismatch():
    sq = unit_square()
    face = sq.face_with_vertices([(0, 0), (1, 0)])
    assert face.dim == 1
    with pytest.raises(FaceMismatch):
        sq.face_with_vertices([(0, 0), (1, 1)])  # a diagonal is not a face
    tri = triangle()
    with pytest.raises(FaceMismatch):
        tri.faces_meeting(face)  # face of a different polytope


def test_edge_directions_at_a_list_point():
    assert unit_square().vertex_edge_directions([0, 0]) == ((1, 0), (0, 1))


def test_edges_at_a_list_point():
    sq = unit_square()
    assert sq.one_faces_at([0, 0]) == sq.one_faces_at((0, 0))
    assert len(sq.one_faces_at([0, 0])) == 2


def test_face_lookup_by_list_points():
    sq = unit_square()
    assert sq.face_with_vertices([[0, 0]]) is sq.face_with_vertices([(0, 0)])
    assert sq.face_with_vertices([[0, 0]]).dim == 0


def test_face_lookup_reads_an_iterator_once():
    sq = unit_square()
    assert sq.face_with_vertices(iter([(0, 0), (1, 0)])).dim == 1
    with pytest.raises(FaceMismatch, match=re.escape("vertex set [(0, 0), (1, 1)]")):
        sq.face_with_vertices(iter([(0, 0), (1, 1)]))


def test_vertex_edge_directions_and_smoothness():
    sq = unit_square()
    dirs = set(sq.vertex_edge_directions((0, 0)))
    assert dirs == {(1, 0), (0, 1)}
    assert sq.is_smooth() and sq.is_simple() and sq.is_delzant()
    tri = triangle()
    assert tri.is_smooth()
    # (0,2),(1,0) hypotenuse direction (1,-2): det 2 at the top vertex
    tall = DelzantPolytope(
        2,
        [
            HalfSpace((-1, 0), 0),
            HalfSpace((0, -1), 0),
            HalfSpace((2, 1), 2),
        ],
    )
    assert not tall.is_smooth()
    assert not tall.is_delzant()


def test_non_simple_polytope_detected():
    # square pyramid: apex lies on four facets
    pyramid = DelzantPolytope(
        3,
        [
            HalfSpace((0, 0, -1), 0),
            HalfSpace((-1, 0, 1), 0),
            HalfSpace((1, 0, 1), 1),
            HalfSpace((0, -1, 1), 0),
            HalfSpace((0, 1, 1), 1),
        ],
    )
    assert not pyramid.is_simple()
    with pytest.raises(NotSimple):
        pyramid.vertex_edge_directions(next(iter(pyramid.vertices)))
    with pytest.raises(NotSimple):
        pyramid.is_smooth()


def test_edges_at_a_vertex_match_the_tight_normal_oracle():
    samples = [hexagon_polytope(), triangle()]
    for name in corpus_names():
        samples.extend(load_corpus(name).distinct_polytopes())
    for seed in range(8):
        rng = random.Random(40 + seed)
        n = 2 + seed % 3
        for box in box_path_template(rng, n=n, length=2, twist=False).distinct_polytopes():
            shift = tuple(rng.randint(-2, 2) for _ in range(n))
            samples.append(apply_unimodular(box, random_unimodular(rng, n), shift))
        samples.extend(hexagon_tree_template(rng, size=4).distinct_polytopes())
        samples.append(random_lattice_polygon(rng)[1])
    for poly in samples:
        assert poly.is_simple()
        for v in poly.vertices:
            assert [f.vertices for f in poly.one_faces_at(v)] == oracle_edges_at(poly, v)
            assert poly.vertex_edge_directions(v) == oracle_edge_directions(poly, v)


def test_edges_at_a_non_simple_vertex_and_at_non_vertices(monkeypatch):
    pyramid = DelzantPolytope(
        3,
        [
            HalfSpace((0, 0, -1), 0),
            HalfSpace((-1, 0, 1), 0),
            HalfSpace((1, 0, 1), 1),
            HalfSpace((0, -1, 1), 0),
            HalfSpace((0, 1, 1), 1),
        ],
    )
    apex = (Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))
    assert len(pyramid.one_faces_at(apex)) == 4
    for v in pyramid.vertices:
        assert [f.vertices for f in pyramid.one_faces_at(v)] == oracle_edges_at(pyramid, v)
    hexagon = hexagon_polytope()
    assert hexagon.one_faces_at((1, 1)) == ()  # an interior point
    assert hexagon.one_faces_at((0, 3)) == ()  # two facet lines meet outside
    with pytest.raises(FaceMismatch):
        hexagon.vertex_edge_directions((0, 3))
    # the edge map is built once: later queries do not read the faces again
    first = hexagon.one_faces_at((0, 1))
    monkeypatch.setattr(hexagon, "faces", lambda: pytest.fail("faces() read again"))
    assert hexagon.one_faces_at((0, 1)) == first
    assert hexagon.vertex_edge_directions((0, 1)) == ((1, -1), (0, 1))


def test_smoothness_matches_the_edge_direction_definition():
    """is_smooth reads the tight normals; the definition reads the edge directions."""
    samples = [hexagon_polytope(), triangle()]
    for name in corpus_names():
        samples.extend(load_corpus(name).psi_v.values())
    for seed in range(6):
        rng = random.Random(seed)
        samples.extend(box_path_template(rng).psi_v.values())
        samples.extend(hexagon_tree_template(rng).psi_v.values())
        samples.append(random_lattice_polygon(rng)[1])
    for n in (3, 4):
        for seed in range(3):
            samples.append(DelzantPolytope(n, twisted_box_halfspaces(random.Random(100 * n + seed), n)))
    simple_not_smooth = [
        DelzantPolytope(2, [HalfSpace((-1, 0), 0), HalfSpace((0, -1), 0), HalfSpace((1, 2), 2)]),
        DelzantPolytope(
            3,
            [
                HalfSpace((-1, 0, 0), 0),
                HalfSpace((0, -1, 0), 0),
                HalfSpace((0, 0, -1), 0),
                HalfSpace((1, 1, 2), 2),
            ],
        ),
        # a 4-simplex with det 2 at (0, 0, 0, 1)
        DelzantPolytope(
            4,
            [HalfSpace(tuple(-int(i == j) for j in range(4)), 0) for i in range(4)]
            + [HalfSpace((1, 1, 1, 2), 2)],
        ),
    ]
    samples.extend(simple_not_smooth)
    for poly in samples:
        by_definition = all(
            abs(oracle_det(poly.vertex_edge_directions(v))) == 1 for v in poly.vertices
        )
        assert poly.is_smooth() == by_definition
    assert not any(p.is_smooth() for p in simple_not_smooth)
    assert any(p.is_smooth() for p in samples)


def test_smoothness_invariant_under_unimodular_maps():
    rng = random.Random(314)
    samples = [unit_square(), triangle(), hexagon_polytope()]
    for _ in range(10):
        _, poly = random_lattice_polygon(rng)
        samples.append(poly)
    for poly in samples:
        smooth = poly.is_smooth()
        for _ in range(4):
            mat = random_unimodular(rng, 2)
            shift = (rng.randint(-3, 3), rng.randint(-3, 3))
            image = apply_unimodular(poly, mat, shift)
            assert image.is_smooth() == smooth
            assert len(image.vertices) == len(poly.vertices)


def test_agree_near_facet_positive_and_negative():
    # boxes sharing their top facet with equal cross-section: superimpose
    low = box_polytope(((0, 1), (0, 2)))
    deep = box_polytope(((0, 1), (-1, 2)))
    assert agree_near_facet(low, 3, deep, 3)
    # equal fold facets but different neighbor geometry: square vs triangle
    sq = unit_square()
    tri = triangle()
    # the y = 0 side is facet 2 of the box and facet 1 of the triangle
    assert sq.facet_vertex_sets[2] == tri.facet_vertex_sets[1]
    assert not agree_near_facet(sq, 2, tri, 1)
    # facets that are not even equal as sets
    wide = box_polytope(((0, 2), (0, 1)))
    assert not agree_near_facet(sq, 2, wide, 2)
    # fold facets with different vertex counts: a cube's bottom square and a simplex's triangle
    cube = box_polytope(((0, 1),) * 3)
    corner = [HalfSpace(row, 0) for row in ((-1, 0, 0), (0, -1, 0), (0, 0, -1))]
    simplex = DelzantPolytope(3, corner + [HalfSpace((1, 1, 1), 1)])
    assert len(cube.facet_vertex_sets[4]) == 4 and len(simplex.facet_vertex_sets[2]) == 3
    assert not agree_near_facet(cube, 4, simplex, 2) and not agree_near_facet(simplex, 2, cube, 4)
    with pytest.raises(DimensionError):
        agree_near_facet(sq, 1, box_polytope(((0, 1),)), 0)


def _moved_off_fold(p, fold, q):
    """p with each facet that misses facet `fold` moved outward by 1/q: the
    polytope near the fold is kept and its vertex denominators change."""
    halves = [
        h if fs & p.facet_vertex_sets[fold] else HalfSpace(h.normal, h.offset + Fraction(1, q))
        for h, fs in zip(p.halfspaces, p.facet_vertex_sets)
    ]
    return DelzantPolytope(p.dimension, halves)


def _fold_pairs():
    """(label, p1, f1, p2, f2) for every edge of seeded box paths (n = 1..4)
    and hexagon trees, as given, with rational offsets, with the facets off
    the fold moved by different rational amounts at the two ends, and with
    the second end's halfspaces shuffled."""
    rng = random.Random(2209)
    templates = [box_path_template(rng, n=1 + k % 4) for k in range(12)]
    templates += [hexagon_tree_template(rng, size=rng.randint(2, 8)) for _ in range(4)]
    for t in templates[::3]:
        shift = tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 5)) for _ in range(t.dimension))
        templates.append(rescale_template(t, Fraction(rng.randint(1, 9), rng.randint(2, 7)), shift))
    out = []
    for k, t in enumerate(templates):
        for eid in t.graph.edges:
            (u, v), (fu, fv) = t.graph.ends(eid), t.edge_facets(eid)
            p1, p2 = t.polytope(u), t.polytope(v)
            out.append((f"t{k}:{eid}", p1, fu, p2, fv))
            q1, q2 = rng.choice(((2, 3), (3, 5), (4, 7)))
            moved1, moved2 = _moved_off_fold(p1, fu, q1), _moved_off_fold(p2, fv, q2)
            out.append((f"t{k}:{eid}:moved", moved1, fu, moved2, fv))
            order = list(range(len(p2.halfspaces)))
            rng.shuffle(order)
            shuffled = DelzantPolytope(p2.dimension, [p2.halfspaces[i] for i in order])
            out.append((f"t{k}:{eid}:shuffled", moved1, fu, shuffled, order.index(fv)))
    return out


def test_agree_near_facet_matches_the_point_set_oracle():
    """Every fold of the seeded templates agrees, also across polytopes whose
    keys have different common denominators; on every facet pair of some of
    those polytope pairs, and on a fold with other facets near it, the
    answer is the oracle's."""
    pairs = _fold_pairs()
    steps_differ = 0
    for label, p1, f1, p2, f2 in pairs:
        assert oracle_agree_near_facet(p1, f1, p2, f2), label
        assert agree_near_facet(p1, f1, p2, f2), label
        assert agree_near_facet(p2, f2, p1, f1), label
        steps_differ += p1._step != p2._step
    assert steps_differ > len(pairs) // 3
    answers = set()
    for label, p1, _, p2, _ in pairs[::5]:
        for f1 in range(len(p1.halfspaces)):
            for f2 in range(len(p2.halfspaces)):
                expected = oracle_agree_near_facet(p1, f1, p2, f2)
                assert agree_near_facet(p1, f1, p2, f2) == expected, (label, f1, f2)
                answers.add(expected)
    assert answers == {True, False}
    # one fold, other facets near it: a flat box against a triangle, so the
    # fold's vertices agree only across the two steps and the halfspaces differ
    rng = random.Random(2210)
    for _ in range(6):
        mat = random_unimodular(rng, 2)
        shift = tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(2))
        flat = apply_unimodular(box_polytope(((0, 1), (0, Fraction(1, 3)))), mat, shift)
        tri = apply_unimodular(triangle(), mat, shift)
        assert set(flat.facet_vertex_sets[2]) == set(tri.facet_vertex_sets[1])
        assert flat._step != tri._step
        assert not oracle_agree_near_facet(flat, 2, tri, 1)
        assert not agree_near_facet(flat, 2, tri, 1) and not agree_near_facet(tri, 1, flat, 2)


def test_facet_charts_of_delzant_polytopes_match_a_built_polytope():
    """A Delzant polytope's facet chart is read off its own incidence; on
    every facet of the surgery templates' polytopes it is the polytope the
    vertex walk builds from the chart's halfspaces, with keys scaled by one
    positive factor."""
    polys = {p for _, t in surgery_templates() for p in t.distinct_polytopes() if p.dimension}
    facets = 0
    for p in polys:
        for i in range(len(p.halfspaces)):
            chart = facet_as_polytope(p, i)[0]
            built = DelzantPolytope(chart.dimension, chart.halfspaces)
            assert chart.halfspaces == built.halfspaces and chart.vertices == built.vertices, (p, i)
            assert chart._tights == built._tights and chart._facet_masks == built._facet_masks
            assert chart._edge_pairs == built._edge_pairs and chart.is_delzant() is built.is_delzant() is True
            assert chart.faces() == built.faces()
            assert [f.numbers for f in chart.faces()] == [f.numbers for f in built.faces()]
            assert all(
                x * built._step == y * chart._step
                for a, b in zip(chart._keys, built._keys)
                for x, y in zip(a, b)
            )
            facets += 1
    assert facets > 300


@pytest.mark.parametrize("bad", [True, False, -1, -4, 4, 10**20, 1.0, "1", None])
def test_facet_indices_that_name_no_halfspace_are_refused(bad):
    """A bool, a negative index (which would wrap to a facet from the end),
    an index past the end or a non-int names no facet."""
    sq = unit_square()
    text = re.escape(f"facet index {bad!r} names no halfspace of a polytope with 4 halfspaces")
    with pytest.raises(FaceMismatch, match=text):
        agree_near_facet(sq, bad, sq, 1)
    with pytest.raises(FaceMismatch, match=text):
        agree_near_facet(sq, 3, sq, bad)
    with pytest.raises(FaceMismatch, match=text):
        facet_as_polytope(sq, bad)


def test_facet_as_polytope_drops_a_dimension():
    sq = unit_square()
    facet, base, basis = facet_as_polytope(sq, 3)  # top edge y = 1
    assert facet.dimension == 1
    assert len(facet.vertices) == 2
    assert base in {(0, 1), (1, 1)}
    assert len(basis) == 1
    # the hexagon's slanted facet x + y = 3 maps to a unit interval
    hexa = hexagon_polytope()
    facet, base, basis = facet_as_polytope(hexa, 5)
    assert facet.dimension == 1
    lengths = [abs(v[0] - w[0]) for v in facet.vertices for w in facet.vertices]
    assert max(lengths) == 1  # (2,1) and (1,2) are one primitive step apart
    cube = box_polytope(((0, 2), (0, 3), (0, 5)))
    facet, base, basis = facet_as_polytope(cube, 0)  # x = 0 side
    assert facet.dimension == 2
    assert len(facet.vertices) == 4


def test_polytope_equality_ignores_halfspace_order():
    a = unit_square()
    b = DelzantPolytope(2, list(reversed(list(a.halfspaces))))
    assert a == b
    assert hash(a) == hash(b)
    assert a != triangle()


def _face_lattice_samples():
    """Corpus polytopes, seeded boxes for n = 2..5 (twisted too), the hexagon,
    random lattice polygons, the square pyramid and simple-but-not-smooth shapes."""
    samples = [hexagon_polytope(), triangle(), DelzantPolytope(0, [])]
    for name in corpus_names():
        samples.extend(load_corpus(name).distinct_polytopes())
    for seed in range(8):
        rng = random.Random(70 + seed)
        n = 2 + seed % 4
        boxes = box_path_template(rng, n=n, length=2).distinct_polytopes()
        samples.extend(boxes)
        shift = tuple(rng.randint(-2, 2) for _ in range(n))
        samples.append(apply_unimodular(boxes[0], random_unimodular(rng, n), shift))
        samples.append(random_lattice_polygon(rng)[1])
    samples.append(apply_unimodular(hexagon_polytope(), [[1, 1], [0, 1]], (2, -1)))
    samples.append(DelzantPolytope(3, SQUARE_PYRAMID_HALFSPACES))
    samples.append(
        DelzantPolytope(2, [HalfSpace((-1, 0), 0), HalfSpace((0, -1), 0), HalfSpace((1, 2), 2)])
    )
    samples.append(
        DelzantPolytope(
            3,
            [
                HalfSpace((-1, 0, 0), 0),
                HalfSpace((0, -1, 0), 0),
                HalfSpace((0, 0, -1), 0),
                HalfSpace((1, 1, 2), 2),
            ],
        )
    )
    return samples


def test_faces_match_the_face_lattice_oracle():
    for poly in _face_lattice_samples():
        expected = oracle_faces(poly)
        faces = poly.faces()
        assert [(f.dim, f.active, f.vertices) for f in faces] == expected
        assert len({f.active for f in faces}) == len(faces)  # what a Face hashes
        for f in faces:
            assert f.vertex_set == frozenset(f.vertices) and f.owner is poly
            assert poly.face_with_vertices(reversed(f.vertices)) is f


def test_the_edge_record_is_the_one_skeleton_of_faces(monkeypatch):
    """`one_faces` equals the 1-faces of `faces()`, vertex numbers and sets
    included; on a simple polytope it is read off the edge record of the
    boundedness check, with no face lattice built."""
    samples = _face_lattice_samples()
    rng = random.Random(46)
    for _ in range(6):
        samples.extend(box_path_template(rng, n=rng.randint(1, 4)).distinct_polytopes())
        samples.extend(hexagon_tree_template(rng).distinct_polytopes())
    recorded = 0
    for poly in samples:
        fresh = DelzantPolytope(poly.dimension, poly.halfspaces)
        with monkeypatch.context() as m:
            if fresh.is_simple() and fresh.dimension:
                m.setattr(fresh, "faces", lambda: pytest.fail("faces() built for the edges"))
                recorded += 1
            edges = fresh.one_faces()
        expected = [f for f in poly.faces() if f.dim == 1]
        assert [(f.dim, f.active, f.vertices, f.numbers, f.vertex_set) for f in edges] == [
            (f.dim, f.active, f.vertices, f.numbers, f.vertex_set) for f in expected
        ], poly
        assert all(f.owner is fresh for f in edges)
        # one object per 1-face, whichever of the two is built first
        assert all(a is b for a, b in zip(edges, (f for f in fresh.faces() if f.dim == 1)))
        assert all(a is b for a, b in zip(poly.one_faces(), expected))
    assert recorded == len(samples) - 2  # the point and the square pyramid
    pyramid = DelzantPolytope(3, SQUARE_PYRAMID_HALFSPACES)
    for v in pyramid.vertices:
        assert [f.vertices for f in pyramid.one_faces_at(v)] == oracle_edges_at(pyramid, v)


def test_a_face_holds_its_polytope_weakly():
    gc.disable()  # so that only reference counting can free the polytope
    try:
        poly = box_polytope(((0, 1), (0, 2)))
        face = poly.one_faces()[0]
        assert face.owner is poly and poly.faces()[0].owner is poly
        del poly
        assert face.owner is None
        assert face.vertices == ((0, 0), (0, 2))
    finally:
        gc.enable()


def test_copies_are_rebuilt_from_the_description():
    """A pickled or deep-copied polytope is rebuilt from its halfspaces, so
    its faces hold the copy; cached faces do not stop a template's copy."""
    poly = box_polytope(((0, 1), (0, 2)))
    poly.faces()
    for copied in (pickle.loads(pickle.dumps(poly)), copy.deepcopy(poly)):
        assert copied == poly and copied is not poly
        assert copied.faces() == poly.faces()
        assert [hash(f) for f in copied.faces()] == [hash(f) for f in poly.faces()]
        assert set(copied.faces()) == set(poly.faces())
        assert all(f.owner is copied for f in copied.faces())
        edge = copied.one_faces()[0]
        assert copied.faces_meeting(edge) == poly.faces_meeting(poly.one_faces()[0])
    for name in corpus_names():
        t = load_corpus(name)
        for build in (face_poset, moment_graph):
            try:
                build(t)
            except OrigamiError:
                pass
        for copied in (pickle.loads(pickle.dumps(t)), copy.deepcopy(t)):
            assert serialize(copied) == serialize(t), name
            try:
                expected = export_dot(moment_graph(t))
            except OrigamiError as e:
                with pytest.raises(type(e), match=re.escape(str(e))):
                    moment_graph(copied)
            else:
                assert export_dot(moment_graph(copied)) == expected, name


# recorded from the code before boundedness was read off the vertex-facet incidence
REFUSALS = {
    "box:n1:s0:drop0": "polytope is unbounded in direction (1,)",
    "box:n1:s0:drop1": "polytope is unbounded in direction (-1,)",
    "box:n1:s1:drop0": "polytope is unbounded in direction (-1,)",
    "box:n1:s1:drop1": "polytope is unbounded in direction (1,)",
    "box:n2:s0:drop0": "polytope is unbounded in direction (0, 1)",
    "box:n2:s0:drop1": "polytope is unbounded in direction (0, -1)",
    "box:n2:s0:drop2": "polytope is unbounded in direction (-1, 0)",
    "box:n2:s0:drop3": "polytope is unbounded in direction (1, 0)",
    "box:n2:s1:drop0": "polytope is unbounded in direction (-1, -1)",
    "box:n2:s1:drop1": "polytope is unbounded in direction (1, 1)",
    "box:n2:s1:drop2": "polytope is unbounded in direction (-1, 0)",
    "box:n2:s1:drop3": "polytope is unbounded in direction (1, 0)",
    "box:n3:s0:drop0": "polytope is unbounded in direction (-1, 0, 0)",
    "box:n3:s0:drop1": "polytope is unbounded in direction (1, 0, 0)",
    "box:n3:s0:drop2": "polytope is unbounded in direction (-4, -1, 2)",
    "box:n3:s0:drop3": "polytope is unbounded in direction (4, 1, -2)",
    "box:n3:s0:drop4": "polytope is unbounded in direction (2, 0, -1)",
    "box:n3:s0:drop5": "polytope is unbounded in direction (-2, 0, 1)",
    "box:n3:s1:drop0": "polytope is unbounded in direction (-1, 0, -2)",
    "box:n3:s1:drop1": "polytope is unbounded in direction (1, 0, 2)",
    "box:n3:s1:drop2": "polytope is unbounded in direction (0, 0, -1)",
    "box:n3:s1:drop3": "polytope is unbounded in direction (0, 0, 1)",
    "box:n3:s1:drop4": "polytope is unbounded in direction (0, -1, 0)",
    "box:n3:s1:drop5": "polytope is unbounded in direction (0, 1, 0)",
    "box:n4:s0:drop0": "polytope is unbounded in direction (-1, 1, 0, -2)",
    "box:n4:s0:drop1": "polytope is unbounded in direction (1, -1, 0, 2)",
    "box:n4:s0:drop2": "polytope is unbounded in direction (-3, 2, 0, -6)",
    "box:n4:s0:drop3": "polytope is unbounded in direction (3, -2, 0, 6)",
    "box:n4:s0:drop4": "polytope is unbounded in direction (0, 0, -1, 0)",
    "box:n4:s0:drop5": "polytope is unbounded in direction (0, 0, 1, 0)",
    "box:n4:s0:drop6": "polytope is unbounded in direction (0, 0, 0, -1)",
    "box:n4:s0:drop7": "polytope is unbounded in direction (0, 0, 0, 1)",
    "box:n4:s1:drop0": "polytope is unbounded in direction (0, 0, -1, 0)",
    "box:n4:s1:drop1": "polytope is unbounded in direction (0, 0, 1, 0)",
    "box:n4:s1:drop2": "polytope is unbounded in direction (0, -1, 0, 0)",
    "box:n4:s1:drop3": "polytope is unbounded in direction (0, 1, 0, 0)",
    "box:n4:s1:drop4": "polytope is unbounded in direction (1, 0, 0, 0)",
    "box:n4:s1:drop5": "polytope is unbounded in direction (-1, 0, 0, 0)",
    "box:n4:s1:drop6": "polytope is unbounded in direction (0, 0, 0, -1)",
    "box:n4:s1:drop7": "polytope is unbounded in direction (0, 0, 0, 1)",
    "pyramid:drop0": "polytope is unbounded in direction (-1, -1, -1)",
    "pyramid:drop1": "polytope is unbounded in direction (-1, 0, 0)",
    "pyramid:drop2": "polytope is unbounded in direction (1, 0, 0)",
    "pyramid:drop3": "polytope is unbounded in direction (0, -1, 0)",
    "pyramid:drop4": "polytope is unbounded in direction (0, 1, 0)",
}


def test_dropped_halfspaces_are_refused_with_a_named_ray():
    inputs = dropped_halfspace_inputs(range(2))
    assert sorted(label for label, _, _ in inputs) == sorted(REFUSALS)
    for label, n, halves in inputs:
        with pytest.raises(NotDelzant) as info:
            DelzantPolytope(n, halves)
        text = str(info.value)
        assert text == REFUSALS[label], label
        ray = ast.literal_eval(text.removeprefix("polytope is unbounded in direction "))
        assert any(ray), label
        for h in halves:
            assert sum(a * d for a, d in zip(h.normal, ray)) <= 0, (label, h)


def _counting(monkeypatch, name):
    calls = []
    original = getattr(polytope_module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(polytope_module, name, counted)
    return calls


def test_simple_polytopes_make_no_recession_or_rank_call(monkeypatch):
    """Boundedness and face dimensions of a simple polytope come from its
    vertex-facet incidence; a degenerate vertex still takes the kernel route."""
    rays = _counting(monkeypatch, "recession_direction")
    ranks = _counting(monkeypatch, "rank")
    polys = [box_polytope(((0, 1), (0, 2), (-1, 1), (0, 3))), hexagon_polytope()]
    for seed in range(4):
        for n in (2, 3, 4):  # the box shapes of the ingest benchmark, twisted or not
            polys.extend(box_path_template(random.Random(seed), n=n, length=3).distinct_polytopes())
    solved = _counting(monkeypatch, "solve_square")  # a Delzant polytope's facets need no walk
    for poly in polys:
        poly.faces()
        facet_as_polytope(poly, 0)[0].faces()
    assert (rays, ranks, solved) == ([], [], [])
    DelzantPolytope(3, SQUARE_PYRAMID_HALFSPACES).faces()  # the apex lies on four facets
    assert len(rays) == 1 and ranks == []
    DelzantPolytope(3, OCTAHEDRON_HALFSPACES).faces()  # every vertex lies on four facets
    assert len(rays) == 2 and ranks


STRIP_HALFSPACES = (HalfSpace((-1, 0), 0), HalfSpace((1, 0), 1))  # 0 <= x <= 1 in the plane
SLAB_HALFSPACES = (HalfSpace((0, 0, -1), 0), HalfSpace((0, 0, 1), 1), HalfSpace((1, 1, 0), 2))

# singular n-subsets with no parallel pair: the prism's three side normals,
# and the pyramid's base normal with two opposite apex normals; the pyramid's
# apex and every octahedron vertex lie on four facets
WALK_POLYTOPES = {
    "prism": (3, TRIANGULAR_PRISM_HALFSPACES),
    "pyramid": (3, SQUARE_PYRAMID_HALFSPACES),
    "octahedron": (3, OCTAHEDRON_HALFSPACES),
}

# recorded from the code that solved every n-subset
WALK_REFUSALS = {
    "strip": (2, STRIP_HALFSPACES, "polytope is unbounded in direction (0, 1)"),
    "slab": (3, SLAB_HALFSPACES, "polytope is unbounded in direction (-1, 1, 0)"),
}


def _walk_inputs():
    """(normals, offsets, n): the samples above, the rank-deficient strip and
    slab and their images on pivot columns, rows with a zero row, rational
    offsets and entries past a word."""
    out = []
    for n, halves in [*WALK_POLYTOPES.values(), *((n, h) for n, h, _ in WALK_REFUSALS.values())]:
        normals = [h.normal for h in halves]
        offsets = [h.offset for h in halves]
        out.append((normals, offsets, n))
        pivots = pivot_columns(normals, n)
        out.append(([[a[j] for j in pivots] for a in normals], offsets, len(pivots)))
    out.append(([(0, 0), (-1, 0), (0, -1), (1, 1), (0, 0)], [1, 0, 0, 2, 0], 2))
    out.append(([(-1, 0), (0, -1), (1, 2)], [Fraction(1, 2), Fraction(-1, 3), Fraction(5, 6)], 2))
    # vertices (-7/3, -3), (-8/9, 4/3) and (-1/6, 1/4): their numerators over
    # their own denominators 3, 9 and 12 sort in another order
    out.append(([(-3, 1), (3, 2), (3, -2)], [4, 0, -1], 2))
    big = 2**61 - 1  # entries at and past a word-sized modulus
    out.append(([(-1, 0), (0, -1), (big, 1)], [0, 0, big], 2))
    return out


def test_the_independent_subset_walk_finds_what_the_full_scan_finds():
    for normals, offsets, n in _walk_inputs():
        expected = oracle_vertex_incidence(normals, [Fraction(b) for b in offsets], n)
        keys, tights, step, _ = polytope_module._vertex_incidence(
            normals, [Fraction(b) for b in offsets], n
        )
        # each integer key is its vertex times the one positive step
        assert len(keys) == len(tights) and step > 0
        found = {tuple(Fraction(x, step) for x in key): t for key, t in zip(keys, tights)}
        assert found == expected and list(found) == list(expected), (normals, n)
        assert len(found) == len(keys), (normals, n)
    for name, (n, halves) in WALK_POLYTOPES.items():
        poly = DelzantPolytope(n, halves)
        expected = oracle_vertex_incidence([h.normal for h in halves], [h.offset for h in halves], n)
        assert poly.vertices == tuple(expected), name
        assert [(f.dim, f.active, f.vertices) for f in poly.faces()] == oracle_faces(poly), name
        tight = {f.vertices[0]: tuple(sorted(f.active)) for f in poly.faces() if f.dim == 0}
        assert tight == expected, name
    for name, (n, halves, text) in WALK_REFUSALS.items():
        with pytest.raises(NotDelzant) as info:
            DelzantPolytope(n, halves)
        assert str(info.value) == text, name
        assert polytope_module._is_nonempty_without_vertex(
            [h.normal for h in halves], [h.offset for h in halves], n
        ), name


def test_only_independent_subsets_are_solved(monkeypatch):
    """`solve_square` back-substitutes exactly the n-subsets with nonsingular
    normals, in lexicographic order, so a 4-cube makes one call per vertex,
    where all C(8, 4) = 70 subsets were once solved.  Each leaf's point is the
    subset's solution and its last pivot is ±det of the subset's normals."""
    solve = polytope_module.solve_square
    solved = _counting(monkeypatch, "solve_square")
    cube = box_polytope(((0, 1), (0, 2), (-1, 1), (0, 3)))
    assert len(solved) == 16 == len(cube.vertices)
    inputs = _walk_inputs()
    hexagon = hexagon_polytope().halfspaces
    inputs.append(([h.normal for h in hexagon], [h.offset for h in hexagon], 2))
    for n in (2, 3, 4):
        for seed in range(3):
            halves = twisted_box_halfspaces(random.Random(100 * n + seed), n)
            inputs.append(([h.normal for h in halves], [h.offset for h in halves], n))
    for normals, offsets, n in inputs:
        offsets = [Fraction(b) for b in offsets]
        del solved[:]
        polytope_module._vertex_incidence(normals, offsets, n)
        nonsingular = [
            s
            for s in itertools.combinations(range(len(normals)), n)
            if oracle_det([normals[i] for i in s]) != 0
        ]
        assert [tuple(i for i, _, _ in echelon) for echelon, _ in solved] == nonsingular
        scale = math.lcm(*(b.denominator for b in offsets))
        for echelon, _ in solved:
            rows = [normals[i] for i, _, _ in echelon]
            X, d = solve(echelon, n)
            point = tuple(Fraction(x, d * scale) for x in X)
            assert point == oracle_solve_square(rows, [offsets[i] for i, _, _ in echelon])
            assert abs(d) == abs(oracle_det(rows)), (normals, n, rows)


def test_an_oversize_vertex_walk_is_refused_at_once(monkeypatch):
    """Past VERTEX_WALK_LIMIT independent prefixes the walk stops with a typed
    refusal, before any system is solved; a 10-cube still builds."""
    rng = random.Random(8)
    halves = [HalfSpace(tuple(rng.randint(-9, 9) or 1 for _ in range(8)), 1) for _ in range(40)]
    solved = _counting(monkeypatch, "solve_square")
    with stopwatch(5), pytest.raises(Unsupported) as info:
        DelzantPolytope(8, halves)
    assert str(info.value) == (
        "vertex enumeration in dimension 8 over 40 halfspaces visits more than "
        f"{polytope_module.VERTEX_WALK_LIMIT} independent facet subsets"
    )
    assert solved == []
    cube = box_polytope(((0, 1),) * 10)
    assert len(cube.vertices) == len(solved) == 1024 and cube.is_delzant()
