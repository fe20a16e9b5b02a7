"""Acceptance suite: one test per shipped guarantee, with runtime bounds.

Each test prints one `[acceptance] criterion N: PASS` line on success, so
a verbose run shows the per-criterion verdicts both as pytest results and
in captured output.
"""

import random

import pytest

from helpers import (
    apply_unimodular,
    box_even_cycle_template,
    box_path_template,
    box_polytope,
    convex_hull,
    hexagon_cycle_template,
    hexagon_tree_template,
    oracle_gkm_dimension,
    oracle_polygon_smooth,
    polygon_from_hull,
    random_lattice_polygon,
    random_moment_graph,
    random_unimodular,
    stopwatch,
)
from toric_origami import load_corpus
from toric_origami.cli import run
from toric_origami.cohomology import (
    ClassTuple,
    betti_numbers,
    check_membership,
    class_from_polynomials,
)
from toric_origami.fileformat import corpus_names, corpus_path
from toric_origami.gkm import fixed_points, moment_graph
from toric_origami.orbit_space import is_face_acyclic
from toric_origami.polytope import DelzantPolytope, HalfSpace
from toric_origami.template import radial_blow_up, isomorphic


def report(number, label):
    print(f"[acceptance] criterion {number} ({label}): PASS")


# ---------------------------------------------------------------------------


def test_criterion_1_sphere_family():
    """Two-polytope sphere templates in ranks 1, 2, 3."""
    for n, name in ((1, "s2"), (2, "s4"), (3, "s6")):
        with stopwatch(1.0):
            t = load_corpus(name)
            g = moment_graph(t)
            assert len(g.fixed_points) == 2
            assert {fp.key for fp in g.fixed_points} == {"v1:0", "v2:0"}
            # n parallel folded edges carrying the n coordinate weights
            assert len(g.edges) == n
            units = sorted(
                tuple(1 if i == j else 0 for i in range(n)) for j in range(n)
            )
            assert sorted(e.weight for e in g.edges) == units
            for e in g.edges:
                assert e.folded
                assert {fp.key for fp in e.endpoints} == {"v1:0", "v2:0"}
            b = betti_numbers(g)
            assert tuple(b) == (1,) + (0,) * (n - 1) + (1,)
            # the two module basis tuples are members ...
            ones = ClassTuple(0, ((1,), (1,)))
            assert check_membership(g, ones)
            top = class_from_polynomials(g, n, [{(1,) * n: 1}, {}])
            assert check_membership(g, top)
            # ... and near misses are not
            assert not check_membership(g, ClassTuple(0, ((1,), (0,))))
            if n >= 2:
                power = (n,) + (0,) * (n - 1)
                skewed = class_from_polynomials(g, n, [{power: 1}, {}])
                assert not check_membership(g, skewed)
    report(1, "sphere family")


def test_criterion_2_trapezoid_double():
    """The glued double of a trapezoid: graph shape, Euler count, Betti."""
    with stopwatch(1.0):
        t = load_corpus("hirzebruch")
        g = moment_graph(t)
        assert len(g.fixed_points) == 4
        assert len(g.edges) == 4
        assert sum(1 for e in g.edges if e.folded) == 2
        b = betti_numbers(g)
        euler = b.total
        assert euler == 4 == len(g.fixed_points)
        # forced independently of the solver: connectedness pins b0 = 1,
        # palindromy pins b4 = b0, and the sum pins the middle
        forced = (1, euler - 2 * 1, 1)
        assert tuple(b) == forced == (1, 2, 1)
    report(2, "trapezoid double")


def test_criterion_3_fully_folded_refusal():
    """The fixed-point-free cycle validates but is refused downstream."""
    with stopwatch(1.0):
        t = load_corpus("torus")
        assert t.validate().valid
        assert t.is_acyclic() is False
        assert fixed_points(t) == ()
        path = str(corpus_path("torus"))
        assert run(["betti", path]) == 2
        assert run(["gkm", path]) == 2
    report(3, "fully folded refusal")


def test_criterion_4_even_cohomology_property():
    """Betti vectors of random tree templates behave like even cohomology."""
    rng = random.Random(2026)
    with stopwatch(60.0):
        for i in range(200):
            t = box_path_template(rng)
            n = t.dimension
            g = moment_graph(t)
            b = betti_numbers(g)  # must not raise FreenessViolation
            values = tuple(b)
            assert len(values) == n + 1
            assert all(v >= 0 for v in values), (i, values)
            assert values == values[::-1], (i, values)
            assert b.total == len(g.fixed_points), (i, values)
            assert values[0] == 1, (i, values)
    report(4, "even cohomology property")


def test_criterion_5_face_acyclicity_equivalence():
    """Face subgraph acyclicity coincides with template graph acyclicity."""
    rng = random.Random(509)
    with stopwatch(30.0):
        templates = [load_corpus(name) for name in corpus_names()]
        randoms = []
        for _ in range(61):
            randoms.append(box_path_template(rng))
        for _ in range(30):
            randoms.append(hexagon_tree_template(rng))
        for length in range(3, 11):
            randoms.append(hexagon_cycle_template(length))
        randoms.append(box_even_cycle_template())
        assert len(randoms) == 100
        cyclic = acyclic = 0
        for t in templates + randoms:
            expected = t.graph.is_acyclic()
            assert is_face_acyclic(t) == expected
            if expected:
                acyclic += 1
            else:
                cyclic += 1
        assert cyclic >= 10 and acyclic >= 80  # both behaviors well represented
    report(5, "face acyclicity equivalence")


def test_criterion_6_cut_and_blow_up_round_trip():
    """Cutting any corpus leaf and reattaching restores the template."""
    with stopwatch(10.0):
        leaves_seen = 0
        for name in corpus_names():
            t = load_corpus(name)
            if not t.graph.is_acyclic():
                continue
            for vid in t.graph.vertices:
                if t.graph.degree(vid) != 1:
                    continue
                leaves_seen += 1
                result = t.cut_leaf(vid)
                rebuilt = radial_blow_up(
                    result.c_plus,
                    result.c_minus,
                    result.attach_vertex,
                    result.attach_facet,
                    result.leaf_facet,
                )
                assert isomorphic(rebuilt, t), (name, vid)
                lhs = len(fixed_points(t))
                rhs = (
                    len(fixed_points(result.c_plus))
                    + len(result.c_minus.vertices)
                    - 2 * len(result.b.vertices)
                )
                assert lhs == rhs, (name, vid, lhs, rhs)
        assert leaves_seen == 10  # 2 each for the five acyclic two-sided templates
    report(6, "cut and blow-up round trip")


def test_criterion_7_solver_matches_dense_oracle():
    """The restriction-based class-space solver against a dense joint system."""
    rng = random.Random(707)
    with stopwatch(30.0):
        from toric_origami.cohomology import gkm_dimension

        for i in range(50):
            g = random_moment_graph(rng)
            for degree in range(4):
                ours = gkm_dimension(g, degree)
                oracle = oracle_gkm_dimension(g, degree)
                assert ours == oracle, (i, degree, ours, oracle)
    report(7, "solver matches dense oracle")


def test_criterion_8_smoothness_matches_integer_system_oracle():
    """Vertex-cone smoothness against direct integer-system solving."""
    rng = random.Random(808)
    with stopwatch(10.0):
        samples = []
        for _ in range(35):
            samples.append(random_lattice_polygon(rng))
        smooth_seeds = (
            box_polytope(((0, 1), (0, 1))),
            box_polytope(((0, 2), (0, 1))),
            DelzantPolytope(
                2,
                [
                    HalfSpace((-1, 0), 0),
                    HalfSpace((0, -1), 0),
                    HalfSpace((1, 1), 1),
                ],
            ),
        )
        for k in range(15):
            seed = smooth_seeds[k % len(smooth_seeds)]
            mat = random_unimodular(rng, 2)
            shift = (rng.randint(-3, 3), rng.randint(-3, 3))
            image = apply_unimodular(seed, mat, shift)
            hull = convex_hull([tuple(int(c) for c in v) for v in image.vertices])
            samples.append((hull, polygon_from_hull(hull)))
        assert len(samples) == 50
        outcomes = set()
        for i, (hull, poly) in enumerate(samples):
            ours = poly.is_smooth()
            oracle = oracle_polygon_smooth(hull)
            assert ours == oracle, (i, hull, ours, oracle)
            outcomes.add(ours)
        assert outcomes == {True, False}  # the sample exercises both verdicts
    report(8, "smoothness matches integer-system oracle")
