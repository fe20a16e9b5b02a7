"""Class spaces over moment graphs: dimensions, Betti numbers, membership."""

import hashlib
import random
from fractions import Fraction
from math import comb

import pytest

from helpers import (
    box_path_template,
    linear_poly,
    oracle_generator_degrees,
    oracle_gkm_dimension,
    oracle_rank,
    poly_mul,
    poly_sub,
    random_moment_graph,
)
from toric_origami import cohomology, load_corpus
from toric_origami.cohomology import (
    BettiVector,
    _constraint_rows,
    _spanning_forest,
    ClassTuple,
    GradedPolySpace,
    HilbertFunction,
    betti_numbers,
    check_membership,
    class_from_polynomials,
    generator_degrees,
    gkm_dimension,
    hilbert_function,
    monomial_basis,
)
from toric_origami.exceptions import FreenessViolation, InternalConsistency, ShapeError
from toric_origami.gkm import FixedPoint, GkmEdge, MomentGraph, moment_graph
from toric_origami.lattice import integer_kernel_basis, kernel_basis


def two_point_graph(weights, n):
    """A synthetic rank-n graph: two fixed points, one edge per weight."""
    a = FixedPoint("a", (0,) * n, "a:0")
    b = FixedPoint("b", (1,) * n, "b:0")
    edges = tuple(
        GkmEdge(endpoints=(a, b), weight=tuple(w), chain=(), folded=False)
        for w in weights
    )
    return MomentGraph(fixed_points=(a, b), edges=edges, dimension=n)


# ---------------------------------------------------------------------------
# monomial bookkeeping


def test_monomial_basis_counts_and_order():
    assert monomial_basis(2, 2) == ((2, 0), (1, 1), (0, 2))
    assert monomial_basis(1, 5) == ((5,),)
    assert monomial_basis(0, 0) == ((),)
    assert monomial_basis(0, 3) == ()
    for n in range(1, 5):
        for d in range(5):
            basis = monomial_basis(n, d)
            assert len(basis) == comb(n + d - 1, n - 1)
            assert all(sum(m) == d for m in basis)
            assert list(basis) == sorted(basis, reverse=True)
    with pytest.raises(ShapeError):
        monomial_basis(2, -1)


def test_graded_space_dimension_matches_basis():
    for n in range(4):
        for d in range(4):
            space = GradedPolySpace(n, d)
            assert space.dimension == len(space.basis) == len(space)
    with pytest.raises(ShapeError):
        GradedPolySpace(-1, 0)


def test_value_vector_formatting():
    h = HilbertFunction((1, 2, 4))
    assert str(h) == "h0=1 h1=2 h2=4"
    assert h[1] == 2 and h[-1] == 4 and list(h) == [1, 2, 4] and len(h) == 3
    b = BettiVector((1, 0, 1))
    assert str(b) == "b0=1 b2=0 b4=1"
    assert b.total == 2
    assert list(b) == [1, 0, 1] and b[2] == 1
    # the two share one base, but each equals and hashes only as itself
    assert repr(h) == "HilbertFunction(values=(1, 2, 4))" and repr(b) == "BettiVector(values=(1, 0, 1))"
    assert h == HilbertFunction([1.0, 2, 4]) and hash(h) == hash(HilbertFunction((1, 2, 4)))
    assert HilbertFunction((1, 0, 1)) != b


# ---------------------------------------------------------------------------
# Hilbert functions of the bundled templates


BUNDLED_HILBERT = {
    "s2": (1, 2),
    "s4": (1, 2, 4, 6),
    "s6": (1, 3, 6, 11),
    "cp2": (1, 3, 6),
    "hirzebruch": (1, 4, 8),
    "chain3": (1, 4, 8),
}


def test_hilbert_functions_of_bundled_templates():
    for name, expected in BUNDLED_HILBERT.items():
        g = moment_graph(load_corpus(name))
        h = hilbert_function(g, len(expected) - 1)
        assert tuple(h) == expected, name


def test_dimension_agrees_with_dense_oracle_on_bundled_graphs():
    for name in BUNDLED_HILBERT:
        g = moment_graph(load_corpus(name))
        for d in range(3):
            assert gkm_dimension(g, d) == oracle_gkm_dimension(g, d), (name, d)


def test_dimension_agrees_with_dense_oracle_on_random_graphs():
    rng = random.Random(41)
    for _ in range(12):
        g = random_moment_graph(rng, rng.choice((1, 2)))
        for d in range(3):
            assert gkm_dimension(g, d) == oracle_gkm_dimension(g, d)


def _expand(g, degree, vec):
    """Per-fixed-point polynomials of a forest-coordinate vector:
    f_v = f_r + sum of alpha_e g_e over the forest edges on the root path."""
    n = g.dimension
    forest = _spanning_forest(g)
    basis = monomial_basis(n, degree)
    lower = monomial_basis(n, degree - 1) if degree else ()
    blocks, start = {}, 0
    for b, weight in enumerate(forest.blocks):
        size = len(basis) if weight is None else len(lower)
        monomials = basis if weight is None else lower
        block = {m: c for m, c in zip(monomials, vec[start : start + size]) if c}
        blocks[b] = block if weight is None else poly_mul(linear_poly(weight), block)
        start += size
    assert start == len(vec)
    polys = []
    for v in range(len(g.fixed_points)):
        f = {}
        while v is not None:
            v, b = forest.up[v]
            for m, c in blocks[b].items():
                f[m] = f.get(m, 0) + c
        polys.append(f)
    return polys


def test_kernel_of_the_rows_is_the_class_space():
    # the rows are integer, and every kernel vector, expanded from forest
    # coordinates to one polynomial per fixed point, is a class by exact
    # division, which shares no code with the rows or the elimination
    rng = random.Random(43)
    for n in (1, 2, 3):
        for _ in range(8):
            g = random_moment_graph(rng, n)
            for d in range(4):
                rows, ncols = _constraint_rows(g, d)
                assert all(type(x) is int for row in rows for x in row)
                basis = monomial_basis(n, d)
                vectors = kernel_basis(rows, ncols)
                count = oracle_gkm_dimension(g, d)
                assert len(vectors) == count, (n, d)
                expanded = []
                for vec in vectors:
                    polys = _expand(g, d, vec)
                    c = ClassTuple(d, tuple(tuple(f.get(m, 0) for m in basis) for f in polys))
                    assert check_membership(g, c), (n, d, vec)
                    expanded.append([x for coefficients in c.coefficients for x in coefficients])
                width = len(g.fixed_points) * len(basis)
                assert (oracle_rank(expanded, width) if expanded else 0) == count, (n, d)


def _relabelled(rng, g):
    """The same graph with fixed points and edges shuffled and edges reversed at random."""
    fps = list(g.fixed_points)
    rng.shuffle(fps)
    edges = [
        GkmEdge(e.endpoints[::-1] if rng.random() < 0.5 else e.endpoints, e.weight, e.chain, e.folded)
        for e in g.edges
    ]
    rng.shuffle(edges)
    return MomentGraph(fixed_points=tuple(fps), edges=tuple(edges), dimension=g.dimension)


def _outcome(query, g):
    try:
        return tuple(query(g))
    except FreenessViolation as exc:
        return type(exc), str(exc)


def test_answers_do_not_depend_on_graph_order():
    # the spanning forest follows the order of fixed points and edges; the answers must not
    rng = random.Random(53)
    queries = (
        lambda g: hilbert_function(g, g.dimension + 1),
        betti_numbers,
        lambda g: generator_degrees(g, g.dimension + 1),
    )
    for _ in range(40):
        g = random_moment_graph(rng, rng.choice((1, 2, 3)))
        expected = [_outcome(q, g) for q in queries]
        for _ in range(3):
            h = _relabelled(rng, g)
            assert [_outcome(q, h) for q in queries] == expected, g


def test_each_request_builds_one_forest(monkeypatch):
    built = []

    def counted(g):
        built.append(g)
        return _spanning_forest(g)

    monkeypatch.setattr(cohomology, "_spanning_forest", counted)
    g = moment_graph(load_corpus("chain3"))
    for query in (
        betti_numbers,
        lambda g: hilbert_function(g, 4),
        lambda g: generator_degrees(g, 4),
        lambda g: gkm_dimension(g, 2),
    ):
        built.clear()
        query(g)
        assert built == [g]


def test_each_request_builds_each_weight_plane_once(monkeypatch):
    # the hyperplane basis of an off-forest edge's weight, and its monomial
    # images, are built once per request and shared by every degree
    built = []

    def counted(weight):
        built.append(tuple(weight))
        return integer_kernel_basis(weight)

    monkeypatch.setattr(cohomology, "integer_kernel_basis", counted)
    for g in (
        moment_graph(load_corpus("chain3")),
        moment_graph(box_path_template(random.Random(5), 3, 3)),
    ):
        cycles = _spanning_forest(g).cycles
        weights = sorted({weight for weight, _ in cycles})
        assert weights
        for query in (
            betti_numbers,
            lambda g: hilbert_function(g, 4),
            lambda g: generator_degrees(g, 4),
        ):
            built.clear()
            query(g)
            assert sorted(built) == weights


# sha256 of repr([_constraint_rows(g, d) for d in range(5)]), recorded from
# the code that built each row as a sum over the weight's entries of shifted
# monomial images, before the image of alpha_e x^m became l_e(y) times that
# of x^m; box:5 has the weight (0, 1, 1), so l_e has two nonzero entries
ROWS_FROZEN = {
    "corpus:s2": "7cf7aed527daa2f2800497622f14bc1a6fd4191e258cf55470b5e293ab9a5df8",
    "corpus:s4": "73bbddfe816fc359139da3cfd88e3cd72891f73dd222f2f9296266ec1c34a66b",
    "corpus:s6": "08539bdddbd2c081a4996ebc5ba38ee18ba7eb2d5e90649f9693c5df13070ef5",
    "corpus:cp2": "28b9bd13f32cb3fa1128d1b6c3661dc45f4e2b32ac974e8ca2f886e124d0daac",
    "corpus:hirzebruch": "062af8354d3786a674ee391d71078352a18dca9907393bc2bd0a932a0362758b",
    "corpus:chain3": "062af8354d3786a674ee391d71078352a18dca9907393bc2bd0a932a0362758b",
    "box:5": "76b6fed3ad87fab484b743a6ee363fc26985a5037ffbc365b993491ecb0be21f",
    "box:6": "97ce92a511a50df96a965fe17a263f8565e8c8a2779a2d6e23414bb74ecaf3bc",
}


@pytest.mark.parametrize("name", ROWS_FROZEN)
def test_constraint_rows_are_frozen(name):
    kind, _, key = name.partition(":")
    if kind == "corpus":
        t = load_corpus(key)
    else:
        t = box_path_template(random.Random(int(key)), 3, 3)
    g = moment_graph(t)
    text = repr([_constraint_rows(g, d) for d in range(5)])
    assert hashlib.sha256(text.encode()).hexdigest() == ROWS_FROZEN[name]


def test_degree_zero_counts_graph_components():
    assert gkm_dimension(two_point_graph([(1, 0)], 2), 0) == 1
    assert gkm_dimension(two_point_graph([], 2), 0) == 2  # no edges: two components
    with pytest.raises(ShapeError):
        gkm_dimension(two_point_graph([(1, 0)], 2), -1)


# ---------------------------------------------------------------------------
# Betti numbers


BUNDLED_BETTI = {
    "s2": (1, 1),
    "s4": (1, 0, 1),
    "s6": (1, 0, 0, 1),
    "cp2": (1, 1, 1),
    "hirzebruch": (1, 2, 1),
    "chain3": (1, 2, 1),
}


def test_betti_numbers_of_bundled_templates():
    for name, expected in BUNDLED_BETTI.items():
        g = moment_graph(load_corpus(name))
        b = betti_numbers(g)
        assert tuple(b) == expected, name
        assert b.total == len(g.fixed_points)


def test_betti_sum_mismatch_raises():
    # three pairwise independent weight lines force equal polynomials in
    # low degree, so the class module cannot be free on two points
    g = two_point_graph([(1, 0), (0, 1), (1, 1)], 2)
    with pytest.raises(FreenessViolation, match="sum"):
        betti_numbers(g)


def test_negative_betti_layer_raises():
    g = moment_graph(load_corpus("s4"))
    with pytest.raises(FreenessViolation, match="negative"):
        betti_numbers(g, n=3)


# ---------------------------------------------------------------------------
# membership


def cp2_graph():
    return moment_graph(load_corpus("cp2"))


def test_membership_accepts_a_known_class():
    g = cp2_graph()
    # fixed points at (0,0), (0,1), (1,0); assign 0, y, x
    c = class_from_polynomials(
        g, 1, [{}, {(0, 1): 1}, {(1, 0): 1}]
    )
    res = check_membership(g, c)
    assert res
    assert res.violating_edge is None
    basis = monomial_basis(g.dimension, 1)
    polys = [
        {m: co for m, co in zip(basis, vec) if co} for vec in c.coefficients
    ]
    fp_index = {fp: i for i, fp in enumerate(g.fixed_points)}
    for e, q in zip(g.edges, res.quotients):
        a, b = e.endpoints
        diff = poly_sub(polys[fp_index[a]], polys[fp_index[b]])
        assert poly_mul(linear_poly(e.weight), q) == diff


def test_membership_rejects_and_names_the_edge():
    g = cp2_graph()
    c = class_from_polynomials(g, 1, [{}, {}, {(1, 0): 1}])
    res = check_membership(g, c)
    assert not res
    assert res.quotients is None
    assert res.violating_index == 2
    assert res.violating_edge is g.edges[2]


def test_membership_on_two_triangle_template():
    g = moment_graph(load_corpus("s4"))
    good = class_from_polynomials(g, 2, [{}, {(1, 1): 1}])
    assert check_membership(g, good)
    bad = class_from_polynomials(g, 1, [{(1, 0): 1}, {(0, 1): 1}])
    res = check_membership(g, bad)
    assert not res and res.violating_index == 0


def test_membership_of_zero_and_constants():
    g = cp2_graph()
    zero = class_from_polynomials(g, 3, [{}, {}, {}])
    assert check_membership(g, zero)
    const = ClassTuple(0, ((1,), (1,), (1,)))
    assert check_membership(g, const)
    unequal = ClassTuple(0, ((1,), (1,), (2,)))
    assert not check_membership(g, unequal)


def test_class_tuple_coerces_rationals():
    c = ClassTuple(1, (("1/2", 1), (0, "2/3")))
    assert c.coefficients[0][0] == Fraction(1, 2)
    assert c.coefficients[1][1] == Fraction(2, 3)
    with pytest.raises(ShapeError):
        ClassTuple(-1, ())


def test_shape_errors():
    g = cp2_graph()
    with pytest.raises(ShapeError):  # wrong number of components
        check_membership(g, ClassTuple(1, ((0, 0), (0, 0))))
    with pytest.raises(ShapeError):  # wrong component length
        check_membership(g, ClassTuple(1, ((0, 0), (0, 0), (0,))))
    with pytest.raises(ShapeError):  # monomial of the wrong degree
        class_from_polynomials(g, 2, [{(1, 0): 1}, {}, {}])
    with pytest.raises(ShapeError):  # wrong polynomial count
        class_from_polynomials(g, 1, [{}, {}])


def test_every_entry_point_checks_the_graph_with_or_without_unknowns():
    """An edge to an absent fixed point is refused with no fixed point as
    with one, and a zero weight in rank 0 at degree 1, which has no
    monomial, as at degree 0: every entry point builds the forest first."""
    a, b = FixedPoint("a", (0, 0), "a:0"), FixedPoint("b", (1, 0), "b:0")
    dangling = GkmEdge(endpoints=(a, b), weight=(1, 0), chain=(), folded=False)
    queries = (
        lambda g: gkm_dimension(g, 1),
        lambda g: hilbert_function(g, 1),
        betti_numbers,
        generator_degrees,
    )
    for fixed in ((), (a,)):
        g = MomentGraph(fixed_points=fixed, edges=(dangling,), dimension=2)
        for query in queries:
            with pytest.raises(InternalConsistency, match="edge endpoint is not among the fixed points"):
                query(g)
    p, q = FixedPoint("p", (), "p:0"), FixedPoint("q", (), "q:0")
    flat = GkmEdge(endpoints=(p, q), weight=(), chain=(), folded=False)
    g = MomentGraph(fixed_points=(p, q), edges=(flat,), dimension=0)
    for query in queries:
        with pytest.raises(InternalConsistency, match="edge weight is the zero vector"):
            query(g)


@pytest.mark.parametrize("bad", [(1.5, True), ("1",), (Fraction(1, 2), 0)])
def test_value_vectors_refuse_values_that_are_no_integer(bad):
    for vector in (HilbertFunction, BettiVector):
        with pytest.raises(TypeError, match="values must be integers"):
            vector(bad)


# ---------------------------------------------------------------------------
# generator degrees


def test_generator_degrees_match_nonzero_betti_layers():
    for name, expected_b in BUNDLED_BETTI.items():
        g = moment_graph(load_corpus(name))
        expected = tuple((d, c) for d, c in enumerate(expected_b) if c)
        assert generator_degrees(g) == expected, name


def test_generator_degrees_match_the_definition_off_the_free_case():
    graphs = [
        two_point_graph([(1, 0), (0, 1), (1, 1)], 2),
        two_point_graph([(2, 0), (1, 1), (1, -1)], 2),
        two_point_graph([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)], 3),
    ]
    rng = random.Random(47)
    graphs += [random_moment_graph(rng, n) for n in (1, 2, 3) for _ in range(6)]
    free = 0
    for i, g in enumerate(graphs):
        top = min(g.dimension + 1, 3)
        assert generator_degrees(g, top) == oracle_generator_degrees(g, top), i
        try:
            betti_numbers(g)
            free += 1
        except FreenessViolation:
            pass
    assert len(graphs) - free >= 6  # the sample reaches past the free case


def test_generator_degrees_respect_max_degree():
    g = moment_graph(load_corpus("s6"))
    assert generator_degrees(g, max_degree=2) == ((0, 1),)
    assert generator_degrees(g, max_degree=3) == ((0, 1), (3, 1))
    with pytest.raises(ShapeError):
        generator_degrees(g, max_degree=-1)
