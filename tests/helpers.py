"""Shared test utilities: independent oracles and seeded template generators.

Oracle code here deliberately avoids the package's own linear algebra:
rank, nullity, kernel bases and square solves use a local echelon
reduction, determinants use permutation expansion, hulls use a monotone
chain, polytope edges are read off the rank of the normals tight at both
ends, face lattices come from every subset of the facets, smoothness
solves integer systems directly, glued facets come from a local
union-find over facet cuts of the folds, the links of the gluing rule
come from point-set cuts of the folds, and orbit-space faces come from
a plain fixed point over every (face, glued facet) pair with another
local union-find; facet vertex sets are read off direct dot products,
and so are fold agreement (point sets and halfspaces normalized here)
and facet charts (offsets in `Fraction`s);
template-graph components come from a union-find, bipartiteness from a
breadth-first parity colouring and acyclicity from E = V - c; template
isomorphism comes from trying every vertex bijection; file text
comes from `json.dumps` over plain data read off template accessors.
Agreement between these and the package is the point of the dual-route
tests.
"""

from __future__ import annotations

import itertools
import json
import random
import time
from fractions import Fraction
from operator import mul

from toric_origami import DelzantPolytope, HalfSpace, OrigamiTemplate, TemplateGraph, load_corpus
from toric_origami.fileformat import corpus_names
from toric_origami.gkm import FixedPoint, GkmEdge, MomentGraph, moment_graph

# ---------------------------------------------------------------------------
# runtime budgets


class stopwatch:
    def __init__(self, budget):
        self.budget = budget

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.monotonic() - self.start
        if exc == (None, None, None):
            assert self.elapsed < self.budget, (
                f"runtime {self.elapsed:.2f}s exceeds the {self.budget}s budget"
            )


# ---------------------------------------------------------------------------
# independent linear algebra


def _oracle_rref(rows, ncols):
    """Plain Gauss-Jordan over Fraction: (reduced rows, pivot columns)."""
    mat = [[Fraction(c) for c in row] for row in rows]
    pivots = []
    col = 0
    while len(pivots) < len(mat) and col < ncols:
        rank = len(pivots)
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if pivot is None:
            col += 1
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        lead = mat[rank][col]
        mat[rank] = [c / lead for c in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col]:
                factor = mat[r][col]
                mat[r] = [a - factor * b for a, b in zip(mat[r], mat[rank])]
        pivots.append(col)
        col += 1
    return mat[: len(pivots)], pivots


def oracle_rank(rows, ncols):
    """Row-reduce with plain Gaussian elimination; count nonzero rows."""
    return len(_oracle_rref(rows, ncols)[1])


def oracle_pivot_columns(rows, ncols):
    """The pivot columns of the reduced row echelon form, in column order."""
    return _oracle_rref(rows, ncols)[1]


def oracle_kernel_basis(rows, ncols):
    """The reduced-echelon kernel basis: one vector per free column, with a 1
    there, 0 on the other free columns and the pivot columns solved for."""
    mat, pivots = _oracle_rref(rows, ncols)
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for row, pc in zip(mat, pivots):
            vec[pc] = -row[free]
        basis.append(tuple(vec))
    return basis


def oracle_nullity(rows, ncols):
    return ncols - oracle_rank(rows, ncols)


def oracle_solve_square(rows, rhs):
    """Gauss-Jordan on [rows | rhs]: the unique solution, or None when the
    pivots are not the first n columns (a singular system)."""
    n = len(rows)
    mat, pivots = _oracle_rref([list(row) + [b] for row, b in zip(rows, rhs)], n + 1)
    if pivots != list(range(n)):
        return None
    return tuple(row[n] for row in mat)


def oracle_det(rows):
    """Determinant by signed permutation expansion (fine for n <= 5)."""
    n = len(rows)
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        term = Fraction(sign)
        for i in range(n):
            term *= rows[i][perm[i]]
        total += term
    return total


def _oracle_primitive(vec):
    """A nonzero rational vector scaled to a primitive integer vector."""
    scale = 1
    for c in vec:
        scale = scale * Fraction(c).denominator // _gcd2(scale, Fraction(c).denominator)
    ints = [int(c * scale) for c in vec]
    g = 0
    for c in ints:
        g = _gcd2(g, c)
    return tuple(c // g for c in ints)


def _oracle_tight(polytope, v):
    """Indices of the halfspaces whose boundary holds v, by direct dot products."""
    return [
        i
        for i, h in enumerate(polytope.halfspaces)
        if sum(a * x for a, x in zip(h.normal, v)) == h.offset
    ]


def oracle_vertex_incidence(normals, offsets, n):
    """{vertex: indices of the halfspaces tight at it}, sorted, from a solve of
    every n-subset of the rows (singular ones included) and direct dot
    products.  Rows may be zero."""
    found = {}
    for subset in itertools.combinations(range(len(normals)), n):
        x = oracle_solve_square([normals[i] for i in subset], [offsets[i] for i in subset])
        if x is None:
            continue
        values = [sum(a * c for a, c in zip(row, x)) for row in normals]
        if all(v <= b for v, b in zip(values, offsets)):
            found[x] = tuple(i for i, (v, b) in enumerate(zip(values, offsets)) if v == b)
    return dict(sorted(found.items()))


def oracle_edges_at(polytope, v):
    """Vertex pairs of the edges through v, sorted.

    [v, w] is an edge exactly when the normals tight at both points have
    rank n - 1: the smallest face holding both is then 1-dimensional.
    """
    n = polytope.dimension
    tight_v = set(_oracle_tight(polytope, v))
    out = []
    for w in polytope.vertices:
        if w == v:
            continue
        common = tight_v & set(_oracle_tight(polytope, w))
        normals = [polytope.halfspaces[i].normal for i in sorted(common)]
        if oracle_rank(normals, n) == n - 1:
            out.append(tuple(sorted((v, w))))
    return sorted(out)


def oracle_faces(polytope):
    """Every nonempty face as (dim, active, vertices), sorted by (dim, vertices).

    By definition over all facet subsets S: the face of S is the nonempty
    vertex set {v : S ⊆ tight(v)}, its `active` set the largest S giving
    that set (the facets tight at all of its vertices), and its dimension
    n − rank of the active normals.  Reads only `halfspaces` and `vertices`.
    """
    n = polytope.dimension
    halves = polytope.halfspaces
    tight = {v: frozenset(_oracle_tight(polytope, v)) for v in polytope.vertices}
    found = set()
    for size in range(len(halves) + 1):
        for subset in itertools.combinations(range(len(halves)), size):
            vs = tuple(v for v in polytope.vertices if tight[v].issuperset(subset))
            if vs:
                found.add(vs)
    out = []
    for vs in found:
        active = frozenset.intersection(*(tight[v] for v in vs))
        normals = [halves[i].normal for i in sorted(active)]
        out.append((n - oracle_rank(normals, n), active, tuple(sorted(vs))))
    return sorted(out, key=lambda f: (f[0], f[2]))


def oracle_edge_directions(polytope, v):
    """Per tight facet at v, in index order: the primitive kernel vector of
    the other tight normals, signed to point into the polytope."""
    n = polytope.dimension
    tight = _oracle_tight(polytope, v)
    out = []
    for leave in tight:
        others = [polytope.halfspaces[i].normal for i in tight if i != leave]
        (ker,) = oracle_kernel_basis(others, n)
        d = _oracle_primitive(ker)
        if sum(a * x for a, x in zip(polytope.halfspaces[leave].normal, d)) > 0:
            d = tuple(-x for x in d)
        out.append(d)
    return tuple(out)


# ---------------------------------------------------------------------------
# independent order theory


def oracle_covers(faces, leq):
    """Covering pairs (i, j) by definition: faces[i] < faces[j], nothing between."""

    def less(a, b):
        return leq(a, b) and not leq(b, a)

    return [
        (i, j)
        for i, a in enumerate(faces)
        for j, b in enumerate(faces)
        if less(a, b) and not any(less(a, c) and less(c, b) for c in faces)
    ]


def _oracle_facet(polytope, fi):
    """The vertices on facet fi, by direct dot products."""
    return frozenset(v for v in polytope.vertices if fi in _oracle_tight(polytope, v))


def oracle_halfspace(normal, offset):
    """(primitive normal, offset) of <normal, x> <= offset: both divided by
    the gcd of the integer normal, the offset as a `Fraction`."""
    g = 0
    for c in normal:
        g = _gcd2(g, c)
    return tuple(c // g for c in normal), Fraction(offset) / g


def oracle_agree_near_facet(p1, f1, p2, f2):
    """Fold agreement by point sets: facet f1 of p1 and facet f2 of p2 hold
    the same vertices, found by direct dot products, and the facets of
    either polytope meeting those vertices have the same halfspaces, each
    normalized by `oracle_halfspace`."""

    def on(h, p):
        return {v for v in p.vertices if sum(a * x for a, x in zip(h.normal, v)) == h.offset}

    fold = on(p1.halfspaces[f1], p1)
    if fold != on(p2.halfspaces[f2], p2):
        return False

    def near(p):
        return {oracle_halfspace(h.normal, h.offset) for h in p.halfspaces if fold & on(h, p)}

    return near(p1) == near(p2)


def oracle_facet_chart(polytope, fi, basis):
    """(base, cuts) of facet fi in the chart y -> base + sum(y[k] * basis[k]).

    The base is the facet's smallest vertex, found by direct dot products.
    The cuts are the `oracle_halfspace` pairs, in index order, of the other
    facets meeting facet fi in a face of dimension n - 2 (n minus the
    oracle rank of the normals tight on all of the meet): normal
    (<a_j, basis[k]>)_k and offset b_j - <a_j, base>, in `Fraction`s.
    """
    n = polytope.dimension
    halves = polytope.halfspaces
    facet = _oracle_facet(polytope, fi)
    base = min(facet)
    cuts = []
    for j, h in enumerate(halves):
        meet = facet & _oracle_facet(polytope, j)
        if j == fi or not meet:
            continue
        tight = [i for i in range(len(halves)) if all(i in _oracle_tight(polytope, v) for v in meet)]
        if n - oracle_rank([halves[i].normal for i in tight], n) != n - 2:
            continue
        normal = [sum(a * b for a, b in zip(h.normal, row)) for row in basis]
        cuts.append(oracle_halfspace(normal, h.offset - sum(a * x for a, x in zip(h.normal, base))))
    return base, cuts


def oracle_glued_facets(t):
    """The orbit-space facets as sorted member tuples (vid, facet index), sorted.

    A local union-find over the facets that are no fold facet of their
    polytope: facets at the two ends of a template edge are joined when
    they cut the fold facet (each end's own copy) in the same nonempty
    vertex set.
    """
    graph = t.graph
    folds = {vid: set() for vid in graph.vertices}
    for eid in graph.edges:
        for w, fi in zip(graph.incidence[eid], t.edge_facets(eid)):
            folds[w].add(fi)
    facets = {
        (vid, fi): _oracle_facet(t.polytope(vid), fi)
        for vid in graph.vertices
        for fi in range(len(t.polytope(vid).halfspaces))
        if fi not in folds[vid]
    }
    parent = {node: node for node in facets}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for eid in graph.edges:
        cuts = []  # per end: facet -> its cut with the fold
        for w, fi in zip(graph.incidence[eid], t.edge_facets(eid)):
            fold = _oracle_facet(t.polytope(w), fi)
            cuts.append({node: vs & fold for node, vs in facets.items() if node[0] == w})
        for a, cut_a in cuts[0].items():
            for b, cut_b in cuts[1].items():
                if cut_a and cut_a == cut_b:
                    parent[find(a)] = find(b)
    classes = {}
    for node in facets:
        classes.setdefault(find(node), []).append(node)
    return sorted(tuple(sorted(c)) for c in classes.values())


def oracle_glue(t, d):
    """The d-pieces of the orbit space and the folds linking them, by coordinates.

    The gluing rule as the `orbit_space` docstring states it.  Pieces are
    (vid, vertices) for each d-face of each polytope (`oracle_faces`) that
    lies in no fold facet of its own polytope, in graph order, then in
    `oracle_faces` order.  Links are (eid, piece at the first end, piece at
    the second end) for each template edge and each pair of pieces there
    that cut the fold facet, each end's own copy read by direct dot
    products, in the same nonempty point set; sorted.
    """
    graph = t.graph
    folds = {vid: set() for vid in graph.vertices}
    for eid in graph.edges:
        for w, fi in zip(graph.incidence[eid], t.edge_facets(eid)):
            folds[w].add(fi)
    lattices = {}  # polytope id -> its oracle faces; trees of hexagons share one polytope
    pieces = {}
    for vid in graph.vertices:
        poly = t.polytope(vid)
        if id(poly) not in lattices:
            lattices[id(poly)] = oracle_faces(poly)
        pieces[vid] = [
            vs for dim, active, vs in lattices[id(poly)] if dim == d and not active & folds[vid]
        ]
    links = []
    for eid in graph.edges:
        ends = graph.incidence[eid]
        cuts = []  # per end: (piece, its cut with that end's copy of the fold)
        for w, fi in zip(ends, t.edge_facets(eid)):
            fold = _oracle_facet(t.polytope(w), fi)
            cuts.append([(vs, frozenset(vs) & fold) for vs in pieces[w]])
        for a, cut_a in cuts[0]:
            for b, cut_b in cuts[1]:
                if cut_a and cut_a == cut_b:
                    links.append((eid, (ends[0], a), (ends[1], b)))
    return [(vid, vs) for vid in graph.vertices for vs in pieces[vid]], sorted(links)


def oracle_face_subgraph(t, face):
    """The template subgraph of an orbit-space face by definition, as
    (vertices, edges), both in graph order.

    Its vertices are the template vertices of the face's pieces; its
    edges are the template edges whose fold facet, at either end, meets a
    piece at that end, each fold facet read by direct dot products.
    """
    graph = t.graph
    pieces = {}  # vid -> vertex sets of the face's pieces there
    for vid, f in face.members:
        pieces.setdefault(vid, []).append(frozenset(f.vertices))
    edges = tuple(
        eid
        for eid in graph.edges
        if any(
            vs & _oracle_facet(t.polytope(w), fi)
            for w, fi in zip(graph.incidence[eid], t.edge_facets(eid))
            for vs in pieces.get(w, ())
        )
    )
    return tuple(w for w in graph.vertices if w in pieces), edges


def oracle_face_members(t, glued):
    """Every orbit-space face as a frozenset of (template vertex, polytope vertex set).

    A plain fixed point: starting from the whole space, every face is
    intersected with every glued facet (`glued`, member tuples as from
    `oracle_glued_facets`), polytope by polytope, until no new face
    appears.  An intersection falls apart into the classes of a local
    union-find: two pieces are joined when they lie in one polytope and
    share a vertex, or lie at the two ends of a template edge and share a
    vertex of its fold facet.
    """
    graph = t.graph

    def facet(vid, fi):
        return _oracle_facet(t.polytope(vid), fi)

    facets = [[(vid, facet(vid, fi)) for vid, fi in members] for members in glued]
    folds = []  # (end u, end v, fold facet vertex set at u)
    for eid in graph.edges:
        u, v = graph.incidence[eid]
        folds.append((u, v, facet(u, t.edge_facets(eid)[0])))

    def components(pieces):
        pieces = list(pieces)
        parent = list(range(len(pieces)))

        def find(i):
            while parent[i] != i:
                i = parent[i]
            return i

        for i, (vi, si) in enumerate(pieces):
            for j, (vj, sj) in enumerate(pieces[:i]):
                common = si & sj
                if vi == vj:
                    linked = bool(common)
                else:
                    linked = any(
                        {a, b} == {vi, vj} and common & fold for a, b, fold in folds
                    )
                if linked:
                    parent[find(i)] = find(j)
        classes = {}
        for i, piece in enumerate(pieces):
            classes.setdefault(find(i), set()).add(piece)
        return [frozenset(c) for c in classes.values()]

    top = frozenset(
        (vid, frozenset(t.polytope(vid).vertices)) for vid in graph.vertices
    )
    faces = {top}
    while True:
        found = set()
        for face in faces:
            for facet in facets:
                pieces = {
                    (vid, vs & fs)
                    for vid, vs in face
                    for fvid, fs in facet
                    if fvid == vid and vs & fs
                }
                found.update(components(pieces))
        if found <= faces:
            return faces
        faces |= found


# ---------------------------------------------------------------------------
# independent multigraph queries (plain vertex lists and {edge: (u, v)} dicts)


def oracle_components(vertices, incidence):
    """Connected components by union-find, ordered by least id in str order."""
    parent = {v: v for v in vertices}

    def find(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for u, v in incidence.values():
        parent[find(u)] = find(v)
    classes = {}
    for v in vertices:
        classes.setdefault(find(v), set()).add(v)
    return tuple(sorted((frozenset(c) for c in classes.values()), key=min))


def oracle_has_odd_cycle(vertices, incidence):
    """True iff a breadth-first parity colouring fails; a loop is an odd cycle."""
    neighbours = {v: [] for v in vertices}
    for u, v in incidence.values():
        if u == v:
            return True
        neighbours[u].append(v)
        neighbours[v].append(u)
    parity = {}
    for seed in vertices:
        if seed in parity:
            continue
        parity[seed] = 0
        queue = [seed]
        for w in queue:
            for x in neighbours[w]:
                if x not in parity:
                    parity[x] = 1 - parity[w]
                    queue.append(x)
                elif parity[x] == parity[w]:
                    return True
    return False


def oracle_is_forest(vertices, incidence):
    """A multigraph is a forest iff E = V - c (loops and parallel edges are cycles)."""
    return len(incidence) == len(vertices) - len(oracle_components(vertices, incidence))


def oracle_loops(edges, incidence):
    """The loop edges, in edge order."""
    return tuple(e for e in edges if incidence[e][0] == incidence[e][1])


def oracle_degrees(vertices, incidence):
    """Edge ends at each vertex; a loop counts twice."""
    degree = dict.fromkeys(vertices, 0)
    for ends in incidence.values():
        for w in ends:
            degree[w] += 1
    return degree


def oracle_isomorphic(t1, t2):
    """Is there a vertex bijection that carries every polytope to an equal
    one and the edges onto the other template's edges?  Tries every
    bijection.  A polytope is the set of its (normal, offset) pairs, and an
    edge the sorted pair of its ends, each (vertex, fold normal, fold
    offset), so the edges compare as multisets whatever their ids and end
    order."""
    if t1.dimension != t2.dimension or len(t1.graph.vertices) != len(t2.graph.vertices):
        return False

    def shapes(t):
        return {v: {(h.normal, h.offset) for h in t.polytope(v).halfspaces} for v in t.graph.vertices}

    def edges(t, rename):
        out = []
        for eid in t.graph.edges:
            ends = []
            for w, f in zip(t.graph.ends(eid), t.edge_facets(eid)):
                h = t.polytope(w).halfspaces[f]
                ends.append((rename[w], h.normal, h.offset))
            out.append(tuple(sorted(ends)))
        return sorted(out)

    vertices1, vertices2 = t1.graph.vertices, t2.graph.vertices
    shapes1, shapes2 = shapes(t1), shapes(t2)
    target = edges(t2, {v: v for v in vertices2})
    for image in itertools.permutations(vertices2):
        rename = dict(zip(vertices1, image))
        if all(shapes1[v] == shapes2[rename[v]] for v in vertices1) and edges(t1, rename) == target:
            return True
    return False


def random_multigraph(rng):
    """(vertices, edges, incidence) with loops, parallel edges and isolated
    vertices, ids v0.. so that str order differs from number order
    ("v10" < "v2"), listed in shuffled order."""
    count = rng.randint(1, 14)
    vertices = [f"v{k}" for k in range(count)]
    rng.shuffle(vertices)
    # edges stay inside random clusters, so that several components are common
    labels = {v: rng.randint(1, 3) for v in vertices}
    clusters = [[v for v in vertices if labels[v] == k] for k in set(labels.values())]
    incidence = {}
    for j in range(rng.randint(0, 2 * count)):
        cluster = rng.choice(clusters)
        kind = rng.random()
        u = rng.choice(cluster)
        v = u if kind < 0.1 else rng.choice(cluster)
        incidence[f"e{j}"] = (u, v)
        if kind > 0.9:
            incidence[f"e{j}p"] = (v, u)  # a parallel edge, ends reversed
    edges = list(incidence)
    rng.shuffle(edges)
    return tuple(vertices), tuple(edges), incidence


def random_fold_template(rng):
    """A connected template on up to 12 squares and hexagons, with loops
    and parallel edges, whose fold facets are drawn at random end by end:
    a loop often names two facets, and folds at one vertex often meet, so
    conditions (1) and (2) fail often.  Ids are shuffled as in
    `random_multigraph`."""
    count = rng.randint(1, 12)
    vertices = [f"v{k}" for k in range(count)]
    rng.shuffle(vertices)
    shapes = (box_polytope(((0, 1), (0, 1))), box_polytope(((0, 2), (0, 1))), hexagon_polytope())
    psi_v = {v: rng.choice(shapes) for v in vertices}
    pairs = [(v, rng.choice(vertices[:k])) for k, v in enumerate(vertices) if k]  # a spanning tree
    for _ in range(rng.randint(0, count)):
        u = rng.choice(vertices)
        kind = rng.random()
        pairs.append((u, u) if kind < 0.3 else (u, rng.choice(vertices)))
        if kind > 0.8:
            pairs.append(pairs[-1][::-1])  # a parallel edge, ends reversed
    rows = [
        (f"e{j}", u, v, rng.randrange(len(psi_v[u].halfspaces)), rng.randrange(len(psi_v[v].halfspaces)))
        for j, (u, v) in enumerate(pairs)
    ]
    rng.shuffle(rows)
    return build_template(2, psi_v, rows)


# ---------------------------------------------------------------------------
# independent polygon machinery


def convex_hull(points):
    """Monotone chain, strict turns only: collinear interior points dropped."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def _gcd2(a, b):
    while b:
        a, b = b, a % b
    return abs(a)


def _primitive2(v):
    g = _gcd2(v[0], v[1])
    return (v[0] // g, v[1] // g)


def polygon_from_hull(hull):
    """H-representation of a ccw hull: outward primitive normals and offsets."""
    halves = []
    m = len(hull)
    for i in range(m):
        px, py = hull[i]
        qx, qy = hull[(i + 1) % m]
        normal = _primitive2((qy - py, px - qx))
        offset = normal[0] * px + normal[1] * py
        halves.append(HalfSpace(normal=normal, offset=offset))
    return DelzantPolytope(2, halves)


def oracle_polygon_smooth(hull):
    """Decide smoothness by solving integer systems at every hull vertex.

    At each vertex the two primitive edge directions must generate all of
    Z^2, i.e. the system [d1 d2] a = e must have an integer solution for
    both unit vectors e.
    """
    m = len(hull)
    for i in range(m):
        v = hull[i]
        prev_pt = hull[(i - 1) % m]
        next_pt = hull[(i + 1) % m]
        d1 = _primitive2((prev_pt[0] - v[0], prev_pt[1] - v[1]))
        d2 = _primitive2((next_pt[0] - v[0], next_pt[1] - v[1]))
        det = d1[0] * d2[1] - d1[1] * d2[0]
        if det == 0:
            return False
        for e in ((1, 0), (0, 1)):
            a_num = e[0] * d2[1] - e[1] * d2[0]
            b_num = d1[0] * e[1] - d1[1] * e[0]
            if a_num % det or b_num % det:
                return False
    return True


def random_lattice_polygon(rng):
    """A random convex lattice polygon as (hull, DelzantPolytope)."""
    while True:
        count = rng.randint(3, 7)
        pts = {
            (rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(count)
        }
        hull = convex_hull(sorted(pts))
        if len(hull) >= 3:
            return hull, polygon_from_hull(hull)


# ---------------------------------------------------------------------------
# unimodular maps


def random_unimodular(rng, n):
    """A random element of GL_n(Z) built from shears, swaps, and sign flips."""
    mat = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(rng.randint(2, 6)):
        kind = rng.choice(("shear", "swap", "flip")) if n > 1 else "flip"
        if kind == "shear":
            i, j = rng.sample(range(n), 2)
            c = rng.choice((-2, -1, 1, 2))
            for col in range(n):
                mat[i][col] += c * mat[j][col]
        elif kind == "swap":
            i, j = rng.sample(range(n), 2)
            mat[i], mat[j] = mat[j], mat[i]
        else:
            i = rng.randrange(n)
            mat[i] = [-c for c in mat[i]]
    return mat


def apply_unimodular(polytope, mat, shift=None):
    """Image of a polytope under x -> M x + t, as a new DelzantPolytope.

    For {a . x <= b} the image is {a' . y <= b + a' . t} with a' = a M^{-1};
    passing the halfspaces through M^T on the *parametrization* side keeps
    everything integral: substituting x = M z gives normals a M.
    """
    n = polytope.dimension
    if shift is None:
        shift = (0,) * n
    halves = []
    for h in polytope.halfspaces:
        normal = tuple(
            sum(h.normal[i] * mat[i][j] for i in range(n)) for j in range(n)
        )
        offset = h.offset + sum(normal[j] * shift[j] for j in range(n))
        halves.append(HalfSpace(normal=normal, offset=offset))
    return DelzantPolytope(n, halves)


def transform_template(t, mat, shift=None):
    """Apply one unimodular change of coordinates to every polytope."""
    psi_v = {
        vid: apply_unimodular(t.polytope(vid), mat, shift)
        for vid in t.graph.vertices
    }
    return OrigamiTemplate(
        dimension=t.dimension,
        graph=t.graph,
        psi_v=psi_v,
        psi_e=dict(t.psi_e),
        polytope_ids=t.polytope_ids,
    )


# ---------------------------------------------------------------------------
# template builders


def build_template(dimension, vertex_polytopes, edge_list):
    """Assemble a template from {vid: polytope} and (eid, u, v, fu, fv) rows."""
    vertices = tuple(vertex_polytopes)
    edges = tuple(row[0] for row in edge_list)
    incidence = {row[0]: (row[1], row[2]) for row in edge_list}
    psi_e = {row[0]: (row[3], row[4]) for row in edge_list}
    graph = TemplateGraph(vertices=vertices, edges=edges, incidence=incidence)
    return OrigamiTemplate(
        dimension=dimension,
        graph=graph,
        psi_v=dict(vertex_polytopes),
        psi_e=psi_e,
    )


def box_polytope(bounds):
    """Axis box from ((lo, hi), ...); facet 2j is the min side of axis j."""
    n = len(bounds)
    halves = []
    for j, (lo, hi) in enumerate(bounds):
        if not lo < hi:
            raise ValueError("empty box side")
        minus = tuple(-1 if i == j else 0 for i in range(n))
        plus = tuple(1 if i == j else 0 for i in range(n))
        halves.append(HalfSpace(normal=minus, offset=-lo))
        halves.append(HalfSpace(normal=plus, offset=hi))
    return DelzantPolytope(n, halves)


SQUARE_PYRAMID_HALFSPACES = (
    HalfSpace(normal=(0, 0, -1), offset=0),
    HalfSpace(normal=(-1, 0, 1), offset=0),
    HalfSpace(normal=(1, 0, 1), offset=1),
    HalfSpace(normal=(0, -1, 1), offset=0),
    HalfSpace(normal=(0, 1, 1), offset=1),
)

# the triangle x, y >= 0, x + y <= 1 times 0 <= z <= 1: its three side
# normals are coplanar, with no two of them parallel
TRIANGULAR_PRISM_HALFSPACES = (
    HalfSpace(normal=(-1, 0, 0), offset=0),
    HalfSpace(normal=(0, -1, 0), offset=0),
    HalfSpace(normal=(1, 1, 0), offset=1),
    HalfSpace(normal=(0, 0, -1), offset=0),
    HalfSpace(normal=(0, 0, 1), offset=1),
)

# |x| + |y| + |z| <= 1: every vertex lies on four facets
OCTAHEDRON_HALFSPACES = tuple(
    HalfSpace(normal=(a, b, c), offset=1) for a in (1, -1) for b in (1, -1) for c in (1, -1)
)


def twisted_box_halfspaces(rng, n):
    """The halfspaces of a random box in dimension n under a random GL_n(Z) map and shift."""
    bounds = []
    for _ in range(n):
        lo = rng.randint(-3, 2)
        bounds.append((lo, lo + rng.randint(1, 3)))
    box = box_polytope(bounds)
    if n:
        shift = tuple(rng.randint(-2, 2) for _ in range(n))
        box = apply_unimodular(box, random_unimodular(rng, n), shift)
    return box.halfspaces


def dropped_halfspace_inputs(seeds):
    """(label, dimension, halfspaces) with one halfspace dropped in turn.

    From a twisted box for each n = 0..4 and seed (n = 0 has nothing to
    drop) and from the square pyramid, whose apex lies on four facets.
    """
    bases = [
        (f"box:n{n}:s{seed}", n, twisted_box_halfspaces(random.Random(100 * n + seed), n))
        for n in range(5)
        for seed in seeds
    ]
    bases.append(("pyramid", 3, SQUARE_PYRAMID_HALFSPACES))
    return [
        (f"{label}:drop{i}", n, halves[:i] + halves[i + 1 :])
        for label, n, halves in bases
        for i in range(len(halves))
    ]


def box_path_template(rng, n=None, length=None, twist=True):
    """The hypercube-doubling generator: a path of boxes glued along one axis.

    All boxes share their cross-section; along the glue axis consecutive
    boxes share alternating upper/lower bounds, so neighbors superimpose
    near each fold.  Facet 2k (min) or 2k+1 (max) is the fold on axis k.
    """
    if n is None:
        n = rng.randint(1, 3)
    if length is None:
        length = rng.randint(1, 6)
    axis = rng.randrange(n)
    section = []
    for j in range(n):
        lo = rng.randint(-3, 2)
        section.append((lo, lo + rng.randint(1, 3)))
    lo0 = rng.randint(-3, 2)
    ranges = [(lo0, lo0 + rng.randint(1, 3))]
    sides = []
    share_max = rng.random() < 0.5
    for _ in range(length - 1):
        prev_lo, prev_hi = ranges[-1]
        if share_max:
            ranges.append((prev_hi - rng.randint(1, 3), prev_hi))
        else:
            ranges.append((prev_lo, prev_lo + rng.randint(1, 3)))
        sides.append(share_max)
        share_max = not share_max
    vertex_polytopes = {}
    for i, rng_k in enumerate(ranges):
        bounds = list(section)
        bounds[axis] = rng_k
        vertex_polytopes[f"v{i}"] = box_polytope(bounds)
    edge_list = []
    for i in range(length - 1):
        facet = 2 * axis + 1 if sides[i] else 2 * axis
        edge_list.append((f"e{i}", f"v{i}", f"v{i + 1}", facet, facet))
    t = build_template(n, vertex_polytopes, edge_list)
    if twist and rng.random() < 0.5:
        mat = random_unimodular(rng, n)
        shift = tuple(rng.randint(-2, 2) for _ in range(n))
        t = transform_template(t, mat, shift)
    return t


HEXAGON_HALFSPACES = (
    HalfSpace(normal=(-1, 0), offset=0),
    HalfSpace(normal=(0, -1), offset=0),
    HalfSpace(normal=(1, 0), offset=2),
    HalfSpace(normal=(0, 1), offset=2),
    HalfSpace(normal=(-1, -1), offset=-1),
    HalfSpace(normal=(1, 1), offset=3),
)

# three pairwise disjoint facets of the hexagon, usable as folds at one vertex
HEXAGON_FOLD_CLASSES = (1, 5, 0)


def hexagon_polytope():
    return DelzantPolytope(2, HEXAGON_HALFSPACES)


def hexagon_cycle_template(length):
    """A cycle of identical smooth hexagons; works for even and odd lengths.

    Consecutive folds at one hexagon must be disjoint, i.e. distinct fold
    classes; the coloring 0,1,0,1,... patched to ...,2 at the closing edge
    is a proper edge coloring of any cycle of length >= 3.
    """
    if length < 3:
        raise ValueError("cycle needs at least 3 polytopes")
    colors = [i % 2 for i in range(length)]
    if length % 2:
        colors[-1] = 2
    hexagon = hexagon_polytope()
    vertex_polytopes = {f"v{i}": hexagon for i in range(length)}
    edge_list = []
    for i in range(length):
        facet = HEXAGON_FOLD_CLASSES[colors[i]]
        edge_list.append((f"e{i}", f"v{i}", f"v{(i + 1) % length}", facet, facet))
    return build_template(2, vertex_polytopes, edge_list)


def hexagon_tree_template(rng, size=None):
    """A random tree of identical hexagons with fold classes kept disjoint."""
    if size is None:
        size = rng.randint(1, 6)
    hexagon = hexagon_polytope()
    vertex_polytopes = {"v0": hexagon}
    used = {"v0": set()}
    edge_list = []
    for i in range(1, size):
        candidates = [v for v in used if len(used[v]) < 3]
        parent = rng.choice(candidates)
        color = rng.choice(sorted({0, 1, 2} - used[parent]))
        vid = f"v{i}"
        vertex_polytopes[vid] = hexagon
        used[parent].add(color)
        used[vid] = {color}
        facet = HEXAGON_FOLD_CLASSES[color]
        edge_list.append((f"e{i}", parent, vid, facet, facet))
    return build_template(2, vertex_polytopes, edge_list)


def surgery_templates():
    """(label, template): the acyclic corpus templates, box paths for
    n = 2..4 and hexagon trees of 2 to 12, 120 templates whose leaves can
    be cut."""
    out = [(name, load_corpus(name)) for name in corpus_names()]
    out = [(label, t) for label, t in out if t.graph.is_acyclic()]
    rng = random.Random(29)
    for k in range(28):
        n = 2 + k % 3
        out.append((f"box:n{n}:{k}", box_path_template(rng, n=n, length=rng.randint(2, 4))))
    for k in range(len(out), 120):
        out.append((f"hexagon:{k}", hexagon_tree_template(rng, 2 + k % 11)))
    return out


def rescale_template(t, factor, shift):
    """The template's image under x -> factor * x + shift, factor > 0.

    A homothety and a translation carry folds to folds and keep every
    polytope's normals, so validity and the moment graph's weights are
    kept; rational factors and shifts give vertices of mixed denominators.
    """
    images = {}
    psi_v = {}
    for vid in t.graph.vertices:
        p = t.polytope(vid)
        if p not in images:
            images[p] = DelzantPolytope(
                p.dimension,
                [
                    HalfSpace(h.normal, factor * h.offset + sum(map(mul, h.normal, shift)))
                    for h in p.halfspaces
                ],
            )
        psi_v[vid] = images[p]
    return OrigamiTemplate(t.dimension, t.graph, psi_v, t.psi_e, t.polytope_ids)


def box_even_cycle_template():
    """A fixed 4-cycle of boxes sharing alternate bounds along axis 0."""
    ranges = ((0, 2), (1, 2), (1, 3), (0, 3))
    vertex_polytopes = {
        f"v{i}": box_polytope((r, (0, 1))) for i, r in enumerate(ranges)
    }
    edge_list = [
        ("e0", "v0", "v1", 1, 1),
        ("e1", "v1", "v2", 0, 0),
        ("e2", "v2", "v3", 1, 1),
        ("e3", "v3", "v0", 0, 0),
    ]
    return build_template(2, vertex_polytopes, edge_list)


# ---------------------------------------------------------------------------
# file text


def oracle_serialize(t):
    """The pinned file text of a template, from its accessors and `json.dumps`.

    Polytopes are named in graph-vertex order: equal polytopes share the
    first name, a vertex's recorded polytope id is kept unless it is empty
    or taken, and otherwise the least unused "p<k>" is chosen.  Offsets are
    ints or "p/q" strings.
    """
    names = {}
    for vid in t.graph.vertices:
        p = t.polytope(vid)
        if p in names:
            continue
        hint = t.polytope_ids.get(vid)
        taken = set(names.values())
        if not hint or hint in taken:
            hint = next(f"p{k}" for k in itertools.count() if f"p{k}" not in taken)
        names[p] = hint
    data = {
        "dimension": t.dimension,
        "polytopes": [
            {
                "id": name,
                "halfspaces": [
                    {
                        "normal": list(h.normal),
                        "offset": h.offset.numerator
                        if h.offset.denominator == 1
                        else f"{h.offset.numerator}/{h.offset.denominator}",
                    }
                    for h in p.halfspaces
                ],
            }
            for p, name in names.items()
        ],
        "vertices": [{"id": vid, "polytope": names[t.polytope(vid)]} for vid in t.graph.vertices],
        "edges": [
            {"id": eid, "ends": list(t.graph.ends(eid)), "facets": list(t.edge_facets(eid))}
            for eid in t.graph.edges
        ],
    }
    return json.dumps(data, indent=2) + "\n"


# ---------------------------------------------------------------------------
# synthetic moment graphs


def random_moment_graph(rng, n=None):
    """A synthetic moment graph with random endpoints and nonzero weights."""
    if n is None:
        n = rng.randint(1, 2)
    count = rng.randint(2, 5)
    fps = tuple(
        FixedPoint(
            vertex_id=f"p{i}",
            point=tuple(Fraction(i) for _ in range(n)),
            key=f"p{i}:0",
        )
        for i in range(count)
    )
    edges = []
    for j in range(rng.randint(1, 5)):
        a, b = rng.sample(range(count), 2)
        while True:
            weight = tuple(rng.randint(-3, 3) for _ in range(n))
            if any(weight):
                break
        edges.append(
            GkmEdge(
                endpoints=(fps[a], fps[b]),
                weight=weight,
                chain=(),
                folded=bool(rng.randint(0, 1)),
            )
        )
    return MomentGraph(fixed_points=fps, edges=tuple(edges), dimension=n)


def constraint_row_graphs(seed=97):
    """Moment graphs of every shape the class-space solver meets: random
    graphs (n = 1..3), box paths (n = 2..4) and hexagon trees."""
    rng = random.Random(seed)
    graphs = [random_moment_graph(rng, n) for n in (1, 2, 3) for _ in range(6)]
    graphs += [
        moment_graph(box_path_template(rng, n, rng.randint(1, 5 - n))) for n in (2, 3, 4) for _ in range(3)
    ]
    graphs += [moment_graph(hexagon_tree_template(rng, rng.randint(2, 8))) for _ in range(4)]
    # x_3 restricts to (1, 1, 1)^perp as -(y_1 + y_2), and l_e of the forest
    # weight (1, -1, 0) there is y_1 - y_2: the y_1 y_2 terms of their product cancel
    a, b = (FixedPoint(f"p{i}", (Fraction(i),) * 3, f"p{i}:0") for i in range(2))
    edges = tuple(GkmEdge((a, b), w, (), False) for w in ((1, -1, 0), (1, 1, 1)))
    graphs.append(MomentGraph(fixed_points=(a, b), edges=edges, dimension=3))
    return graphs


def _oracle_joint_system(g, degree):
    """Rows of the joint (f, g) divisibility system, its column count, and
    the number of f unknowns (the first columns, fixed point by monomial)."""
    from toric_origami.cohomology import monomial_basis

    n = g.dimension
    basis_d = monomial_basis(n, degree)
    basis_lower = monomial_basis(n, degree - 1) if degree >= 1 else ()
    k = len(g.fixed_points)
    nf = k * len(basis_d)
    ng = len(g.edges) * len(basis_lower)
    ncols = nf + ng
    index = {fp: i for i, fp in enumerate(g.fixed_points)}
    rows = []
    for ei, e in enumerate(g.edges):
        p, q = (index[fp] for fp in e.endpoints)
        for mi, mono in enumerate(basis_d):
            row = [Fraction(0)] * ncols
            row[p * len(basis_d) + mi] += 1
            row[q * len(basis_d) + mi] -= 1
            for ni, nu in enumerate(basis_lower):
                for axis, coeff in enumerate(e.weight):
                    if not coeff:
                        continue
                    shifted = tuple(
                        c + (1 if i == axis else 0) for i, c in enumerate(nu)
                    )
                    if shifted == mono:
                        row[nf + ei * len(basis_lower) + ni] -= coeff
            rows.append(row)
    return rows, ncols, nf


def oracle_gkm_dimension(g, degree):
    """Dense divisibility solver: auxiliary quotient unknowns, no substitution.

    f_p - f_q is divisible by alpha iff f_p - f_q = alpha * g_e for some
    polynomial g_e of one degree less.  The joint (f, g) solution space
    has the same dimension as the f solution space, because each g_e is
    uniquely determined by f (a nonzero linear form is not a zero divisor),
    so the nullity of the joint system is the answer.
    """
    rows, ncols, _ = _oracle_joint_system(g, degree)
    if ncols == 0:
        return 0
    return oracle_nullity(rows, ncols)


def oracle_generator_degrees(g, max_degree):
    """Generator degrees by definition: in each degree d, the class-space
    dimension minus the rank of every monomial multiple of every class of
    every lower degree.

    Class bases are kernels of the joint system of `oracle_gkm_dimension`,
    projected onto the f unknowns (the projection is injective there).
    """
    from toric_origami.cohomology import monomial_basis

    n = g.dimension
    points = len(g.fixed_points)
    bases = []
    out = []
    for d in range(max_degree + 1):
        rows, ncols, nf = _oracle_joint_system(g, d)
        bases.append([vec[:nf] for vec in oracle_kernel_basis(rows, ncols)])
        index = {m: i for i, m in enumerate(monomial_basis(n, d))}
        products = []
        for d0 in range(d):
            src = monomial_basis(n, d0)
            for mono in monomial_basis(n, d - d0):
                for vec in bases[d0]:
                    row = [Fraction(0)] * nf
                    for p in range(points):
                        for j, m in enumerate(src):
                            target = tuple(a + b for a, b in zip(m, mono))
                            row[p * len(index) + index[target]] = vec[p * len(src) + j]
                    products.append(row)
        count = len(bases[d]) - (oracle_rank(products, nf) if products else 0)
        if count:
            out.append((d, count))
    return tuple(out)


# ---------------------------------------------------------------------------
# tiny polynomial oracle (for membership verification)


def poly_mul(p, q):
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, Fraction(0)) + Fraction(c1) * Fraction(c2)
    return {e: c for e, c in out.items() if c}


def poly_sub(p, q):
    out = {e: Fraction(c) for e, c in p.items()}
    for e, c in q.items():
        out[e] = out.get(e, Fraction(0)) - Fraction(c)
    return {e: c for e, c in out.items() if c}


def linear_poly(alpha):
    n = len(alpha)
    return {
        tuple(1 if i == j else 0 for i in range(n)): Fraction(alpha[j])
        for j in range(n)
        if alpha[j]
    }
