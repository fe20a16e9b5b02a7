"""The four request lists and the checks applied to every response.

Each builder takes the seed and returns the fixed, ordered list of requests
for one pass.  Everything a builder does counts as set-up; each request's
`call` is the timed work and its `check` runs afterwards, untimed.  Checks
compare against closed forms that follow from the mathematics, never
against another route through the package:

* a box path in dimension n has even Betti numbers C(n, k), 2^n fixed
  points, n 2^(n-1) moment-graph edges, 3^n orbit-space faces and
  2n 3^(n-1) covering relations;
* a tree of m hexagons has Betti numbers (1, 2m+2, 1), 2m+4 fixed points,
  2m+4 edges, 4m+9 faces and 6m+12 covering relations;
* a free class module has Hilbert function
  h_d = sum_k b_2k C(d-k+n-1, n-1), and its generators sit in the degrees
  of the nonzero Betti numbers;
* cutting a leaf and blowing it back up rebuilds the template up to the
  names of the leaf and its edge, and fp(T) = fp(C+) + |C-| - 2 |B| counts
  fixed points across the cut.

The package is called through its modules' attributes (`gkm.moment_graph`,
not a name imported once), so the traced run sees every call it wraps.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

from toric_origami import cohomology, fileformat, gkm, template

from inputs import box_path, hexagon_tree


@dataclass(frozen=True)
class Request:
    label: str
    call: Callable[[], object]
    check: Callable[[object], bool]


def expected_betti(spec) -> tuple:
    if spec.kind == "box":
        return tuple(math.comb(spec.size, k) for k in range(spec.size + 1))
    return (1, 2 * spec.size + 2, 1)


def expected_fixed_points(spec) -> int:
    return 2**spec.size if spec.kind == "box" else 2 * spec.size + 4


def expected_edges(spec) -> int:
    return spec.size * 2 ** (spec.size - 1) if spec.kind == "box" else 2 * spec.size + 4


def expected_faces_and_covers(spec) -> tuple:
    if spec.kind == "box":
        n = spec.size
        return 3**n, 2 * n * 3 ** (n - 1)
    m = spec.size
    return 4 * m + 9, 6 * m + 12


def free_hilbert(betti, n, max_degree) -> tuple:
    """Hilbert function of a free module over n variables with these generators."""
    return tuple(
        sum(b * math.comb(d - k + n - 1, n - 1) for k, b in enumerate(betti) if k <= d)
        for d in range(max_degree + 1)
    )


def _label(spec) -> str:
    return f"box{spec.size}" if spec.kind == "box" else f"hex{spec.size}"


# -- classes -------------------------------------------------------------------


def _class_requests(spec, g, calls=("betti", "hilbert", "generators")):
    n = spec.dimension
    betti = expected_betti(spec)
    hilbert = free_hilbert(betti, n, n + 1)
    generators = tuple((k, b) for k, b in enumerate(betti) if b)
    table = {
        "betti": (lambda: cohomology.betti_numbers(g), betti),
        "hilbert": (lambda: cohomology.hilbert_function(g, n + 1), hilbert),
        "generators": (lambda: cohomology.generator_degrees(g), generators),
    }
    out = []
    for name in calls:
        call, want = table[name]
        out.append(Request(f"{name} {_label(spec)}", call, lambda got, want=want: tuple(got) == want))
    return out


def class_graphs(seed):
    """(spec, moment graph) for each input of `classes`, built in set-up.

    A 4-cube path, hexagon trees of 20 and 40, and 31 3-cube paths.  Box
    twists here are signed permutations only, so the weights are unit
    vectors on every seed: a shear makes them denser and the exact
    elimination slower by an amount that depends on the seed.
    """
    rng = random.Random(seed)
    specs = [box_path(rng, 4, 2, shears=0), hexagon_tree(rng, 20), hexagon_tree(rng, 40)]
    specs += [box_path(rng, 3, 3, shears=0) for _ in range(31)]
    return [(spec, gkm.moment_graph(spec.build())) for spec in specs]


def classes(seed):
    """Class-space queries on prebuilt moment graphs.

    One pass of 100 requests: Betti numbers of the 4-cube path, and Betti
    numbers, Hilbert function and generator degrees of every other graph.
    """
    cube4, hex20, hex40, *cubes3 = class_graphs(seed)
    out = _class_requests(*cube4, calls=("betti",))
    for i, (spec, g) in enumerate(cubes3):
        out += _class_requests(spec, g)
        if i == 10:
            out += _class_requests(*hex20)
        if i == 20:
            out += _class_requests(*hex40)
    return out


# -- poset -----------------------------------------------------------------------


def _poset_check(spec):
    faces, covers = expected_faces_and_covers(spec)

    def check(dot):
        lines = dot.splitlines()
        return (
            lines[0] == "digraph face_poset {"
            and sum(1 for line in lines if "[label=" in line) == faces
            and sum(1 for line in lines if " -> " in line) == covers
        )

    return check


def poset(seed):
    """Face-poset DOT of templates built here, in set-up.

    One pass: a 4-cube path of three boxes (81 faces), eight 3-cube paths
    of three boxes (27 faces) and hexagon trees of 10, 12, ..., 30
    (49 to 129 faces).
    """
    rng = random.Random(seed)
    specs = [box_path(rng, 4, 3)] + [box_path(rng, 3, 3) for _ in range(8)]
    specs += [hexagon_tree(rng, m) for m in range(10, 31, 2)]
    out = []
    for spec in specs:
        t = spec.build()
        out.append(Request(f"dot {_label(spec)}", lambda t=t: fileformat.face_poset_dot(t), _poset_check(spec)))
    return out


# -- ingest ------------------------------------------------------------------------


def _ingest(text):
    t = fileformat.parse(text)
    report = t.validate()
    g = gkm.moment_graph(t)
    return report.valid, g, fileformat.serialize(t)


def _ingest_check(spec, text):
    n = spec.dimension

    def check(out):
        valid, g, written = out
        degree = {fp: 0 for fp in g.fixed_points}
        for e in g.edges:
            for fp in e.endpoints:
                degree[fp] += 1
        return (
            valid
            and written == text
            and len(g.fixed_points) == expected_fixed_points(spec)
            and len(g.edges) == expected_edges(spec)
            and all(d == n for d in degree.values())
        )

    return check


def ingest(seed):
    """JSON text through parse, validate, moment_graph and serialize.

    One pass: four 2-cube paths of six boxes, four 3-cube paths of four,
    four 4-cube paths of three (a distinct polytope per vertex), and
    hexagon trees of 20, 30, ..., 80 (one shared polytope definition).
    The four 4-cube paths are the slowest fifth of the pass, so the 90th
    percentile falls inside one kind of request, not between two.
    """
    rng = random.Random(seed)
    specs = [box_path(rng, 2, 6) for _ in range(4)]
    specs += [box_path(rng, 3, 4) for _ in range(4)]
    specs += [box_path(rng, 4, 3) for _ in range(4)]
    specs += [hexagon_tree(rng, m) for m in range(20, 81, 10)]
    out = []
    for spec in specs:
        text = spec.to_json()
        out.append(Request(f"ingest {_label(spec)}", lambda text=text: _ingest(text), _ingest_check(spec, text)))
    return out


# -- surgery -------------------------------------------------------------------------


def _surgery(t, leaf):
    cut = t.cut_leaf(leaf)
    rebuilt = template.radial_blow_up(
        cut.c_plus, cut.c_minus, cut.attach_vertex, cut.attach_facet, cut.leaf_facet
    )
    return cut, rebuilt, template.isomorphic(rebuilt, t)


def _same_up_to_renaming(t, rebuilt, leaf) -> bool:
    """Field-by-field equality once the leaf and its edge take their new names."""
    (new_vertex,) = set(rebuilt.graph.vertices) - set(t.graph.vertices)
    (new_edge,) = set(rebuilt.graph.edges) - set(t.graph.edges)
    (leaf_edge,) = [e for e in t.graph.edges if leaf in t.graph.ends(e)]
    vname = {v: (new_vertex if v == leaf else v) for v in t.graph.vertices}
    ename = {e: (new_edge if e == leaf_edge else e) for e in t.graph.edges}

    def ends_with_facets(tt, eid):
        return sorted(zip(tt.graph.ends(eid), tt.edge_facets(eid)))

    return (
        rebuilt.dimension == t.dimension
        and set(rebuilt.graph.vertices) == set(vname.values())
        and set(rebuilt.graph.edges) == set(ename.values())
        and all(rebuilt.polytope(vname[v]) == t.polytope(v) for v in t.graph.vertices)
        and all(
            ends_with_facets(rebuilt, ename[e])
            == sorted((vname[w], f) for w, f in ends_with_facets(t, e))
            for e in t.graph.edges
        )
    )


def _surgery_check(spec, t, leaf):
    def check(out):
        cut, rebuilt, iso = out
        fp_plus = len(gkm.fixed_points(cut.c_plus))
        return (
            iso is True
            and _same_up_to_renaming(t, rebuilt, leaf)
            and expected_fixed_points(spec)
            == fp_plus + len(cut.c_minus.vertices) - 2 * len(cut.b.vertices)
        )

    return check


def surgery(seed):
    """Cut the last leaf, blow it back up, and compare with the original.

    One pass: four 2-cube paths of four boxes, four 3-cube paths of three,
    four 4-cube paths of three (the slowest fifth of the pass), and
    hexagon trees of 5 to 12.  The leaf cut is the last vertex, where
    `isomorphic` finds the identity first; cutting an inner leaf of a tree
    of identical hexagons sends it into an exponential search, which this
    workload leaves out on purpose.
    """
    rng = random.Random(seed)
    specs = [box_path(rng, 2, 4) for _ in range(4)]
    specs += [box_path(rng, 3, 3) for _ in range(4)]
    specs += [box_path(rng, 4, 3) for _ in range(4)]
    specs += [hexagon_tree(rng, m) for m in range(5, 13)]
    out = []
    for spec in specs:
        t = spec.build()
        t.validate()
        leaf = spec.vertices[-1][0]
        out.append(Request(f"surgery {_label(spec)}", lambda t=t, leaf=leaf: _surgery(t, leaf), _surgery_check(spec, t, leaf)))
    return out


BUILDERS = {"classes": classes, "poset": poset, "ingest": ingest, "surgery": surgery}
