"""Seeded template generators for the benchmark.

These mirror the box-path and hexagon-tree generators of the test suite but
live here, so that editing the tests cannot change what is measured.  A
generator returns a `Spec`: plain data that can become JSON text (for the
`ingest` workload) or an `OrigamiTemplate` built with the package's own
constructors (for the others).  Sizes are always passed in; the random
source picks only box sections, unimodular twists and tree shapes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from toric_origami import DelzantPolytope, HalfSpace, OrigamiTemplate, TemplateGraph


@dataclass(frozen=True)
class Spec:
    """A template as plain data, in the order the JSON file format uses.

    `polytopes` is a tuple of (id, ((normal, offset), ...)) in first-use
    order; `vertices` holds (vertex id, polytope id) pairs; `edges` holds
    (edge id, end u, end v, facet at u, facet at v).  `kind` is "box" or
    "hexagon", and `size` is the box dimension or the hexagon count.
    """

    kind: str
    size: int
    dimension: int
    polytopes: tuple
    vertices: tuple
    edges: tuple

    def to_json(self) -> str:
        """The canonical JSON text: the exact bytes `serialize` writes."""
        data = {
            "dimension": self.dimension,
            "polytopes": [
                {
                    "id": pid,
                    "halfspaces": [
                        {"normal": list(normal), "offset": offset}
                        for normal, offset in halfspaces
                    ],
                }
                for pid, halfspaces in self.polytopes
            ],
            "vertices": [{"id": vid, "polytope": pid} for vid, pid in self.vertices],
            "edges": [
                {"id": eid, "ends": [u, v], "facets": [fu, fv]}
                for eid, u, v, fu, fv in self.edges
            ],
        }
        return json.dumps(data, indent=2) + "\n"

    def build(self) -> OrigamiTemplate:
        """The template, made with the package's constructors (no parsing)."""
        polytopes = {
            pid: DelzantPolytope(
                self.dimension, [HalfSpace(normal, offset) for normal, offset in hs]
            )
            for pid, hs in self.polytopes
        }
        graph = TemplateGraph(
            tuple(vid for vid, _ in self.vertices),
            tuple(e[0] for e in self.edges),
            {eid: (u, v) for eid, u, v, _, _ in self.edges},
        )
        return OrigamiTemplate(
            self.dimension,
            graph,
            {vid: polytopes[pid] for vid, pid in self.vertices},
            {eid: (fu, fv) for eid, _, _, fu, fv in self.edges},
            polytope_ids=dict(self.vertices),
        )


def twist(rng, n, shears):
    """A GL_n(Z) matrix: a signed permutation followed by `shears` unit shears.

    The number and size of the shears is fixed, so that seeds vary the
    coordinates without letting entries, and with them the cost of exact
    arithmetic, change much from one seed to the next.  With no shear the
    moment-graph weights are unit vectors on every seed.
    """
    order = list(range(n))
    rng.shuffle(order)
    mat = [[(rng.choice((-1, 1)) if j == order[i] else 0) for j in range(n)] for i in range(n)]
    for _ in range(shears if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        mat[i] = [a + c * b for a, b in zip(mat[i], mat[j])]
    return mat


def _box_halfspaces(bounds, mat, shift):
    """Halfspaces of an axis box pulled back through x = M z + shift.

    Facet 2j is the lower side of axis j and facet 2j+1 the upper side.
    Normals a become a M, which stays primitive because M is unimodular.
    """
    n = len(bounds)
    out = []
    for j, (lo, hi) in enumerate(bounds):
        for sign, offset in ((-1, -lo), (1, hi)):
            row = [sign * mat[j][k] for k in range(n)]
            out.append((tuple(row), offset - sign * shift[j]))
    return tuple(out)


def box_path(rng, n, length, shears=1):
    """A path of `length` distinct n-dimensional boxes glued along axis 0.

    Neighbours share their upper and lower bound along the axis in turn,
    so they superimpose near each fold.  The seed picks the cross-section,
    the bounds along the axis and the twist.
    """
    section = []
    for _ in range(n):
        lo = rng.randint(-3, 2)
        section.append((lo, lo + rng.randint(1, 3)))
    while True:
        lo0 = rng.randint(-3, 2)
        ranges = [(lo0, lo0 + rng.randint(1, 3))]
        sides = []
        share_max = rng.random() < 0.5
        for _ in range(length - 1):
            lo, hi = ranges[-1]
            if share_max:
                ranges.append((hi - rng.randint(1, 3), hi))
            else:
                ranges.append((lo, lo + rng.randint(1, 3)))
            sides.append(share_max)
            share_max = not share_max
        if len(set(ranges)) == length:
            break
    mat = twist(rng, n, shears)
    shift = tuple(rng.randint(-2, 2) for _ in range(n))
    polytopes = tuple(
        (f"p{i}", _box_halfspaces([r] + section[1:], mat, shift))
        for i, r in enumerate(ranges)
    )
    vertices = tuple((f"v{i}", f"p{i}") for i in range(length))
    edges = tuple(
        (f"e{i}", f"v{i}", f"v{i + 1}", int(up), int(up)) for i, up in enumerate(sides)
    )
    return Spec("box", n, n, polytopes, vertices, edges)


HEXAGON = (
    ((-1, 0), 0),
    ((0, -1), 0),
    ((1, 0), 2),
    ((0, 1), 2),
    ((-1, -1), -1),
    ((1, 1), 3),
)

# three pairwise disjoint facets of the hexagon, usable as folds at one vertex
HEXAGON_FOLDS = (1, 5, 0)


def hexagon_tree(rng, size):
    """A tree of `size` identical hexagons; the seed picks its shape.

    Each new hexagon hangs off a random earlier one that still has a free
    fold class, so fold facets at every vertex stay pairwise disjoint.  The
    last hexagon added is always a leaf.
    """
    used = {"v0": set()}
    edges = []
    for i in range(1, size):
        parent = rng.choice([v for v in used if len(used[v]) < 3])
        color = rng.choice(sorted({0, 1, 2} - used[parent]))
        vid = f"v{i}"
        used[parent].add(color)
        used[vid] = {color}
        facet = HEXAGON_FOLDS[color]
        edges.append((f"e{i}", parent, vid, facet, facet))
    vertices = tuple((f"v{i}", "hexagon") for i in range(size))
    return Spec("hexagon", size, 2, (("hexagon", HEXAGON),), vertices, tuple(edges))
