"""Command line interface.

Exit codes form the contract: 0 success, 1 the input fails validation
(or another geometric error), 2 the input is fine but outside the class
the subcommand supports, 3 the file cannot be parsed or an IO error
occurs (also bad usage).
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from .cohomology import betti_numbers, hilbert_function
from .exceptions import (
    NoFixedPoints,
    NotALeaf,
    OrigamiError,
    ParseError,
    Unsupported,
)
from .fileformat import load_path, serialize
from .gkm import export_dot, fixed_points, format_point, moment_graph
from .template import OrigamiTemplate, TemplateGraph

_PALETTE = ("#3366bb", "#bb4433", "#339966", "#996633", "#663399", "#999933")


def _cmd_validate(args) -> int:
    t = load_path(args.file)
    report = t.validate()
    print(report.summary())
    return 0 if report.valid else 1


def _cmd_info(args) -> int:
    t = load_path(args.file)
    report = t.validate()
    print(f"dimension: {t.dimension}")
    print(f"polytopes: {len(t.distinct_polytopes())}")
    print(f"vertices: {len(t.graph.vertices)}")
    print(f"edges: {len(t.graph.edges)}")
    print(f"valid: {'yes' if report.valid else 'no'}")
    print(f"acyclic: {'yes' if report.acyclic else 'no'}")
    print(f"coorientable: {'yes' if report.coorientable else 'no'}")
    if report.orientable is None:
        print("orientable: n/a")
    else:
        print(f"orientable: {'yes' if report.orientable else 'no'}")
    if report.valid and report.coorientable:
        print(f"fixed points: {len(fixed_points(t))}")
    else:
        print("fixed points: n/a")
    return 0


def _cmd_gkm(args) -> int:
    t = load_path(args.file)
    g = moment_graph(t)
    print(f"fixed points: {len(g.fixed_points)}")
    for fp in g.fixed_points:
        print(f"  {fp.key} at {format_point(fp.point)}")
    print(f"edges: {len(g.edges)}")
    for e in g.edges:
        a, b = e.endpoints
        kind = "folded" if e.folded else "straight"
        print(f"  {a.key} -- {b.key}  weight {format_point(e.weight)}  {kind}")
    if args.dot:
        Path(args.dot).write_text(export_dot(g), encoding="utf-8")
        print(f"wrote {args.dot}")
    return 0


def _cmd_betti(args) -> int:
    t = load_path(args.file)
    g = moment_graph(t)
    print(str(betti_numbers(g, t.dimension)))
    return 0


def _cmd_hilbert(args) -> int:
    t = load_path(args.file)
    g = moment_graph(t)
    max_degree = args.max_degree if args.max_degree is not None else t.dimension
    print(str(hilbert_function(g, max_degree)))
    return 0


def _solo_template(polytope, vid: str, pid: str) -> OrigamiTemplate:
    graph = TemplateGraph(vertices=(vid,), edges=(), incidence={})
    return OrigamiTemplate(
        dimension=polytope.dimension,
        graph=graph,
        psi_v={vid: polytope},
        psi_e={},
        polytope_ids={vid: pid},
    )


def _cmd_cut(args) -> int:
    t = load_path(args.file)
    result = t.cut_leaf(args.leaf)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    pieces = (
        ("c_plus.json", serialize(result.c_plus)),
        (
            "c_minus.json",
            serialize(_solo_template(result.c_minus, result.leaf_vertex, "c_minus")),
        ),
        ("b.json", serialize(_solo_template(result.b, "b", "fold_facet"))),
    )
    for name, text in pieces:
        target = out / name
        target.write_text(text, encoding="utf-8")
        print(f"wrote {target}")
    return 0


def _polygon_order(points) -> list:
    cx = sum(x for x, _ in points) / len(points)
    cy = sum(y for _, y in points) / len(points)
    return sorted(points, key=lambda p: math.atan2(p[1] - cy, p[0] - cx))


class _PastFloatRange(Exception):
    """A drawn coordinate, or the drawing's width or height, is not a finite float."""


def _render_svg(t: OrigamiTemplate, explode: float) -> str:
    vids = t.graph.vertices
    shift = {}
    for idx, vid in enumerate(vids):
        angle = 2 * math.pi * idx / len(vids)
        shift[vid] = (explode * math.cos(angle), explode * math.sin(angle))
    corners = {}
    for vid in vids:
        dx, dy = shift[vid]
        try:
            corners[vid] = [
                (float(x) + dx, float(y) + dy) for x, y in t.polytope(vid).vertices
            ]
        except OverflowError:  # a Fraction past the float range
            raise _PastFloatRange from None
    xs = [x for pts in corners.values() for x, _ in pts]
    ys = [y for pts in corners.values() for _, y in pts]
    pad = 0.5
    scale = 120.0
    minx, maxx = min(xs) - pad, max(xs) + pad
    miny, maxy = min(ys) - pad, max(ys) + pad

    def pix(x, y):
        point = (x - minx) * scale, (maxy - y) * scale
        if not all(map(math.isfinite, point)):
            raise _PastFloatRange
        return point

    width, height = pix(maxx, miny)
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {width:.3f} {height:.3f}">',
        f'<rect width="{width:.3f}" height="{height:.3f}" fill="white"/>',
    ]
    for idx, vid in enumerate(vids):
        color = _PALETTE[idx % len(_PALETTE)]
        ordered = _polygon_order(corners[vid])
        pts = " ".join(f"{px:.3f},{py:.3f}" for px, py in (pix(x, y) for x, y in ordered))
        lines.append(
            f'<polygon points="{pts}" fill="{color}" fill-opacity="0.2" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        cx = sum(x for x, _ in corners[vid]) / len(corners[vid])
        cy = sum(y for _, y in corners[vid]) / len(corners[vid])
        px, py = pix(cx, cy)
        lines.append(
            f'<text x="{px:.3f}" y="{py:.3f}" font-family="sans-serif" '
            f'font-size="16" text-anchor="middle" fill="{color}">{vid}</text>'
        )
    for eid in t.graph.edges:
        u, v = t.graph.ends(eid)
        fu, fv = t.edge_facets(eid)
        for vid, facet in ((u, fu), (v, fv)):
            p = t.polytope(vid)
            seg = sorted(p.facet_vertex_sets[facet])
            if len(seg) != 2:
                raise Unsupported("render expects polygon facets to be segments")
            dx, dy = shift[vid]
            (ax, ay), (bx, by) = (
                (float(x) + dx, float(y) + dy) for x, y in seg
            )
            (apx, apy), (bpx, bpy) = pix(ax, ay), pix(bx, by)
            lines.append(
                f'<line x1="{apx:.3f}" y1="{apy:.3f}" x2="{bpx:.3f}" y2="{bpy:.3f}" '
                f'stroke="#222222" stroke-width="3" stroke-dasharray="8 6"/>'
            )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def _farthest_vertex(t: OrigamiTemplate) -> str:
    """The first template vertex whose polytope has a coordinate of largest size."""
    return max(
        t.graph.vertices,
        key=lambda vid: max(abs(c) for point in t.polytope(vid).vertices for c in point),
    )


def _cmd_render(args) -> int:
    t = load_path(args.file)
    if t.dimension != 2:
        raise Unsupported("render supports 2-dimensional templates only")
    try:
        svg = _render_svg(t, explode=args.explode)
    except _PastFloatRange:
        # blame --explode only when the template can be drawn without it
        try:
            _render_svg(t, explode=0.0)
        except _PastFloatRange:
            raise Unsupported(
                f"render: the polytope of template vertex {_farthest_vertex(t)} "
                "cannot be drawn within the float range"
            ) from None
        print(f"error: argument --explode: at {args.explode} the drawing passes the float range",
              file=sys.stderr)
        return 3
    Path(args.svg).write_text(svg, encoding="utf-8")
    print(f"wrote {args.svg}")
    return 0


def _checked(convert, test, requirement):
    """An argparse type: `convert` the text, then refuse values failing `test`."""

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            # argparse's own wording for type=int or float, which would name `parse` here
            message = f"invalid {convert.__name__} value: {text!r}"
            raise argparse.ArgumentTypeError(message) from None
        if not test(value):
            raise argparse.ArgumentTypeError(f"must be {requirement}, got {value}")
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toric-origami",
        description="Inspect and transform origami templates of toric manifolds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check the gluing conditions and report")
    p.add_argument("file")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("info", help="print size, flags, and fixed point count")
    p.add_argument("file")
    p.set_defaults(func=_cmd_info)

    p = sub.add_parser("gkm", help="print the moment graph; optionally export DOT")
    p.add_argument("file")
    p.add_argument("--dot", help="write the graph as DOT to this path")
    p.set_defaults(func=_cmd_gkm)

    p = sub.add_parser("betti", help="print even Betti numbers")
    p.add_argument("file")
    p.set_defaults(func=_cmd_betti)

    p = sub.add_parser("hilbert", help="print class space dimensions by degree")
    p.add_argument("file")
    p.add_argument("--max-degree", default=None,
                   type=_checked(int, lambda v: v >= 0, "nonnegative"))
    p.set_defaults(func=_cmd_hilbert)

    p = sub.add_parser("cut", help="cut a leaf; write c_plus, c_minus, and b")
    p.add_argument("file")
    p.add_argument("--leaf", required=True, help="template vertex id to cut")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_cut)

    p = sub.add_parser("render", help="draw a 2-dimensional template as SVG")
    p.add_argument("file")
    p.add_argument("--svg", required=True, help="output path")
    p.add_argument("--explode", type=_checked(float, math.isfinite, "finite"), default=0.0,
                   help="pull superimposed polytopes apart by this distance")
    p.set_defaults(func=_cmd_render)

    return parser


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if not exc.code else 3
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 3
    except (Unsupported, NoFixedPoints, NotALeaf) as exc:
        print(f"unsupported: {exc}", file=sys.stderr)
        return 2
    except OrigamiError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
