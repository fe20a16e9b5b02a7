"""Reading and writing templates as JSON, plus bundled corpus access.

The on-disk shape is a single JSON object::

    {
      "dimension": 2,
      "polytopes": [
        {"id": "square",
         "halfspaces": [{"normal": [-1, 0], "offset": 0}, ...]}
      ],
      "vertices": [{"id": "v1", "polytope": "square"}],
      "edges": [{"id": "e1", "ends": ["v1", "v2"], "facets": [2, 2]}]
    }

Normals are integer vectors; offsets are integers or exact "p/q"
strings — floats are rejected, the toolkit never rounds.  Polytope
definitions are shared by id, and `serialize` collapses equal polytopes
back to one definition, so parse/serialize round-trips preserve ids.
`serialize` writes the text itself, laid out exactly as
`json.dumps(data, indent=2)` lays out the same data (one value a line,
two spaces an indent level, `[]` for an empty array), plus a newline.

Structural problems in the JSON raise ParseError with a breadcrumb
location such as ``edges[0].facets``; geometric problems (a normal list
that is not a polytope) propagate as their own typed errors.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from importlib import resources
from json.encoder import encode_basestring_ascii as _string
from pathlib import Path

from .exceptions import ParseError
from .orbit_space import face_poset
from .polytope import DelzantPolytope, HalfSpace
from .template import OrigamiTemplate, TemplateGraph

_RATIONAL_RE = re.compile(r"-?[0-9]+(/[1-9][0-9]*)?")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _need(obj, key, path):
    if not isinstance(obj, dict):
        raise ParseError("expected a JSON object", path)
    if key not in obj:
        raise ParseError(f"missing field '{key}'", path)
    return obj[key]


def _as_list(value, path):
    if not isinstance(value, list):
        raise ParseError("expected a JSON array", path)
    return value


def _as_str(value, path):
    if not isinstance(value, str) or not value:
        raise ParseError("expected a nonempty string", path)
    return value


def _rational(value, path) -> Fraction:
    if _is_int(value):
        return Fraction(value)
    if isinstance(value, float):
        raise ParseError("offsets must be exact; floats are not allowed", path)
    if isinstance(value, str) and _RATIONAL_RE.fullmatch(value):
        try:
            return Fraction(value)
        except ValueError:  # past the interpreter's int string conversion limit
            raise ParseError("number with too many digits", path) from None
    raise ParseError("expected an integer or a 'p/q' string", path)


def parse(text: str) -> OrigamiTemplate:
    """Build a template from JSON text.

    Raises ParseError for structural problems, with the JSON path of the
    offending field; geometry and template errors propagate unchanged.
    """
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            exc.msg, f"line {exc.lineno} column {exc.colno}"
        ) from exc
    except RecursionError:
        raise ParseError("JSON nested too deeply") from None
    except ValueError:  # an integer past the int string conversion limit
        raise ParseError("number with too many digits") from None
    if not isinstance(data, dict):
        raise ParseError("template file must be a JSON object")

    dimension = _need(data, "dimension", "")
    if not _is_int(dimension) or dimension < 0:
        raise ParseError("expected a nonnegative integer", "dimension")

    polytopes = {}
    for i, entry in enumerate(_as_list(_need(data, "polytopes", ""), "polytopes")):
        path = f"polytopes[{i}]"
        pid = _as_str(_need(entry, "id", path), f"{path}.id")
        if pid in polytopes:
            raise ParseError(f"duplicate polytope id '{pid}'", path)
        halfspaces = []
        for j, hs in enumerate(_as_list(_need(entry, "halfspaces", path), f"{path}.halfspaces")):
            hpath = f"{path}.halfspaces[{j}]"
            normal = _as_list(_need(hs, "normal", hpath), f"{hpath}.normal")
            if len(normal) != dimension or not all(_is_int(c) for c in normal):
                raise ParseError(
                    f"expected {dimension} integer entries", f"{hpath}.normal"
                )
            offset = _rational(_need(hs, "offset", hpath), f"{hpath}.offset")
            halfspaces.append(HalfSpace(normal=tuple(normal), offset=offset))
        polytopes[pid] = DelzantPolytope(dimension, halfspaces)

    vertex_ids = []
    psi_v = {}
    polytope_ids = {}
    for i, entry in enumerate(_as_list(_need(data, "vertices", ""), "vertices")):
        path = f"vertices[{i}]"
        vid = _as_str(_need(entry, "id", path), f"{path}.id")
        if vid in psi_v:
            raise ParseError(f"duplicate vertex id '{vid}'", path)
        pid = _as_str(_need(entry, "polytope", path), f"{path}.polytope")
        if pid not in polytopes:
            raise ParseError(f"unknown polytope id '{pid}'", f"{path}.polytope")
        vertex_ids.append(vid)
        psi_v[vid] = polytopes[pid]
        polytope_ids[vid] = pid

    edge_ids = []
    incidence = {}
    psi_e = {}
    for i, entry in enumerate(_as_list(_need(data, "edges", ""), "edges")):
        path = f"edges[{i}]"
        eid = _as_str(_need(entry, "id", path), f"{path}.id")
        if eid in psi_e:
            raise ParseError(f"duplicate edge id '{eid}'", path)
        ends = _as_list(_need(entry, "ends", path), f"{path}.ends")
        if len(ends) != 2 or not all(isinstance(v, str) for v in ends):
            raise ParseError("expected a pair of vertex ids", f"{path}.ends")
        for v in ends:
            if v not in psi_v:
                raise ParseError(f"unknown vertex id '{v}'", f"{path}.ends")
        facets = _as_list(_need(entry, "facets", path), f"{path}.facets")
        if len(facets) != 2 or not all(_is_int(f) for f in facets):
            raise ParseError("expected a pair of facet indices", f"{path}.facets")
        for v, f in zip(ends, facets):
            count = len(psi_v[v].halfspaces)
            if not 0 <= f < count:
                raise ParseError(
                    f"facet index {f} out of range for polytope of '{v}' "
                    f"({count} halfspaces)",
                    f"{path}.facets",
                )
        edge_ids.append(eid)
        incidence[eid] = (ends[0], ends[1])
        psi_e[eid] = (facets[0], facets[1])

    graph = TemplateGraph(
        vertices=tuple(vertex_ids), edges=tuple(edge_ids), incidence=incidence
    )
    return OrigamiTemplate(
        dimension=dimension,
        graph=graph,
        psi_v=psi_v,
        psi_e=psi_e,
        polytope_ids=polytope_ids,
    )


def load_path(path) -> OrigamiTemplate:
    """Read and parse a template file from disk."""
    try:
        return parse(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text ({exc.reason} at byte {exc.start})") from None


# The fixed file shape, laid out as `json.dumps(indent=2)` lays it out: one
# value a line, two spaces an indent level.  Polytopes, vertices and edges
# are items of top-level arrays, halfspaces of a polytope's array.
_HALFSPACE = (
    '{\n          "normal": [\n            %s\n          ],\n          "offset": %s\n        }'
)
_NORMAL_SEP = ",\n            "
_POLYTOPE = '{\n      "id": %s,\n      "halfspaces": %s\n    }'
_VERTEX = '{\n      "id": %s,\n      "polytope": %s\n    }'
_EDGE = (
    '{\n      "id": %s,\n      "ends": [\n        %s,\n        %s\n      ],\n'
    '      "facets": [\n        %d,\n        %d\n      ]\n    }'
)
_TOP = '{\n  "dimension": %d,\n  "polytopes": %s,\n  "vertices": %s,\n  "edges": %s\n}\n'


def _array(items, indent) -> str:
    """Written items as a JSON array: each item on a line indented by
    `indent`, the closing bracket one level less, `[]` when empty."""
    if not items:
        return "[]"
    return "[\n" + indent + (",\n" + indent).join(items) + "\n" + indent[2:] + "]"


def _offset_text(offset: Fraction) -> str:
    if offset.denominator == 1:
        return str(offset.numerator)
    return f'"{offset.numerator}/{offset.denominator}"'


def serialize(t: OrigamiTemplate) -> str:
    """Render a template as stable, human-diffable JSON text.

    Equal polytopes share one definition; ids recorded at parse time are
    reused, so parse/serialize round-trips are the identity on ids.  The
    fixed file shape is written directly, byte for byte as
    `json.dumps(data, indent=2)` writes the same data, plus a newline:
    strings go through the encoder's own escaper, ints through `%d`.
    """
    hints = t.polytope_ids
    assigned = {}
    used = set()
    defs = []
    counter = 0
    for vid in t.graph.vertices:
        p = t.polytope(vid)
        if p in assigned:
            continue
        name = hints.get(vid)
        if not name or name in used:
            name = f"p{counter}"
            while name in used:
                counter += 1
                name = f"p{counter}"
        assigned[p] = name
        used.add(name)
        halfspaces = [
            _HALFSPACE % (_NORMAL_SEP.join(map(str, h.normal)), _offset_text(h.offset))
            for h in p.halfspaces
        ]
        defs.append(_POLYTOPE % (_string(name), _array(halfspaces, " " * 8)))
    vertices = [
        _VERTEX % (_string(vid), _string(assigned[t.polytope(vid)])) for vid in t.graph.vertices
    ]
    edges = [
        _EDGE % (_string(eid), *map(_string, t.graph.ends(eid)), *t.edge_facets(eid))
        for eid in t.graph.edges
    ]
    pad = " " * 4
    return _TOP % (t.dimension, _array(defs, pad), _array(vertices, pad), _array(edges, pad))


def _corpus_entry(name: str):
    """The bundled template resource `name`; FileNotFoundError if absent."""
    candidate = resources.files(__package__) / "corpus" / f"{name}.json"
    if not candidate.is_file():
        raise FileNotFoundError(f"no bundled template named '{name}'")
    return candidate


def corpus_names() -> tuple:
    """Names of the templates bundled with the package."""
    root = resources.files(__package__) / "corpus"
    return tuple(
        sorted(
            entry.name[: -len(".json")]
            for entry in root.iterdir()
            if entry.name.endswith(".json")
        )
    )


def corpus_path(name: str) -> Path:
    """Filesystem path of a bundled template (assumes a normal install)."""
    return Path(str(_corpus_entry(name)))


def load_corpus(name: str) -> OrigamiTemplate:
    """Parse one of the bundled templates by name."""
    return parse(_corpus_entry(name).read_text(encoding="utf-8"))


def face_poset_dot(t: OrigamiTemplate) -> str:
    """DOT digraph of the orbit-space face poset (covering relations)."""
    poset = face_poset(t)
    faces = list(poset)
    lines = ["digraph face_poset {", "  rankdir=BT;"]
    for i, f in enumerate(faces):
        label = f"dim {f.dimension}: {','.join(f.member_vertices())} ({len(f.members)} piece(s))"
        lines.append(f'  f{i} [label="{label}"];')
    for i, j in poset.covers():
        lines.append(f"  f{i} -> f{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"
