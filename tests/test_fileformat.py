"""JSON template files: parsing, breadcrumb errors, stable serialization."""

import gc
import json
import random
import re
from fractions import Fraction

import pytest

from helpers import (
    box_path_template,
    box_polytope,
    build_template,
    hexagon_tree_template,
    oracle_serialize,
    rescale_template,
    stopwatch,
)
from toric_origami.exceptions import NotDelzant, OrigamiError, ParseError
from toric_origami.fileformat import (
    corpus_names,
    corpus_path,
    face_poset_dot,
    load_corpus,
    load_path,
    parse,
    serialize,
)
from toric_origami.template import OrigamiTemplate, TemplateGraph

GOOD = """
{
  "dimension": 1,
  "polytopes": [
    {"id": "seg", "halfspaces": [
      {"normal": [-1], "offset": 0},
      {"normal": [1], "offset": "1/2"}
    ]}
  ],
  "vertices": [
    {"id": "v1", "polytope": "seg"},
    {"id": "v2", "polytope": "seg"}
  ],
  "edges": [
    {"id": "e1", "ends": ["v1", "v2"], "facets": [1, 1]}
  ]
}
"""


def broken(**overrides):
    data = json.loads(GOOD)
    data.update(overrides)
    return json.dumps(data)


def location_of(text):
    with pytest.raises(ParseError) as err:
        parse(text)
    return err.value.location


# ---------------------------------------------------------------------------
# parsing


def test_parse_good_template():
    t = parse(GOOD)
    assert t.dimension == 1
    assert t.graph.vertices == ("v1", "v2")
    assert t.edge_facets("e1") == (1, 1)
    assert t.polytope_ids == {"v1": "seg", "v2": "seg"}
    from fractions import Fraction

    assert t.polytope("v1").halfspaces[1].offset == Fraction(1, 2)
    t.require_valid()


def test_json_syntax_errors_carry_line_and_column():
    assert location_of("{nonsense") == "line 1 column 2"
    assert location_of("") == "line 1 column 1"


def test_structural_breadcrumbs():
    assert location_of("[1, 2]") == ""
    data = json.loads(GOOD)
    del data["dimension"]
    assert location_of(json.dumps(data)) == ""
    assert location_of(broken(dimension=-1)) == "dimension"
    assert location_of(broken(dimension=1.5)) == "dimension"
    assert location_of(broken(polytopes={})) == "polytopes"
    # a missing field is reported at its containing object
    assert location_of(broken(polytopes=[{"halfspaces": []}])) == "polytopes[0]"
    assert location_of(broken(vertices=[{"id": "v1"}])) == "vertices[0]"
    assert (
        location_of(broken(vertices=[{"id": "v1", "polytope": "nope"}]))
        == "vertices[0].polytope"
    )


def test_halfspace_breadcrumbs():
    bad_normal = broken(
        polytopes=[
            {"id": "seg", "halfspaces": [{"normal": [1, 0], "offset": 0}]}
        ]
    )
    assert location_of(bad_normal) == "polytopes[0].halfspaces[0].normal"
    float_offset = broken(
        polytopes=[
            {"id": "seg", "halfspaces": [
                {"normal": [-1], "offset": 0},
                {"normal": [1], "offset": 0.5},
            ]}
        ]
    )
    assert location_of(float_offset) == "polytopes[0].halfspaces[1].offset"
    # "p/q" of ASCII digits and nothing else: no trailing newline, no other digits
    for bad in ("1/0", "1\n", "1/2\n", "\u0663"):
        bad_string = float_offset.replace("0.5", json.dumps(bad))
        with pytest.raises(ParseError, match="expected an integer or a 'p/q' string"):
            parse(bad_string)
        assert location_of(bad_string) == "polytopes[0].halfspaces[1].offset", bad


def test_edge_breadcrumbs():
    assert (
        location_of(broken(edges=[{"id": "e1", "ends": ["v1"], "facets": [1, 1]}]))
        == "edges[0].ends"
    )
    assert (
        location_of(
            broken(edges=[{"id": "e1", "ends": ["v1", "ghost"], "facets": [1, 1]}])
        )
        == "edges[0].ends"
    )
    assert (
        location_of(
            broken(edges=[{"id": "e1", "ends": ["v1", "v2"], "facets": [1, 9]}])
        )
        == "edges[0].facets"
    )
    assert (
        location_of(
            broken(edges=[{"id": "e1", "ends": ["v1", "v2"], "facets": [1, True]}])
        )
        == "edges[0].facets"
    )


def test_duplicate_ids_are_rejected():
    dup_poly = json.loads(GOOD)
    dup_poly["polytopes"].append(dup_poly["polytopes"][0])
    assert location_of(json.dumps(dup_poly)) == "polytopes[1]"
    dup_vertex = json.loads(GOOD)
    dup_vertex["vertices"].append({"id": "v1", "polytope": "seg"})
    assert location_of(json.dumps(dup_vertex)) == "vertices[2]"
    dup_edge = json.loads(GOOD)
    dup_edge["edges"].append(dup_edge["edges"][0])
    assert location_of(json.dumps(dup_edge)) == "edges[1]"


def test_geometric_problems_keep_their_own_types():
    unbounded = broken(
        polytopes=[
            {"id": "seg", "halfspaces": [{"normal": [1], "offset": 1}]}
        ]
    )
    with pytest.raises(NotDelzant):
        parse(unbounded)


# ---------------------------------------------------------------------------
# serialization


def test_round_trip_is_identity_on_ids_and_geometry():
    for name in corpus_names():
        t = load_corpus(name)
        back = parse(serialize(t))
        assert back.dimension == t.dimension
        assert back.graph.vertices == t.graph.vertices
        assert back.graph.edges == t.graph.edges
        assert back.graph.incidence == t.graph.incidence
        assert back.psi_e == t.psi_e
        assert back.polytope_ids == t.polytope_ids
        for vid in t.graph.vertices:
            assert back.polytope(vid) == t.polytope(vid)


def test_serialize_is_a_fixpoint():
    for name in ("s4", "chain3", "rp2"):
        text = serialize(load_corpus(name))
        assert serialize(parse(text)) == text


def test_serialize_shares_equal_polytopes_and_keeps_rationals():
    t = parse(GOOD)
    text = serialize(t)
    data = json.loads(text)
    assert len(data["polytopes"]) == 1  # both vertices share one definition
    assert data["polytopes"][0]["id"] == "seg"
    assert data["polytopes"][0]["halfspaces"][1]["offset"] == "1/2"
    assert text.endswith("\n")


def _renamed(t, vname, ename, hints):
    """The template with vertices and edges renamed and polytope ids `hints`."""
    return OrigamiTemplate(
        t.dimension,
        TemplateGraph(
            tuple(vname[v] for v in t.graph.vertices),
            tuple(ename[e] for e in t.graph.edges),
            {ename[e]: tuple(vname[w] for w in t.graph.ends(e)) for e in t.graph.edges},
        ),
        {vname[v]: t.polytope(v) for v in t.graph.vertices},
        {ename[e]: t.edge_facets(e) for e in t.graph.edges},
        polytope_ids=hints,
    )


def _serialize_inputs():
    """Corpus templates, seeded box paths and hexagon trees, "p/q" offsets,
    ids that need escaping, colliding polytope-id hints and empty arrays."""
    rng = random.Random(61)
    out = [load_corpus(name) for name in corpus_names()]
    out += [box_path_template(rng, n=rng.randint(1, 4)) for _ in range(8)]
    out += [hexagon_tree_template(rng, rng.randint(1, 12)) for _ in range(4)]
    for n in (1, 2, 3):
        t = box_path_template(rng, n=n)
        out.append(rescale_template(t, Fraction(1, 3), [Fraction(1, k + 2) for k in range(n)]))
    path = box_path_template(random.Random(62), n=2, length=4, twist=False)
    odd = ['q"uote', "back\\slash", "tab\tnew\nline\x01\x1f", "caf\u00e9 \u2603 \U0001d54f"]
    vname = dict(zip(path.graph.vertices, odd))
    ename = dict(zip(path.graph.edges, ["e\x7f", "e/\\", "\u00ff"]))
    out.append(_renamed(path, vname, ename, {odd[0]: odd[3], odd[1]: "\b\f", odd[2]: "\u0000"}))
    # distinct boxes under one hint, hints that name the fallback, an empty hint
    for hints in (
        {"v0": "box", "v1": "box", "v2": "box", "v3": "p1"},
        {"v0": "p0", "v1": "p0", "v2": "", "v3": "p2"},
        {"v1": "p1", "v2": "p0"},
    ):
        out.append(_renamed(path, {v: v for v in vname}, {e: e for e in ename}, hints))
    out.append(build_template(0, {"v": box_polytope(())}, []))  # "halfspaces": [], "edges": []
    return out


def test_serialize_writes_the_json_dumps_layout():
    for t in _serialize_inputs():
        assert serialize(t) == oracle_serialize(t), t


def test_serialize_leaves_no_reference_cycle():
    """`json.dumps` with an indent ran the pure-Python encoder, whose nested
    closures left 33 cyclic objects per call on cp2."""
    for name in ("cp2", "chain3"):
        t = load_corpus(name)
        gc.collect()
        gc.disable()  # so that only reference counting can free what serialize makes
        try:
            serialize(t)
            assert gc.collect() == 0, name
        finally:
            gc.enable()


def test_load_path(tmp_path):
    target = tmp_path / "t.json"
    target.write_text(GOOD, encoding="utf-8")
    t = load_path(target)
    assert t.graph.vertices == ("v1", "v2")


# ---------------------------------------------------------------------------
# bundled corpus


def test_corpus_names_lists_the_bundle():
    assert corpus_names() == (
        "chain3",
        "cp2",
        "hirzebruch",
        "oddcycle3",
        "rp2",
        "s2",
        "s4",
        "s6",
        "torus",
    )


def test_every_bundled_template_is_valid():
    for name in corpus_names():
        load_corpus(name).require_valid()


def test_corpus_lookup_errors():
    with pytest.raises(FileNotFoundError):
        load_corpus("missing")
    with pytest.raises(FileNotFoundError):
        corpus_path("missing")
    assert corpus_path("s2").is_file()


# ---------------------------------------------------------------------------
# poset rendering


def test_face_poset_dot_structure():
    text = face_poset_dot(load_corpus("s4"))
    lines = text.strip().splitlines()
    assert lines[0] == "digraph face_poset {"
    assert lines[1] == "  rankdir=BT;"
    assert lines[-1] == "}"
    nodes = [l for l in lines if "label=" in l]
    arrows = [l for l in lines if "->" in l]
    assert len(nodes) == 5
    assert len(arrows) == 6  # 2 corners x 2 sides + 2 sides -> top
    assert '  f4 [label="dim 2: v1,v2 (2 piece(s))"];' in lines
    # covers only: no corner jumps straight to the top face
    assert "  f0 -> f4;" not in lines and "  f1 -> f4;" not in lines


# ---------------------------------------------------------------------------
# seeded fuzzing: damaged files fail with the package's own errors

_TOKEN_RE = re.compile(rb'"(?:[^"\\]|\\.)*"|-?\d+|[{}\[\],:]|true|false|null')


def _mutants(data, rng, count):
    """Byte flips, truncations and swaps of two JSON tokens of `data`."""
    tokens = [m.span() for m in _TOKEN_RE.finditer(data)]
    for _ in range(count):
        pos = rng.randrange(len(data))
        yield data[:pos] + bytes([data[pos] ^ (1 << rng.randrange(8))]) + data[pos + 1 :]
        yield data[: rng.randrange(len(data))]
        (a0, a1), (b0, b1) = sorted(rng.sample(tokens, 2))
        yield data[:a0] + data[b0:b1] + data[a1:b0] + data[a0:a1] + data[b1:]


@pytest.mark.parametrize(
    "extra",
    [
        b"[" * 200_000,
        b'{"dimension": ' + b"9" * 5000 + b"}",
        b'{"dimension": 1, "polytopes": [{"id": "p", "halfspaces": '
        b'[{"normal": [1], "offset": "' + b"1" * 5000 + b'/7"}]}]}',
        b"\xff\xfe{}",
    ],
    ids=["deep-nesting", "long-number", "long-offset", "non-utf8"],
)
def test_fixed_damaged_inputs_raise_parse_error(tmp_path, extra):
    bad = tmp_path / "bad.json"
    bad.write_bytes(extra)
    with pytest.raises(ParseError):
        load_path(bad)


def test_seeded_damage_to_the_corpus_fails_only_with_package_errors(tmp_path):
    target = tmp_path / "mutant.json"
    outcomes = {"parsed": 0, "refused": 0}
    with stopwatch(5.0):
        for k, name in enumerate(corpus_names()):
            rng = random.Random(1000 + k)
            for mutant in _mutants(corpus_path(name).read_bytes(), rng, 60):
                target.write_bytes(mutant)
                try:
                    load_path(target).validate()
                except OrigamiError:
                    outcomes["refused"] += 1
                else:
                    outcomes["parsed"] += 1
    assert outcomes["parsed"] and outcomes["refused"]
