"""End-to-end command line behavior: exit codes and printed output."""

import json
import random

import pytest

from helpers import build_template
from toric_origami.cli import run
from toric_origami.fileformat import corpus_path, parse, serialize
from toric_origami.polytope import VERTEX_WALK_LIMIT, DelzantPolytope, HalfSpace


def corpus(name):
    return str(corpus_path(name))


@pytest.fixture
def invalid_file(tmp_path):
    """A well-formed file whose middle square has two touching folds."""
    sq = DelzantPolytope(
        2,
        [
            HalfSpace((-1, 0), 0),
            HalfSpace((0, -1), 0),
            HalfSpace((1, 0), 1),
            HalfSpace((0, 1), 1),
        ],
    )
    t = build_template(
        2,
        {"a": sq, "b": sq, "c": sq},
        [("e1", "a", "b", 2, 2), ("e2", "b", "c", 3, 3)],
    )
    target = tmp_path / "invalid.json"
    target.write_text(serialize(t), encoding="utf-8")
    return str(target)


# ---------------------------------------------------------------------------
# exit code 0: healthy paths


def test_validate_reports_valid(capsys):
    assert run(["validate", corpus("s4")]) == 0
    out = capsys.readouterr().out
    assert "verdict: valid" in out
    assert "condition (1) at edge e1: ok" in out


def test_info_output(capsys):
    assert run(["info", corpus("s4")]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == [
        "dimension: 2",
        "polytopes: 1",
        "vertices: 2",
        "edges: 1",
        "valid: yes",
        "acyclic: yes",
        "coorientable: yes",
        "orientable: yes",
        "fixed points: 2",
    ]


def test_info_on_loop_template(capsys):
    assert run(["info", corpus("rp2")]) == 0
    out = capsys.readouterr().out
    assert "orientable: n/a" in out
    assert "fixed points: n/a" in out


def test_info_on_cyclic_template_still_counts_fixed_points(capsys):
    assert run(["info", corpus("oddcycle3")]) == 0
    out = capsys.readouterr().out
    assert "acyclic: no" in out
    assert "fixed points: 6" in out


def test_betti_output(capsys):
    assert run(["betti", corpus("s4")]) == 0
    assert capsys.readouterr().out == "b0=1 b2=0 b4=1\n"


def test_betti_of_a_template_with_rational_offsets(tmp_path, capsys):
    """The square [0, 1/2]^2 has non-integer vertices; its edge weights are still exact."""
    halfspaces = [
        {"normal": [-1, 0], "offset": 0},
        {"normal": [1, 0], "offset": "1/2"},
        {"normal": [0, -1], "offset": 0},
        {"normal": [0, 1], "offset": "1/2"},
    ]
    document = {
        "dimension": 2,
        "polytopes": [{"id": "square", "halfspaces": halfspaces}],
        "vertices": [{"id": "v1", "polytope": "square"}],
        "edges": [],
    }
    target = tmp_path / "half_square.json"
    target.write_text(json.dumps(document), encoding="utf-8")
    assert run(["betti", str(target)]) == 0
    assert capsys.readouterr().out == "b0=1 b2=2 b4=1\n"


def test_hilbert_output(capsys):
    assert run(["hilbert", corpus("s2")]) == 0
    assert capsys.readouterr().out == "h0=1 h1=2\n"
    assert run(["hilbert", corpus("s2"), "--max-degree", "3"]) == 0
    assert capsys.readouterr().out == "h0=1 h1=2 h2=2 h3=2\n"


def test_gkm_output_and_dot_export(tmp_path, capsys):
    assert run(["gkm", corpus("s4")]) == 0
    out = capsys.readouterr().out
    assert "fixed points: 2" in out
    assert "edges: 2" in out
    assert "v1:0 -- v2:0  weight (0, 1)  folded" in out

    dot = tmp_path / "graph.dot"
    assert run(["gkm", corpus("s4"), "--dot", str(dot)]) == 0
    assert dot.read_text(encoding="utf-8").startswith("graph moment {")


def test_cut_writes_three_parseable_files(tmp_path, capsys):
    out_dir = tmp_path / "pieces"
    assert run(["cut", corpus("chain3"), "--leaf", "v1", "--out-dir", str(out_dir)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 3 and all(l.startswith("wrote ") for l in lines)

    c_plus = parse((out_dir / "c_plus.json").read_text(encoding="utf-8"))
    assert c_plus.graph.vertices == ("v2", "v3")
    c_minus = parse((out_dir / "c_minus.json").read_text(encoding="utf-8"))
    assert c_minus.graph.vertices == ("v1",) and c_minus.dimension == 2
    b = parse((out_dir / "b.json").read_text(encoding="utf-8"))
    assert b.dimension == 1
    assert len(b.polytope("b").vertices) == 2


def test_render_writes_svg(tmp_path, capsys):
    target = tmp_path / "fig.svg"
    assert run(["render", corpus("s4"), "--svg", str(target)]) == 0
    svg = target.read_text(encoding="utf-8")
    assert svg.startswith("<svg ")
    assert svg.count("<polygon ") == 2
    assert svg.count("stroke-dasharray") == 2  # one dashed fold line per edge end

    exploded = tmp_path / "fig2.svg"
    assert run(["render", corpus("chain3"), "--svg", str(exploded), "--explode", "0.4"]) == 0
    assert "<svg " in exploded.read_text(encoding="utf-8")


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    capsys.readouterr()


# ---------------------------------------------------------------------------
# exit code 1: geometry and validation failures


def test_validate_reports_invalid(invalid_file, capsys):
    assert run(["validate", invalid_file]) == 1
    out = capsys.readouterr().out
    assert "verdict: INVALID" in out
    assert "condition (2) at vertex b: FAIL" in out


def test_analysis_of_invalid_template_fails(invalid_file, capsys):
    assert run(["betti", invalid_file]) == 1
    capsys.readouterr()


# ---------------------------------------------------------------------------
# exit code 2: valid input outside the supported class


def test_unsupported_inputs_exit_two(capsys):
    assert run(["betti", corpus("torus")]) == 2  # no fixed points
    assert run(["gkm", corpus("rp2")]) == 2  # not coorientable
    assert run(["betti", corpus("oddcycle3")]) == 2  # cycle
    assert run(["cut", corpus("chain3"), "--leaf", "v2", "--out-dir", "/tmp/x"]) == 2
    err = capsys.readouterr().err
    assert "unsupported" in err


def test_an_oversize_vertex_walk_exits_two(tmp_path, capsys):
    """40 halfspaces in general position in dimension 8: the vertex walk is refused."""
    rng = random.Random(8)
    halfspaces = [
        {"normal": [rng.randint(-9, 9) or 1 for _ in range(8)], "offset": 1} for _ in range(40)
    ]
    document = {
        "dimension": 8,
        "polytopes": [{"id": "big", "halfspaces": halfspaces}],
        "vertices": [{"id": "v1", "polytope": "big"}],
        "edges": [],
    }
    target = tmp_path / "big.json"
    target.write_text(json.dumps(document), encoding="utf-8")
    assert run(["validate", str(target)]) == 2
    assert capsys.readouterr().err == (
        "unsupported: vertex enumeration in dimension 8 over 40 halfspaces visits more than "
        f"{VERTEX_WALK_LIMIT} independent facet subsets\n"
    )


def test_render_refuses_other_dimensions(tmp_path, capsys):
    target = tmp_path / "fig.svg"
    assert run(["render", corpus("s6"), "--svg", str(target)]) == 2
    assert not target.exists()
    capsys.readouterr()


# ---------------------------------------------------------------------------
# exit code 3: parse, IO, and usage problems


def test_parse_and_io_failures_exit_three(tmp_path, capsys):
    garbage = tmp_path / "garbage.json"
    garbage.write_text("{nonsense", encoding="utf-8")
    assert run(["validate", str(garbage)]) == 3
    assert "parse error" in capsys.readouterr().err

    assert run(["validate", str(tmp_path / "missing.json")]) == 3
    assert "io error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "content, reason",
    [
        (b"[" * 200_000, "nested too deeply"),
        (b'{"dimension": ' + b"7" * 5000 + b"}", "too many digits"),
        (
            json.dumps(
                {
                    "dimension": 1,
                    "polytopes": [
                        {
                            "id": "p",
                            "halfspaces": [
                                {"normal": [-1], "offset": 0},
                                {"normal": [1], "offset": "1" * 5000 + "/3"},
                            ],
                        }
                    ],
                    "vertices": [{"id": "v", "polytope": "p"}],
                    "edges": [],
                }
            ).encode(),
            "polytopes[0].halfspaces[1].offset: number with too many digits",
        ),
        (b'{"dimension": 2\xff}', "not UTF-8"),
    ],
    ids=["deep-nesting", "long-number", "long-offset", "non-utf8"],
)
@pytest.mark.parametrize("command", ["validate", "betti"])
def test_unreadable_files_are_parse_errors(tmp_path, capsys, command, content, reason):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    assert run([command, str(bad)]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("parse error: ")
    assert reason in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN"])
def test_render_refuses_a_non_finite_explode(tmp_path, capsys, value):
    target = tmp_path / "fig.svg"
    assert run(["render", corpus("cp2"), "--svg", str(target), f"--explode={value}"]) == 3
    assert not target.exists()
    assert "must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["chain3", "cp2"])
def test_render_refuses_an_explode_that_overflows(tmp_path, capsys, name):
    target = tmp_path / "fig.svg"
    assert run(["render", corpus(name), "--svg", str(target), "--explode", "1e308"]) == 3
    assert not target.exists()
    assert "--explode" in capsys.readouterr().err


def _scaled_copy(tmp_path, name, vid, digits):
    """The corpus file with `vid` moved to a copy of its polytope whose
    nonzero offsets are 10**digits."""
    document = json.loads(corpus_path(name).read_text(encoding="utf-8"))
    (vertex,) = (v for v in document["vertices"] if v["id"] == vid)
    (polytope,) = (p for p in document["polytopes"] if p["id"] == vertex["polytope"])
    halfspaces = [dict(h, offset=h["offset"] and 10**digits) for h in polytope["halfspaces"]]
    document["polytopes"].append({"id": "scaled", "halfspaces": halfspaces})
    vertex["polytope"] = "scaled"
    target = tmp_path / "scaled.json"
    target.write_text(json.dumps(document), encoding="utf-8")
    return str(target)


# 10**400 cannot become a float at all; 10**307 can, but its drawing cannot
@pytest.mark.parametrize("digits", [400, 307])
@pytest.mark.parametrize("name, vid", [("cp2", "v1"), ("chain3", "v3")])
@pytest.mark.parametrize("explode", ["0", "0.4", "1e308"])
def test_render_refuses_a_template_past_the_float_range(tmp_path, capsys, name, vid, digits, explode):
    source = _scaled_copy(tmp_path, name, vid, digits)
    target = tmp_path / "fig.svg"
    assert run(["render", source, "--svg", str(target), "--explode", explode]) == 2
    assert not target.exists()
    err = capsys.readouterr().err
    assert err.startswith("unsupported: ")
    assert f"template vertex {vid} " in err
    assert "--explode" not in err and "Traceback" not in err


def test_usage_errors_exit_three(capsys):
    assert run(["no-such-command"]) == 3
    assert run([]) == 3
    assert run(["cut", corpus("chain3")]) == 3  # missing required options
    assert run(["hilbert", corpus("cp2"), "--max-degree", "-1"]) == 3
    capsys.readouterr()


# ---------------------------------------------------------------------------
# cut/parse round trip through the filesystem


def test_cut_pieces_rebuild_the_template(tmp_path):
    out_dir = tmp_path / "pieces"
    assert run(["cut", corpus("s4"), "--leaf", "v2", "--out-dir", str(out_dir)]) == 0
    c_plus = parse((out_dir / "c_plus.json").read_text(encoding="utf-8"))
    c_minus = parse((out_dir / "c_minus.json").read_text(encoding="utf-8"))
    from toric_origami.template import radial_blow_up, isomorphic
    from toric_origami import load_corpus

    rebuilt = radial_blow_up(c_plus, c_minus.polytope("v2"), "v1", 2, 2)
    assert isomorphic(rebuilt, load_corpus("s4"))
