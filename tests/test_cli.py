"""Drives the command line front end through main(argv).

Every test works on real files in a per-session scratch directory and
asserts on exit code plus captured output, so these double as end-to-end
checks of the text formats.
"""

import json

import pytest

from endcycle import cli
from endcycle.graph import graph_from_text
from endcycle.membership import certificate_from_json, verify_certificate
from endcycle.vectors import parse_vector_text

from conftest import LADDER, THETA, THREE_PARTS, TRIANGLE_CAPS

RAIL_DIFFERENCE = """\
tail+ rail_top from 0 = 1
tail- rail_top from -1 = 1
tail+ rail_bot from 0 = -1
tail- rail_bot from -1 = -1
"""
SQUARE = "set rail_top[0] = 1\nset rung[1] = 1\nset rail_bot[0] = -1\nset rung[0] = -1\n"
LONE_EDGE = "set rail_top[5] = 1\n"
SQUARES_Z = (
    "periodic -inf..inf { walk top[0] rail_top[0] top[1] rung[1] bot[1] "
    "rail_bot[0] bot[0] rung[0] top[0] }\n"
)
ONE_WALK = "walk top[0] rail_top[0] top[1]\n"
PINNED = "periodic 0..inf { walk v0 a v1 b v2 c v0 }\n"
PAIR = "delete top[0]\ndelete bot[0]\nkeep top[3]\n"
LEFT_MID = "walk u left v mid u\n"
LEFT_RIGHT = "walk u left v right u\n"


@pytest.fixture(scope="session")
def work(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    files = {
        "ladder.graph": LADDER,
        "theta.graph": THETA,
        "three.graph": THREE_PARTS,
        "tri.graph": TRIANGLE_CAPS,
        "raildiff.vec": RAIL_DIFFERENCE,
        "square.vec": SQUARE,
        "lone.vec": LONE_EDGE,
        "broken.vec": "set rail_top[0] == 1\n",
        "squares.chain": SQUARES_Z,
        "walk.chain": ONE_WALK,
        "pinned.chain": PINNED,
        "side.pair": PAIR,
        "leftmid.chain": LEFT_MID,
        "leftright.chain": LEFT_RIGHT,
    }
    for name, text in files.items():
        (d / name).write_text(text, encoding="utf-8")
    return d


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_member_text(work, capsys):
    code, out, _ = run(capsys, "member", str(work / "ladder.graph"),
                       str(work / "raildiff.vec"))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "MEMBER"
    assert any("circuit family" in ln for ln in lines[1:])


def test_nonmember_text(work, capsys):
    code, out, _ = run(capsys, "member", str(work / "ladder.graph"),
                       str(work / "lone.vec"))
    assert code == 0
    assert out.splitlines()[0] == "NON-MEMBER"
    assert "violated cut:" in out
    assert "cut sum:" in out


def test_decompose_is_an_alias(work, capsys):
    code, out, _ = run(capsys, "decompose", str(work / "ladder.graph"),
                       str(work / "square.vec"))
    assert code == 0
    assert out.splitlines()[0] == "MEMBER"
    assert "circuit" in out


def test_member_json_reverifies(work, capsys):
    code, out, _ = run(capsys, "--json", "member", str(work / "ladder.graph"),
                       str(work / "raildiff.vec"))
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "member"
    g = graph_from_text(LADDER)
    vec = parse_vector_text(g, RAIL_DIFFERENCE)
    cert = certificate_from_json(g, payload["certificate"])
    assert verify_certificate(g, vec, cert)


def test_member_oracle_agrees(work, capsys):
    code, out, _ = run(capsys, "member", "--oracle",
                       str(work / "ladder.graph"), str(work / "square.vec"))
    assert code == 0
    assert "oracle agreed at radius" in out


def test_small_oracle_window_enumerates_every_cut(work, capsys):
    # radius 1 on the ladder: 6 vertices and 2 ends, 2^8 (S, H) choices
    args = ("member", "--oracle", "--radius", "1",
            str(work / "ladder.graph"), str(work / "square.vec"))
    code, out, _ = run(capsys, *args)
    assert code == 0
    assert "oracle agreed at radius 1 (literal" in out
    code, out, _ = run(capsys, "--json", *args)
    assert code == 0
    assert json.loads(out)["oracle_mode"] == "literal"
    code, out, _ = run(capsys, "--json", "member", "--oracle",
                       str(work / "ladder.graph"), str(work / "square.vec"))
    assert json.loads(out)["oracle_mode"] == "sampled"


def test_oracle_disagreement_is_internal(work, capsys):
    # a starved oracle window cannot see the offending edge at index 5
    code, _, err = run(capsys, "member", "--oracle", "--radius", "0",
                       str(work / "ladder.graph"), str(work / "lone.vec"))
    assert code == 2
    assert "internal error [member]" in err


def test_ends(work, capsys):
    code, out, _ = run(capsys, "ends", str(work / "ladder.graph"))
    assert code == 0
    assert out.splitlines()[0] == "2 ends"
    assert "end+0" in out and "end-0" in out


def test_check_admissible_ok(work, capsys):
    code, out, _ = run(capsys, "check-admissible", str(work / "ladder.graph"),
                       str(work / "squares.chain"))
    assert code == 0
    assert out.strip() == "ADMISSIBLE"


def test_check_admissible_rejects_pinned_family(work, capsys):
    code, out, _ = run(capsys, "check-admissible", str(work / "tri.graph"),
                       str(work / "pinned.chain"))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "NOT ADMISSIBLE"
    assert any(ln.strip() == "witness: v0" for ln in lines)


def test_boundary_zero(work, capsys):
    code, out, _ = run(capsys, "boundary", str(work / "ladder.graph"),
                       str(work / "squares.chain"))
    assert code == 0
    assert out.strip() == "boundary is zero"


def test_boundary_of_a_walk(work, capsys):
    code, out, _ = run(capsys, "--json", "boundary",
                       str(work / "ladder.graph"), str(work / "walk.chain"))
    assert code == 0
    payload = json.loads(out)
    assert not payload["zero"]
    assert payload["coefficients"] == {"top[0]": -1, "top[1]": 1}


def test_winding(work, capsys):
    from endcycle import chains

    code, out, _ = run(capsys, "winding", str(work / "ladder.graph"),
                       str(work / "squares.chain"))
    assert code == 0
    g = graph_from_text(LADDER)
    rep = chains.parse_chain_text(g, SQUARES_Z)
    expect = chains.homology_class(g, rep)
    assert parse_vector_text(g, out) == expect


def test_homologous(work, capsys):
    code, out, _ = run(capsys, "homologous", str(work / "theta.graph"),
                       str(work / "leftmid.chain"), str(work / "leftmid.chain"))
    assert code == 0
    assert out.strip() == "HOMOLOGOUS"
    code, out, _ = run(capsys, "homologous", str(work / "theta.graph"),
                       str(work / "leftmid.chain"),
                       str(work / "leftright.chain"))
    assert code == 0
    assert out.strip() == "NOT HOMOLOGOUS"


def test_h0(work, capsys):
    code, out, _ = run(capsys, "h0", str(work / "ladder.graph"))
    assert code == 0
    assert out.splitlines()[0] == "H0 = Z"
    code, out, _ = run(capsys, "--json", "h0", str(work / "three.graph"))
    assert code == 0
    assert json.loads(out)["rank"] == 3


def test_hn(work, capsys):
    code, out, _ = run(capsys, "hn", str(work / "ladder.graph"), "5")
    assert code == 0
    assert out.splitlines()[0] == "H5 = 0"
    code, _, err = run(capsys, "hn", str(work / "ladder.graph"), "1")
    assert code == 1
    assert "error [hn]" in err


def test_restrict(work, capsys):
    code, out, _ = run(capsys, "restrict", str(work / "ladder.graph"),
                       str(work / "side.pair"), str(work / "squares.chain"))
    assert code == 0
    assert out.strip() == (
        "periodic 1..inf { walk top[0] rail_top[0] top[1] rung[1] bot[1] "
        "rail_bot[0] bot[0] rung[0] top[0] }"
    )


def test_examples_listing(capsys):
    code, out, _ = run(capsys, "examples")
    assert code == 0
    assert "double-ladder" in out.splitlines()


def test_examples_print(capsys):
    code, out, _ = run(capsys, "examples", "double-ladder")
    assert code == 0
    assert "==> double-ladder.graph <==" in out


def test_examples_out(tmp_path, capsys):
    dest = tmp_path / "docs"
    code, out, _ = run(capsys, "examples", "double-ladder", "--out", str(dest))
    assert code == 0
    assert (dest / "double-ladder.graph").exists()
    assert "wrote" in out


def test_examples_unknown(capsys):
    code, _, err = run(capsys, "examples", "no-such-example")
    assert code == 1
    assert err.startswith("error:")


def test_export_dot(work, capsys):
    code, out, _ = run(capsys, "export-dot", "--radius", "2",
                       str(work / "ladder.graph"))
    assert code == 0
    nodes = [ln for ln in out.splitlines()
             if ln.startswith('  "') and "->" not in ln]
    assert len(nodes) == 10
    assert out.count("shape=box") == 4


def test_export_dot_finite_has_no_rim(work, capsys):
    code, out, _ = run(capsys, "export-dot", str(work / "theta.graph"))
    assert code == 0
    assert "shape=box" not in out


def test_missing_file(work, capsys):
    code, _, err = run(capsys, "member", str(work / "absent.graph"),
                       str(work / "square.vec"))
    assert code == 1
    assert "cannot read" in err


def test_bad_vector_is_an_input_error(work, capsys):
    code, _, err = run(capsys, "member", str(work / "ladder.graph"),
                       str(work / "broken.vec"))
    assert code == 1
    assert "error [member]" in err


def test_usage_error(capsys):
    assert run(capsys, )[0] == 1
    assert run(capsys, "member", "only-one-arg")[0] == 1
