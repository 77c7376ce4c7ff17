"""Text format coverage: the builtin example corpus parses, emitters are
stable under a parse/emit cycle, and parse errors carry line numbers."""

import pytest

from endcycle import chains as ch
from endcycle import examples
from endcycle.graph import graph_from_text
from endcycle.vectors import parse_vector_text, vector_to_text
from endcycle.errors import FormatError
from endcycle.membership import certificate_from_json


def test_example_names():
    names = examples.example_names()
    assert "double-ladder" in names
    assert len(names) >= 4


def test_unknown_example_suggests():
    with pytest.raises(KeyError, match="double-ladder"):
        examples.example_documents("double-lader")


def test_every_example_document_parses():
    for name in examples.example_names():
        docs = examples.example_documents(name)
        g = graph_from_text(docs[name + ".graph"])
        for fname, text in docs.items():
            if fname.endswith(".graph"):
                graph_from_text(text)
            elif fname.endswith(".vec"):
                parse_vector_text(g, text)
            elif fname.endswith(".chain"):
                ch.parse_chain_text(g, text)
            elif fname.endswith(".pair"):
                ch.parse_pair_text(g, text)
            else:
                pytest.fail("unclassified document %s" % fname)


def test_example_graph_matches_documents():
    g = examples.example_graph("double-ladder")
    assert g.spec.name == "double-ladder"


def test_vector_emit_is_stable():
    for name in examples.example_names():
        docs = examples.example_documents(name)
        g = graph_from_text(docs[name + ".graph"])
        for fname, text in docs.items():
            if not fname.endswith(".vec"):
                continue
            v = parse_vector_text(g, text)
            emitted = vector_to_text(v)
            assert vector_to_text(parse_vector_text(g, emitted)) == emitted


def test_chain_emit_is_stable():
    for name in examples.example_names():
        docs = examples.example_documents(name)
        g = graph_from_text(docs[name + ".graph"])
        for fname, text in docs.items():
            if not fname.endswith(".chain"):
                continue
            rep = ch.parse_chain_text(g, text)
            emitted = ch.chain_to_text(rep)
            assert ch.chain_to_text(ch.parse_chain_text(g, emitted)) == emitted


def test_pair_emit_is_stable():
    g = examples.example_graph("double-ladder")
    docs = examples.example_documents("double-ladder")
    pair = ch.parse_pair_text(g, docs["positive-side.pair"])
    emitted = ch.pair_to_text(pair)
    assert ch.pair_to_text(ch.parse_pair_text(g, emitted)) == emitted


# --- line numbers in errors -------------------------------------------------

def test_graph_error_line(ladder):
    with pytest.raises(FormatError, match="line 3"):
        graph_from_text("graph g\nkind finite\nvortex a\n")


def test_vector_error_line(ladder):
    with pytest.raises(FormatError, match="line 2"):
        parse_vector_text(ladder, "set rung[0] = 1\nset rung[0] == 2")


def test_chain_error_line(ladder):
    with pytest.raises(FormatError, match="line 2"):
        ch.parse_chain_text(ladder, "pass rung[0] +\nskip rung[1] +")


def test_pair_error_line(ladder):
    with pytest.raises(FormatError, match="line 2"):
        ch.parse_pair_text(ladder, "delete top[0]\nretain top[3]")


# --- malformed certificate JSON -----------------------------------------------

DART = {"edge": "rung", "forward": True, "index": 0}
RAY = {"start": {"class": "top", "index": 0}, "initial": [], "repeat": [DART], "shift": 1}


def _member(circle):
    return {"verdict": "member", "decomposition": {"circles": [{"coeff": 1, **circle}]}}


STAR = {"kind": "finite-set", "vertices": [{"class": "top", "index": 0}]}


def _non_member(cut):
    return {"verdict": "non-member", "cut": cut, "sum": 1}


MALFORMED_CERTIFICATES = {
    "circles not a list": {"verdict": "member", "decomposition": {"circles": 5}},
    "circuit darts not a list": _member({"type": "circuit", "darts": 5}),
    "dart edge not a name": _member({"type": "circuit", "darts": [{**DART, "edge": []}]}),
    "dart without an edge": _member({"type": "circuit", "darts": [{"forward": True}]}),
    "family template not a list": _member({"type": "family", "template": {}, "lo": 0, "hi": 1}),
    "segments not a list": _member({"type": "end-circle", "segments": 5}),
    "middle not a list": _member({"type": "double-ray", "back": RAY, "middle": 5, "forward": RAY}),
    "ray repeat not a list": _member({"type": "double-ray", "back": {**RAY, "repeat": 5},
                                      "forward": RAY}),
    "ray initial not a list": _member({"type": "double-ray", "back": RAY,
                                       "forward": {**RAY, "initial": "rung"}}),
    "ray start class not a name": _member({"type": "double-ray", "back": RAY, "forward": {
        **RAY, "start": {"class": ["top"], "index": 0}}}),
    "finite-set vertices not a list": _non_member({"kind": "finite-set", "vertices": 5}),
    "vertex class not a name": _non_member({"kind": "finite-set",
                                           "vertices": [{"class": 5, "index": 0}]}),
    "half-space ends not a list": _non_member({"kind": "half-space", "ends": 5, "radius": 3}),
    "half-space end not a string": _non_member({"kind": "half-space", "ends": [5], "radius": 3}),
    "half-space delta not a list": _non_member({"kind": "half-space", "ends": ["end+0"],
                                               "radius": 3, "delta": 5}),
    "ray start index a string": _member({"type": "double-ray", "back": RAY, "forward": {
        **RAY, "start": {"class": "top", "index": "0"}}}),
    "circle coeff a boolean": _member({"type": "circuit", "darts": [DART], "coeff": True}),
    "sum a boolean": {**_non_member(STAR), "sum": True},
    "half-space radius a boolean": _non_member({"kind": "half-space", "ends": ["end+0"],
                                               "radius": True}),
    "vertex index a boolean": _non_member({"kind": "finite-set",
                                          "vertices": [{"class": "top", "index": True}]}),
    "class-set classes not a list": _non_member({"kind": "class-set", "classes": 5}),
    "class-set caps not names": _non_member({"kind": "class-set", "classes": [], "caps": [[]]}),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_CERTIFICATES))
def test_malformed_certificate_json_is_a_format_error(ladder, case):
    with pytest.raises(FormatError):
        certificate_from_json(ladder, MALFORMED_CERTIFICATES[case])
