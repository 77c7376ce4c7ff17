"""Membership decision procedure, certificates, and their verifier.

The expected decompositions here were derived by hand and frozen; a change
in the decision procedure that alters a certificate shape should trip these
even if the verdicts stay correct.
"""

import dataclasses

import pytest

from endcycle import chains
from endcycle.circles import (
    CircleDecomposition,
    CircuitFamily,
    EndCircle,
    FiniteCircuit,
    RaySegment,
)
from endcycle.cuts import HalfSpaceCut, cut_sum, star_cut
from endcycle.graph import Ray, graph_from_text, parse_dart_label, parse_vertex_label
from endcycle.membership import (
    Member,
    NonMember,
    certificate_from_json,
    certificate_to_json,
    find_violated_cut,
    is_member,
    verify_certificate,
)
from endcycle.vectors import parse_vector_text

RAIL_DIFFERENCE = """\
tail+ rail_top from 0 = 1
tail- rail_top from -1 = 1
tail+ rail_bot from 0 = -1
tail- rail_bot from -1 = -1
"""

CHORD_QUADS = """\
tail+ pos_step from 0 = 1
tail+ neg_step from 0 = 1
set chord[0] = -1
"""

CHORD_TRIANGLE = """\
set pos_first = 1
set chord[0] = 1
set neg_first = 1
"""

CHORD_RAIL_LOOP = """\
set pos_first = 1
set neg_first = 1
tail+ pos_step from 0 = 1
tail+ neg_step from 0 = 1
"""

TRIPLE_2_1_1 = """\
tail+ ra from 0 = 2
tail- ra from -1 = 2
tail+ rb from 0 = -1
tail- rb from -1 = -1
tail+ rc from 0 = -1
tail- rc from -1 = -1
"""

TRIPLE_67_1_66 = """\
tail+ ra from 0 = 67
tail- ra from -1 = 67
tail+ rb from 0 = -1
tail- rb from -1 = -1
tail+ rc from 0 = -66
tail- rc from -1 = -66
"""

LINE_THROUGH = """\
tail+ step from 0 = 1
tail- step from -1 = 1
"""

MEMBER_CASES = [
    ("ladder", RAIL_DIFFERENCE, [(1, CircuitFamily)]),
    ("chords", CHORD_QUADS, [(1, EndCircle)]),
    ("chords", CHORD_TRIANGLE, [(1, FiniteCircuit)]),
    ("chords", CHORD_RAIL_LOOP, [(1, EndCircle)]),
    ("triple", TRIPLE_2_1_1, [(1, CircuitFamily)]),
    ("triple", TRIPLE_67_1_66, [(1, EndCircle), (66, EndCircle)]),
    ("single_ray", "", []),
    ("theta", "set left = 1\nset mid = -1", [(1, FiniteCircuit)]),
]

NONMEMBER_CASES = [
    ("chords", "set chord[3] = 1", "X = {neg[3]}", -1),
    ("chords", "tail+ pos_step from 2 = 1", "X = {pos[2]}", 1),
    ("single_ray", "tail+ step from 0 = 1", "X = {node[0]}", 1),
    ("single_ray", "set step[2] = 1", "X = {node[2]}", 1),
    ("double_ray", "tail+ step from 0 = 1", "X = {node[0]}", 1),
    ("theta", "set left = 1", "X = {u}", 1),
]


@pytest.mark.parametrize("gname,text,shape", MEMBER_CASES)
def test_member_cases(request, gname, text, shape):
    g = request.getfixturevalue(gname)
    vec = parse_vector_text(g, text)
    cert = is_member(g, vec)
    assert isinstance(cert, Member)
    got = [(c, type(p)) for c, p in cert.decomposition.entries]
    assert got == shape
    assert verify_certificate(g, vec, cert)


@pytest.mark.parametrize("gname,text,describe,total", NONMEMBER_CASES)
def test_nonmember_cases(request, gname, text, describe, total):
    g = request.getfixturevalue(gname)
    vec = parse_vector_text(g, text)
    cert = is_member(g, vec)
    assert isinstance(cert, NonMember)
    assert cert.cut.describe() == describe
    assert cert.cut_sum == total
    # the reported sum must recompute from the cut itself
    assert cut_sum(g, cert.cut, vec) == total
    assert verify_certificate(g, vec, cert)


def test_line_needs_end_cut(double_ray):
    # every vertex star sums to zero, only a half space catches this one
    vec = parse_vector_text(double_ray, LINE_THROUGH)
    cert = is_member(double_ray, vec)
    assert isinstance(cert, NonMember)
    assert isinstance(cert.cut, HalfSpaceCut)
    assert cert.cut_sum != 0
    assert cut_sum(double_ray, cert.cut, vec) == cert.cut_sum


def test_json_round_trips(ladder, double_ray):
    for g, text in ((ladder, RAIL_DIFFERENCE), (double_ray, LINE_THROUGH)):
        vec = parse_vector_text(g, text)
        cert = is_member(g, vec)
        back = certificate_from_json(g, certificate_to_json(cert))
        assert verify_certificate(g, vec, back)
        assert certificate_to_json(back) == certificate_to_json(cert)


def test_scaled_member(ladder):
    vec = parse_vector_text(ladder, RAIL_DIFFERENCE).scale(3)
    cert = is_member(ladder, vec)
    assert isinstance(cert, Member)
    assert verify_certificate(ladder, vec, cert)


def test_sum_of_members(ladder):
    square = parse_vector_text(
        ladder,
        "set rail_top[0] = 1\nset rung[1] = 1\nset rail_bot[0] = -1\nset rung[0] = -1",
    )
    assert isinstance(is_member(ladder, square), Member)
    vec = square + parse_vector_text(ladder, RAIL_DIFFERENCE)
    cert = is_member(ladder, vec)
    assert isinstance(cert, Member)
    assert verify_certificate(ladder, vec, cert)


def test_member_plus_nonmember(ladder):
    rail = parse_vector_text(ladder, "tail+ rail_top from 0 = 1\ntail- rail_top from -1 = 1")
    vec = rail + parse_vector_text(ladder, RAIL_DIFFERENCE)
    assert isinstance(is_member(ladder, vec), NonMember)


def test_tampered_member_rejected(ladder):
    vec = parse_vector_text(ladder, RAIL_DIFFERENCE)
    cert = is_member(ladder, vec)
    (c0, p0), = cert.decomposition.entries
    assert not verify_certificate(ladder, vec, Member(CircleDecomposition(((c0 + 1, p0),))))
    assert not verify_certificate(ladder, vec, Member(CircleDecomposition(())))


def test_malformed_member_rejected(ladder):
    vec = parse_vector_text(ladder, RAIL_DIFFERENCE)
    # a one-dart circuit that does not close, and a dart on an unknown class
    for darts in (["rail_top[0]+"], ["nope[0]+"]):
        circuit = FiniteCircuit(tuple(parse_dart_label(t) for t in darts))
        cert = Member(CircleDecomposition(((1, circuit),)))
        assert not verify_certificate(ladder, vec, cert)
    # a ray that does not shift as it claims, and one from an unknown vertex
    step = (parse_dart_label("rail_top[0]+"),)
    for start, shift in (("top[0]", 2), ("nope[0]", 1)):
        ray = Ray(parse_vertex_label(start), (), step, shift)
        circle = EndCircle((RaySegment(ray, (), ray),))
        cert = Member(CircleDecomposition(((1, circle),)))
        assert not verify_certificate(ladder, vec, cert)


DRIFT_16 = """\
graph drift
kind periodic-z
vertex a
edge s : a -> a[+1]
edge l : a -> a[+16]
"""


def _drift_members():
    # the closed walk of 16 short steps forward and one long step back,
    # over all shifts and over each half: tails s=16, l=-1
    g = graph_from_text(DRIFT_16)
    walk = " ".join("a[%d] s[%d]" % (i, i) for i in range(16)) + " a[16] l[0] a[0]"
    for shifts in ("-inf..inf", "0..inf", "-inf..0"):
        rep = chains.parse_chain_text(g, "periodic %s { walk %s }" % (shifts, walk))
        vec = chains.edge_vector_of(rep)
        yield g, vec, is_member(g, vec)


def _rail_difference_rays(ladder):
    """RAIL_DIFFERENCE as one end circle: the top rail from the - end to
    the + end, then the bottom rail back."""
    def ray(start, dart, shift):
        return Ray(parse_vertex_label(start), (), (parse_dart_label(dart),), shift)

    top = RaySegment(ray("top[0]", "rail_top[-1]-", -1), (), ray("top[0]", "rail_top[0]+", 1))
    bot = RaySegment(ray("bot[0]", "rail_bot[0]+", 1), (), ray("bot[0]", "rail_bot[-1]-", -1))
    return Member(CircleDecomposition(((1, EndCircle((top, bot))),)))


def _tampered(dec):
    """Each certificate that one small change makes from dec, by kind."""
    entries = list(dec.entries)
    for i, (coeff, piece) in enumerate(entries):
        yield "coefficient", entries[:i] + [(coeff + 1, piece)] + entries[i + 1:]
        if isinstance(piece, CircuitFamily):
            for side in ("lo", "hi"):
                if getattr(piece, side) is None:
                    continue
                for step in (-1, 1):
                    moved = dataclasses.replace(
                        piece, **{side: getattr(piece, side) + step})
                    yield "family bound", entries[:i] + [(coeff, moved)] + entries[i + 1:]
        if isinstance(piece, EndCircle):
            for j, seg in enumerate(piece.segments):
                for side in ("back", "fwd"):
                    r = getattr(seg, side)
                    flipped = (r.repeat[0].reverse(),) + r.repeat[1:]
                    seg2 = dataclasses.replace(
                        seg, **{side: dataclasses.replace(r, repeat=flipped)})
                    segs = piece.segments[:j] + (seg2,) + piece.segments[j + 1:]
                    yield "ray repeat dart", entries[:i] + [(coeff, EndCircle(segs))] + entries[i + 1:]


def test_tampered_drift_and_rail_certificates_rejected(ladder):
    vec = parse_vector_text(ladder, RAIL_DIFFERENCE)
    cases = list(_drift_members())
    cases.append((ladder, vec, is_member(ladder, vec)))
    cases.append((ladder, vec, _rail_difference_rays(ladder)))
    kinds = set()
    for g, v, cert in cases:
        assert isinstance(cert, Member)
        assert verify_certificate(g, v, cert)
        for kind, entries in _tampered(cert.decomposition):
            kinds.add(kind)
            bad = Member(CircleDecomposition(tuple(entries)))
            assert not verify_certificate(g, v, bad), kind
    assert kinds == {"coefficient", "family bound", "ray repeat dart"}


def test_tampered_nonmember_rejected(ladder):
    vec = parse_vector_text(ladder, RAIL_DIFFERENCE)
    zero_sum = NonMember(star_cut(parse_vertex_label("top[0]")), 0)
    assert not verify_certificate(ladder, vec, zero_sum)
    wrong_sum = NonMember(star_cut(parse_vertex_label("top[0]")), 5)
    assert not verify_certificate(ladder, vec, wrong_sum)


def test_find_violated_cut(ladder):
    psi = parse_vector_text(ladder, RAIL_DIFFERENCE)
    assert find_violated_cut(ladder, psi, 1) is None
    rail = parse_vector_text(ladder, "tail+ rail_top from 0 = 1\ntail- rail_top from -1 = 1")
    cut, s = find_violated_cut(ladder, rail, 1)
    assert s != 0
    assert cut_sum(ladder, cut, rail) == s
