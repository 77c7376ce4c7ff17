"""Membership decision procedure, certificates, and their verifier.

The expected decompositions here were derived by hand and frozen; a change
in the decision procedure that alters a certificate shape should trip these
even if the verdicts stay correct.
"""

import dataclasses
import gc
import itertools
import json
import random
import re
import time
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from endcycle import chains, cuts, examples, membership
from endcycle.circles import (
    CircleDecomposition,
    CircuitFamily,
    EndCircle,
    FiniteCircuit,
    RaySegment,
)
from endcycle.cuts import HalfSpaceCut, cut_sum, star_cut
from endcycle.errors import (FormatError, InternalError, NotARay, NotRepresentable, UnknownEdge,
                             UnknownVertex)
from endcycle.graph import (EdgeId, EndId, Graph, Ray, first_shared, graph_from_text,
                            parse_dart_label, parse_vertex_label, vertex_key)
from endcycle.membership import (
    Member,
    NonMember,
    certificate_from_json,
    certificate_to_json,
    find_violated_cut,
    is_member,
    verify_certificate,
)
from endcycle.vectors import EdgeVector, parse_vector_text

from conftest import CHORDS, LADDER
from test_properties import constructed_member

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


_SQUARE = FiniteCircuit(tuple(parse_dart_label(t) for t in
                              ("rail_top[0]+", "rung[1]+", "rail_bot[0]-", "rung[0]-")))


def _holds(g, piece, coeff=1, shift=0):
    """Whether coeff * piece verifies as the square moved shift cells."""
    vec = _SQUARE.shifted(g, shift).vector(g)
    return verify_certificate(g, vec, Member(CircleDecomposition(((coeff, piece),))))


def _chain_with(g, text, **change):
    rep = chains.parse_chain_text(g, text)
    if rep.periodic:
        return chains.ChainRep(g, periodic=(dataclasses.replace(rep.periodic[0], **change),))
    return chains.ChainRep(g, finite=((change["coeff"], rep.finite[0][1]),))


_RUNG_RAY = (parse_vertex_label("top[0]"), (), (parse_dart_label("rail_top[0]+"),))
_TOP = "walk top[0] rail_top[0] top[1]"

# a number built in code that is not an int, a bool included, is a typed
# error (inside a certificate, a failed verification), never a bare
# TypeError, and a bool is not read as 0 or 1
_NON_INTEGERS = {
    "family bound": lambda g: _holds(g, CircuitFamily(_SQUARE, "0", None)),
    "bool family bounds": lambda g: _holds(g, CircuitFamily(_SQUARE, True, True), shift=1),
    "bool coefficient": lambda g: _holds(g, _SQUARE, coeff=True),
    "ray shift": lambda g: g.end_of_ray(Ray(*_RUNG_RAY, "1")),
    "bool ray shift": lambda g: g.end_of_ray(Ray(*_RUNG_RAY, True)),
    "bool vector value": lambda g: EdgeVector(g, {EdgeId("rung", 0): True}),
    "bool tail value": lambda g: EdgeVector(g, tails={("rail_top", "+"): (0, True)}),
    "bool tail threshold": lambda g: EdgeVector(g, tails={("rail_top", "+"): (True, 1)}),
    "bool cut radius": lambda g: cut_sum(g, HalfSpaceCut((EndId("+", 0),), True), EdgeVector(g)),
    "bool half-space radius": lambda g: g.in_half_space(parse_vertex_label("top[5]"), EndId("+", 0), True),
    "bool truncation radius": lambda g: g.truncate(True),
    "bool chain coefficient": lambda g: _chain_with(g, _TOP, coeff=True),
    "bool member coefficient": lambda g: _chain_with(g, "periodic 0..1 { %s }" % _TOP, coeff=True),
    "bool member step": lambda g: _chain_with(g, "periodic 0..1 { %s }" % _TOP, step=True),
    "bool member bound": lambda g: _chain_with(g, "periodic 0..1 { %s }" % _TOP, hi=True),
}


@pytest.mark.parametrize("case", sorted(_NON_INTEGERS))
def test_non_integer_numbers_are_refused(ladder, case):
    try:
        out = _NON_INTEGERS[case](ladder)
    except (FormatError, NotARay):
        return
    assert out is False, out


@pytest.mark.parametrize("error", [FormatError, UnknownEdge, UnknownVertex, NotARay])
def test_failed_self_check_is_an_internal_error(monkeypatch, ladder, error):
    # the self-check rejecting the solver's own decomposition of a valid
    # input is a solver failure, whatever error class the check raised
    def malformed(self, g):
        raise error("malformed piece")

    monkeypatch.setattr(CircleDecomposition, "check", malformed)
    with pytest.raises(InternalError):
        membership.decompose(ladder, parse_vector_text(ladder, RAIL_DIFFERENCE))


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


# constructed members where the rule picks strands for a group whose rays
# would share an edge (on both sides for periodic-z 34707), so that group
# is composed within the one peel
RAYS_MEET = [("periodic-z", seed) for seed in (2161, 6448, 11384, 17395, 22287, 26660,
                                                34707, 39677)] + [("periodic-n", 8311)]


def test_each_decision_assembles_one_pass(monkeypatch, ladder, chords):
    # composite or strands is chosen per drifting group before anything is
    # taken off, so no decision peels or builds a second pass
    calls = []

    def counting(name):
        inner = getattr(membership, name)

        def call(*args):
            calls.append(name)
            return inner(*args)
        return call

    for name in ("_assemble", "_peel_runs"):
        monkeypatch.setattr(membership, name, counting(name))
    cases = [(g, vec) for g, vec, _cert in _drift_members()]
    cases.append((ladder, parse_vector_text(ladder, RAIL_DIFFERENCE)))
    cases.append((chords, parse_vector_text(chords, CHORD_RAIL_LOOP)))
    tie = graph_from_text(OVERLAPPING_STRANDS)
    cases.append((tie, parse_vector_text(tie, OVERLAPPING_TAILS)))
    cases += [constructed_member(seed, kind) for kind, seed in RAYS_MEET]
    for g, vec in cases:
        del calls[:]
        cert = is_member(g, vec)
        assert sorted(calls) == ["_assemble", "_peel_runs"]
        assert isinstance(cert, Member)
        assert verify_certificate(g, vec, certificate_from_json(g, certificate_to_json(cert)))


def test_each_composite_is_laid_out_once(monkeypatch):
    # a composite is laid out in one order; when that layout fails, _compose
    # stitches the group per zero-drift subgroup instead of trying another
    builds = _counting(monkeypatch, membership, "_build_composite")
    layouts = _counting(monkeypatch, membership, "_assemble_composite")
    for seed in (0, 15, 25):
        g, vec = constructed_member(seed, "periodic-z")
        cert = is_member(g, vec)
        assert isinstance(cert, Member)
        assert verify_certificate(g, vec, certificate_from_json(g, certificate_to_json(cert)))
    assert builds[0] and layouts[0] == builds[0]


def test_quotient_facts_are_taken_once_per_graph(monkeypatch):
    # the quotient multigraph (class components, arc lists and roads, from
    # one spanning forest) depends on the graph alone: a second decision on
    # the same graph does not build it again
    lists = _counting(monkeypatch, membership, "_arc_lists")
    g = graph_from_text(OVERLAPPING_STRANDS)
    vec = parse_vector_text(g, OVERLAPPING_TAILS)
    for _ in range(2):
        assert isinstance(is_member(g, vec), Member)
        assert lists[0] == 1


def test_strands_are_lifted_only_to_be_kept_or_tested(monkeypatch):
    # the one-sided drift walk's group, and the OVERLAPPING_STRANDS + group,
    # are composed by the rule, so their strands are never lifted; the
    # OVERLAPPING_STRANDS - group keeps strands by the rule, so they are
    # lifted, and as their rays meet, the group is composed all the same
    one_sided = list(_drift_members())[1][:2]
    tie = graph_from_text(OVERLAPPING_STRANDS)
    lifts = _counting(monkeypatch, membership, "_lift_strands")
    composes = _counting(monkeypatch, membership, "_compose")
    assert isinstance(is_member(*one_sided), Member)
    assert (lifts[0], composes[0]) == (0, 1)
    cert = is_member(tie, parse_vector_text(tie, OVERLAPPING_TAILS))
    assert (lifts[0], composes[0]) == (1, 3)
    assert not any(isinstance(p, EndCircle) for _c, p in cert.decomposition.entries)


def test_finite_stage_names_the_first_node_that_does_not_balance(ladder):
    # hand-made residues that no peel leaves: the error names the first
    # vertex in vertex_key order, then the first end, whatever the order
    # the arcs come in
    for text in ("set rung[3] = 1\nset rung[0] = 1", "set rung[0] = 1\nset rail_top[5] = 2"):
        resid = parse_vector_text(ladder, text)
        with pytest.raises(InternalError, match=re.escape(
                "finite stage is not conservative at bot[0]")):
            membership._finish_finite(ladder, resid, [])
    top = parse_vertex_label("top[0]")
    stubs = [(1, None, top, EndId("-", 0)), (-1, None, top, EndId("+", 0))]
    for order in (stubs, stubs[::-1]):
        with pytest.raises(InternalError, match=re.escape("ray stubs into end+0 do not balance")):
            membership._finish_finite(ladder, parse_vector_text(ladder, ""), order)


# the minimal repro of the mended fault F1: on the one-ended lattice these
# tails' cycles are lifted at offset 0, and darts that pass below index 0
# before the template is normalized raised UnknownEdge
F1_GRAPH = """\
graph f1
kind periodic-n
vertex c0
vertex c2
edge e1 : c2 -> c0[+1]
edge e4 : c0 -> c2
edge e5 : c2 -> c2[+1]
"""


def test_one_ended_drift_repro_is_a_member():
    g = graph_from_text(F1_GRAPH)
    vec = parse_vector_text(
        g, "tail+ e1 from 0 = -1\ntail+ e4 from 1 = -1\ntail+ e5 from 0 = 1")
    cert = is_member(g, vec)
    assert isinstance(cert, Member)
    assert verify_certificate(g, vec, cert)
    back = certificate_from_json(g, certificate_to_json(cert))
    assert verify_certificate(g, vec, back)


# drawn by the constructed-member property test: the - tails hold a
# drifting group of flux 2 and two unit copies, so the rule picks strands,
# but the two copies' rays would share an edge, so the group is composed
OVERLAPPING_STRANDS = """\
graph tie
kind periodic-z
vertex c1
vertex c2
edge e1 : c1 -> c1[3]
edge e2 : c2 -> c2[2]
edge e3 : c2[1] -> c1[2]
edge e4 : c1[2] -> c2[0]
edge e5 : c1[1] -> c2[1]
"""
OVERLAPPING_TAILS = """\
tail+ e1 from 6 = -1
tail+ e2 from 5 = 1
tail+ e3 from 5 = 1
tail- e3 from 4 = 2
tail- e4 from 6 = 1
tail+ e5 from 0 = 1
tail- e5 from -1 = 1"""


def test_overlapping_strands_fall_back_to_composites():
    g = graph_from_text(OVERLAPPING_STRANDS)
    vec = parse_vector_text(g, OVERLAPPING_TAILS)
    cert = is_member(g, vec)
    assert isinstance(cert, Member)
    assert verify_certificate(g, vec, cert)
    assert not any(isinstance(p, EndCircle) for _c, p in cert.decomposition.entries)


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


# -- the star check against a scan of every vertex ---------------------------

F2_GRAPH = """\
graph f2
kind periodic-z
vertex c0
vertex c1
cap-vertex p0
cap-vertex p1
edge e0 : c0 -> c1[+1]
edge e1 : c1 -> c0[+3]
edge e2 : c0 -> c1[+3]
edge e3 : c0 -> c0[+1]
edge e4 : c1 -> c1[+1]
edge k0 : p0 -> c1[1]
edge k1 : p1 -> c1[2]
"""

# static edges at negative and far cell indices, one between two caps, and
# two classes of equal offsets between the same vertex classes
HOOKS = """\
graph hooks
kind periodic-z
vertex a
vertex b
cap-vertex p
cap-vertex q
edge s : a -> a[+1]
edge r1 : a -> b
edge r2 : b -> a
edge t : b -> a[+2]
edge k : p -> a[-2]
edge m : b[5] -> q
edge pq : p -> q
"""

# one-ended: a cap feeding two cells, a long edge and a static edge past 0
FAN = """\
graph fan
kind periodic-n
cap-vertex o
vertex x
vertex y
edge in : o -> x[0]
edge out : y[3] -> o
edge sx : x -> x[+1]
edge sy : y[+2] -> y
edge xy : x -> y
"""

# two-sided constant circulations: every star sums to zero far out, so the
# perturbations below decide where the first nonzero star lies
STAR_GRAPHS = {
    "f2": (graph_from_text(F2_GRAPH),
           "tail+ e0 from 0 = 3\ntail- e0 from -1 = 3\n"
           "tail+ e1 from 0 = 1\ntail- e1 from -1 = 1\n"
           "tail+ e2 from 0 = -2\ntail- e2 from -1 = -2\n"
           "tail+ e3 from 0 = 1\ntail- e3 from -1 = 1\n"
           "tail+ e4 from 0 = -1\ntail- e4 from -1 = -1"),
    "hooks": (graph_from_text(HOOKS),
              "tail+ s from 0 = 2\ntail- s from -1 = 2\n"
              "tail+ r1 from 0 = 1\ntail- r1 from -1 = 1\n"
              "tail+ r2 from 0 = 1\ntail- r2 from -1 = 1"),
    "chords": (graph_from_text(CHORDS), CHORD_RAIL_LOOP),
    "fan": (graph_from_text(FAN), ""),
}


def _star_vector(g, base, rng):
    """A multiple of base plus, each often left out: a one-sided "+" and a
    one-sided "-" tail, explicit entries on the tails and off them, a far
    single entry and a static value."""
    one_ended = g.kind == "periodic-n"
    near = 0 if one_ended else -8
    cells = [ec.name for ec in g.cell_edge_classes]
    vec = parse_vector_text(g, base).scale(rng.choice([0, 1, -2]))
    vals, tails = {}, {}
    plus = None
    if rng.random() < 0.4:
        plus = rng.choice(cells), rng.randint(near, 6), rng.choice([-2, -1, 1, 3])
        tails[(plus[0], "+")] = plus[1:]
    if not one_ended and rng.random() < 0.3:
        cname, t, v = rng.choice(cells), rng.randint(-6, 6), rng.choice([-2, -1, 1, 3])
        if plus is not None and plus[0] == cname and plus[2] != v:
            t = min(t, plus[1] - 1)
        tails[(cname, "-")] = (t, v)
    for _ in range(rng.choice([0, 0, 0, 1, 2, 3])):
        vals[EdgeId(rng.choice(cells), rng.randint(near, 8))] = rng.randint(-2, 2)
    if rng.random() < 0.2:
        n = rng.randint(40, 120)
        vals[EdgeId(rng.choice(cells), n if one_ended or rng.random() < 0.5 else -n)] = 1
    if g.static_edge_classes and rng.random() < 0.3:
        vals[EdgeId(rng.choice(g.static_edge_classes).name, None)] = rng.randint(-2, 2)
    return vec + EdgeVector(g, vals, tails)


def _dense_first_star(g, vec):
    """The first nonzero star by vertex_key among the caps and every cell
    of the window decompose checks, with its sum; None when all are 0."""
    deep = max(vec.support_bound(), g.stabilization_radius) + g.D + 1
    verts = list(g.cap_vertices()) + list(g.cell_vertices_within(-deep - 1, deep + 1))
    for v in sorted(verts, key=vertex_key):
        s = sum(vec.evaluate(d) for d, _w in g.neighbors(v))
        if s:
            return v, s
    return None


def _assert_stars_match_dense_scan(g, vec):
    want = _dense_first_star(g, vec)
    if want is None:
        deep = max(vec.support_bound(), g.stabilization_radius) + g.D + 1
        membership._check_stars(g, vec, deep)
        return
    cert = is_member(g, vec)
    assert isinstance(cert, NonMember)
    assert (cert.cut, cert.cut_sum) == (star_cut(want[0]), want[1])


@given(st.sampled_from(sorted(STAR_GRAPHS)), st.integers(0, 2**32 - 1))
@settings(max_examples=400, deadline=None)
def test_star_check_matches_dense_scan(gname, seed):
    g, base = STAR_GRAPHS[gname]
    _assert_stars_match_dense_scan(g, _star_vector(g, base, random.Random(seed)))


def test_star_cut_at_static_endpoint():
    # k0 : p0 -> c1[1]; c1[1] comes before p0 in vertex_key order
    g = STAR_GRAPHS["f2"][0]
    vec = parse_vector_text(g, "set k0 = 1")
    _assert_stars_match_dense_scan(g, vec)
    cert = is_member(g, vec)
    assert cert.cut.describe() == "X = {c1[1]}"
    assert cert.cut_sum == -1


def test_f2_member_is_stitched_per_zero_drift_subgroup():
    # the two-sided drifting group of weights/drifts 1/4, 2/-2, 1/1, 1/-1
    # has total drift zero, but its one composite does not lay out; it is
    # stitched as two zero-drift subgroups (1/4 with 2/-2, 1/1 with 1/-1)
    # instead of raising InternalError
    g, text = STAR_GRAPHS["f2"]
    vec = parse_vector_text(g, text)
    cert = is_member(g, vec)
    assert isinstance(cert, Member)
    back = certificate_from_json(g, json.loads(json.dumps(certificate_to_json(cert))))
    assert verify_certificate(g, vec, back)


def test_family_past_the_window_is_rejected(ladder):
    # four squares at indices 14..17: the template's index plus the shift
    # range reaches past both bounds, and the certificate must not pass
    # for the zero vector
    square = FiniteCircuit(tuple(parse_dart_label(t) for t in (
        "rail_top[9]+", "rung[10]+", "rail_bot[9]-", "rung[9]-")))
    cert = Member(CircleDecomposition(((1, CircuitFamily(square, 5, 8)),)))
    assert not verify_certificate(ladder, parse_vector_text(ladder, ""), cert)


# -- cost set by the description, not by the size of its indices -------------

def _ladder_square(g, n):
    return parse_vector_text(g, "set rail_top[%d] = 1\nset rung[%d] = 1\n"
                                "set rail_bot[%d] = -1\nset rung[%d] = -1" % (n, n + 1, n, n))


def test_square_at_a_billion_is_the_square_at_ten_shifted(ladder):
    near = is_member(ladder, _ladder_square(ladder, 10))
    far_vec = _ladder_square(ladder, 10**9)
    far = is_member(ladder, far_vec)
    (coeff, circuit), = near.decomposition.entries
    assert isinstance(far, Member)
    assert far.decomposition.entries == ((coeff, circuit.shifted(ladder, 10**9 - 10)),)
    assert verify_certificate(ladder, far_vec, far)


def test_far_squares_leave_no_state_per_index():
    # every half space is read off the quotient's forest, so deciding
    # squares at 500 distinct indices keeps nothing per radius behind
    g = graph_from_text(LADDER)
    assert isinstance(is_member(g, _ladder_square(g, 10)), Member)
    gc.collect()
    tracemalloc.start()
    try:
        for i in range(500):
            assert isinstance(is_member(g, _ladder_square(g, 10**6 + 7 * i)), Member)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept < 1_000_000


def test_far_bump_is_cut_at_its_star(ladder):
    vec = parse_vector_text(ladder, "set rail_top[100000] = 1")
    cert = is_member(ladder, vec)
    assert isinstance(cert, NonMember)
    assert (cert.cut, cert.cut_sum) == (star_cut(parse_vertex_label("top[100000]")), 1)
    assert verify_certificate(ladder, vec, cert)


# Cost pinned by call counts: an explicit value far inside a one-sided tail
# and rail tails closed far out cost what their description costs.

def _counting(monkeypatch, owner, name):
    calls = [0]
    inner = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return inner(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


# two rails joined by one edge whose offset is the largest the format takes
OFFSET_RAILS = """\
graph offset-rails
kind periodic-z
vertex a
vertex b
edge s : a -> a[+1]
edge t : b -> b[+1]
edge l : a -> b[+10000]
"""


def test_first_decision_enumerates_no_cut(monkeypatch):
    # the crossing counts of the end flux are read off the pieces past R,
    # so the first decision on a graph enumerates no half-space cut, however
    # far its edges reach: the circuit a[0] a[1] b[10001] b[10000] a[0]
    g = graph_from_text(OFFSET_RAILS)
    enumerated = _counting(monkeypatch, cuts, "cut_edges")
    placed = _counting(monkeypatch, Graph, "in_half_space")
    vec = parse_vector_text(g, "set s[0] = 1\nset l[1] = 1\nset t[10000] = -1\nset l[0] = -1")
    cert = is_member(g, vec)
    assert (enumerated[0], placed[0]) == (0, 0)
    assert isinstance(cert, Member)
    assert verify_certificate(g, vec, certificate_from_json(g, certificate_to_json(cert)))


def test_far_value_inside_a_tail_costs_its_description(monkeypatch, chords):
    calls = _counting(monkeypatch, Graph, "neighbors")
    counts = []
    for n in (10**3, 10**5):
        vec = parse_vector_text(chords, CHORD_RAIL_LOOP + "set pos_step[%d] = 2\n" % n)
        calls[0] = 0
        cert = is_member(chords, vec)
        counts.append(calls[0])
        assert (cert.cut, cert.cut_sum) == (star_cut(parse_vertex_label("pos[%d]" % n)), 1)
    assert counts[0] == counts[1]


def test_far_value_inside_a_tail_sums_a_fixed_number_of_stars(monkeypatch, chords):
    # the star check sums probed stars off the incidence table, never
    # through Graph.neighbors: it sums as many stars at N = 10^5 as at 10^3
    calls = _counting(monkeypatch, membership, "_star_sum")
    counts = []
    for n in (10**3, 10**5):
        vec = parse_vector_text(chords, CHORD_RAIL_LOOP + "set pos_step[%d] = 2\n" % n)
        calls[0] = 0
        cert = is_member(chords, vec)
        counts.append(calls[0])
        assert (cert.cut, cert.cut_sum) == (star_cut(parse_vertex_label("pos[%d]" % n)), 1)
    assert counts[0] == counts[1] > 0


def test_far_rail_tails_verify_at_a_fixed_cost(monkeypatch, ladder):
    calls = _counting(monkeypatch, EdgeVector, "value_on")
    counts = []
    for n in (100, 1000):
        vec = parse_vector_text(ladder, (
            "set rung[%d] = -1\nset rung[%d] = 1\n"
            "tail+ rail_top from %d = 1\ntail+ rail_bot from %d = -1\n"
            "tail- rail_top from %d = 1\ntail- rail_bot from %d = -1\n")
            % (n, -n, n, n, -n - 1, -n - 1))
        cert = is_member(ladder, vec)
        calls[0] = 0
        assert verify_certificate(ladder, vec, cert)
        counts.append(calls[0])
    assert counts[0] == counts[1]


# -- long runs inside the data ------------------------------------------------
#
# A long stretch of constant data is a quotient circulation; its cycles are
# taken off as bounded families, so the certificate no longer grows with
# the length of the stretch.

LADDER_SQUARE = "walk top[0] rail_top[0] top[1] rung[1] bot[1] rail_bot[0] bot[0] rung[0] top[0]"


def _far_rail_tails(g, n):
    return parse_vector_text(g, (
        "set rung[%d] = -1\nset rung[%d] = 1\n"
        "tail+ rail_top from %d = 1\ntail+ rail_bot from %d = -1\n"
        "tail- rail_top from %d = 1\ntail- rail_bot from %d = -1\n")
        % (n, -n, n, n, -n - 1, -n - 1))


def _square_family(g, n):
    rep = chains.parse_chain_text(g, "periodic 0..%d { %s }" % (n - 1, LADDER_SQUARE))
    return chains.edge_vector_of(rep)


def _rail_tails_and_far_square(g, n):
    return parse_vector_text(g, (
        "tail+ rail_top from 0 = 1\ntail+ rail_bot from 0 = -1\nset rung[0] = -1\n"
        "set rail_top[%d] = 2\nset rung[%d] = 1\nset rail_bot[%d] = -2\nset rung[%d] = -1\n")
        % (n, n + 1, n, n))


def _decided_certificate(g, vec):
    """The JSON text of vec's certificate and the seconds deciding took;
    the certificate must verify after a round trip."""
    t0 = time.perf_counter()
    cert = is_member(g, vec)
    took = time.perf_counter() - t0
    assert isinstance(cert, Member)
    text = json.dumps(certificate_to_json(cert))
    assert verify_certificate(g, vec, certificate_from_json(g, json.loads(text)))
    return text, took


@pytest.mark.parametrize("make", [_far_rail_tails, _square_family, _rail_tails_and_far_square])
def test_long_constant_runs_cost_their_description(ladder, make):
    (near, _t), (far, took) = (_decided_certificate(ladder, make(ladder, n)) for n in (300, 10**4))
    # only the printed indices get longer
    assert abs(len(far) - len(near)) <= 64
    assert took < 0.5


def test_square_inside_one_sided_tails_answers_small(ladder):
    # the tails' runs hold the square as a few changes of value, so parsing
    # and deciding cost the same at every n, and the certificate differs
    # from the one at n = 10^3 only in the digits of its indices
    near, _took = _decided_certificate(ladder, _rail_tails_and_far_square(ladder, 10**3))
    t0 = time.perf_counter()
    vec = _rail_tails_and_far_square(ladder, 10**5)
    parsed = time.perf_counter() - t0
    far, took = _decided_certificate(ladder, vec)
    assert parsed + took < 0.05
    assert re.sub(r"\d+", "0", far) == re.sub(r"\d+", "0", near)


# the graph of the mended fault F1: a run's composite, lifted at offset 0,
# passes e1[-1], which does not exist; only the normalized template is
# checked, so the run is taken off as one small family
F1_FAMILY = "set e5[%d] = 1\nset e4[%d] = -1\nset e1[%d] = -1"


@pytest.mark.parametrize("n", [200, 2000])
def test_one_ended_run_composite_is_laid_out_away_from_zero(n):
    g = graph_from_text(F1_GRAPH)
    vec = parse_vector_text(g, "\n".join(F1_FAMILY % (k, k + 1, k) for k in range(n + 1)))
    text, _took = _decided_certificate(g, vec)
    assert len(text) < 1000


STRIP_3 = """\
graph strip-3
kind periodic-z
vertex r0
vertex r1
vertex r2
edge rail0 : r0 -> r0[+1]
edge rail1 : r1 -> r1[+1]
edge rail2 : r2 -> r2[+1]
edge rung0 : r0 -> r1
edge rung1 : r1 -> r2
"""


def test_heavy_mirrored_group_is_refused_before_any_copy():
    # the composite of these tails would take 2a + 2 unit passes; its
    # length is refused up front, so a weight of 10^7 costs no memory
    g = graph_from_text(STRIP_3)
    a = 10**7
    vec = parse_vector_text(g, "".join(
        "tail%s rail%d from %d = %d\n" % (d, j, 0 if d == "+" else -1, v)
        for d in "+-" for j, v in enumerate((a, 1, -(a + 1)))))
    gc.collect()
    tracemalloc.start()
    try:
        t0 = time.perf_counter()
        cert = is_member(g, vec)
        took = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert isinstance(cert, Member)
    assert verify_certificate(g, vec, cert)
    assert peak < 1_000_000
    assert took < 1.0


def test_two_sided_drift_walk_is_one_family():
    # over all shifts and over each half, the walk of W short steps and one
    # long step back is one family: a one-sided family starts at the
    # input's last change, so no stretch is left to the finite stage
    for W in (16, 64, 128):
        g = graph_from_text(DRIFT_16.replace("[+16]", "[+%d]" % W))
        walk = " ".join("a[%d] s[%d]" % (i, i) for i in range(W)) + " a[%d] l[0] a[0]" % W
        for shifts in ("-inf..inf", "0..inf", "-inf..0"):
            rep = chains.parse_chain_text(g, "periodic %s { walk %s }" % (shifts, walk))
            text, _took = _decided_certificate(g, chains.edge_vector_of(rep))
            dec = certificate_from_json(g, json.loads(text)).decomposition
            assert [type(piece) for _c, piece in dec.entries] == [CircuitFamily]
            assert len(text) < 8000


LOOPS = """\
graph loops
kind periodic-z
vertex a
edge x : a -> a[+2]
edge y : a -> a[+2]
edge z : a -> a[+2]
"""


@pytest.mark.parametrize("data", ["", "set x[0] = 101\nset y[0] = -100\n"],
                         ids=["no data", "data at 0"])
def test_one_sided_copies_of_a_mirrored_composite_tile(data):
    # tails x = 100, y = -99 and z = -1 on both sides: the two-sided
    # composite, 200 passes, is longer than the group's strands, so each
    # side peels its own one-sided copy of it. The + copy starts where the
    # - copy ends, so together they hold every shift once, with or without
    # data in between
    g = graph_from_text(LOOPS)
    vec = parse_vector_text(g, data + "".join(
        "tail%s %s from %d = %d\n" % (d, e, 0 if d == "+" else -1, v)
        for d in "+-" for e, v in (("x", 100), ("y", -99), ("z", -1))))
    text, _took = _decided_certificate(g, vec)
    dec = certificate_from_json(g, json.loads(text)).decomposition
    families = {p.lo is None: p for _c, p in dec.entries if isinstance(p, CircuitFamily)}
    plus, minus = families[False], families[True]
    assert plus.template == minus.template and plus.lo == minus.hi + 1
    assert len(text) < 25000


def test_mirrored_group_builds_its_composite_once(monkeypatch):
    # on the tails above the two-sided composite does not fit between the
    # anchors, and each side takes a one-sided copy of the same composite:
    # it is built once for both signs
    calls = _counting(monkeypatch, membership, "_try_composite")
    g = graph_from_text(LOOPS)
    vec = parse_vector_text(g, "".join(
        "tail%s %s from %d = %d\n" % (d, e, 0 if d == "+" else -1, v)
        for d in "+-" for e, v in (("x", 100), ("y", -99), ("z", -1))))
    assert isinstance(is_member(g, vec), Member)
    assert calls[0] == 1


def test_heavy_loop_tails_decide_and_verify_in_a_second():
    # tails x = 1000, y = -999, z = -1 give one-sided families of a
    # composite with 2,000 darts; evaluating them adds each class's runs
    # where they meet the windows instead of walking every dart over them
    g = graph_from_text(LOOPS)
    vec = parse_vector_text(g, "".join(
        "tail%s %s from %d = %d\n" % (d, e, 0 if d == "+" else -1, v)
        for d in "+-" for e, v in (("x", 1000), ("y", -999), ("z", -1))))
    t0 = time.perf_counter()
    cert = is_member(g, vec)
    decided = time.perf_counter() - t0
    t0 = time.perf_counter()
    assert verify_certificate(g, vec, cert)
    verified = time.perf_counter() - t0
    assert isinstance(cert, Member)
    assert decided < 1.0 and verified < 1.0


def test_run_fanned_out_to_a_cap_is_left_to_the_finite_stage():
    # every cell of the run meets the cap, so the run's own values do not
    # balance at the vertex classes and it cannot be peeled as a circulation
    n = 12
    g = graph_from_text(
        "graph fan\nkind periodic-z\nvertex a\nvertex b\ncap-vertex p\n"
        "edge ra : a -> a[+1]\nedge rb : b -> b[+1]\nedge ab : a -> b\n"
        + "".join("edge pa%d : p -> a[%d]\nedge bp%d : b[%d] -> p\n" % (k, k, k, k) for k in range(n)))
    vec = parse_vector_text(g, "".join(
        "set ab[%d] = 1\nset pa%d = 1\nset bp%d = 1\n" % (k, k, k) for k in range(n)))
    cert = is_member(g, vec)
    assert isinstance(cert, Member)
    assert verify_certificate(g, vec, cert)


# -- re-summing certificates exactly ------------------------------------------
#
# A member certificate is verified by settling its counts into one vector.
# Rays of one class and direction settle in blocks around their anchors, so
# anchors far apart cost their description, and a sum that changes between
# two blocks is listed across the gap rather than skipped.

def _ray(start, repeat, shift):
    return Ray(parse_vertex_label(start), (),
               tuple(parse_dart_label(d) for d in repeat.split()), shift)


def _rail_difference_circle(n):
    """The ladder's rail difference as one end circle through top[n] and
    bot[n], with rays of shift 2."""
    top = RaySegment(_ray("top[%d]" % n, "rail_top[%d]- rail_top[%d]-" % (n - 1, n - 2), -2), (),
                     _ray("top[%d]" % n, "rail_top[%d]+ rail_top[%d]+" % (n, n + 1), 2))
    bot = RaySegment(_ray("bot[%d]" % n, "rail_bot[%d]+ rail_bot[%d]+" % (n, n + 1), 2), (),
                     _ray("bot[%d]" % n, "rail_bot[%d]- rail_bot[%d]-" % (n - 1, n - 2), -2))
    return EndCircle((top, bot))


def test_far_anchored_rays_verify_at_their_description(ladder):
    dec = CircleDecomposition(((1, _rail_difference_circle(0)),
                               (-1, _rail_difference_circle(10**9))))
    t0 = time.perf_counter()
    assert verify_certificate(ladder, parse_vector_text(ladder, ""), Member(dec))
    assert time.perf_counter() - t0 < 1.0


TWIN_RAILS = "graph twins\nkind periodic-z\nvertex a\nedge x : a -> a[+1]\nedge y : a -> a[+1]\n"


def _alternating_double_ray(n):
    """A double ray into end+ from a[n]: out along x[n] y[n+1] x[n+2] ...,
    in along y[n] x[n+1] y[n+2] ..., so both classes alternate in sign."""
    back = _ray("a[%d]" % n, "y[%d]+ x[%d]+" % (n, n + 1), 2)
    fwd = _ray("a[%d]" % n, "x[%d]+ y[%d]+" % (n, n + 1), 2)
    return EndCircle((RaySegment(back, (), fwd),))


@pytest.mark.parametrize("n", [10, 1000])
def test_sum_that_alternates_between_anchors_verifies(n):
    g = graph_from_text(TWIN_RAILS)
    dec = CircleDecomposition(((1, _alternating_double_ray(0)),
                               (-1, _alternating_double_ray(n))))
    vec = EdgeVector(g, {EdgeId(cls, i): sign * (-1) ** i
                         for cls, sign in (("x", 1), ("y", -1)) for i in range(n)})
    t0 = time.perf_counter()
    assert verify_certificate(g, vec, Member(dec))
    assert time.perf_counter() - t0 < 1.0
    assert not verify_certificate(g, parse_vector_text(g, ""), Member(dec))


def test_rays_of_a_long_common_period_are_not_representable(ladder):
    # shifts 449 and 457 on rail_top repeat together every 205,193 indices,
    # and settling needs two such periods
    seg = RaySegment(_ray("top[0]", "rail_top[0]+", 449), (),
                     _ray("top[0]", "rail_top[0]+", 457))
    dec = CircleDecomposition(((1, EndCircle((seg,))),))
    t0 = time.perf_counter()
    with pytest.raises(NotRepresentable):
        membership._values_agree(ladder, parse_vector_text(ladder, ""), dec)
    assert time.perf_counter() - t0 < 1.0


def _rail_block_circle(a, b):
    """RAIL_DIFFERENCE as one end circle through top[0] and bot[0], whose
    rays repeat blocks of a darts toward the - end and b toward the +."""
    def ray(v, sign, k):
        darts = " ".join("rail_%s[%d]+" % (v, i) if sign > 0 else "rail_%s[%d]-" % (v, -1 - i)
                         for i in range(k))
        return _ray("%s[0]" % v, darts, sign * k)

    top = RaySegment(ray("top", -1, a), (), ray("top", 1, b))
    bot = RaySegment(ray("bot", 1, b), (), ray("bot", -1, a))
    return EndCircle((top, bot))


def test_rays_of_long_blocks_are_checked_by_arithmetic(ladder):
    # whether two repeat darts' lattices meet is settled from their anchors
    # and shifts, not by a scan over the 61 * 67 residues; the best of three
    # verifications is timed, about 0.06 s on a 2-core machine
    vec = parse_vector_text(ladder, RAIL_DIFFERENCE)
    cert = Member(CircleDecomposition(((1, _rail_block_circle(61, 67)),)))
    took = []
    for _ in range(3):
        t0 = time.perf_counter()
        assert verify_certificate(ladder, vec, cert)
        took.append(time.perf_counter() - t0)
    assert min(took) < 0.1
    # the same rays twice along one rail share edges
    ray = cert.decomposition.entries[0][1].segments[0].fwd
    twice = EndCircle((RaySegment(ray, (), ray),))
    assert not verify_certificate(ladder, vec, Member(CircleDecomposition(((1, twice),))))


def test_rays_of_opposite_long_blocks_settle_by_their_own_periods(ladder):
    # the rays toward the - end repeat every 449 indices and those toward
    # the + end every 457; no gap between their starts is reached by both,
    # so each side is settled over two of its own periods, not over two of
    # their common period 205,193, which is past the evaluation limit
    vec = parse_vector_text(ladder, RAIL_DIFFERENCE)
    cert = Member(CircleDecomposition(((1, _rail_block_circle(449, 457)),)))
    took = []
    for _ in range(3):
        t0 = time.perf_counter()
        assert verify_certificate(ladder, vec, cert)
        took.append(time.perf_counter() - t0)
    assert min(took) < 1.0


def test_rays_of_longer_blocks_are_checked_by_residue(ladder):
    # a ray's repeat darts are bucketed by residue, so checking that the
    # circle passes each edge once grows with the blocks' lengths, not with
    # the 1999 * 2003 pairs of their darts; the best of three verifications
    # is timed, about 0.07 s on a 2-core machine
    vec = parse_vector_text(ladder, RAIL_DIFFERENCE)
    cert = Member(CircleDecomposition(((1, _rail_block_circle(1999, 2003)),)))
    took = []
    for _ in range(3):
        t0 = time.perf_counter()
        assert verify_certificate(ladder, vec, cert)
        took.append(time.perf_counter() - t0)
    assert min(took) < 1.0


def test_lattices_meet_where_a_search_finds_them():
    for a, b in itertools.product(range(-6, 7), repeat=2):
        for sa, sb in itertools.product([s for s in range(-5, 6) if s], repeat=2):
            found = {a + p * sa for p in range(40)} & {b + q * sb for q in range(40)}
            hit = first_shared([], [("e", a, sa), ("e", b, sb)])
            assert (hit is not None) == bool(found), (a, sa, b, sb)
            assert hit is None or hit[1] in found, (a, sa, b, sb, hit)


def test_counts_left_of_zero_are_off_a_one_ended_lattice(chords):
    # the two families differ only at pos_step[-1], which a periodic-n
    # graph does not have
    fam = lambda label: CircuitFamily(FiniteCircuit((parse_dart_label(label),)), 0, None)
    dec = CircleDecomposition(((1, fam("pos_step[0]+")), (-1, fam("pos_step[-1]+"))))
    assert membership._values_agree(chords, parse_vector_text(chords, ""), dec)


# -- end circles start at the data --------------------------------------------
#
# Strands are anchored the anchor margin past the input's own changes, and
# each ray is pulled back along its middle walk by whole periods, so an end
# circle's middle holds only what the data needs, wherever the data sits.

def test_rail_loop_rays_start_at_the_cap(intro_chords):
    docs = examples.example_documents("intro-chords")
    cert = is_member(intro_chords, parse_vector_text(intro_chords, docs["rail-loop.vec"]))
    middle = (parse_dart_label("neg_first+"), parse_dart_label("pos_first+"))
    loop = RaySegment(_ray("neg[0]", "neg_step[0]-", 1), middle, _ray("pos[0]", "pos_step[0]+", 1))
    assert cert.decomposition.entries == ((1, EndCircle((loop,))),)


FAR_TRIPLE_JUMP = ("endjump c[-810536] bc[-810536]- rb[-810536]+ repeat rb[-810535]+ ; "
                   "c[-810536] repeat rc[-810536]+ rc[-810535]+")


def test_far_end_jump_answers_small(triple):
    # the + strands start past the data at -810536, not past +810536, so
    # the finite stage has nothing to list between; best of three timings
    vec = chains.edge_vector_of(chains.parse_chain_text(triple, FAR_TRIPLE_JUMP))
    took = []
    for _ in range(3):
        t0 = time.perf_counter()
        cert = is_member(triple, vec)
        assert verify_certificate(triple, vec, cert)
        took.append(time.perf_counter() - t0)
    assert min(took) < 0.1
    assert len(json.dumps(certificate_to_json(cert))) < 1000
