"""Membership decision procedure, certificates, and their verifier.

The expected decompositions here were derived by hand and frozen; a change
in the decision procedure that alters a certificate shape should trip these
even if the verdicts stay correct.
"""

import dataclasses
import gc
import json
import random
import re
import time
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from endcycle import chains, membership
from endcycle.circles import (
    CircleDecomposition,
    CircuitFamily,
    EndCircle,
    FiniteCircuit,
    RaySegment,
)
from endcycle.cuts import HalfSpaceCut, cut_sum, star_cut
from endcycle.errors import FormatError, InternalError, NotARay, UnknownEdge, UnknownVertex
from endcycle.graph import (EdgeId, Graph, Ray, graph_from_text, parse_dart_label,
                            parse_vertex_label, vertex_key)
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


def test_each_decision_assembles_one_pass(monkeypatch, ladder, chords):
    # composite or strands is chosen per drifting group inside the one
    # pass, so no decision builds a second pass to compare against
    calls = []
    assemble = membership._assemble

    def counting(*args):
        calls.append(args)
        return assemble(*args)

    monkeypatch.setattr(membership, "_assemble", counting)
    cases = [(g, vec) for g, vec, _cert in _drift_members()]
    cases.append((ladder, parse_vector_text(ladder, RAIL_DIFFERENCE)))
    cases.append((chords, parse_vector_text(chords, CHORD_RAIL_LOOP)))
    for g, vec in cases:
        del calls[:]
        cert = is_member(g, vec)
        assert len(calls) == 1
        assert isinstance(cert, Member)
        assert verify_certificate(g, vec, cert)


# the minimal F1 repro: on the one-ended lattice the composite of these
# tails would shift darts below offset 0; strands close them instead
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
# and their end rays overlap from every anchor tried
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


def test_overlapping_strands_fall_back_to_composites():
    g = graph_from_text(OVERLAPPING_STRANDS)
    vec = parse_vector_text(g, "tail+ e1 from 6 = -1\ntail+ e2 from 5 = 1\n"
                               "tail+ e3 from 5 = 1\ntail- e3 from 4 = 2\n"
                               "tail- e4 from 6 = 1\ntail+ e5 from 0 = 1\n"
                               "tail- e5 from -1 = 1")
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
    # every half space is read off the graph's block partition, so deciding
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


# the graph of the F1 fault: a composite lifted at offset 0 meets e1[-1],
# which does not exist, so runs are stitched at an offset far from 0
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
    g = graph_from_text(DRIFT_16.replace("[+16]", "[+64]"))
    walk = " ".join("a[%d] s[%d]" % (i, i) for i in range(64)) + " a[64] l[0] a[0]"
    vec = chains.edge_vector_of(chains.parse_chain_text(g, "periodic -inf..inf { walk %s }" % walk))
    text, _took = _decided_certificate(g, vec)
    assert len(text) < 8000


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
