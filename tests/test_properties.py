"""Property tests. Everything here is exact integer arithmetic, so the
assertions are equalities, never tolerances."""

import random

from hypothesis import given, settings, strategies as st

from endcycle import chains as ch
from endcycle.circles import (CircleDecomposition, CircuitFamily, EndCircle,
                              FiniteCircuit, RaySegment)
from endcycle.graph import Dart, EdgeId, Ray, VertexId, graph_from_text
from endcycle.membership import Member, NonMember, is_member, verify_certificate
from endcycle.membership import certificate_from_json, certificate_to_json
from endcycle.vectors import parse_vector_text

from conftest import (CHORDS, DOUBLE_RAY, LADDER, THETA, TRIPLE, merged,
                      random_chain, random_vector, random_walk_text)

GRAPHS = {name: graph_from_text(text) for name, text in
          (("ladder", LADDER), ("chords", CHORDS), ("triple", TRIPLE),
           ("line", DOUBLE_RAY), ("theta", THETA))}

# frozen members used to seed sums that are certain to stay in the space
KNOWN_MEMBERS = {
    "ladder": [
        "set rail_top[0] = 1\nset rung[1] = 1\nset rail_bot[0] = -1\nset rung[0] = -1",
        "tail+ rail_top from 0 = 1\ntail- rail_top from -1 = 1\n"
        "tail+ rail_bot from 0 = -1\ntail- rail_bot from -1 = -1",
    ],
    "chords": [
        "set pos_first = 1\nset chord[0] = 1\nset neg_first = 1",
        "tail+ pos_step from 0 = 1\ntail+ neg_step from 0 = 1\nset chord[0] = -1",
    ],
    "theta": [
        "set left = 1\nset mid = -1",
        "set mid = 1\nset right = -1",
    ],
}

graph_names = st.sampled_from(sorted(GRAPHS))
member_graph_names = st.sampled_from(sorted(KNOWN_MEMBERS))
seeds = st.integers(min_value=0, max_value=2**32 - 1)
small = st.integers(min_value=-4, max_value=4)


def known_member(gname, rng, k1, k2):
    g = GRAPHS[gname]
    texts = KNOWN_MEMBERS[gname]
    a = parse_vector_text(g, texts[0]).scale(k1)
    b = parse_vector_text(g, texts[1]).scale(k2)
    return a + b


@given(graph_names, seeds)
def test_certificates_verify_and_round_trip(gname, seed):
    g = GRAPHS[gname]
    vec = random_vector(g, random.Random(seed))
    cert = is_member(g, vec)
    assert verify_certificate(g, vec, cert)
    back = certificate_from_json(g, certificate_to_json(cert))
    assert verify_certificate(g, vec, back)


@given(member_graph_names, seeds, small, small)
def test_adding_a_member_never_changes_membership(gname, seed, k1, k2):
    g = GRAPHS[gname]
    m = known_member(gname, random.Random(seed), k1, k2)
    assert isinstance(is_member(g, m), Member)
    vec = random_vector(g, random.Random(seed ^ 0x5DEECE66))
    verdict = type(is_member(g, vec))
    assert type(is_member(g, vec + m)) is verdict


@given(member_graph_names, seeds, small, small, small)
def test_members_scale(gname, seed, k1, k2, c):
    g = GRAPHS[gname]
    m = known_member(gname, random.Random(seed), k1, k2)
    assert isinstance(is_member(g, m.scale(c)), Member)


@given(graph_names, seeds)
def test_nonmember_cut_recomputes(gname, seed):
    from endcycle.cuts import cut_sum

    g = GRAPHS[gname]
    vec = random_vector(g, random.Random(seed))
    cert = is_member(g, vec)
    if isinstance(cert, NonMember):
        assert cut_sum(g, cert.cut, vec) == cert.cut_sum != 0


# --- chain fuzzing ----------------------------------------------------------



@given(graph_names, seeds)
@settings(max_examples=60)
def test_winding_is_linear(gname, seed):
    g = GRAPHS[gname]
    rng = random.Random(seed)
    c1, c2 = random_chain(g, rng), random_chain(g, rng)
    lhs = ch.edge_vector_of(merged(g, c1, c2))
    assert lhs == ch.edge_vector_of(c1) + ch.edge_vector_of(c2)


@given(graph_names, seeds)
@settings(max_examples=60)
def test_subdivision_preserves_vector_and_boundary(gname, seed):
    g = GRAPHS[gname]
    rep = random_chain(g, random.Random(seed))
    sub = ch.subdivide_to_passes(rep)
    assert ch.edge_vector_of(sub) == ch.edge_vector_of(rep)
    assert ch.boundary(sub).coeffs == ch.boundary(rep).coeffs


@given(graph_names, seeds)
@settings(max_examples=60)
def test_boundary_augmentation_is_zero(gname, seed):
    g = GRAPHS[gname]
    rep = random_chain(g, random.Random(seed))
    assert all(c == 0 for c in ch.augmentation(g, ch.boundary(rep)))


@given(graph_names, seeds)
@settings(max_examples=60)
def test_chain_text_round_trip(gname, seed):
    g = GRAPHS[gname]
    rep = random_chain(g, random.Random(seed))
    text = ch.chain_to_text(rep)
    assert ch.chain_to_text(ch.parse_chain_text(g, text)) == text


@given(seeds, st.integers(min_value=-3, max_value=3), st.integers(min_value=-3, max_value=3))
@settings(max_examples=60)
def test_homologous_iff_equal_vectors(seed, i, j):
    # cycles on the theta graph: integer combos of the two basic circuits
    g = GRAPHS["theta"]
    rng = random.Random(seed)
    texts = ["walk u left v mid u", "walk u mid v right u"]

    def combo(a, b):
        parts = []
        if a:
            parts.append("coeff %d pass left +\ncoeff %d pass mid -" % (a, a))
        if b:
            parts.append("coeff %d pass mid +\ncoeff %d pass right -" % (b, b))
        return ch.parse_chain_text(g, "\n".join(parts))

    c1 = combo(i, j)
    k, l = rng.randint(-3, 3), rng.randint(-3, 3)
    c2 = combo(k, l)
    assert ch.is_cycle_adhoc(g, c1) and ch.is_cycle_adhoc(g, c2)
    same = ch.homologous(g, c1, c2)
    assert same == (ch.edge_vector_of(c1) == ch.edge_vector_of(c2))
    assert same == ((i, j) == (k, l))


# -- window evaluation of circle pieces --------------------------------------
#
# The pieces below need not be circles: evaluation only counts darts, so
# random dart lists test it on more shapes than the solver ever emits.

def _random_dart(g, rng, lo_index):
    if g.static_edge_classes and rng.random() < 0.2:
        e = EdgeId(rng.choice(g.static_edge_classes).name, None)
    else:
        e = EdgeId(rng.choice(g.cell_edge_classes).name,
                   rng.randint(lo_index, lo_index + 12))
    return Dart(e, rng.random() < 0.5)


def _random_piece(g, rng):
    one_ended = g.kind == "periodic-n"
    lo_index = 0 if one_ended else -6

    def darts(n):
        return tuple(_random_dart(g, rng, lo_index) for _ in range(n))

    def ray():
        shift = rng.randint(1, 3)
        if not one_ended and rng.random() < 0.5:
            shift = -shift
        cells = [d for d in darts(3) if d.edge.index is not None]
        return Ray(VertexId("x", 0), darts(rng.randint(0, 2)),
                   tuple(cells) or darts(0), shift)

    kind = rng.randrange(3)
    if kind == 0:
        return FiniteCircuit(darts(rng.randint(1, 5)))
    if kind == 1:
        cells = tuple(d for d in darts(4) if d.edge.index is not None)
        bound = [None, rng.randint(-8, 8)]
        lo = rng.randint(0, 8) if one_ended else rng.choice(bound)
        hi = rng.choice([None, (lo or 0) + rng.randint(0, 8)])
        return CircuitFamily(FiniteCircuit(cells), lo, hi)
    return EndCircle(tuple(
        RaySegment(ray(), darts(rng.randint(0, 2)), ray())
        for _ in range(rng.randint(1, 2))
    ))


def _unrolled(piece, lo, hi):
    """Signed dart counts of piece on the window, from an explicit list of
    its darts: families over every shift that can reach the window, rays
    over enough repeats to pass it."""
    listed = []  # (sign, dart)

    def shift(d, k):
        return Dart(EdgeId(d.edge.cls, d.edge.index + k), d.forward)

    def ray(r, sign):
        listed.extend((sign, d) for d in r.initial)
        for p in range(80):
            listed.extend((sign, shift(d, p * r.shift)) for d in r.repeat)

    if isinstance(piece, FiniteCircuit):
        listed.extend((1, d) for d in piece.darts)
    elif isinstance(piece, CircuitFamily):
        for k in range(lo - 20, hi + 21):
            if (piece.lo is None or k >= piece.lo) and (
                    piece.hi is None or k <= piece.hi):
                listed.extend((1, shift(d, k)) for d in piece.template.darts)
    else:
        for seg in piece.segments:
            ray(seg.back, -1)
            listed.extend((1, d) for d in seg.middle)
            ray(seg.fwd, 1)
    counts = {}
    for sign, d in listed:
        n = d.edge.index
        if n is None or lo <= n <= hi:
            counts[d.edge] = counts.get(d.edge, 0) + (sign if d.forward else -sign)
    return counts


@given(st.sampled_from(["ladder", "chords"]), seeds)
def test_window_evaluation_matches_unrolled_darts(gname, seed):
    g = GRAPHS[gname]
    rng = random.Random(seed)
    entries = [(rng.choice([-2, -1, 1, 3]), _random_piece(g, rng))
               for _ in range(rng.randint(1, 3))]
    # windows near the pieces, past them, or missing them altogether
    lo = rng.randint(0 if g.kind == "periodic-n" else -30, 25)
    hi = lo + rng.randint(0, 12)
    want = {}
    for coeff, piece in entries:
        for e, c in _unrolled(piece, lo, hi).items():
            want[e] = want.get(e, 0) + coeff * c
    dec = CircleDecomposition(tuple(entries))
    got = dec.window_values(g, lo, hi)
    nonzero = lambda m: {e: c for e, c in m.items() if c}
    assert nonzero(got) == nonzero(want)
    # the one-edge case: value_on on every edge of the window
    edges = [EdgeId(ec.name, n) for ec in g.cell_edge_classes
             for n in range(lo, hi + 1)]
    edges += list(g.static_instances())
    for e in edges:
        assert dec.value_on(g, e) == want.get(e, 0)
