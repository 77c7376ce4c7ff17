"""Property tests. Everything here is exact integer arithmetic, so the
assertions are equalities, never tolerances."""

import dataclasses
import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from endcycle import chains as ch
from endcycle.circles import (CircleDecomposition, CircuitFamily, EndCircle,
                              FiniteCircuit, RaySegment)
from endcycle.errors import (FormatError, InfiniteBoundarySupport,
                             InfiniteComponents, InternalError, NotARay,
                             NotRepresentable, UnknownEdge, UnknownVertex)
from endcycle.graph import (Dart, EdgeId, EndId, Ray, VertexId,
                            graph_from_text)
from endcycle.membership import Member, NonMember, is_member, verify_certificate
from endcycle.membership import certificate_from_json, certificate_to_json
from endcycle.vectors import (EdgeVector, FamilyMember, VectorFamily,
                              parse_vector_text, thin_sum)

from conftest import (CHORDS, DOUBLE_RAY, LADDER, PENDANT, THETA, TRIPLE, merged,
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


# -- chain counts against a dense unroll --------------------------------------
#
# Families of walks and of end jumps, with steps 1-3, bounded, one-sided and
# two-sided ranges, near an anchor up to 10^6 from 0. The reference sums the
# darts and faces of every member that reaches a window around the anchor
# and reads each escape direction off the window's two ends.

_SPREAD = 64  # half-width of the window; every run starts within 35 of
# the anchor, so two probe periods at each end lie past all of them
_PROBE = 12  # a multiple of every stride drawn: steps 1-3, ray shifts 1-2


def _hop(g, rng, v, sign=None):
    """A cell dart out of v with the vertex it reaches: along v's own class
    by sign, or, sign None, to another class at the same index."""
    opts = [(d, u) for d, u in g.neighbors(v)
            if u.index is not None and d.edge.index is not None
            and (u.cls == v.cls and u.index == v.index + sign if sign
                 else u.cls != v.cls and u.index == v.index)]
    return rng.choice(opts)


def _random_walk(g, rng, v, caps_ok):
    start, darts = v, []
    for _ in range(rng.randint(1, 4)):
        d, v = rng.choice([(d, u) for d, u in g.neighbors(v)
                           if caps_ok or u.index is not None])
        darts.append(d)
    return ch.Walk(start, tuple(darts))


def _random_ray(g, rng, v, sign):
    """From v towards sign: up to two lead-in hops, then a repeat block of
    one or two rail steps, or a zigzag over another class and back. Drawn
    again until the ray is a path."""
    while True:
        u, initial = v, []
        for _ in range(rng.randint(0, 2)):
            d, u = _hop(g, rng, u, rng.choice([None, sign]))
            initial.append(d)
        anchor, repeat = u, []
        shape = rng.choice([(sign,), (sign, sign), (None, sign, None, sign)])
        for how in shape:
            if how is None and repeat:  # back to the anchor's class
                d, u = next((d, w) for d, w in g.neighbors(u)
                            if w.cls == anchor.cls and w.index == u.index)
            else:
                d, u = _hop(g, rng, u, how)
            repeat.append(d)
        ray = Ray(v, tuple(initial), tuple(repeat), u.index - anchor.index)
        try:
            g.check_ray(ray)
        except NotARay:
            continue
        return ray


def _random_family_chain(g, rng):
    """(chain, anchor): one to four walks, end jumps and families of them."""
    one_ended = g.kind == "periodic-n"
    far = rng.random() < 0.5
    if one_ended:
        base = rng.randint(0, 10**6) if far else rng.randint(0, 5)
    else:
        base = rng.randint(-10**6, 10**6) if far else rng.randint(-5, 5)

    def vertex():
        off = rng.randint(0, 3) if one_ended else rng.randint(-3, 3)
        return VertexId(rng.choice(g.cell_classes), base + off)

    finite, periodic = [], []
    for _ in range(rng.randint(1, 4)):
        coeff = rng.randint(-2, 3)
        jump = rng.random() < 0.5
        sign = 1 if one_ended else rng.choice([1, -1])
        if jump:
            s = ch.EndJump(_random_ray(g, rng, vertex(), sign),
                           _random_ray(g, rng, vertex(), sign))
        else:
            s = _random_walk(g, rng, vertex(), rng.random() < 0.3)
        if rng.random() < 0.3 or any(
                d.edge.index is None for d in getattr(s, "darts", ())):
            finite.append((coeff, s))
            continue
        step = rng.randint(1, 3)
        lo = rng.randint(0, 4) if one_ended else rng.randint(-4, 4)
        hi = lo + rng.randint(0, 5)
        shape = rng.choice(["bounded", "up", "down", "both"])
        if jump and shape != "bounded":
            # an unbounded jump family runs the way of its rays
            shape = "up" if sign > 0 else "down"
        if one_ended and shape in ("down", "both"):
            shape = "up"
        lo = None if shape in ("down", "both") else lo
        hi = None if shape in ("up", "both") else hi
        periodic.append(ch.PeriodicMember(coeff, s, lo, hi, step))
        if jump and rng.random() < 0.5:
            # the same jumps back along another ray: the growth can cancel
            back = ch.EndJump(s.out_ray, _random_ray(g, rng, vertex(), sign))
            periodic.append(ch.PeriodicMember(-coeff, back, lo, hi, step))
    return ch.ChainRep(g, tuple(finite), tuple(periodic)), base


def _dense_counts(g, rep, wlo, whi):
    """Signed dart counts per (class, index) and signed face counts
    (head minus tail) per vertex, over every member that reaches
    [wlo, whi]; static edges and caps (index None) are counted whole."""
    edges, verts = {}, {}

    def add(table, cls, idx, k, c):
        if idx is not None:
            idx += k
            if not wlo <= idx <= whi:
                return
        table[(cls, idx)] = table.get((cls, idx), 0) + c

    def darts(ds, k, c):
        for d in ds:
            add(edges, d.edge.cls, d.edge.index, k, c if d.forward else -c)

    def ray(r, k, c):
        darts(r.initial, k, c)
        for p in range((whi - wlo) // abs(r.shift) + 2 * _SPREAD):
            darts(r.repeat, k + p * r.shift, c)

    def member(s, k, c):
        if isinstance(s, ch.EndJump):
            ray(s.out_ray, k, c)
            ray(s.in_ray, k, -c)
            tail, head = s.out_ray.start, s.in_ray.start
        else:
            darts(s.darts, k, c)
            seq = g.walk_from(s.start, s.darts)
            tail, head = seq[0], seq[-1]
        add(verts, head.cls, head.index, k, c)
        add(verts, tail.cls, tail.index, k, -c)

    for c, s in rep.finite:
        member(s, 0, c)
    for m in rep.periodic:
        # members past these bounds start beyond the window; rays run away
        # from it, as admissible jump families point the way of their rays
        reach = (whi - wlo + 4 * _SPREAD) // m.step
        lo = -reach if m.lo is None else m.lo
        hi = reach if m.hi is None else m.hi
        for k in range(lo, hi + 1):
            member(m.template, k * m.step, m.coeff)
    return edges, verts


def _ends(g, counts, cls, wlo, whi):
    """(values on the window, {direction: far value}) of one cell class,
    or a reason when some end grows or is periodic but not constant."""
    vals = [counts.get((cls, i), 0) for i in range(wlo, whi + 1)]
    ends = {}
    sides = [("+", vals[::-1])]
    if g.kind != "periodic-n":
        sides.append(("-", vals))
    for direction, outward in sides:
        w1 = outward[_PROBE:2 * _PROBE]
        w2 = outward[:_PROBE]
        if w1 != w2:
            return vals, "grows"
        if any(v != w1[0] for v in w1):
            return vals, "periodic"
        ends[direction] = w1[0]
    return vals, ends


@given(st.sampled_from(["ladder", "chords", "triple"]), seeds)
@settings(max_examples=300, deadline=None)
def test_chain_counts_match_dense_unroll(gname, seed):
    g = GRAPHS[gname]
    rep, base = _random_family_chain(g, random.Random(seed))
    wlo, whi = base - _SPREAD, base + _SPREAD
    if g.kind == "periodic-n":
        wlo = max(0, wlo)
    edges, verts = _dense_counts(g, rep, wlo, whi)

    vals, tails, bad = {}, {}, None
    for ec in g.edge_classes.values():
        if ec.static:
            vals[EdgeId(ec.name, None)] = edges.get((ec.name, None), 0)
            continue
        window, ends = _ends(g, edges, ec.name, wlo, whi)
        if isinstance(ends, str):
            bad = ends
            continue
        vals.update((EdgeId(ec.name, wlo + j), v) for j, v in enumerate(window))
        tails[(ec.name, "+")] = (whi + 1, ends["+"])
        if "-" in ends:
            tails[(ec.name, "-")] = (wlo - 1, ends["-"])
        elif wlo > 0:
            assert not any(window[:2 * _PROBE])  # nothing left of the window
    if bad:
        with pytest.raises(NotRepresentable):
            ch.edge_vector_of(rep)
    else:
        assert ch.edge_vector_of(rep) == EdgeVector(
            g, {e: v for e, v in vals.items() if v}, tails)

    points, unsettled = {}, set()
    for cls in g.cell_classes:
        window, ends = _ends(g, verts, cls, wlo, whi)
        if isinstance(ends, str) or any(ends.values()):
            unsettled.add(cls)
        points.update((VertexId(cls, wlo + j), v) for j, v in enumerate(window))
    for (cls, idx), v in verts.items():
        if idx is None:
            points[VertexId(cls, None)] = v
    if unsettled:
        with pytest.raises(InfiniteBoundarySupport) as exc:
            ch.boundary(rep)
        assert exc.value.witness_class == min(unsettled)
    else:
        assert ch.boundary(rep) == ch.ZeroChain.from_dict(g, points)


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


# -- verification against a dense window comparison --------------------------
#
# Certificates built from squares, square families and end circles whose
# rays repeat blocks of one to three darts, on the ladder and on the chords
# graph, paired with the vector they sum to and with tampered versions.

def _darts(labels):
    return tuple(Dart(EdgeId(cls, n), fwd) for cls, n, fwd in labels)


def _ladder_square(n):
    return FiniteCircuit(_darts([("rail_top", n, True), ("rung", n + 1, True),
                                 ("rail_bot", n, False), ("rung", n, False)]))


def _chord_quad(n):
    return FiniteCircuit(_darts([("pos_step", n, True), ("chord", n + 1, True),
                                 ("neg_step", n, True), ("chord", n, False)]))


def _ladder_rails(rng):
    """The ladder's rail difference as one end circle: along the top rail
    from the - end to the + end, back along the bottom rail."""
    def ray(cls, rail, start, sign, k):
        step = range(start, start + k) if sign > 0 else range(start - 1, start - k - 1, -1)
        return Ray(VertexId(cls, start), (), _darts([(rail, i, sign > 0) for i in step]),
                   sign * k)

    a = rng.randint(-6, 6)
    b = a + rng.randint(0, 4)
    c = rng.randint(-6, 6)
    d = c - rng.randint(0, 4)
    top = RaySegment(ray("top", "rail_top", a, -1, rng.randint(1, 3)),
                     _darts([("rail_top", i, True) for i in range(a, b)]),
                     ray("top", "rail_top", b, 1, rng.randint(1, 3)))
    bot = RaySegment(ray("bot", "rail_bot", c, 1, rng.randint(1, 3)),
                     _darts([("rail_bot", i, False) for i in range(c - 1, d - 1, -1)]),
                     ray("bot", "rail_bot", d, -1, rng.randint(1, 3)))
    return EndCircle((top, bot))


def _chord_loop(rng):
    """In from the end along the neg rail, through the origin, out along
    the pos rail."""
    c, a = rng.randint(0, 5), rng.randint(0, 5)
    kb, kf = rng.randint(1, 3), rng.randint(1, 3)
    back = Ray(VertexId("neg", c), (), _darts([("neg_step", i, False) for i in range(c, c + kb)]), kb)
    fwd = Ray(VertexId("pos", a), (), _darts([("pos_step", i, True) for i in range(a, a + kf)]), kf)
    middle = _darts([("neg_step", i, True) for i in range(c - 1, -1, -1)]
                    + [("neg_first", None, True), ("pos_first", None, True)]
                    + [("pos_step", i, True) for i in range(a)])
    return EndCircle((RaySegment(back, middle, fwd),))


CERT_GRAPHS = {
    "ladder": (_ladder_square, _ladder_rails, KNOWN_MEMBERS["ladder"][1], -8),
    "chords": (_chord_quad, _chord_loop,
               "set pos_first = 1\nset neg_first = 1\n"
               "tail+ pos_step from 0 = 1\ntail+ neg_step from 0 = 1", 0),
}


def _random_certificate(gname, rng):
    """A decomposition and the vector it sums to."""
    g = GRAPHS[gname]
    circuit, loop, loop_text, near = CERT_GRAPHS[gname]
    entries = []
    vec = parse_vector_text(g, "")
    for _ in range(rng.randint(1, 4)):
        coeff = rng.choice([-2, -1, 1, 3])
        kind = rng.randrange(3)
        if kind == 0:
            piece = circuit(rng.randint(near, 8))
            part = piece.vector(g)
        elif kind == 1:
            template = circuit(rng.randint(0, 3))
            lo = rng.choice([None, rng.randint(near, 6)]) if near else rng.randint(0, 6)
            hi = rng.choice([None, (lo if lo is not None else 0) + rng.randint(0, 60)])
            piece = CircuitFamily(template, lo, hi)
            part = thin_sum(VectorFamily(g, periodic=(
                FamilyMember(1, template.vector(g), lo, hi),)))
        else:
            piece = loop(rng)
            part = parse_vector_text(g, loop_text)
        entries.append((coeff, piece))
        vec = vec + part.scale(coeff)
    return entries, vec


def _tamperings(g, entries, vec, rng, circuit):
    """(entries, vector) pairs: the honest one, then one small change each:
    a coefficient raised by one, a family bound moved by one, a ray repeat
    dart reversed, one entry added to the vector far past all other data,
    and a square or a family of them added to the certificate far out."""
    yield entries, vec
    i = rng.randrange(len(entries))
    coeff, piece = entries[i]
    yield entries[:i] + [(coeff + 1, piece)] + entries[i + 1:], vec
    for j, (coeff, piece) in enumerate(entries):
        if isinstance(piece, CircuitFamily):
            for side in ("lo", "hi"):
                if getattr(piece, side) is not None:
                    moved = dataclasses.replace(
                        piece, **{side: getattr(piece, side) + rng.choice([-1, 1])})
                    yield entries[:j] + [(coeff, moved)] + entries[j + 1:], vec
        if isinstance(piece, EndCircle):
            segs = list(piece.segments)
            k = rng.randrange(len(segs))
            side = rng.choice(["back", "fwd"])
            r = getattr(segs[k], side)
            flipped = (r.repeat[0].reverse(),) + r.repeat[1:]
            segs[k] = dataclasses.replace(segs[k], **{side: dataclasses.replace(r, repeat=flipped)})
            yield entries[:j] + [(coeff, EndCircle(tuple(segs)))] + entries[j + 1:], vec
    far = 30 + rng.randint(0, 400)
    ec = rng.choice(g.cell_edge_classes)
    n = far if g.kind == "periodic-n" or rng.random() < 0.5 else -far
    yield entries, vec + EdgeVector(g, {EdgeId(ec.name, n): rng.choice([-1, 1])})
    yield entries + [(1, circuit(far))], vec
    yield entries + [(1, CircuitFamily(circuit(0), far, far + rng.randint(0, 40)))], vec


def _dense_verdict(g, vec, dec):
    """Whether dec checks and equals vec on every edge of a window past
    all data of both by more than a full period of every ray."""
    try:
        dec.check(g)
    except (FormatError, UnknownEdge, UnknownVertex, NotARay):
        return False
    reach, period = vec.support_bound(), 1
    for _c, piece in dec.entries:
        if isinstance(piece, CircuitFamily):
            for b in (piece.lo, piece.hi):
                if b is not None:
                    reach = max([reach, abs(b)] + [abs(d.edge.index + b)
                                                   for d in piece.template.darts])
        rays = [r for seg in getattr(piece, "segments", ()) for r in seg.rays()]
        for r in rays:
            period = period * abs(r.shift) // math.gcd(period, abs(r.shift))
            reach = max(reach, abs(r.start.index))
        darts = [d for r in rays for d in r.initial + r.repeat]
        darts += [d for seg in getattr(piece, "segments", ()) for d in seg.middle]
        darts += list(getattr(piece, "darts", ())) + list(
            getattr(getattr(piece, "template", None), "darts", ()))
        reach = max([reach] + [abs(d.edge.index) for d in darts if d.edge.index is not None])
    reach += 2 * period + g.W + 10
    lo = 0 if g.kind == "periodic-n" else -reach
    got = dec.window_values(g, lo, reach)
    edges = [EdgeId(ec.name, n) for ec in g.cell_edge_classes for n in range(lo, reach + 1)]
    edges += list(g.static_instances())
    return all(got.get(e, 0) == vec.value_on(e) for e in edges)


@given(st.sampled_from(sorted(CERT_GRAPHS)), seeds)
@settings(max_examples=150, deadline=None)
def test_verification_matches_dense_window_comparison(gname, seed):
    g = GRAPHS[gname]
    rng = random.Random(seed)
    entries, vec = _random_certificate(gname, rng)
    honest = True
    for tampered, v in _tamperings(g, entries, vec, rng, CERT_GRAPHS[gname][0]):
        dec = CircleDecomposition(tuple(tampered))
        want = _dense_verdict(g, v, dec)
        assert verify_certificate(g, v, Member(dec)) == want
        if honest:
            assert want  # the untampered certificate sums to its vector
            honest = False


def _perturbed(piece, rng):
    """piece with one dart, bound or ray shift changed, or piece itself."""
    def moved(darts):
        if not darts:
            return darts
        i = rng.randrange(len(darts))
        d = darts[i]
        if d.edge.index is not None and rng.random() < 0.5:
            d = Dart(EdgeId(d.edge.cls, d.edge.index + rng.choice([-1, 1])), d.forward)
        else:
            d = d.reverse()
        return darts[:i] + (d,) + darts[i + 1:]

    roll = rng.random()
    if roll < 0.2:
        return piece
    if isinstance(piece, FiniteCircuit):
        return FiniteCircuit(moved(piece.darts))
    if isinstance(piece, CircuitFamily):
        sides = [s for s in ("lo", "hi") if getattr(piece, s) is not None]
        if not sides or roll < 0.4:
            return CircuitFamily(FiniteCircuit(moved(piece.template.darts)), piece.lo, piece.hi)
        side = rng.choice(sides)
        return dataclasses.replace(piece, **{side: getattr(piece, side) + rng.choice([-1, 1])})
    segs = list(piece.segments)
    k = rng.randrange(len(segs))
    side = rng.choice(["back", "fwd"])
    r = getattr(segs[k], side)
    if roll < 0.6:
        r = dataclasses.replace(r, shift=r.shift + (1 if r.shift > 0 else -1))
    elif roll < 0.8:
        r = dataclasses.replace(r, repeat=moved(r.repeat))
    else:
        r = dataclasses.replace(r, initial=moved(r.initial))
    segs[k] = dataclasses.replace(segs[k], **{side: r})
    return EndCircle(tuple(segs))


def _lone_rays(g, rng):
    """Two rays of one repeat dart each and nothing else, so that their
    values change at the two repeat darts alone."""
    def ray():
        d = _random_dart(g, rng, 0 if g.kind == "periodic-n" else -6)
        while d.edge.index is None:
            d = _random_dart(g, rng, 0)
        shift = rng.randint(2, 4)
        return Ray(VertexId("x", 0), (), (d,), shift if g.kind == "periodic-n" or rng.random() < 0.5 else -shift)

    return EndCircle((RaySegment(ray(), (), ray()),))


@given(st.sampled_from(["ladder", "chords"]), seeds)
@settings(max_examples=300, deadline=None)
def test_values_agree_matches_dense_window(gname, seed):
    # pieces that need not be circles minus a copy with one change: the sum
    # is zero exactly when the change cancels out everywhere, and the
    # breakpoints of the certificate alone must find where it does not
    from endcycle.membership import _values_agree

    g = GRAPHS[gname]
    rng = random.Random(seed)
    entries = []
    for _ in range(rng.randint(1, 2)):
        piece = _lone_rays(g, rng) if rng.random() < 0.3 else _random_piece(g, rng)
        coeff = rng.choice([-2, -1, 1, 3])
        entries += [(coeff, piece), (-coeff, _perturbed(piece, rng))]
    dec = CircleDecomposition(tuple(entries))
    zero = parse_vector_text(g, "")
    reach, period = 80, 1
    for _c, piece in entries:
        for seg in getattr(piece, "segments", ()):
            for r in seg.rays():
                period = period * abs(r.shift) // math.gcd(period, abs(r.shift))
    reach += 2 * period
    lo = 0 if g.kind == "periodic-n" else -reach
    got = dec.window_values(g, lo, reach)
    assert _values_agree(g, zero, dec) == (not any(got.values()))


# -- finite darts that overlap and cancel -------------------------------------
#
# Long rail circuits and rail end circles whose rays start with initial
# darts, summed with coefficients so that their finite darts overlap and
# partly cancel. The certificate is compared with three vectors: zero, its
# own sum, and its sum with the values at m..m+k-1 on every class replaced
# by those at m - 1, for an index m where some class changes value: that
# vector changes nowhere at m, so only a check of the certificate's own
# changes tells the two apart.

def _rectangle(a, b, forward):
    """Along the top rail from top[a] to top[b], down rung b, back along
    the bottom rail and up rung a; or that walk reversed."""
    circuit = FiniteCircuit(_darts(
        [("rail_top", i, True) for i in range(a, b)] + [("rung", b, True)]
        + [("rail_bot", i, False) for i in range(b - 1, a - 1, -1)] + [("rung", a, False)]))
    return circuit if forward else FiniteCircuit(tuple(d.reverse() for d in reversed(circuit.darts)))


def _rail_circle(a, b, j):
    """The ladder's rail difference as an end circle: from the - end along
    the top rail through top[a]..top[b] to the + end, and back along the
    bottom rail. Every ray starts with j initial darts."""
    def ray(cls, rail, start, sign):
        idx = [start + sign * i - (sign < 0) for i in range(j + 1)]
        darts = _darts([(rail, i, sign > 0) for i in idx])
        return Ray(VertexId(cls, start), darts[:j], darts[j:], sign)

    top = RaySegment(ray("top", "rail_top", a, -1),
                     _darts([("rail_top", i, True) for i in range(a, b)]),
                     ray("top", "rail_top", b, 1))
    bot = RaySegment(ray("bot", "rail_bot", b, 1),
                     _darts([("rail_bot", i, False) for i in range(b - 1, a - 1, -1)]),
                     ray("bot", "rail_bot", a, -1))
    return EndCircle((top, bot))


coeffs = st.sampled_from([-2, -1, 1, 2])
# (coeff, kind, a, length, x, twin): x picks a rectangle's orientation or a
# rail circle's initial darts; a twin (coeff, length change, flip) adds the
# same piece once more, one square longer or shorter, reversed or with
# other initial darts
cancelling_pieces = st.lists(st.tuples(
    coeffs, st.sampled_from(["rectangle", "rails"]), st.integers(-6, 6),
    st.integers(0, 8), st.integers(0, 3),
    st.one_of(st.none(), st.tuples(coeffs, st.integers(-1, 1), st.booleans()))),
    min_size=1, max_size=3)


@given(cancelling_pieces, st.sampled_from(["zero", "sum", "moved"]),
       st.tuples(st.integers(0, 99), st.integers(1, 3)))
# the shapes that a check blind to the coefficients, to the change after a
# run of finite darts and to the class of a dart would pass
@example([(2, "rectangle", 0, 3, 1, (1, 0, True))], "zero", (0, 1))
@example([(1, "rectangle", 0, 4, 1, None)], "moved", (1, 2))
@example([(1, "rectangle", 0, 4, 1, None), (1, "rectangle", 1, 4, 1, None)], "moved", (1, 1))
@settings(max_examples=300, deadline=None)
def test_cancelling_finite_darts_match_dense_window(pieces, mode, pick):
    from endcycle.membership import _values_agree

    g = GRAPHS["ladder"]
    entries = []
    vec = parse_vector_text(g, "")
    drawn = []
    for coeff, kind, a, length, x, twin in pieces:
        drawn.append((coeff, kind, a, length, x))
        if twin is not None:
            c2, dlen, flip = twin
            drawn.append((c2, kind, a, max(length + dlen, 0), x + flip))
    for coeff, kind, a, length, x in drawn:
        if kind == "rectangle":
            piece = _rectangle(a, a + max(length, 1), x % 2 == 1)
            part = piece.vector(g)
        else:
            piece = _rail_circle(a, a + length, x % 4)
            part = parse_vector_text(g, KNOWN_MEMBERS["ladder"][1])
        entries.append((coeff, piece))
        vec = vec + part.scale(coeff)
    dec = CircleDecomposition(tuple(entries))
    if mode == "zero":
        vec = parse_vector_text(g, "")
    elif mode == "moved":
        got = dec.window_values(g, -40, 40)
        i, k = pick

        def f(cls, n):
            return got.get(EdgeId(cls, n), 0)

        classes = ("rail_top", "rail_bot", "rung")
        changes = [n for n in range(-39, 41) if any(f(c, n) != f(c, n - 1) for c in classes)]
        if changes:
            m = changes[i % len(changes)]
            vec = vec + EdgeVector(g, {EdgeId(c, n): f(c, m - 1) - f(c, n)
                                       for c in classes for n in range(m, m + k)})
    assert _values_agree(g, vec, dec) == _dense_verdict(g, vec, dec)


# -- members built by construction on random periodic graphs -----------------
#
# Random vectors are almost all non-members, so member-side coverage comes
# from sums of shift families of closed walks: finite, one-sided and
# two-sided, each a member by construction.

def _random_periodic_z(rng):
    """1-3 cell classes, 0-2 caps, offsets 0-3. Every cell class has an
    edge to a shifted copy of itself, and one to three more cell edges
    join those lines, so the graph has cycles."""
    cells = ["c%d" % i for i in range(rng.randint(1, 3))]
    caps = ["p%d" % i for i in range(rng.randint(0, 2))]
    edges = ["%s -> %s[%d]" % (c, c, rng.randint(1, 3)) for c in cells]
    for _ in range(rng.randint(1, 3)):
        a, b = rng.choice(cells), rng.choice(cells)
        oa, ob = rng.randint(0, 3), rng.randint(0, 3)
        if a != b or oa != ob:
            edges.append("%s[%d] -> %s[%d]" % (a, oa, b, ob))
    for p in caps:
        cell = "%s[%d]" % (rng.choice(cells), rng.randint(0, 3))
        edges.append("%s -> %s" % ((p, cell) if rng.random() < 0.5 else (cell, p)))
    lines = ["graph random", "kind periodic-z"]
    lines += ["vertex %s" % c for c in cells]
    lines += ["cap-vertex %s" % p for p in caps]
    lines += ["edge e%d : %s" % (j, e) for j, e in enumerate(edges)]
    return graph_from_text("\n".join(lines) + "\n")


def _closed_walk(g, rng, start, steps, caps_ok):
    """Walk text of `steps` random darts from start, closed by a shortest
    path back within 12 cells of start that avoids the edges walked when
    it can, or None when there is none."""
    def moves(v, avoid=()):
        return sorted(((d, u) for d, u in g.neighbors(v)
                       if (caps_ok or u.index is not None) and d.edge not in avoid),
                      key=lambda p: (p[0].label(), p[1].label()))

    path, cur = [], start
    for _ in range(steps):
        options = moves(cur)
        if not options:
            break
        d, cur = rng.choice(options)
        path.append((d, cur))
    for avoid in ({d.edge for d, _u in path}, ()):
        prev, frontier = {cur: None}, [cur]
        while frontier and start not in prev:
            nxt = []
            for v in frontier:
                for d, u in moves(v, avoid):
                    if u not in prev and (u.index is None or abs(u.index - start.index) <= 12):
                        prev[u] = (v, d)
                        nxt.append(u)
            frontier = nxt
        if start in prev:
            break
    else:
        return None
    back, v = [], start
    while prev[v] is not None:
        u, d = prev[v]
        back.append((d, v))
        v = u
    labels = [start.label()]
    for d, u in path + back[::-1]:
        labels += [d.edge.label(), u.label()]
    return "walk " + " ".join(labels)


def constructed_member(seed):
    """The graph and the vector drawn for one seed: a random periodic-z
    graph and a sum of one to three shift families of closed walks on it,
    a member by construction. The CI step "Constructed members decide"
    runs this same draw over a fixed range of seeds."""
    rng = random.Random(seed)
    g = _random_periodic_z(rng)
    families = []
    for _ in range(rng.randint(1, 3)):
        shape = rng.choice(["finite", "one-sided", "two-sided"])
        start = VertexId(rng.choice(g.spec.cell_classes), rng.randint(3, 6))
        walk = _closed_walk(g, rng, start, rng.randint(1, 6), shape == "finite")
        if walk is None:
            continue
        if shape == "finite" and " p" in walk:
            # a static edge does not shift: a walk through a cap stands alone
            lo = hi = "0"
        elif shape == "finite":
            a = rng.randint(-2, 2)
            lo, hi = str(a), str(a + rng.randint(0, 6))
        elif shape == "two-sided":
            lo, hi = "-inf", "inf"
        elif rng.random() < 0.5:
            lo, hi = str(rng.randint(-3, 3)), "inf"
        else:
            lo, hi = "-inf", str(rng.randint(-3, 3))
        families.append("coeff %d periodic %s..%s { %s }"
                        % (rng.choice([1, 1, -1, 2]), lo, hi, walk))
    return g, ch.edge_vector_of(ch.parse_chain_text(g, "\n".join(families)))


@given(seeds)
@settings(max_examples=150, deadline=None)
def test_constructed_members_decide_and_verify(seed):
    g, vec = constructed_member(seed)
    try:
        cert = is_member(g, vec)
    except InternalError as ex:
        if str(ex) != "could not lay out end rays without overlap":
            raise
        # the open layout fault F2 of ROADMAP item 3, about 2 in 18,000 of
        # these members with tails; drop this branch when F2 is fixed
        pytest.xfail("known fault F2: %s" % ex)
    assert isinstance(cert, Member)
    back = certificate_from_json(g, certificate_to_json(cert))
    assert verify_certificate(g, vec, back)


# Wide bounded families leave long constant runs in the data, which the
# solver takes off as families of its own; on a one-ended lattice those are
# laid out away from index 0. A run whose composite cannot be laid out
# stays in the finite stage, so no size is claimed here.

@given(st.sampled_from(["periodic-z", "periodic-n"]), seeds,
       st.lists(st.integers(0, 300), min_size=1, max_size=3))
@settings(max_examples=80, deadline=None)
def test_wide_bounded_families_decide_and_verify(kind, seed, widths):
    rng = random.Random(seed)
    try:
        g = _random_periodic_z(rng) if kind == "periodic-z" else _random_lattice(rng, kind)
    except InfiniteComponents:
        return
    families = []
    for width in widths:
        start = VertexId(rng.choice(g.spec.cell_classes), rng.randint(3, 6))
        walk = _closed_walk(g, rng, start, rng.randint(1, 6), False)
        if walk is not None:
            a = rng.randint(0, 3)
            families.append("coeff %d periodic %d..%d { %s }"
                            % (rng.choice([1, 1, -1, 2]), a, a + width, walk))
    vec = ch.edge_vector_of(ch.parse_chain_text(g, "\n".join(families)))
    cert = is_member(g, vec)
    assert isinstance(cert, Member)
    back = certificate_from_json(g, certificate_to_json(cert))
    assert verify_certificate(g, vec, back)


# -- half spaces against a search over the cell edges ---------------------------

def _lattice_text(rng, kind, own_lines=True):
    """1-4 cell classes, 0-2 caps, offsets 0-4. Every cell class i has a
    line e<i> : c<i> -> c<i>[+k] that a ray can run along (without
    own_lines, each class has one with odds one half, and the lines are
    numbered in turn); up to four more cell edges join the classes.
    Returns the text, the cell classes and the caps."""
    cells = ["c%d" % i for i in range(rng.randint(1, 4))]
    caps = ["p%d" % i for i in range(rng.randint(0, 2))]
    edges = ["%s -> %s[%d]" % (c, c, rng.randint(1, 4)) for c in cells
             if own_lines or rng.random() < 0.5]
    for _ in range(rng.randint(0, 4)):
        a, b = rng.choice(cells), rng.choice(cells)
        oa, ob = rng.randint(0, 4), rng.randint(0, 4)
        if a != b or oa != ob:
            edges.append("%s[%d] -> %s[%d]" % (a, oa, b, ob))
    for p in caps:
        cell = "%s[%d]" % (rng.choice(cells), rng.randint(0, 4))
        edges.append("%s -> %s" % ((p, cell) if rng.random() < 0.5 else (cell, p)))
    lines = ["graph lattice", "kind " + kind]
    lines += ["vertex %s" % c for c in cells]
    lines += ["cap-vertex %s" % p for p in caps]
    lines += ["edge e%d : %s" % (j, e) for j, e in enumerate(edges)]
    return "\n".join(lines) + "\n", cells, caps


def _random_lattice(rng, kind):
    return graph_from_text(_lattice_text(rng, kind)[0])


def _searched_ends(g, sign, radius):
    """Per cell vertex of the window past the fence at radius, the end
    whose anchor a search over cell edges reaches from it, or None. The
    anchor of an end is the first member of its stable class moved out a
    whole number of deep periods, far from both edges of the window."""
    ray = g._rays[sign]
    margin = (len(g.cell_classes) * g.W + 3) * g.W
    base = max(radius, ray.r0) + margin
    reach = -(-base // ray.period()) * ray.period()
    anchors = {}
    for rank in range(ray.end_count):
        c, rel = ray.members[ray.by_rank[rank]][0]
        v = VertexId(c, sign * (ray.r0 + 1 + rel + reach))
        anchors[v] = EndId(ray.direction, rank)
    far = ray.r0 + reach + g.W + margin
    window = [VertexId(c, sign * m) for m in range(radius + 1, far + 1)
              for c in g.cell_classes]
    label = {}
    for v in window:
        if v in label:
            continue
        piece, frontier = {v}, [v]
        while frontier:
            nxt = []
            for u in frontier:
                for _d, w in g.neighbors(u):
                    if (w.index is not None and radius < sign * w.index <= far
                            and w not in piece):
                        piece.add(w)
                        nxt.append(w)
            frontier = nxt
        found = [anchors[a] for a in piece if a in anchors]
        assert len(found) <= 1
        for u in piece:
            label[u] = found[0] if found else None
    return label


@given(st.sampled_from(["periodic-z", "periodic-n"]), seeds)
@settings(max_examples=120, deadline=None)
def test_half_spaces_match_search(kind, seed):
    rng = random.Random(seed)
    try:
        g = _random_lattice(rng, kind)
    except InfiniteComponents:
        return
    if not g.ends():
        return
    r0, W = g.stabilization_radius, g.W
    for sign in (1, -1) if kind == "periodic-z" else (1,):
        direction = "+" if sign > 0 else "-"
        ends = [e for e in g.ends() if e.direction == direction]
        for radius in sorted({rng.randint(0, r0 + 3 * W + 10) for _ in range(4)}):
            label = _searched_ends(g, sign, radius)
            for m in range(radius - 1, radius + 3 * W + 8):
                for c in g.cell_classes:
                    v = VertexId(c, sign * m)
                    if not g.has_vertex(v):
                        continue
                    want = label.get(v)
                    got = [e for e in ends if g.in_half_space(v, e, radius)]
                    assert got == ([want] if want else []), (v, radius)
        # a ray along each line ends where the search puts its tail
        label = _searched_ends(g, sign, r0)
        for i, c in enumerate(g.cell_classes):
            n = rng.randint(0 if kind == "periodic-n" else -r0 - 2, r0 + 2)
            k = g.edge_classes["e%d" % i].span
            step = Dart(EdgeId("e%d" % i, n if sign > 0 else n - k), sign > 0)
            ray = Ray(VertexId(c, n), (), (step,), sign * k)
            tail = n + sign * k * max(0, -(-(r0 + 1 - sign * n) // k))
            assert g.end_of_ray(ray) == label[VertexId(c, tail)]


# -- restriction's kept region against a search over G - D ---------------------

@st.composite
def _pair_draws(draw):
    """(graph text, deleted, kept): a lattice where a class may lack its
    own line, 1-3 deleted cells within +-30 and 1-2 other kept vertices."""
    kind = draw(st.sampled_from(["periodic-z", "periodic-n"]))
    rng = random.Random(draw(seeds))
    text, cells, caps = _lattice_text(rng, kind, own_lines=False)
    lo = 0 if kind == "periodic-n" else -30
    deleted = {"%s[%d]" % (rng.choice(cells), rng.randint(lo, 30))
               for _ in range(rng.randint(1, 3))}
    pool = caps + ["%s[%d]" % (c, n) for c in cells for n in range(lo, 31)]
    kept = rng.sample([v for v in pool if v not in deleted], rng.randint(1, 2))
    return text, sorted(deleted), kept


@given(_pair_draws())
@example((PENDANT, ["a[5]"], ["a[0]"]))
@settings(max_examples=60, deadline=None)
def test_kept_region_matches_search(draw):
    # vertices: a search from the kept vertices over G - D, far past the
    # fence; ends: those whose half space past the fence holds a vertex
    # the search reaches 10W-20W out
    text, deleted, kept = draw
    try:
        g = graph_from_text(text)
    except InfiniteComponents:
        return
    pair = ch.parse_pair_text(
        g, "\n".join(["delete " + v for v in deleted] + ["keep " + v for v in kept])
    )
    region = ch._Region(g, pair)
    fence, W = region.fence, g.W
    far = fence + 40 * W * (len(g.cell_classes) + 1)
    reached = set(pair.kept)
    frontier = list(reached)
    while frontier:
        nxt = []
        for u in frontier:
            for _d, w in g.neighbors(u):
                if (w not in reached and w not in pair.deleted
                        and (w.index is None or abs(w.index) <= far)):
                    reached.add(w)
                    nxt.append(w)
        frontier = nxt
    near = fence + 2 * W
    for v in g.cap_vertices() + tuple(g.cell_vertices_within(-near, near)):
        assert region.has_vertex(v) == (v in reached), v
    ends = {g._end_past(v, fence) for v in reached
            if v.index is not None and fence + 10 * W < abs(v.index) <= fence + 20 * W}
    assert region.kept_ends == ends - {None}


# -- end flux from per-graph crossing counts ------------------------------------

def _random_circulation(g, rng):
    """Random values on the cell edge classes that sum to zero at every
    vertex class of the quotient graph: free values off a spanning forest,
    then the forest's values forced from its leaves in."""
    root = {c: c for c in g.cell_classes}

    def find(c):
        while root[c] != c:
            c = root[c]
        return c

    val, forest = {}, []
    for ec in g.cell_edge_classes:
        a, b = find(ec.tail_cls), find(ec.head_cls)
        if a == b:
            val[ec.name] = rng.randint(-3, 3)
        else:
            root[a] = b
            forest.append(ec)
    excess = {c: 0 for c in g.cell_classes}  # outflow minus inflow so far
    for ec in g.cell_edge_classes:
        if ec.name in val:
            excess[ec.tail_cls] += val[ec.name]
            excess[ec.head_cls] -= val[ec.name]
    while forest:
        degree = {}
        for ec in forest:
            for c in (ec.tail_cls, ec.head_cls):
                degree[c] = degree.get(c, 0) + 1
        ec = next(ec for ec in forest if 1 in (degree[ec.tail_cls], degree[ec.head_cls]))
        forest.remove(ec)
        x = -excess[ec.tail_cls] if degree[ec.tail_cls] == 1 else excess[ec.head_cls]
        val[ec.name] = x
        excess[ec.tail_cls] += x
        excess[ec.head_cls] -= x
    assert not any(excess.values())
    return val


def _tailed_vector(g, rng, values, direction, bound):
    """values as tails in one direction from thresholds within bound, plus
    explicit entries within bound."""
    lines = []
    for name, v in values.items():
        t = rng.randint(0, bound) if direction == "+" else rng.randint(-bound, -1)
        lines.append("tail%s %s from %d = %d" % (direction, name, t, v))
    entries = {}
    for _ in range(rng.randint(0, 3)):
        n = rng.randint(0 if g.kind == "periodic-n" else 1 - bound, bound - 1)
        entries["%s[%d]" % (rng.choice(sorted(values)), n)] = rng.randint(-3, 3)
    lines += ["set %s = %d" % kv for kv in entries.items()]
    vec = parse_vector_text(g, "\n".join(lines))
    assert vec.support_bound() <= bound
    return vec


def _tail_flux(vec, counts, direction):
    return sum(k * (vec.tail_of(name, direction) or (0, 0))[1]
               for name, k in counts.items())


@given(st.sampled_from(["periodic-z", "periodic-n"]), seeds)
@settings(max_examples=120, deadline=None)
# graphs whose ends split the cells of a layer unevenly: there the cut at R
# and the cut at r0 differ for tails that are no circulation
@example("periodic-z", 68)
@example("periodic-n", 184)
def test_end_flux_matches_half_space_cuts(kind, seed):
    from endcycle.cuts import HalfSpaceCut, cut_sum
    from endcycle.membership import _flux_counts

    rng = random.Random(seed)
    try:
        g = _random_lattice(rng, kind)
    except InfiniteComponents:
        return
    if not g.ends():
        return
    R, W = g.stabilization_radius + g.D + 2, g.W
    # past the support bound every crossing edge carries its tail value
    bound = R - g.D - 1
    counts = _flux_counts(g)
    assert list(counts) == list(g.ends())
    for direction in g.directions():
        ends = [e for e in g.ends() if e.direction == direction]
        # any tails: the counts are the cut at R
        vec = _tailed_vector(g, rng, {ec.name: rng.randint(-3, 3)
                                      for ec in g.cell_edge_classes}, direction, bound)
        for e in ends:
            flux = _tail_flux(vec, counts[e], direction)
            assert flux == cut_sum(g, HalfSpaceCut((e,), R), vec), e
        # tails that form a circulation: the same flux at every radius past R
        vec = _tailed_vector(g, rng, _random_circulation(g, rng), direction, bound)
        for e in ends:
            flux = _tail_flux(vec, counts[e], direction)
            for radius in range(R, R + 3 * W + 11):
                assert flux == cut_sum(g, HalfSpaceCut((e,), radius), vec), (e, radius)


# -- the finite stage's cycle walk against its earlier form ---------------------

def _flow_cycles_reference(nodes, arcs, weight, order=None):
    """membership._flow_cycles as it was before the pending-weight map was
    dropped; kept as the reference for test_flow_cycles_match_reference."""
    w = {k: v for k, v in weight.items() if v}
    by_tail = {}
    by_head = {}
    for key in sorted(arcs, key=order):
        t, h = arcs[key]
        by_tail.setdefault(t, []).append(key)
        by_head.setdefault(h, []).append(key)

    def step_from(node, pend):
        for key in by_tail.get(node, ()):
            if w.get(key, 0) - pend.get(key, 0) > 0:
                return key, True
        for key in by_head.get(node, ()):
            if w.get(key, 0) - pend.get(key, 0) < 0:
                return key, False
        return None

    out = []
    for start in nodes:
        if step_from(start, {}) is None:
            continue
        path = []
        pend = {}
        seen = {start: 0}
        node = start
        while True:
            nxt = step_from(node, pend)
            if nxt is None:
                if node == start and not path:
                    break
                raise InternalError(
                    "flow stalled at %r; conservation was violated" % (node,)
                )
            key, fwd = nxt
            t, h = arcs[key]
            pend[key] = pend.get(key, 0) + (1 if fwd else -1)
            node = h if fwd else t
            path.append((key, fwd))
            if node in seen:
                i = seen[node]
                cyc = path[i:]
                m = min(w[k] if f else -w[k] for k, f in cyc)
                for k, f in cyc:
                    w[k] -= m if f else -m
                    pend.pop(k, None)
                out.append((m, tuple(cyc)))
                del path[i:]
                for n in list(seen):
                    if seen[n] > i:
                        del seen[n]
            else:
                seen[node] = len(path)
    return out


@given(seeds)
@settings(max_examples=300, deadline=None)
def test_flow_cycles_match_reference(seed):
    """Random conservative integer flows, built as sums of closed walks
    over new or reused arcs in either direction: self-loops, parallel
    arcs, arcs of both signs and arcs whose weight cancels to zero."""
    from endcycle.membership import _flow_cycles

    rng = random.Random(seed)
    nodes = list(range(rng.randint(1, 5)))
    arcs, weight = {}, {}
    for _ in range(rng.randint(1, 6)):
        walk = [rng.choice(nodes) for _ in range(rng.randint(1, 5))]
        c = rng.choice([-2, -1, 1, 1, 3])
        for a, b in zip(walk, walk[1:] + walk[:1]):
            near = [k for k, ends in arcs.items() if set(ends) == {a, b}]
            if near and rng.random() < 0.5:
                k = rng.choice(near)
            else:
                k = len(arcs)
                arcs[k] = (a, b) if rng.random() < 0.5 else (b, a)
                weight[k] = 0
            weight[k] += c if arcs[k] == (a, b) else -c
    rank = list(arcs)
    rng.shuffle(rank)
    order = {k: i for i, k in enumerate(rank)}.__getitem__
    got = _flow_cycles(nodes, arcs, weight, order)
    assert got == _flow_cycles_reference(nodes, arcs, weight, order)
    total = dict.fromkeys(arcs, 0)
    for m, steps in got:
        assert m > 0
        for k, fwd in steps:
            total[k] += m if fwd else -m
    assert total == weight


# -- the verdict of steps 1 and 2 against is_member's ---------------------------
#
# chains.homology_class decides by membership._obstruct alone, so its verdict
# must be the whole pipeline's: on constructed members, on random vectors on
# random lattices of both kinds, and on the chain draws above.

def _drawn_vector(source, seed):
    """The graph and vector one source draws for a seed, or None when the
    draw has no graph or no vector."""
    rng = random.Random(seed)
    if source == "constructed":
        return constructed_member(seed)
    if source in ("periodic-z", "periodic-n"):
        try:
            g = _random_lattice(rng, source)
        except InfiniteComponents:
            return None
        return g, random_vector(g, rng)
    if source == "walks":
        g = GRAPHS[rng.choice(sorted(GRAPHS))]
        return g, ch.edge_vector_of(random_chain(g, rng))
    g = GRAPHS[rng.choice(["ladder", "chords", "triple"])]
    try:
        return g, ch.edge_vector_of(_random_family_chain(g, rng)[0])
    except NotRepresentable:
        return None


@given(st.sampled_from(["constructed", "periodic-z", "periodic-n", "walks", "families"]),
       seeds)
@settings(max_examples=300, deadline=None)
def test_obstruction_verdict_is_is_members(source, seed):
    from endcycle.errors import NotInCycleSpace
    from endcycle.membership import _obstruct

    drawn = _drawn_vector(source, seed)
    if drawn is None:
        return
    g, vec = drawn
    try:
        _obstruct(g, vec)
        obstruction = None
    except NotInCycleSpace as ex:
        obstruction = (ex.cut, ex.cut_sum)
    try:
        cert = is_member(g, vec)
    except InternalError as ex:
        if str(ex) != "could not lay out end rays without overlap":
            raise
        # the open layout fault F2 of ROADMAP item 3 hits members only
        assert obstruction is None
        pytest.xfail("known fault F2: %s" % ex)
    except NotRepresentable as ex:
        # a member whose tails begin far across index 0 leaves the stretch
        # up to their anchors to the finite stage, which lists it entry by
        # entry (ROADMAP item 2); about 1 in 1,700 of the family draws
        assert obstruction is None
        pytest.xfail("finite stage past the entry cap: %s" % ex)
    if obstruction is None:
        assert isinstance(cert, Member)
    else:
        assert isinstance(cert, NonMember)
        assert obstruction == (cert.cut, cert.cut_sum)
