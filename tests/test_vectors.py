"""Edge vector text format, arithmetic, and thin sums."""

import time

import pytest
from hypothesis import given, settings, strategies as st

from endcycle.examples import RAIL_DIFFERENCE
from endcycle.graph import EdgeId, Graph, graph_from_text, parse_dart_label, parse_edge_label
from endcycle.vectors import (
    _ENTRY_CAP,
    EdgeVector,
    FamilyMember,
    VectorFamily,
    is_thin,
    parse_vector_text,
    thin_sum,
    vector_to_text,
    _Counts,
    _double_count,
)
from endcycle.errors import (
    FormatError,
    NotRepresentable,
    NotThin,
    UnknownEdge,
)

from conftest import CHORDS, LADDER, SINGLE_RAY


def test_parsed_entries_are_validated_once(monkeypatch, ladder):
    # the parser checks each set line where it reads it, and the vector
    # is built from the checked entries without checking them again
    calls = []
    check = Graph.require_edge
    monkeypatch.setattr(Graph, "require_edge", lambda g, e: calls.append(e) or check(g, e))
    vec = parse_vector_text(ladder, "\n".join("set rung[%d] = %d" % (i, i + 1) for i in range(50)))
    assert len(calls) == 50 and vec.value_at("rung", 49) == 50


@pytest.mark.parametrize("gname, text, error, message, line", [
    ("ladder", "set rung[0] = 1\nset spoke[0] = 1", UnknownEdge,
     "unknown edge class 'spoke'", None),
    ("chords", "set pos_first[0] = 1", UnknownEdge, "edge 'pos_first' takes no index", None),
    ("ladder", "set rung = 1", UnknownEdge, "edge class 'rung' needs an index", None),
    ("chords", "set chord[-1] = 1", UnknownEdge, "no edge chord[-1]", None),
    ("ladder", "set rung[0] = 1\n\nset rung[0] = 2", FormatError,
     "line 3: duplicate entry for rung[0]", 3),
    ("ladder", "set rung[0] = 1\nset rung[1] = one", FormatError,
     "line 2: not an integer: 'one'", 2),
    ("ladder", "tail+ rail_top from 0 = 1\ntail- rail_top from 3 = 2", FormatError,
     "tails of 'rail_top' overlap with different values", None),
])
def test_parser_errors_are_pinned(request, gname, text, error, message, line):
    with pytest.raises(error) as info:
        parse_vector_text(request.getfixturevalue(gname), text)
    assert type(info.value) is error and str(info.value) == message
    assert getattr(info.value, "line", None) == line


def test_round_trip_canonical(ladder):
    text = "set rung[-4] = 1\ntail+ rail_top from 2 = 3\n"
    v = parse_vector_text(ladder, text)
    assert parse_vector_text(ladder, vector_to_text(v)) == v


def test_tail_values(ladder):
    v = parse_vector_text(ladder, "tail+ rail_top from 2 = 3")
    assert v.value_on(parse_edge_label("rail_top[1]")) == 0
    assert v.value_on(parse_edge_label("rail_top[2]")) == 3
    assert v.value_on(parse_edge_label("rail_top[999]")) == 3
    assert v.tail_of("rail_top", "+") == (2, 3)
    assert v.tail_of("rail_top", "-") is None


def test_static_edge_entry(chords):
    v = parse_vector_text(chords, "set pos_first = 1")
    assert v.has_static_support()
    assert v.value_on(parse_edge_label("pos_first")) == 1


def test_duplicate_entry_reports_line(ladder):
    with pytest.raises(FormatError, match="line 2"):
        parse_vector_text(ladder, "set rung[0] = 1\nset rung[0] = 2")


def test_unknown_edge(ladder):
    with pytest.raises(UnknownEdge):
        parse_vector_text(ladder, "set spoke[0] = 1")


def test_n_graph_rejects_minus_tail(single_ray):
    with pytest.raises(FormatError, match="no - tails"):
        parse_vector_text(single_ray, "tail- step from 0 = 1")


def test_n_graph_rejects_negative_index(single_ray):
    with pytest.raises(UnknownEdge):
        parse_vector_text(single_ray, "set step[-1] = 1")


def test_arithmetic(ladder):
    a = parse_vector_text(ladder, "set rung[0] = 2\ntail+ rail_top from 1 = 5")
    b = parse_vector_text(ladder, "set rung[1] = 1\ntail+ rail_top from 3 = -5")
    assert (a + -a).is_zero()
    assert a.scale(3).value_on(parse_edge_label("rung[0]")) == 6
    assert (a - b).value_on(parse_edge_label("rung[1]")) == -1
    # the tails cancel past both start points
    assert (a + b).value_on(parse_edge_label("rail_top[50]")) == 0
    assert (a + b).value_on(parse_edge_label("rail_top[2]")) == 5


def test_shifted(ladder):
    a = parse_vector_text(ladder, "set rung[0] = 2")
    assert a.shifted(4).value_on(parse_edge_label("rung[4]")) == 2
    assert a.shifted(4).value_on(parse_edge_label("rung[0]")) == 0


def test_evaluate_on_darts(ladder):
    a = parse_vector_text(ladder, "set rung[0] = 2")
    assert a.evaluate(parse_dart_label("rung[0]+")) == 2
    assert a.evaluate(parse_dart_label("rung[0]-")) == -2


def test_from_darts(ladder):
    v = EdgeVector.from_darts(
        ladder, [parse_dart_label("rail_top[0]+"), parse_dart_label("rung[1]-")]
    )
    assert v.value_on(parse_edge_label("rail_top[0]")) == 1
    assert v.value_on(parse_edge_label("rung[1]")) == -1


def test_support_bound(ladder):
    v = parse_vector_text(ladder, "tail+ rail_top from 2 = 3\nset rung[-4] = 1")
    assert v.support_bound() == 4
    assert EdgeVector.zero(ladder).support_bound() == 0


def test_thin_sum_finite_part(ladder):
    a = parse_vector_text(ladder, "set rung[0] = 1")
    b = parse_vector_text(ladder, "set rung[1] = 1")
    fam = VectorFamily(ladder, finite=[(2, a), (-1, b)])
    s = thin_sum(fam)
    assert s.value_on(parse_edge_label("rung[0]")) == 2
    assert s.value_on(parse_edge_label("rung[1]")) == -1


def test_thin_sum_unbounded_single_edge(ladder):
    base = parse_vector_text(ladder, "set rung[0] = 1")
    fam = VectorFamily(ladder, periodic=[(1, base, None, None)])
    assert is_thin(fam)
    s = thin_sum(fam)
    assert vector_to_text(s) == "tail+ rung from 0 = 1\ntail- rung from -1 = 1\n"


def test_thin_sum_half_line_on_ray(single_ray):
    base = parse_vector_text(single_ray, "set step[0] = 1")
    fam = VectorFamily(single_ray, periodic=[(1, base, 0, None)])
    assert vector_to_text(thin_sum(fam)) == "tail+ step from 0 = 1\n"


def test_thin_sum_not_thin(ladder):
    # dragging a + tail toward minus infinity piles onto every edge
    tailed = parse_vector_text(ladder, "tail+ rail_top from 0 = 1")
    fam = VectorFamily(ladder, periodic=[FamilyMember(1, tailed, None, 0)])
    assert not is_thin(fam)
    with pytest.raises(NotThin):
        thin_sum(fam)


def test_thin_sum_growing_values(ladder):
    # thin, but the values along the tail grow linearly
    tailed = parse_vector_text(ladder, "tail+ rail_top from 0 = 1")
    fam = VectorFamily(ladder, periodic=[FamilyMember(1, tailed, 0, None)])
    assert is_thin(fam)
    with pytest.raises(NotRepresentable):
        thin_sum(fam)


def test_thin_sum_too_many_shifts_is_a_resource_limit(ladder):
    # a tailed template is added once per shift, so a wide finite range is
    # refused as a resource limit, not as a malformed input
    tailed = parse_vector_text(ladder, "tail+ rung from 0 = 1")
    fam = VectorFamily(ladder, periodic=[FamilyMember(1, tailed, 0, 5000)])
    assert is_thin(fam)
    with pytest.raises(NotRepresentable, match="too wide to expand"):
        thin_sum(fam)


def test_family_rejects_static_periodic_member(chords):
    base = parse_vector_text(chords, "set pos_first = 1")
    with pytest.raises(FormatError, match="static"):
        VectorFamily(chords, periodic=[(1, base, 0, None)])


def test_family_range_must_stay_on_n_graph(single_ray):
    base = parse_vector_text(single_ray, "set step[0] = 1")
    with pytest.raises(FormatError):
        VectorFamily(single_ray, periodic=[(1, base, None, None)])


# --- data far out -------------------------------------------------------------


def test_far_entry_on_constant_rails(ladder):
    v = parse_vector_text(ladder, RAIL_DIFFERENCE + "set rail_top[250000] = 2\n")
    assert list(v.vals) == [EdgeId("rail_top", 250000)]
    assert v.value_on(EdgeId("rail_top", 250000)) == 2
    assert v.value_on(EdgeId("rail_top", 250001)) == 1
    assert parse_vector_text(ladder, vector_to_text(v)) == v


def test_far_entry_inside_a_one_sided_tail_is_three_changes(ladder):
    # the runs store the value changes at 0, n and n + 1, not the n entries
    # under the tail that vals lists
    n = 10**9
    t0 = time.perf_counter()
    v = parse_vector_text(ladder, "tail+ rail_top from 0 = 1\nset rail_top[%d] = 2\n" % n)
    assert time.perf_counter() - t0 < 0.05
    assert [v.value_on(EdgeId("rail_top", i)) for i in (n - 1, n, n + 1)] == [1, 2, 1]
    assert v.breakpoints()["rail_top"] == (0, n, n + 1)


def test_thin_sum_far_half_line(ladder):
    base = parse_vector_text(ladder, "set rung[0] = 1")
    fam = VectorFamily(ladder, periodic=[(1, base, 300000, None)])
    assert vector_to_text(thin_sum(fam)) == "tail+ rung from 300000 = 1\n"


def test_far_tail_minus_itself(ladder):
    v = parse_vector_text(ladder, "tail+ rail_top from 300000 = 1")
    assert (v - v).is_zero()


def test_entry_limit(ladder):
    # the runs hold a far entry inside a tail as three changes of value,
    # but the explicit entries list rail_top[0..500000] one by one
    v = parse_vector_text(ladder, "tail+ rail_top from 0 = 1\nset rail_top[500000] = 2")
    assert v.value_on(EdgeId("rail_top", 500000)) == 2
    with pytest.raises(NotRepresentable, match="explicit entries"):
        vector_to_text(v)


# --- stored form against a dense reference -----------------------------------

DENSE = {"z": graph_from_text(LADDER), "n": graph_from_text(SINGLE_RAY),
         "c": graph_from_text(CHORDS)}
CLASSES = {"z": ("rail_top", "rung"), "n": ("step",), "c": ("pos_step", "chord")}
WINDOW = 40  # past every breakpoint the strategies below can place
values = st.integers(-2, 2)


@st.composite
def raw_inputs(draw, kind, tails=True):
    """Raw (vals, tails): entries anywhere, zeros included; tails that may
    overlap, with the overlap given explicitly where their values differ;
    "+" thresholds below 0 on periodic-n."""
    lo = -10 if kind == "z" else 0
    vals = {}
    tl = {}
    for cls in CLASSES[kind]:
        for i in draw(st.sets(st.integers(lo, 10), max_size=5)):
            vals[EdgeId(cls, i)] = draw(values)
        if not tails:
            continue
        for d in ("+", "-") if kind == "z" else ("+",):
            if draw(st.booleans()):
                tl[(cls, d)] = (draw(st.integers(-10, 10)), draw(values))
        if (cls, "+") in tl and (cls, "-") in tl:
            (tp, vp), (tm, vm) = tl[(cls, "+")], tl[(cls, "-")]
            if draw(st.booleans()):
                tl[(cls, "-")] = (tm, vp)  # the same value: maybe constant
            elif tm >= tp and vp != vm:
                for i in range(tp, tm + 1):
                    vals.setdefault(EdgeId(cls, i), draw(values))
    return vals, tl


def dense(kind, raw):
    """The value on cls[i] as the vector format defines it."""
    vals, tails = raw

    def value(cls, i):
        if kind != "z" and i < 0:
            return 0
        if EdgeId(cls, i) in vals:
            return vals[EdgeId(cls, i)]
        pt, mt = tails.get((cls, "+")), tails.get((cls, "-"))
        if pt and pt[1] and i >= pt[0]:
            return pt[1]
        if mt and mt[1] and i <= mt[0]:
            return mt[1]
        return 0

    return value


def check_stored(kind, vec, ref):
    g = DENSE[kind]
    lo = 0 if kind == "n" else -WINDOW
    window = range(lo, WINDOW + 1)
    far = [10 * WINDOW] + ([-10 * WINDOW] if kind == "z" else [])
    for cls in CLASSES[kind]:
        for i in list(window) + far:
            assert vec.value_on(EdgeId(cls, i)) == ref(cls, i), (cls, i)
        pt, mt = vec.tail_of(cls, "+"), vec.tail_of(cls, "-")
        idxs = [e.index for e in vec.vals if e.cls == cls]
        assert all(vec.vals[EdgeId(cls, i)] != 0 for i in idxs)
        want = {ref(cls, i) for i in window}
        if len(want) == 1 and 0 not in want:
            # a constant class is split at 0 / -1
            v = want.pop()
            assert pt == (0, v) and mt == (None if kind == "n" else (-1, v))
            assert not idxs
            continue
        if pt:
            assert all(i < pt[0] for i in idxs)
            assert pt[0] == lo or ref(cls, pt[0] - 1) != pt[1]
        if mt:
            assert all(i > mt[0] for i in idxs)
            assert ref(cls, mt[0] + 1) != mt[1]
    # any other raw input with the same values stores the same way
    vals = {EdgeId(c, i): ref(c, i) for c in CLASSES[kind] for i in window}
    tails = {(c, "+"): (WINDOW + 1, ref(c, 10 * WINDOW)) for c in CLASSES[kind]}
    if kind == "z":
        tails.update({(c, "-"): (-WINDOW - 1, ref(c, -10 * WINDOW)) for c in CLASSES[kind]})
    assert EdgeVector(g, vals, tails) == vec


@given(st.sampled_from("zn"), st.data())
@settings(max_examples=300, deadline=None)
def test_stored_form_matches_dense_reference(kind, data):
    g = DENSE[kind]
    ra, rb = data.draw(raw_inputs(kind)), data.draw(raw_inputs(kind))
    fa, fb = dense(kind, ra), dense(kind, rb)
    a, b = EdgeVector(g, *ra), EdgeVector(g, *rb)
    check_stored(kind, a, fa)
    check_stored(kind, a + b, lambda c, i: fa(c, i) + fb(c, i))
    k = data.draw(st.integers(-3, 3))
    check_stored(kind, a.scale(k), lambda c, i: k * fa(c, i))
    s = data.draw(st.integers(0 if kind == "n" else -5, 5))
    check_stored(kind, a.shifted(s), lambda c, i: fa(c, i - s))

    # a finite part, untailed members over bounded and open ranges, and
    # tailed members over bounded ranges
    finite = [(k, a), (data.draw(values), b)]
    members = []
    for _ in range(data.draw(st.integers(0, 3))):
        tailed = data.draw(st.booleans())
        raw = data.draw(raw_inputs(kind, tails=tailed))
        lo = data.draw(st.integers(0 if kind == "n" else -5, 5))
        hi = lo + data.draw(st.integers(0, 6))
        if not tailed:
            lo = data.draw(st.sampled_from([lo] if kind == "n" else [lo, None]))
            hi = data.draw(st.sampled_from([hi, None]))
        members.append((data.draw(values), raw, lo, hi))
    fam = VectorFamily(g, finite=finite, periodic=[
        FamilyMember(c, EdgeVector(g, *raw), lo, hi) for c, raw, lo, hi in members])

    def total(cls, i):
        out = k * fa(cls, i) + finite[1][0] * fb(cls, i)
        for c, raw, lo, hi in members:
            f = dense(kind, raw)
            if raw[1]:
                out += c * sum(f(cls, i - j) for j in range(lo, hi + 1))
                continue
            for e, w in raw[0].items():
                j = i - e.index
                if e.cls == cls and (lo is None or lo <= j) and (hi is None or j <= hi):
                    out += c * w
        return out

    check_stored(kind, thin_sum(fam), total)


# --- where the value changes, against a dense scan ----------------------------


def raw_text(raw):
    """The vector file for a raw (vals, tails) input."""
    vals, tails = raw
    lines = ["set %s = %d" % (e.label(), v) for e, v in vals.items()]
    lines += ["tail%s %s from %d = %d" % (d, c, t, v) for (c, d), (t, v) in tails.items()]
    return "\n".join(lines)


def check_changes(kind, vec):
    """breakpoints() is the set of n with value(n) != value(n - 1) over a
    window past every breakpoint (from 0 on periodic-n, where nothing lies
    left of 0), and support_bound() the largest |index| of a stored entry
    or tail threshold."""
    def value(cls, i):
        if kind != "z" and i < 0:
            return 0
        return vec.value_on(EdgeId(cls, i))

    lo = -WINDOW if kind == "z" else 0
    want = {}
    for cls in CLASSES[kind]:
        moves = [n for n in range(lo, WINDOW + 1) if value(cls, n) != value(cls, n - 1)]
        if moves:
            want[cls] = moves
    got = {cls: list(moves) for cls, moves in vec.breakpoints().items()}
    assert got == want
    bound = [abs(e.index) for e in vec.vals if e.index is not None]
    bound += [abs(t) for t, _v in vec.tails.values()]
    assert vec.support_bound() == max(bound, default=0)


@given(st.sampled_from("zc"), st.data())
@settings(max_examples=300, deadline=None)
def test_breakpoints_and_bound_match_dense_scan(kind, data):
    g = DENSE[kind]
    ra, rb = data.draw(raw_inputs(kind)), data.draw(raw_inputs(kind))
    a = parse_vector_text(g, raw_text(ra))
    b = EdgeVector(g, *rb)
    if kind == "c" and data.draw(st.booleans()):
        b = b + parse_vector_text(g, "set pos_first = %d" % data.draw(values))
    k = data.draw(st.integers(-3, 3))
    s = data.draw(st.integers(0 if kind == "c" else -5, 5))
    members = []
    for _ in range(data.draw(st.integers(0, 3))):
        tailed = data.draw(st.booleans())
        raw = data.draw(raw_inputs(kind, tails=tailed))
        lo = data.draw(st.integers(0 if kind == "c" else -5, 5))
        hi = lo + data.draw(st.integers(0, 6))
        if not tailed:
            lo = data.draw(st.sampled_from([lo] if kind == "c" else [lo, None]))
            hi = data.draw(st.sampled_from([hi, None]))
        members.append(FamilyMember(data.draw(values), EdgeVector(g, *raw), lo, hi))
    fam = VectorFamily(g, finite=[(k, a), (data.draw(values), b)], periodic=members)
    for vec in (a, b, a + b, a.scale(k), a.shifted(s), thin_sum(fam)):
        check_changes(kind, vec)


# --- settling counts against their generators -----------------------------------
#
# A generator (u, s, t, n, c) adds c * #{(j, k) : u + j*s + k*t = x, j >= 0,
# 0 <= k < n} at x (n None: every k >= 0). Whole residue blocks and copies
# taken away a multiple of t further out make many draws settle.

SETTLE_GRAPH = graph_from_text(LADDER)

generator_sets = st.tuples(
    st.sampled_from((1, -1)),  # direction
    st.integers(2, 6),  # |s|
    st.integers(1, 4),  # |t|
    st.sampled_from((1, 2, 3, None)),  # n
    st.integers(-60, 60) | st.sampled_from((-3000, 3000, -10**6, 10**6)),  # first anchor
    st.sampled_from((1, -1, 2)),  # coefficient
    st.sampled_from((True, True, False)),  # one generator per residue modulo s
    st.integers(0, 2),  # a copy taken away that many t further out
)
# a stride run of more members than _ENTRY_CAP, counted as two unbounded ones
wide_runs = st.none() | st.tuples(
    st.sampled_from((1, -1)), st.integers(2, 3), st.integers(-60, 60), st.booleans())


def _generators(sign, s, t, n, u, c, full, back):
    firsts = [u + sign * i for i in range(s if full else 1)]
    gens = [(a, sign * s, sign * t, n, c) for a in firsts]
    gens += [(a + sign * back * t, sign * s, sign * t, n, -c) for a in firsts if back]
    return gens


@given(st.lists(generator_sets, min_size=1, max_size=4), wide_runs)
@settings(max_examples=300, deadline=None)
def test_settled_counts_match_their_generators(drawn, wide):
    gens = [gen for d in drawn for gen in _generators(*d)]
    counts = _Counts(SETTLE_GRAPH)
    for u, s, t, n, c in gens:
        counts.double("rail_top", u, s, t, n, c)
    anchors = [a for u, _s, t, n, _c in gens for a in (u, u if n is None else u + (n - 1) * t)]
    wides = []
    if wide:
        sign, s, u, full = wide
        wides = [(a, sign * s) for a in range(u, u + (s if full else 1))]
        for a, step in wides:
            counts.run("rail_top", a, step, _ENTRY_CAP + 1, 1)
            anchors += [a, a + (_ENTRY_CAP + 1) * step]
    try:
        failures = counts.settle()
    except NotRepresentable:
        return
    if failures:
        return
    vec = counts.acc.vector()

    def expected(x):
        value = sum(c * _double_count(x - u if s > 0 else u - x, abs(s), abs(t), n)
                    for u, s, t, n, c in gens)
        return value + sum(1 for a, step in wides
                           if (x - a) % step == 0 and 0 <= (x - a) // step <= _ENTRY_CAP)

    far = 2 * max(abs(a) for a in anchors) + 1000
    xs = {x for a in anchors + [-far, far] for x in range(a - 40, a + 41)}
    assert {x: vec.value_at("rail_top", x) for x in xs} == {x: expected(x) for x in xs}


def _settled(gens):
    counts = _Counts(SETTLE_GRAPH)
    for gen in gens:
        counts.double("rail_top", *gen)
    return counts.settle(), counts.acc.vector()


@pytest.mark.parametrize("far", [10**6, -1])
def test_opposite_rays_settle_by_their_own_periods(far):
    # rays of shift 449 from every index 0..448 on, and of shift -457 from
    # every index far - 456..far back, 10^6 apart or meeting at 0: each
    # side is settled over two of its own periods, not over two of their
    # common period 205,193, which is past the evaluation limit
    gens = [(i, 449, 449, 1, 1) for i in range(449)]
    gens += [(far - i, -457, -457, 1, 1) for i in range(457)]
    t0 = time.perf_counter()
    failures, vec = _settled(gens)
    assert time.perf_counter() - t0 < 1.0
    assert failures == []
    xs = (-10**7, -1, 0, far, far + 1, 10**7)
    assert [vec.value_at("rail_top", x) for x in xs] == [1 + (0 <= x <= far) for x in xs]
    assert len(vec.breakpoints().get("rail_top", ())) == (2 if far > 0 else 0)


def test_unsettled_counts_fail_before_any_gap_is_spanned():
    # a family of rays grows along rail_top from 0 on, and a block of rays
    # of shift -457 ends 10^6 further right: the sum far to the right is the
    # growing one alone, so it is reported without evaluating the gap
    gens = [(0, 2, 3, None, 1)] + [(10**6 - i, -457, -457, 1, 1) for i in range(457)]
    assert _settled(gens)[0] == [("rail_top", "grow without bound")]
    gens = [(0, 449, 449, 1, 1)] + [(10**6 - i, -457, -457, 1, 1) for i in range(457)]
    assert _settled(gens)[0] == [("rail_top", "are periodic but not constant")]


def test_far_apart_cancelling_rays_settle_one_cluster_at_a_time():
    # 500 pairs of rays of shift 7 each way, 10^6 apart, each pair
    # cancelling except at its first ray's anchor; a pair settled is not
    # evaluated again, so the cost grows with the number of pairs
    gens = []
    for i in range(500):
        u = i * 10**6
        gens += [(u, 7, 7, 1, 1), (u + 7, 7, 7, 1, -1)]
        gens += [(u + 500_000, -7, -7, 1, 1), (u + 500_000 - 7, -7, -7, 1, -1)]
    took = []
    for _ in range(3):
        t0 = time.perf_counter()
        failures, vec = _settled(gens)
        took.append(time.perf_counter() - t0)
    assert failures == []
    assert vec.breakpoints()["rail_top"] == tuple(
        sorted(x + d for i in range(500) for x in (i * 10**6, i * 10**6 + 500_000) for d in (0, 1)))
    assert min(took) < 0.5
