"""Edge vector text format, arithmetic, and thin sums."""

import pytest

from endcycle.graph import parse_dart_label, parse_edge_label
from endcycle.vectors import (
    EdgeVector,
    FamilyMember,
    VectorFamily,
    add,
    is_thin,
    parse_vector_text,
    scale,
    thin_sum,
    vector_to_json,
    vector_to_text,
)
from endcycle.errors import (
    FormatError,
    NotRepresentable,
    NotThin,
    UnknownEdge,
)


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
    assert add(a, -a).is_zero()
    assert scale(3, a).value_on(parse_edge_label("rung[0]")) == 6
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


def test_json_shape(ladder):
    v = parse_vector_text(ladder, "tail+ rail_top from 2 = 3\nset rung[-4] = 1")
    obj = vector_to_json(v)
    assert obj["edges"] == [{"edge": {"edge": "rung", "index": -4}, "value": 1}]
    assert obj["tails"] == [
        {"class": "rail_top", "direction": "+", "from": 2, "value": 3}
    ]


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


def test_family_rejects_static_periodic_member(chords):
    base = parse_vector_text(chords, "set pos_first = 1")
    with pytest.raises(FormatError, match="static"):
        VectorFamily(chords, periodic=[(1, base, 0, None)])


def test_family_range_must_stay_on_n_graph(single_ray):
    base = parse_vector_text(single_ray, "set step[0] = 1")
    with pytest.raises(FormatError):
        VectorFamily(single_ray, periodic=[(1, base, None, None)])
