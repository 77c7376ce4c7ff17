"""Finite oriented cuts: construction, crossing edges, sums, enumeration."""

import random

from endcycle.cuts import (
    FiniteSetCut,
    HalfSpaceCut,
    cut_contains,
    cut_edges,
    cut_from_json,
    cut_sum,
    cut_to_json,
    enumerate_finite_cuts,
    exhaustive_cut_check,
    star_cut,
)
from endcycle.graph import parse_vertex_label
from endcycle.vectors import parse_vector_text


def rail_vector(g):
    return parse_vector_text(
        g,
        "tail+ rail_top from 0 = 1\ntail- rail_top from -1 = 1",
    )


def test_star_cut_edges(ladder):
    c = star_cut(parse_vertex_label("top[0]"))
    got = sorted((d.edge.label(), d.forward) for d in cut_edges(ladder, c))
    assert got == [("rail_top[-1]", False), ("rail_top[0]", True), ("rung[0]", True)]


def test_star_cut_sums(ladder):
    c = star_cut(parse_vertex_label("top[0]"))
    assert cut_sum(ladder, c, rail_vector(ladder)) == 0
    v = parse_vector_text(ladder, "set rung[0] = 1")
    assert cut_sum(ladder, c, v) == 1
    assert cut_sum(ladder, star_cut(parse_vertex_label("bot[0]")), v) == -1


def test_half_space_cut(ladder):
    end_plus = next(e for e in ladder.ends() if e.label() == "end+0")
    h = HalfSpaceCut((end_plus,), 2)
    got = sorted((d.edge.label(), d.forward) for d in cut_edges(ladder, h))
    assert got == [("rail_bot[2]", False), ("rail_top[2]", False)]
    assert cut_sum(ladder, h, rail_vector(ladder)) == -1
    assert cut_contains(ladder, h, parse_vertex_label("top[5]"))
    assert not cut_contains(ladder, h, parse_vertex_label("top[-5]"))


def test_half_space_delta_is_additive(ladder):
    # toggling one vertex out of the half space subtracts its star sum
    end_plus = next(e for e in ladder.ends() if e.label() == "end+0")
    v = parse_vector_text(ladder, "set rung[4] = 1\ntail+ rail_top from 0 = 2")
    plain = HalfSpaceCut((end_plus,), 2)
    toggled = HalfSpaceCut((end_plus,), 2, frozenset({parse_vertex_label("top[4]")}))
    star = cut_sum(ladder, star_cut(parse_vertex_label("top[4]")), v)
    assert cut_sum(ladder, toggled, v) == cut_sum(ladder, plain, v) - star


def test_finite_set_cut_edges(chords):
    f = FiniteSetCut(
        frozenset({parse_vertex_label("pos[0]"), parse_vertex_label("pos[1]")})
    )
    got = sorted((d.edge.label(), d.forward) for d in cut_edges(chords, f))
    assert got == [
        ("chord[0]", True),
        ("chord[1]", True),
        ("pos_first", False),
        ("pos_step[1]", True),
    ]


def test_cut_json_round_trips(ladder):
    end_plus = next(e for e in ladder.ends() if e.label() == "end+0")
    cuts = [
        star_cut(parse_vertex_label("top[0]")),
        HalfSpaceCut((end_plus,), 3, frozenset({parse_vertex_label("bot[1]")})),
    ]
    for c in cuts:
        assert cut_from_json(ladder, cut_to_json(c)) == c


def test_enumerate_deduplicates(ladder):
    cuts = list(enumerate_finite_cuts(ladder, 0))
    # 2 window vertices and 2 ends give 16 sign patterns; the all-in and
    # all-out patterns share an empty crossing set
    assert len(cuts) == 14
    seen = set()
    for c, edges in enumerate_finite_cuts(ladder, 0, with_edges=True):
        key = frozenset(edges)
        assert key not in seen
        seen.add(key)


def test_enumerate_matches_collapsed_check(single_ray, ladder):
    # the collapsed check and the literal enumeration must agree
    member = parse_vector_text(single_ray, "")
    assert exhaustive_cut_check(single_ray, member, 2) is None
    for c in enumerate_finite_cuts(single_ray, 2):
        assert cut_sum(single_ray, c, member) == 0

    bad = parse_vector_text(single_ray, "tail+ step from 0 = 1")
    violated = exhaustive_cut_check(single_ray, bad, 2)
    assert violated is not None
    assert cut_sum(single_ray, violated, bad) != 0
    literal = [c for c in enumerate_finite_cuts(single_ray, 2)
               if cut_sum(single_ray, c, bad) != 0]
    assert literal

    sq = parse_vector_text(
        ladder, "set rung[0] = -1\nset rung[1] = 1\nset rail_top[0] = 1\nset rail_bot[0] = -1"
    )
    assert exhaustive_cut_check(ladder, sq, 3) is None
    for c in enumerate_finite_cuts(ladder, 1):
        assert cut_sum(ladder, c, sq) == 0


def test_exhaustive_check_sampling(ladder):
    v = rail_vector(ladder)
    violated = exhaustive_cut_check(ladder, v, 3, sample=16, rng=random.Random(7))
    assert violated is not None
    assert cut_sum(ladder, violated, v) != 0
