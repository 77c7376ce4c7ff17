"""The benchmark's own checks against hand-worked cases, and the purity
of its generators. Run with `python3 -m pytest perfbench`."""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import model  # noqa: E402
import workloads  # noqa: E402

LADDER = model.GraphModel(workloads.LADDER)
SQUARE = [("rail_top", 0, 1), ("rung", 1, 1), ("rail_bot", 0, -1), ("rung", 0, -1)]
RAIL_DIFFERENCE = model.parse_vec(
    "tail+ rail_top from 0 = 1\ntail- rail_top from -1 = 1\n"
    "tail+ rail_bot from 0 = -1\ntail- rail_bot from -1 = -1\n"
)
TOP_RAIL = model.parse_vec("tail+ rail_top from 0 = 1\ntail- rail_top from -1 = 1\n")


def _dart(name, idx, sign):
    return {"edge": name, "index": idx, "forward": sign > 0}


def test_ladder_square_summed_from_its_darts():
    darts, end = model.walk_darts(
        LADDER, ("top", 4), [("rail_top", 4), ("rung", 5), ("rail_bot", 4), ("rung", 4)])
    assert end == ("top", 4)
    vec = model.families_vector(LADDER, [(1, darts, 0, 0)])
    assert vec.vals == {("rail_top", 4): 1, ("rung", 5): 1, ("rail_bot", 4): -1, ("rung", 4): -1}
    assert not vec.plus and not vec.minus


def test_square_families_sum_to_the_rail_difference():
    both = model.families_vector(LADDER, [(1, SQUARE, None, None)])
    assert model.same_vector(LADDER, both, RAIL_DIFFERENCE)
    # the rungs cancel between neighbours; a one-sided family keeps one
    half = model.families_vector(LADDER, [(1, SQUARE, 3, None)])
    assert half.value("rung", 3) == -1 and half.value("rung", 4) == 0
    assert half.value("rail_top", 2) == 0 and half.value("rail_top", 10**6) == 1
    assert half.value("rail_bot", 3) == -1
    # a finite family of width 3 is three squares side by side
    three = model.families_vector(LADDER, [(2, SQUARE, -1, 1)])
    assert [three.value("rail_top", i) for i in range(-2, 3)] == [0, 2, 2, 2, 0]
    assert [three.value("rung", i) for i in range(-2, 4)] == [0, -2, 0, 0, 2, 0]


def test_crossing_sums_of_finite_cuts_on_the_top_rail():
    # every star of the top rail is balanced: one unit in, one unit out
    for i in (-3, 0, 7):
        assert LADDER.cut_sum({("top", i)}, TOP_RAIL) == 0
        assert LADDER.cut_sum({("bot", i)}, TOP_RAIL) == 0
    block = {(c, i) for c in ("top", "bot") for i in range(-2, 3)}
    assert LADDER.cut_sum(block, TOP_RAIL) == 0
    bumped = TOP_RAIL.with_added("rail_top", 5, 1)
    assert LADDER.cut_sum({("top", 5)}, bumped) == 1
    assert LADDER.cut_sum({("top", 6)}, bumped) == -1
    # the rail difference leaves a cell through the top rail and comes back
    # through the bottom one, so a column sums to zero and a top star too
    assert LADDER.cut_sum({("top", 0), ("bot", 0)}, RAIL_DIFFERENCE) == 0


def test_member_certificates_are_reevaluated_without_the_program():
    family = {"verdict": "member", "decomposition": {"circles": [
        {"coeff": 1, "type": "family", "lo": None, "hi": None,
         "template": [_dart(*d) for d in SQUARE]}]}}
    assert model.reevaluate_member(LADDER, RAIL_DIFFERENCE, family)
    assert not model.reevaluate_member(LADDER, TOP_RAIL, family)
    # the top rail as one double ray: in along the rail from the left,
    # out along it to the right
    ray = {"start": {"class": "top", "index": 0}, "initial": [], "shift": 1,
           "repeat": [_dart("rail_top", 0, 1)]}
    back = {"start": {"class": "top", "index": 0}, "initial": [], "shift": -1,
            "repeat": [_dart("rail_top", -1, -1)]}
    double = {"verdict": "member", "decomposition": {"circles": [
        {"coeff": 1, "type": "double-ray", "back": back, "middle": [], "forward": ray}]}}
    assert model.reevaluate_member(LADDER, TOP_RAIL, double)
    assert not model.reevaluate_member(LADDER, RAIL_DIFFERENCE, double)
    assert model.certificate_pieces(double) == 1


def test_non_member_certificates_recompute_finite_cuts():
    bumped = TOP_RAIL.with_added("rail_top", 5, 1)
    star = {"verdict": "non-member", "sum": 1,
            "cut": {"kind": "finite-set", "vertices": [{"class": "top", "index": 5}]}}
    assert model.reevaluate_non_member(LADDER, bumped, star) == 1
    half = {"verdict": "non-member", "sum": -1, "cut": {"kind": "half-space"}}
    assert model.reevaluate_non_member(LADDER, TOP_RAIL, half) is None


def _snapshot(w):
    return json.dumps(
        [w.graphs, w.vectors, w.chains, w.pairs,
         [(op.kind, op.graph, op.docs, str(op.expect), op.label)
          for op in w.ops]],
        sort_keys=True, default=str)


def test_generators_are_pure_functions_of_the_seed():
    for make in workloads.WORKLOADS.values():
        assert _snapshot(make(7)) == _snapshot(make(7))
        assert _snapshot(make(7)) != _snapshot(make(8))


def test_constructed_members_have_balanced_stars():
    w = workloads.constructed_periodic(3)
    for op in w.ops[:60]:
        g = w.models[op.graph]
        window = range(0 if g.one_sided else -40, 40)
        stars = [g.cut_sum({(c, i)}, op.own) for c in g.cells for i in window]
        stars += [g.cut_sum({(p, None)}, op.own) for p in g.caps]
        assert (op.expect == "member") == (not any(stars)), op.label
