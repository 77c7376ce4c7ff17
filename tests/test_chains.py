"""1-chains: admissibility, boundary, winding, homology, restriction."""

import time

import pytest

from endcycle import chains as ch
from endcycle.cuts import cut_sum
from endcycle.graph import graph_from_text, parse_edge_label, parse_vertex_label
from endcycle.membership import Member, NonMember, is_member
from endcycle.vectors import parse_vector_text, vector_to_text
from conftest import PENDANT, TRIANGLE_CAPS
from endcycle.errors import (
    BadDimension,
    FormatError,
    InfiniteBoundarySupport,
    NonzeroBoundary,
    NotACycle,
    NotAdmissible,
    NotAdmissiblePair,
    NotARay,
    NotRepresentable,
)

SQUARES = (
    "periodic 0..inf { walk top[0] rail_top[0] top[1] rung[1] bot[1] "
    "rail_bot[0] bot[0] rung[0] top[0] }"
)
SQUARES_Z = SQUARES.replace("0..inf", "-inf..inf")
RAILS = "periodic -inf..inf { pass rail_top[0] + }"
ENDJUMP_LOOP = (
    "endjump origin pos_first+ repeat pos_step[0]+ ; "
    "origin neg_first- repeat neg_step[0]-"
)
PASS_FAMILIES = """\
pass pos_first +
pass neg_first +
periodic 0..inf { pass pos_step[0] + }
periodic 0..inf { pass neg_step[0] + }
"""
# four copies of the loop origin -> pos[0] -> neg[0] -> origin; the passes
# name static edges only, so their families repeat them in place
FOUR_LOOPS = """\
periodic 0..3 { pass neg_first + }
periodic 0..3 { pass pos_first + }
coeff 4 walk pos[0] chord[0] neg[0]
"""
RAIL_LOOP_VEC = """\
set pos_first = 1
set neg_first = 1
tail+ pos_step from 0 = 1
tail+ neg_step from 0 = 1
"""


# --- parsing ---------------------------------------------------------------

def test_round_trips(ladder, chords):
    texts = [
        (ladder, "pass rung[0] +\n"),
        (ladder, "coeff 3 pass rung[0] -\n"),
        (ladder, "walk top[0] rail_top[0] top[1] rung[1] bot[1]\n"),
        (ladder, "const top[0]\n"),
        (ladder, "const end+0\n"),
        (ladder, "periodic -2..5 { pass rung[0] + }\n"),
        (chords, "endjump origin pos_first+ repeat pos_step[0]+ ; "
                 "origin neg_first- repeat neg_step[0]-\n"),
    ]
    for g, t in texts:
        rep = ch.parse_chain_text(g, t)
        assert ch.chain_to_text(rep) + "\n" == t
        again = ch.parse_chain_text(g, ch.chain_to_text(rep))
        assert ch.chain_to_text(again) == ch.chain_to_text(rep)


def test_braces_may_span_lines(ladder):
    rep = ch.parse_chain_text(ladder, "periodic 0..3 {\n  pass rung[0] +\n}")
    assert ch.chain_to_text(rep) == "periodic 0..3 { pass rung[0] + }"


def test_walk_direction_inferred(ladder):
    rep = ch.parse_chain_text(ladder, "walk top[1] rail_top[0] top[0]")
    (w,) = [m for _, m in rep.finite]
    assert not w.darts[0].forward


def test_walk_rejects_nonadjacent(ladder):
    with pytest.raises(FormatError):
        ch.parse_chain_text(ladder, "walk top[0] rail_top[3] top[4]")


def test_endjump_rays_must_share_an_end(intro_plain):
    with pytest.raises(FormatError, match="converge"):
        ch.parse_chain_text(intro_plain, ENDJUMP_LOOP)


def test_n_graph_family_needs_lower_bound(chords):
    with pytest.raises(FormatError):
        ch.parse_chain_text(chords, "periodic -inf..inf { pass pos_step[0] + }")


def test_family_template_must_keep_chaining(chords):
    # a template mixing static and cell edges breaks once it is shifted
    with pytest.raises(NotARay):
        ch.parse_chain_text(
            chords, "periodic 0..inf { walk origin pos_first pos[0] pos_step[0] pos[1] }"
        )


def test_empty_chain(ladder):
    rep = ch.parse_chain_text(ladder, "")
    assert ch.chain_to_text(rep) == ""
    assert ch.boundary(rep).is_zero()
    assert ch.edge_vector_of(rep).is_zero()


# --- admissibility ---------------------------------------------------------

def test_squares_family_admissible(ladder):
    assert ch.check_admissible(ladder, ch.parse_chain_text(ladder, SQUARES_Z)).ok


def test_constant_vertex_admissible(ladder):
    assert ch.check_admissible(ladder, ch.parse_chain_text(ladder, "const top[0]")).ok


def test_constant_end_inadmissible(ladder):
    rep = ch.check_admissible(ladder, ch.parse_chain_text(ladder, "const end+0"))
    assert not rep.ok
    assert "0-face" in rep.reason


def test_pinned_family_inadmissible(triangle_caps):
    fam = ch.parse_chain_text(triangle_caps, "periodic 0..inf { walk v0 a v1 b v2 c v0 }")
    rep = ch.check_admissible(triangle_caps, fam)
    assert not rep.ok
    assert rep.witness.label() == "v0"
    with pytest.raises(NotAdmissible):
        ch.boundary(fam)


def test_drifting_jump_family_inadmissible(ladder):
    fam = ch.parse_chain_text(
        ladder,
        "periodic -inf..inf { endjump top[0] repeat rail_top[0]+ ; "
        "top[0] rung[0]+ repeat rail_bot[0]+ }",
    )
    rep = ch.check_admissible(ladder, fam)
    assert not rep.ok
    assert rep.witness is not None


# --- boundary --------------------------------------------------------------

def test_walk_boundary_telescopes(ladder):
    w = ch.parse_chain_text(ladder, "walk top[0] rail_top[0] top[1] rail_top[1] top[2]")
    b = ch.boundary(w)
    assert b.get(parse_vertex_label("top[2]")) == 1
    assert b.get(parse_vertex_label("top[0]")) == -1
    assert len(b.support()) == 2 and b.total() == 0


def test_closed_family_boundary_zero(ladder, chords):
    assert ch.boundary(ch.parse_chain_text(ladder, SQUARES_Z)).is_zero()
    assert ch.boundary(ch.parse_chain_text(chords, ENDJUMP_LOOP)).is_zero()
    assert ch.boundary(ch.parse_chain_text(ladder, RAILS)).is_zero()


def test_one_sided_pass_family_boundary_unrepresentable(ladder):
    rungs = ch.parse_chain_text(ladder, "periodic 0..inf { pass rung[0] + }")
    assert ch.check_admissible(ladder, rungs).ok
    with pytest.raises(InfiniteBoundarySupport) as exc:
        ch.boundary(rungs)
    assert exc.value.witness_class in ("top", "bot")


def test_boundary_augmentation_zero_per_component(disjoint):
    w = ch.parse_chain_text(disjoint, "walk t0 side_a t1 side_b t2")
    assert ch.augmentation(disjoint, ch.boundary(w)) == (0, 0)


# --- winding ---------------------------------------------------------------

def test_squares_vector(ladder):
    vec = ch.edge_vector_of(ch.parse_chain_text(ladder, SQUARES_Z))
    expect = parse_vector_text(
        ladder,
        "tail+ rail_top from 0 = 1\ntail- rail_top from -1 = 1\n"
        "tail+ rail_bot from 0 = -1\ntail- rail_bot from -1 = -1",
    )
    assert vec == expect


def test_one_sided_squares_keep_a_rung(ladder):
    vec = ch.edge_vector_of(ch.parse_chain_text(ladder, SQUARES))
    # the rungs telescope away except at the first copy
    assert vec.value_on(parse_edge_label("rung[0]")) == -1
    assert vec.value_on(parse_edge_label("rung[5]")) == 0
    assert vec.tail_of("rail_top", "+") is not None


def test_endjump_loop_vector(chords):
    vec = ch.edge_vector_of(ch.parse_chain_text(chords, ENDJUMP_LOOP))
    assert vec == parse_vector_text(chords, RAIL_LOOP_VEC)


def test_coefficient_scales_vector(ladder):
    one = ch.edge_vector_of(ch.parse_chain_text(ladder, "pass rung[0] +"))
    three = ch.edge_vector_of(ch.parse_chain_text(ladder, "coeff 3 pass rung[0] -"))
    assert three == one.scale(-3)


def test_jump_family_vector_unrepresentable(chords):
    fam = ch.parse_chain_text(
        chords,
        "periodic 0..inf { endjump pos[0] repeat pos_step[0]+ ; "
        "pos[0] chord[0]+ repeat neg_step[0]- }",
    )
    assert ch.check_admissible(chords, fam).ok
    with pytest.raises(NotRepresentable):
        ch.edge_vector_of(fam)


def _square(n):
    return (
        "walk top[{0}] rail_top[{0}] top[{1}] rung[{1}] bot[{1}] "
        "rail_bot[{0}] bot[{0}] rung[{0}] top[{0}]".format(n, n + 1)
    )


def _jump_pair(back, step=1):
    # out along rail_top from top[0], back along rail_top from top[back]
    return (
        "periodic 0..inf step %d { endjump top[0] repeat rail_top[0]+ ; "
        "top[%d] repeat rail_top[%d]+ }" % (step, back, back)
    )


def test_step_two_square_families_vector(ladder):
    rep = ch.parse_chain_text(
        ladder,
        "periodic 0..inf step 2 { %s }\nperiodic 0..inf step 2 { %s }"
        % (_square(0), _square(1)),
    )
    assert ch.edge_vector_of(rep) == parse_vector_text(
        ladder,
        "set rung[0] = -1\ntail+ rail_top from 0 = 1\n"
        "tail+ rail_bot from 0 = -1",
    )


def test_wide_step_two_family_counts_across_directions(ladder):
    # the squares from 0 on again, the even ones split at 10^9: a bounded
    # step-2 family too wide to list, a two-sided one, and a left-unbounded
    # one taken away, which alone alternates from 10^9 down toward -inf
    n = 10**9
    rep = ch.parse_chain_text(
        ladder,
        "periodic 0..inf step 2 { %s }\nperiodic 0..%d step 2 { %s }\n"
        "periodic -inf..inf step 2 { %s }\ncoeff -1 periodic -inf..%d step 2 { %s }"
        % (_square(1), n, _square(0), _square(0), n, _square(0)),
    )
    t0 = time.perf_counter()
    vec = ch.edge_vector_of(rep)
    assert time.perf_counter() - t0 < 1.0
    assert vec == parse_vector_text(
        ladder,
        "set rung[0] = -1\ntail+ rail_top from 0 = 1\n"
        "tail+ rail_bot from 0 = -1",
    )


def test_jump_families_cancel_to_tails(ladder):
    # each family alone grows along rail_top; the difference is constant
    for back, expect in (
        (1, "tail+ rail_top from 0 = 1"),
        (3, "set rail_top[0] = 1\nset rail_top[1] = 2\n"
            "tail+ rail_top from 2 = 3"),
    ):
        vec = ch.edge_vector_of(ch.parse_chain_text(ladder, _jump_pair(back)))
        assert vec == parse_vector_text(ladder, expect)


def test_step_three_jump_family_is_periodic_not_constant(ladder):
    rep = ch.parse_chain_text(ladder, _jump_pair(1, step=3))
    with pytest.raises(NotRepresentable):
        ch.edge_vector_of(rep)
    with pytest.raises(InfiniteBoundarySupport) as exc:
        ch.boundary(rep)
    assert exc.value.witness_class == "top"


def test_far_apart_step_families_report_their_boundary(ladder):
    # the step-449 family's boundary alternates along top from 0 on, and
    # the step-457 one's stops 914,000 further right: far to the right the
    # first counts alone, so the support is reported as infinite without
    # evaluating the gap, which two of the common period 205,193 would need
    rep = ch.parse_chain_text(
        ladder,
        "periodic 0..inf step 449 { pass rail_top[0] + }\n"
        "periodic -inf..2000 step 457 { pass rail_top[0] + }",
    )
    with pytest.raises(InfiniteBoundarySupport) as exc:
        ch.boundary(rep)
    assert exc.value.witness_class == "top"


def test_far_square_and_far_jump(ladder):
    rep = ch.parse_chain_text(ladder, _square(10**6))
    vec = ch.homology_class(ladder, rep)
    assert len(vec.vals) == 4 and not vec.tails
    assert vec.value_on(parse_edge_label("rung[1000001]")) == 1
    assert isinstance(is_member(ladder, vec), Member)
    n = 10**9
    jump = ch.parse_chain_text(
        ladder,
        "endjump top[%d] repeat rail_top[%d]+ ; "
        "top[%d] rung[%d]+ repeat rail_bot[%d]+" % (n, n, n, n, n),
    )
    assert ch.edge_vector_of(jump) == parse_vector_text(
        ladder,
        "set rung[%d] = -1\ntail+ rail_top from %d = 1\n"
        "tail+ rail_bot from %d = -1" % (n, n, n),
    )



def test_far_end_jumps_cost_their_description(ladder):
    # two shift-2 end jumps 10^9 apart cancel past the far one: each
    # rail's count settles to a constant in a few indices after each anchor
    n = 10**9
    jump = ("endjump top[{0}] repeat rail_top[{0}]+ rail_top[{1}]+ ; "
            "top[{0}] rung[{0}]+ repeat rail_bot[{0}]+ rail_bot[{1}]+")
    rep = ch.parse_chain_text(ladder, jump.format(0, 1) + "\ncoeff -1 " + jump.format(n, n + 1))
    t0 = time.perf_counter()
    vec = ch.edge_vector_of(rep)
    assert time.perf_counter() - t0 < 1.0
    assert vec.breakpoints() == {
        "rail_top": (0, n), "rail_bot": (0, n), "rung": (0, 1, n, n + 1)}
    assert not vec.tails
    assert ch.boundary(rep).is_zero()
    assert ch.homology_class(ladder, rep) == vec

def test_wide_square_family(ladder):
    rep = ch.parse_chain_text(ladder, "periodic 0..5000 { %s }" % _square(0))
    vec = ch.edge_vector_of(rep)
    assert len(vec.vals) == 10004 and not vec.tails


def test_wide_jump_family_is_refused_before_expanding(ladder):
    rep = ch.parse_chain_text(
        ladder,
        "periodic 0..1000000000 { endjump top[0] repeat rail_top[0]+ ; "
        "top[0] rung[0]+ repeat rail_bot[0]+ }",
    )
    for op in (ch.edge_vector_of, ch.subdivide_to_passes):
        t0 = time.perf_counter()
        with pytest.raises(NotRepresentable):
            op(rep)
        assert time.perf_counter() - t0 < 1.0


def test_wide_shift_two_jump_family_is_linear(ladder):
    # each member rides both rails from index k on with repeat shift 2
    w = 10**5
    rep = ch.parse_chain_text(
        ladder,
        "periodic 0..%d { endjump top[0] repeat rail_top[0]+ rail_top[1]+ ; "
        "top[0] rung[0]+ repeat rail_bot[0]+ rail_bot[1]+ }" % w,
    )
    t0 = time.perf_counter()
    vec = ch.edge_vector_of(rep)
    assert time.perf_counter() - t0 < 5.0
    assert len(vec.vals) == 3 * w + 1
    assert vec.tails == {
        ("rail_top", "+"): (w, w + 1), ("rail_bot", "+"): (w, -w - 1)
    }
    for k in (0, 1, 2, w // 2, w - 1):
        assert vec.value_on(parse_edge_label("rail_top[%d]" % k)) == k + 1
        assert vec.value_on(parse_edge_label("rail_bot[%d]" % k)) == -k - 1
        assert vec.value_on(parse_edge_label("rung[%d]" % k)) == -1


def test_step_two_jump_family_grows(ladder):
    # the count on rail_top[m] is m // 2 + 1: it repeats nothing per step
    rep = ch.parse_chain_text(
        ladder,
        "periodic 0..inf step 2 { endjump top[0] repeat rail_top[0]+ ; "
        "top[0] rung[0]+ repeat rail_bot[0]+ }",
    )
    with pytest.raises(NotRepresentable):
        ch.edge_vector_of(rep)


def test_counts_past_the_entry_cap_are_not_representable(ladder):
    # the square family's winding vector is a handful of runs, but its
    # explicit entries list rail_top[0..500000] one by one
    rep = ch.parse_chain_text(ladder, "periodic 0..500000 { %s }" % _square(0))
    vec = ch.edge_vector_of(rep)
    assert vec.breakpoints()["rail_top"] == (0, 500001)
    with pytest.raises(NotRepresentable):
        vector_to_text(vec)
    rep = ch.parse_chain_text(
        ladder, "periodic 0..250000 step 2 { pass rail_top[0] + }"
    )
    with pytest.raises(NotRepresentable):
        ch.boundary(rep)


# --- subdivision -----------------------------------------------------------

def test_subdivision_preserves_vector_and_boundary(ladder, chords):
    for g, text in ((ladder, SQUARES_Z), (chords, ENDJUMP_LOOP),
                    (ladder, "walk top[0] rail_top[0] top[1] rung[1] bot[1]")):
        rep = ch.parse_chain_text(g, text)
        sub = ch.subdivide_to_passes(rep)
        assert ch.edge_vector_of(sub) == ch.edge_vector_of(rep)
        assert ch.boundary(sub).coeffs == ch.boundary(rep).coeffs
        back = ch.parse_chain_text(g, ch.chain_to_text(sub))
        assert ch.chain_to_text(back) == ch.chain_to_text(sub)


def test_subdivided_walk_family_is_pass_families(ladder):
    sub = ch.subdivide_to_passes(ch.parse_chain_text(ladder, SQUARES))
    assert ch.chain_to_text(sub) == (
        "periodic 0..inf { pass rail_top[0] + }\n"
        "periodic 0..inf { pass rung[1] + }\n"
        "periodic 0..inf { pass rail_bot[0] - }\n"
        "periodic 0..inf { pass rung[0] - }"
    )


# --- cycles and homology ---------------------------------------------------

def test_is_cycle_adhoc(ladder):
    assert ch.is_cycle_adhoc(ladder, ch.parse_chain_text(ladder, SQUARES_Z))
    assert not ch.is_cycle_adhoc(ladder, ch.parse_chain_text(ladder, RAILS))


def test_open_chain_raises(ladder):
    with pytest.raises(NonzeroBoundary) as exc:
        ch.is_cycle_adhoc(ladder, ch.parse_chain_text(ladder, "pass rung[0] +"))
    assert exc.value.witness.label() in ("top[0]", "bot[0]")
    assert exc.value.coefficient in (1, -1)


def test_homology_class_of_squares(ladder):
    vec = ch.homology_class(ladder, ch.parse_chain_text(ladder, SQUARES_Z))
    assert isinstance(is_member(ladder, vec), Member)


def test_rails_are_not_a_cycle(ladder):
    rails = ch.parse_chain_text(ladder, RAILS)
    with pytest.raises(NotACycle) as exc:
        ch.homology_class(ladder, rails)
    vec = ch.edge_vector_of(rails)
    assert cut_sum(ladder, exc.value.cut, vec) == exc.value.cut_sum != 0


def test_verdicts_build_no_decomposition(monkeypatch, ladder, chords):
    # homology_class decides by the cut criterion alone, and a chain that
    # is no cycle carries the cut and sum that is_member reports
    from endcycle import membership

    rails = ch.parse_chain_text(ladder, RAILS)
    cert = is_member(ladder, ch.edge_vector_of(rails))

    def refuse(*args):
        raise AssertionError("a verdict-only call assembled a decomposition")

    monkeypatch.setattr(membership, "_assemble", refuse)
    sq = ch.parse_chain_text(ladder, SQUARES_Z)
    loop = ch.parse_chain_text(chords, ENDJUMP_LOOP)
    assert ch.homology_class(ladder, sq) == ch.edge_vector_of(sq)
    assert ch.homology_class(chords, loop) == ch.edge_vector_of(loop)
    assert ch.homologous(ladder, sq, ch.subdivide_to_passes(sq))
    assert ch.homologous(chords, loop, ch.parse_chain_text(chords, PASS_FAMILIES))
    assert ch.is_cycle_adhoc(ladder, sq) and ch.is_cycle_adhoc(chords, loop)
    assert not ch.is_cycle_adhoc(ladder, rails)
    with pytest.raises(NotACycle) as exc:
        ch.homology_class(ladder, rails)
    assert isinstance(cert, NonMember)
    assert (exc.value.cut, exc.value.cut_sum) == (cert.cut, cert.cut_sum)


def test_homologous(ladder, chords):
    sq = ch.parse_chain_text(ladder, SQUARES_Z)
    assert ch.homologous(ladder, sq, sq)
    assert ch.homologous(ladder, sq, ch.subdivide_to_passes(sq))
    loop = ch.parse_chain_text(chords, ENDJUMP_LOOP)
    fam = ch.parse_chain_text(chords, PASS_FAMILIES)
    assert ch.homologous(chords, loop, fam)


def test_not_homologous_when_vectors_differ(theta):
    a = ch.parse_chain_text(theta, "walk u left v mid u")
    b = ch.parse_chain_text(theta, "walk u left v right u")
    assert not ch.homologous(theta, a, b)


# --- degree zero and higher ------------------------------------------------

def test_h0_ranks(ladder, disjoint, three_parts, theta):
    assert ch.h0(ladder).describe() == "Z"
    assert ch.h0(disjoint).describe() == "Z^2"
    assert ch.h0(three_parts).rank == 3
    assert ch.h0(theta).rank == 1


def test_hn_trivial(ladder):
    for n in (2, 5, 100):
        got = ch.h_n_trivial(ladder, n)
        assert got.rank == 0 and got.describe() == "0"
    for n in (0, 1):
        with pytest.raises(BadDimension):
            ch.h_n_trivial(ladder, n)


# --- restriction -----------------------------------------------------------

def test_pair_text_round_trip(ladder):
    pair = ch.parse_pair_text(ladder, "delete top[0]\ndelete bot[0]\nkeep top[3]")
    assert ch.pair_to_text(pair) == "delete bot[0]\ndelete top[0]\nkeep top[3]"


def test_restrict_squares_to_positive_side(ladder):
    pair = ch.parse_pair_text(ladder, "delete top[0]\ndelete bot[0]\nkeep top[3]")
    res = ch.restrict_chain(ladder, pair, ch.parse_chain_text(ladder, SQUARES_Z))
    assert ch.chain_to_text(res) == (
        "periodic 1..inf { walk top[0] rail_top[0] top[1] rung[1] bot[1] "
        "rail_bot[0] bot[0] rung[0] top[0] }"
    )
    assert ch.check_admissible(ladder, res).ok


def test_restrict_rails(ladder):
    pair = ch.parse_pair_text(ladder, "delete top[0]\ndelete bot[0]\nkeep top[3]")
    res = ch.restrict_chain(ladder, pair, ch.parse_chain_text(ladder, RAILS))
    assert ch.chain_to_text(res) == "periodic 1..inf { pass rail_top[0] + }"


def test_restrict_drops_members_outside_kept_region(ladder):
    pair = ch.parse_pair_text(ladder, "delete top[0]\ndelete bot[0]\nkeep top[3]")
    inside = ch.parse_chain_text(ladder, "walk top[2] rail_top[2] top[3]")
    assert ch.chain_to_text(ch.restrict_chain(ladder, pair, inside)) == (
        "walk top[2] rail_top[2] top[3]"
    )
    for text in ("walk top[0] rail_top[0] top[1]",
                 "walk top[-3] rail_top[-3] top[-2]"):
        gone = ch.restrict_chain(ladder, pair, ch.parse_chain_text(ladder, text))
        assert ch.chain_to_text(gone) == ""


def test_restrict_keeps_finite_family_past_the_horizon(ladder):
    pair = ch.parse_pair_text(
        ladder, "delete top[11]\ndelete bot[11]\nkeep top[12]"
    )
    square = SQUARES[SQUARES.index("{"):]
    for given, kept in (
        ("coeff 2 periodic 5..37", "coeff 2 periodic 12..37"),
        ("periodic 40..60", "periodic 40..60"),
        ("periodic 30..inf", "periodic 30..inf"),
        ("periodic -inf..60", "periodic 12..60"),
    ):
        res = ch.restrict_chain(
            ladder, pair, ch.parse_chain_text(ladder, given + " " + square)
        )
        assert ch.chain_to_text(res) == kept + " " + square


def test_restrict_follows_ends_that_alternate_with_parity():
    # x and y alternate the classes, so a[0] and a[1] lie in different
    # components and the kept passes x[k] are those with k even, also past
    # the scan horizon
    g = graph_from_text(
        "graph twisted\nkind periodic-z\nvertex a\nvertex b\n"
        "edge x : a -> b[+1]\nedge y : b -> a[+1]\n"
    )
    pair = ch.parse_pair_text(g, "delete a[1]\nkeep a[0]")
    rep = ch.parse_chain_text(g, "periodic -inf..inf { pass x[0] + }")
    res = ch.restrict_chain(g, pair, rep)
    assert ch.chain_to_text(res).splitlines() == (
        ["pass x[%d] +" % k for k in range(-12, 13, 2)]
        + ["periodic 7..inf step 2 { pass x[0] + }",
           "periodic -inf..-7 step 2 { pass x[0] + }"]
    )
    assert ch.check_admissible(g, res).ok
    # a bounded family past the horizon keeps the passes on even x only
    for given, kept in (
        ("periodic 20..41 { pass x[0] + }", "periodic 10..20 step 2 { pass x[0] + }"),
        ("periodic 20..41 { pass x[1] + }", "periodic 10..20 step 2 { pass x[2] + }"),
    ):
        res = ch.restrict_chain(g, pair, ch.parse_chain_text(g, given))
        assert ch.chain_to_text(res) == kept


def test_restrict_scans_only_members_near_the_fence(ladder):
    # squares anchored at N whose members reach back to index 1: the scan
    # covers the members near the fence, so the cost does not follow N
    pair = ch.parse_pair_text(ladder, "delete top[0]\ndelete bot[0]\nkeep top[3]")
    for n in (10, 10**3, 10**5, 10**9):
        square = ("{ walk top[%d] rail_top[%d] top[%d] rung[%d] bot[%d] rail_bot[%d] "
                  "bot[%d] rung[%d] top[%d] }" % (n, n, n + 1, n + 1, n + 1, n, n, n, n))
        kept = "periodic %d..inf %s" % (1 - n, square)
        for lo in ("-inf", str(1 - n)):
            rep = ch.parse_chain_text(ladder, "periodic %s..inf %s" % (lo, square))
            t0 = time.perf_counter()
            res = ch.restrict_chain(ladder, pair, rep)
            spent = time.perf_counter() - t0
            assert ch.chain_to_text(res) == kept
            assert n < 10**5 or spent < 0.1


def test_restrict_settles_only_the_sides_the_graph_has(chords):
    # a periodic-n graph has no side toward -inf; a template without index
    # may still run there, and its members are all one simplex
    pair = ch.parse_pair_text(chords, "delete pos[3]\nkeep pos[5]")
    for text in ("coeff 0 periodic -inf..inf { const end+0 }",
                 "coeff 0 periodic -inf..3 { const end+0 }"):
        res = ch.restrict_chain(chords, pair, ch.parse_chain_text(chords, text))
        assert ch.chain_to_text(res) == text


def test_restrict_rejects_deleted_keep(ladder):
    pair = ch.parse_pair_text(ladder, "delete top[0]\nkeep top[0]")
    with pytest.raises(NotAdmissiblePair):
        ch.restrict_chain(ladder, pair, ch.parse_chain_text(ladder, SQUARES_Z))


def test_restrict_past_a_bounded_piece_beyond_the_fence():
    # the pieces q[n] - s[n+1] - t[n+2] are finite, so the window meets
    # pieces past its fence that belong to no end
    g = graph_from_text(PENDANT)
    pair = ch.parse_pair_text(g, "delete a[5]\nkeep a[0]")
    rep = ch.parse_chain_text(
        g, "walk a[0] aa[0] a[1]\nperiodic -inf..inf { pass st[0] + }"
    )
    assert ch.chain_to_text(ch.restrict_chain(g, pair, rep)) == (
        "walk a[0] aa[0] a[1]\nperiodic -inf..6 { pass st[0] + }"
    )


def test_restrict_end_jumps_and_constants(ladder):
    plus = "endjump top[0] repeat rail_top[0]+ ; top[0] rung[0]+ repeat rail_bot[0]+"
    minus = ("endjump top[0] repeat rail_top[-1]- ; "
             "top[0] rung[0]+ repeat rail_bot[-1]-")
    rep = ch.parse_chain_text(ladder, "\n".join([
        plus,
        minus,
        "endjump top[7] repeat rail_top[7]+ ; top[7] rung[7]+ repeat rail_bot[7]+",
        "const top[2]",
        "const top[9]",
        "periodic -20..-10 { %s }" % minus,
        "periodic 0..inf { %s }" % plus,
        "periodic 0..3 { const bot[0] }",
        # a constant at an end is admissible only with coefficient zero
        "coeff 0 const end-0",
        "coeff 0 const end+0",
    ]))
    kept = {
        "top[0]": [
            minus,
            "const top[2]",
            "coeff 0 const end-0",
            "periodic -20..-10 { %s }" % minus,
            "periodic 0..3 { const bot[0] }",
        ],
        "top[9]": [
            "endjump top[7] repeat rail_top[7]+ ; top[7] rung[7]+ repeat rail_bot[7]+",
            "const top[9]",
            "coeff 0 const end+0",
            "periodic 6..inf { %s }" % plus,
        ],
    }
    for keep, lines in kept.items():
        pair = ch.parse_pair_text(
            ladder, "delete top[5]\ndelete bot[5]\nkeep " + keep
        )
        res = ch.restrict_chain(ladder, pair, rep)
        assert ch.chain_to_text(res).splitlines() == lines


# --- families whose template stays put ---------------------------------------

def test_static_pass_families_close_the_four_loops(chords):
    rep = ch.parse_chain_text(chords, FOUR_LOOPS)
    finite = ch.parse_chain_text(
        chords, "coeff 4 pass neg_first +\ncoeff 4 pass pos_first +\n"
        "coeff 4 walk pos[0] chord[0] neg[0]")
    assert ch.boundary(rep).is_zero()
    assert ch.homology_class(chords, rep) == ch.homology_class(chords, finite)
    assert ch.edge_vector_of(rep) == parse_vector_text(
        chords, "set chord[0] = 4\nset neg_first = 4\nset pos_first = 4")


def test_static_walk_family_repeats_in_place(chords):
    rep = ch.parse_chain_text(chords, "periodic 0..3 { walk neg[0] neg_first origin }")
    assert ch.boundary(rep).to_text() == "neg[0] = -4\norigin = 4"
    back = ch.parse_chain_text(chords, "periodic 0..3 { walk origin neg_first neg[0] }")
    assert ch.boundary(back).to_text() == "neg[0] = 4\norigin = -4"
    forever = ch.parse_chain_text(chords, "periodic 0..inf { walk neg[0] neg_first origin }")
    with pytest.raises(NotAdmissible) as exc:
        ch.boundary(forever)
    assert exc.value.witness.label() == "neg[0]"


def test_static_walk_family_through_a_cap(triangle_caps):
    rep = ch.parse_chain_text(triangle_caps, "periodic 0..2 { walk v0 out cell[0] }")
    assert ch.boundary(rep).to_text() == "cell[0] = 3\nv0 = -3"
    sub = ch.subdivide_to_passes(rep)
    assert ch.boundary(sub) == ch.boundary(rep)
    assert ch.edge_vector_of(sub) == ch.edge_vector_of(rep)


def test_restrict_keeps_static_families_whole(chords):
    rep = ch.parse_chain_text(chords, FOUR_LOOPS)
    pair = ch.parse_pair_text(chords, "delete neg[2]\nkeep origin")
    res = ch.restrict_chain(chords, pair, rep)
    assert ch.chain_to_text(res) == ch.chain_to_text(rep)
    assert ch.homologous(chords, res, rep)


def test_admissibility_is_checked_once_per_call(monkeypatch, ladder):
    calls = []
    check = ch.check_admissible

    def counted(g, rep):
        calls.append(rep)
        return check(g, rep)

    monkeypatch.setattr(ch, "check_admissible", counted)
    square = ch.parse_chain_text(ladder, "walk top[0] rail_top[0] top[1] rung[1] bot[1] "
                                 "rail_bot[0] bot[0] rung[0] top[0]")
    ch.homology_class(ladder, square)
    assert len(calls) == 1
    ch.homologous(ladder, square, square)
    assert len(calls) == 3
    # the inadmissible part is reported before the open walk
    with pytest.raises(NotAdmissible):
        ch.homology_class(ladder, ch.parse_chain_text(ladder, "pass rung[0] +\nconst end+0"))
