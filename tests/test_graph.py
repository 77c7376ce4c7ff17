"""Graph text format and the periodic graph model."""

import gc
import re

import pytest

from endcycle import examples
from endcycle.graph import (
    KIND_FINITE,
    KIND_PERIODIC_N,
    KIND_PERIODIC_Z,
    Dart,
    EdgeId,
    EndId,
    Graph,
    Ray,
    VertexId,
    graph_from_text,
    parse_dart_label,
    parse_edge_label,
    parse_vertex_label,
    shift_id,
)
from endcycle.errors import (
    BadOffset,
    FormatError,
    InfiniteComponents,
    InternalError,
    LoopEdge,
    NotARay,
    UnknownEdge,
    UnknownEnd,
    UnknownVertex,
    UnknownVertexClass,
)
from endcycle.membership import _flow_cycles


def test_ladder_basics(ladder):
    assert ladder.spec.name == "ladder"
    assert ladder.kind == KIND_PERIODIC_Z
    assert sorted(ladder.spec.cell_classes) == ["bot", "top"]
    assert len(ladder.neighbors(parse_vertex_label("top[0]"))) == 3
    e = parse_edge_label("rung[2]")
    tail, head = ladder.endpoints(e)
    assert tail == VertexId("top", 2)
    assert head == VertexId("bot", 2)


def test_neighbors_and_shift(ladder):
    v = parse_vertex_label("top[0]")
    nb = {u.label() for _, u in ladder.neighbors(v)}
    assert nb == {"top[-1]", "top[1]", "bot[0]"}


def test_shift_computes_ids_only(chords):
    # pos_step[-1] is off the one-ended lattice: the circle checks, not the
    # shift, decide whether an edge exists
    assert shift_id(EdgeId("pos_step", -1), 1) == EdgeId("pos_step", 0)
    assert shift_id(EdgeId("pos_step", 0), -1) == EdgeId("pos_step", -1)
    with pytest.raises(UnknownEdge):
        chords.require_edge(EdgeId("pos_step", -1))


def test_truncate_counts(ladder):
    t = ladder.truncate(2)
    assert len(t.vertices) == 10
    assert len(t.edges) == 13
    assert len(t.boundary) == 4
    assert all(v in t.vertices for v in t.boundary)


def test_truncate_monotone(ladder):
    small = set(ladder.truncate(1).vertices)
    big = set(ladder.truncate(3).vertices)
    assert small < big


def test_end_counts(ladder, chords, single_ray, intro_plain, theta, disjoint):
    assert len(list(ladder.ends())) == 2
    assert len(list(chords.ends())) == 1
    assert len(list(single_ray.ends())) == 1
    assert len(list(intro_plain.ends())) == 2
    assert len(list(theta.ends())) == 0
    assert len(list(disjoint.ends())) == 2


def test_components(ladder, disjoint, three_parts, theta):
    assert len(ladder.components()) == 1
    assert len(disjoint.components()) == 2
    assert len(three_parts.components()) == 3
    comps = theta.components()
    assert len(comps) == 1 and comps[0].finite and comps[0].size == 2


def test_component_of_is_consistent(disjoint):
    top = parse_vertex_label("top[7]")
    bot = parse_vertex_label("bot[-2]")
    t0 = parse_vertex_label("t0")
    assert disjoint.component_of(top) == disjoint.component_of(bot)
    assert disjoint.component_of(top) != disjoint.component_of(t0)


# two interleaved double rays: a[n] -> b[n+1] -> a[n+2], so each end
# class alternates between the two vertex classes from cell to cell
TWISTED = """\
graph twisted
kind periodic-z
vertex a
vertex b
edge x : a -> b[+1]
edge y : b -> a[+1]
"""


def test_component_ends_match_half_spaces():
    g = graph_from_text(TWISTED)
    comps = g.components()
    assert len(comps) == 2
    for n in range(8, 14):
        v = VertexId("a", n)
        inside = [e for e in g.ends() if g.in_half_space(v, e, 5)]
        assert len(inside) == 1
        assert inside[0] in comps[g.component_of(v)].ends


def test_dropped_graph_is_freed_without_the_cycle_collector():
    gc.collect()
    gc.disable()
    try:
        g = examples.example_graph("double-ladder")
        g.component_of(VertexId("top", 10**6))
        del g
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_ray_end_and_half_space(double_ray):
    r = Ray(parse_vertex_label("node[0]"), (), (parse_dart_label("step[0]+"),), 1)
    end = double_ray.end_of_ray(r)
    assert end.label() == "end+0"
    assert double_ray.in_half_space(parse_vertex_label("node[9]"), end, 3)
    assert not double_ray.in_half_space(parse_vertex_label("node[-9]"), end, 3)


def test_walk_from(ladder):
    darts = (parse_dart_label("rail_top[0]+"), parse_dart_label("rung[1]+"))
    verts = ladder.walk_from(parse_vertex_label("top[0]"), darts)
    assert [v.label() for v in verts] == ["top[0]", "top[1]", "bot[1]"]


def test_walk_from_rejects_broken_chain(ladder):
    darts = (parse_dart_label("rail_top[0]+"), parse_dart_label("rail_top[5]+"))
    with pytest.raises(NotARay):
        ladder.walk_from(parse_vertex_label("top[0]"), darts)


def test_walk_validates_each_dart_once(monkeypatch, chords):
    # a valid walk reads every dart's ends off the edge-class table; only a
    # dart the table cannot place reaches require_edge, which names why
    calls = []
    check = Graph.require_edge
    monkeypatch.setattr(Graph, "require_edge", lambda g, e: calls.append(e) or check(g, e))
    darts = [parse_dart_label("pos_first+")]
    darts += [Dart(EdgeId("pos_step", i), True) for i in range(98)]
    darts.append(parse_dart_label("chord[98]+"))
    verts = chords.walk_from(VertexId("origin"), darts)
    assert len(darts) == 100 and verts[-1] == VertexId("neg", 98) and calls == []
    for label, message in (("spoke[0]+", "unknown edge class 'spoke'"),
                           ("pos_first[0]+", "edge 'pos_first' takes no index"),
                           ("pos_step+", "edge class 'pos_step' needs an index"),
                           ("pos_step[-1]+", "no edge pos_step[-1]")):
        with pytest.raises(UnknownEdge, match=r"^%s$" % re.escape(message)):
            chords.walk_from(VertexId("pos", 0), [parse_dart_label(label)])
    assert len(calls) == 4


def test_finite_graphs_have_no_rays(theta):
    with pytest.raises(NotARay):
        theta.check_ray(Ray(VertexId("u", None), (), (Dart(EdgeId("left", None), True),), 0))


def test_require_helpers(ladder):
    with pytest.raises(UnknownVertex):
        ladder.require_vertex(VertexId("origin", None))
    with pytest.raises(UnknownEdge):
        ladder.require_edge(EdgeId("spoke", 0))


def test_label_round_trips():
    for text in ("top[0]", "bot[-3]", "origin"):
        assert parse_vertex_label(text).label() == text
    assert parse_edge_label("rail_top[-2]").label() == "rail_top[-2]"
    d = parse_dart_label("rung[4]-")
    assert d.edge == EdgeId("rung", 4) and not d.forward


def test_ids_are_immutable_values(ladder):
    v = VertexId("a", 1)
    assert repr(v) == "VertexId(cls='a', index=1)"
    assert repr(Dart(EdgeId("rung", 4))) == (
        "Dart(edge=EdgeId(cls='rung', index=4), forward=True)")
    assert repr(EndId("+", 0)) == "EndId(direction='+', rank=0)"
    assert str(v) == "a[1]" and str(VertexId("origin")) == "origin"
    for a, b in ((v, VertexId("a", 1)), (Dart(EdgeId("e", 2), False),
                                         Dart(EdgeId("e", 2), False)),
                 (EndId("-", 3), EndId.parse("end-3"))):
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    for obj, field in ((v, "index"), (EdgeId("e", 0), "cls"),
                       (Dart(EdgeId("e", 0)), "forward"), (EndId("+", 0), "rank")):
        with pytest.raises(AttributeError):
            setattr(obj, field, None)
    d = parse_dart_label("rung[4]-")
    assert d.reverse().reverse() == d and d.reverse().label() == "rung[4]+"
    for text in ("end+0", "end-12"):
        assert str(EndId.parse(text)) == text
    # messages that name an id format it as one value, not as its fields
    with pytest.raises(UnknownEnd, match=r"^graph has no end end\+5$"):
        ladder.require_end(EndId("+", 5))
    with pytest.raises(InternalError, match=r"flow stalled at VertexId\(cls='b', index=1\)"):
        _flow_cycles([v], {"x": (v, VertexId("b", 1))}, {"x": 1})


# --- parse failures -------------------------------------------------------

def test_missing_graph_line():
    with pytest.raises(FormatError, match="missing graph line"):
        graph_from_text("kind finite\nvertex a\n")


def test_bad_kind():
    with pytest.raises(FormatError, match="line 2"):
        graph_from_text("graph g\nkind sometimes\nvertex a\n")


def test_loop_edge_rejected():
    with pytest.raises(LoopEdge):
        graph_from_text("graph g\nkind periodic-z\nvertex a\nedge e : a -> a\n")


def test_unknown_endpoint_class():
    with pytest.raises(UnknownVertexClass):
        graph_from_text("graph g\nkind periodic-z\nvertex a\nedge e : a -> b[+1]\n")


def test_bad_endpoint_syntax():
    # cell endpoints need brackets, a bare offset is not accepted
    with pytest.raises(FormatError, match="bad endpoint"):
        graph_from_text("graph g\nkind periodic-z\nvertex a\nedge e : a -> a+1\n")


def test_duplicate_edge_name():
    with pytest.raises(FormatError, match="duplicate name"):
        graph_from_text(
            "graph g\nkind periodic-z\nvertex a\n"
            "edge e : a -> a[+1]\nedge e : a -> a[+2]\n"
        )


def test_isolated_cell_class_rejected():
    # a cell class with no attachment toward the center would repeat forever
    with pytest.raises(InfiniteComponents):
        graph_from_text(
            "graph g\nkind periodic-z\nvertex a\nvertex b\nedge e : a -> a[+1]\n"
        )


def test_finite_kind_takes_no_indices():
    # finite vertices behave like caps, so an index is an offset error
    with pytest.raises(BadOffset):
        graph_from_text(
            "graph g\nkind finite\nvertex a\nvertex b\nedge e : a -> b[+1]\n"
        )
