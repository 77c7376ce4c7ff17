"""Cycle-space membership with checkable certificates.

decompose() either writes a vector as an explicit thin sum of circles or
raises NotInCycleSpace carrying a violated finite cut. The pipeline:

  1. Every vertex star must sum to zero. A star's sum changes only where
     an incident edge's value changes or a static edge attaches, so the
     caps plus, per cell class, the first vertex of each run between such
     indices settle every star of the window. The vector hands out the
     indices where its values change (EdgeVector.breakpoints), and the
     graph's incidence table lists, per cell class, the incident cell edge
     classes with their offsets and, per vertex a static edge meets, those
     edges. A probed star is summed off the table with one lookup in the
     vector's value runs per incident class, so the cost grows with the
     number of changes, not with the stored entries or the size of the
     indices.
  2. The flux toward each end must vanish (a half-space cut; by step 1 its
     value does not depend on the radius). It is read off crossing counts
     per edge class, taken once per graph, times the tail values; the cut
     itself is built only when the flux is nonzero.
  3. The input is peeled run by run. The runs lie between its changes: the
     two outer ones are unbounded and hold the tails, and the inner ones
     longer than the anchor margin hold constant values. On every run the
     values form a circulation on the quotient multigraph whose nodes are
     the vertex classes, peeled into simple quotient cycles. Drift-free
     cycles lift to circuit templates, repeated over a shift range: a - tail
     family ends at the input's first change, a + family starts the
     template's length before the last but not before the first, and an
     inner family holds the members wholly inside its run. Drifting cycles
     are grouped per quotient component. A group of total drift zero is
     stitched into a drift-free composite circuit via each class's road to
     its component's hub class, or, when that one does not lay out, into
     one composite per zero-drift subgroup. On an outer run a group may
     instead go to the end stage as explicit rays (strands), one per residue
     class of the drift, anchored the anchor margin past the input's last
     change (+) or below its first (-), so shifting the input shifts them.
     A cycle or group mirrored on both outer runs couples them: it first
     tries one two-sided family, a group only when its composite is no
     longer than its strands joined across the gap between the two anchors.
     Otherwise a group becomes strands when its flux sum(w * |d|) (the unit
     ray stubs strands carry) is at most sum(w) / gcd(w) (the unit cycle
     passes a composite stitches), or when it does not stitch; a group whose
     strands' rays would share an edge is composed instead when it
     stitches. The choice is made per group before anything is taken off,
     so one pass is built. All of it is taken off one breakpoint
     accumulator of the input.
  4. What remains is a finite conservative flow plus ray stubs into ends;
     its cycle decomposition yields finite circuits and end circles. An end
     circle's rays are pulled back by the whole periods its middle walk
     repeats, so the middle holds only the walk through the data.

What depends on the graph alone is taken once per graph and kept on it,
read off the quotient: the crossing counts of step 2, from the end of the
piece of each crossing edge's deeper end (no cut is enumerated), and the
quotient multigraph of step 3 (class components, sorted classes, arcs and
arc lists per class, and each class's road to its hub), from the graph's
breadth-first spanning forest, whose tree paths are lifted once. So a
first decision on a graph costs about what later ones do. A decision
builds only what its input uses: a side without tails lays out nothing, a
group's strands are lifted only when they are kept or their rays must be
tested, and the values of inner runs are read only when there is one.

Steps 1 and 2 (_obstruct) are the only obstructions: when both pass, the
construction succeeds. It would raise InternalError only if a group whose
rays share an edge did not stitch, and the self-check then refused the
overlapping end circle, which no known input does. So
chains.homology_class, which needs only the verdict, runs steps 1 and 2
alone; a property test pins that this verdict is is_member's. Cycles are
lifted and stitched at offset 0 on every kind of lattice; shifting computes
ids only, so a dart that passes below index 0 on a one-ended lattice before
its circuit is normalized raises nothing. Darts are validated in one place:
a built result must be well formed and its counts, settled by the counter
that chain counts use too, must sum to the input exactly before it is
returned (_decomposition_holds)."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from . import cuts
from .circles import (
    CircleDecomposition,
    CircuitFamily,
    EndCircle,
    FiniteCircuit,
    RaySegment,
    decomposition_from_json,
    decomposition_to_json,
)
from .errors import (
    FormatError,
    GraphMismatch,
    InternalError,
    NotARay,
    NotInCycleSpace,
    UnknownEdge,
    UnknownVertex,
)
from .graph import (
    KIND_PERIODIC_N,
    Dart,
    EdgeId,
    Ray,
    VertexId,
    edge_key,
    first_shared,
    json_int,
    shift_id,
    vertex_key,
)
# thin_sum is not called here; perfbench/harness.py traces it by this name
from .vectors import EdgeVector, _Breakpoints, thin_sum  # noqa: F401

_COMPOSITE_LEN_CAP = 2000


@dataclass(frozen=True)
class Member:
    decomposition: CircleDecomposition


@dataclass(frozen=True)
class NonMember:
    cut: object
    cut_sum: int


def is_member(g, vec: EdgeVector):
    """Decide membership in the cycle space; always returns a certificate."""
    try:
        return Member(decompose(g, vec))
    except NotInCycleSpace as ex:
        return NonMember(ex.cut, ex.cut_sum)


def decompose(g, vec: EdgeVector) -> CircleDecomposition:
    """Write vec as a thin sum of circles, or raise NotInCycleSpace. One
    assembly pass is built and self-checked; a failed self-check is an
    InternalError, never the error class that the check itself raised."""
    if vec.graph.spec is not g.spec and vec.graph.spec != g.spec:
        raise GraphMismatch("vector belongs to a different graph")
    _obstruct(g, vec)
    dec = _assemble(g, vec)
    if not _decomposition_holds(g, vec, dec):
        raise InternalError("decomposition failed its self-check")
    return dec


def _assemble(g, vec):
    """The one pipeline pass, not yet self-checked: the runs are peeled
    once, and the finite stage closes what is left."""
    entries, strands, resid = _peel_runs(g, vec)
    return CircleDecomposition(tuple(entries + _finish_finite(g, resid, strands)))


# -- steps 1 and 2: the obstructions ----------------------------------------


def _depth(g, vec):
    """The depth past the data and r0 + D that the cut criterion checks."""
    return max(vec.support_bound(), g.stabilization_radius) + g.D + 1


def _obstruct(g, vec):
    """Raise NotInCycleSpace at the first violated star or end flux."""
    deep = _depth(g, vec)
    _check_stars(g, vec, deep)
    _check_end_flux(g, vec, deep + 1)


def _check_stars(g, vec, bound):
    """Raise at the first vertex, in vertex_key order, of the caps and the
    cells in [-bound-1, bound+1] whose star does not sum to zero.

    A cell star's sum changes only where the value of an incident edge
    changes, where a static edge meets the cell, or, on a one-ended
    lattice, where incident edges begin. Per cell class those indices and
    the window start cut the window into runs of equal star sums; probing
    the first vertex of each run finds the same first vertex and sum as
    probing every vertex. Both the probes and the sums are read off the
    graph's incidence table (_star_sum)."""
    lo = 0 if g.kind == KIND_PERIODIC_N else -bound - 1
    hi = bound + 1
    moves = vec.breakpoints()
    probes = {c: {lo} for c in g.cell_classes}
    for c, rows in g.cell_incidence.items():
        for name, pos, _sign in rows:
            probes[c].update(n + pos for n in moves.get(name, ()))
            if g.kind == KIND_PERIODIC_N:
                probes[c].add(pos)
    for v in g.static_incidence:
        if v.index is not None:
            probes[v.cls].update((v.index, v.index + 1))
    verts = list(g.cap_vertices())
    for c, points in probes.items():
        verts.extend(VertexId(c, n) for n in points if lo <= n <= hi)
    for v in sorted(verts, key=vertex_key):
        s = _star_sum(g, vec, v)
        if s != 0:
            raise NotInCycleSpace(cuts.star_cut(v), s)


def _star_sum(g, vec, v):
    """vec summed over the darts leaving the vertex v, read off the graph's
    incidence table: one run lookup per incident cell edge class, plus the
    values of the static edges at v. On a one-ended lattice the runs read 0
    below index 0, where the instances a cell would meet do not exist."""
    s = 0
    for name, sign in g.static_incidence.get(v, ()):
        s += sign * vec.value_at(name, None)
    if v.index is not None:
        for name, pos, sign in g.cell_incidence[v.cls]:
            s += sign * vec.value_at(name, v.index - pos)
    return s


def _check_end_flux(g, vec, radius):
    for e, counts in _flux_counts(g).items():
        flux = 0
        for name, k in counts.items():
            tl = vec.tail_of(name, e.direction)
            flux += k * tl[1] if tl else 0
        if flux:
            cut = cuts.HalfSpaceCut((e,), radius)
            raise NotInCycleSpace(cut, cuts.cut_sum(g, cut, vec))


def _flux_counts(g):
    """Per end, the crossing darts of its half-space cut at R = r0 + D + 2
    summed per edge class, +1 out of the half space and -1 into it; taken
    once per graph. decompose cuts at radius >= R, past the data, where
    every crossing edge carries its tail value. The tails alone have a zero
    star at every vertex past r0 (step 1), so their cut sum is the same at
    R and at radius: the flux is these counts times the tails. A class of
    span s crosses R with its deeper end at depths 0 .. s-1 past R, and
    that vertex's piece past R names the end whose half space holds it, if
    any (Graph._end_past); no cut is enumerated."""
    if g._flux_counts is None:
        R = g.stabilization_radius + g.D + 2
        counts = g._flux_counts = {e: {} for e in g.ends()}
        for direction in g.directions():
            sign = 1 if direction == "+" else -1
            for ec in g.cell_edge_classes:
                tail_deeper = sign * (ec.tail_pos - ec.head_pos) > 0
                cls = ec.tail_cls if tail_deeper else ec.head_cls
                for d in range(ec.span):
                    end = g._end_past(VertexId(cls, sign * (R + 1 + d)), R)
                    if end is not None:
                        row = counts[end]
                        row[ec.name] = row.get(ec.name, 0) + (1 if tail_deeper else -1)
    return g._flux_counts


# -- quotient circulation ----------------------------------------------------


def _tail_circulation(g, vec, direction):
    out = {}
    for ec in g.cell_edge_classes:
        tl = vec.tail_of(ec.name, direction)
        if tl is not None and tl[1]:
            out[ec.name] = tl[1]
    return out


def _quotient(g):
    """The quotient multigraph, taken once per graph: each cell class mapped
    to the smallest class name of its component (the component's hub), the
    classes sorted, the arcs name -> (tail class, head class), the arcs out
    of and into each class in name order (_arc_lists), and each class's road
    (darts, road_off) from (class, 0) to (hub, road_off). The graph's
    breadth-first spanning forest (Graph._lift_quotient) gives the
    components and the roads, each a tree path lifted once: a lift ends at
    the sum of its arcs' offsets (the voltage-graph lift of Gross &
    Tucker)."""
    if g._quotient is None:
        steps, roads = {}, {}
        for cls in g._hub:  # breadth first: a parent comes first
            step = g._tree_step.get(cls)
            if step is None:
                steps[cls], roads[cls] = [], ((), 0)
                continue
            ec = g.edge_classes[step[0]]
            steps[cls] = [step] + steps[ec.head_cls if step[1] else ec.tail_cls]
            darts, _s, end = _lift_cycle(g, steps[cls])
            roads[cls] = tuple(darts), end.index
        arcs = {ec.name: (ec.tail_cls, ec.head_cls) for ec in g.cell_edge_classes}
        g._quotient = g._hub, sorted(g.cell_classes), arcs, _arc_lists(arcs), roads
    return g._quotient


def _arc_lists(arcs, order=None):
    """The arcs out of and into each node, in the key order given."""
    by_tail, by_head = {}, {}
    for key in sorted(arcs, key=order):
        t, h = arcs[key]
        by_tail.setdefault(t, []).append(key)
        by_head.setdefault(h, []).append(key)
    return by_tail, by_head


def _walk_cycles(nodes, arcs, lists, weight):
    """Greedy decomposition of a conservative integer flow into node-simple
    cycles. arcs: key -> (tail, head); nodes must come pre-ordered; lists are
    the arcs by tail and by head (_arc_lists), built once per graph for the
    quotient, in the finite stage's one pass over its arcs. Returns a list of
    (weight > 0, steps) with steps a tuple of (key, forward)."""
    w = {k: v for k, v in weight.items() if v}
    by_tail, by_head = lists

    # an arc keeps the sign of its weight until it empties, and the arcs on
    # a node-simple walk never leave its current node, so the remaining
    # weight alone decides which arc is usable
    def step_from(node):
        for key in by_tail.get(node, ()):
            if w.get(key, 0) > 0:
                return key, True
        for key in by_head.get(node, ()):
            if w.get(key, 0) < 0:
                return key, False
        return None

    out = []
    for start in nodes:
        if step_from(start) is None:
            continue
        path = []
        seen = {start: 0}
        node = start
        while True:
            nxt = step_from(node)
            if nxt is None:
                if node == start and not path:
                    break
                raise InternalError(
                    "flow stalled at %r; conservation was violated" % (node,)
                )
            key, fwd = nxt
            t, h = arcs[key]
            node = h if fwd else t
            path.append((key, fwd))
            if node in seen:
                i = seen[node]
                cyc = path[i:]
                m = min(w[k] if f else -w[k] for k, f in cyc)
                for k, f in cyc:
                    w[k] -= m if f else -m
                out.append((m, tuple(cyc)))
                del path[i:]
                for n in list(seen):
                    if seen[n] > i:
                        del seen[n]
            else:
                seen[node] = len(path)
    return out


def _cycle_drift(g, steps):
    d = 0
    for name, fwd in steps:
        ec = g.edge_classes[name]
        d += (ec.head_pos - ec.tail_pos) if fwd else (ec.tail_pos - ec.head_pos)
    return d


def _canonical(steps):
    best = None
    for i in range(len(steps)):
        rot = steps[i:] + steps[:i]
        if best is None or rot < best:
            best = rot
    return best


def _lift_cycle(g, steps, start_offset=0):
    """Darts of one pass of a quotient cycle (or path), starting at the
    tail-side class of the first step placed at start_offset. Returns
    (darts, start vertex, end vertex)."""
    name0, fwd0 = steps[0]
    ec0 = g.edge_classes[name0]
    cls = ec0.tail_cls if fwd0 else ec0.head_cls
    off = start_offset
    start = VertexId(cls, off)
    darts = []
    for name, fwd in steps:
        ec = g.edge_classes[name]
        if fwd:
            if ec.tail_cls != cls:
                raise InternalError("quotient cycle does not chain")
            base = off - ec.tail_pos
            darts.append(Dart(EdgeId(name, base), True))
            cls, off = ec.head_cls, base + ec.head_pos
        else:
            if ec.head_cls != cls:
                raise InternalError("quotient cycle does not chain")
            base = off - ec.head_pos
            darts.append(Dart(EdgeId(name, base), False))
            cls, off = ec.tail_cls, base + ec.tail_pos
    return darts, start, VertexId(cls, off)


def _normalized_template(g, darts):
    """The circuit of darts shifted so that its smallest edge index is 0."""
    mn = min(d.edge.index for d in darts)
    return FiniteCircuit(tuple(shift_id(d, -mn) for d in darts))


def _anchor_margin(g):
    """How far past the data strands start; an inner run longer than this
    is peeled (_peel_runs)."""
    return (len(g.spec.cell_classes) + 1) * g.W + 5


def _reduce_backtracks(darts):
    stack = []
    for d in darts:
        if stack and stack[-1] == d.reverse():
            stack.pop()
        else:
            stack.append(d)
    while len(stack) >= 2 and stack[0] == stack[-1].reverse():
        stack = stack[1:-1]
    return stack


def _stacked_order(copies):
    """Keep copies of one cycle consecutive, so each lands at a fresh
    offset; positive drifts first, then the negatives ride back down."""
    pending = sorted(copies)
    order = [c for c in pending if c[0] > 0]
    order += [c for c in pending if c[0] < 0]
    return order, sum(d for d, _s in order)


def _build_composite(g, copies):
    """Stitch unit-weight drifting cycles (total drift zero) into one closed
    drift-free circuit via each cycle class's road to its component's hub
    class (_quotient), laid out once from the hub at offset 0 in
    _stacked_order. Returns the dart list, or None when that layout is not
    edge-injective; _compose then stitches the group per zero-drift
    subgroup."""
    order, acc = _stacked_order(copies)
    if acc != 0:
        raise InternalError("drifting cycles do not balance")
    return _assemble_composite(g, order, _quotient(g)[4])


def _assemble_composite(g, order, roads):
    darts = []
    off = 0
    for delta, steps in order:
        road, road_off = roads[_cycle_class(g, steps)]
        # hub at `off` down to the cycle class at `at`, one pass, and back up
        at = off - road_off
        inbound = [d.reverse() for d in reversed(road)]
        darts.extend(shift_id(d, at) for d in inbound)
        lifted, _s, _e = _lift_cycle(g, steps, at)
        darts.extend(lifted)
        darts.extend(shift_id(d, at + delta) for d in road)
        off += delta
    darts = _reduce_backtracks(darts)
    if not darts or len(darts) > _COMPOSITE_LEN_CAP:
        return None
    edges = [d.edge for d in darts]
    if len(set(edges)) != len(edges):
        return None
    return darts


def _cycle_class(g, steps):
    name, fwd = steps[0]
    ec = g.edge_classes[name]
    return ec.tail_cls if fwd else ec.head_cls


def _peel(acc, entries, coeff, template, lo, hi):
    """Record coeff times the template over [lo, hi]; take it off acc."""
    entries.append((coeff, CircuitFamily(template, lo, hi)))
    _take_off(acc, coeff, template.darts, lo, hi)


def _take_off(acc, coeff, darts, lo, hi):
    """Subtract from acc coeff times the darts shifted over [lo, hi]."""
    acc.family(((d.edge.cls, d.edge.index, 1 if d.forward else -1) for d in darts),
               -coeff, lo, hi)


def _quotient_layout(g, tau):
    """A run's quotient circulation as its flat templates, {canonical steps:
    (merged weight, normalized template)}, and its drifting cycles per
    component, sorted (weight, drift, canonical steps)."""
    flat, drifting = {}, {}
    if not tau:
        return flat, drifting
    comp_of, classes, arcs, lists, _roads = _quotient(g)
    for wgt, steps in _walk_cycles(classes, arcs, lists, tau):
        key = _canonical(steps)
        d = _cycle_drift(g, steps)
        if d:
            drifting.setdefault(comp_of[_cycle_class(g, steps)], []).append((wgt, d, key))
        else:
            template = _normalized_template(g, _lift_cycle(g, key)[0])
            flat[key] = (flat.get(key, (0,))[0] + wgt, template)
    return flat, {comp: tuple(sorted(group)) for comp, group in drifting.items()}


def _peel_runs(g, vec):
    """Take the input off run by run as circuit families and strands; return
    (entries, strand list, finite residue). The runs lie between the input's
    changes (or 0 alone): the two outer ones are unbounded and hold the
    tails, and the inner ones longer than the anchor margin hold constant
    values. On every run the values form a quotient circulation
    (_quotient_layout): its flat cycles become families and its drifting
    groups composites (_compose), placed by _span. A flat cycle or drifting
    group mirrored on both outer runs couples them: it is taken off as one
    two-sided family. Otherwise a drifting group on an outer run becomes
    strands, anchored the anchor margin past the input's changes, unless
    the rule composes it, or its strands' rays would share an edge
    (_rays_meet), and it stitches. All of it is taken off one accumulator of
    the input, the outer runs first."""
    cuts = sorted({i for points in vec.breakpoints().values() for i in points}) or [0]
    margin = _anchor_margin(g)
    inner = [(a, b) for a, b in zip(cuts, cuts[1:]) if b - a > margin]
    if not vec.tails and not inner:
        return [], [], vec
    entries = []
    strands = []  # (weight, Ray, start VertexId, EndId)
    acc = _Breakpoints(g)
    acc.add(vec)
    composed = {}  # a mirrored pair is composed once

    def composite(group):
        if group not in composed:
            composed[group] = _compose(g, group)
        return composed[group]

    def peel(built, run):
        for coeff, template in built:
            bounds = _span(cuts, run, template)
            if bounds is not None:
                _peel(acc, entries, coeff, template, *bounds)

    (plus_flat, plus_drift), (minus_flat, minus_drift) = (
        _quotient_layout(g, _tail_circulation(g, vec, d)) for d in "+-")
    for key in sorted(set(plus_flat) | set(minus_flat)):
        wp, template = plus_flat.get(key) or (0, minus_flat[key][1])
        wm = minus_flat.get(key, (0,))[0]
        both = min(wp, wm)
        for wgt, run in ((both, 0), (wp - both, 1), (wm - both, -1)):
            if wgt:
                peel([(wgt, template)], run)

    anchors = {1: cuts[-1] + margin, -1: cuts[0] - margin}
    for comp in sorted(set(plus_drift) | set(minus_drift)):
        cp, cm = plus_drift.get(comp, ()), minus_drift.get(comp, ())
        if cp == cm and _fits_between_anchors(cp, anchors[1] - anchors[-1]) and composite(cp):
            peel(composite(cp), 0)
            continue
        for sign, group in ((1, cp), (-1, cm)):
            if not group:
                continue
            # the strands are lifted only to be kept or to test their rays
            built = _composite_is_smaller(group) and composite(group)
            if not built:
                lifted = _lift_strands(g, group, sign, anchors[sign])
                built = _rays_meet(lifted) and composite(group)
            if built:
                peel(built, sign)
                continue
            outward = (0, None) if sign > 0 else (None, 0)
            for wgt, darts, rays in lifted:
                _take_off(acc, wgt, darts, *outward)
                strands.extend((wgt, ray, ray.start, g.end_of_ray(ray)) for ray in rays)

    # the inner runs: the tails' families and strands are constant there, so
    # the residue is too, and as b - a > 2W the stars W inside both ends lie
    # in the run: unless static edges attach to all of them, its values
    # form a quotient circulation
    mid = acc.vector() if inner else None
    for a, b in inner:
        tau = {ec.name: v for ec in g.cell_edge_classes if (v := mid.value_at(ec.name, a))}
        if not tau or not _conserves(g, tau):
            continue
        flat, drifting = _quotient_layout(g, tau)
        peel([flat[key] for key in sorted(flat)], (a, b))
        for _comp, group in sorted(drifting.items()):
            peel(_compose(g, group) or [], (a, b))
    resid = acc.vector()
    if resid.tails:
        raise InternalError("tails survived the peeling stage")
    return entries, strands, resid


def _span(cuts, run, template):
    """(lo, hi) of the template's family on a run, or None when no member
    fits. run is 0 for both outer runs, 1 or -1 for one of them and (a, b)
    for the inner run [a, b). A one-sided family is whole past the input's
    changes: a - family ends at the first change; a + family starts the
    template's length before the last, but not before the first, so it
    meets no - family and, on periodic-n, no index below 0. An inner family
    holds the members wholly inside its run, kept if they span at least a
    member's length."""
    L = max(d.edge.index for d in template.darts)
    if run in (0, 1, -1):
        return {0: (None, None), 1: (max(cuts[-1] - L, cuts[0]), None),
                -1: (None, cuts[0] - 1)}[run]
    a, b = run
    return (a, b - 1 - L) if b - 1 - L - a >= L else None


def _conserves(g, tau):
    """Whether quotient values sum to zero at every vertex class."""
    net = dict.fromkeys(g.cell_classes, 0)
    for name, v in tau.items():
        net[g.edge_classes[name].tail_cls] += v
        net[g.edge_classes[name].head_cls] -= v
    return not any(net.values())


def _passes(group):
    """The unit cycle passes of the group's one composite, sum(w) / gcd(w)."""
    weights = [wgt for wgt, _d, _s in group]
    return sum(weights) // math.gcd(*weights)


def _composite_is_smaller(group):
    """Whether stitching the group's cycles into one composite beats closing
    them as strands: strands carry sum(w * |d|) unit ray stubs, the
    composite _passes(group) unit cycle passes."""
    return sum(wgt * abs(delta) for wgt, delta, _s in group) > _passes(group)


def _fits_between_anchors(group, gap):
    """Whether a mirrored group's two-sided composite, _passes(group) passes
    of its shortest cycle, is no longer than its strands: sum(|d|) rays per
    side, each joined to its mirror across the gap between anchors."""
    rays = sum(abs(delta) for _w, delta, _s in group)
    return _passes(group) * min(len(s) for _w, _d, s in group) <= rays * gap


def _compose(g, group):
    """A drifting group as drift-free composites, [(coeff, template)], or
    None when it does not stitch whole. It stitches whole when its drift is
    zero and either one composite lays out (_try_composite) or it splits into
    zero-drift subgroups that each lay out: the first zero-drift sub-multiset
    of the weights that lays out is taken, and the rest is stitched alike.
    Only groups with at most _COMPOSITE_LEN_CAP sub-multisets are split."""
    if sum(wgt * delta for wgt, delta, _s in group):
        return None
    whole = _try_composite(g, group)
    if whole is not None:
        return [whole]
    weights = tuple(wgt for wgt, _d, _s in group)
    if math.prod(w + 1 for w in weights) > _COMPOSITE_LEN_CAP:
        return None
    for take in itertools.product(*(range(w + 1) for w in weights)):
        sub = [(t, delta, steps) for t, (_w, delta, steps) in zip(take, group) if t]
        if not sub or take == weights or sum(t * delta for t, delta, _s in sub):
            continue
        built = _try_composite(g, sub)
        if built is not None:
            rest = [(w - t, delta, steps) for t, (w, delta, steps) in zip(take, group) if w > t]
            more = _compose(g, rest)
            return None if more is None else [built] + more
    return None


def _try_composite(g, group):
    """Common weight times one stitched drift-free template, or None. A
    group whose _passes(group) unit passes of its shortest cycle already
    exceed _COMPOSITE_LEN_CAP is refused before any copy is made."""
    if _passes(group) * min(len(s) for _w, _d, s in group) > _COMPOSITE_LEN_CAP:
        return None
    shared = math.gcd(*(wgt for wgt, _d, _s in group))
    copies = [(delta, steps) for wgt, delta, steps in group for _ in range(wgt // shared)]
    darts = _build_composite(g, copies)
    if darts is None:
        return None
    return shared, _normalized_template(g, darts)


def _lift_strands(g, group, sign, anchor):
    """Each drifting quotient cycle of the group, turned to run outward, as
    (weight, its pass lifted at the anchor, its |drift| rays from the anchor
    and the next shifts outward). The caller takes the pass's group sum (a
    one-period path family) off the residue; _cycle_to_piece pulls the rays
    back along the walks that join them to the data."""
    out = []
    for wgt, delta, steps in sorted(group):
        if (delta > 0) != (sign > 0):
            steps = [(n, not f) for n, f in reversed(steps)]
            delta, wgt = -delta, -wgt
        lifted, s_v, _e = _lift_cycle(g, steps, anchor)
        ray = Ray(s_v, (), tuple(lifted), delta)
        out.append((wgt, lifted, [shift_id(ray, r * sign) for r in range(abs(delta))]))
    return out


def _rays_meet(lifted):
    """Whether two of one group's lifted rays share an edge, tested by
    residues (graph.first_shared) as EndCircle.check tests a circle's rays.
    A cycle's own rays lie on distinct residues of its drift, rays of other
    components use other edge classes, and the other side's rays lie past
    the other anchor, so only rays of two cycles of one group on one side
    can meet."""
    lines = [(*d.edge, ray.shift) for _w, _l, rays in lifted for ray in rays for d in ray.repeat]
    return first_shared((), lines) is not None


# -- the finite stage --------------------------------------------------------


def _finish_finite(g, resid, strands):
    """Close the residue and the strands' ray stubs into finite circuits and
    end circles. Arcs are keyed by EdgeId and by strand index, and one pass
    lists them per node (edges in edge_key order, then the strands) and sums
    each node's net flow. The flow must conserve: otherwise the first node
    that does not balance, vertices in vertex_key order before ends, is
    named in an InternalError, a pipeline bug."""
    arcs, weight, net, by_tail, by_head = {}, {}, {}, {}, {}
    edges = ((e, g.endpoints(e), resid.vals[e]) for e in sorted(resid.vals, key=edge_key))
    stubs = ((i, (start, end), wgt) for i, (wgt, _ray, start, end) in enumerate(strands))
    for key, (t, h), w in itertools.chain(edges, stubs):
        arcs[key] = (t, h)
        weight[key] = w
        net[t] = net.get(t, 0) + w
        net[h] = net.get(h, 0) - w
        by_tail.setdefault(t, []).append(key)
        by_head.setdefault(h, []).append(key)
    ends = {end for _w, _r, _s, end in strands}
    nodes = sorted(net.keys() - ends, key=vertex_key) + sorted(ends)
    bad = next((n for n in nodes if net[n]), None)
    if bad in ends:
        raise InternalError("ray stubs into %s do not balance" % (bad,))
    if bad is not None:
        raise InternalError("finite stage is not conservative at %s" % bad.label())
    return [(m, _cycle_to_piece(arcs, strands, ends, steps))
            for m, steps in _walk_cycles(nodes, arcs, (by_tail, by_head), weight)]


def _cycle_to_piece(arcs, strands, ends, steps):
    """A cycle of the finite stage as a piece. Only strand arcs meet an end,
    so a cycle through no end is a finite circuit of edge darts, and one
    through ends alternates a strand out of an end, edge darts, and a strand
    into the next end."""
    node_seq = [arcs[key][1 if fwd else 0] for key, fwd in steps]
    virt = [i for i, n in enumerate(node_seq) if n in ends]
    if not virt:
        return FiniteCircuit(tuple(Dart(key, fwd) for key, fwd in steps))
    if len(virt) != len(set(node_seq[i] for i in virt)):
        raise InternalError("a circle would pass twice through one end")
    # rotate so the walk begins just after a visit to an end
    k = virt[0] + 1
    steps = steps[k:] + steps[:k]
    node_seq = node_seq[k:] + node_seq[:k]
    segments = []
    back_ray = None
    middle = []
    for (key, fwd), node in zip(steps, node_seq):
        if node in ends:
            segments.append(_pulled_back(back_ray, middle, strands[key][1]))
            middle = []
            back_ray = None
        elif back_ray is None:
            back_ray = strands[key][1]
        else:
            middle.append(Dart(key, fwd))
    return EndCircle(tuple(segments))


def _pulled_back(back, middle, fwd):
    """The segment with each ray pulled back by the whole periods that the
    middle walk holds next to its start: the forward ray's previous periods
    end the walk, the back ray's, reversed, begin it. The darts move from
    the walk into the rays, so edges and counts stay as they are."""
    n = _periods_behind(fwd, reversed(middle), False)
    middle = middle[:len(middle) - n * len(fwd.repeat)]
    m = _periods_behind(back, middle, True)
    return RaySegment(shift_id(back, -m * back.shift), tuple(middle[m * len(back.repeat):]),
                      shift_id(fwd, -n * fwd.shift))


def _periods_behind(ray, darts, flip):
    """How many whole periods of a ray without lead-in the darts repeat,
    read backward from its start: dart i must be the ray's i-th dart before
    its start (reversed when flip)."""
    if ray.initial:
        return 0
    p = len(ray.repeat)
    i = 0
    for d in darts:
        q, j = divmod(i, p)
        want = shift_id(ray.repeat[p - 1 - j], -(q + 1) * ray.shift)
        if d != (want.reverse() if flip else want):
            break
        i += 1
    return i // p


# -- verification ------------------------------------------------------------


def _values_agree(g, vec, dec) -> bool:
    """Whether dec sums to vec: its counts (CircleDecomposition.counts),
    settled into one vector, equal vec exactly. Raises NotRepresentable
    when settling would evaluate more than _ENTRY_CAP indices on one
    class."""
    counts = dec.counts(g)
    failures = counts.settle()
    acc = counts.acc
    if g.kind == KIND_PERIODIC_N:  # nothing lies left of index 0
        for cls, steps in acc.steps.items():
            low = sum(steps.pop(i) for i in [i for i in steps if i <= 0])
            acc.span(cls, 0, None, acc.left.pop(cls, 0) + low)
    return not failures and acc.vector() == vec


def _decomposition_holds(g, vec, dec) -> bool:
    """Whether dec is well formed and re-sums to vec."""
    try:
        dec.check(g)
    except (FormatError, UnknownEdge, UnknownVertex, NotARay):
        return False
    return _values_agree(g, vec, dec)


def verify_certificate(g, vec: EdgeVector, cert) -> bool:
    """Check a certificate against the vector it claims to describe.

    For Member the decomposition is validated, its counts are settled into
    its exact sum and that sum must equal the vector; a malformed
    decomposition is rejected. Raises NotRepresentable when settling the
    counts would evaluate more than vectors._ENTRY_CAP indices on one
    class: the rays of one class and direction repeat with a period past
    _ENTRY_CAP / 2, or their sum is not constant over a stretch that long.
    For NonMember the cut's crossing sum must match the claim and be
    nonzero."""
    if isinstance(cert, Member):
        return _decomposition_holds(g, vec, cert.decomposition)
    if isinstance(cert, NonMember):
        s = cuts.cut_sum(g, cert.cut, vec)
        return s == cert.cut_sum and s != 0
    raise FormatError("not a certificate: %r" % (cert,))


def find_violated_cut(g, vec, radius):
    """Search the finite-cut window for a nonzero crossing sum. Returns
    (cut, sum) or None. Exponential in the window size."""
    for cut, darts in cuts.enumerate_finite_cuts(g, radius, with_edges=True):
        s = sum(vec.evaluate(d) for d in darts)
        if s != 0:
            return cut, s
    return None


# -- serialization -----------------------------------------------------------


def certificate_to_json(cert):
    if isinstance(cert, Member):
        return {
            "verdict": "member",
            "decomposition": decomposition_to_json(cert.decomposition),
        }
    if isinstance(cert, NonMember):
        return {
            "verdict": "non-member",
            "cut": cuts.cut_to_json(cert.cut),
            "sum": cert.cut_sum,
        }
    raise FormatError("not a certificate: %r" % (cert,))


def certificate_from_json(g, obj):
    if not isinstance(obj, dict):
        raise FormatError("certificate must be an object")
    verdict = obj.get("verdict")
    if verdict == "member":
        return Member(decomposition_from_json(obj.get("decomposition", {})))
    if verdict == "non-member":
        s = json_int(obj, "sum", "non-member certificate")
        return NonMember(cuts.cut_from_json(g, obj.get("cut")), s)
    raise FormatError("unknown verdict %r" % verdict)
