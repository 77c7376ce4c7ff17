"""Cycle-space membership with checkable certificates.

decompose() either writes a vector as an explicit thin sum of circles or
raises NotInCycleSpace carrying a violated finite cut. The pipeline:

  1. Every vertex star must sum to zero. A star's sum changes only where
     an incident edge's value changes or a static edge attaches, so the
     caps plus, per cell class, the first vertex of each run between such
     indices settle every star of the window. The vector hands out the
     indices where its values change (EdgeVector.breakpoints), so the cost
     grows with the number of changes, not with the stored entries or the
     size of the indices.
  2. The flux toward each end must vanish (a half-space cut; by step 1 its
     value does not depend on the radius). It is read off crossing counts
     per edge class, taken once per graph, times the tail values; the cut
     itself is built only when the flux is nonzero.
  3. The tails form a circulation on the quotient multigraph whose nodes are
     the vertex classes. That circulation is peeled into simple quotient
     cycles. Drift-free cycles lift to circuit templates, repeated over a
     shift range. Drifting cycles are grouped per quotient component and
     tail side. Each group is either stitched into a drift-free composite
     circuit via connector paths to a hub class, or handed to the end stage
     as explicit rays (strands), one per residue class of the drift. Equal
     + and - groups first try one two-sided composite family when it is no
     longer than their strands. Otherwise a group becomes strands when its
     flux sum(w * |d|) (the unit ray stubs strands carry) is at most
     sum(w) / gcd(w) (the unit cycle passes the composite stitches), and a
     composite when it is larger and one can be laid out. The choice reads
     only the tails, so one pass is built; only when the strands' end rays
     overlap is it rebuilt once with the composite wherever one can be laid
     out. Then the residue's long runs are peeled alike: on a run between
     two changes of the input, longer than the margin before the tails'
     anchors, the values form a quotient circulation; its flat cycles and
     its drifting groups of total drift zero become families bounded to the
     run. All of it is taken off one breakpoint accumulator of the input.
  4. What remains is a finite conservative flow plus ray stubs into ends;
     its cycle decomposition yields finite circuits and end circles.

Steps 1 and 2 (_obstruct) are the only obstructions: when both pass, the
construction succeeds, but for two known faults: F1, UnknownEdge from darts
shifted below index 0 on a one-ended lattice, and F2, end rays that no pass
lays out without overlap. So chains.homology_class, which needs only the
verdict, runs steps 1 and 2 alone; a property test pins that this verdict is
is_member's. A built result must be well formed and agree with the input at
the first indices of every run between changes of value before it is
returned (_decomposition_holds)."""

from __future__ import annotations

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
    InfiniteCut,
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
    EndId,
    Ray,
    UnionFind,
    VertexId,
    edge_key,
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
    dec = _assemble(g, vec, _obstruct(g, vec) + _anchor_margin(g))
    if not _decomposition_holds(g, vec, dec):
        raise InternalError("decomposition failed its self-check")
    return dec


def _assemble(g, vec, start):
    """One full pipeline pass, not yet self-checked. When the rule's strands
    cannot be laid out without overlap, the pass is rebuilt once with the
    composite wherever one can be laid out; when that fails too, no layout
    is found."""
    for avoid_strands in (False, True):
        try:
            entries, strands, resid = _peel_tails(g, vec, start, avoid_strands)
            pieces = _finish_finite(g, resid, strands)
        except _RetryStrands:
            continue
        return CircleDecomposition(tuple(entries + pieces))
    raise InternalError("could not lay out end rays without overlap")


class _RetryStrands(Exception):
    pass


# -- steps 1 and 2: the obstructions ----------------------------------------


def _obstruct(g, vec):
    """Raise NotInCycleSpace at the first violated star or end flux; return
    the depth checked, past the data and r0 + D, beyond which tails anchor."""
    deep = max(vec.support_bound(), g.stabilization_radius) + g.D + 1
    _check_stars(g, vec, deep)
    _check_end_flux(g, vec, deep + 1)
    return deep


def _check_stars(g, vec, bound):
    """Raise at the first vertex, in vertex_key order, of the caps and the
    cells in [-bound-1, bound+1] whose star does not sum to zero.

    A cell star's sum changes only where the value of an incident edge
    changes, where a static edge meets the cell, or, on a one-ended
    lattice, where incident edges begin. Per cell class those indices and
    the window start cut the window into runs of equal star sums; probing
    the first vertex of each run finds the same first vertex and sum as
    probing every vertex."""
    lo = 0 if g.kind == KIND_PERIODIC_N else -bound - 1
    hi = bound + 1
    moves = vec.breakpoints()
    probes = {c: {lo} for c in g.cell_classes}
    for ec in g.cell_edge_classes:
        for cls, pos in ((ec.tail_cls, ec.tail_pos), (ec.head_cls, ec.head_pos)):
            probes[cls].update(n + pos for n in moves.get(ec.name, ()))
            if g.kind == KIND_PERIODIC_N:
                probes[cls].add(pos)
    for ec in g.static_edge_classes:
        for cls, pos in ((ec.tail_cls, ec.tail_pos), (ec.head_cls, ec.head_pos)):
            if pos is not None:
                probes[cls].update((pos, pos + 1))
    verts = list(g.cap_vertices())
    for c, points in probes.items():
        verts.extend(VertexId(c, n) for n in points if lo <= n <= hi)
    for v in sorted(verts, key=vertex_key):
        s = sum(vec.evaluate(d) for d, _w in g.neighbors(v))
        if s != 0:
            raise NotInCycleSpace(cuts.star_cut(v), s)


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
    R and at radius: the flux is these counts times the tails."""
    if g._flux_counts is None:
        R = g.stabilization_radius + g.D + 2
        g._flux_counts = {}
        for e in g.ends():
            row = g._flux_counts[e] = {}
            for d in cuts.cut_edges(g, cuts.HalfSpaceCut((e,), R)):
                row[d.edge.cls] = row.get(d.edge.cls, 0) + (1 if d.forward else -1)
    return g._flux_counts


# -- quotient circulation ----------------------------------------------------


def _tail_circulation(g, vec, direction):
    out = {}
    for ec in g.cell_edge_classes:
        tl = vec.tail_of(ec.name, direction)
        if tl is not None and tl[1]:
            out[ec.name] = tl[1]
    return out


def _flow_cycles(nodes, arcs, weight, order=None):
    """Greedy decomposition of a conservative integer flow into node-simple
    cycles. arcs: key -> (tail, head); nodes must come pre-ordered. Returns
    a list of (weight>0, steps) with steps a tuple of (key, forward)."""
    w = {k: v for k, v in weight.items() if v}
    by_tail = {}
    by_head = {}
    for key in sorted(arcs, key=order):
        t, h = arcs[key]
        by_tail.setdefault(t, []).append(key)
        by_head.setdefault(h, []).append(key)

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
    """Darts of one pass of a quotient cycle, starting at the tail-side
    class of the first step placed at start_offset. Returns (darts, start
    vertex, end vertex)."""
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
    """Shift darts so the smallest edge index is 0; return (circuit, shift
    applied)."""
    mn = min(d.edge.index for d in darts)
    return FiniteCircuit(tuple(g.shift_dart(d, -mn) for d in darts)), -mn


def _class_components(g):
    """Each cell class mapped to the smallest class name of its component
    in the quotient graph."""
    uf = UnionFind(g.spec.cell_classes)
    for ec in g.cell_edge_classes:
        uf.union(ec.tail_cls, ec.head_cls)
    return {c: min(grp) for grp in uf.groups().values() for c in grp}


def _connector_paths(g, hub, base=0):
    """For every class in hub's component, a dart path from (class, base)
    to the hub class at base + road_off, by breadth-first search over
    (class, offset) states near (hub, base). Found once per graph, hub and
    base; a search that raises stores nothing."""
    if (hub, base) in g._connector_cache:
        return g._connector_cache[(hub, base)]
    limit = (len(g.spec.cell_classes) + 2) * (g.D + 1) + g.W
    paths = {hub: ((), 0)}
    frontier = [(hub, base, ())]
    seen = {(hub, base)}
    # search backwards from the hub so stored paths run class -> hub
    while frontier:
        nxt = []
        for cls, off, trail in frontier:
            for ec in g.cell_edge_classes:
                moves = []
                if ec.head_cls == cls:
                    at = off - ec.head_pos
                    moves.append(
                        (ec.tail_cls, at + ec.tail_pos,
                         Dart(EdgeId(ec.name, at), True))
                    )
                if ec.tail_cls == cls:
                    at = off - ec.tail_pos
                    moves.append(
                        (ec.head_cls, at + ec.head_pos,
                         Dart(EdgeId(ec.name, at), False))
                    )
                for ncls, noff, dart in moves:
                    if abs(noff - base) > limit or (ncls, noff) in seen:
                        continue
                    seen.add((ncls, noff))
                    ntrail = (dart,) + trail
                    if ncls not in paths:
                        # ntrail runs from (ncls, noff) to (hub, base); rebase
                        paths[ncls] = (
                            tuple(g.shift_dart(d, base - noff) for d in ntrail),
                            base - noff,
                        )
                    nxt.append((ncls, noff, ntrail))
        frontier = nxt
    g._connector_cache[(hub, base)] = paths
    return paths


def _anchor_margin(g):
    """How far past the data the tails' families and strands start."""
    return (len(g.spec.cell_classes) + 1) * g.W + 5


def _run_base(g):
    """The offset at which a run's cycles are lifted and stitched: 0, as
    for the tails, except on a one-ended lattice. There it lies past the
    connector search limit plus _COMPOSITE_LEN_CAP unit passes of quotient
    cycles, each of at most one step per class, so every dart met exists."""
    if g.kind != KIND_PERIODIC_N:
        return 0
    return (_COMPOSITE_LEN_CAP + 6) * (len(g.spec.cell_classes) + 1) * g.W


def _shift_darts(g, darts, k):
    return [g.shift_dart(d, k) for d in darts]


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


def _balanced_order(copies):
    """Interleave signs so the accumulated drift stays near zero."""
    pending = sorted(copies)
    order = []
    acc = 0
    while pending:
        want_pos = acc <= 0
        pick = next(
            (i for i, (d, _s) in enumerate(pending) if (d > 0) == want_pos),
            0,
        )
        delta, steps = pending.pop(pick)
        order.append((delta, steps))
        acc += delta
    return order, acc


def _stacked_order(copies):
    """Keep copies of one cycle consecutive, so each lands at a fresh
    offset; positive drifts first, then the negatives ride back down."""
    pending = sorted(copies)
    order = [c for c in pending if c[0] > 0]
    order += [c for c in pending if c[0] < 0]
    return order, sum(d for d, _s in order)


def _build_composite(g, copies, comp_of, base):
    """Stitch unit-weight drifting cycles (total drift zero) into one closed
    drift-free circuit via connector paths to the component's hub class,
    laid out from the hub at offset base. Returns the dart list or None
    when no edge-injective layout exists."""
    hub = min(
        c
        for c in g.spec.cell_classes
        if comp_of[c] == comp_of[_cycle_class(g, copies[0][1])]
    )
    paths = _connector_paths(g, hub, base)
    for ordering in (_balanced_order, _stacked_order):
        order, acc = ordering(copies)
        if acc != 0:
            raise InternalError("drifting cycles do not balance")
        darts = _assemble_composite(g, order, paths, base)
        if darts is not None:
            return darts
    return None


def _assemble_composite(g, order, paths, base):
    darts = []
    off = base
    for delta, steps in order:
        cls = _cycle_class(g, steps)
        if cls not in paths:
            return None
        road, road_off = paths[cls]
        # hub at `off` down to the cycle class at `at`, one pass, and back up
        at = off - road_off
        inbound = [d.reverse() for d in reversed(road)]
        darts.extend(_shift_darts(g, inbound, at - base))
        lifted, _s, _e = _lift_cycle(g, steps, at)
        darts.extend(lifted)
        darts.extend(_shift_darts(g, road, at - base + delta))
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


def _quotient_cycles(g, tau, comp_of):
    """A quotient circulation's simple cycles: the flat ones as (weight,
    steps), the drifting ones per component as (weight, drift, steps)."""
    arcs = {ec.name: (ec.tail_cls, ec.head_cls) for ec in g.cell_edge_classes}
    flat, drifting = [], {}
    for wgt, steps in _flow_cycles(sorted(g.spec.cell_classes), arcs, tau):
        d = _cycle_drift(g, steps)
        if d == 0:
            flat.append((wgt, _canonical(list(steps))))
        else:
            group = drifting.setdefault(comp_of[_cycle_class(g, steps)], [])
            group.append((wgt, d, _canonical(list(steps))))
    return flat, drifting


def _peel_tails(g, vec, start, avoid_strands=False):
    """Emit circuit families reproducing the tails, then the long constant
    runs of the residue; return (entries, strand list, finite residue).
    Every family and strand path family is taken off one accumulator that
    starts from the input. With avoid_strands every drifting group of the
    tails takes the composite when one can be laid out."""
    # the runs between consecutive changes of the input that are longer than
    # the margin the tails leave to the finite stage
    cuts = sorted({i for points in vec.breakpoints().values() for i in points})
    runs = [(a, b) for a, b in zip(cuts, cuts[1:]) if b - a > _anchor_margin(g)]
    if not vec.tails and not runs:
        return [], [], vec
    entries = []
    strands = []  # (weight, Ray, start VertexId, EndId)
    acc = _Breakpoints(g)
    acc.add(vec)
    comp_of = _class_components(g) if g.spec.cell_classes else {}

    per_dir = {}
    for direction in g.directions():
        tau = _tail_circulation(g, vec, direction)
        per_dir[1 if direction == "+" else -1] = _quotient_cycles(g, tau, comp_of)

    # drift-free cycles: merge mirrored pairs into full-lattice families
    plus_flat = _merge_weights(per_dir.get(1, ([], {}))[0])
    minus_flat = _merge_weights(per_dir.get(-1, ([], {}))[0])
    for key in sorted(set(plus_flat) | set(minus_flat)):
        wp, wm = plus_flat.get(key, 0), minus_flat.get(key, 0)
        lifted, _s, _e = _lift_cycle(g, list(key))
        template, _sh = _normalized_template(g, lifted)
        both = min(wp, wm) if (wp > 0 and wm > 0) else 0
        for wgt, lo, hi in (
            (both, None, None),
            (wp - both, start, None),
            (wm - both, None, -start),
        ):
            if wgt:
                _peel(acc, entries, wgt, template, lo, hi)

    # drifting cycles: a two-sided composite for mirrored groups, then per
    # sign group whichever of composite and strands is the smaller
    plus_drift = per_dir.get(1, ([], {}))[1]
    minus_drift = per_dir.get(-1, ([], {}))[1]
    for comp in sorted(set(plus_drift) | set(minus_drift)):
        cp = sorted(plus_drift.get(comp, []))
        cm = sorted(minus_drift.get(comp, []))
        if cp and cp == cm and _fits_between_anchors(cp, start):
            built = _try_composite(g, cp, comp_of)
            if built is not None:
                _peel(acc, entries, *built, None, None)
                continue
        for sign, group in ((1, cp), (-1, cm)):
            if not group:
                continue
            built = None
            if avoid_strands or _composite_is_smaller(group):
                built = _try_composite(g, group, comp_of)
            if built is not None:
                lo, hi = (start, None) if sign > 0 else (None, -start)
                _peel(acc, entries, *built, lo, hi)
            else:
                strands.extend(_emit_strands(g, group, sign, start, acc))
    _peel_runs(g, acc, entries, comp_of, runs)
    resid = acc.vector()
    if resid.tails:
        raise InternalError("tails survived the peeling stage")
    return entries, strands, resid


def _peel_runs(g, acc, entries, comp_of, runs):
    """Take the residue in acc off as bounded families on each run [a, b)
    between two changes of the input, longer than the anchor margin. The
    tails' families and strands are constant there, so the residue is too,
    and as b - a > 2W the stars W inside both ends lie in the run: unless
    static edges attach to all of them, its values form a quotient
    circulation. Its flat cycles, and its drifting groups of total drift
    zero that a composite can be laid out for, become families of members
    wholly inside the run, kept if they span at least a member's length."""
    changes = acc.changes()
    moves = sorted((i, c, d) for c, (_v, points) in changes.items() for i, d in points)
    value = {c: v for c, (v, _p) in changes.items()}
    base = _run_base(g)
    k = 0
    for a, b in runs:
        while k < len(moves) and moves[k][0] <= a:
            value[moves[k][1]] += moves[k][2]
            k += 1
        tau = {c: v for c, v in value.items() if v}
        if not tau or not _conserves(g, tau):
            continue
        flat, drifting = _quotient_cycles(g, tau, comp_of)
        built = [
            (wgt, _normalized_template(g, _lift_cycle(g, list(key), base)[0])[0])
            for key, wgt in sorted(_merge_weights(flat).items())
        ]
        for _comp, group in sorted(drifting.items()):
            if sum(wgt * delta for wgt, delta, _s in group) == 0:
                built.append(_try_composite(g, group, comp_of, base))
        for coeff, template in filter(None, built):
            L = max(d.edge.index for d in template.darts)
            if b - 1 - L - a >= L:
                _peel(acc, entries, coeff, template, a, b - 1 - L)


def _conserves(g, tau):
    """Whether quotient values sum to zero at every vertex class."""
    net = dict.fromkeys(g.cell_classes, 0)
    for name, v in tau.items():
        net[g.edge_classes[name].tail_cls] += v
        net[g.edge_classes[name].head_cls] -= v
    return not any(net.values())


def _composite_is_smaller(group):
    """Whether stitching the group's cycles into one composite beats closing
    them as strands: strands carry sum(w * |d|) unit ray stubs, the
    composite sum(w) / gcd(w) unit cycle passes."""
    flux = sum(wgt * abs(delta) for wgt, delta, _s in group)
    weights = [wgt for wgt, _d, _s in group]
    return flux > sum(weights) // math.gcd(*weights)


def _fits_between_anchors(group, start):
    """Whether a mirrored group's two-sided composite, sum(w) / gcd(w) unit
    passes of its shortest cycle, is no longer than its strands: sum(|d|)
    rays per side, each joined to its mirror across the 2 * start cells."""
    weights = [wgt for wgt, _d, _s in group]
    passes = sum(weights) // math.gcd(*weights)
    rays = sum(abs(delta) for _w, delta, _s in group)
    return passes * min(len(s) for _w, _d, s in group) <= rays * 2 * start


def _merge_weights(pairs):
    out = {}
    for wgt, key in pairs:
        out[tuple(key)] = out.get(tuple(key), 0) + wgt
    return out


def _try_composite(g, group, comp_of, base=0):
    """Common weight times one stitched drift-free template, or None. A
    group whose sum(w) / gcd(w) unit passes of its shortest cycle already
    exceed _COMPOSITE_LEN_CAP is refused before any copy is made."""
    shared = math.gcd(*(wgt for wgt, _d, _s in group))
    reduced = [(wgt // shared, delta, tuple(steps)) for wgt, delta, steps in group]
    passes = sum(wgt for wgt, _d, _s in reduced)
    if passes * min(len(s) for _w, _d, s in reduced) > _COMPOSITE_LEN_CAP:
        return None
    copies = [(delta, steps) for wgt, delta, steps in reduced for _ in range(wgt)]
    darts = _build_composite(g, copies, comp_of, base)
    if darts is None:
        return None
    template, _sh = _normalized_template(g, darts)
    return shared, template


def _emit_strands(g, group, sign, start, acc):
    """Turn each drifting quotient cycle into |drift| outward rays starting
    at consecutive shifts; take each cycle's group sum (a one-period path
    family) off the residue in acc."""
    out = []
    for wgt, delta, steps in sorted(group):
        if (delta > 0) != (sign > 0):
            steps = [(n, not f) for n, f in reversed(steps)]
            delta = -delta
            wgt = -wgt
        anchor = start if sign > 0 else -start
        lifted, s_v, _e = _lift_cycle(g, steps, anchor)
        lo, hi = (0, None) if sign > 0 else (None, 0)
        _take_off(acc, wgt, lifted, lo, hi)
        for r in range(abs(delta)):
            k = r if sign > 0 else -r
            ray = Ray(
                VertexId(s_v.cls, s_v.index + k),
                (),
                tuple(g.shift_dart(d, k) for d in lifted),
                delta,
            )
            end = g.end_of_ray(ray)
            out.append((wgt, ray, ray.start, end))
    return out


# -- the finite stage --------------------------------------------------------


def _finish_finite(g, resid, strands):
    arcs = {}
    weight = {}
    nodes = set()
    for e, val in resid.vals.items():
        t, h = g.endpoints(e)
        arcs[("e", e)] = (t, h)
        weight[("e", e)] = val
        nodes.add(t)
        nodes.add(h)
    for i, (wgt, ray, start, end) in enumerate(strands):
        arcs[("s", i)] = (start, end)
        weight[("s", i)] = wgt
        nodes.add(start)
        nodes.add(end)

    # conservation must already hold; a failure here is a pipeline bug
    flux = {}
    for key, (t, h) in arcs.items():
        w = weight[key]
        flux[t] = flux.get(t, 0) + w
        flux[h] = flux.get(h, 0) - w
    bad = [n for n, f in flux.items() if f and isinstance(n, VertexId)]
    if bad:
        raise InternalError("finite stage is not conservative at %s"
                            % bad[0].label())
    bad = [n for n, f in flux.items() if f and isinstance(n, EndId)]
    if bad:
        raise InternalError("ray stubs into %s do not balance" % (bad[0],))

    def sort_key(n):
        if isinstance(n, EndId):
            return (1, n.direction, n.rank)
        return (0,) + vertex_key(n)

    def arc_key(key):
        kind, payload = key
        if kind == "e":
            return (0, edge_key(payload))
        return (1, payload)

    node_list = sorted(nodes, key=sort_key)
    pieces = []
    for m, steps in _flow_cycles(node_list, arcs, weight, order=arc_key):
        piece = _cycle_to_piece(g, arcs, strands, steps)
        pieces.append((m, piece))
    return pieces


def _cycle_to_piece(g, arcs, strands, steps):
    node_seq = []
    node = None
    for key, fwd in steps:
        t, h = arcs[key]
        node = h if fwd else t
        node_seq.append(node)
    virt = [i for i, n in enumerate(node_seq) if isinstance(n, EndId)]
    if not virt:
        darts = []
        for key, fwd in steps:
            kind, payload = key
            if kind != "e":
                raise InternalError("ray stub in a finite circuit")
            darts.append(Dart(payload, fwd))
        return FiniteCircuit(tuple(darts))
    if len(virt) != len(set(node_seq[i] for i in virt)):
        raise InternalError("a circle would pass twice through one end")
    # rotate so the walk begins just after a visit to an end: then it
    # alternates (ray out of the end, middle darts, ray into the next end)
    k = virt[0] + 1
    steps = steps[k:] + steps[:k]
    node_seq = node_seq[k:] + node_seq[:k]
    segments = []
    back_ray = None
    middle = []
    for (key, fwd), node in zip(steps, node_seq):
        if isinstance(node, EndId):
            fwd_ray = _strand_ray(strands, (key, fwd))
            segments.append(RaySegment(back_ray, tuple(middle), fwd_ray))
            middle = []
            back_ray = None
        elif back_ray is None:
            back_ray = _strand_ray(strands, (key, fwd))
        else:
            kind, payload = key
            if kind != "e":
                raise InternalError("unexpected ray stub inside a segment")
            middle.append(Dart(payload, fwd))
    piece = EndCircle(tuple(segments))
    try:
        piece.check(g)
    except FormatError:
        raise _RetryStrands()
    return piece


def _strand_ray(strands, step):
    (kind, idx), _fwd = step
    if kind != "s":
        raise InternalError("expected a ray stub at an end boundary")
    return strands[idx][1]


# -- verification ------------------------------------------------------------


def _cert_shape(dec: CircleDecomposition):
    """One pass over every dart of dec: (the indices where its value on a
    class may change, its extent, its period P).

    The finite darts (circuits, segment middles, ray initial darts) are
    summed into one signed count per (class, index), weighted by their
    entry's coefficient; their value changes at n where count[n] differs
    from count[n - 1]. Darts that cancel leave no change behind. The other
    changes lie at j + lo and j + hi + 1 for a family template dart j, and
    at a ray repeat dart's index i0 and i0 + 1. The extent is the largest
    |index| of a change, a family bound, a ray start and of n and n + 1
    for every finite dart n; P is the least common multiple of the ray
    shifts. Between two changes each piece's value repeats with period P,
    and past the extent it repeats with period P for good."""
    points = set()
    counts = {}
    extent = 0
    period = 1

    def bump(n):
        nonlocal extent
        if n is not None:
            extent = max(extent, abs(n))

    def darts(ds, c):
        for d in ds:
            n = d.edge.index
            if n is not None:
                key = (d.edge.cls, n)
                counts[key] = counts.get(key, 0) + (c if d.forward else -c)
                bump(n)
                bump(n + 1)

    for c, piece in dec.entries:
        if isinstance(piece, FiniteCircuit):
            darts(piece.darts, c)
        elif isinstance(piece, CircuitFamily):
            for d in piece.template.darts:
                j = d.edge.index
                if j is None:
                    continue
                bump(j)
                if piece.lo is not None:
                    points.add(j + piece.lo)
                if piece.hi is not None:
                    points.add(j + piece.hi + 1)
            bump(piece.lo)
            bump(piece.hi)
        else:
            for seg in piece.segments:
                darts(seg.middle, c)
                for ray, rc in ((seg.back, -c), (seg.fwd, c)):
                    bump(ray.start.index)
                    darts(ray.initial, rc)
                    for d in ray.repeat:
                        if d.edge.index is not None:
                            points.update((d.edge.index, d.edge.index + 1))
                    s = abs(ray.shift)
                    period = period * s // math.gcd(period, s)
    for (cls, n), k in counts.items():
        if counts.get((cls, n - 1), 0) != k:
            points.add(n)
        if counts.get((cls, n + 1), 0) != k:
            points.add(n + 1)
    for n in points:
        bump(n)
    return points, extent, period


def _probe_windows(points, lo, hi, P):
    """The first min(P, run length) indices of every run of [lo, hi]
    between consecutive points, as sorted disjoint windows; touching
    windows are merged."""
    starts = sorted({lo} | {n for n in points if lo < n <= hi})
    windows = []
    for a, b in zip(starts, starts[1:] + [hi + 1]):
        last = min(a + P, b) - 1
        if windows and windows[-1][1] + 1 == a:
            windows[-1] = (windows[-1][0], last)
        else:
            windows.append((a, last))
    return tuple(windows)


def _values_agree(g, vec, dec) -> bool:
    """Compare dec with vec on every static edge and every cell edge of
    the window [-(T+P), T+P] (from 0 on a one-ended lattice), where T
    bounds the indices of both and P is dec's period.

    Cut at the indices where vec's value changes and where dec's value
    can change (_cert_shape), the window falls into runs on which vec is
    constant and dec repeats with period P, so comparing the first
    min(P, run length) indices of each run settles the whole window.
    Finite darts that run on or cancel add no cut, so a long circuit cuts
    the window at its corners only. The decomposition is evaluated over those
    windows in one pass."""
    points, extent, P = _cert_shape(dec)
    for moves in vec.breakpoints().values():
        points.update(moves)
    T = max(vec.support_bound(), extent) + g.W + 1
    lo = 0 if g.kind == KIND_PERIODIC_N else -(T + P)
    windows = _probe_windows(points, lo, T + P, P)
    got = dec.values_in(g, windows)
    for e in g.static_instances():
        if got.get(e, 0) != vec.value_on(e):
            return False
    for ec in g.cell_edge_classes:
        for a, b in windows:
            for n in range(a, b + 1):
                e = EdgeId(ec.name, n)
                if got.get(e, 0) != vec.value_on(e):
                    return False
    return True


def _decomposition_holds(g, vec, dec) -> bool:
    """Whether dec is well formed and re-sums to vec."""
    try:
        dec.check(g)
    except (FormatError, UnknownEdge, UnknownVertex, NotARay):
        return False
    return _values_agree(g, vec, dec)


def verify_certificate(g, vec: EdgeVector, cert) -> bool:
    """Check a certificate against the vector it claims to describe.

    For Member the decomposition is validated and compared with the vector
    on a window wide enough to cover all data plus one full period of every
    ray, which settles equality everywhere; a malformed decomposition is
    rejected. For NonMember the cut must be finite and its crossing sum
    must match the claim and be nonzero."""
    if isinstance(cert, Member):
        return _decomposition_holds(g, vec, cert.decomposition)
    if isinstance(cert, NonMember):
        try:
            s = cuts.cut_sum(g, cert.cut, vec)
        except InfiniteCut:
            return False
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
        if not isinstance(obj.get("sum"), int):
            raise FormatError("non-member certificate needs an integer sum")
        return NonMember(cuts.cut_from_json(g, obj.get("cut")), obj["sum"])
    raise FormatError("unknown verdict %r" % verdict)
