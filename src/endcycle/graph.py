"""Graph descriptions and the structures derived from them.

A graph is given by a finite text description: a kind (finite, periodic-z,
periodic-n), vertex classes, and edge classes. Periodic kinds describe one
cell that repeats along the integers or the naturals, plus optional cap
vertices that exist once. Everything downstream (ends, components, half
spaces, ray classification) is computed from a per-direction block partition:
one union-find over a window of two blocks joins its edges once and glues
the upper block by the lower one's groups until they stop growing.
Past any fence the cell graph is a translate of the one past the
stabilization radius, so that one partition answers half-space questions at
every radius, and a graph keeps no state per radius. Vertex, edge, dart
and end ids are named tuples (see VertexId).
"""

from __future__ import annotations

import bisect
import itertools
import math
import re
from dataclasses import dataclass
from typing import NamedTuple

from .errors import (
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

KIND_FINITE = "finite"
KIND_PERIODIC_Z = "periodic-z"
KIND_PERIODIC_N = "periodic-n"
KINDS = (KIND_FINITE, KIND_PERIODIC_Z, KIND_PERIODIC_N)

_CLASS_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
_GRAPH_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_-]*$")
_ENDPOINT_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)(?:\[([+-]?\d+)\])?$")
_END_RE = re.compile(r"^end([+-])(\d+)$")

# hard cap on declared offsets so W stays small
_MAX_OFFSET = 10_000


class VertexId(NamedTuple):
    """A single vertex: class name plus cell index (None for caps).

    The ids (VertexId, EdgeId, Dart, EndId) are named tuples, so hashing,
    equality and construction run in C. Ids of different kinds with equal
    fields compare equal, so no container mixes id kinds whose fields could
    coincide. The finite stage mixes vertices and ends: a class name matches
    _CLASS_RE and an end's direction is "+" or "-", so they never meet."""

    cls: str
    index: int | None = None

    def label(self):
        if self.index is None:
            return self.cls
        return "%s[%d]" % (self.cls, self.index)

    def __str__(self):
        return self.label()


class EdgeId(NamedTuple):
    """A single edge instance: class name plus instance index (None if the
    class has one static instance)."""

    cls: str
    index: int | None = None

    def label(self):
        if self.index is None:
            return self.cls
        return "%s[%d]" % (self.cls, self.index)

    def __str__(self):
        return self.label()


class Dart(NamedTuple):
    """An oriented edge instance. forward means tail to head."""

    edge: EdgeId
    forward: bool = True

    def reverse(self):
        return Dart(self.edge, not self.forward)

    def label(self):
        return self.edge.label() + ("+" if self.forward else "-")

    def __str__(self):
        return self.label()


class EndId(NamedTuple):
    """An end of the graph: escape direction plus a stable rank within it."""

    direction: str  # "+" or "-"
    rank: int

    def label(self):
        return "end%s%d" % (self.direction, self.rank)

    def __str__(self):
        return self.label()

    @staticmethod
    def parse(text):
        m = _END_RE.match(text.strip())
        if not m:
            raise FormatError("bad end %r, expected e.g. end+0" % text)
        return EndId(m.group(1), int(m.group(2)))


def vertex_key(v: VertexId):
    return (v.cls, v.index is not None, v.index if v.index is not None else 0)


def edge_key(e: EdgeId):
    return (e.cls, e.index is not None, e.index if e.index is not None else 0)


def dart_key(d: Dart):
    return edge_key(d.edge) + (0 if d.forward else 1,)


def end_key(e: EndId):
    return (0 if e.direction == "+" else 1, e.rank)


def shift_id(x, k):
    """The vertex, edge, dart or ray x moved k cells along the lattice.
    Only ids are computed: an id without an index (a cap or a static edge)
    stays as it is, and whether the result exists is for the checks of
    whoever walks it to decide."""
    if isinstance(x, Dart):
        e = x.edge
        return x if e.index is None else Dart(EdgeId(e.cls, e.index + k), x.forward)
    if isinstance(x, Ray):
        return Ray(shift_id(x.start, k), tuple(shift_id(d, k) for d in x.initial),
                   tuple(shift_id(d, k) for d in x.repeat), x.shift)
    return x if x.index is None else type(x)(x.cls, x.index + k)


@dataclass(frozen=True)
class RawEdge:
    name: str
    tail: tuple  # (class name, index or None)
    head: tuple


@dataclass(frozen=True)
class GraphSpec:
    name: str
    kind: str
    cell_classes: tuple
    cap_classes: tuple
    edges: tuple  # of RawEdge


@dataclass(frozen=True)
class EdgeClass:
    """Resolved edge class. For cell-cell classes tail_pos/head_pos are
    offsets normalized so the smaller one is 0; instance n occupies cells
    n .. n+span. For static classes a cell-side pos is an absolute index."""

    name: str
    tail_cls: str
    tail_pos: int | None
    head_cls: str
    head_pos: int | None
    static: bool

    @property
    def span(self):
        if self.static:
            return 0
        return max(self.tail_pos, self.head_pos)

    def ends(self, n):
        """Tail and head vertex of instance n (None for a static class)."""
        t, h = self.tail_pos, self.head_pos
        if not self.static:
            t, h = n + t, n + h
        return VertexId(self.tail_cls, t), VertexId(self.head_cls, h)


@dataclass(frozen=True)
class Ray:
    """An eventually periodic injective one-way path: a start vertex, a
    finite lead-in, and a repeating dart block that shifts its own start
    vertex by `shift` cells."""

    start: VertexId
    initial: tuple
    repeat: tuple
    shift: int


def first_shared(points, lines):
    """A (class, index) in two of the given sets, or None. A point (class,
    index) of the list points is a set of one; a line (class, u, s), s != 0,
    is u + p*s for every p >= 0. Lines are bucketed by class, step and
    residue, so the cost follows the number of sets, not the distances
    between them. Two lines running the same way meet iff u = w modulo
    gcd(s, t); two running toward each other (s > 0 > t) iff w >= u and
    w - u is a sum of s's and -t's, so only the anchors w >= u are tested.
    Points are tested in the order given, so the same one is named every
    run."""
    if len(set(points)) < len(points):  # the first point seen before
        seen = set()
        return next(x for x in points if x in seen or seen.add(x))
    if not lines:
        return None
    steps = {}  # class -> step -> {anchor mod step: anchor}
    for c, u, s in lines:
        bucket = steps.setdefault(c, {}).setdefault(s, {})
        if u % s in bucket:  # a second anchor: the farther one lies on both
            return c, max(u, bucket[u % s]) if s > 0 else min(u, bucket[u % s])
        bucket[u % s] = u
    for c, i in points:
        if i is not None and any(i % s in b and (i - b[i % s]) // s >= 0
                                 for s, b in steps.get(c, {}).items()):
            return c, i
    for c, by_step in steps.items():
        for (s, us), (t, ws) in itertools.combinations(by_step.items(), 2):
            if s < 0 < t:
                s, us, t, ws = t, ws, s, us
            g = math.gcd(s, t)
            if (s > 0) == (t > 0):
                firsts = {u % g: u for u in us.values()}
                pairs = ((firsts[w % g], w) for w in ws.values() if w % g in firsts)
            else:
                ws = sorted(ws.values())
                pairs = ((u, w) for u in us.values() for w in ws[bisect.bisect_left(ws, u):]
                         if _double_count(w - u, s, -t, None))
            u, w = next(pairs, (None, None))
            if u is not None:
                if (w - u) * s > 0:  # start from the anchor ahead
                    u, s, w, t = w, t, u, s
                # the first u + k*s, k >= 0, that is w modulo t
                return c, u + (w - u) // g * pow(s // g, -1, abs(t) // g) % (abs(t) // g) * s
    return None


def _double_count(m, s, t, n):
    """Number of pairs j >= 0, 0 <= k < n (n None: k >= 0) with
    j*s + k*t = m, for s, t > 0."""
    g = math.gcd(s, t)
    if m < 0 or m % g:
        return 0
    m, s, t = m // g, s // g, t // g
    k0 = m * pow(t, -1, s) % s  # smallest k with k*t = m modulo s
    kmax = m // t if n is None else min(m // t, n - 1)
    return (kmax - k0) // s + 1 if kmax >= k0 else 0


@dataclass(frozen=True)
class Truncation:
    radius: int
    vertices: tuple
    edges: tuple
    boundary: tuple


@dataclass(frozen=True)
class Component:
    index: int
    representative: VertexId
    cell_classes: tuple
    caps: tuple
    ends: tuple
    finite: bool
    size: int | None


class UnionFind:
    """Union-find over hashable items with path compression."""

    def __init__(self, items=()):
        self.parent = {}
        for x in items:
            self.parent[x] = x

    def add(self, x):
        if x not in self.parent:
            self.parent[x] = x

    def find(self, x):
        p = self.parent
        root = x
        while p[root] != root:
            root = p[root]
        while p[x] != root:
            p[x], x = root, p[x]
        return root

    def union(self, a, b):
        ra = self.find(a)
        rb = self.find(b)
        if ra != rb:
            self.parent[rb] = ra
        return ra

    def join(self, pairs):
        """Union each pair (u, r) under r's root, adding new items."""
        for u, r in pairs:
            self.add(u)
            self.add(r)
            self.union(r, u)

    def groups(self):
        out = {}
        for x in self.parent:
            out.setdefault(self.find(x), []).append(x)
        return out


def parse_graph_text(text) -> GraphSpec:
    """Parse the graph description format. Syntax only; semantic checks
    (unknown classes, loops, offsets) happen when the Graph is built."""
    name = None
    kind = None
    cells = []
    caps = []
    edges = []
    seen_classes = set()
    seen_edges = set()
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        head = parts[0]
        if head == "graph":
            if name is not None:
                raise FormatError("duplicate graph line", ln)
            if len(parts) != 2 or not _GRAPH_NAME_RE.match(parts[1]):
                raise FormatError("expected: graph <name>", ln)
            name = parts[1]
        elif head == "kind":
            if kind is not None:
                raise FormatError("duplicate kind line", ln)
            if len(parts) != 2 or parts[1] not in KINDS:
                raise FormatError(
                    "expected: kind finite|periodic-z|periodic-n", ln
                )
            kind = parts[1]
        elif head in ("vertex", "cap-vertex"):
            if kind is None:
                raise FormatError("kind must come before declarations", ln)
            if len(parts) != 2 or not _CLASS_RE.match(parts[1]):
                raise FormatError("expected: %s <name>" % head, ln)
            cname = parts[1]
            if cname in seen_classes:
                raise FormatError("duplicate vertex class %r" % cname, ln)
            seen_classes.add(cname)
            # finite graphs have no cells, both forms declare a plain vertex
            if head == "vertex" and kind != KIND_FINITE:
                cells.append(cname)
            else:
                caps.append(cname)
        elif head == "edge":
            if kind is None:
                raise FormatError("kind must come before declarations", ln)
            body = line[len("edge") :].strip()
            if ":" not in body:
                raise FormatError(
                    "expected: edge <name>: <tail> -> <head>", ln
                )
            ename, rhs = body.split(":", 1)
            ename = ename.strip()
            if not _CLASS_RE.match(ename):
                raise FormatError("bad edge name %r" % ename, ln)
            if ename in seen_edges or ename in seen_classes:
                raise FormatError("duplicate name %r" % ename, ln)
            seen_edges.add(ename)
            if "->" not in rhs:
                raise FormatError(
                    "expected: edge <name>: <tail> -> <head>", ln
                )
            tpart, hpart = rhs.split("->", 1)
            tail = _parse_endpoint(tpart.strip(), ln)
            headp = _parse_endpoint(hpart.strip(), ln)
            edges.append(RawEdge(ename, tail, headp))
        else:
            raise FormatError("unknown directive %r" % head, ln)
    if name is None:
        raise FormatError("missing graph line")
    if kind is None:
        raise FormatError("missing kind line")
    return GraphSpec(name, kind, tuple(cells), tuple(caps), tuple(edges))


def _parse_endpoint(tok, ln):
    m = _ENDPOINT_RE.match(tok)
    if not m:
        raise FormatError("bad endpoint %r" % tok, ln)
    idx = m.group(2)
    return (m.group(1), int(idx) if idx is not None else None)


class _RayStructure:
    """Everything about one escape direction: the certified block partition,
    its unbounded classes (the ends), the parent map between consecutive
    levels, and coordinate transforms. Depth d corresponds to the cell at
    distance d+1 beyond the stabilization radius."""

    def __init__(self, g, sign):
        # no reference back to g, so a dropped graph is freed at once
        self.kind = g.kind
        self.cell_classes = g.cell_classes
        self.sign = sign
        self.direction = "+" if sign > 0 else "-"
        self.W = g.W
        self.r0 = g.stabilization_radius
        # per edge class: offsets seen from this direction (min stays 0)
        self.klass = []
        for ec in g.cell_edge_classes:
            s = ec.span
            if sign > 0:
                self.klass.append((ec, ec.tail_pos, ec.head_pos, s))
            else:
                self.klass.append((ec, s - ec.tail_pos, s - ec.head_pos, s))
        self._classify(*self._fixpoint())

    def _base_index(self, s, t):
        if self.sign > 0:
            return t + self.r0 + 1
        return -(t + s + self.r0 + 1)

    def _fixpoint(self):
        """The least block partition that one step of W cells reproduces,
        closed in one union-find over the window of depths 0 .. 2W-1.
        Vertex (c, d) there is the integer i * 2W + d, i the rank of c's
        name, so integers order like (c, d). The window's edges are joined
        once; then each block vertex x is labelled with the first block
        member of its group and x + W is glued to label(x) + W, until the
        labels stop changing. Gluing only adds unions, so the groups grow
        to the least fixpoint, and labels a pass leaves unchanged certify
        it. Returns the union-find and each block vertex's class id."""
        W, W2 = self.W, 2 * self.W
        names = sorted(self.cell_classes)
        base = {c: i * W2 for i, c in enumerate(names)}
        uf = UnionFind(range(len(names) * W2))
        find, union = uf.find, uf.union
        # the base index of a depth >= 0 is positive in direction +, the
        # one direction of a periodic-n graph, so every instance exists
        for ec, toff, hoff, s in self.klass:
            a, b = base[ec.tail_cls] + toff, base[ec.head_cls] + hoff
            for t in range(W2 - s):
                union(a + t, b + t)
        block = [base[c] + d for c in names for d in range(W)]
        labels = None
        while True:
            first = {}
            new = [first.setdefault(find(x), x) for x in block]
            if new == labels:
                break
            labels = new
            for x, y in zip(block, labels):
                if x != y:
                    union(y + W, x + W)
        groups = {}
        for x, y in zip(block, labels):
            groups.setdefault(y, []).append(x)
        self.members = []
        self.cls_id = {}
        class_of = {}
        for i, grp in enumerate(groups.values()):
            self.members.append(tuple((names[x // W2], x % W2) for x in grp))
            for x, m in zip(grp, self.members[-1]):
                class_of[x] = self.cls_id[m] = i
        return uf, class_of

    def _classify(self, uf, class_of):
        """The parent map, arcs and unbounded classes, read off the roots
        of the closed window: a class at depths W .. 2W-1 has as parent
        the class at depths 0 .. W-1 of its group, if any."""
        W, W2 = self.W, 2 * self.W
        nids = len(self.members)
        comp0 = {}
        comp1 = {}
        for x in uf.parent:
            root = uf.find(x)
            if x % W2 < W:
                comp0.setdefault(root, set()).add(class_of[x])
            else:
                comp1.setdefault(root, set()).add(class_of[x - W])
        arcs = {i: set() for i in range(nids)}
        parent = {}
        for root, ids1 in comp1.items():
            ids0 = comp0.get(root, set())
            if len(ids0) > 1:
                raise InternalError("fixpoint restriction is not a congruence")
            x = next(iter(ids0)) if ids0 else None
            for y in ids1:
                parent[y] = x
                if x is not None:
                    arcs[x].add(y)
        self.parent = parent
        self.arcs = arcs
        # a class is unbounded iff it starts an infinite arc walk,
        # i.e. survives pruning of nodes with no live successor
        alive = set(range(nids))
        while True:
            dead = [i for i in alive if not (arcs[i] & alive)]
            if not dead:
                break
            alive.difference_update(dead)
        self.unbounded = frozenset(alive)
        ranked = sorted(self.unbounded, key=lambda i: self.members[i][0])
        self.rank = {cid: k for k, cid in enumerate(ranked)}
        self.by_rank = {k: cid for cid, k in self.rank.items()}
        self.end_count = len(ranked)

    def missing_attachment(self):
        """Class ids with no edge toward shallower cells. Any such class
        describes a component pattern that repeats forever on its own."""
        attached = set()
        for ec, toff, hoff, s in self.klass:
            for t in range(-s, 0):
                n = self._base_index(s, t)
                if self.kind == KIND_PERIODIC_N and n < 0:
                    continue
                d1, d2 = t + toff, t + hoff
                if (d1 < 0) != (d2 < 0):
                    c, d = (ec.tail_cls, d1) if d1 >= 0 else (ec.head_cls, d2)
                    attached.add(self.cls_id[(c, d)])
        return [i for i in range(len(self.members)) if i not in attached]

    def check_certificate(self):
        """Check that the parent map is total and a bijection on the
        unbounded classes."""
        for y in self.parent:
            if self.parent[y] is None:
                raise InternalError("parent map is partial on a valid graph")
        ub_parents = {self.parent[y] for y in self.unbounded}
        if ub_parents != set(self.unbounded):
            raise InternalError("unbounded classes do not shift bijectively")

    def parent_pow(self, cid, k):
        seen = {}
        path = []
        while k > 0:
            if cid in seen:
                lam = len(path) - seen[cid]
                k %= lam
                for _ in range(k):
                    cid = self.parent[cid]
                return cid
            seen[cid] = len(path)
            path.append(cid)
            cid = self.parent[cid]
            k -= 1
        return cid

    def period(self):
        """Cells after which the deep pattern repeats: W times the order of
        the parent map, a permutation of the unbounded classes."""
        order = 1
        for cid in self.unbounded:
            n, x = 1, self.parent[cid]
            while x != cid:
                n, x = n + 1, self.parent[x]
            order = order * n // math.gcd(order, n)
        return self.W * order

    def stable_class(self, c, d):
        """Stable class id of the cell-class vertex at depth d >= 0, pulled
        back to depth level zero through the parent map."""
        cid = self.cls_id[(c, d % self.W)]
        return self.parent_pow(cid, d // self.W)

    # A fence is a radius >= r0; the block of cells fence+1 .. fence+W in
    # this direction stands for everything beyond it.
    def close_deep(self, uf, fence):
        """Close off the deep pattern past the fence: glue the block by the
        stable partition."""
        for rel in range(self.W):
            for c in self.cell_classes:
                first = self.members[self.cls_id[(c, rel)]][0]
                uf.union(
                    VertexId(first[0], self.sign * (fence + 1 + first[1])),
                    VertexId(c, self.sign * (fence + 1 + rel)),
                )

    def deep_representative(self, v, fence):
        """The vertex in the block past the fence that the vertex v, beyond
        the block, is glued to."""
        d = self.sign * v.index - fence - 1
        c0, rel0 = self.members[self.stable_class(v.cls, d)][0]
        return VertexId(c0, self.sign * (fence + 1 + rel0))

    def end_roots(self, uf, fence):
        """Root in uf of each end, by rank, read off the closed block."""
        roots = {}
        for rel in range(self.W):
            for c in self.cell_classes:
                cid = self.stable_class(c, fence - self.r0 + rel)
                if cid not in self.unbounded:
                    continue
                root = uf.find(VertexId(c, self.sign * (fence + 1 + rel)))
                if roots.setdefault(self.rank[cid], root) != root:
                    raise InternalError("one end spread over two components")
        if set(roots) != set(range(self.end_count)):
            raise InternalError("an end vanished from the closed block")
        return roots


class Graph:
    """A validated graph built from a GraphSpec.

    Construction performs every semantic check: endpoint classes must exist,
    loops are rejected, offsets must be sane for the kind, and descriptions
    whose deep pattern would repeat a detached component forever are refused
    (the component list would be infinite).
    """

    def __init__(self, spec: GraphSpec):
        self.spec = spec
        self.name = spec.name
        self.kind = spec.kind
        self.cell_classes = spec.cell_classes
        self.cap_classes = spec.cap_classes
        self._cell_set = set(spec.cell_classes)
        self._cap_set = set(spec.cap_classes)
        self._resolve_edges(spec)
        self.D = max((ec.span for ec in self.cell_edge_classes), default=0)
        self.W = max(self.D, 1)
        reach = 0
        for ec in self.static_edge_classes:
            for pos in (ec.tail_pos, ec.head_pos):
                if pos is not None:
                    reach = max(reach, abs(pos))
        # radius past which the periodic pattern is clean: caps are cleared
        # and every cell sees its full star
        self.stabilization_radius = reach + self.D + 1
        self._rays = {}
        if self.kind != KIND_FINITE and self.cell_classes:
            signs = (1, -1) if self.kind == KIND_PERIODIC_Z else (1,)
            for sign in signs:
                ray = _RayStructure(self, sign)
                missing = ray.missing_attachment()
                if missing:
                    c, r = ray.members[missing[0]][0]
                    raise InfiniteComponents(
                        "the pattern around vertex class %r repeats with no "
                        "attachment toward the center (direction %s); the "
                        "graph would have infinitely many components"
                        % (c, ray.direction)
                    )
                ray.check_certificate()
                self._rays[sign] = ray
        self._ends = tuple(EndId(ray.direction, k) for ray in self._rays.values()
                           for k in range(ray.end_count))
        self._comp_cache = None
        # facts membership derives from the graph alone, filled on first use
        # so that no decision takes them again: per-end crossing counts, the
        # quotient multigraph (class components, sorted classes, arcs and
        # arc lists per class) and connector paths per hub class
        self._flux_counts = None
        self._quotient = None
        self._connector_cache = {}
        self._pieces_cache = {}
        self._joined_cache = {}

    # -- construction helpers -------------------------------------------

    def _resolve_edges(self, spec):
        known = self._cell_set | self._cap_set
        classes = []
        for raw in spec.edges:
            (tc, ti), (hc, hi) = raw.tail, raw.head
            for cname in (tc, hc):
                if cname not in known:
                    raise UnknownVertexClass(
                        "edge %r endpoint uses unknown vertex class %r"
                        % (raw.name, cname)
                    )
            t_cap = tc in self._cap_set
            h_cap = hc in self._cap_set
            for cname, idx, is_cap in ((tc, ti, t_cap), (hc, hi, h_cap)):
                if is_cap and idx is not None:
                    raise BadOffset(
                        "edge %r: cap vertex %r takes no index"
                        % (raw.name, cname)
                    )
                if idx is not None and abs(idx) > _MAX_OFFSET:
                    raise BadOffset(
                        "edge %r: offset %d out of range" % (raw.name, idx)
                    )
            if self.kind == KIND_FINITE:
                if ti is not None or hi is not None:
                    raise BadOffset(
                        "edge %r: finite graphs take no indices" % raw.name
                    )
                if tc == hc:
                    raise LoopEdge("edge %r is a loop" % raw.name)
                classes.append(EdgeClass(raw.name, tc, None, hc, None, True))
                continue
            if t_cap and h_cap:
                if tc == hc:
                    raise LoopEdge("edge %r is a loop" % raw.name)
                classes.append(EdgeClass(raw.name, tc, None, hc, None, True))
            elif t_cap or h_cap:
                cell_idx = hi if t_cap else ti
                cell_idx = 0 if cell_idx is None else cell_idx
                if self.kind == KIND_PERIODIC_N and cell_idx < 0:
                    raise BadOffset(
                        "edge %r: negative index %d in a periodic-n graph"
                        % (raw.name, cell_idx)
                    )
                tp = None if t_cap else cell_idx
                hp = None if h_cap else cell_idx
                classes.append(EdgeClass(raw.name, tc, tp, hc, hp, True))
            else:
                a = 0 if ti is None else ti
                b = 0 if hi is None else hi
                m = min(a, b)
                a, b = a - m, b - m
                if tc == hc and a == b:
                    raise LoopEdge("edge %r is a loop" % raw.name)
                classes.append(EdgeClass(raw.name, tc, a, hc, b, False))
        self._ec = {ec.name: ec for ec in classes}
        self.cell_edge_classes = tuple(ec for ec in classes if not ec.static)
        self.static_edge_classes = tuple(ec for ec in classes if ec.static)
        # the incidence table, +1 out / -1 in: per cell class, (edge class,
        # offset, sign) for each end of a cell edge class at that class, so
        # vertex c[i] meets instance i - offset; per vertex a static edge
        # meets, (edge class, sign)
        self.cell_incidence = {c: [] for c in spec.cell_classes}
        self.static_incidence = {}
        for ec in self.cell_edge_classes:
            self.cell_incidence[ec.tail_cls].append((ec.name, ec.tail_pos, 1))
            self.cell_incidence[ec.head_cls].append((ec.name, ec.head_pos, -1))
        for ec in self.static_edge_classes:
            for cls, pos, sign in ((ec.tail_cls, ec.tail_pos, 1), (ec.head_cls, ec.head_pos, -1)):
                self.static_incidence.setdefault(VertexId(cls, pos), []).append((ec.name, sign))

    # -- basic queries ---------------------------------------------------

    @property
    def edge_classes(self):
        return self._ec

    def directions(self):
        return tuple(self._rays[s].direction for s in (1, -1) if s in self._rays)

    def require_vertex(self, v: VertexId):
        if not isinstance(v, VertexId):
            raise UnknownVertex("not a vertex: %r" % (v,))
        if v.cls in self._cap_set:
            if v.index is not None:
                raise UnknownVertex(
                    "cap vertex %r takes no index" % v.cls
                )
        elif v.cls in self._cell_set:
            if v.index is None:
                raise UnknownVertex("vertex class %r needs an index" % v.cls)
            if self.kind == KIND_PERIODIC_N and v.index < 0:
                raise UnknownVertex("no vertex %s" % v.label())
        else:
            raise UnknownVertex("unknown vertex class %r" % v.cls)
        return v

    def has_vertex(self, v):
        try:
            self.require_vertex(v)
            return True
        except UnknownVertex:
            return False

    def require_edge(self, e: EdgeId) -> EdgeClass:
        ec = self._ec.get(e.cls)
        if ec is None:
            raise UnknownEdge("unknown edge class %r" % e.cls)
        if ec.static:
            if e.index is not None:
                raise UnknownEdge("edge %r takes no index" % e.cls)
        else:
            if e.index is None:
                raise UnknownEdge("edge class %r needs an index" % e.cls)
            if self.kind == KIND_PERIODIC_N and e.index < 0:
                raise UnknownEdge("no edge %s" % e.label())
        return ec

    def endpoints(self, e: EdgeId):
        """The tail and head of e, read off its edge class; require_edge
        sees only an edge the table cannot place, and raises what is wrong
        with it."""
        ec = self._ec.get(e.cls)
        if (ec is None or ec.static != (e.index is None)
                or (self.kind == KIND_PERIODIC_N and not ec.static and e.index < 0)):
            self.require_edge(e)
        return ec.ends(e.index)

    def dart_ends(self, d: Dart):
        t, h = self.endpoints(d.edge)
        return (t, h) if d.forward else (h, t)

    def neighbors(self, v: VertexId):
        """Darts leaving v, with the vertex each one reaches, in dart_key
        order; read off the incidence table."""
        self.require_vertex(v)
        out = []
        for name, sign in self.static_incidence.get(v, ()):
            ec = self._ec[name]
            out.append((Dart(EdgeId(name, None), sign > 0),
                        VertexId(ec.head_cls, ec.head_pos) if sign > 0
                        else VertexId(ec.tail_cls, ec.tail_pos)))
        for name, pos, sign in self.cell_incidence[v.cls] if v.index is not None else ():
            n = v.index - pos
            if self.kind != KIND_PERIODIC_N or n >= 0:
                ec = self._ec[name]
                out.append((Dart(EdgeId(name, n), sign > 0),
                            VertexId(ec.head_cls, n + ec.head_pos) if sign > 0
                            else VertexId(ec.tail_cls, n + ec.tail_pos)))
        out.sort(key=lambda p: dart_key(p[0]))
        return tuple(out)

    # -- enumeration ------------------------------------------------------

    def cell_instances_within(self, lo, hi):
        """Cell-cell edge instances whose endpoint cells all lie in [lo, hi]."""
        for ec in self.cell_edge_classes:
            start = lo
            if self.kind == KIND_PERIODIC_N:
                start = max(lo, 0)
            for n in range(start, hi - ec.span + 1):
                yield EdgeId(ec.name, n)

    def static_instances(self):
        for ec in self.static_edge_classes:
            yield EdgeId(ec.name, None)

    def cap_vertices(self):
        return tuple(VertexId(c, None) for c in self.cap_classes)

    def cell_vertices_within(self, lo, hi):
        if self.kind == KIND_PERIODIC_N:
            lo = max(lo, 0)
        for c in self.cell_classes:
            for n in range(lo, hi + 1):
                yield VertexId(c, n)

    # -- local structure --------------------------------------------------

    def truncate(self, r):
        if not isinstance(r, int) or r < 0:
            raise FormatError("radius must be a nonnegative integer")
        verts = list(self.cap_vertices())
        if self.kind != KIND_FINITE:
            verts.extend(self.cell_vertices_within(-r, r))
        vset = set(verts)
        edges = set(self.static_instances())
        edges = {e for e in edges if all(p in vset for p in self.endpoints(e))}
        if self.kind != KIND_FINITE:
            edges.update(self.cell_instances_within(-r, r))
        boundary = []
        for u in verts:
            if any(w not in vset for _, w in self.neighbors(u)):
                boundary.append(u)
        return Truncation(
            r,
            tuple(sorted(vset, key=vertex_key)),
            tuple(sorted(edges, key=edge_key)),
            tuple(sorted(boundary, key=vertex_key)),
        )

    # -- ends --------------------------------------------------------------

    def ends(self):
        return self._ends

    def deep_period(self, sign):
        """Shift, in cells, that maps every deep vertex in direction sign
        (+1 or -1) into the half-spaces of the same ends."""
        return self._rays[sign].period()

    def require_end(self, end: EndId):
        if end not in self._ends:
            raise UnknownEnd("graph has no end %s" % (end,))
        return end

    # -- components ---------------------------------------------------------

    def _cells_joined(self, lo, hi, deleted, keep):
        """Union-find parents of the cells lo..hi but the deleted ones,
        joined by the cell edges among them, whose ends are read off the
        edge class. With keep and no deleted cell the answer is kept per
        graph and shared, so that restrictions build their core window
        once; callers copy it before they union."""
        keep = keep and not deleted
        got = self._joined_cache.get((lo, hi)) if keep else None
        if got is not None:
            return got
        uf = UnionFind(v for v in self.cell_vertices_within(lo, hi) if v not in deleted)
        parent, find = uf.parent, uf.find
        start = max(lo, 0) if self.kind == KIND_PERIODIC_N else lo
        for ec in self.cell_edge_classes:
            tc, tp, hc, hp = ec.tail_cls, ec.tail_pos, ec.head_cls, ec.head_pos
            for n in range(start, hi - ec.span + 1):
                t, h = VertexId(tc, n + tp), VertexId(hc, n + hp)
                if t in parent and h in parent:
                    rt, rh = find(t), find(h)
                    if rt != rh:
                        parent[rh] = rt
        if keep:
            self._joined_cache[(lo, hi)] = parent
        return parent

    def _stretch(self, lo, hi):
        """Pairs (u, r) over the first and last W of the cells lo..hi (at
        least W cells, met by no static edge): r stands for u's piece of
        those cells, joined through the stretch. Cell edges repeat in every
        cell, so the pieces depend on the length n alone: below 3W cells
        `_cells_joined` finds them, and a longer stretch is two shorter ones
        glued at a shared block of W cells, which no edge jumps over. So n
        cells cost O(log n) gluings, memoized per graph."""
        n, W = hi - lo + 1, self.W
        pairs = self._pieces_cache.get(n)
        if pairs is None:
            uf = UnionFind()
            if n < 3 * W:
                uf.parent = self._cells_joined(0, n - 1, (), False)
            else:
                m = (n + W) // 2
                uf.join(self._stretch(0, m - 1) + self._stretch(m - W, n - 1))
            reps = {}
            pairs = self._pieces_cache[n] = [
                (u, reps.setdefault(uf.find(u), u)) for u in
                (VertexId(c, i) for c in self.cell_classes for i in (*range(W), *range(n - W, n)))]
        return [(VertexId(u.cls, u.index + lo), VertexId(r.cls, r.index + lo)) for u, r in pairs]

    def _components_info(self):
        """Components of the window of caps and cells within M + W, closed
        off past M by the stable partition (`_Windows`)."""
        if self._comp_cache is not None:
            return self._comp_cache
        nb = max(1, len(self.cell_classes) * self.W)
        M = self.stabilization_radius + (nb + 3) * self.W
        win = _Windows(self, frozenset(), M + self.W, 0)
        raw = sorted(
            win.uf.groups().values(),
            key=lambda ms: min(vertex_key(u) for u in ms),
        )
        comps = []
        root_index = {}
        for i, ms in enumerate(raw):
            root = win.uf.find(ms[0])
            root_index[root] = i
            ends = tuple(e for e in self._ends if win.roots[e] == root)
            finite = not ends
            if finite and any(
                u.index is not None and abs(u.index) > M for u in ms
            ):
                raise InternalError("finite component reached the closure block")
            comps.append(
                Component(
                    index=i,
                    representative=min(ms, key=vertex_key),
                    cell_classes=tuple(
                        sorted({u.cls for u in ms if u.index is not None})
                    ),
                    caps=tuple(sorted({u.cls for u in ms if u.index is None})),
                    ends=ends,
                    finite=finite,
                    size=len(ms) if finite else None,
                )
            )
        self._comp_cache = (win, tuple(comps), root_index)
        return self._comp_cache

    def components(self):
        return self._components_info()[1]

    def component_of(self, v):
        self.require_vertex(v)
        win, _comps, root_index = self._components_info()
        return root_index[win.find(self, v)]

    # -- half spaces ---------------------------------------------------------

    def _end_past(self, v, radius):
        """The end whose half space past the fence at radius holds the cell
        vertex v (|v.index| > radius), or None when v's piece is finite.

        Past any fence the cell graph is a translate of the one past r0:
        cell edges repeat in every cell (on periodic-n from cell 0 on), and
        half spaces leave the caps out. So v's piece is the translate of
        the piece, past r0, of the stable class at v's depth, and holds the
        class's first member moved out by radius - r0. For radius >= r0
        that vertex lies past r0, and the stable class there names the end.
        Below r0 it can fall inside r0, where the block partition says
        nothing, so fence and member first move out together by a multiple
        of the deep period: the shift maps every piece past the fence onto
        one past the moved fence, in the half space of the same end."""
        sign = 1 if v.index > 0 else -1
        ray = self._rays[sign]
        cid = ray.stable_class(v.cls, sign * v.index - radius - 1)
        if cid not in ray.unbounded:
            return None
        if radius < ray.r0:
            p = ray.period()
            radius += -(-(ray.r0 - radius) // p) * p
        c0, rel0 = ray.members[cid][0]
        deep = ray.stable_class(c0, rel0 + radius - ray.r0)
        return EndId(ray.direction, ray.rank[deep])

    def in_half_space(self, v, end: EndId, radius):
        """Whether v lies in the unbounded piece that the given end inhabits
        after the radius-`radius` truncation is removed. Pieces are those of
        the cell graph past the fence; caps never lie in a half space."""
        self.require_vertex(v)
        self.require_end(end)
        if not isinstance(radius, int) or radius < 0:
            raise FormatError("radius must be a nonnegative integer")
        if v.index is None:
            return False
        sign = 1 if end.direction == "+" else -1
        if sign * v.index <= radius:
            return False
        return self._end_past(v, radius) == end

    # -- rays ------------------------------------------------------------------

    def walk_from(self, v, darts):
        """Follow darts from v, checking that they chain. Returns every
        visited vertex, start included."""
        self.require_vertex(v)
        seq = [v]
        cur = v
        for d in darts:
            t, h = self.endpoints(d.edge)
            frm, to = (t, h) if d.forward else (h, t)
            if frm != cur:
                raise NotARay(
                    "dart %s does not start at %s" % (d.label(), cur.label())
                )
            cur = to
            seq.append(cur)
        return seq

    def check_ray(self, ray: Ray):
        if self.kind == KIND_FINITE:
            raise NotARay("finite graphs have no rays")
        if not ray.repeat:
            raise NotARay("empty repeat block")
        if ray.shift == 0:
            raise NotARay("repeat block must shift")
        if self.kind == KIND_PERIODIC_N and ray.shift < 0:
            raise NotARay("negative drift leaves a periodic-n graph")
        lead = self.walk_from(ray.start, ray.initial)
        v1 = lead[-1]
        if v1.index is None:
            raise NotARay("repeat block starts on a cap vertex")
        per = self.walk_from(v1, ray.repeat)
        v2 = per[-1]
        for u in per:
            if u.index is None:
                raise NotARay("repeat block visits cap vertex %s" % u.label())
        if v2.cls != v1.cls or v2.index - v1.index != ray.shift:
            raise NotARay(
                "repeat block moves %s to %s, not a %+d shift"
                % (v1.label(), v2.label(), ray.shift)
            )
        dup = first_shared(lead[:-1], [(u.cls, u.index, ray.shift) for u in per[:-1]])
        if dup is not None:
            raise NotARay("path revisits %s" % VertexId(*dup).label())
        return v1, per

    def end_of_ray(self, ray: Ray):
        v1, per = self.check_ray(ray)
        sign = 1 if ray.shift > 0 else -1
        r0 = self.stabilization_radius
        mrel = min(sign * u.index - sign * v1.index for u in per)
        need = r0 + 1 - mrel - sign * v1.index
        j = max(0, -(-need // abs(ray.shift)))
        end = self._end_past(VertexId(v1.cls, v1.index + j * ray.shift), r0)
        if end is None:
            raise InternalError("ray tail escaped every end")
        return end


class _Windows:
    """Connectivity of G - deleted, read off windows of the graph: one of
    the caps and the cells within core, widened by the largest |index| of
    a deleted vertex there, and one of the cells within margin of each
    other deleted vertex, merged where they meet. A union-find joins each
    window by its edges. A stretch of cells between two windows holds no
    deleted vertex and meets no static edge, so it joins the facing blocks
    of its windows as `Graph._stretch` says, and the outermost windows are
    closed off by the stable partition (`_RayStructure.close_deep`)."""

    def __init__(self, g, deleted, core, margin):
        # no reference back to g, so a dropped graph is freed at once
        W = g.W
        cells = [v.index for v in deleted if v.index is not None]
        r = core + max([abs(i) for i in cells if abs(i) <= core], default=0)
        self.spans = []
        for lo, hi in sorted([(-r, r)] + [(i - margin, i + margin) for i in cells if abs(i) > core]):
            if self.spans and lo <= self.spans[-1][1] + 1:
                self.spans[-1] = (self.spans[-1][0], max(hi, self.spans[-1][1]))
            else:
                self.spans.append((lo, hi))
        self.fence = {1: self.spans[-1][1], -1: -self.spans[0][0]}
        uf = self.uf = UnionFind(v for v in g.cap_vertices() if v not in deleted)
        # restrictions (margin > 0) share their core window per graph; the
        # components' window is built once per graph anyway
        for lo, hi in self.spans:
            cut = {v for v in deleted if v.index is not None and lo <= v.index <= hi}
            uf.parent.update(g._cells_joined(lo, hi, cut, margin > 0))
        for ec in g.static_edge_classes:
            t, h = VertexId(ec.tail_cls, ec.tail_pos), VertexId(ec.head_cls, ec.head_pos)
            if t in uf.parent and h in uf.parent:
                uf.union(t, h)
        for (_lo, hi), (lo, _hi) in zip(self.spans, self.spans[1:]):
            uf.join(g._stretch(hi - W + 1, lo + W - 1))
        # close every side before reading any roots: a later closure can
        # merge the roots read off an earlier side
        for sign, ray in g._rays.items():
            ray.close_deep(uf, self.fence[sign] - W)
        self.roots = {}
        for sign, ray in g._rays.items():
            for rk, root in ray.end_roots(uf, self.fence[sign] - W).items():
                self.roots[EndId(ray.direction, rk)] = root

    def find(self, g, v):
        """The root of v's component (v not deleted) on the graph g. Past
        the outermost windows v is answered by the vertex of the closed
        block it is glued to; in a stretch, by joining v's block to the
        facing blocks through the two stretches it splits. Every piece of a
        stretch meets one of them, or the pattern would repeat a component."""
        uf = self.uf
        if v.index is None or v in uf.parent:
            return uf.find(v)
        sign = 1 if v.index > 0 else -1
        if sign * v.index > self.fence[sign]:
            return uf.find(g._rays[sign].deep_representative(v, self.fence[sign] - g.W))
        i = bisect.bisect(self.spans, (v.index,))
        local = UnionFind()
        local.join(g._stretch(self.spans[i - 1][1] - g.W + 1, v.index + g.W - 1)
                   + g._stretch(v.index, self.spans[i][0] + g.W - 1))
        root = local.find(v)
        for u in local.parent:
            if u in uf.parent and local.find(u) == root:
                return uf.find(u)
        raise InternalError("a piece of a stretch meets no window")


def graph_from_text(text) -> Graph:
    return Graph(parse_graph_text(text))


def parse_vertex_label(text) -> VertexId:
    """Parse "cls" or "cls[3]". Syntax only, no graph lookup."""
    m = _ENDPOINT_RE.match(text.strip())
    if not m:
        raise FormatError("bad vertex %r" % text)
    idx = m.group(2)
    return VertexId(m.group(1), int(idx) if idx is not None else None)


def parse_edge_label(text) -> EdgeId:
    m = _ENDPOINT_RE.match(text.strip())
    if not m:
        raise FormatError("bad edge %r" % text)
    idx = m.group(2)
    return EdgeId(m.group(1), int(idx) if idx is not None else None)


def json_list(obj, key, what, strings=False):
    """obj[key] (absent: empty) when it is a list, of strings if asked;
    anything else is a FormatError naming what holds it."""
    items = obj.get(key, [])
    if not isinstance(items, list):
        raise FormatError("%s %r must be a list" % (what, key))
    if strings and not all(isinstance(x, str) for x in items):
        raise FormatError("%s %r must list strings" % (what, key))
    return items


def json_int(obj, key, what, null=False):
    """obj[key] when it is an integer, or None when null is allowed and it
    is absent or null; a boolean or anything else is a FormatError naming
    what holds it."""
    x = obj.get(key)
    if x is None and null:
        return None
    if not isinstance(x, int) or isinstance(x, bool):
        raise FormatError("%s %r must be an integer%s"
                          % (what, key, " or null" if null else ""))
    return x


def parse_dart_label(text) -> Dart:
    t = text.strip()
    if not t or t[-1] not in "+-":
        raise FormatError("bad dart %r, expected e.g. rail[0]+ " % text)
    return Dart(parse_edge_label(t[:-1]), t[-1] == "+")
