"""Combinatorial 1-chains on the compactified graph.

A chain is a finite list of weighted simplices plus a finite list of
weighted shift-periodic simplex families. The simplex dictionary is small
on purpose: passes, finite walks, constants, and end jumps (out along one
ray, back along another ray into the same end). Every continuous 1-cycle
is homologous to a chain of this shape, so the dictionary is dense enough
for the homology operations built on top of it.

Each simplex kind answers for itself (`_Simplex`), and the chain
operations read it through that protocol only. A family moves its
template k*step cells for member k, except when the template names no
cell dart (a constant: when its point has no index): then every member
is the template itself, and the family is coeff * width copies of it.

The module provides admissibility checking, the boundary operator, the
signed edge-traversal count (as an EdgeVector), subdivision into passes,
the cycle test, homology classes and comparison, H0/Hn descriptors, and
restriction of a chain to an admissible subgraph pair.

Edge and vertex counts go through vectors._Counts, the counter that also
re-sums circle decompositions, so they cost what the chain's description
costs, not the size of its indices. A sum that grows or is periodic but
not constant raises NotRepresentable for edges and InfiniteBoundarySupport
for vertices.
"""

import math
from dataclasses import dataclass
from functools import cached_property

from .errors import (
    BadDimension,
    EndcycleError,
    FormatError,
    GraphMismatch,
    InfiniteBoundarySupport,
    NonzeroBoundary,
    NotACycle,
    NotAdmissible,
    NotAdmissiblePair,
    NotInCycleSpace,
    NotRepresentable,
)
from .graph import (
    KIND_FINITE,
    KIND_PERIODIC_N,
    Dart,
    EndId,
    Ray,
    VertexId,
    _Windows,
    first_shared,
    parse_dart_label,
    parse_edge_label,
    parse_vertex_label,
    shift_id,
    vertex_key,
)
# is_member is not called here; perfbench/harness.py traces it by this name
from .membership import _check_end_flux, _depth, is_member  # noqa: F401
from .vectors import EdgeVector, _check_width, _Counts


# -- simplices ----------------------------------------------------------------


class _Simplex:
    """What the chain operations ask of a simplex: check(g); faces(g), its
    (tail, head), None for a constant at an end; parts(), the vertices and
    darts it names, its rays' lead-ins and blocks included; rays(), the
    rays it runs out and back along; count(counts, c, lo, hi, step), c
    times its darts moved k*step cells for every k in [lo, hi]; to_text(g);
    moves, whether a family moves it; and shifted(k)."""

    def rays(self):
        return ()

    @cached_property
    def moves(self):
        """Whether a family moves this template: when it names a cell dart."""
        return any(isinstance(p, Dart) and p.edge.index is not None for p in self.parts())

    def shifted(self, k):
        """Member k of a family of this template: the template moved k
        cells (static edges and caps stay), or itself when it does not move."""
        return self._moved(k) if k and self.moves else self

    def count(self, counts, c, lo, hi, step):
        counts.darts(_darts(self), c, lo, hi, step)


def _darts(s):
    """The darts s names, its rays' included."""
    return [p for p in s.parts() if isinstance(p, Dart)]


@dataclass(frozen=True)
class Pass(_Simplex):
    """One traversal of a single edge."""

    dart: Dart

    def check(self, g):
        g.require_edge(self.dart.edge)

    def faces(self, g):
        return g.dart_ends(self.dart)

    def parts(self):
        return (self.dart,)

    def _moved(self, k):
        return Pass(shift_id(self.dart, k))

    def to_text(self, g):
        return "pass %s %s" % (self.dart.edge.label(), "+" if self.dart.forward else "-")


@dataclass(frozen=True)
class Walk(_Simplex):
    """A finite walk given by its start vertex and a chaining dart list."""

    start: VertexId
    darts: tuple

    def check(self, g):
        if not self.darts:
            raise FormatError("a walk needs at least one edge")
        g.walk_from(self.start, self.darts)

    def faces(self, g):
        return self.start, g.dart_ends(self.darts[-1])[1]

    def parts(self):
        return (self.start, *self.darts)

    def _moved(self, k):
        return Walk(shift_id(self.start, k), tuple(shift_id(d, k) for d in self.darts))

    def to_text(self, g):
        seq = g.walk_from(self.start, self.darts)
        return "walk " + " ".join([seq[0].label()] + [
            x.label() for d, v in zip(self.darts, seq[1:]) for x in (d.edge, v)])


@dataclass(frozen=True)
class Constant(_Simplex):
    """The constant simplex at a vertex or an end. The only degenerate
    kind; a constant at an end has its 0-face off the graph and is
    therefore never admissible."""

    point: object  # VertexId or EndId

    def check(self, g):
        if isinstance(self.point, EndId):
            g.require_end(self.point)
        else:
            g.require_vertex(self.point)

    def faces(self, g):
        return None if isinstance(self.point, EndId) else (self.point, self.point)

    def parts(self):
        return () if isinstance(self.point, EndId) else (self.point,)

    @cached_property
    def moves(self):
        """A constant moves when its point has an index."""
        return any(v.index is not None for v in self.parts())

    def _moved(self, k):
        return Constant(shift_id(self.point, k))

    def to_text(self, g):
        return "const %s" % self.point.label()


@dataclass(frozen=True)
class EndJump(_Simplex):
    """Out along one ray, through the common end, and back into the start
    of the second ray. Both 0-faces are vertices."""

    out_ray: Ray
    in_ray: Ray

    def check(self, g):
        a = g.end_of_ray(self.out_ray)
        b = g.end_of_ray(self.in_ray)
        if a != b:
            raise FormatError(
                "end jump rays converge to %s and %s" % (a.label(), b.label())
            )

    def faces(self, g):
        return self.out_ray.start, self.in_ray.start

    def parts(self):
        return tuple(p for r in self.rays() for p in (r.start, *r.initial, *r.repeat))

    def rays(self):
        return self.out_ray, self.in_ray

    def count(self, counts, c, lo, hi, step):
        counts.ray(self.out_ray, c, lo, hi, step)
        # the return leg runs its ray backwards, so every dart flips
        counts.ray(self.in_ray, -c, lo, hi, step)

    def _moved(self, k):
        return EndJump(shift_id(self.out_ray, k), shift_id(self.in_ray, k))

    def to_text(self, g):
        return "endjump %s ; %s" % tuple(
            " ".join([r.start.label(), *(d.label() for d in r.initial), "repeat",
                      *(d.label() for d in r.repeat)]) for r in self.rays())


def _simplex(s):
    if not isinstance(s, _Simplex):
        raise FormatError("not a simplex: %r" % (s,))
    return s


def _pinned(g, s):
    """The vertices of s that no member of a family of s moves off, for
    admissibility witnesses: its caps and the ends of its static darts."""
    out = {p for p in s.parts() if isinstance(p, VertexId) and p.index is None}
    for d in _darts(s):
        if d.edge.index is None:
            out.update(g.dart_ends(d))
    return out



# -- chain representations ----------------------------------------------------


@dataclass(frozen=True)
class PeriodicMember:
    """coefficient * sum of member k of the template (template.shifted(k *
    step)) over all k in [lo, hi]. An open range end is encoded as None."""

    coeff: int
    template: object
    lo: int | None
    hi: int | None
    step: int = 1


@dataclass(frozen=True)
class ChainRep:
    graph: object
    finite: tuple = ()
    periodic: tuple = ()

    def __post_init__(self):
        g = self.graph
        for coeff, s in self.finite:
            if not isinstance(coeff, int):
                raise FormatError("coefficients must be integers")
            _simplex(s).check(g)
        for m in self.periodic:
            _check_member(g, m)

    def __add__(self, other):
        if not isinstance(other, ChainRep):
            return NotImplemented
        if other.graph.spec != self.graph.spec:
            raise GraphMismatch("chains belong to different graphs")
        return ChainRep(
            self.graph,
            self.finite + other.finite,
            self.periodic + other.periodic,
        )

    def scale(self, c: int):
        if not isinstance(c, int):
            raise FormatError("scalars must be integers")
        if c == 0:
            return ChainRep(self.graph)
        return ChainRep(
            self.graph,
            tuple((c * w, s) for w, s in self.finite),
            tuple(
                PeriodicMember(c * m.coeff, m.template, m.lo, m.hi, m.step)
                for m in self.periodic
            ),
        )

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self.__add__(other.scale(-1))


def _check_member(g, m):
    if not isinstance(m, PeriodicMember):
        raise FormatError("periodic members must be PeriodicMember values")
    if not isinstance(m.coeff, int):
        raise FormatError("coefficients must be integers")
    if not isinstance(m.step, int) or m.step < 1:
        raise FormatError("family step must be a positive integer")
    for b in (m.lo, m.hi):
        if b is not None and not isinstance(b, int):
            raise FormatError("family range ends must be integers or None")
    if m.lo is not None and m.hi is not None and m.lo > m.hi:
        raise FormatError("empty family range %d..%d" % (m.lo, m.hi))
    if g.kind == KIND_FINITE:
        raise FormatError("finite graphs have no periodic members")
    if _simplex(m.template).moves and g.kind == KIND_PERIODIC_N and m.lo is None:
        raise FormatError("family range slides off a periodic-n graph")
    # a template with both pinned and moving parts stops chaining as soon
    # as it is shifted, so validate a second instance whenever one exists
    probes = []
    if m.lo is not None:
        probes.append(m.lo)
        if m.hi is None or m.hi > m.lo:
            probes.append(m.lo + 1)
    elif m.hi is not None:
        probes.extend([m.hi, m.hi - 1])
    else:
        probes.extend([0, 1])
    for k in probes:
        m.template.shifted(k * m.step).check(g)


def _member_width(m):
    if m.lo is None or m.hi is None:
        return None
    return m.hi - m.lo + 1


def _spread(rep):
    """(coeff, simplex, lo, hi, step) for each member with a nonzero
    coefficient, a finite one over the range 0..0. A family whose template
    does not move is coeff * width copies of the template in place;
    admissibility has bounded it."""
    out = [(c, s, 0, 0, 1) for c, s in rep.finite if c]
    for m in rep.periodic:
        if m.coeff and m.template.moves:
            out.append((m.coeff, m.template, m.lo, m.hi, m.step))
        elif m.coeff:
            out.append((m.coeff * _member_width(m), m.template, 0, 0, 1))
    return out


# -- admissibility ------------------------------------------------------------


@dataclass(frozen=True)
class AdmissibilityReport:
    ok: bool
    witness: VertexId | None = None
    reason: str | None = None

    def __bool__(self):
        return self.ok


def check_admissible(g, rep: ChainRep) -> AdmissibilityReport:
    """Local finiteness of the member family plus the 0-face condition.

    A finite list of members is always locally finite, so only infinite
    shift ranges can fail: a template with a pinned part repeats through
    the same point forever, and an end-jump family shifted against its
    rays covers a fixed vertex for infinitely many shifts. The witness is
    the smallest vertex that is hit infinitely often."""
    if rep.graph.spec != g.spec:
        raise GraphMismatch("chain belongs to a different graph")
    witnesses = []
    reasons = []
    members = [(c, s, None) for c, s in rep.finite]
    members += [(m.coeff, m.template, m) for m in rep.periodic]
    for coeff, s, m in members:
        if not coeff:
            continue
        if not s.parts():  # a constant at an end
            reasons.append(
                "a constant simplex at %s has its 0-face off the graph"
                % s.point.label()
            )
            continue
        if not m or _member_width(m) is not None:
            continue
        pinned = _pinned(g, s)
        if pinned:
            witnesses.append(min(pinned, key=vertex_key))
            continue
        for ray in s.rays():
            if (ray.shift > 0 and m.lo is None) or (ray.shift < 0 and m.hi is None):
                anchor, _per = g.check_ray(ray)
                witnesses.append(anchor)
    if witnesses:
        w = min(witnesses, key=vertex_key)
        return AdmissibilityReport(
            False, w, "%s lies in infinitely many member images" % w.label()
        )
    if reasons:
        return AdmissibilityReport(False, None, reasons[0])
    return AdmissibilityReport(True)


def _require_admissible(g, rep):
    report = check_admissible(g, rep)
    if not report.ok:
        raise NotAdmissible(report.reason, witness=report.witness)
    return report


# -- zero chains and the boundary ---------------------------------------------


@dataclass(frozen=True)
class ZeroChain:
    """A finitely supported integer combination of vertices."""

    graph: object
    coeffs: tuple = ()  # sorted ((VertexId, int), ...)

    @classmethod
    def from_dict(cls, graph, d):
        items = tuple(
            (v, c)
            for v, c in sorted(d.items(), key=lambda p: vertex_key(p[0]))
            if c
        )
        return cls(graph, items)

    def get(self, v):
        for u, c in self.coeffs:
            if u == v:
                return c
        return 0

    def support(self):
        return tuple(v for v, _c in self.coeffs)

    def is_zero(self):
        return not self.coeffs

    def total(self):
        return sum(c for _v, c in self.coeffs)

    def to_text(self):
        return "\n".join("%s = %d" % (v.label(), c) for v, c in self.coeffs)


def boundary(rep: ChainRep) -> ZeroChain:
    """Signed endpoint count of every member. Periodic members telescope;
    a family whose endpoints march along different tracks has infinite
    boundary support, which is an error."""
    _require_admissible(rep.graph, rep)
    return _boundary(rep)


def _boundary(rep):
    g = rep.graph
    counts = _Counts(g)
    for coeff, s, lo, hi, step in _spread(rep):
        faces = s.faces(g)
        if faces is None or faces[0] == faces[1]:
            continue
        tail, head = faces
        counts.over_range(head.cls, head.index, coeff, lo, hi, step)
        counts.over_range(tail.cls, tail.index, -coeff, lo, hi, step)
    failures = counts.settle()
    counted = counts.acc.vector()
    bad = sorted({cls for cls, _why in failures} | {cls for cls, _d in counted.tails})
    if bad:
        raise InfiniteBoundarySupport(
            "boundary support on %r does not telescope" % bad[0],
            witness_class=bad[0],
        )
    return ZeroChain.from_dict(
        g, {VertexId(e.cls, e.index): v for e, v in counted.vals.items()}
    )


# -- the winding vector -------------------------------------------------------


def edge_vector_of(rep: ChainRep) -> EdgeVector:
    """The signed per-edge traversal count of the chain.

    The count of an admissible chain is finite on every edge, but it only
    fits the vector format when it is eventually constant along every
    escape direction; families of end jumps, for instance, produce counts
    that keep growing, and those raise NotRepresentable."""
    _require_admissible(rep.graph, rep)
    return _edge_vector(rep)


def _edge_vector(rep):
    counts = _Counts(rep.graph)
    for coeff, s, lo, hi, step in _spread(rep):
        s.count(counts, coeff, lo, hi, step)
    failures = counts.settle()
    if failures:
        raise NotRepresentable("traversal counts on %r %s" % failures[0])
    return counts.acc.vector()


# -- subdivision --------------------------------------------------------------


def _passes(coeff, s):
    """coeff * s as pass members: a pass per dart, and each ray (the second
    run backwards) as its lead-in passes and ray-aligned pass families."""
    if not s.rays():
        return [(coeff, Pass(d)) for d in _darts(s)], []
    finite, periodic = [], []
    for ray, c in zip(s.rays(), (coeff, -coeff)):
        finite += [(c, Pass(d)) for d in ray.initial]
        lo, hi = (0, None) if ray.shift > 0 else (None, 0)
        periodic += [PeriodicMember(c, Pass(d), lo, hi, abs(ray.shift)) for d in ray.repeat]
    return finite, periodic


def subdivide_to_passes(rep: ChainRep) -> ChainRep:
    """Rewrite the chain as a sum of passes with the same edge vector and
    the same boundary. Walks split at their vertex visits, and a family of
    walks into the families of their passes; end jumps become ray-aligned
    periodic pass families, which do not nest in a family, so a family of
    end jumps is taken member by member."""
    g = rep.graph
    _require_admissible(g, rep)
    finite, periodic = [], []

    def add(coeff, s):
        f, p = _passes(coeff, s)
        finite.extend(f)
        periodic.extend(p)

    for coeff, s in rep.finite:
        add(coeff, s)
    for m in rep.periodic:
        if not m.template.rays():
            periodic.extend(PeriodicMember(c, p, m.lo, m.hi, m.step)
                            for c, p in _passes(m.coeff, m.template)[0])
            continue
        width = _member_width(m)
        if width is None:
            raise NotRepresentable(
                "an unbounded family of end jumps does not subdivide"
                " into shift-periodic passes"
            )
        _check_width(width)
        for k in range(m.lo, m.hi + 1):
            add(m.coeff, m.template.shifted(k * m.step))
    return ChainRep(g, tuple(finite), tuple(periodic))


# -- cycles and homology ------------------------------------------------------


def is_cycle_adhoc(g, rep: ChainRep) -> bool:
    """Whether the chain splits into finite closed subchains, tested
    through the cut criterion on its edge vector: homology_class succeeds."""
    try:
        homology_class(g, rep)
    except NotACycle:
        return False
    return True


def homology_class(g, rep: ChainRep) -> EdgeVector:
    """The image of the chain's class under the traversal-count map,
    checked to lie in the cycle space by the cut criterion alone; no
    decomposition is built (is_member of the result gives one). A vertex
    star of the chain's vector sums to the vertex's boundary coefficient,
    so once the boundary is zero only the flux toward each end is left.
    Admissibility is checked once, before the boundary and the vector."""
    _require_admissible(g, rep)
    b = _boundary(rep)
    if not b.is_zero():
        raise NonzeroBoundary(*b.coeffs[0])
    vec = _edge_vector(rep)
    try:
        _check_end_flux(g, vec, _depth(g, vec) + 1)
    except NotInCycleSpace as ex:
        raise NotACycle(ex.cut, ex.cut_sum) from None
    return vec


def homologous(g, rep1: ChainRep, rep2: ChainRep) -> bool:
    """Equal homology classes; the traversal-count map is injective, so
    this is equality of the two edge vectors."""
    return homology_class(g, rep1) == homology_class(g, rep2)


@dataclass(frozen=True)
class GroupDescriptor:
    """A finitely generated free abelian group, with a note saying where
    it came from and one label per free summand."""

    rank: int
    summands: tuple = ()
    note: str = ""

    def describe(self):
        if self.rank == 0:
            return "0"
        if self.rank == 1:
            return "Z"
        return "Z^%d" % self.rank


def h0(g) -> GroupDescriptor:
    comps = g.components()
    return GroupDescriptor(
        rank=len(comps),
        summands=tuple(c.representative.label() for c in comps),
        note="free abelian on the components of the compactified graph",
    )


def augmentation(g, zc: ZeroChain):
    """Coefficient sum per component, in component order. Zero on every
    component characterizes boundaries."""
    if zc.graph.spec != g.spec:
        raise GraphMismatch("zero chain belongs to a different graph")
    out = [0] * len(g.components())
    for v, c in zc.coeffs:
        out[g.component_of(v)] += c
    return tuple(out)


def h_n_trivial(g, n: int) -> GroupDescriptor:
    if not isinstance(n, int) or n <= 1:
        raise BadDimension("dimension must be an integer greater than 1")
    return GroupDescriptor(
        rank=0,
        summands=(),
        note=(
            "the compactified graph is one-dimensional, so every "
            "%d-simplex is degenerate and H_%d vanishes" % (n, n)
        ),
    )


# -- restriction to an admissible pair ----------------------------------------


@dataclass(frozen=True)
class AdmissiblePairSpec:
    """Delete a finite vertex set, keep a subset of the remaining
    components (named by one representative vertex each)."""

    deleted: frozenset
    kept: tuple


class _Region:
    """The kept region of G - D: the components of the kept
    representatives, read off small windows of the graph (`_Windows`):
    one around the core and one around each cluster of deleted vertices.
    A vertex in a stretch between windows is answered by the windows on
    either side, and one past the outermost windows by the vertex of the
    closed block it is glued to. The kept ends are those whose roots are
    kept."""

    def __init__(self, g, pair):
        for v in (*pair.deleted, *pair.kept):
            try:
                g.require_vertex(v)
            except EndcycleError as ex:
                raise NotAdmissiblePair(str(ex))
        for r in pair.kept:
            if r in pair.deleted:
                raise NotAdmissiblePair(
                    "kept representative %s was deleted" % r.label()
                )
        self.g = g
        self.deleted = frozenset(pair.deleted)
        self.dels = {}
        for v in self.deleted:
            self.dels.setdefault(v.cls, set()).add(v.index)
        margin = (len(g.spec.cell_classes) + 3) * g.W + g.D + 2
        self.win = _Windows(g, self.deleted, g.stabilization_radius + margin, margin)
        self.fence = max(self.win.fence.values())
        self.kept_roots = {self.win.find(g, r) for r in pair.kept}
        self.kept_ends = {e for e, root in self.win.roots.items() if root in self.kept_roots}

    def has_vertex(self, v):
        return v not in self.deleted and self.win.find(self.g, v) in self.kept_roots

    def has_ray(self, ray):
        """A ray is connected and its tail runs into its end, so it is kept
        when its end is and none of its vertices is deleted: no deleted
        vertex is on its lead-in or on the line a block vertex walks."""
        g = self.g
        if g.end_of_ray(ray) not in self.kept_ends:
            return False
        lead = g.walk_from(ray.start, ray.initial)
        per = g.walk_from(lead[-1], ray.repeat)[:-1]
        return first_shared([*self.deleted, *lead[:-1]],
                            [(u.cls, u.index, ray.shift) for u in per]) is None

    def keeps(self, s):
        """Whether s.shifted(K) lies in the kept region, as a function of K.
        s is walked once: its rays are tested as rays, and its vertices
        move with it when it moves and they have an index. A walk joins
        its vertices, so a move keeps it when none of its vertices is
        deleted and the first is kept."""
        g = self.g
        if s.rays():
            return lambda K: all(self.has_ray(r) for r in s.shifted(K).rays())
        if not s.parts():
            # a constant at an end: admissibility refuses it unless its
            # coefficient is zero
            return lambda K: s.point in self.kept_ends
        verts = [p for p in s.parts() if isinstance(p, VertexId)]
        verts += [u for d in _darts(s) for u in g.dart_ends(d)]
        moves = s.moves
        pinned = any(u in self.deleted for u in verts if not moves or u.index is None)
        cells = [(self.dels[u.cls], u.index) for u in set(verts)
                 if moves and u.index is not None and u.cls in self.dels]

        def keep(K):
            if pinned or any(i + K in ds for ds, i in cells):
                return False
            return self.win.find(g, shift_id(verts[0], K if moves else 0)) in self.kept_roots

        return keep


def _within(m, a, b):
    """[a, b] cut to the range of the family m; None is an open end."""
    a = m.lo if a is None else a if m.lo is None else max(a, m.lo)
    b = m.hi if b is None else b if m.hi is None else min(b, m.hi)
    return a, b


def restrict_chain(g, pair: AdmissiblePairSpec, rep: ChainRep) -> ChainRep:
    """The sub-chain of members whose whole image lies in the closure of
    the kept region. The deleted set is finite, so the boundary of that
    closure is finite and the result is admissible in the region.

    A family's template is walked once, and member k is tested by moving
    its vertices k * step cells when the template moves. Only the members
    within two steps of a window are scanned, so the count follows the
    windows, not the indices.
    The members between two windows, or beyond the outermost ones, lie
    where the kept ones repeat with the deep pattern: one probe per residue
    of k modulo its period settles each such stretch (`_deep_side`)."""
    _require_admissible(g, rep)
    region = _Region(g, pair)
    finite = [(coeff, s) for coeff, s in rep.finite if region.keeps(s)(0)]
    periodic = []
    for m in rep.periodic:
        keeps = region.keeps(m.template)
        idx = [(p.edge if isinstance(p, Dart) else p).index for p in m.template.parts()]
        idx = [i for i in idx if i is not None] or [0]
        scans = []
        for lo, hi in region.win.spans:
            a = -((max(idx) - lo) // m.step) - 2
            b = (hi - min(idx)) // m.step + 2
            if scans and a <= scans[-1][1] + 1:
                scans[-1][1] = b
            else:
                scans.append([a, b])
        kept = []
        for a, b in scans:
            a, b = _within(m, a, b)
            kept.extend(k for k in range(a, b + 1) if keeps(k * m.step))
        runs, deep = _runs(kept), []
        # the gaps: stretches between windows, then past the last, then
        # before the first, each settled from its end nearest a scan
        gaps = [(b + 1, a - 1, 1) for (_a, b), (a, _b) in zip(scans, scans[1:])]
        for lo, hi, sign in gaps + [(scans[-1][1] + 1, None, 1), (None, scans[0][0] - 1, -1)]:
            lo, hi = _within(m, lo, hi)
            if lo is None or hi is None or lo <= hi:
                near, far = (lo, hi) if sign > 0 else (hi, lo)
                deep += _deep_side(g, keeps, m, near, far, sign, runs)
        for template, lo, hi, step in [(m.template, lo, hi, m.step) for lo, hi in runs] + deep:
            if lo is not None and lo == hi:
                finite.append((m.coeff, template.shifted(lo * step)))
            else:
                periodic.append(PeriodicMember(m.coeff, template, lo, hi, step))
    return ChainRep(g, tuple(finite), tuple(periodic))


def _deep_side(g, keeps, m, near, far, sign, runs):
    """Members of m from k = near outward (sign) to far (None: open) that
    keeps(k * m.step) keeps. When every residue of k modulo the deep period
    is kept, the side joins runs. Otherwise each kept residue is returned
    as its own family (template, lo, hi, step) with the period times m.step
    as its step. A side the graph lacks is reached only by a template
    that does not move, whose members are all one simplex: period 1
    settles it."""
    period = g.deep_period(sign) if ("+" if sign > 0 else "-") in g.directions() else 1
    period //= math.gcd(period, m.step)
    probes = [
        near + sign * r for r in range(period)
        if far is None or sign * (far - near) >= r
    ]
    kept = [k for k in probes if keeps(k * m.step)]
    if len(kept) == len(probes):
        _attach(runs, *((near, far) if sign > 0 else (far, near)))
        return []
    out = []
    for k in kept:
        r = k % period
        # members k, k + sign * period, ... up to far, numbered from r
        j = (k - r) // period
        end = None if far is None else j + sign * (sign * (far - k) // period)
        lo, hi = (j, end) if sign > 0 else (end, j)
        out.append((m.template.shifted(r * m.step), lo, hi, period * m.step))
    return out


def _runs(ks):
    """Maximal runs of consecutive integers, as (lo, hi) pairs."""
    out = []
    for k in sorted(ks):
        if out and out[-1][1] == k - 1:
            out[-1][1] = k
        else:
            out.append([k, k])
    return [(a, b) for a, b in out]


def _attach(runs, lo, hi):
    """Extend the run list with the piece [lo, hi] (None for an open end),
    merged with the runs that end just before it and start just after it,
    in the place of the first of them."""
    before = [i for i, (_a, b) in enumerate(runs) if lo is not None and b == lo - 1]
    after = [i for i, (a, _b) in enumerate(runs) if hi is not None and a == hi + 1]
    touch = sorted(before + after)
    if not touch:
        runs.append((lo, hi))
        return runs
    runs[touch[0]] = (runs[before[0]][0] if before else lo,
                      runs[after[0]][1] if after else hi)
    for i in touch[:0:-1]:
        del runs[i]
    return runs


# -- text formats ---------------------------------------------------------------


def _parse_range(tok, ln):
    if ".." not in tok:
        raise FormatError("expected a range like 0..inf", ln)
    a, b = tok.split("..", 1)

    def side(x, neg_ok):
        x = x.strip()
        if x in ("inf", "+inf"):
            return None
        if x == "-inf":
            if not neg_ok:
                raise FormatError("range is reversed", ln)
            return None
        try:
            return int(x)
        except ValueError:
            raise FormatError("bad range bound %r" % x, ln)

    return side(a, True), side(b, False)


def _parse_ray_spec(g, text, ln):
    toks = text.split()
    if "repeat" not in toks:
        raise FormatError("ray needs a repeat section", ln)
    cut = toks.index("repeat")
    if cut == 0:
        raise FormatError("ray needs a start vertex", ln)
    start = parse_vertex_label(toks[0])
    initial = tuple(parse_dart_label(t) for t in toks[1:cut])
    block = tuple(parse_dart_label(t) for t in toks[cut + 1 :])
    if not block:
        raise FormatError("empty repeat section", ln)
    seq = g.walk_from(start, initial)
    anchor = seq[-1]
    per = g.walk_from(anchor, block)
    last = per[-1]
    if last.cls != anchor.cls or last.index == anchor.index:
        raise FormatError(
            "repeat section must return to class %r at a new cell"
            % anchor.cls,
            ln,
        )
    ray = Ray(start, initial, block, last.index - anchor.index)
    g.check_ray(ray)
    return ray


def _parse_walk(g, toks, ln):
    if len(toks) < 3 or len(toks) % 2 == 0:
        raise FormatError(
            "walk alternates vertices and edges, v e v ...", ln
        )
    verts = [parse_vertex_label(t) for t in toks[0::2]]
    darts = []
    for i, tok in enumerate(toks[1::2]):
        e = parse_edge_label(tok)
        t, h = g.endpoints(e)
        a, b = verts[i], verts[i + 1]
        if (t, h) == (a, b):
            darts.append(Dart(e, True))
        elif (t, h) == (b, a):
            darts.append(Dart(e, False))
        else:
            raise FormatError(
                "edge %s does not join %s and %s"
                % (e.label(), a.label(), b.label()),
                ln,
            )
    return Walk(verts[0], tuple(darts))


def _parse_member_body(g, line, ln):
    toks = line.split()
    head, rest = toks[0], toks[1:]
    if head == "pass":
        body = "".join(rest)
        return Pass(parse_dart_label(body))
    if head == "walk":
        return _parse_walk(g, rest, ln)
    if head == "const":
        if len(rest) != 1:
            raise FormatError("expected: const <vertex|end>", ln)
        tok = rest[0]
        if tok.startswith("end+") or tok.startswith("end-"):
            return Constant(EndId.parse(tok))
        return Constant(parse_vertex_label(tok))
    if head == "endjump":
        body = " ".join(rest)
        if ";" not in body:
            raise FormatError(
                "expected: endjump <ray-spec> ; <ray-spec>", ln
            )
        out_s, in_s = body.split(";", 1)
        return EndJump(
            _parse_ray_spec(g, out_s.strip(), ln),
            _parse_ray_spec(g, in_s.strip(), ln),
        )
    raise FormatError("unknown chain member %r" % head, ln)


def parse_chain_text(g, text) -> ChainRep:
    """Chain file format: one member per line, with an optional integer
    prefix `coeff <n>`, members `pass <dart>`, `walk <v> <edge> <v> ...`,
    `const <vertex|end>`, `endjump <ray> ; <ray>`, and
    `periodic <lo>..<hi> [step <s>] { <member> }` (the braces may span
    lines). A family moves its template k*step cells for member k, except
    when the template names no cell dart (a constant: when its point has
    no index); then every member is the template itself."""
    finite = []
    periodic = []
    lines = text.splitlines()
    i = 0
    while i < len(lines):
        ln = i + 1
        line = lines[i].split("#", 1)[0].strip()
        i += 1
        if not line:
            continue
        coeff = 1
        toks = line.split()
        if toks[0] == "coeff":
            if len(toks) < 3:
                raise FormatError("coeff needs a value and a member", ln)
            try:
                coeff = int(toks[1])
            except ValueError:
                raise FormatError("bad coefficient %r" % toks[1], ln)
            toks = toks[2:]
            line = " ".join(toks)
        if toks[0] == "periodic":
            if "{" not in line:
                raise FormatError("periodic member needs a { body }", ln)
            headpart, _brace, tail = line.partition("{")
            htoks = headpart.split()
            if len(htoks) not in (2, 4):
                raise FormatError(
                    "expected: periodic <lo>..<hi> [step <s>] { ... }", ln
                )
            lo, hi = _parse_range(htoks[1], ln)
            step = 1
            if len(htoks) == 4:
                if htoks[2] != "step":
                    raise FormatError("expected step <s>", ln)
                try:
                    step = int(htoks[3])
                except ValueError:
                    raise FormatError("bad step %r" % htoks[3], ln)
            body = tail
            while "}" not in body:
                if i >= len(lines):
                    raise FormatError("unterminated periodic member", ln)
                body += "\n" + lines[i].split("#", 1)[0]
                i += 1
            body = body[: body.index("}")].strip()
            body = " ".join(body.split())
            if not body:
                raise FormatError("empty periodic member", ln)
            template = _parse_member_body(g, body, ln)
            periodic.append(PeriodicMember(coeff, template, lo, hi, step))
        else:
            finite.append((coeff, _parse_member_body(g, line, ln)))
    return ChainRep(g, tuple(finite), tuple(periodic))


def chain_to_text(rep: ChainRep) -> str:
    g = rep.graph
    out = []
    for coeff, s in rep.finite:
        prefix = "" if coeff == 1 else "coeff %d " % coeff
        out.append(prefix + s.to_text(g))
    for m in rep.periodic:
        prefix = "" if m.coeff == 1 else "coeff %d " % m.coeff
        lo = "-inf" if m.lo is None else str(m.lo)
        hi = "inf" if m.hi is None else str(m.hi)
        stp = "" if m.step == 1 else " step %d" % m.step
        out.append(
            "%speriodic %s..%s%s { %s }"
            % (prefix, lo, hi, stp, m.template.to_text(g))
        )
    return "\n".join(out)


def parse_pair_text(g, text) -> AdmissiblePairSpec:
    """Pair format: `delete <vertex>` and `keep <vertex>` lines."""
    deleted = set()
    kept = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        if len(toks) != 2 or toks[0] not in ("delete", "keep"):
            raise FormatError("expected: delete <vertex> | keep <vertex>", ln)
        v = parse_vertex_label(toks[1])
        if toks[0] == "delete":
            deleted.add(v)
        else:
            kept.append(v)
    return AdmissiblePairSpec(frozenset(deleted), tuple(kept))


def pair_to_text(pair: AdmissiblePairSpec) -> str:
    out = ["delete %s" % v.label() for v in sorted(pair.deleted, key=vertex_key)]
    out.extend("keep %s" % v.label() for v in pair.kept)
    return "\n".join(out)
