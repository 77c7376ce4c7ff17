"""Combinatorial 1-chains on the compactified graph.

A chain is a finite list of weighted simplices plus a finite list of
weighted shift-periodic simplex families. The simplex dictionary is small
on purpose: passes, finite walks, constants, and end jumps (out along one
ray, back along another ray into the same end). Every continuous 1-cycle
is homologous to a chain of this shape, so the dictionary is dense enough
for the homology operations built on top of it.

The module provides admissibility checking, the boundary operator, the
signed edge-traversal count (as an EdgeVector), subdivision into passes,
the cycle test, homology classes and comparison, H0/Hn descriptors, and
restriction of a chain to an admissible subgraph pair.

Edge and vertex counts are written straight into vectors._Breakpoints,
the builder behind every EdgeVector, so they cost what the chain's
description costs, not the size of its indices. A count of stride +-1
(a point, a family of step 1, a single ray repeating with shift +-1) is
one span, and a bounded family of step s > 1 adds one point per member.
Only unbounded runs of stride |s| > 1 and the repeat darts of end-jump
families are evaluated index by index: a family's copies of one repeat
dart form one double run, however wide the family is, and the sum is
evaluated from the nearest anchor to two periods L past the farthest one.
There a constant sum becomes a tail; a growing or non-constant periodic
sum raises NotRepresentable for edges and InfiniteBoundarySupport for
vertices. Two limits remain, both raising NotRepresentable before a loop
starts: a loop over the members of a bounded family or over an evaluation
window may not pass vectors._ENTRY_CAP steps, and L may not exceed
_PERIOD_CAP. The counts themselves are runs; only listing them entry by
entry, as EdgeVector.vals and a boundary's vertices do, stops at
_ENTRY_CAP on one class.
"""

import math
from dataclasses import dataclass, field

from .errors import (
    BadDimension,
    EndcycleError,
    FormatError,
    GraphMismatch,
    InfiniteBoundarySupport,
    InternalError,
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
    EdgeId,
    EndId,
    Ray,
    VertexId,
    parse_dart_label,
    parse_edge_label,
    parse_vertex_label,
    vertex_key,
)
# is_member is not called here; perfbench/harness.py traces it by this name
from .membership import _obstruct, is_member  # noqa: F401
from .vectors import _ENTRY_CAP, EdgeVector, _Breakpoints

_PERIOD_CAP = 4096  # largest period L of one class's unbounded runs


# -- simplices ----------------------------------------------------------------


@dataclass(frozen=True)
class Pass:
    """One traversal of a single edge."""

    dart: Dart


@dataclass(frozen=True)
class Walk:
    """A finite walk given by its start vertex and a chaining dart list."""

    start: VertexId
    darts: tuple


@dataclass(frozen=True)
class Constant:
    """The constant simplex at a vertex or an end. The only degenerate
    kind; a constant at an end has its 0-face off the graph and is
    therefore never admissible."""

    point: object  # VertexId or EndId


@dataclass(frozen=True)
class EndJump:
    """Out along one ray, through the common end, and back into the start
    of the second ray. Both 0-faces are vertices."""

    out_ray: Ray
    in_ray: Ray


SIMPLEX_TYPES = (Pass, Walk, Constant, EndJump)


def _check_simplex(g, s):
    if isinstance(s, Pass):
        g.require_edge(s.dart.edge)
        return
    if isinstance(s, Walk):
        if not s.darts:
            raise FormatError("a walk needs at least one edge")
        g.walk_from(s.start, s.darts)
        return
    if isinstance(s, Constant):
        if isinstance(s.point, EndId):
            g.require_end(s.point)
        else:
            g.require_vertex(s.point)
        return
    if isinstance(s, EndJump):
        a = g.end_of_ray(s.out_ray)
        b = g.end_of_ray(s.in_ray)
        if a != b:
            raise FormatError(
                "end jump rays converge to %s and %s" % (a.label(), b.label())
            )
        return
    raise FormatError("not a simplex: %r" % (s,))


def _simplex_faces(g, s):
    """(tail, head) of the simplex, or None for a constant at an end."""
    if isinstance(s, Pass):
        return g.dart_ends(s.dart)
    if isinstance(s, Walk):
        seq = g.walk_from(s.start, s.darts)
        return seq[0], seq[-1]
    if isinstance(s, Constant):
        if isinstance(s.point, EndId):
            return None
        return s.point, s.point
    if isinstance(s, EndJump):
        return s.out_ray.start, s.in_ray.start
    raise InternalError("unknown simplex kind")


def _shift_id(x, k):
    if x.index is None:
        return x
    return type(x)(x.cls, x.index + k)


def _shift_dart(d, k):
    if d.edge.index is None:
        return d
    return Dart(EdgeId(d.edge.cls, d.edge.index + k), d.forward)


def _shift_ray(r, k):
    return Ray(
        _shift_id(r.start, k),
        tuple(_shift_dart(d, k) for d in r.initial),
        tuple(_shift_dart(d, k) for d in r.repeat),
        r.shift,
    )


def _shift_simplex(s, k):
    if k == 0:
        return s
    if isinstance(s, Pass):
        return Pass(_shift_dart(s.dart, k))
    if isinstance(s, Walk):
        return Walk(
            _shift_id(s.start, k), tuple(_shift_dart(d, k) for d in s.darts)
        )
    if isinstance(s, Constant):
        if isinstance(s.point, EndId):
            return s
        return Constant(_shift_id(s.point, k))
    if isinstance(s, EndJump):
        return EndJump(_shift_ray(s.out_ray, k), _shift_ray(s.in_ray, k))
    raise InternalError("unknown simplex kind")


def _simplex_indices(s):
    """All cell indices appearing in the simplex (vertices and edges)."""
    out = []

    def dart_idx(d):
        if d.edge.index is not None:
            out.append(d.edge.index)

    if isinstance(s, Pass):
        dart_idx(s.dart)
    elif isinstance(s, Walk):
        if s.start.index is not None:
            out.append(s.start.index)
        for d in s.darts:
            dart_idx(d)
    elif isinstance(s, Constant):
        if isinstance(s.point, VertexId) and s.point.index is not None:
            out.append(s.point.index)
    elif isinstance(s, EndJump):
        for r in (s.out_ray, s.in_ray):
            if r.start.index is not None:
                out.append(r.start.index)
            for d in r.initial + r.repeat:
                dart_idx(d)
    return out


def _static_vertices(g, s):
    """Pinned vertices in the simplex image, for admissibility witnesses."""
    out = set()

    def from_dart(d):
        if d.edge.index is None:
            t, h = g.dart_ends(d)
            out.update((t, h))

    if isinstance(s, Pass):
        from_dart(s.dart)
    elif isinstance(s, Walk):
        if s.start.index is None:
            out.add(s.start)
        for d in s.darts:
            from_dart(d)
    elif isinstance(s, Constant):
        if isinstance(s.point, VertexId) and s.point.index is None:
            out.add(s.point)
    elif isinstance(s, EndJump):
        for r in (s.out_ray, s.in_ray):
            if r.start.index is None:
                out.add(r.start)
            for d in r.initial + r.repeat:
                from_dart(d)
    return out


# -- chain representations ----------------------------------------------------


@dataclass(frozen=True)
class PeriodicMember:
    """coefficient * sum of the template shifted by k*step cells, over all
    k in [lo, hi]. An open range end is encoded as None."""

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
            _check_simplex(g, s)
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
    idxs = _simplex_indices(m.template)
    if idxs and g.kind == KIND_PERIODIC_N and m.lo is None:
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
        _check_simplex(g, _shift_simplex(m.template, k * m.step))


def _member_width(m):
    if m.lo is None or m.hi is None:
        return None
    return m.hi - m.lo + 1


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
    for coeff, s in rep.finite:
        if coeff and isinstance(s, Constant) and isinstance(s.point, EndId):
            reasons.append(
                "a constant simplex at %s has its 0-face off the graph"
                % s.point.label()
            )
    for m in rep.periodic:
        if m.coeff == 0:
            continue
        s = m.template
        if isinstance(s, Constant) and isinstance(s.point, EndId):
            reasons.append(
                "a constant simplex at %s has its 0-face off the graph"
                % s.point.label()
            )
            continue
        if _member_width(m) is not None:
            continue
        pinned = _static_vertices(g, s)
        if pinned:
            witnesses.append(min(pinned, key=vertex_key))
            continue
        if isinstance(s, EndJump):
            for ray in (s.out_ray, s.in_ray):
                against = (
                    (ray.shift > 0 and m.lo is None)
                    or (ray.shift < 0 and m.hi is None)
                )
                if against:
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


# -- counts through the breakpoint builder ------------------------------------


class _Counts:
    """Signed counts per cell of one chain, on their way into one
    vectors._Breakpoints. A run of stride +-1 is one span and a bounded run
    of stride s one point per member. Every other count is a double run
    {u + j*s + k*t : j >= 0, 0 <= k < n} with s and t of one sign (n None:
    every k >= 0): an unbounded run of stride |s| > 1 has n = 1, a bounded
    end-jump family n = its width, an unbounded one n = None. Double runs
    wait per class as generators (u, s, t, n, coeff) until settle() writes
    them. Vertex counts use the same (class, index) keys."""

    def __init__(self, graph):
        self.acc = _Breakpoints(graph)
        self.gens = {}

    def point(self, cls, idx, c):
        if idx is None:
            key = EdgeId(cls, None)
            self.acc.statics[key] = self.acc.statics.get(key, 0) + c
        else:
            self.acc.span(cls, idx, idx + 1, c)

    def run(self, cls, u, s, n, c):
        """Add c at u + j*s for 0 <= j < n (n None: every j >= 0)."""
        if not c:
            return
        if s in (1, -1):
            if s > 0:
                self.acc.span(cls, u, None if n is None else u + n, c)
            else:
                self.acc.span(cls, None if n is None else u - n + 1, u + 1, c)
        elif n is None:
            self.double(cls, u, s, s, 1, c)
        else:
            _check_width(n)
            for j in range(n):
                self.acc.span(cls, u + j * s, u + j * s + 1, c)

    def double(self, cls, u, s, t, n, c):
        if (s > 0) != (t > 0):
            raise InternalError("double run directions disagree")
        if n == 1 and s in (1, -1):
            self.run(cls, u, s, None, c)
        elif c:
            self.gens.setdefault(cls, []).append((u, s, t, n, c))

    def over_range(self, cls, idx, c, lo, hi, step):
        """Add c at idx + k*step for every k in [lo, hi] (None: unbounded).
        A pinned cell (idx None) takes c once per member."""
        if idx is None:
            if lo is None or hi is None:
                raise InternalError(
                    "pinned part survived the admissibility gate"
                )
            self.point(cls, None, c * (hi - lo + 1))
        elif lo is None and hi is None:
            self.run(cls, idx, step, None, c)
            self.run(cls, idx - step, -step, None, c)
        elif lo is None:
            self.run(cls, idx + hi * step, -step, None, c)
        else:
            n = None if hi is None else hi - lo + 1
            self.run(cls, idx + lo * step, step, n, c)

    def settle(self):
        """Write the generators into the builder, per class and direction
        (the sign of s): their sum is evaluated from the nearest anchor out
        to two periods L past the farthest one, where a generator's farthest
        anchor is u + (n-1)*t. Past it, a bounded double run repeats with
        period |s|, and an unbounded one's count N(m) of j*s + k*t = m keeps
        N(m + L) = N(m) + [gcd(s, t) | m] for every m >= 0 (Popoviciu) with
        L = lcm(s, t), so the sum gains a fixed amount per residue each
        period. Two equal probe periods mean it gains nothing, and a
        constant one is a tail. Returns (class, reason) for each sum that
        does not settle."""
        failures = []
        for cls, gens in sorted(self.gens.items()):
            for sign in (1, -1):
                group = [gen for gen in gens if (gen[1] > 0) == (sign > 0)]
                if group:
                    why = self._settle_side(cls, group, sign)
                    if why:
                        failures.append((cls, why))
        return failures

    def _settle_side(self, cls, group, sign):
        # x counts outward: x = sign * index, strides taken positive
        gens = [
            (sign * u, abs(s), abs(t), n, c) for u, s, t, n, c in group
        ]
        near = min(a for a, _s, _t, _n, _c in gens)
        far = max(
            a if n is None else a + (n - 1) * t for a, _s, t, n, _c in gens
        )
        period = 1
        for _a, s, t, n, _c in gens:
            period = math.lcm(period, s if n is not None else math.lcm(s, t))
        if period > _PERIOD_CAP:
            raise NotRepresentable(
                "per-class period %d is too large to certify" % period
            )
        if far - near + 2 * period > _ENTRY_CAP:
            raise NotRepresentable("support too large to materialize")
        vals = [
            sum(c * _double_count(x - a, s, t, n) for a, s, t, n, c in gens)
            for x in range(near, far + 2 * period)
        ]
        w1 = vals[-2 * period : -period]
        if w1 != vals[-period:]:
            return "grow without bound"
        if any(v != w1[0] for v in w1):
            return "are periodic but not constant"
        for x, v in zip(range(near, far), vals):
            self.point(cls, sign * x, v)
        if sign > 0:
            self.acc.span(cls, far, None, w1[0])
        else:
            self.acc.span(cls, None, 1 - far, w1[0])
        return None


def _check_width(n):
    """Loops over the members of a bounded family stop at _ENTRY_CAP, the
    limit on the explicit entries a vector lists, before they start."""
    if n > _ENTRY_CAP:
        raise NotRepresentable(
            "family of %d members is too wide to expand" % n
        )


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
    g = rep.graph
    _require_admissible(g, rep)
    counts = _Counts(g)
    members = [(coeff, s, 0, 0, 1) for coeff, s in rep.finite]
    members += [
        (m.coeff, m.template, m.lo, m.hi, m.step) for m in rep.periodic
    ]
    for coeff, s, lo, hi, step in members:
        faces = _simplex_faces(g, s)
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


def _accumulate_ray(counts, ray, coeff, lo, hi, step):
    """Edge counts of a ray template shifted by k*step over k in [lo, hi].
    lo/hi None means unbounded; admissibility guarantees an unbounded
    range points the same way as the ray. A repeat dart's copies form one
    double run, counted from the member whose ray starts farthest back."""
    if lo is None and hi is None:
        raise InternalError(
            "a doubly unbounded jump family survived the admissibility gate"
        )
    for d in ray.initial:
        sgn = coeff if d.forward else -coeff
        counts.over_range(d.edge.cls, d.edge.index, sgn, lo, hi, step)
    n = None if lo is None or hi is None else hi - lo + 1
    first, t = (lo, step) if ray.shift > 0 else (hi, -step)
    for d in ray.repeat:
        sgn = coeff if d.forward else -coeff
        u = d.edge.index + first * step
        counts.double(d.edge.cls, u, ray.shift, t, n, sgn)


def _accumulate_member(counts, coeff, s, lo, hi, step):
    """One member (or one family) into the edge counts."""
    if isinstance(s, Constant):
        return
    if isinstance(s, (Pass, Walk)):
        darts = (s.dart,) if isinstance(s, Pass) else s.darts
        for d in darts:
            sgn = coeff if d.forward else -coeff
            counts.over_range(d.edge.cls, d.edge.index, sgn, lo, hi, step)
        return
    if isinstance(s, EndJump):
        _accumulate_ray(counts, s.out_ray, coeff, lo, hi, step)
        # the return leg runs its ray backwards, so every dart flips
        _accumulate_ray(counts, s.in_ray, -coeff, lo, hi, step)
        return
    raise InternalError("unknown simplex kind")


def edge_vector_of(rep: ChainRep) -> EdgeVector:
    """The signed per-edge traversal count of the chain.

    The count of an admissible chain is finite on every edge, but it only
    fits the vector format when it is eventually constant along every
    escape direction; families of end jumps, for instance, produce counts
    that keep growing, and those raise NotRepresentable."""
    g = rep.graph
    _require_admissible(g, rep)
    counts = _Counts(g)
    for coeff, s in rep.finite:
        _accumulate_member(counts, coeff, s, 0, 0, 1)
    for m in rep.periodic:
        _accumulate_member(counts, m.coeff, m.template, m.lo, m.hi, m.step)
    failures = counts.settle()
    if failures:
        raise NotRepresentable("traversal counts on %r %s" % failures[0])
    return counts.acc.vector()


# -- subdivision --------------------------------------------------------------


def _walk_to_passes(coeff, s):
    return [(coeff, Pass(d)) for d in s.darts]


def _ray_to_members(g, ray, coeff):
    """Pass members covering every edge of the ray exactly once."""
    finite = []
    periodic = []
    for d in ray.initial:
        finite.append((coeff, Pass(d)))
    stp = abs(ray.shift)
    for d in ray.repeat:
        if ray.shift > 0:
            periodic.append(PeriodicMember(coeff, Pass(d), 0, None, stp))
        else:
            periodic.append(PeriodicMember(coeff, Pass(d), None, 0, stp))
    return finite, periodic


def subdivide_to_passes(rep: ChainRep) -> ChainRep:
    """Rewrite the chain as a sum of passes with the same edge vector and
    the same boundary. Walks split at their vertex visits; end jumps
    become ray-aligned periodic pass families."""
    g = rep.graph
    _require_admissible(g, rep)
    finite = []
    periodic = []

    def one(coeff, s):
        if isinstance(s, Constant):
            return
        if isinstance(s, Pass):
            finite.append((coeff, s))
            return
        if isinstance(s, Walk):
            finite.extend(_walk_to_passes(coeff, s))
            return
        f, p = _ray_to_members(g, s.out_ray, coeff)
        finite.extend(f)
        periodic.extend(p)
        f, p = _ray_to_members(g, s.in_ray, -coeff)
        finite.extend(f)
        periodic.extend(p)

    for coeff, s in rep.finite:
        one(coeff, s)
    for m in rep.periodic:
        if isinstance(m.template, Constant):
            continue
        width = _member_width(m)
        if isinstance(m.template, EndJump):
            if width is None:
                raise NotRepresentable(
                    "an unbounded family of end jumps does not subdivide"
                    " into shift-periodic passes"
                )
            _check_width(width)
            for k in range(m.lo, m.hi + 1):
                one(m.coeff, _shift_simplex(m.template, k * m.step))
            continue
        if isinstance(m.template, Pass):
            periodic.append(m)
            continue
        for d in m.template.darts:
            periodic.append(
                PeriodicMember(m.coeff, Pass(d), m.lo, m.hi, m.step)
            )
    return ChainRep(g, tuple(finite), tuple(periodic))


# -- cycles and homology ------------------------------------------------------


def _require_cycle(rep):
    b = boundary(rep)
    if not b.is_zero():
        v, c = b.coeffs[0]
        raise NonzeroBoundary(v, c)


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
    decomposition is built (is_member of the result gives one)."""
    if rep.graph.spec != g.spec:
        raise GraphMismatch("chain belongs to a different graph")
    _require_admissible(g, rep)
    _require_cycle(rep)
    vec = edge_vector_of(rep)
    try:
        _obstruct(g, vec)
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
    representatives, read off one window of the graph around D that the
    stable partition closes off past its fence (`Graph._window`). Any
    vertex beyond the fence is answered by the vertex of the closed block
    it is glued to, and the kept ends are those whose roots are kept."""

    def __init__(self, g, pair):
        for v in pair.deleted:
            try:
                g.require_vertex(v)
            except EndcycleError as ex:
                raise NotAdmissiblePair(str(ex))
        self.g = g
        self.deleted = frozenset(pair.deleted)
        w = max(1, g.W)
        r_del = max(
            [abs(v.index) for v in self.deleted if v.index is not None],
            default=0,
        )
        nb = (len(g.spec.cell_classes) + 3) * w
        self.fence = g.stabilization_radius + r_del + nb + g.D + 2

        self.uf, roots = g._window(self.deleted, self.fence)
        self.kept_roots = set()
        for r in pair.kept:
            try:
                g.require_vertex(r)
            except EndcycleError as ex:
                raise NotAdmissiblePair(str(ex))
            if r in self.deleted:
                raise NotAdmissiblePair(
                    "kept representative %s was deleted" % r.label()
                )
            self.kept_roots.add(self.uf.find(g._window_node(r, self.fence)))
        self.kept_ends = {e for e, root in roots.items() if root in self.kept_roots}

    def has_vertex(self, v):
        if v in self.deleted:
            return False
        return self.uf.find(self.g._window_node(v, self.fence)) in self.kept_roots

    def has_ray(self, ray):
        g = self.g
        if g.end_of_ray(ray) not in self.kept_ends:
            return False
        seq = g.walk_from(ray.start, ray.initial)
        anchor = seq[-1]
        per = g.walk_from(anchor, ray.repeat)
        verts = set(seq) | set(per)
        # walk period copies until the block clears the fence; past it the
        # whole tail sits in the kept end's half space
        span = max(
            (abs(u.index) for u in per if u.index is not None), default=0
        )
        reps = (self.fence + span) // max(1, abs(ray.shift)) + 2
        for p in range(1, reps + 1):
            for u in per:
                verts.add(VertexId(u.cls, u.index + p * ray.shift))
        return all(
            self.has_vertex(u)
            for u in verts
            if u.index is None or abs(u.index) <= self.fence
        )

    def has_simplex(self, s):
        g = self.g
        if isinstance(s, Constant):
            # admissibility refuses a constant at an end unless its
            # coefficient is zero
            if isinstance(s.point, EndId):
                return s.point in self.kept_ends
            return self.has_vertex(s.point)
        if isinstance(s, Pass):
            t, h = g.dart_ends(s.dart)
            return self.has_vertex(t) and self.has_vertex(h)
        if isinstance(s, Walk):
            return all(
                self.has_vertex(u) for u in g.walk_from(s.start, s.darts)
            )
        if isinstance(s, EndJump):
            return self.has_ray(s.out_ray) and self.has_ray(s.in_ray)
        raise InternalError("unknown simplex kind")


def restrict_chain(g, pair: AdmissiblePairSpec, rep: ChainRep) -> ChainRep:
    """The sub-chain of members whose whole image lies in the closure of
    the kept region. The deleted set is finite, so the boundary of that
    closure is finite and the result is admissible in the region."""
    if rep.graph.spec != g.spec:
        raise GraphMismatch("chain belongs to a different graph")
    _require_admissible(g, rep)
    region = _Region(g, pair)
    finite = [
        (coeff, s) for coeff, s in rep.finite if region.has_simplex(s)
    ]
    periodic = []
    for m in rep.periodic:
        # the members scanned are those whose indices come within two steps
        # of [-fence, fence]; the count follows the fence, not the indices
        idx = _simplex_indices(m.template) or [0]
        k_lo = -((region.fence + max(idx)) // m.step) - 2
        k_hi = (region.fence - min(idx)) // m.step + 2
        lo_scan = k_lo if m.lo is None else max(m.lo, k_lo)
        hi_scan = k_hi if m.hi is None else min(m.hi, k_hi)
        kept = []
        for k in range(lo_scan, hi_scan + 1):
            if region.has_simplex(_shift_simplex(m.template, k * m.step)):
                kept.append(k)
        runs = _runs(kept)
        # past the scan every member lies beyond the fence, where the kept
        # ones repeat with the deep pattern: one probe per residue of k
        # modulo its period settles the rest of each side
        deep = []
        if m.hi is None or m.hi > k_hi:
            first = max(k_hi + 1, lo_scan)
            deep += _deep_side(g, region, m, first, m.hi, 1, runs)
        if m.lo is None or m.lo < k_lo:
            last = min(k_lo - 1, hi_scan)
            deep += _deep_side(g, region, m, last, m.lo, -1, runs)
        for template, lo, hi, step in [
            (m.template, lo, hi, m.step) for lo, hi in runs
        ] + deep:
            if lo is not None and lo == hi:
                finite.append((m.coeff, _shift_simplex(template, lo * step)))
            else:
                periodic.append(
                    PeriodicMember(m.coeff, template, lo, hi, step)
                )
    return ChainRep(g, tuple(finite), tuple(periodic))


def _deep_side(g, region, m, near, far, sign, runs):
    """Members of m from k = near outward (sign) to far (None: open) that
    the region keeps. When every residue of k modulo the deep period is
    kept, the side joins runs. Otherwise each kept residue is returned as
    its own family (template, lo, hi, step) with the period times m.step
    as its step."""
    period = g.deep_period(sign)
    period //= math.gcd(period, m.step)
    probes = [
        near + sign * r for r in range(period)
        if far is None or sign * (far - near) >= r
    ]
    kept = [
        k for k in probes
        if region.has_simplex(_shift_simplex(m.template, k * m.step))
    ]
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
        out.append((_shift_simplex(m.template, r * m.step), lo, hi,
                    period * m.step))
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
    merged with a run that ends just before it or starts just after it."""
    for i, (a, b) in enumerate(runs):
        if lo is not None and b == lo - 1:
            runs[i] = (a, hi)
            return runs
        if hi is not None and a == hi + 1:
            runs[i] = (lo, b)
            return runs
    runs.append((lo, hi))
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
    lines)."""
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


def _ray_to_text(ray):
    parts = [ray.start.label()]
    parts.extend(d.label() for d in ray.initial)
    parts.append("repeat")
    parts.extend(d.label() for d in ray.repeat)
    return " ".join(parts)


def _member_to_text(g, s):
    if isinstance(s, Pass):
        return "pass %s %s" % (
            s.dart.edge.label(),
            "+" if s.dart.forward else "-",
        )
    if isinstance(s, Walk):
        seq = g.walk_from(s.start, s.darts)
        parts = [seq[0].label()]
        for v, d in zip(seq[1:], s.darts):
            parts.append(d.edge.label())
            parts.append(v.label())
        return "walk %s" % " ".join(parts)
    if isinstance(s, Constant):
        return "const %s" % s.point.label()
    if isinstance(s, EndJump):
        return "endjump %s ; %s" % (
            _ray_to_text(s.out_ray),
            _ray_to_text(s.in_ray),
        )
    raise InternalError("unknown simplex kind")


def chain_to_text(rep: ChainRep) -> str:
    g = rep.graph
    out = []
    for coeff, s in rep.finite:
        prefix = "" if coeff == 1 else "coeff %d " % coeff
        out.append(prefix + _member_to_text(g, s))
    for m in rep.periodic:
        prefix = "" if m.coeff == 1 else "coeff %d " % m.coeff
        lo = "-inf" if m.lo is None else str(m.lo)
        hi = "inf" if m.hi is None else str(m.hi)
        stp = "" if m.step == 1 else " step %d" % m.step
        out.append(
            "%speriodic %s..%s%s { %s }"
            % (prefix, lo, hi, stp, _member_to_text(g, m.template))
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
