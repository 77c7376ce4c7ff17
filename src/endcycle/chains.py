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
    NotRepresentable,
)
from .graph import (
    KIND_FINITE,
    KIND_PERIODIC_N,
    Dart,
    EdgeId,
    EndId,
    Ray,
    UnionFind,
    VertexId,
    parse_dart_label,
    parse_edge_label,
    parse_vertex_label,
    vertex_key,
)
from .membership import Member, is_member
from .vectors import EdgeVector

_WIDTH_CAP = 4096  # widest finite shift range we expand member by member
_PERIOD_CAP = 4096
_WINDOW_CAP = 500000


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


def _simplex_touches_static(s):
    """True if any part of the simplex is pinned (cap vertex or static
    edge), i.e. does not move under shifting."""
    if isinstance(s, Pass):
        return s.dart.edge.index is None
    if isinstance(s, Walk):
        return s.start.index is None or any(
            d.edge.index is None for d in s.darts
        )
    if isinstance(s, Constant):
        return isinstance(s.point, VertexId) and s.point.index is None
    if isinstance(s, EndJump):
        return any(
            r.start.index is None
            or any(d.edge.index is None for d in r.initial + r.repeat)
            for r in (s.out_ray, s.in_ray)
        )
    return False


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
        if _simplex_touches_static(s):
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


# -- lattice accumulation -----------------------------------------------------


class _Lattice:
    """Integer counts over class-indexed positions: a finite part, smears
    {u + j*s : 0 <= j <= jhi} with jhi possibly None, and double smears
    {u + j*s + k*t : j, k >= 0} (both directions infinite, same sign).
    Everything is exact; evaluation is O(1) per position up to the small
    residue search in the double-smear count."""

    def __init__(self):
        self.finite = {}  # (cls, idx or None) -> coeff
        self.smears = {}  # (cls, u, s, jhi) -> coeff
        self.doubles = {}  # (cls, u, s, t) -> coeff

    def add_point(self, cls, idx, coeff):
        if not coeff:
            return
        key = (cls, idx)
        self.finite[key] = self.finite.get(key, 0) + coeff

    def add_smear(self, cls, u, s, jhi, coeff):
        if not coeff:
            return
        if jhi is not None and jhi < 0:
            return
        if jhi == 0:
            self.add_point(cls, u, coeff)
            return
        key = (cls, u, s, jhi)
        self.smears[key] = self.smears.get(key, 0) + coeff

    def add_double(self, cls, u, s, t, coeff):
        if not coeff:
            return
        if (s > 0) != (t > 0):
            raise InternalError("double smear directions disagree")
        key = (cls, u, s, t)
        self.doubles[key] = self.doubles.get(key, 0) + coeff

    def prune(self):
        self.finite = {k: v for k, v in self.finite.items() if v}
        self.smears = {k: v for k, v in self.smears.items() if v}
        self.doubles = {k: v for k, v in self.doubles.items() if v}

    def classes(self):
        out = set()
        for cls, _idx in self.finite:
            out.add(cls)
        for cls, _u, _s, _j in self.smears:
            out.add(cls)
        for cls, _u, _s, _t in self.doubles:
            out.add(cls)
        return out

    def value(self, cls, i):
        total = self.finite.get((cls, i), 0)
        for (c, u, s, jhi), coeff in self.smears.items():
            if c != cls:
                continue
            d = i - u
            if d % s:
                continue
            j = d // s
            if j < 0 or (jhi is not None and j > jhi):
                continue
            total += coeff
        for (c, u, s, t), coeff in self.doubles.items():
            if c != cls:
                continue
            total += coeff * _double_count(i - u, s, t)
        return total

    def static_value(self, cls):
        return self.finite.get((cls, None), 0)

    def bounds(self, cls):
        """(max |anchor|, lcm of periods) over this class's contributions."""
        big = 0
        period = 1
        for (c, idx), _v in self.finite.items():
            if c == cls and idx is not None:
                big = max(big, abs(idx))
        for (c, u, s, jhi), _v in self.smears.items():
            if c != cls:
                continue
            big = max(big, abs(u))
            if jhi is not None:
                big = max(big, abs(u + jhi * s))
            else:
                period = math.lcm(period, abs(s))
        for (c, u, s, t), _v in self.doubles.items():
            if c != cls:
                continue
            big = max(big, abs(u))
            period = math.lcm(period, abs(s), abs(t))
        return big, period

def _double_count(m, s, t):
    """Number of pairs j, k >= 0 with j*s + k*t = m (s and t same sign)."""
    if s < 0:
        m, s, t = -m, -s, -t
    if m < 0:
        return 0
    gg = math.gcd(s, t)
    if m % gg:
        return 0
    jmax = m // s
    stp = t // gg
    j0 = None
    for j in range(min(stp, jmax + 1)):
        if (m - j * s) % t == 0:
            j0 = j
            break
    if j0 is None:
        return 0
    return (jmax - j0) // stp + 1


def _sides(g):
    return (1,) if g.kind == KIND_PERIODIC_N else (1, -1)


def _window_params(g, acc, cls):
    big, period = acc.bounds(cls)
    if period > _PERIOD_CAP:
        raise NotRepresentable(
            "per-class period %d is too large to certify" % period
        )
    t0 = big + period * period + period + 2
    if t0 > _WINDOW_CAP:
        raise NotRepresentable("support too large to materialize")
    return t0, period


def _materialize_vector(g, acc) -> EdgeVector:
    acc.prune()
    vals = {}
    tails = {}
    for cls in sorted(acc.classes()):
        ec = g.edge_classes[cls]
        if ec.static:
            v = acc.static_value(cls)
            if v:
                vals[EdgeId(cls, None)] = v
            continue
        t0, period = _window_params(g, acc, cls)
        lo_scan = 0 if g.kind == KIND_PERIODIC_N else -t0
        for sign in _sides(g):
            base = t0 if sign > 0 else -t0 - period + 1
            w1 = [acc.value(cls, base + j) for j in range(period)]
            w2 = [
                acc.value(cls, base + sign * period + j)
                for j in range(period)
            ]
            # past the transient the per-step drift is constant per residue,
            # so two equal windows certify the tail and unequal ones growth
            if w1 != w2:
                raise NotRepresentable(
                    "traversal counts on %r grow without bound" % cls
                )
            if any(v != w1[0] for v in w1):
                raise NotRepresentable(
                    "traversal counts on %r are periodic but not constant"
                    % cls
                )
            if w1[0]:
                key = "+" if sign > 0 else "-"
                tails[(cls, key)] = (sign * t0, w1[0])
        for i in range(lo_scan, t0 + 1):
            v = acc.value(cls, i)
            if v:
                vals[EdgeId(cls, i)] = v
    return EdgeVector(g, vals, tails)


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


def _materialize_zero_chain(g, acc) -> ZeroChain:
    acc.prune()
    if acc.doubles:
        raise InternalError("vertex counts cannot carry double smears")
    out = {}
    for cls in sorted(acc.classes()):
        if cls in g._cap_set:
            v = acc.static_value(cls)
            if v:
                out[VertexId(cls, None)] = v
            continue
        t0, period = _window_params(g, acc, cls)
        lo_scan = 0 if g.kind == KIND_PERIODIC_N else -t0
        for sign in _sides(g):
            base = t0 if sign > 0 else -t0 - period + 1
            for j in range(period):
                v = acc.value(cls, base + j)
                if v:
                    w = VertexId(cls, base + j)
                    raise InfiniteBoundarySupport(
                        "boundary support does not telescope near %s"
                        % w.label(),
                        witness_class=cls,
                    )
        for i in range(lo_scan, t0 + 1):
            v = acc.value(cls, i)
            if v:
                out[VertexId(cls, i)] = v
    return ZeroChain.from_dict(g, out)


def _add_line(acc, cls, u, s, coeff):
    """A smear over the whole residue line u + s*Z, as two half lines."""
    acc.add_smear(cls, u, s, None, coeff)
    acc.add_smear(cls, u - s, -s, None, coeff)


def _face_contribution(acc, faces, coeff, lo, hi, step):
    """Accumulate coeff * (head - tail) over all shifts of one member."""
    if faces is None:
        return
    tail, head = faces
    if tail == head:
        return
    for v, c in ((head, coeff), (tail, -coeff)):
        if v.index is None:
            if lo is None or hi is None:
                raise InternalError(
                    "pinned face survived the admissibility gate"
                )
            acc.add_point(v.cls, None, c * (hi - lo + 1))
        elif lo is None and hi is None:
            _add_line(acc, v.cls, v.index, step, c)
        elif lo is None:
            acc.add_smear(v.cls, v.index + hi * step, -step, None, c)
        else:
            jhi = None if hi is None else hi - lo
            acc.add_smear(v.cls, v.index + lo * step, step, jhi, c)


def boundary(rep: ChainRep) -> ZeroChain:
    """Signed endpoint count of every member. Periodic members telescope;
    a family whose endpoints march along different tracks has infinite
    boundary support, which is an error."""
    g = rep.graph
    _require_admissible(g, rep)
    acc = _Lattice()
    for coeff, s in rep.finite:
        faces = _simplex_faces(g, s)
        if faces is None or faces[0] == faces[1]:
            continue
        tail, head = faces
        acc.add_point(head.cls, head.index, coeff)
        acc.add_point(tail.cls, tail.index, -coeff)
    for m in rep.periodic:
        faces = _simplex_faces(g, m.template)
        _face_contribution(acc, faces, m.coeff, m.lo, m.hi, m.step)
    return _materialize_zero_chain(g, acc)


# -- the winding vector -------------------------------------------------------


def _ray_darts_split(ray):
    """(lead-in darts, repeat darts); both in traversal order."""
    return tuple(ray.initial), tuple(ray.repeat)


def _accumulate_ray(acc, ray, coeff, lo, hi, step):
    """Edge counts of a ray template shifted by k*step over k in [lo, hi].
    lo/hi None means unbounded; admissibility guarantees an unbounded
    range points the same way as the ray."""
    if lo is None and hi is None:
        raise InternalError(
            "a doubly unbounded jump family survived the admissibility gate"
        )
    lead, block = _ray_darts_split(ray)
    width = None if (lo is None or hi is None) else hi - lo + 1
    for d in lead:
        sgn = coeff if d.forward else -coeff
        if d.edge.index is None:
            if width is None:
                raise InternalError(
                    "pinned lead-in survived the admissibility gate"
                )
            acc.add_point(d.edge.cls, None, sgn * width)
        elif width is not None:
            acc.add_smear(
                d.edge.cls, d.edge.index + lo * step, step, width - 1, sgn
            )
        elif lo is None:
            acc.add_smear(
                d.edge.cls, d.edge.index + hi * step, -step, None, sgn
            )
        else:
            acc.add_smear(
                d.edge.cls, d.edge.index + lo * step, step, None, sgn
            )
    for d in block:
        sgn = coeff if d.forward else -coeff
        cls, u = d.edge.cls, d.edge.index
        if width is not None:
            for k in range(lo, hi + 1):
                acc.add_smear(cls, u + k * step, ray.shift, None, sgn)
        elif lo is None:
            acc.add_double(cls, u + hi * step, ray.shift, -step, sgn)
        else:
            acc.add_double(cls, u + lo * step, ray.shift, step, sgn)


def _accumulate_member(acc, g, coeff, s, lo, hi, step):
    """One member (or one family) into the edge-count lattice."""
    width = None if (lo is None or hi is None) else hi - lo + 1
    if width is not None and width > _WIDTH_CAP:
        raise NotRepresentable(
            "family of %d members is too wide to expand" % width
        )
    if isinstance(s, Constant):
        return
    if isinstance(s, (Pass, Walk)):
        darts = (s.dart,) if isinstance(s, Pass) else s.darts
        for d in darts:
            sgn = coeff if d.forward else -coeff
            if d.edge.index is None:
                if width is None:
                    raise InternalError(
                        "pinned template survived the admissibility gate"
                    )
                acc.add_point(d.edge.cls, None, sgn * width)
            elif width is not None:
                acc.add_smear(
                    d.edge.cls,
                    d.edge.index + lo * step,
                    step,
                    width - 1,
                    sgn,
                )
            elif lo is None and hi is None:
                _add_line(acc, d.edge.cls, d.edge.index, step, sgn)
            elif lo is None:
                acc.add_smear(
                    d.edge.cls, d.edge.index + hi * step, -step, None, sgn
                )
            else:
                acc.add_smear(
                    d.edge.cls, d.edge.index + lo * step, step, None, sgn
                )
        return
    if isinstance(s, EndJump):
        _accumulate_ray(acc, s.out_ray, coeff, lo, hi, step)
        # the return leg runs its ray backwards, so every dart flips
        _accumulate_ray(acc, s.in_ray, -coeff, lo, hi, step)
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
    acc = _Lattice()
    for coeff, s in rep.finite:
        _accumulate_member(acc, g, coeff, s, 0, 0, 1)
    for m in rep.periodic:
        _accumulate_member(acc, g, m.coeff, m.template, m.lo, m.hi, m.step)
    return _materialize_vector(g, acc)


# -- subdivision --------------------------------------------------------------


def _walk_to_passes(coeff, s):
    return [(coeff, Pass(d)) for d in s.darts]


def _ray_to_members(g, ray, coeff):
    """Pass members covering every edge of the ray exactly once."""
    finite = []
    periodic = []
    lead, block = _ray_darts_split(ray)
    for d in lead:
        finite.append((coeff, Pass(d)))
    stp = abs(ray.shift)
    for d in block:
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
            if width > _WIDTH_CAP:
                raise NotRepresentable(
                    "family of %d members is too wide to expand" % width
                )
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
    checked to lie in the cycle space."""
    if rep.graph.spec != g.spec:
        raise GraphMismatch("chain belongs to a different graph")
    _require_admissible(g, rep)
    _require_cycle(rep)
    vec = edge_vector_of(rep)
    cert = is_member(g, vec)
    if not isinstance(cert, Member):
        raise NotACycle(cert.cut, cert.cut_sum)
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
    """The kept region: an explicit vertex window plus a set of kept ends.
    Membership of arbitrary vertices, edges, and rays is decidable against
    the window because deletions cannot reach past it."""

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
        self.rho = self.fence - w

        uf, ends = self._connectivity()
        roots = set()
        for r in pair.kept:
            try:
                g.require_vertex(r)
            except EndcycleError as ex:
                raise NotAdmissiblePair(str(ex))
            if r in self.deleted:
                raise NotAdmissiblePair(
                    "kept representative %s was deleted" % r.label()
                )
            roots.add(uf.find(self._node_of(r)))
        self.kept_vertices = set()
        self.kept_ends = set()
        for x in uf.parent:
            if uf.find(x) not in roots:
                continue
            if isinstance(x, EndId):
                self.kept_ends.add(x)
            else:
                self.kept_vertices.add(x)

    def _connectivity(self):
        g = self.g
        window = [v for v in g.cap_vertices() if v not in self.deleted]
        lo = 0 if g.kind == KIND_PERIODIC_N else -self.fence
        window.extend(
            v
            for v in g.cell_vertices_within(lo, self.fence)
            if v not in self.deleted
        )
        ends = tuple(g.ends())
        uf = UnionFind(window)
        for e in ends:
            uf.add(e)
        for v in window:
            for d, u in g.neighbors(v):
                if u in self.deleted:
                    continue
                if u.index is not None and abs(u.index) > self.fence:
                    uf.union(v, self._end_beyond(u))
                elif g.kind == KIND_PERIODIC_N and u.index is not None and u.index < 0:
                    continue
                else:
                    uf.union(v, u)
        return uf, ends

    def _end_beyond(self, v):
        for e in self.g.ends():
            if self.g.in_half_space(v, e, self.rho):
                return e
        raise InternalError("deep vertex %s escaped every end" % v.label())

    def _node_of(self, v):
        if v.index is not None and abs(v.index) > self.fence:
            return self._end_beyond(v)
        return v

    def has_vertex(self, v):
        if v in self.deleted:
            return False
        if v.index is not None and abs(v.index) > self.fence:
            return self._end_beyond(v) in self.kept_ends
        return v in self.kept_vertices

    def has_end(self, e):
        return e in self.kept_ends

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
            if isinstance(s.point, EndId):
                return self.has_end(s.point)
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
        ext = max((abs(i) for i in _simplex_indices(m.template)), default=0)
        k_horizon = (region.fence + ext) // m.step + 2
        lo_scan = -k_horizon if m.lo is None else max(m.lo, -k_horizon)
        hi_scan = k_horizon if m.hi is None else min(m.hi, k_horizon)
        kept = []
        for k in range(lo_scan, hi_scan + 1):
            if region.has_simplex(_shift_simplex(m.template, k * m.step)):
                kept.append(k)
        runs = _runs(kept)
        # past the horizon every member lies beyond the fence, where the
        # kept ones repeat with the deep pattern: one probe per residue of
        # k modulo its period settles the rest of each side
        deep = []
        if m.hi is None or m.hi > k_horizon:
            first = max(k_horizon + 1, lo_scan)
            deep += _deep_side(g, region, m, first, m.hi, 1, runs)
        if m.lo is None or m.lo < -k_horizon:
            last = min(-k_horizon - 1, hi_scan)
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
