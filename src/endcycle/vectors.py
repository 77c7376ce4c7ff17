"""Integer edge vectors with eventually constant tails, and thin families.

An EdgeVector stores finitely many explicit instance values plus, per edge
class and direction, an optional constant tail (threshold, value): every
instance at index >= threshold (direction "+") or <= threshold ("-") carries
the value unless an explicit entry overrides it. Values are attached to the
forward orientation; evaluating a reversed dart negates.

The stored form is canonical, so equal vectors compare equal: no explicit
entry is zero or lies at or past a tail threshold, thresholds lie as far in
as the values allow, and a class that is constant on the whole line keeps
the split "+" from 0 / "-" from -1 (just "+" from 0 on a periodic-n graph).

Every vector is made by one breakpoint builder, _Breakpoints. Per cell
class it holds the value far to the left and the change of value at each
breakpoint, the index where the value changes; static edges hold plain
sums. Construction from raw input, sums and thin sums fill it, and one sweep
over each class's sorted breakpoints writes the stored form. Cost grows
with the number of breakpoints and stored entries, not with the size of the
indices. The sweep also keeps, per cell class, the indices where the value
changes, and the largest |index| of a stored entry or threshold:
breakpoints() and support_bound() hand those out, so the star check and
verification pay per change of value, not per stored entry. The one limit
on the stored form is _ENTRY_CAP explicit entries
per class (FormatError beyond it), which a short description can still ask
for: an explicit value far inside a one-sided tail, or a wide finite shift
range of an untailed template.

A VectorFamily is a finite list of vectors plus shift-periodic members
(coefficient, finite template, shift range). thin_sum adds the whole family
exactly or refuses with NotThin / NotRepresentable.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    FormatError,
    GraphMismatch,
    NotRepresentable,
    NotThin,
    UnknownEdge,
)
from .graph import (
    KIND_FINITE,
    KIND_PERIODIC_N,
    Dart,
    EdgeId,
    edge_key,
    parse_edge_label,
)

# widest finite shift range over which a tailed template is expanded
_EXPAND_CAP = 4096
# most explicit entries one edge class may store: every class within
# |index| <= 200,000 fits
_ENTRY_CAP = 400_001


def _check_same_graph(a, b):
    if a is b:
        return
    if a.spec != b.spec:
        raise GraphMismatch("objects belong to different graphs")


class EdgeVector:
    """Finitely many explicit values plus constant tails. Immutable by
    convention; all operations return new vectors in canonical form."""

    __hash__ = None

    def __init__(self, graph, vals=None, tails=None):
        self.graph = graph
        self.vals = dict(vals or {})
        self.tails = dict(tails or {})
        self._normalize()

    # construction ---------------------------------------------------------

    @classmethod
    def zero(cls, graph):
        return cls(graph)

    @classmethod
    def from_dart(cls, graph, dart: Dart):
        graph.require_edge(dart.edge)
        return cls(graph, {dart.edge: 1 if dart.forward else -1})

    @classmethod
    def from_darts(cls, graph, darts):
        vals = {}
        for d in darts:
            graph.require_edge(d.edge)
            vals[d.edge] = vals.get(d.edge, 0) + (1 if d.forward else -1)
        return cls(graph, vals)

    def _normalize(self):
        g = self.graph
        for e, v in list(self.vals.items()):
            g.require_edge(e)
            if not isinstance(v, int):
                raise FormatError("vector values must be integers")
        tails = {}
        for (cname, direction), (t, v) in self.tails.items():
            if not isinstance(v, int) or not isinstance(t, int):
                raise FormatError("tail thresholds and values must be integers")
            if v == 0:
                continue
            ec = g.edge_classes.get(cname)
            if ec is None:
                raise UnknownEdge("unknown edge class %r" % cname)
            if ec.static:
                raise FormatError("static edge %r cannot carry a tail" % cname)
            if direction not in ("+", "-"):
                raise FormatError("tail direction must be + or -")
            if g.kind == KIND_FINITE:
                raise FormatError("finite graphs have no tails")
            if direction == "-" and g.kind == KIND_PERIODIC_N:
                raise FormatError("periodic-n graphs have no - tails")
            if direction == "+" and g.kind == KIND_PERIODIC_N and t < 0:
                t = 0
            tails[(cname, direction)] = (t, v)
        self.tails = tails
        for cname in {c for c, _ in tails}:
            pt = tails.get((cname, "+"))
            mt = tails.get((cname, "-"))
            if pt and mt and mt[0] >= pt[0] and pt[1] != mt[1]:
                if any(
                    EdgeId(cname, i) not in self.vals
                    for i in range(pt[0], mt[0] + 1)
                ):
                    raise FormatError(
                        "tails of %r overlap with different values" % cname
                    )
        acc = _Breakpoints(g)
        acc.add(self)
        self.vals, self.tails, self._moves, self._bound = acc.sweep()

    def _tail_value(self, e: EdgeId):
        """Tail value covering this instance, or None if no tail covers it."""
        if e.index is None:
            return None
        pt = self.tails.get((e.cls, "+"))
        if pt and e.index >= pt[0]:
            return pt[1]
        mt = self.tails.get((e.cls, "-"))
        if mt and e.index <= mt[0]:
            return mt[1]
        return None

    # queries ----------------------------------------------------------------

    def value_on(self, e: EdgeId) -> int:
        self.graph.require_edge(e)
        if e in self.vals:
            return self.vals[e]
        cov = self._tail_value(e)
        return cov if cov is not None else 0

    def evaluate(self, dart: Dart) -> int:
        v = self.value_on(dart.edge)
        return v if dart.forward else -v

    def is_zero(self):
        return not self.vals and not self.tails

    def tail_of(self, cname, direction):
        return self.tails.get((cname, direction))

    def support_bound(self):
        """Bound b such that all explicit entries and thresholds have
        |index| <= b, kept from the sweep that made the stored form."""
        return self._bound

    def breakpoints(self):
        """Per cell class whose value changes somewhere, the sorted indices
        n where the value differs from the value at n - 1 (on periodic-n,
        where nothing lies left of 0, n = 0 when the value there is not 0).
        Between two of them the class is constant. Kept from the sweep, so
        the cost is one entry per class, not per stored entry."""
        return dict(self._moves)

    def has_static_support(self):
        return any(e.index is None for e in self.vals)

    def __eq__(self, other):
        if not isinstance(other, EdgeVector):
            return NotImplemented
        return (
            self.graph.spec == other.graph.spec
            and self.vals == other.vals
            and self.tails == other.tails
        )

    def __repr__(self):
        items = ["%s=%d" % (e.label(), v) for e, v in sorted(self.vals.items(), key=lambda p: edge_key(p[0]))]
        items += [
            "tail%s %s from %d = %d" % (d, c, t, v)
            for (c, d), (t, v) in sorted(self.tails.items())
        ]
        return "<EdgeVector %s>" % ("; ".join(items) if items else "0")

    # arithmetic ---------------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, EdgeVector):
            return NotImplemented
        _check_same_graph(self.graph, other.graph)
        acc = _Breakpoints(self.graph)
        acc.add(self)
        acc.add(other)
        return acc.vector()

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self.__add__(-other)

    def scale(self, c: int):
        if not isinstance(c, int):
            raise FormatError("scalars must be integers")
        vals = {e: c * v for e, v in self.vals.items()}
        tails = {k: (t, c * v) for k, (t, v) in self.tails.items()}
        return EdgeVector(self.graph, vals, tails)

    def __mul__(self, c):
        return self.scale(c)

    __rmul__ = __mul__

    def shifted(self, k: int):
        """Translate every index by k. Cell support only."""
        if self.has_static_support():
            raise FormatError("cannot shift a vector with static support")
        if self.graph.kind == KIND_PERIODIC_N:
            for e in self.vals:
                if e.index + k < 0:
                    raise FormatError("shift slides support off the graph")
            for (t, _v) in self.tails.values():
                if t + k < 0:
                    raise FormatError("shift slides a tail off the graph")
        vals = {EdgeId(e.cls, e.index + k): v for e, v in self.vals.items()}
        tails = {key: (t + k, v) for key, (t, v) in self.tails.items()}
        return EdgeVector(self.graph, vals, tails)


class _Breakpoints:
    """Accumulator behind every vector: per cell class the value far to
    the left and {index: change of value there}, per static edge a sum."""

    def __init__(self, graph):
        self.graph = graph
        self.left = {}
        self.steps = {}
        self.statics = {}

    def span(self, cname, lo, hi, d):
        """Add d at every index i with lo <= i < hi; None is unbounded."""
        steps = self.steps.setdefault(cname, {})
        if lo is None:
            self.left[cname] = self.left.get(cname, 0) + d
        else:
            steps[lo] = steps.get(lo, 0) + d
        if hi is not None:
            steps[hi] = steps.get(hi, 0) - d

    def add(self, vec, c=1, k=0):
        """Add c times vec shifted by k cells. An explicit entry replaces
        the tail value under it, and where the two tails of a class overlap
        the "+" tail wins, so raw validated input reads as it is meant."""
        for e, w in vec.vals.items():
            if e.index is None:
                self.statics[e] = self.statics.get(e, 0) + c * w
                continue
            d = c * (w - (vec._tail_value(e) or 0))
            if d:
                self.span(e.cls, e.index + k, e.index + k + 1, d)
        for (cname, direction), (t, v) in vec.tails.items():
            if direction == "+":
                self.span(cname, t + k, None, c * v)
                continue
            end = t + 1
            pt = vec.tails.get((cname, "+"))
            if pt:
                end = min(end, pt[0])
            self.span(cname, None, end + k, c * v)

    def sweep(self):
        """The stored form (vals, tails) of the accumulated values, with
        per cell class the sorted indices where the value changes and the
        largest |index| of a stored entry or threshold. A periodic-n graph
        has nothing left of index 0, so there the value far to the left is
        0 and no breakpoint lies below 0."""
        vals = {e: v for e, v in self.statics.items() if v}
        tails = {}
        moves = {}
        bound = 0
        for cname, steps in sorted(self.steps.items()):
            value = self.left.get(cname, 0)
            points = [p for p in sorted(steps.items()) if p[1]]
            if not points:
                if value:  # constant on the whole line: split at 0 / -1
                    tails[(cname, "+")] = (0, value)
                    tails[(cname, "-")] = (-1, value)
                    bound = max(bound, 1)
                continue
            moves[cname] = tuple(i for i, _d in points)
            start = points[0][0]
            if value:
                tails[(cname, "-")] = (start - 1, value)
                bound = max(bound, abs(start - 1))
            stored = 0
            for i, d in points:
                if value and i > start:
                    stored += i - start
                    if stored > _ENTRY_CAP:
                        raise FormatError(
                            "vector needs more than %d explicit entries on %r"
                            % (_ENTRY_CAP, cname)
                        )
                    for j in range(start, i):
                        vals[EdgeId(cname, j)] = value
                    bound = max(bound, abs(start), abs(i - 1))
                value += d
                start = i
            if value:
                tails[(cname, "+")] = (start, value)
                bound = max(bound, abs(start))
        return vals, tails, moves, bound

    def vector(self):
        vec = EdgeVector.__new__(EdgeVector)
        vec.graph = self.graph
        vec.vals, vec.tails, vec._moves, vec._bound = self.sweep()
        return vec


@dataclass(frozen=True)
class FamilyMember:
    """coeff copies of base shifted by every k with lo <= k <= hi.
    None endpoints mean unbounded."""

    coeff: int
    base: EdgeVector
    lo: int | None
    hi: int | None

    def width(self):
        if self.lo is None or self.hi is None:
            return None
        return self.hi - self.lo + 1


class VectorFamily:
    """A finite list of (coeff, vector) plus shift-periodic members."""

    def __init__(self, graph, finite=(), periodic=()):
        self.graph = graph
        self.finite = tuple((int(c), v) for c, v in finite)
        for _, v in self.finite:
            _check_same_graph(graph, v.graph)
        members = []
        for m in periodic:
            if not isinstance(m, FamilyMember):
                m = FamilyMember(*m)
            _check_same_graph(graph, m.base.graph)
            if m.base.has_static_support():
                raise FormatError(
                    "periodic members shift cell edges only; put static "
                    "support in the finite part"
                )
            if m.lo is not None and m.hi is not None and m.lo > m.hi:
                raise FormatError("empty shift range")
            if graph.kind == KIND_PERIODIC_N:
                if m.lo is None:
                    raise FormatError("shift range must be bounded below here")
                anchor = None
                for e in m.base.vals:
                    anchor = e.index if anchor is None else min(anchor, e.index)
                for (t, _v) in m.base.tails.values():
                    anchor = t if anchor is None else min(anchor, t)
                if anchor is not None and m.lo + anchor < 0:
                    raise FormatError("shift range slides off the graph")
            members.append(m)
        self.periodic = tuple(members)

    def _offender(self):
        """First member that makes the family hit some edge infinitely
        often, with a witness instance. A "+" tail dragged toward minus
        infinity piles onto one instance (and mirrored); dragging it the
        other way stays thin, that case is merely unrepresentable."""
        for m in self.periodic:
            if m.coeff == 0 or m.base.is_zero():
                continue
            for (cname, direction), (t, _v) in m.base.tails.items():
                if direction == "+" and m.lo is None:
                    return m, EdgeId(cname, t + (m.hi if m.hi is not None else 0))
                if direction == "-" and m.hi is None:
                    return m, EdgeId(cname, t + (m.lo if m.lo is not None else 0))
        return None

    def is_thin(self):
        return self._offender() is None


def is_thin(family: VectorFamily) -> bool:
    return family.is_thin()


def thin_sum(family: VectorFamily) -> EdgeVector:
    """Exact sum of the family.

    Raises NotThin when some edge is hit infinitely often, and
    NotRepresentable when the sum exists but is not eventually constant
    (a tailed template dragged over an unbounded range) or when a tailed
    template is shifted over more than _EXPAND_CAP shifts."""
    g = family.graph
    bad = family._offender()
    if bad is not None:
        m, witness = bad
        raise NotThin(
            "family hits %s infinitely often" % witness.label(), witness=witness
        )
    acc = _Breakpoints(g)
    for c, v in family.finite:
        if c:
            acc.add(v, c)
    for m in family.periodic:
        if m.coeff == 0 or m.base.is_zero():
            continue
        if m.base.tails:
            w = m.width()
            if w is None:
                raise NotRepresentable(
                    "a tailed template shifted over an unbounded range "
                    "gives linearly growing values"
                )
            if w > _EXPAND_CAP:
                raise NotRepresentable("shift range too wide to expand")
            for k in range(m.lo, m.hi + 1):
                acc.add(m.base, m.coeff, k)
            continue
        # each entry of an untailed template covers one interval of shifts
        for e, val in m.base.vals.items():
            acc.span(
                e.cls,
                None if m.lo is None else m.lo + e.index,
                None if m.hi is None else m.hi + e.index + 1,
                m.coeff * val,
            )
    return acc.vector()


# text format ------------------------------------------------------------------


def parse_vector_text(graph, text) -> EdgeVector:
    """Vector file format: `set <edge> = <int>` and
    `tail+ <class> from <int> = <int>` lines (tail- mirrors; bare `tail`
    infers the direction from the sign of the threshold)."""
    vals = {}
    tails = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "set":
            rest = line[len("set") :]
            if "=" not in rest:
                raise FormatError("expected: set <edge> = <value>", ln)
            lhs, rhs = rest.split("=", 1)
            e = parse_edge_label(lhs)
            graph.require_edge(e)
            if e in vals:
                raise FormatError("duplicate entry for %s" % e.label(), ln)
            vals[e] = _parse_int(rhs, ln)
        elif parts[0] in ("tail", "tail+", "tail-"):
            if len(parts) < 6 or parts[2] != "from" or parts[4] != "=":
                raise FormatError(
                    "expected: %s <class> from <index> = <value>" % parts[0], ln
                )
            cname = parts[1]
            t = _parse_int(parts[3], ln)
            v = _parse_int(parts[5], ln)
            if parts[0] == "tail":
                direction = "+" if t >= 0 else "-"
            else:
                direction = parts[0][-1]
            if (cname, direction) in tails:
                raise FormatError(
                    "duplicate %s tail for %r" % (direction, cname), ln
                )
            tails[(cname, direction)] = (t, v)
        else:
            raise FormatError("unknown directive %r" % parts[0], ln)
    return EdgeVector(graph, vals, tails)


def _parse_int(tok, ln):
    try:
        return int(tok.strip())
    except ValueError:
        raise FormatError("not an integer: %r" % tok.strip(), ln)


def vector_to_text(vec: EdgeVector) -> str:
    lines = []
    for (cname, direction), (t, v) in sorted(vec.tails.items()):
        lines.append("tail%s %s from %d = %d" % (direction, cname, t, v))
    for e, v in sorted(vec.vals.items(), key=lambda p: edge_key(p[0])):
        lines.append("set %s = %d" % (e.label(), v))
    return "\n".join(lines) + ("\n" if lines else "")


def vector_to_json(vec: EdgeVector) -> dict:
    return {
        "edges": [
            {"edge": _edge_json(e), "value": v}
            for e, v in sorted(vec.vals.items(), key=lambda p: edge_key(p[0]))
        ],
        "tails": [
            {"class": c, "direction": d, "from": t, "value": v}
            for (c, d), (t, v) in sorted(vec.tails.items())
        ],
    }


def _edge_json(e: EdgeId):
    out = {"edge": e.cls}
    if e.index is not None:
        out["index"] = e.index
    return out
