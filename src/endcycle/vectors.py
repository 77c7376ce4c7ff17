"""Integer edge vectors with eventually constant tails, and thin families.

An EdgeVector stores its value runs: per cell class, the sorted indices
where the value changes, and the value far to the left followed by the
value from each of them on; per static edge, its value. Values are
attached to the forward orientation; evaluating a reversed dart negates.
No change of value is zero, so the runs are canonical and equal vectors
compare equal. Queries read the runs: value_on and value_at are a bisect, and
breakpoints() and support_bound() cost one step per class, not per index.

The classical form is derived from the runs: vals, finitely many explicit
instance values, and tails, per edge class and direction an optional
constant tail (threshold, value): every instance at index >= threshold
(direction "+") or <= threshold ("-") carries the value unless an explicit
entry overrides it. It is canonical too: no explicit entry is zero or lies
at or past a tail threshold, thresholds lie as far in as the values allow,
and a class that is constant on the whole line keeps the split "+" from 0
/ "-" from -1 (just "+" from 0 on a periodic-n graph). EdgeVector(graph,
vals, tails) reads raw input in that form. vals lists every index of each
bounded run of nonzero value, which a short description can make long (an
explicit value far inside a one-sided tail), so past _ENTRY_CAP entries on
one class it raises NotRepresentable.

Every vector is made by one breakpoint builder, _Breakpoints. Per cell
class it holds the value far to the left and the change of value at each
breakpoint, the index where the value changes; static edges hold plain
sums. Construction from raw input, sums, scaling, shifts and thin sums fill
it, and its sorted breakpoints are the runs. Cost grows with the number of
breakpoints, not with the size of the indices.

Counts of darts, rays and their shift families, as chains and circle
decompositions hold them, go through _Counts into one breakpoint builder.
A count of stride +-1 is one span, and a bounded family of step s > 1
adds one point per member, up to _ENTRY_CAP members; a wider one is two
unbounded runs of stride s, one taken away. These runs, the repeat darts
of rays of shift |s| > 1 and those of ray families (one double run per
repeat dart, however wide the family) are evaluated where they can hit,
in one sweep per class in index order, and each side's sum is spanned
onward once it settles to a constant. A sum that does not settle far out
is handed back to the caller, and settling raises NotRepresentable before
it evaluates more than _ENTRY_CAP indices on one class.

A VectorFamily is a finite list of vectors plus shift-periodic members
(coefficient, finite template, shift range). thin_sum adds the whole family
exactly or refuses with NotThin / NotRepresentable.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, groupby
from types import MappingProxyType

from .errors import (
    FormatError,
    GraphMismatch,
    InternalError,
    NotRepresentable,
    NotThin,
    UnknownEdge,
)
from .graph import (
    KIND_FINITE,
    KIND_PERIODIC_N,
    Dart,
    EdgeId,
    _double_count,
    edge_key,
    parse_edge_label,
)

# widest finite shift range over which a tailed template is expanded
_EXPAND_CAP = 4096
# most explicit entries the vals of one edge class may list: every class
# within |index| <= 200,000 fits
_ENTRY_CAP = 400_001
# the runs of a class that is 0 everywhere
_ZERO_RUN = ((), (0,))


def _check_same_graph(a, b):
    if a is b:
        return
    if a.spec != b.spec:
        raise GraphMismatch("objects belong to different graphs")


class EdgeVector:
    """Value runs per cell class plus values on static edges. Immutable by
    convention; all operations return new vectors in canonical form."""

    __hash__ = None

    def __init__(self, graph, vals=None, tails=None):
        """Read raw input: explicit values plus constant tails. An explicit
        entry replaces the tail value under it, and where the two tails of
        a class overlap the "+" tail wins."""
        vals = dict(vals or {})
        for e, v in vals.items():
            graph.require_edge(e)
            if type(v) is not int:
                raise FormatError("vector values must be integers")
        self.graph = graph
        self._statics, self._runs = self._read(graph, vals, tails).runs()

    @staticmethod
    def _read(g, vals, tails):
        """The breakpoints of raw input whose explicit entries are already
        known to be edges of g with integer values; the tails are checked
        here."""
        raw = {}
        for (cname, direction), (t, v) in (tails or {}).items():
            if type(v) is not int or type(t) is not int:
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
            raw[(cname, direction)] = (t, v)
        for cname in {c for c, _ in raw}:
            pt = raw.get((cname, "+"))
            mt = raw.get((cname, "-"))
            if pt and mt and mt[0] >= pt[0] and pt[1] != mt[1]:
                if any(
                    EdgeId(cname, i) not in vals
                    for i in range(pt[0], mt[0] + 1)
                ):
                    raise FormatError(
                        "tails of %r overlap with different values" % cname
                    )
        acc = _Breakpoints(g)
        for e, w in vals.items():
            if e.index is None:
                acc.statics[e] = w
                continue
            pt = raw.get((e.cls, "+"))
            mt = raw.get((e.cls, "-"))
            if pt and e.index >= pt[0]:
                w -= pt[1]
            elif mt and e.index <= mt[0]:
                w -= mt[1]
            acc.span(e.cls, e.index, e.index + 1, w)
        for (cname, direction), (t, v) in raw.items():
            if direction == "+":
                acc.span(cname, t, None, v)
                continue
            pt = raw.get((cname, "+"))
            acc.span(cname, None, t + 1 if pt is None else min(t + 1, pt[0]), v)
        return acc

    # construction ---------------------------------------------------------

    @classmethod
    def zero(cls, graph):
        return cls(graph)

    @classmethod
    def from_darts(cls, graph, darts):
        vals = {}
        for d in darts:
            graph.require_edge(d.edge)
            vals[d.edge] = vals.get(d.edge, 0) + (1 if d.forward else -1)
        return cls._read(graph, vals, None).vector()

    # the classical form -------------------------------------------------------

    @cached_property
    def vals(self):
        """Explicit instance values: every static edge with a value, and per
        cell class every index of a bounded run of nonzero value. Raises
        NotRepresentable past _ENTRY_CAP entries on one class."""
        vals = dict(self._statics)
        for cname, (idx, values) in self._runs.items():
            inner = [(a, b, v) for a, b, v in zip(idx, idx[1:], values[1:]) if v]
            if sum(b - a for a, b, _v in inner) > _ENTRY_CAP:
                raise NotRepresentable(
                    "vector needs more than %d explicit entries on %r"
                    % (_ENTRY_CAP, cname)
                )
            for a, b, v in inner:
                for i in range(a, b):
                    vals[EdgeId(cname, i)] = v
        return MappingProxyType(vals)

    @cached_property
    def tails(self):
        """(class, direction) -> (threshold, value) of each constant tail."""
        tails = {}
        for cname, (idx, values) in self._runs.items():
            left, right = values[0], values[-1]
            if not idx:  # constant on the whole line: split at 0 / -1
                tails[(cname, "+")] = (0, left)
                tails[(cname, "-")] = (-1, left)
                continue
            if left:
                tails[(cname, "-")] = (idx[0] - 1, left)
            if right:
                tails[(cname, "+")] = (idx[-1], right)
        return MappingProxyType(tails)

    # queries ----------------------------------------------------------------

    def value_on(self, e: EdgeId) -> int:
        self.graph.require_edge(e)
        if e.index is None:
            return self._statics.get(e, 0)
        idx, values = self._runs.get(e.cls, _ZERO_RUN)
        return values[bisect_right(idx, e.index)]

    def value_at(self, cname, n) -> int:
        """The value on instance n of class cname (n None on a static
        edge): one bisect on the class's runs, with no check that the edge
        exists, for callers that take it from the graph's own tables."""
        if n is None:
            return self._statics.get(EdgeId(cname, None), 0)
        idx, values = self._runs.get(cname, _ZERO_RUN)
        return values[bisect_right(idx, n)]

    def evaluate(self, dart: Dart) -> int:
        v = self.value_on(dart.edge)
        return v if dart.forward else -v

    def is_zero(self):
        return not self._statics and not self._runs

    def tail_of(self, cname, direction):
        return self.tails.get((cname, direction))

    def support_bound(self):
        """Bound b such that all explicit entries and thresholds have
        |index| <= b, read off the runs."""
        bound = 0
        for idx, values in self._runs.values():
            if not idx:  # the split at 0 / -1
                bound = max(bound, 1)
                continue
            # the "-" threshold or else the first entry or "+" threshold,
            # and the "+" threshold or else the last entry or "-" threshold
            first = idx[0] - 1 if values[0] else idx[0]
            last = idx[-1] if values[-1] else idx[-1] - 1
            bound = max(bound, abs(first), abs(last))
        return bound

    def breakpoints(self):
        """Per cell class whose value changes somewhere, the sorted indices
        n where the value differs from the value at n - 1 (on periodic-n,
        where nothing lies left of 0, n = 0 when the value there is not 0).
        Between two of them the class is constant."""
        return {c: idx for c, (idx, _values) in self._runs.items() if idx}

    def has_static_support(self):
        return bool(self._statics)

    def __eq__(self, other):
        if not isinstance(other, EdgeVector):
            return NotImplemented
        return (
            self.graph.spec == other.graph.spec
            and self._statics == other._statics
            and self._runs == other._runs
        )

    def __repr__(self):
        """The runs, as `class[..] = value far left, [n..] = value from n`."""
        items = ["%s=%d" % (e.label(), v)
                 for e, v in sorted(self._statics.items(), key=lambda p: edge_key(p[0]))]
        items += [
            "%s[..] = %d" % (c, values[0])
            + "".join(", [%d..] = %d" % p for p in zip(idx, values[1:]))
            for c, (idx, values) in self._runs.items()
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
        acc = _Breakpoints(self.graph)
        acc.add(self, c)
        return acc.vector()

    def __mul__(self, c):
        return self.scale(c)

    __rmul__ = __mul__

    def shifted(self, k: int):
        """Translate every index by k. Cell support only."""
        if self.has_static_support():
            raise FormatError("cannot shift a vector with static support")
        if self.graph.kind == KIND_PERIODIC_N and any(
            idx[0] + k < 0 for idx in self.breakpoints().values()
        ):
            raise FormatError("shift slides support off the graph")
        acc = _Breakpoints(self.graph)
        acc.add(self, 1, k)
        return acc.vector()


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

    def family(self, entries, c, lo, hi):
        """Add c times an untailed template shifted by every k in [lo, hi]
        (None unbounded); entries are its (class, index, value) triples,
        and each covers one interval of indices."""
        for cname, n, v in entries:
            self.span(cname, None if lo is None else lo + n,
                      None if hi is None else hi + n + 1, c * v)

    def add(self, vec, c=1, k=0):
        """Add c times vec shifted by k cells: its runs' changes of value."""
        for e, w in vec._statics.items():
            self.statics[e] = self.statics.get(e, 0) + c * w
        for cname, (idx, values) in vec._runs.items():
            self.span(cname, None, None, c * values[0])
            for i, before, after in zip(idx, values, values[1:]):
                self.span(cname, i + k, None, c * (after - before))

    def changes(self):
        """Per cell class, the value far to the left and the sorted
        (index, change of value) pairs with a nonzero change."""
        return {
            cname: (self.left.get(cname, 0), [p for p in sorted(steps.items()) if p[1]])
            for cname, steps in sorted(self.steps.items())
        }

    def runs(self):
        """The stored form of the accumulated values: the nonzero static
        values, and per cell class not 0 everywhere the sorted indices where
        the value changes and the value far to the left, then from each of
        them on. A periodic-n graph has nothing left of index 0, so there
        the value far to the left is 0 and no breakpoint lies below 0."""
        statics = {e: v for e, v in self.statics.items() if v}
        runs = {}
        for cname, (left, points) in self.changes().items():
            if left or points:
                runs[cname] = (
                    tuple(i for i, _d in points),
                    tuple(accumulate((d for _i, d in points), initial=left)),
                )
        return statics, runs

    def vector(self):
        vec = EdgeVector.__new__(EdgeVector)
        vec.graph = self.graph
        vec._statics, vec._runs = self.runs()
        return vec


class _Counts:
    """Signed counts per cell of darts, rays and their shift families, on
    their way into one _Breakpoints. A run of stride +-1 is one span and a
    bounded run of stride s one point per member; past _ENTRY_CAP members
    it is the unbounded run from its first member less the one from just
    past its last. Every other count is a double run {u + j*s + k*t : j >=
    0, 0 <= k < n} with s and t of one sign (n None: every k >= 0): a ray's
    repeat dart has n = 1, a bounded family of rays n = its width, an
    unbounded one n = None. Double runs wait per class as generators (u, s,
    t, n, coeff) until settle() writes them. Vertex counts use the same
    (class, index) keys."""

    def __init__(self, graph):
        self.acc = _Breakpoints(graph)
        self.gens = {}

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
        elif n > _ENTRY_CAP:
            self.double(cls, u, s, s, 1, c)
            self.double(cls, u + n * s, s, s, 1, -c)
        else:
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
            key = EdgeId(cls, None)
            self.acc.statics[key] = self.acc.statics.get(key, 0) + c * (hi - lo + 1)
        elif lo is None and hi is None:
            self.run(cls, idx, step, None, c)
            self.run(cls, idx - step, -step, None, c)
        elif lo is None:
            self.run(cls, idx + hi * step, -step, None, c)
        else:
            n = None if hi is None else hi - lo + 1
            self.run(cls, idx + lo * step, step, n, c)

    def darts(self, darts, c, lo=0, hi=0, step=1):
        """c for each forward and -c for each backward dart, shifted by
        k*step for every k in [lo, hi]."""
        for d in darts:
            self.over_range(d.edge.cls, d.edge.index, c if d.forward else -c,
                            lo, hi, step)

    def ray(self, ray, c, lo=0, hi=0, step=1):
        """c times a ray shifted by k*step over k in [lo, hi]. An unbounded
        range must point the same way as the ray. A repeat dart's copies
        form one double run, counted from the copy that starts farthest
        back."""
        if lo is None and hi is None:
            raise InternalError(
                "a doubly unbounded ray family survived the admissibility gate"
            )
        self.darts(ray.initial, c, lo, hi, step)
        n = None if lo is None or hi is None else hi - lo + 1
        first, t = (lo, step) if ray.shift > 0 else (hi, -step)
        for d in ray.repeat:
            self.double(d.edge.cls, d.edge.index + first * step, ray.shift, t,
                        n, c if d.forward else -c)

    def value_at(self, cls, n):
        """The count on instance n of cls (n None: a static edge) before
        settle(): the value far to the left, the changes at or below n and
        every generator's hits (_hits)."""
        if n is None:
            return self.acc.statics.get(EdgeId(cls, None), 0)
        value = self.acc.left.get(cls, 0)
        value += sum(d for i, d in self.acc.steps.get(cls, {}).items() if i <= n)
        return value + _values(self.gens.get(cls, ()), n, n + 1)[0]

    def settle(self):
        """Write the generators into the builder, one sweep per class in
        index order; return (class, reason) for each whose sum does not
        settle far out. A double run is zero on one side of its anchors, u
        to u + (n-1)*t, and repeats on the other: a bounded one with period
        |s|, an unbounded one's count N(m) of j*s + k*t = m as N(m + L) =
        N(m) + [gcd(s, t) | m] for m >= 0 (Popoviciu), L = lcm(s, t). So far
        to the left only the "-" runs count and far to the right only the
        "+" runs, each sum checked first over two of its common period. Past
        the value far to the left, a "-" run counts less its repetition
        carried across its anchors, a "+" run (_turned). Right of each
        cluster of anchors, each side's runs not yet settled are evaluated
        over two of their own periods (past its last run, its sum is known)
        and, when neither sum is constant, jointly over two of both. A
        constant sum holds from there on, and the rest is evaluated densely.
        Raises NotRepresentable before evaluating over _ENTRY_CAP indices."""
        whys = ((cls, self._sweep(cls, gens)) for cls, gens in sorted(self.gens.items()))
        return [(cls, why) for cls, why in whys if why]

    def _sweep(self, cls, gens):
        sides = ([gen for gen in gens if gen[1] > 0], [gen for gen in gens if gen[1] < 0])
        plus, minus = (_period(side) for side in sides)
        spent = _spend(cls, 0, 2 * (plus + minus))
        anchors = [a for gen in gens for a in _anchors(gen)]
        lo, hi = min(anchors), max(anchors) + 1
        far = (_values(sides[0], hi, hi + 2 * plus), _values(sides[1], lo - 2 * minus, lo))
        why = _unsettled(far[0], plus) or _unsettled(far[1], minus)
        if why:
            return why
        self.acc.span(cls, None, None, far[1][-1])
        runs = sorted([(_anchors(gen), 0, gen) for gen in sides[0]]
                      + [(_anchors(gen), 1, gen) for gen in map(_turned, sides[1])],
                      key=lambda run: run[0])
        # per side: the runs not yet settled, their period, its last run
        active, periods, (start, hi) = ([], []), [1, 1], runs[0][0]
        final, mixed = {side: i for i, (_a, side, _gen) in enumerate(runs)}, False
        for i, ((_lo, last), side, gen) in enumerate(runs):
            active[side].append(gen)
            periods[side] = math.lcm(periods[side], _period([gen]))
            hi = max(hi, last)
            known = [not mixed and final.get(side, -1) <= i for side in (0, 1)]
            end = hi + 1 + max(1 if k else 2 * p for k, p in zip(known, periods))
            nxt = runs[i + 1][0][0] if i + 1 < len(runs) else math.inf
            if nxt < end:
                continue  # the block takes in the next run
            spent = _spend(cls, spent, end - start)
            vals = [_values(part, start, end) for part in active]
            whys = [None if k else _unsettled(v, p) for v, p, k in zip(vals, periods, known)]
            joint = math.lcm(*periods)
            if whys[0] and whys[1] and hi + 1 + 2 * joint < nxt:
                more = hi + 1 + 2 * joint - end
                if more > 0:
                    spent = _spend(cls, spent, more)
                    vals = [v + _values(part, end, end + more) for v, part in zip(vals, active)]
                    end += more
                if not _unsettled([a + b for a, b in zip(*vals)], joint):
                    whys, mixed = [None, None], True
            if nxt == math.inf and any(whys):
                raise InternalError("counts settle far out but not past their anchors")
            for v, same in groupby(a + b for a, b in zip(*vals)):
                width = sum(1 for _v in same)
                self.acc.span(cls, start, start + width, v)
                start += width
            for side, v, why in zip((0, 1), vals, whys):
                if not why:  # constant from here on
                    self.acc.span(cls, end, None, v[-1])
                    active[side].clear()
                    periods[side] = 1
            start = end if active[0] or active[1] else nxt


def _anchors(gen):
    """The first and the last anchor of a double run (u, s, t, n, c)."""
    u, _s, t, n, _c = gen
    return tuple(sorted((u, u if n is None else u + (n - 1) * t)))


def _period(gens):
    """The lcm of the periods the double runs repeat with past their anchors."""
    return math.lcm(1, *(abs(s) if n is not None else math.lcm(s, t)
                         for _u, s, t, n, _c in gens))


def _turned(gen):
    """A "-" double run less its repetition carried on across its anchors,
    as a "+" double run. Each ray of a bounded one is the whole residue line
    less the ray one stride past its anchor, turned around, and an
    unbounded one's count carries on below 0 as N(-m) = -N(m - |s| - |t|)
    (Ehrhart-Macdonald reciprocity)."""
    u, s, t, n, c = gen
    if n is None:
        return (u - s - t, -s, -t, None, c)
    return (u + (n - 1) * t - s, -s, -t, n, -c)


def _spend(cls, spent, n):
    """spent + n, the indices evaluated on cls, within _ENTRY_CAP."""
    if spent + n > _ENTRY_CAP:
        raise NotRepresentable("counts on %r need over %d evaluated indices" % (cls, _ENTRY_CAP))
    return spent + n


def _values(gens, lo, hi):
    """The double runs' summed counts at each lo <= x < hi."""
    vals = [0] * (hi - lo)
    for gen in gens:
        for x, k in _hits(gen, lo, hi):
            vals[x - lo] += gen[4] * k
    return vals


def _hits(gen, lo, hi):
    """(x, times) for each lo <= x < hi that the double run gen can hit: a
    stride run (n = 1) once at each u + j*s, any other where x - u is a
    multiple of gcd(s, t), as many times as _double_count says."""
    u, s, t, n, _c = gen
    step = abs(s) if n == 1 else math.gcd(s, t)
    lo, hi = (max(lo, u), hi) if s > 0 else (lo, min(hi, u + 1))
    xs = range(lo + (u - lo) % step, hi, step)
    if n == 1:
        return ((x, 1) for x in xs)
    return ((x, _double_count(abs(x - u), abs(s), abs(t), n)) for x in xs)


def _unsettled(vals, period):
    """Why a sum whose last two periods end vals does not settle, or None."""
    last, prev = vals[-period:], vals[-2 * period : -period]
    if last != prev:
        return "grow without bound"
    return "are periodic but not constant" if len(set(last)) > 1 else None


def _check_width(n):
    """Loops over the members of a bounded family stop at _ENTRY_CAP, the
    limit on the explicit entries a vector lists, before they start."""
    if n > _ENTRY_CAP:
        raise NotRepresentable(
            "family of %d members is too wide to expand" % n
        )


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
                firsts = [idx[0] for idx in m.base.breakpoints().values()]
                if firsts and m.lo + min(firsts) < 0:
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
        acc.family(((e.cls, e.index, v) for e, v in m.base.vals.items()),
                   m.coeff, m.lo, m.hi)
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
    # every entry was checked on its line
    return EdgeVector._read(graph, vals, tails).vector()


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

