"""The benchmark's own model of graphs, vectors and certificates.

Everything here is computed from the text formats alone and imports
nothing from `endcycle`: endpoints and incidences from the graph text,
edge vectors summed dart by dart from walks and shift families, crossing
sums of finite vertex-set cuts, and the re-evaluation of a member
certificate's JSON on a window that covers the data plus one period of
every ray. The workloads use it to write their inputs and to check the
program's answers.

A vertex is a pair (class, index) and an edge instance a pair
(edge class, index); caps and static edges carry the index None. A dart
is a triple (edge class, index, sign) with sign +1 along the edge.
"""

import math
import re

_ENDPOINT = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)(?:\[([+-]?\d+)\])?$")


class GraphModel:
    """Endpoints and incidences of a graph given in the graph text format."""

    def __init__(self, text):
        self.kind = None
        self.cells = []
        self.caps = []
        # name -> (tail class, tail pos, head class, head pos, static)
        self.edges = {}
        raw = []
        for line in text.splitlines():
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if parts[0] == "kind":
                self.kind = parts[1]
            elif parts[0] in ("vertex", "cap-vertex"):
                if parts[0] == "vertex" and self.kind != "finite":
                    self.cells.append(parts[1])
                else:
                    self.caps.append(parts[1])
            elif parts[0] == "edge":
                name, rhs = line[4:].split(":", 1)
                tail, head = rhs.split("->", 1)
                raw.append((name.strip(), _endpoint(tail), _endpoint(head)))
        capset = set(self.caps)
        for name, (tc, ti), (hc, hi) in raw:
            if tc in capset or hc in capset:
                tp = None if tc in capset else (ti or 0)
                hp = None if hc in capset else (hi or 0)
                self.edges[name] = (tc, tp, hc, hp, True)
            else:
                a, b = ti or 0, hi or 0
                m = min(a, b)
                self.edges[name] = (tc, a - m, hc, b - m, False)
        spans = [max(tp, hp) for tc, tp, hc, hp, st in self.edges.values() if not st]
        self.width = max(max(spans, default=0), 1)

    @property
    def one_sided(self):
        return self.kind == "periodic-n"

    def cell_classes(self):
        return sorted(n for n, e in self.edges.items() if not e[4])

    def static_edges(self):
        return sorted(n for n, e in self.edges.items() if e[4])

    def endpoints(self, cls, idx):
        tc, tp, hc, hp, static = self.edges[cls]
        if static:
            return (tc, tp), (hc, hp)
        return (tc, idx + tp), (hc, idx + hp)

    def incident(self, v):
        """(edge, sign) for every edge at v; sign +1 when v is its tail."""
        cls, idx = v
        out = []
        for name, (tc, tp, hc, hp, static) in sorted(self.edges.items()):
            for end_cls, pos, sign in ((tc, tp, 1), (hc, hp, -1)):
                if end_cls != cls:
                    continue
                if static:
                    if pos == idx:
                        out.append(((name, None), sign))
                    continue
                if idx is None:
                    continue
                n = idx - pos
                if self.one_sided and n < 0:
                    continue
                out.append(((name, n), sign))
        return out

    def step(self, v):
        """(dart, next vertex) for every dart leaving v."""
        out = []
        for (name, n), sign in self.incident(v):
            t, h = self.endpoints(name, n)
            out.append(((name, n, sign), h if sign > 0 else t))
        return out

    def cut_sum(self, side, vec):
        """Crossing sum of the finite vertex set `side`, darts oriented out."""
        total = 0
        for v in side:
            for (name, n), sign in self.incident(v):
                t, h = self.endpoints(name, n)
                other = h if sign > 0 else t
                if other not in side:
                    total += sign * vec.value(name, n)
        return total


def _endpoint(tok):
    m = _ENDPOINT.match(tok.strip())
    if not m:
        raise ValueError("bad endpoint %r" % tok)
    return m.group(1), int(m.group(2)) if m.group(2) is not None else None


class Vec:
    """An edge vector: explicit values plus per-class constant tails, with
    explicit entries taking precedence, as in the vector text format."""

    def __init__(self, vals=None, plus=None, minus=None):
        self.vals = dict(vals or {})  # (cls, idx) -> value
        self.plus = dict(plus or {})  # cls -> (from, value), covers idx >= from
        self.minus = dict(minus or {})  # cls -> (from, value), covers idx <= from

    def value(self, cls, idx):
        if (cls, idx) in self.vals:
            return self.vals[(cls, idx)]
        if idx is None:
            return 0
        t = self.plus.get(cls)
        if t and idx >= t[0]:
            return t[1]
        t = self.minus.get(cls)
        if t and idx <= t[0]:
            return t[1]
        return 0

    def far(self, cls, sign):
        t = (self.plus if sign > 0 else self.minus).get(cls)
        return t[1] if t else 0

    def extent(self):
        out = 0
        for (_c, i) in self.vals:
            if i is not None:
                out = max(out, abs(i))
        for t, _v in list(self.plus.values()) + list(self.minus.values()):
            out = max(out, abs(t))
        return out

    def classes(self):
        return {c for c, _i in self.vals} | set(self.plus) | set(self.minus)

    def to_text(self):
        lines = []
        for cls, (t, v) in sorted(self.plus.items()):
            lines.append("tail+ %s from %d = %d" % (cls, t, v))
        for cls, (t, v) in sorted(self.minus.items()):
            lines.append("tail- %s from %d = %d" % (cls, t, v))
        for (cls, idx), v in sorted(self.vals.items(), key=lambda p: (p[0][0], p[0][1] or 0)):
            label = cls if idx is None else "%s[%d]" % (cls, idx)
            lines.append("set %s = %d" % (label, v))
        return "\n".join(lines) + "\n"

    def with_added(self, cls, idx, delta):
        out = Vec(self.vals, self.plus, self.minus)
        out.vals[(cls, idx)] = self.value(cls, idx) + delta
        return out


def scaled(vec, c):
    return Vec(
        {k: c * v for k, v in vec.vals.items()},
        {k: (t, c * v) for k, (t, v) in vec.plus.items()},
        {k: (t, c * v) for k, (t, v) in vec.minus.items()},
    )


def parse_vec(text):
    """Read the `set` / `tail+` / `tail-` lines of the vector text format."""
    vec = Vec()
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "set":
            lhs, rhs = line[3:].split("=", 1)
            vec.vals[_endpoint(lhs)] = int(rhs)
        else:
            t, v = int(parts[3]), int(parts[5])
            direction = parts[0][-1] if parts[0] != "tail" else ("+" if t >= 0 else "-")
            (vec.plus if direction == "+" else vec.minus)[parts[1]] = (t, v)
    return vec


def vec_from_intervals(graph, intervals, static=None):
    """Sum per-class interval contributions {cls: [(a, b, delta)]}, where
    delta lands on every index a <= i <= b and None means unbounded."""
    vals = {(c, None): v for c, v in (static or {}).items() if v}
    plus, minus = {}, {}
    lowest = 0 if graph.one_sided else None
    for cls, ivs in intervals.items():
        ends = [x for a, b, _d in ivs for x in (a, b) if x is not None]
        lo, hi = (min(ends), max(ends)) if ends else (0, 0)
        if lowest is not None:
            lo = max(lo, lowest)
        right = sum(d for _a, b, d in ivs if b is None)
        left = sum(d for a, _b, d in ivs if a is None)
        if right:
            plus[cls] = (hi + 1, right)
        if left and lowest is None:
            minus[cls] = (lo - 1, left)
        for i in range(lo, hi + 1):
            s = sum(d for a, b, d in ivs if (a is None or a <= i) and (b is None or i <= b))
            if s:
                vals[(cls, i)] = s
    return Vec(vals, plus, minus)


def family_intervals(darts, coeff, lo, hi, intervals, static):
    """Add coeff times the dart list shifted by every k in [lo, hi]."""
    for cls, idx, sign in darts:
        d = coeff * sign
        if idx is None:
            static[cls] = static.get(cls, 0) + d * (hi - lo + 1)
            continue
        a = None if lo is None else idx + lo
        b = None if hi is None else idx + hi
        intervals.setdefault(cls, []).append((a, b, d))


def families_vector(graph, families):
    """Edge vector of sum(coeff * walk shifted over [lo, hi]), dart by dart."""
    intervals, static = {}, {}
    for coeff, darts, lo, hi in families:
        family_intervals(darts, coeff, lo, hi, intervals, static)
    return vec_from_intervals(graph, intervals, static)


def same_vector(graph, a, b):
    """Whether two vectors agree on every edge: past the largest index any
    of them mentions, both are constant per class and side."""
    for cls in graph.static_edges():
        if a.value(cls, None) != b.value(cls, None):
            return False
    big = max(a.extent(), b.extent()) + 2
    lo = 0 if graph.one_sided else -big
    for cls in graph.cell_classes():
        for sign in (1, -1):
            if sign < 0 and graph.one_sided:
                continue
            if a.far(cls, sign) != b.far(cls, sign):
                return False
        for i in range(lo, big + 1):
            if a.value(cls, i) != b.value(cls, i):
                return False
    return True


def walk_darts(graph, start, steps):
    """Darts of a walk given as (edge class, index) steps from `start`;
    each step's direction is whichever end sits at the current vertex."""
    cur = start
    darts = []
    for name, n in steps:
        t, h = graph.endpoints(name, n)
        if t == cur:
            darts.append((name, n, 1))
            cur = h
        elif h == cur:
            darts.append((name, n, -1))
            cur = t
        else:
            raise ValueError("%s[%s] does not touch %s" % (name, n, cur))
    return darts, cur


def boundary_of(graph, start, darts):
    """Head minus tail of one walk, as {vertex: coefficient}."""
    cur = start
    for name, n, sign in darts:
        t, h = graph.endpoints(name, n)
        cur = h if sign > 0 else t
    if cur == start:
        return {}
    return {cur: 1, start: -1}


# -- certificates --------------------------------------------------------------


def _json_dart(obj):
    return obj["edge"], obj.get("index"), 1 if obj.get("forward", True) else -1


def _json_ray(obj):
    st = obj["start"]
    return (
        (st["class"], st.get("index")),
        [_json_dart(d) for d in obj.get("initial", [])],
        [_json_dart(d) for d in obj.get("repeat", [])],
        obj["shift"],
    )


def _pieces(obj):
    """(coeff, kind, payload) for every circle of a member certificate."""
    out = []
    for item in obj["decomposition"]["circles"]:
        coeff = item.get("coeff", 1)
        typ = item["type"]
        if typ == "circuit":
            out.append((coeff, "darts", [_json_dart(d) for d in item["darts"]]))
        elif typ == "family":
            darts = [_json_dart(d) for d in item["template"]]
            out.append((coeff, "family", (darts, item["lo"], item["hi"])))
        else:
            segs = [item] if typ == "double-ray" else item["segments"]
            for seg in segs:
                out.append((coeff, "darts", [_json_dart(d) for d in seg.get("middle", [])]))
                out.append((coeff, "ray", _json_ray(seg["forward"])))
                out.append((-coeff, "ray", _json_ray(seg["back"])))
    return out


def certificate_pieces(obj):
    """Number of circles in a member certificate's JSON."""
    return len(obj["decomposition"]["circles"])


def reevaluate_member(graph, vec, obj):
    """Whether a member certificate's circles sum to `vec` on every edge.

    Past T, the largest index that the vector or the certificate mentions
    plus the graph's widest edge, each circle's count on a class is
    periodic with the lcm P of the ray shifts, and the vector is constant.
    So agreement on [-(T + P), T + P] settles agreement everywhere."""
    pieces = _pieces(obj)
    ext = vec.extent()
    period = 1

    def bump(i):
        nonlocal ext
        if i is not None:
            ext = max(ext, abs(i))

    for _c, kind, payload in pieces:
        if kind == "darts":
            for _n, i, _s in payload:
                bump(i)
        elif kind == "family":
            darts, lo, hi = payload
            for _n, i, _s in darts:
                bump(i)
            bump(lo)
            bump(hi)
        else:
            start, initial, repeat, shift = payload
            bump(start[1])
            for _n, i, _s in initial + repeat:
                bump(i)
            period = period * abs(shift) // math.gcd(period, abs(shift))
    top = ext + graph.width + 1 + period
    lo = 0 if graph.one_sided else -top
    got = {}

    def add(name, i, d):
        if i is None or lo <= i <= top:
            got[(name, i)] = got.get((name, i), 0) + d

    for coeff, kind, payload in pieces:
        if kind == "darts":
            for name, i, s in payload:
                add(name, i, coeff * s)
        elif kind == "family":
            darts, flo, fhi = payload
            for name, i, s in darts:
                k0 = lo - i if flo is None else max(flo, lo - i)
                k1 = top - i if fhi is None else min(fhi, top - i)
                for k in range(k0, k1 + 1):
                    add(name, i + k, coeff * s)
        else:
            _start, initial, repeat, shift = payload
            for name, i, s in initial:
                add(name, i, coeff * s)
            for name, i, s in repeat:
                j = i
                while lo <= j <= top:
                    add(name, j, coeff * s)
                    j += shift
    for name in graph.static_edges():
        if got.get((name, None), 0) != vec.value(name, None):
            return False
    for name in graph.cell_classes():
        for i in range(lo, top + 1):
            if got.get((name, i), 0) != vec.value(name, i):
                return False
    return True


def reevaluate_non_member(graph, vec, obj):
    """Crossing sum of a finite vertex-set cut, or None for other cuts."""
    cut = obj["cut"]
    if cut["kind"] != "finite-set":
        return None
    side = {(v["class"], v.get("index")) for v in cut["vertices"]}
    return graph.cut_sum(side, vec)
