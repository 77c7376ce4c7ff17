"""Oriented cuts and their crossing sums.

A cut is one side X of a vertex bipartition with finitely many crossing
edges. Two shapes cover everything this package needs:

  FiniteSetCut   X is an explicit finite vertex set.
  HalfSpaceCut   X is a union of half spaces (one per chosen end, beyond a
                 truncation radius), symmetric-differenced with a finite
                 delta set.

Crossing darts are oriented out of X, and cut_sum adds the vector over them.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import FormatError
from .graph import (
    Dart,
    EdgeId,
    EndId,
    VertexId,
    end_key,
    json_int,
    json_list,
    vertex_key,
)


@dataclass(frozen=True)
class FiniteSetCut:
    vertices: frozenset

    def describe(self):
        names = ", ".join(v.label() for v in sorted(self.vertices, key=vertex_key))
        return "X = {%s}" % names

    def __str__(self):
        return self.describe()


@dataclass(frozen=True)
class HalfSpaceCut:
    ends: tuple
    radius: int
    delta: frozenset = frozenset()

    def describe(self):
        parts = " + ".join(str(e) for e in self.ends) or "(no ends)"
        s = "X = half spaces past radius %d toward %s" % (self.radius, parts)
        if self.delta:
            s += " xor {%s}" % ", ".join(
                v.label() for v in sorted(self.delta, key=vertex_key)
            )
        return s

    def __str__(self):
        return self.describe()


def _check_cut(g, cut):
    if isinstance(cut, FiniteSetCut):
        for v in cut.vertices:
            g.require_vertex(v)
    elif isinstance(cut, HalfSpaceCut):
        if type(cut.radius) is not int or cut.radius < 0:
            raise FormatError("cut radius must be a nonnegative integer")
        for e in cut.ends:
            g.require_end(e)
        if len(set(cut.ends)) != len(cut.ends):
            raise FormatError("duplicate end in cut")
        for v in cut.delta:
            g.require_vertex(v)
    else:
        raise FormatError("not a cut: %r" % (cut,))


def cut_contains(g, cut, v) -> bool:
    """Whether v lies on the X side."""
    g.require_vertex(v)
    if isinstance(cut, FiniteSetCut):
        return v in cut.vertices
    if isinstance(cut, HalfSpaceCut):
        base = any(g.in_half_space(v, e, cut.radius) for e in cut.ends)
        return base != (v in cut.delta)
    raise FormatError("not a cut: %r" % (cut,))


def cut_edges(g, cut):
    """The finite list of crossing darts, oriented out of X."""
    _check_cut(g, cut)
    if isinstance(cut, FiniteSetCut):
        cand = set()
        for v in cut.vertices:
            for d, _w in g.neighbors(v):
                cand.add(d.edge)
    else:
        cand = set()
        for v in cut.delta:
            for d, _w in g.neighbors(v):
                cand.add(d.edge)
        signs = set()
        for e in cut.ends:
            signs.add(1 if e.direction == "+" else -1)
        for sign in signs:
            r = cut.radius
            for ec in g.cell_edge_classes:
                s = ec.span
                if s == 0:
                    continue
                if sign > 0:
                    lo, hi = r - s + 1, r
                else:
                    lo, hi = -r - s, -r - 1
                for n in range(lo, hi + 1):
                    if g.kind == "periodic-n" and n < 0:
                        continue
                    cand.add(EdgeId(ec.name, n))
    out = []
    for e in sorted(cand, key=lambda e: (e.cls, e.index is not None, e.index or 0)):
        t, h = g.endpoints(e)
        tin = cut_contains(g, cut, t)
        hin = cut_contains(g, cut, h)
        if tin and not hin:
            out.append(Dart(e, True))
        elif hin and not tin:
            out.append(Dart(e, False))
    return tuple(out)


def cut_sum(g, cut, vec) -> int:
    """Sum of the vector over the crossing darts, oriented out of X."""
    return sum(vec.evaluate(d) for d in cut_edges(g, cut))


def star_cut(v: VertexId) -> FiniteSetCut:
    """The cut around one vertex; its sum is the net outflow there."""
    return FiniteSetCut(frozenset([v]))


def enumerate_finite_cuts(g, radius, with_edges=False):
    """Lazily yield every finite oriented cut whose crossing edges touch the
    radius-`radius` window, without duplicates (by exact crossing set).

    Each cut is one choice of S (subset of the truncation vertices) and H
    (subset of ends): X is the union of the chosen half spaces xor S. Any
    vertex side with finite edge boundary inside the window arises this way,
    so for vectors supported in the window the enumeration is exhaustive.
    Cuts with no crossing edges are skipped. Exponential in the truncation
    size; meant for oracle checks on small windows."""
    trunc = g.truncate(radius)
    verts = list(trunc.vertices)
    ends = list(g.ends())
    seen = set()
    for smask in range(1 << len(verts)):
        S = frozenset(v for i, v in enumerate(verts) if smask >> i & 1)
        for hmask in range(1 << len(ends)):
            H = tuple(e for i, e in enumerate(ends) if hmask >> i & 1)
            cut = HalfSpaceCut(H, radius, S)
            darts = cut_edges(g, cut)
            if not darts:
                continue
            key = frozenset(darts)
            if key in seen:
                continue
            seen.add(key)
            yield (cut, darts) if with_edges else cut


def exhaustive_cut_check(g, vec, radius, sample=0, rng=None):
    """Decide whether every cut yielded by enumerate_finite_cuts(g, radius)
    sums to zero on vec, without walking the whole exponential family.

    Every enumerated X-side is a disjoint union S ∪ H of window vertices
    and half spaces beyond the window, and crossing sums add over disjoint
    sides (edges between two parts of X cancel). So the full quantifier
    collapses to: every vertex star in the window sums to zero and the
    single half-space cut toward each end sums to zero. With sample > 0
    the additivity is double-checked on `sample` randomly drawn (S, H)
    choices by literal summation; a mismatch there is an internal error.

    Returns None when every enumerated cut sums to zero, otherwise one
    violated cut."""
    from .errors import InternalError

    trunc = g.truncate(radius)
    star_sums = {}
    violated = None
    for v in trunc.vertices:
        cut = star_cut(v)
        star_sums[v] = cut_sum(g, cut, vec)
        if star_sums[v] and violated is None:
            violated = cut
    half_sums = {}
    for e in g.ends():
        cut = HalfSpaceCut((e,), radius)
        half_sums[e] = cut_sum(g, cut, vec)
        if half_sums[e] and violated is None:
            violated = cut
    if sample and rng is not None:
        verts = list(trunc.vertices)
        ends = list(g.ends())
        for _ in range(sample):
            S = frozenset(v for v in verts if rng.random() < 0.5)
            H = tuple(e for e in ends if rng.random() < 0.5)
            cut = HalfSpaceCut(H, radius, S)
            want = sum(star_sums[v] for v in S) + sum(
                half_sums[e] for e in H
            )
            got = cut_sum(g, cut, vec)
            if got != want:
                raise InternalError(
                    "cut sums are not additive over %s: literal %d, "
                    "star/half decomposition %d" % (cut.describe(), got, want)
                )
    return violated


# serialization ------------------------------------------------------------


def vertex_to_json(v: VertexId):
    out = {"class": v.cls}
    if v.index is not None:
        out["index"] = v.index
    return out


def vertex_from_json(obj):
    if not isinstance(obj, dict) or not isinstance(obj.get("class"), str):
        raise FormatError("bad vertex object %r" % (obj,))
    return VertexId(obj["class"], json_int(obj, "index", "vertex", null=True))


def cut_to_json(cut):
    if isinstance(cut, FiniteSetCut):
        return {
            "kind": "finite-set",
            "vertices": [
                vertex_to_json(v) for v in sorted(cut.vertices, key=vertex_key)
            ],
        }
    if isinstance(cut, HalfSpaceCut):
        return {
            "kind": "half-space",
            "ends": [str(e) for e in sorted(cut.ends, key=end_key)],
            "radius": cut.radius,
            "delta": [
                vertex_to_json(v) for v in sorted(cut.delta, key=vertex_key)
            ],
        }
    raise FormatError("not a cut: %r" % (cut,))


def cut_from_json(g, obj):
    if not isinstance(obj, dict):
        raise FormatError("cut must be an object")
    kind = obj.get("kind")
    if kind == "finite-set":
        cut = FiniteSetCut(
            frozenset(
                vertex_from_json(v) for v in json_list(obj, "vertices", "cut")
            )
        )
    elif kind == "half-space":
        cut = HalfSpaceCut(
            tuple(EndId.parse(e) for e in json_list(obj, "ends", "cut", True)),
            json_int(obj, "radius", "half-space cut"),
            frozenset(vertex_from_json(v) for v in json_list(obj, "delta", "cut")),
        )
    else:
        raise FormatError("unknown cut kind %r" % kind)
    _check_cut(g, cut)
    return cut
