"""Circles and circle decompositions.

A circle is a closed curve in the compactified graph. Three finite
descriptions cover the ones this package produces and checks:

  FiniteCircuit   a closed edge-injective dart walk in the graph itself.
  CircuitFamily   a circuit template repeated over a range of shifts; one
                  entry stands for the whole (possibly infinite) family.
  EndCircle       a circle through one or more ends: a cyclic list of
                  segments, each a back ray (traversed inward), a finite
                  middle walk, and a forward ray. Consecutive segments must
                  meet at a common end. One segment whose two rays share an
                  end is a plain double ray.

A circle passes each edge at most once: its middle and lead-in darts are
points, each repeat dart is the line of its edges u + p*shift, p >= 0, and
graph.first_shared decides by residues whether any two of them meet.

A CircleDecomposition is a finite list of integer-weighted pieces. Each
piece's count(counts, coeff) writes coeff times its signed dart counts into
one vectors._Counts, the counter behind chain counts too: a circuit counts
its darts, a family its template darts over its shift range, and a segment
its forward ray, its back ray negated and its middle darts. Families keep
each edge's total finite because a template meets a fixed edge at finitely
many shifts. Settled, the counts are the decomposition's exact sum as an
EdgeVector, which is how a certificate is verified. A single piece need not
settle (a lone ray of shift 3 is not eventually constant), so value_on
reads the counts before settling.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import FormatError
from .graph import Dart, EdgeId, Ray, VertexId, first_shared, json_int, json_list, shift_id
from .vectors import EdgeVector, _Counts


@dataclass(frozen=True)
class FiniteCircuit:
    darts: tuple

    def check(self, g):
        if not self.darts:
            raise FormatError("empty circuit")
        frm, _ = g.dart_ends(self.darts[0])
        seq = g.walk_from(frm, self.darts)
        if seq[-1] != seq[0]:
            raise FormatError(
                "circuit ends at %s, started at %s"
                % (seq[-1].label(), seq[0].label())
            )
        dup = first_shared([d.edge for d in self.darts], ())
        if dup is not None:
            raise FormatError("circuit repeats edge %s" % dup.label())

    def count(self, counts, coeff):
        counts.darts(self.darts, coeff)

    def vector(self, g) -> EdgeVector:
        return EdgeVector.from_darts(g, self.darts)

    def shifted(self, g, k) -> "FiniteCircuit":
        """The circuit moved k cells along the lattice of g."""
        return FiniteCircuit(tuple(shift_id(d, k) for d in self.darts))


@dataclass(frozen=True)
class CircuitFamily:
    """template shifted by every k in [lo, hi]; None means unbounded."""

    template: FiniteCircuit
    lo: object = None
    hi: object = None

    def check(self, g):
        if g.kind == "finite":
            raise FormatError("shift families need a periodic graph")
        if any(b is not None and type(b) is not int for b in (self.lo, self.hi)):
            raise FormatError("shift range ends must be integers or None")
        self.template.check(g)
        for d in self.template.darts:
            if d.edge.index is None:
                raise FormatError(
                    "family template uses static edge %s" % d.edge.label()
                )
        if self.lo is not None and self.hi is not None and self.lo > self.hi:
            raise FormatError("empty shift range")
        if g.kind == "periodic-n":
            if self.lo is None:
                raise FormatError(
                    "shift range must be bounded below on a one-ended lattice"
                )
            mn = min(d.edge.index for d in self.template.darts)
            if self.lo + mn < 0:
                raise FormatError("shift %d slides the template off the graph"
                                  % self.lo)

    def count(self, counts, coeff):
        counts.darts(self.template.darts, coeff, self.lo, self.hi)

    def shifted(self, g, k) -> "CircuitFamily":
        lo, hi = (None if b is None else b + k for b in (self.lo, self.hi))
        return CircuitFamily(self.template, lo, hi)


@dataclass(frozen=True)
class RaySegment:
    """An arc from one end to another: in along back (reversed), across the
    middle darts, out along fwd."""

    back: Ray
    middle: tuple
    fwd: Ray

    def check(self, g):
        """Check both rays and the middle walk; return the ends of the back
        and the forward ray."""
        ends = g.end_of_ray(self.back), g.end_of_ray(self.fwd)
        seq = g.walk_from(self.back.start, self.middle)
        if seq[-1] != self.fwd.start:
            raise FormatError(
                "segment middle ends at %s but the forward ray starts at %s"
                % (seq[-1].label(), self.fwd.start.label())
            )
        return ends

    def count(self, counts, coeff):
        counts.ray(self.fwd, coeff)
        counts.ray(self.back, -coeff)
        counts.darts(self.middle, coeff)

    def rays(self):
        return (self.back, self.fwd)


@dataclass(frozen=True)
class EndCircle:
    segments: tuple

    def check(self, g):
        if not self.segments:
            raise FormatError("end circle with no segments")
        ends = [seg.check(g) for seg in self.segments]
        for i, (_back, a) in enumerate(ends):
            j = (i + 1) % len(ends)
            b = ends[j][0]
            if a != b:
                raise FormatError(
                    "segment %d leaves toward %s but segment %d returns from %s"
                    % (i, a, j, b)
                )
        rays = [r for seg in self.segments for r in seg.rays()]
        points = [d.edge for seg in self.segments for d in seg.middle]
        points += [d.edge for r in rays for d in r.initial]
        e = first_shared(points, [(*d.edge, r.shift) for r in rays for d in r.repeat])
        if e is not None:
            raise FormatError("circle traverses edge %s twice" % EdgeId(*e).label())

    def count(self, counts, coeff):
        for seg in self.segments:
            seg.count(counts, coeff)

    def shifted(self, g, k) -> "EndCircle":
        return EndCircle(tuple(
            RaySegment(shift_id(s.back, k), tuple(shift_id(d, k) for d in s.middle),
                       shift_id(s.fwd, k)) for s in self.segments))


PIECE_TYPES = (FiniteCircuit, CircuitFamily, EndCircle)


@dataclass(frozen=True)
class CircleDecomposition:
    entries: tuple  # of (coeff, piece)

    def check(self, g):
        for coeff, piece in self.entries:
            if type(coeff) is not int or coeff == 0:
                raise FormatError("circle coefficient must be a nonzero "
                                  "integer, got %r" % (coeff,))
            if not isinstance(piece, PIECE_TYPES):
                raise FormatError("not a circle: %r" % (piece,))
            piece.check(g)

    def shifted(self, g, k) -> "CircleDecomposition":
        """Every piece moved k cells along the lattice of g. Only ids are
        computed, as by graph.shift_id: static edges stay where they are."""
        return CircleDecomposition(
            tuple((coeff, piece.shifted(g, k)) for coeff, piece in self.entries))

    def counts(self, g) -> _Counts:
        """Every piece's counts, not yet settled."""
        counts = _Counts(g)
        for coeff, piece in self.entries:
            piece.count(counts, coeff)
        return counts

    def value_on(self, g, e: EdgeId) -> int:
        return self.counts(g).value_at(e.cls, e.index)


# serialization ------------------------------------------------------------


def dart_to_json(d: Dart):
    out = {"edge": d.edge.cls, "forward": d.forward}
    if d.edge.index is not None:
        out["index"] = d.edge.index
    return out


def dart_from_json(obj) -> Dart:
    if not isinstance(obj, dict) or not isinstance(obj.get("edge"), str):
        raise FormatError("bad dart object %r" % (obj,))
    idx = json_int(obj, "index", "dart", null=True)
    fwd = obj.get("forward", True)
    if not isinstance(fwd, bool):
        raise FormatError("dart 'forward' must be a boolean")
    return Dart(EdgeId(obj["edge"], idx), fwd)


def ray_to_json(ray: Ray):
    start = {"class": ray.start.cls}
    if ray.start.index is not None:
        start["index"] = ray.start.index
    return {
        "start": start,
        "initial": [dart_to_json(d) for d in ray.initial],
        "repeat": [dart_to_json(d) for d in ray.repeat],
        "shift": ray.shift,
    }


def ray_from_json(obj) -> Ray:
    if not isinstance(obj, dict) or "start" not in obj:
        raise FormatError("bad ray object %r" % (obj,))
    st = obj["start"]
    if not isinstance(st, dict) or not isinstance(st.get("class"), str):
        raise FormatError("bad ray start %r" % (st,))
    return Ray(
        VertexId(st["class"], json_int(st, "index", "ray start", null=True)),
        tuple(dart_from_json(d) for d in json_list(obj, "initial", "ray")),
        tuple(dart_from_json(d) for d in json_list(obj, "repeat", "ray")),
        json_int(obj, "shift", "ray"),
    )


def _segment_to_json(seg: RaySegment):
    return {
        "back": ray_to_json(seg.back),
        "middle": [dart_to_json(d) for d in seg.middle],
        "forward": ray_to_json(seg.fwd),
    }


def _segment_from_json(obj) -> RaySegment:
    if not isinstance(obj, dict):
        raise FormatError("bad segment %r" % (obj,))
    for key in ("back", "forward"):
        if key not in obj:
            raise FormatError("segment needs a %r ray" % key)
    return RaySegment(
        ray_from_json(obj["back"]),
        tuple(dart_from_json(d) for d in json_list(obj, "middle", "segment")),
        ray_from_json(obj["forward"]),
    )


def piece_to_json(piece):
    if isinstance(piece, FiniteCircuit):
        return {
            "type": "circuit",
            "darts": [dart_to_json(d) for d in piece.darts],
        }
    if isinstance(piece, CircuitFamily):
        return {
            "type": "family",
            "template": [dart_to_json(d) for d in piece.template.darts],
            "lo": piece.lo,
            "hi": piece.hi,
        }
    if isinstance(piece, EndCircle):
        if len(piece.segments) == 1:
            return {"type": "double-ray", **_segment_to_json(piece.segments[0])}
        return {
            "type": "end-circle",
            "segments": [_segment_to_json(s) for s in piece.segments],
        }
    raise FormatError("not a circle: %r" % (piece,))


def piece_from_json(obj):
    if not isinstance(obj, dict):
        raise FormatError("bad circle object %r" % (obj,))
    typ = obj.get("type")
    if typ == "circuit":
        return FiniteCircuit(
            tuple(dart_from_json(d) for d in json_list(obj, "darts", "circuit"))
        )
    if typ == "family":
        return CircuitFamily(
            FiniteCircuit(
                tuple(dart_from_json(d) for d in json_list(obj, "template", "family"))
            ),
            json_int(obj, "lo", "family", null=True),
            json_int(obj, "hi", "family", null=True),
        )
    if typ == "double-ray":
        return EndCircle((_segment_from_json(obj),))
    if typ == "end-circle":
        return EndCircle(
            tuple(
                _segment_from_json(s)
                for s in json_list(obj, "segments", "end circle")
            )
        )
    raise FormatError("unknown circle type %r" % typ)


def decomposition_to_json(dec: CircleDecomposition):
    return {
        "circles": [
            {"coeff": coeff, **piece_to_json(piece)}
            for coeff, piece in dec.entries
        ]
    }


def decomposition_from_json(obj) -> CircleDecomposition:
    if not isinstance(obj, dict) or "circles" not in obj:
        raise FormatError("decomposition must carry a 'circles' list")
    entries = []
    for item in json_list(obj, "circles", "decomposition"):
        if not isinstance(item, dict):
            raise FormatError("bad circle entry %r" % (item,))
        coeff = json_int(item, "coeff", "circle") if "coeff" in item else 1
        entries.append((coeff, piece_from_json(item)))
    return CircleDecomposition(tuple(entries))
