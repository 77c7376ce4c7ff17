"""Shared graphs for the test suite.

Every fixture graph is small enough that construction is instant, but they
are session scoped anyway since Graph objects are immutable.
"""

import pytest

from endcycle.graph import graph_from_text
from endcycle import examples

# infinite in both directions, two ends
LADDER = """\
graph ladder
kind periodic-z
vertex top
vertex bot
edge rail_top : top -> top[+1]
edge rail_bot : bot -> bot[+1]
edge rung : top -> bot
"""

# two rays glued at a cap vertex plus a chord per cell; one end
CHORDS = """\
graph chords
kind periodic-n
cap-vertex origin
vertex pos
vertex neg
edge pos_first : origin -> pos[0]
edge neg_first : neg[0] -> origin
edge pos_step : pos -> pos[+1]
edge neg_step : neg[+1] -> neg
edge chord : pos -> neg
"""

# three parallel lines with two rungs per cell, still one component
TRIPLE = """\
graph triple
kind periodic-z
vertex a
vertex b
vertex c
edge ra : a -> a[+1]
edge rb : b -> b[+1]
edge rc : c -> c[+1]
edge ab : a -> b
edge bc : b -> c
"""

SINGLE_RAY = """\
graph ray
kind periodic-n
vertex node
edge step : node -> node[+1]
"""

DOUBLE_RAY = """\
graph line
kind periodic-z
vertex node
edge step : node -> node[+1]
"""

# a finite triangle hanging off a ray, all three corners cap vertices
TRIANGLE_CAPS = """\
graph capcycle
kind periodic-n
cap-vertex v0
cap-vertex v1
cap-vertex v2
vertex cell
edge a : v0 -> v1
edge b : v1 -> v2
edge c : v2 -> v0
edge out : v0 -> cell[0]
edge step : cell -> cell[+1]
"""

THETA = """\
graph theta
kind finite
vertex u
vertex v
edge left : u -> v
edge mid : u -> v
edge right : u -> v
"""

# ladder plus a triangle plus an isolated edge: three components
THREE_PARTS = """\
graph three-parts
kind periodic-z
vertex top
vertex bot
cap-vertex t0
cap-vertex t1
cap-vertex t2
cap-vertex p0
cap-vertex p1
edge rail_top : top -> top[+1]
edge rail_bot : bot -> bot[+1]
edge rung : top -> bot
edge side_a : t0 -> t1
edge side_b : t1 -> t2
edge side_c : t2 -> t0
edge bridge : p0 -> p1
"""

# a line a with a bounded piece q[n] - s[n+1] - t[n+2] hanging off each a[n-1]
PENDANT = """\
graph pendant
kind periodic-z
vertex a
vertex q
vertex s
vertex t
edge aa : a -> a[+1]
edge qa : q -> a[-1]
edge qs : q -> s[+1]
edge st : s -> t[+1]
"""


def random_vector(g, rng, bound=3, coeff=3):
    """Seeded eventually-periodic vector with support inside [-bound, bound].

    Mixes explicit entries, tails, and static edges; the same rng state
    always produces the same vector, so tests can log the seed alone.
    """
    from endcycle.graph import KIND_PERIODIC_N
    from endcycle.vectors import parse_vector_text

    lo = 0 if g.kind == KIND_PERIODIC_N else -bound
    lines = []
    for cname, cls in sorted(g.edge_classes.items()):
        if cls.static:
            if rng.random() < 0.3:
                lines.append("set %s = %d" % (cname, rng.randint(-coeff, coeff)))
            continue
        if rng.random() < 0.6:
            for idx in rng.sample(range(lo, bound + 1), rng.randint(1, 3)):
                lines.append("set %s[%d] = %d" % (cname, idx, rng.randint(-coeff, coeff)))
        roll = rng.random()
        if roll < 0.25:
            lines.append(
                "tail+ %s from %d = %d"
                % (cname, rng.randint(lo, bound), rng.randint(-coeff, coeff))
            )
        elif g.kind != KIND_PERIODIC_N and roll < 0.45:
            lines.append(
                "tail- %s from %d = %d"
                % (cname, rng.randint(-bound, bound), rng.randint(-coeff, coeff))
            )
        elif g.kind != KIND_PERIODIC_N and roll < 0.6:
            # two tails on one class share a value; normalization merges
            # overlapping tails only when the values agree
            v = rng.randint(-coeff, coeff)
            lines.append("tail+ %s from %d = %d" % (cname, rng.randint(lo, bound), v))
            lines.append("tail- %s from %d = %d" % (cname, rng.randint(-bound, bound), v))
    return parse_vector_text(g, "\n".join(lines))


def random_walk_text(g, rng, steps):
    """A closed-or-open walk built by stumbling along darts."""
    verts = [v for v in g.truncate(2).vertices]
    start = rng.choice(sorted(verts, key=lambda v: v.label()))
    labels = [start.label()]
    cur = start
    for _ in range(steps):
        options = sorted(g.neighbors(cur), key=lambda p: p[1].label())
        d, nxt = rng.choice(options)
        labels.append(d.edge.label())
        labels.append(nxt.label())
        cur = nxt
    return "walk " + " ".join(labels)


def random_chain(g, rng):
    from endcycle import chains

    parts = [random_walk_text(g, rng, rng.randint(1, 5))
             for _ in range(rng.randint(1, 3))]
    if rng.random() < 0.5:
        parts.append("coeff %d pass %s %s" % (
            rng.choice([-2, -1, 2, 3]),
            rng.choice(sorted(e.label() for e in g.truncate(1).edges)),
            rng.choice("+-"),
        ))
    return chains.parse_chain_text(g, "\n".join(parts))


def merged(g, a, b):
    from endcycle import chains

    return chains.ChainRep(g, a.finite + b.finite, a.periodic + b.periodic)


def _make(text):
    return graph_from_text(text)


@pytest.fixture(scope="session")
def ladder():
    return _make(LADDER)


@pytest.fixture(scope="session")
def chords():
    return _make(CHORDS)


@pytest.fixture(scope="session")
def triple():
    return _make(TRIPLE)


@pytest.fixture(scope="session")
def single_ray():
    return _make(SINGLE_RAY)


@pytest.fixture(scope="session")
def double_ray():
    return _make(DOUBLE_RAY)


@pytest.fixture(scope="session")
def triangle_caps():
    return _make(TRIANGLE_CAPS)


@pytest.fixture(scope="session")
def theta():
    return _make(THETA)


@pytest.fixture(scope="session")
def three_parts():
    return _make(THREE_PARTS)


@pytest.fixture(scope="session")
def intro_plain():
    docs = examples.example_documents("intro-chords")
    return graph_from_text(docs["intro-plain.graph"])


@pytest.fixture(scope="session")
def intro_chords():
    return examples.example_graph("intro-chords")


@pytest.fixture(scope="session")
def disjoint():
    return examples.example_graph("disjoint-ladder-triangle")
