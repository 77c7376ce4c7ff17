"""Seeded workload generators.

Each generator is a pure function of its seed: it writes graph, vector,
chain and pair documents as text, and lists the operations to run on
them with the answer each one must give. The answers come from the
construction and from `model`, never from the program.
"""

import random
from dataclasses import dataclass, field

from model import GraphModel, Vec, boundary_of, families_vector, walk_darts

LADDER = """\
graph ladder
kind periodic-z
vertex top
vertex bot
edge rail_top : top -> top[+1]
edge rail_bot : bot -> bot[+1]
edge rung : top -> bot
"""

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

CHORDS = """\
graph intro-chords
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


def strip_text(k):
    """k parallel rails with a rung between neighbouring rails in every cell."""
    lines = ["graph strip-%d" % k, "kind periodic-z"]
    lines += ["vertex r%d" % j for j in range(k)]
    lines += ["edge rail%d : r%d -> r%d[+1]" % (j, j, j) for j in range(k)]
    lines += ["edge rung%d : r%d -> r%d" % (j, j, j + 1) for j in range(k - 1)]
    return "\n".join(lines) + "\n"


def drift_text(w):
    return "graph drift-%d\nkind periodic-z\nvertex a\nedge s : a -> a[+1]\nedge l : a -> a[+%d]\n" % (w, w)


@dataclass
class Op:
    """One operation. `kind` is decide, chain, homologous or restrict;
    `docs` names the parsed documents it reads; `expect` is the answer."""

    kind: str
    graph: str
    docs: tuple
    expect: object
    own: object = None  # the benchmark's own vector or boundary
    label: str = ""


@dataclass
class Workload:
    name: str
    graphs: dict = field(default_factory=dict)  # id -> graph text
    vectors: dict = field(default_factory=dict)  # id -> (graph id, text)
    chains: dict = field(default_factory=dict)  # id -> (graph id, text)
    pairs: dict = field(default_factory=dict)  # id -> (graph id, text)
    ops: list = field(default_factory=list)
    models: dict = field(default_factory=dict)  # graph id -> GraphModel

    def add_graph(self, gid, text):
        self.graphs[gid] = text
        self.models[gid] = GraphModel(text)

    def add_decide(self, gid, vec, expect, **kw):
        vid = "v%d" % len(self.vectors)
        self.vectors[vid] = (gid, vec.to_text())
        self.ops.append(Op("decide", gid, (vid,), expect, own=vec, **kw))


# -- far-support ---------------------------------------------------------------

# index levels of the far data; the seed jitters each by at most 2%.
# Deciding a vector with two-sided rail tails costs the square of the
# index today (a self-check walks a circle as long as the data for every
# edge of its window), so those kinds stop at a few hundred.
LINEAR_LEVELS = (100, 180, 320, 560, 1000, 1800, 3200, 10000)
SQUARE_LEVELS = (15, 22, 32, 45, 60, 80, 100, 130)
FAR_KINDS = (
    ("square", LINEAR_LEVELS),
    ("tails+square", SQUARE_LEVELS),
    ("far-tails", SQUARE_LEVELS),
    ("bump", LINEAR_LEVELS),
    ("flux+square", LINEAR_LEVELS),
)


def _add(vals, extra):
    """Entry-wise sum. Zeros stay: an explicit 0 overrides a tail."""
    out = dict(vals)
    for k, v in extra.items():
        out[k] = out.get(k, 0) + v
    return out


def far_support(seed):
    """Fixed small graphs; members and non-members whose entries or tail
    thresholds sit at indices from the hundreds to ten thousand."""
    rng = random.Random("far-support:%d" % seed)
    w = Workload("far-support")
    w.add_graph("ladder", LADDER)
    w.add_graph("strip3", strip_text(3))
    w.add_graph("strip5", strip_text(5))
    w.add_graph("chords", CHORDS)
    # the rotation puts the farthest levels on the graphs with the fewest
    # vertex classes, which keeps a round near three seconds
    order = ("strip3", "strip5", "chords", "ladder")
    for ki, (kind, levels) in enumerate(FAR_KINDS):
        for li, level in enumerate(levels):
            gid = order[(li + ki) % len(order)]
            n = level + rng.randint(-level // 50, level // 50)
            c = rng.choice((1, -1, 2))
            vec, expect = _far_vector(gid, kind, n, c, rng)
            w.add_decide(gid, vec, expect, label="%s@%d" % (kind, n))
    return w


def _far_vector(gid, kind, n, c, rng):
    """(Vec, verdict) of one far-support input on graph gid."""
    if gid == "chords":
        return _far_chords(kind, n, c)
    if gid == "ladder":
        a, b, rung = "rail_top", "rail_bot", "rung"
    else:
        k = 3 if gid == "strip3" else 5
        j = rng.randrange(k - 1)
        a, b, rung = "rail%d" % j, "rail%d" % (j + 1), "rung%d" % j
    side = rng.choice((1, -1))
    m = side * n
    square = {(a, m): c, (rung, m + 1): c, (b, m): -c, (rung, m): -c}
    diff_plus = {a: (0, 1), b: (0, -1)}
    diff_minus = {a: (-1, 1), b: (-1, -1)}
    if kind == "square":
        return Vec(square), "member"
    if kind == "tails+square":
        vals = _add({(a, m): 1, (b, m): -1}, square)
        return Vec(vals, diff_plus, diff_minus), "member"
    if kind == "far-tails":
        # rail difference beyond +-n on both sides, closed by a rung at each
        vals = {(rung, n): -1, (rung, -n): 1}
        return Vec(vals, {a: (n, 1), b: (n, -1)}, {a: (-n - 1, 1), b: (-n - 1, -1)}), "member"
    if kind == "bump":
        return Vec({(a, m): c}), "non-member"
    # flux+square: the top rail alone sums to zero at every star, so only
    # the end-flux cut refuses it, after the whole window is scanned
    vals = _add({(a, m): 1}, square)
    return Vec(vals, {a: (0, 1)}, {a: (-1, 1)}), "non-member"


def _far_chords(kind, n, c):
    square = {("pos_step", n): c, ("chord", n + 1): c, ("neg_step", n): c, ("chord", n): -c}
    loop_vals = {("pos_first", None): 1, ("neg_first", None): 1}
    loop_tails = {"pos_step": (0, 1), "neg_step": (0, 1)}
    if kind == "square":
        return Vec(square), "member"
    if kind == "tails+square":
        vals = _add(_add(loop_vals, {("pos_step", n): 1, ("neg_step", n): 1}), square)
        return Vec(vals, loop_tails), "member"
    if kind == "far-tails":
        return Vec({("chord", n): -1}, {"pos_step": (n, 1), "neg_step": (n, 1)}), "member"
    if kind == "bump":
        return Vec({("pos_step", n): c}), "non-member"
    # one end only, so no cut toward it can refuse a star-balanced vector:
    # the rail loop with one entry raised, which a star refuses
    vals = _add(loop_vals, {("pos_step", n): 2})
    return Vec(vals, loop_tails), "non-member"


# -- constructed-periodic --------------------------------------------------------

# random graphs. Graph i and its two members are drawn from a stream of
# their own that does not depend on the seed, so that the members the F1
# fault fails on are the same in every run; the seed picks each
# non-member's changed entry and the signs of the drift families.
RANDOM_GRAPHS = 200
FAMILY_SHAPES = ("finite", "one-sided", "finite", "two-sided")
# every seed decides the same drift families, two-sided and, from W = 8,
# one-sided both ways: the costliest members here to decide and to verify,
# so the tails and the throughput do not follow the random draw
DRIFT_WIDTHS = tuple(range(3, 16))

# ROADMAP item 1's two repros: members on which the solver raises today
F1_GRAPH = """\
graph f1
kind periodic-n
vertex c0
vertex c2
edge e1 : c2 -> c0[+1]
edge e4 : c0 -> c2
edge e5 : c2 -> c2[+1]
"""
F1_VECTOR = Vec(plus={"e1": (0, -1), "e4": (1, -1), "e5": (0, 1)})

F2_GRAPH = """\
graph f2
kind periodic-z
vertex c0
vertex c1
cap-vertex p0
cap-vertex p1
edge e0 : c0 -> c1[+1]
edge e1 : c1 -> c0[+3]
edge e2 : c0 -> c1[+3]
edge e3 : c0 -> c0[+1]
edge e4 : c1 -> c1[+1]
edge k0 : p0 -> c1[1]
edge k1 : p1 -> c1[2]
"""
F2_VECTOR = Vec(
    {},
    {"e0": (0, 3), "e1": (0, 1), "e2": (0, -2), "e3": (0, 1), "e4": (0, -1)},
    {"e0": (-1, 3), "e1": (-1, 1), "e2": (-1, -2), "e3": (-1, 1), "e4": (-1, -1)},
)


def random_graph_text(rng, name, slot):
    """1-3 cell classes, 0-2 caps, offsets 0-3; the slot number fixes the
    kind and the numbers of classes and caps, so that every seed draws the
    same mix of shapes. Every cell class has an
    edge to a shifted copy of itself, so each class attaches toward the
    centre and the description is always a valid graph; one to three more
    cell edges join those lines, so the graph has cycles."""
    kind = ("periodic-z", "periodic-n")[slot % 2]
    cells = ["c%d" % i for i in range(1 + slot // 2 % 3)]
    caps = ["p%d" % i for i in range(slot // 6 % 3)]
    edges = []
    for c in cells:
        edges.append((c, 0, c, rng.randint(1, 3)))
    extra = len(cells) + rng.randint(1, 3)
    while len(edges) < extra:
        a, b = rng.choice(cells), rng.choice(cells)
        oa, ob = rng.randint(0, 3), rng.randint(0, 3)
        if a != b or oa != ob:
            edges.append((a, oa, b, ob))
    for p in caps:
        c, i = rng.choice(cells), rng.randint(0, 3)
        edges.append((p, None, c, i) if rng.random() < 0.5 else (c, i, p, None))
    lines = ["graph %s" % name, "kind %s" % kind]
    lines += ["vertex %s" % c for c in cells]
    lines += ["cap-vertex %s" % p for p in caps]
    for j, (a, oa, b, ob) in enumerate(edges):
        ta = a if oa is None else "%s[%d]" % (a, oa)
        hb = b if ob is None else "%s[%d]" % (b, ob)
        lines.append("edge e%d : %s -> %s" % (j, ta, hb))
    return "\n".join(lines) + "\n"


def closed_walk(graph, rng, start, steps, caps_ok):
    """A random walk of `steps` darts from `start`, closed by a shortest
    path back, with immediate backtracks cancelled. Returns its darts."""
    darts, cur = [], start
    for _ in range(steps):
        options = [(d, v) for d, v in graph.step(cur) if caps_ok or d[1] is not None]
        if not options:
            break
        d, cur = rng.choice(options)
        darts.append(d)
    used = {d[:2] for d in darts}
    back = _path_back(graph, cur, start, caps_ok, used)
    darts += back if back is not None else _path_back(graph, cur, start, caps_ok, ())
    out = []
    for d in darts:
        if out and out[-1][:2] == d[:2] and out[-1][2] == -d[2]:
            out.pop()
        else:
            out.append(d)
    return out


def _path_back(graph, src, dst, caps_ok, avoid):
    """Shortest dart path from src to dst using no edge in `avoid`, within
    30 cells of dst, or None."""
    prev = {src: None}
    frontier = [src]
    while frontier and dst not in prev:
        nxt = []
        for v in frontier:
            for d, u in graph.step(v):
                if u in prev or (not caps_ok and d[1] is None) or d[:2] in avoid:
                    continue
                if u[1] is not None and abs(u[1] - dst[1]) > 30:
                    continue
                prev[u] = (v, d)
                nxt.append(u)
        frontier = nxt
    if dst not in prev:
        return None
    path, v = [], dst
    while prev[v] is not None:
        v, d = prev[v]
        path.append(d)
    return path[::-1]


def constructed_periodic(seed):
    """Random periodic graphs with members built from closed walks and
    their shift families, each paired with a non-member one entry off."""
    rng = random.Random("constructed-periodic:%d" % seed)
    w = Workload("constructed-periodic")
    for i in range(RANDOM_GRAPHS):
        gid = "g%d" % i
        fixed = random.Random("constructed-periodic:graph:%d" % i)
        w.add_graph(gid, random_graph_text(fixed, gid, i))
        # two members per non-member, so that the median operation falls
        # inside the members' times rather than between the two verdicts
        shape = FAMILY_SHAPES[i // 18 % 4]
        w.add_decide(gid, _random_member(w.models[gid], fixed, shape), "member", label=gid + "a")
        member = _random_member(w.models[gid], fixed, FAMILY_SHAPES[(i // 18 + 1) % 4])
        w.add_decide(gid, member, "member", label=gid)
        # the changed entry unbalances the stars at its edge's ends
        cls = rng.choice(sorted(member.classes()) or w.models[gid].cell_classes())
        idx = None if w.models[gid].edges[cls][4] else rng.choice(
            sorted(i for (c, i) in member.vals if c == cls) or [3])
        off = member.with_added(cls, idx, rng.choice((1, -1)))
        w.add_decide(gid, off, "non-member", label=gid + "+1")
    for width in DRIFT_WIDTHS:
        gid = "drift%d" % width
        w.add_graph(gid, drift_text(width))
        walk = [("s", i, 1) for i in range(width)] + [("l", 0, -1)]
        shapes = [(None, None)] + ([(0, None), (None, 0)] if width >= 8 else [])
        for lo, hi in shapes:
            vec = families_vector(w.models[gid], [(rng.choice((1, -1)), walk, lo, hi)])
            w.add_decide(gid, vec, "member", label="drift W=%d %s..%s" % (width, lo, hi))
    w.add_graph("f1", F1_GRAPH)
    w.add_decide("f1", F1_VECTOR, "member", label="F1")
    w.add_graph("f2", F2_GRAPH)
    w.add_decide("f2", F2_VECTOR, "member", label="F2")
    return w


def _random_member(graph, rng, first):
    """Sum of 1-3 shift families (finite, one-sided or two-sided) of closed
    walks, summed dart by dart; the first family has the given shape. A
    graph without cycles only has the zero vector to offer."""
    for _ in range(8):
        fams = []
        for j in range(rng.randint(1, 3)):
            cls = rng.choice(graph.cells)
            start = (cls, rng.randint(3, 6))
            shape = first if j == 0 else rng.choice(FAMILY_SHAPES)
            darts = closed_walk(graph, rng, start, rng.randint(1, 6), shape == "finite")
            if not darts:
                continue
            low = min(i for _n, i, _s in darts if i is not None) if shape != "finite" else 0
            if shape == "finite":
                a = rng.randint(-2, 2) if not graph.one_sided else 0
                lo, hi = a, a + rng.randint(0, 6)
            elif shape == "two-sided" and not graph.one_sided:
                lo, hi = None, None
            elif graph.one_sided:
                lo, hi = rng.randint(-low, 3 - low), None
            elif rng.random() < 0.5:
                lo, hi = rng.randint(-3, 3), None
            else:
                lo, hi = None, rng.randint(-3, 3)
            fams.append((rng.choice((1, 1, -1, 2)), darts, lo, hi))
        vec = families_vector(graph, fams)
        if vec.classes():
            break
    return vec


# -- homology-chains ---------------------------------------------------------

# closed template walks at shift 0: start vertex and (edge, index) steps
TEMPLATES = {
    "ladder": [
        (("top", 0), [("rail_top", 0), ("rung", 1), ("rail_bot", 0), ("rung", 0)]),
    ],
    "triple": [
        (("a", 0), [("ra", 0), ("ab", 1), ("rb", 0), ("ab", 0)]),
        (("b", 0), [("rb", 0), ("bc", 1), ("rc", 0), ("bc", 0)]),
        (("a", 0), [("ra", 0), ("ab", 1), ("bc", 1), ("rc", 0), ("bc", 0), ("ab", 0)]),
    ],
    "chords": [
        (("pos", 0), [("pos_step", 0), ("chord", 1), ("neg_step", 0), ("chord", 0)]),
    ],
}

# out along the first rail, back along the second, both to the + end
JUMP_RAILS = {
    "ladder": ("top", "rail_top", "rung", "rail_bot"),
    "triple": ("a", "ra", "ab", "rb"),
    "chords": ("pos", "pos_step", "chord", "neg_step"),
}

INADMISSIBLE = {
    "ladder": "periodic -inf..inf { endjump top[0] repeat rail_top[0]+ ; "
    "top[0] rung[0]+ repeat rail_bot[0]+ }",
    "triple": "const end-0",
    "chords": "periodic 0..inf { const origin }",
}

FAMILY_WIDTHS = (6, 12, 20, 32, 48, 70, 100, 140)


@dataclass
class Chain:
    """A chain as members (coeff, start, darts, lo, hi): a walk or, when lo
    or hi is given, its shift family; `text` overrides the rendering."""

    members: list
    text: str = None


def _walk_text(start, darts, graph):
    cur = start
    parts = [_label(start)]
    for name, n, sign in darts:
        t, h = graph.endpoints(name, n)
        cur = h if sign > 0 else t
        parts += ["%s[%d]" % (name, n) if n is not None else name, _label(cur)]
    return "walk " + " ".join(parts)


def _label(v):
    return v[0] if v[1] is None else "%s[%d]" % v


def chain_text(graph, chain):
    if chain.text is not None:
        return chain.text
    lines = []
    for coeff, start, darts, lo, hi in chain.members:
        body = _walk_text(start, darts, graph)
        if lo == hi == 0:
            line = body
        else:
            rng_txt = "%s..%s" % ("-inf" if lo is None else lo, "inf" if hi is None else hi)
            line = "periodic %s { %s }" % (rng_txt, body)
        lines.append(line if coeff == 1 else "coeff %d %s" % (coeff, line))
    return "\n".join(lines) + "\n"


def chain_vector(graph, chain):
    return families_vector(graph, [(c, d, lo, hi) for c, _s, d, lo, hi in chain.members])


def _template(graph, gid, t, k):
    start, steps = TEMPLATES[gid][t]
    darts, _end = walk_darts(graph, (start[0], start[1] + k), [(e, i + k) for e, i in steps])
    return (start[0], start[1] + k), darts


def homology_chains(seed):
    """Chain documents on the ladder, triple and intro-chords graphs."""
    rng = random.Random("homology-chains:%d" % seed)
    w = Workload("homology-chains")
    for gid, text in (("ladder", LADDER), ("triple", TRIPLE), ("chords", CHORDS)):
        w.add_graph(gid, text)
        _chain_ops(w, gid, rng)
    return w


def _chain_ops(w, gid, rng):
    graph = w.models[gid]
    z = not graph.one_sided
    ntemp = len(TEMPLATES[gid])

    def add_chain(chain, expect, own=None, label=""):
        cid = "c%d" % len(w.chains)
        w.chains[cid] = (gid, chain_text(graph, chain))
        if own is None and expect == "cycle":
            own = chain_vector(graph, chain)
        w.ops.append(Op("chain", gid, (cid,), expect, own=own, label=label))
        return cid

    families = []
    for width in FAMILY_WIDTHS:
        width += rng.randint(0, 1)
        k = rng.randint(0, 3) if not z else rng.randint(-3, 3)
        start, darts = _template(graph, gid, rng.randrange(ntemp), 0)
        ch = Chain([(rng.choice((1, -1, 2)), start, darts, k, k + width - 1)])
        families.append((ch, add_chain(ch, "cycle", label="family w=%d" % width)))
    for _ in range(2):
        start, darts = _template(graph, gid, rng.randrange(ntemp), 0)
        lo = rng.randint(0, 3)
        if z and rng.random() < 0.5:
            ch = Chain([(1, start, darts, None, -lo)])
        else:
            ch = Chain([(1, start, darts, lo, None)])
        add_chain(ch, "cycle", label="half-infinite")
    if z:
        start, darts = _template(graph, gid, rng.randrange(ntemp), 0)
        add_chain(Chain([(rng.choice((1, -1)), start, darts, None, None)]), "cycle", label="two-sided")
    jumps = []
    for _ in range(2):
        k = rng.randint(0, 5)
        ch, own = _end_jump(graph, gid, k)
        jumps.append((k, ch, own, add_chain(ch, "cycle", own=own, label="end jump")))
    for _ in range(3):
        start = (graph.cells[0], rng.randint(2, 8))
        darts = closed_walk(graph, rng, start, rng.randint(2, 8), True)
        if not darts:
            start, darts = _template(graph, gid, 0, start[1])
        ch = Chain([(1, start, darts, 0, 0)])
        add_chain(ch, "cycle", label="closed walk")
    for _ in range(2):
        start = (graph.cells[0], rng.randint(2, 8))
        darts, cur = [], start
        for _ in range(rng.randint(1, 5)):
            d, cur = rng.choice(graph.step(cur))
            darts.append(d)
        if cur == start:
            d, cur = graph.step(cur)[0]
            darts.append(d)
        ch = Chain([(1, start, darts, 0, 0)])
        add_chain(ch, "open", own=boundary_of(graph, start, darts), label="open walk")
    add_chain(Chain([], text=INADMISSIBLE[gid] + "\n"), "inadmissible", label="inadmissible")

    # the same family split at a seeded point is homologous; one more
    # square is not; an end jump is homologous to its square half-family
    for ch, cid in families[2:6]:
        (c, start, darts, lo, hi), = ch.members
        m = rng.randint(lo, hi - 1)
        split = Chain([(c, start, darts, lo, m), (c, start, darts, m + 1, hi)])
        sid = add_chain(split, "cycle", label="split family")
        w.ops.append(Op("homologous", gid, (cid, sid), True, label="split"))
        extra = Chain(ch.members + [(1, start, darts, hi + 3, hi + 3)])
        eid = add_chain(extra, "cycle", label="family plus one")
        w.ops.append(Op("homologous", gid, (cid, eid), False, label="plus one"))
    for k, _ch, _own, jid in jumps:
        start, darts = _template(graph, gid, 0, 0)
        half = Chain([(1, start, darts, k, None)])
        hid = add_chain(half, "cycle", label="square half-family")
        w.ops.append(Op("homologous", gid, (jid, hid), True, label="jump"))

    # restriction to the cells past a deleted column keeps the members
    # that lie wholly beyond it. Finite families end at most four cells
    # past the column: restrict_chain drops the members of a finite
    # family that reach past its scan horizon (see CHANGES.md, FOUND).
    for j in range(3):
        start, darts = _template(graph, gid, rng.randrange(ntemp), 0)
        d = rng.randint(20, 60) if not z else rng.randint(-40, 40)
        lo = d - rng.randint(10, 100)
        if graph.one_sided:
            lo = max(lo, 0)
        hi = None if j < 2 else d + rng.randint(1, 4)
        if j == 1 and z:
            lo = None
        c = rng.choice((1, -1, 2))
        cid = "c%d" % len(w.chains)
        w.chains[cid] = (gid, chain_text(graph, Chain([(c, start, darts, lo, hi)])))
        pid = "p%d" % len(w.pairs)
        pair = ["delete %s" % _label((v, d)) for v in graph.cells]
        pair.append("keep %s" % _label((graph.cells[0], d + 1)))
        w.pairs[pid] = (gid, "\n".join(pair) + "\n")
        own = chain_vector(graph, Chain([(c, start, darts, d + 1, hi)]))
        w.ops.append(Op("restrict", gid, (pid, cid), "restricted", own=own, label="restrict"))


def _end_jump(graph, gid, k):
    """Out along one rail from cell k, back along the next rail, closed by
    the rung at k: the one-sided rail difference."""
    v, out_rail, rung, back_rail = JUMP_RAILS[gid]
    _t, h = graph.endpoints(rung, k)
    # a back rail whose edges point inward is ridden against them
    back_sign = 1 if graph.endpoints(back_rail, k)[0] == h else -1
    text = "endjump %s repeat %s[%d]+ ; %s %s[%d]+ repeat %s[%d]%s\n" % (
        _label((v, k)), out_rail, k, _label((v, k)), rung, k, back_rail, k,
        "+" if back_sign > 0 else "-")
    own = Vec(
        {(rung, k): -1},
        {out_rail: (k, 1), back_rail: (k, -back_sign)},
    )
    return Chain([], text=text), own


WORKLOADS = {
    "far-support": far_support,
    "constructed-periodic": constructed_periodic,
    "homology-chains": homology_chains,
}
