"""Builtin example corpus.

Each example bundles a graph with companion vector, chain, and pair
documents, all in the plain text formats the parsers accept. They feed
the CLI `examples` command and double as fixtures for the test suite.
"""

from .graph import graph_from_text

DOUBLE_LADDER = """\
graph double-ladder
kind periodic-z
vertex top
vertex bot
edge rail_top : top -> top[+1]
edge rail_bot : bot -> bot[+1]
edge rung : top -> bot
"""

# rides the top rail forever in both directions
TOP_RAIL = """\
tail+ rail_top from 0 = 1
tail- rail_top from -1 = 1
"""

BOTTOM_RAIL = """\
tail+ rail_bot from 0 = 1
tail- rail_bot from -1 = 1
"""

RAIL_DIFFERENCE = """\
tail+ rail_top from 0 = 1
tail- rail_top from -1 = 1
tail+ rail_bot from 0 = -1
tail- rail_bot from -1 = -1
"""

# one square per cell; the family sums to the rail difference
SQUARES_CHAIN = """\
periodic -inf..inf { walk top[0] rail_top[0] top[1] rung[1] bot[1] \
rail_bot[0] bot[0] rung[0] top[0] }
"""

RAILS_CHAIN = """\
periodic -inf..inf { pass rail_top[0] + }
"""

POSITIVE_SIDE_PAIR = """\
delete top[0]
delete bot[0]
keep top[3]
"""

INTRO_CHORDS = """\
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

# the double ray through origin, before the chords are added
INTRO_PLAIN = """\
graph intro-plain
kind periodic-n
cap-vertex origin
vertex pos
vertex neg
edge pos_first : origin -> pos[0]
edge neg_first : neg[0] -> origin
edge pos_step : pos -> pos[+1]
edge neg_step : neg[+1] -> neg
"""

RAIL_LOOP = """\
set pos_first = 1
set neg_first = 1
tail+ pos_step from 0 = 1
tail+ neg_step from 0 = 1
"""

RAIL_PASSES_CHAIN = """\
pass pos_first +
pass neg_first +
periodic 0..inf { pass pos_step[0] + }
periodic 0..inf { pass neg_step[0] + }
"""

ENDJUMP_LOOP_CHAIN = """\
endjump origin pos_first+ repeat pos_step[0]+ ; \
origin neg_first- repeat neg_step[0]-
"""

SINGLE_RAY = """\
graph single-ray
kind periodic-n
vertex node
edge step : node -> node[+1]
"""

STEP_TAIL = """\
tail+ step from 0 = 1
"""

DISJOINT_LADDER_TRIANGLE = """\
graph disjoint-ladder-triangle
kind periodic-z
vertex top
vertex bot
cap-vertex t0
cap-vertex t1
cap-vertex t2
edge rail_top : top -> top[+1]
edge rail_bot : bot -> bot[+1]
edge rung : top -> bot
edge side_a : t0 -> t1
edge side_b : t1 -> t2
edge side_c : t2 -> t0
"""

TRIANGLE_VECTOR = """\
set side_a = 1
set side_b = 1
set side_c = 1
"""

TRIANGLE_CHAIN = """\
walk t0 side_a t1 side_b t2 side_c t0
"""

EXAMPLES = {
    "double-ladder": {
        "double-ladder.graph": DOUBLE_LADDER,
        "top-rail.vec": TOP_RAIL,
        "bottom-rail.vec": BOTTOM_RAIL,
        "rail-difference.vec": RAIL_DIFFERENCE,
        "squares.chain": SQUARES_CHAIN,
        "rails.chain": RAILS_CHAIN,
        "positive-side.pair": POSITIVE_SIDE_PAIR,
    },
    "intro-chords": {
        "intro-chords.graph": INTRO_CHORDS,
        "intro-plain.graph": INTRO_PLAIN,
        "rail-loop.vec": RAIL_LOOP,
        "rail-passes.chain": RAIL_PASSES_CHAIN,
        "endjump-loop.chain": ENDJUMP_LOOP_CHAIN,
    },
    "single-ray": {
        "single-ray.graph": SINGLE_RAY,
        "step-tail.vec": STEP_TAIL,
    },
    "disjoint-ladder-triangle": {
        "disjoint-ladder-triangle.graph": DISJOINT_LADDER_TRIANGLE,
        "triangle.vec": TRIANGLE_VECTOR,
        "triangle.chain": TRIANGLE_CHAIN,
    },
}


def example_names():
    return tuple(EXAMPLES)


def example_documents(name):
    try:
        return dict(EXAMPLES[name])
    except KeyError:
        raise KeyError(
            "no example named %r; try one of %s"
            % (name, ", ".join(EXAMPLES))
        )


def example_graph(name):
    """The primary graph of the named example."""
    docs = example_documents(name)
    return graph_from_text(docs[name + ".graph"])

