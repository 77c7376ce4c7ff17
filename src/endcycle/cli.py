"""Command line front end.

Every subcommand wraps one library operation: parse the input documents,
run the procedure, print the verdict. Exit codes: 0 for any definite
answer (a NON-MEMBER verdict is an answer, not a failure), 1 for input
errors, 2 for internal invariant violations.
"""

import argparse
import json
import os
import random
import sys

from . import chains, circles, cuts
from .errors import EndcycleError, InternalError
from .examples import example_documents, example_names
from .graph import graph_from_text
from .membership import Member, certificate_to_json, find_violated_cut, is_member
from .vectors import parse_vector_text, vector_to_text

_DEFAULT_SEED = 1729
# the oracle enumerates every finite cut when there are at most 2^this
# many (S, H) choices of truncation vertices and ends
_LITERAL_ORACLE_BITS = 14
_ORACLE_MODES = {
    "literal": "literal: every finite cut of the window",
    "sampled": "sampled: stars and end cuts plus 32 literal cuts",
}


class _CliError(Exception):
    """Input-side failure; prints as an error line, exits 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage problems; those are input errors here
    def error(self, message):
        raise _CliError(message)


def _read(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as ex:
        raise _CliError("cannot read %s: %s" % (path, ex.strerror or ex))


def _load_graph(path):
    return graph_from_text(_read(path))


def _emit(args, payload, lines):
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)


def _oracle_radius(g, vec, args):
    if args.radius is not None:
        r = args.radius
    else:
        r = vec.support_bound() + 2 * g.D + 2
    cap = os.environ.get("ENDCYCLE_MAX_RADIUS")
    if cap is not None:
        try:
            r = min(r, int(cap))
        except ValueError:
            raise _CliError(
                "ENDCYCLE_MAX_RADIUS must be an integer, got %r" % cap
            )
    return max(0, r)


def _run_oracle(g, vec, verdict_member, args):
    """Cross check the verdict in a window past the data, unless --radius
    says otherwise. When the truncation has at most 2^_LITERAL_ORACLE_BITS
    (S, H) choices, every finite cut of the window is summed literally
    (membership.find_violated_cut), which catches a wrong criterion too.
    Otherwise cuts.exhaustive_cut_check runs the solver's own criterion,
    every vertex star of the window and the half-space cut toward each
    end, plus 32 literal cuts drawn at random. Disagreement with the
    verdict is an internal error. Returns (radius, mode)."""
    radius = _oracle_radius(g, vec, args)
    bits = len(g.truncate(radius).vertices) + len(tuple(g.ends()))
    if bits <= _LITERAL_ORACLE_BITS:
        mode = "literal"
        found = find_violated_cut(g, vec, radius)
        violated = None if found is None else found[0]
    else:
        mode = "sampled"
        rng = random.Random(args.seed)
        violated = cuts.exhaustive_cut_check(g, vec, radius, sample=32, rng=rng)
    if (violated is None) != verdict_member:
        if violated is None:
            raise InternalError(
                "library answered non-member but the %s oracle found no "
                "violated cut at radius %d" % (mode, radius)
            )
        raise InternalError(
            "library answered member but the %s oracle found a violated "
            "cut: %s" % (mode, violated.describe())
        )
    return radius, mode


def _cmd_ends(args):
    g = _load_graph(args.graph)
    ends = tuple(g.ends())
    lines = ["%d ends" % len(ends)] if len(ends) != 1 else ["1 end"]
    lines += ["  %s" % e.label() for e in ends]
    _emit(
        args,
        {
            "command": "ends",
            "graph": g.spec.name,
            "count": len(ends),
            "ends": [e.label() for e in ends],
        },
        lines,
    )
    return 0


def _piece_summary(piece):
    if isinstance(piece, circles.FiniteCircuit):
        return "circuit %s" % " ".join(d.label() for d in piece.darts)
    if isinstance(piece, circles.CircuitFamily):
        lo = "-inf" if piece.lo is None else str(piece.lo)
        hi = "inf" if piece.hi is None else str(piece.hi)
        return "circuit family %s..%s of %s" % (
            lo,
            hi,
            " ".join(d.label() for d in piece.template.darts),
        )
    return "double ray through %d end joint%s" % (
        len(piece.segments),
        "" if len(piece.segments) == 1 else "s",
    )


def _cmd_member(args):
    g = _load_graph(args.graph)
    vec = parse_vector_text(g, _read(args.vector))
    cert = is_member(g, vec)
    verdict = isinstance(cert, Member)
    if args.oracle:
        radius, mode = _run_oracle(g, vec, verdict, args)
    payload = {
        "command": "member",
        "graph": g.spec.name,
        "verdict": "member" if verdict else "non-member",
        "certificate": certificate_to_json(cert),
    }
    if verdict:
        lines = ["MEMBER"]
        lines += [
            "  %+d * %s" % (c, _piece_summary(piece))
            for c, piece in cert.decomposition.entries
        ]
    else:
        lines = [
            "NON-MEMBER",
            "  violated cut: %s" % cert.cut.describe(),
            "  cut sum: %d" % cert.cut_sum,
        ]
    if args.oracle:
        lines.append("  oracle agreed at radius %d (%s)" % (radius, _ORACLE_MODES[mode]))
        payload["oracle_radius"] = radius
        payload["oracle_mode"] = mode
    _emit(args, payload, lines)
    return 0


def _cmd_check_admissible(args):
    g = _load_graph(args.graph)
    rep = chains.parse_chain_text(g, _read(args.chain))
    report = chains.check_admissible(g, rep)
    if report.ok:
        lines = ["ADMISSIBLE"]
    else:
        lines = ["NOT ADMISSIBLE", "  %s" % report.reason]
        if report.witness is not None:
            lines.append("  witness: %s" % report.witness.label())
    _emit(
        args,
        {
            "command": "check-admissible",
            "admissible": report.ok,
            "witness": report.witness.label() if report.witness else None,
            "reason": report.reason,
        },
        lines,
    )
    return 0


def _cmd_boundary(args):
    g = _load_graph(args.graph)
    rep = chains.parse_chain_text(g, _read(args.chain))
    zc = chains.boundary(rep)
    lines = ["boundary is zero"] if zc.is_zero() else [zc.to_text()]
    _emit(
        args,
        {
            "command": "boundary",
            "zero": zc.is_zero(),
            "coefficients": {v.label(): c for v, c in zc.coeffs},
        },
        lines,
    )
    return 0


def _cmd_winding(args):
    g = _load_graph(args.graph)
    rep = chains.parse_chain_text(g, _read(args.chain))
    vec = chains.homology_class(g, rep)
    text = vector_to_text(vec)
    _emit(
        args,
        {"command": "winding", "vector": text},
        [text if text else "zero vector"],
    )
    return 0


def _cmd_homologous(args):
    g = _load_graph(args.graph)
    rep1 = chains.parse_chain_text(g, _read(args.chain1))
    rep2 = chains.parse_chain_text(g, _read(args.chain2))
    same = chains.homologous(g, rep1, rep2)
    _emit(
        args,
        {"command": "homologous", "homologous": same},
        ["HOMOLOGOUS" if same else "NOT HOMOLOGOUS"],
    )
    return 0


def _cmd_h0(args):
    g = _load_graph(args.graph)
    desc = chains.h0(g)
    lines = ["H0 = %s" % desc.describe()]
    lines += ["  component at %s" % s for s in desc.summands]
    _emit(
        args,
        {
            "command": "h0",
            "rank": desc.rank,
            "summands": list(desc.summands),
            "note": desc.note,
        },
        lines,
    )
    return 0


def _cmd_hn(args):
    g = _load_graph(args.graph)
    desc = chains.h_n_trivial(g, args.n)
    _emit(
        args,
        {
            "command": "hn",
            "n": args.n,
            "rank": desc.rank,
            "note": desc.note,
        },
        ["H%d = %s" % (args.n, desc.describe()), "  %s" % desc.note],
    )
    return 0


def _cmd_restrict(args):
    g = _load_graph(args.graph)
    pair = chains.parse_pair_text(g, _read(args.pair))
    rep = chains.parse_chain_text(g, _read(args.chain))
    res = chains.restrict_chain(g, pair, rep)
    text = chains.chain_to_text(res)
    _emit(
        args,
        {"command": "restrict", "chain": text},
        [text if text else "empty chain"],
    )
    return 0


def _cmd_examples(args):
    if args.name is None:
        names = example_names()
        _emit(args, {"command": "examples", "names": list(names)}, names)
        return 0
    try:
        docs = example_documents(args.name)
    except KeyError as ex:
        raise _CliError(str(ex.args[0]))
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        for fname, text in docs.items():
            with open(
                os.path.join(args.out, fname), "w", encoding="utf-8"
            ) as fh:
                fh.write(text)
        _emit(
            args,
            {
                "command": "examples",
                "name": args.name,
                "written": sorted(docs),
                "out": args.out,
            },
            ["wrote %d files to %s" % (len(docs), args.out)],
        )
        return 0
    lines = []
    for fname in sorted(docs):
        lines.append("==> %s <==" % fname)
        lines.append(docs[fname].rstrip("\n"))
        lines.append("")
    _emit(
        args,
        {"command": "examples", "name": args.name, "documents": docs},
        lines,
    )
    return 0


def export_dot(g, r: int) -> str:
    """DOT text for the radius-r truncation, rim vertices drawn as boxes."""
    trunc = g.truncate(r)
    boundary = set(trunc.boundary)
    lines = [
        "// graph %s kind %s truncated at radius %d" % (g.spec.name, g.kind, r)
    ]
    for e in g.ends():
        lines.append("// end %s" % e.label())
    lines.append("digraph truncation {")
    for v in trunc.vertices:
        mark = ' [shape=box, label="%s (boundary)"]' % v.label()
        lines.append(
            '  "%s"%s;' % (v.label(), mark if v in boundary else "")
        )
    for e in trunc.edges:
        t, h = g.endpoints(e)
        lines.append(
            '  "%s" -> "%s" [label="%s"];' % (t.label(), h.label(), e.label())
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def _cmd_export_dot(args):
    g = _load_graph(args.graph)
    r = args.radius if args.radius is not None else 3
    if r < 0:
        raise _CliError("radius must be nonnegative")
    text = export_dot(g, r)
    _emit(args, {"command": "export-dot", "dot": text}, [text.rstrip("\n")])
    return 0


def _build_parser():
    p = _Parser(
        prog="endcycle",
        description=(
            "Certified cycle-space membership and end-aware homology "
            "for locally finite graphs."
        ),
    )
    p.add_argument("--json", action="store_true", help="machine output")
    p.add_argument(
        "--seed",
        type=int,
        default=_DEFAULT_SEED,
        help="seed for any internal sampling (default %d)" % _DEFAULT_SEED,
    )
    sub = p.add_subparsers(dest="command", required=True)

    def cmd(name, fn, help_):
        sp = sub.add_parser(name, help=help_)
        sp.set_defaults(fn=fn)
        return sp

    sp = cmd("ends", _cmd_ends, "count and list the ends of a graph")
    sp.add_argument("graph")

    for name in ("member", "decompose"):
        sp = cmd(
            name,
            _cmd_member,
            "decide cycle-space membership with a certificate",
        )
        sp.add_argument("graph")
        sp.add_argument("vector")
        sp.add_argument(
            "--oracle",
            action="store_true",
            help="cross-check the verdict in a window past the data: every "
            "finite cut when the window is small, else the star and "
            "end-flux cuts plus 32 sampled literal cuts",
        )
        sp.add_argument(
            "--radius", type=int, help="oracle window radius"
        )

    sp = cmd(
        "check-admissible",
        _cmd_check_admissible,
        "test local finiteness of a chain representation",
    )
    sp.add_argument("graph")
    sp.add_argument("chain")

    sp = cmd("boundary", _cmd_boundary, "boundary of a chain")
    sp.add_argument("graph")
    sp.add_argument("chain")

    sp = cmd(
        "winding",
        _cmd_winding,
        "homology class of a cycle as an edge vector",
    )
    sp.add_argument("graph")
    sp.add_argument("chain")

    sp = cmd("homologous", _cmd_homologous, "compare two cycle chains")
    sp.add_argument("graph")
    sp.add_argument("chain1")
    sp.add_argument("chain2")

    sp = cmd("h0", _cmd_h0, "zeroth homology of the compactified graph")
    sp.add_argument("graph")

    sp = cmd("hn", _cmd_hn, "higher homology (trivial for n > 1)")
    sp.add_argument("graph")
    sp.add_argument("n", type=int)

    sp = cmd(
        "restrict",
        _cmd_restrict,
        "restrict a chain to an admissible subgraph pair",
    )
    sp.add_argument("graph")
    sp.add_argument("pair")
    sp.add_argument("chain")

    sp = cmd("examples", _cmd_examples, "builtin example corpus")
    sp.add_argument("name", nargs="?")
    sp.add_argument("--out", help="write the documents into a directory")

    sp = cmd("export-dot", _cmd_export_dot, "DOT export of a truncation")
    sp.add_argument("graph")
    sp.add_argument("--radius", type=int, help="truncation radius")

    return p


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _CliError as ex:
        print("error: %s" % ex, file=sys.stderr)
        return 1
    try:
        return args.fn(args)
    except _CliError as ex:
        print("error: %s" % ex, file=sys.stderr)
        return 1
    except InternalError as ex:
        print("internal error [%s]: %s" % (args.command, ex), file=sys.stderr)
        return 2
    except EndcycleError as ex:
        print("error [%s]: %s" % (args.command, ex), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
