"""Timing loop, checks and metrics of the benchmark.

One process, one thread, one caller: each operation starts when the
previous one has returned. A run builds the workload `SETUP_REPS` times,
runs one checking round that compares every answer with the benchmark's
own computation, then repeats whole timed rounds of the same operations
until the time is up. Before every operation it times `reference_loop`,
which imports nothing from the program; every timing is scaled by the
reference speed measured around it, so that a processor running slower
for a while does not read as a slower program.
"""

import functools
import json
import resource
import statistics
import time
import traceback

import model
from endcycle import chains, circles, cuts, errors, graph, membership, vectors

# seconds `reference_loop` takes at the reference speed; a scaled second
# is a raw second times REF_SECONDS over the locally measured loop time
REF_SECONDS = 0.001
REF_ROUNDS = 1100
# reference samples taken before the first timing
REF_WARMUP = 8
SETUP_REPS = 5
# operations that must stay beyond the reported tail percentile
TAIL_BEYOND = 10
# faults of the program that fixed inputs show today: (name, exception
# class, functions on its traceback, the innermost last). An operation that
# raises one of them is counted as failed; any other exception is a fault.
KNOWN_FAULTS = (
    # tail peeling on periodic-n shifts darts below offset 0
    ("F1", "UnknownEdge", ("_peel_tails", "shift_dart", "require_edge")),
    # no assembly pass can lay out the end rays
    ("F2", "InternalError", ("decompose", "_assemble")),
)


def _mix(a, b):
    return (a * 31 + b) & 0xFFFF


def reference_loop():
    """Fixed pure-Python work: dict updates, small calls, a tuple sort."""
    d = {}
    acc = 0
    for i in range(REF_ROUNDS):
        k = (i * 7919) % 1021
        d[k] = d.get(k, 0) + 1
        acc += _mix(k, i)
    keys = sorted((v, k) for k, v in d.items())
    return acc + keys[0][1]


class Clock:
    """Reference samples, and the scale of raw times measured among them."""

    def __init__(self):
        self.samples = []

    def sample(self):
        t0 = time.perf_counter()
        reference_loop()
        self.samples.append(time.perf_counter() - t0)
        return len(self.samples) - 1

    def scale_at(self, i):
        """Scale of a time measured between samples i and i + 1. A shared
        machine switches between speed levels within a second or so, so
        only the two neighbouring samples speak for it."""
        return 2 * REF_SECONDS / (self.samples[i] + self.samples[i + 1])

    def run_scale(self):
        return REF_SECONDS / statistics.median(self.samples)


def known_fault(ex):
    """The name of the known fault an exception shows, or None."""
    names = [f.name for f in traceback.extract_tb(ex.__traceback__)]
    for name, cls, path in KNOWN_FAULTS:
        if type(ex).__name__ == cls and names[-1] == path[-1] and set(path) <= set(names):
            return name
    return None


def setup(w):
    """Build every graph and parse every document: what a caller pays
    before the first query. Functions are looked up on their modules at
    every call, so that the tracer's wrappers are seen."""
    graphs = {gid: graph.graph_from_text(text) for gid, text in w.graphs.items()}
    docs = {}
    for vid, (gid, text) in w.vectors.items():
        docs[vid] = vectors.parse_vector_text(graphs[gid], text)
    for cid, (gid, text) in w.chains.items():
        docs[cid] = chains.parse_chain_text(graphs[gid], text)
    for pid, (gid, text) in w.pairs.items():
        docs[pid] = chains.parse_pair_text(graphs[gid], text)
    return graphs, docs


# -- operations ------------------------------------------------------------------


class Result:
    """What one operation returned: its answer, the certificate JSON text
    a consumer would receive (or None), and how long each side took."""

    def __init__(self, answer, cert=None):
        self.answer = answer
        self.cert = cert
        self.op_s = 0.0
        self.verify_s = None
        self.verified = None


def execute(graphs, docs, op, class_certs):
    """Run one operation, timed from parsed inputs to the answer, then
    time the consumer's verification of its certificate.

    `homology_class` decides membership of the class but keeps no
    certificate, so a cycle chain's certificate is made once, outside
    the timed region, and kept in `class_certs` for the later rounds."""
    g = graphs[op.graph]
    t0 = time.perf_counter()
    if op.kind == "decide":
        cert = membership.is_member(g, docs[op.docs[0]])
        res = Result(cert, json.dumps(membership.certificate_to_json(cert)))
    elif op.kind == "chain":
        rep = docs[op.docs[0]]
        report = chains.check_admissible(g, rep)
        try:
            bnd = chains.boundary(rep)
        except errors.NotAdmissible:
            bnd = None
        try:
            vec = chains.homology_class(g, rep)
        except (errors.NotAdmissible, errors.NonzeroBoundary) as ex:
            res = Result((report, bnd, type(ex).__name__))
        else:
            res = Result((report, bnd, vec))
    elif op.kind == "homologous":
        res = Result(chains.homologous(g, docs[op.docs[0]], docs[op.docs[1]]))
    else:
        res = Result(chains.restrict_chain(g, docs[op.docs[0]], docs[op.docs[1]]))
    res.op_s = time.perf_counter() - t0
    if op.kind == "chain" and not isinstance(res.answer[2], str):
        cid = op.docs[0]
        if cid not in class_certs:
            cert = membership.is_member(g, chains.edge_vector_of(docs[cid]))
            class_certs[cid] = json.dumps(membership.certificate_to_json(cert))
        res.cert = class_certs[cid]
    if res.cert is not None:
        vec = docs[op.docs[0]] if op.kind == "decide" else res.answer[2]
        t0 = time.perf_counter()
        got = membership.certificate_from_json(g, json.loads(res.cert))
        res.verified = membership.verify_certificate(g, vec, got)
        res.verify_s = time.perf_counter() - t0
    return res


def fingerprint(res):
    """A text form of the answer, to compare rounds with the checked one."""
    a = res.answer
    if isinstance(a, tuple):
        report, bnd, rest = a
        rest = rest if isinstance(rest, str) else vectors.vector_to_text(rest)
        return "%s|%s|%s|%s" % (report.ok, bnd.to_text() if bnd else None, rest, res.cert)
    if isinstance(a, bool):
        return str(a)
    if isinstance(a, chains.ChainRep):
        return chains.chain_to_text(a)
    return res.cert


def _own(vec):
    """The program's vector read back through the benchmark's own parser."""
    return model.parse_vec(vectors.vector_to_text(vec))


def check(w, graphs, docs, op, res):
    """Compare one answer with the construction; returns a list of faults."""
    gm = w.models[op.graph]
    bad = []
    if res.cert is not None:
        obj = json.loads(res.cert)
        if res.verified is not True:
            bad.append("verify_certificate refused the certificate after a JSON round trip")
    if op.kind == "decide":
        if not model.same_vector(gm, _own(docs[op.docs[0]]), op.own):
            bad.append("the parsed vector differs from the generated one")
        if obj["verdict"] != op.expect:
            bad.append("verdict %s, built as %s" % (obj["verdict"], op.expect))
        elif op.expect == "member" and not model.reevaluate_member(gm, op.own, obj):
            bad.append("the certificate's circles do not sum to the vector")
        elif op.expect == "non-member":
            s = model.reevaluate_non_member(gm, op.own, obj)
            if s is not None and (s != obj["sum"] or s == 0):
                bad.append("cut sum %s recomputed, %s claimed" % (s, obj["sum"]))
    elif op.kind == "chain":
        bad += _check_chain(gm, graphs[op.graph], docs[op.docs[0]], op, res)
    elif op.kind == "homologous":
        if res.answer is not op.expect:
            bad.append("homologous gave %s, built as %s" % (res.answer, op.expect))
    else:
        got = _own(chains.edge_vector_of(res.answer))
        if not model.same_vector(gm, got, op.own):
            bad.append("the restricted chain's vector differs from the kept members' sum")
    return bad


def _check_chain(gm, g, rep, op, res):
    report, bnd, rest = res.answer
    bad = []
    if op.expect == "inadmissible":
        if report.ok or rest != "NotAdmissible":
            bad.append("inadmissible chain accepted (%s, %s)" % (report.ok, rest))
        return bad
    if not report.ok:
        return ["admissible chain refused: %s" % report.reason]
    got_bnd = {(v.cls, v.index): c for v, c in bnd.coeffs}
    if op.expect == "open":
        if got_bnd != op.own or rest != "NonzeroBoundary":
            bad.append("open walk: boundary %s, refusal %s" % (got_bnd, rest))
        return bad
    if got_bnd:
        bad.append("cycle with nonzero boundary %s" % got_bnd)
    if isinstance(rest, str):
        return bad + ["cycle refused with %s" % rest]
    if not model.same_vector(gm, _own(rest), op.own):
        bad.append("homology class differs from the dart-by-dart sum")
    obj = json.loads(res.cert)
    if obj["verdict"] != "member" or not model.reevaluate_member(gm, op.own, obj):
        bad.append("the class certificate does not re-sum to the class")
    if chains.homology_class(g, chains.subdivide_to_passes(rep)) != rest:
        bad.append("subdivision changed the homology class")
    doubled = chains.homology_class(g, rep + rep.scale(2))
    if not model.same_vector(gm, _own(doubled), model.scaled(op.own, 3)):
        bad.append("class of c + 2c is not three times the class of c")
    return bad


# -- tracing -------------------------------------------------------------------------

# hot leaf calls are aggregated per name instead of kept as spans
HOT = {"graph.neighbors", "graph.half_space", "vectors.new", "vectors.add",
       "vectors.value_on", "circles.value_on"}
# (outer, inner): inner calls made while outer is running
NESTED = (("membership.decide", "circles.check"), ("membership.verify", "circles.value_on"))


def trace_targets():
    """(owner, attribute, layer name): each public function wrapped where
    its callers look it up."""
    G, V = graph.Graph, vectors.EdgeVector
    D = circles.CircleDecomposition
    m, ch = membership, chains
    return [
        (graph, "graph_from_text", "graph.build"),
        (G, "neighbors", "graph.neighbors"),
        (G, "in_half_space", "graph.half_space"),
        (G, "end_of_ray", "graph.end_of_ray"),
        (vectors, "parse_vector_text", "vectors.parse"),
        (V, "__init__", "vectors.new"),
        (V, "__add__", "vectors.add"),
        (vectors, "thin_sum", "vectors.thin_sum"),
        (m, "thin_sum", "vectors.thin_sum"),
        (V, "value_on", "vectors.value_on"),
        (m, "is_member", "membership.decide"),
        (ch, "is_member", "membership.decide"),
        (m, "verify_certificate", "membership.verify"),
        (m, "certificate_to_json", "membership.json"),
        (m, "certificate_from_json", "membership.json"),
        (D, "value_on", "circles.value_on"),
        (D, "check", "circles.check"),
        (cuts, "cut_sum", "cuts.cut_sum"),
        (ch, "parse_chain_text", "chains.parse"),
        (ch, "parse_pair_text", "chains.parse"),
        (ch, "check_admissible", "chains.admissible"),
        (ch, "boundary", "chains.boundary"),
        (ch, "edge_vector_of", "chains.edge_vector"),
        (ch, "homology_class", "chains.homology"),
        (ch, "homologous", "chains.homologous"),
        (ch, "restrict_chain", "chains.restrict"),
    ]


class Tracer:
    """Spans and per-name totals of the wrapped calls, kept in memory.

    A span is (name, parent name, start, end, operation index). Self time
    is a span's duration minus the time of the wrapped calls inside it."""

    def __init__(self):
        self.stats = {}  # name -> [calls, inclusive seconds, self seconds]
        self.nested = {}
        self.spans = []
        self.op = None
        self._stack = []
        self._active = {}
        self._saved = []

    def install(self):
        for owner, attr, name in trace_targets():
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(name, fn))

    def uninstall(self):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def _wrap(self, name, fn):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack, active, nested, spans = self._stack, self._active, self.nested, self.spans
        outers = [(o, (o, i)) for o, i in NESTED if i == name]
        keep = name not in HOT
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for outer, key in outers:
                if active.get(outer):
                    nested[key] = nested.get(key, 0) + 1
            frame = [0.0, name]
            parent = stack[-1][1] if stack else None
            stack.append(frame)
            active[name] = active.get(name, 0) + 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                dt = t1 - t0
                stack.pop()
                active[name] -= 1
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
                if keep:
                    spans.append((name, parent, t0, t1, self.op))

        return wrapper

    def reset(self):
        for st in self.stats.values():
            st[:] = [0, 0.0, 0.0]
        self.nested.clear()


# -- the run -------------------------------------------------------------------------


def tail_of(values):
    """The highest percentile with at least TAIL_BEYOND values beyond it,
    and that percentile; the median when there are too few values."""
    xs = sorted(values)
    n = len(xs)
    if n < 4 * TAIL_BEYOND:
        return statistics.median(xs), 50.0
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def run(w, seconds, trace, log):
    """Measure workload w; returns the result object of the run."""
    clock = Clock()
    for _ in range(REF_WARMUP):
        clock.sample()
    setups, raw_setups = [], []
    for _ in range(SETUP_REPS):
        i = clock.sample()
        t0 = time.perf_counter()
        graphs, docs = setup(w)
        raw = time.perf_counter() - t0
        clock.sample()
        raw_setups.append(raw)
        setups.append(raw * clock.scale_at(i))

    # the checking round: every operation once, each answer checked
    faults, failures = [], {}
    outcome = {}
    certs, class_certs = [], {}
    for k, op in enumerate(w.ops):
        try:
            res = execute(graphs, docs, op, class_certs)
        except Exception as ex:  # a failing operation is counted, not fatal
            name = known_fault(ex)
            outcome[k] = "raised %s %s" % (name, type(ex).__name__)
            if name is None:
                faults.append("%s raised %s: %s" % (op.label, type(ex).__name__, ex))
            else:
                failures.setdefault("%s %s" % (name, type(ex).__name__), []).append(op.label)
            continue
        for msg in check(w, graphs, docs, op, res):
            faults.append("%s: %s" % (op.label, msg))
        if res.cert is not None:
            certs.append(res.cert)
        outcome[k] = fingerprint(res)

    tracer = Tracer() if trace else None
    layer_setup = None
    if trace:
        tracer.install()
        setup(w)
        tracer.uninstall()
        layer_setup = {name: list(st) for name, st in tracer.stats.items()}
        tracer.reset()
        tracer.spans.clear()

    # per operation: (raw seconds, index of the reference sample before it)
    op_s = {k: [] for k in outcome}
    verify_s = {k: [] for k in outcome}
    round_s = {False: [], True: []}
    attempted = failed = rounds = 0
    deadline = time.perf_counter() + seconds
    # a traced run compares at least two untraced rounds with two traced ones
    while rounds < (4 if trace else 1) or time.perf_counter() < deadline:
        traced = trace and rounds % 2 == 1
        if traced:
            tracer.install()
        spent, first = 0.0, len(clock.samples)
        for k, op in enumerate(w.ops):
            i = clock.sample()
            attempted += 1
            if traced:
                tracer.op = k
            try:
                res = execute(graphs, docs, op, class_certs)
            except Exception as ex:
                failed += 1
                if outcome[k] != "raised %s %s" % (known_fault(ex), type(ex).__name__):
                    faults.append("%s raised %s in a timed round only" % (op.label, type(ex).__name__))
                continue
            if fingerprint(res) != outcome[k]:
                faults.append("%s answered differently in a timed round" % op.label)
            spent += res.op_s + (res.verify_s or 0.0)
            if not traced:
                op_s[k].append((res.op_s, i))
                if res.verify_s is not None:
                    verify_s[k].append((res.verify_s, i))
        if traced:
            tracer.uninstall()
        # operation seconds of the round at the round's reference speed
        round_s[traced].append(spent * REF_SECONDS / statistics.median(clock.samples[first:]))
        rounds += 1
    clock.sample()

    # each operation's time is its median scaled time over the timed
    # rounds, so the statistics below are over the same operations however
    # many rounds ran
    ops = _per_op(op_s, clock.scale_at)
    ver = _per_op(verify_s, clock.scale_at)
    raw_ops = _per_op(op_s, lambda i: 1.0)
    raw_ver = _per_op(verify_s, lambda i: 1.0)
    op_tail, op_pct = tail_of(ops)
    ver_tail, ver_pct = tail_of(ver)
    scale = clock.run_scale()
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "op_p50_s": (statistics.median(ops), "s"),
        "op_tail_s": (op_tail, "s"),
        "ops_per_s": (_throughput(op_s, clock.scale_at), "ops/s"),
        "verify_p50_s": (statistics.median(ver), "s"),
        "verify_tail_s": (ver_tail, "s"),
        "cert_bytes": (sum(len(c) for c in certs) / len(certs), "bytes"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    detail = {
        "workload": w.name,
        "ops_per_round": len(w.ops),
        "rounds": rounds,
        "op_samples": len(ops),
        "timed_rounds": len(round_s[False]),
        "op_tail_percentile": round(op_pct, 2),
        "verify_samples": len(ver),
        "verify_tail_percentile": round(ver_pct, 2),
        "reference_s": statistics.median(clock.samples),
        "scale": scale,
        "raw": {
            "op_p50_s": statistics.median(raw_ops),
            "op_tail_s": tail_of(raw_ops)[0],
            "verify_p50_s": statistics.median(raw_ver),
            "verify_tail_s": tail_of(raw_ver)[0],
            "setup_s": statistics.median(raw_setups),
        },
        # known fault and exception class -> labels of the operations
        "failures": {k: sorted(v) for k, v in sorted(failures.items())},
        "faults": faults[:20],
    }
    if trace:
        metrics = layer_metrics(tracer, layer_setup, rounds // 2, scale, certs, round_s)
        detail["trace_overhead_ratio"] = (
            statistics.median(round_s[True]) / statistics.median(round_s[False]) - 1.0
        )
        detail["spans"] = len(tracer.spans)
        log(detail, tracer)
    else:
        log(detail, None)
    return {
        "correct": not faults,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def _per_op(samples, scale_at):
    """Median scaled time of each operation that succeeded."""
    return [
        statistics.median(raw * scale_at(i) for raw, i in xs)
        for xs in samples.values() if xs
    ]


def _throughput(samples, scale_at):
    """Successful operations per scaled second of operation time."""
    times = [raw * scale_at(i) for xs in samples.values() for raw, i in xs]
    return len(times) / sum(times)


def layer_metrics(tracer, at_setup, rounds, scale, certs, round_s):
    """Per-layer metrics: counts and scaled seconds per timed round, or
    per set-up for the building and parsing layers."""
    stats = tracer.stats

    def calls(name):
        return stats.get(name, [0])[0] // rounds

    def secs(name, inclusive=False, table=None):
        st = (table or stats).get(name, [0, 0.0, 0.0])
        per = 1 if table else rounds
        return scale * st[1 if inclusive else 2] / per

    def ratio(num, den):
        return num / den if den else 0.0

    decides = stats.get("membership.decide", [0])[0]
    verifies = stats.get("membership.verify", [0])[0]
    members = [json.loads(c) for c in certs]
    members = [c for c in members if c["verdict"] == "member"]
    out = {
        "graph.build_s": (secs("graph.build", table=at_setup), "s"),
        "vectors.parse_s": (secs("vectors.parse", table=at_setup), "s"),
        "chains.parse_s": (secs("chains.parse", table=at_setup), "s"),
    }
    for name in ("graph.neighbors", "graph.half_space", "graph.end_of_ray", "vectors.new",
                 "vectors.add", "vectors.thin_sum", "vectors.value_on", "circles.value_on",
                 "circles.check", "cuts.cut_sum"):
        out[name + "_calls"] = (calls(name), "count")
        out[name + "_s"] = (secs(name), "s")
    out["membership.decide_calls"] = (calls("membership.decide"), "count")
    out["membership.decide_s"] = (secs("membership.decide", True), "s")
    out["membership.decide_self_s"] = (secs("membership.decide"), "s")
    out["membership.verify_s"] = (secs("membership.verify", True), "s")
    out["membership.verify_self_s"] = (secs("membership.verify"), "s")
    out["membership.json_s"] = (secs("membership.json"), "s")
    out["membership.checks_per_decide"] = (
        ratio(tracer.nested.get(NESTED[0], 0), decides), "ratio")
    out["circles.value_on_per_verify"] = (
        ratio(tracer.nested.get(NESTED[1], 0), verifies), "ratio")
    out["circles.pieces_per_cert"] = (
        ratio(sum(model.certificate_pieces(c) for c in members), len(members)), "ratio")
    for name in ("chains.admissible", "chains.boundary", "chains.edge_vector",
                 "chains.homologous", "chains.restrict"):
        out[name + "_s"] = (secs(name), "s")
    out["chains.homology_s"] = (secs("chains.homology", True), "s")
    out["trace.overhead_s"] = (
        statistics.median(round_s[True]) - statistics.median(round_s[False]), "s")
    return out
