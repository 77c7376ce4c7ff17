"""Run one benchmark workload against the `endcycle` sources of this checkout.

    python3 perfbench/run.py --workload far-support --seed 1 --seconds 15 --trace 0

Prints one JSON line of detail (raw seconds, reference speed, rounds,
failures) and, last, the result: `correct`, `attempted`, `failed` and
`metrics`. With --trace 0 the metrics are the end-to-end ones; with
--trace 1 they are the per-layer ones, and the spans of the traced
rounds are written to perfbench/out/. See perfbench/README.md.
"""

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "endcycle", "__init__.py")):
        print("no endcycle sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import harness
    import workloads

    make = workloads.WORKLOADS.get(args.workload)
    if make is None:
        print("unknown workload %r; one of %s" % (args.workload, ", ".join(workloads.WORKLOADS)),
              file=sys.stderr)
        return 2
    w = make(args.seed)

    def log(detail, tracer):
        detail["seed"] = args.seed
        if tracer is not None:
            out = os.path.join(HERE, "out")
            os.makedirs(out, exist_ok=True)
            path = os.path.join(out, "trace-%s-%d.json" % (args.workload, args.seed))
            with open(path, "w") as f:
                json.dump({"stats": tracer.stats, "nested": [[list(k), v] for k, v in tracer.nested.items()],
                           "spans": tracer.spans}, f)
            detail["trace_file"] = os.path.relpath(path, ROOT)
        print(json.dumps(detail, sort_keys=True))

    result = harness.run(w, args.seconds, bool(args.trace), log)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
