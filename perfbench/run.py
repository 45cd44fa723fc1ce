"""The repository benchmark: three workloads, every metric by name and unit.

Run from the root of a checkout::

    python3 perfbench/run.py --workload chain-60 --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace
1`` is the separate traced run that attributes the workload to the
library's layers.  The metric names and units are read from
``BENCHMARK.json``.  The last line of standard output is one JSON object::

    {"correct": true, "attempted": 212, "failed": 0, "metrics": {...}}

The line before it carries what explains the run (op count, host probe,
the auto-tuner's per-shape engine choices, the set-up samples); a copy of
both, with the span table of a traced run, is written under
``.perfbench/``.  Workloads and the reasons they were chosen are described
in ``perfbench/DESIGN.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("chain-60", "bootstrap-30", "serve-60")


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True, help="workload input seed")
    parser.add_argument("--seconds", type=float, required=True, help="length of the timed window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = the traced run reporting the per-layer metrics")
    return parser.parse_args(argv)


def declared(kind: str) -> list[tuple[str, str]]:
    """``(name, unit)`` of every metric of one kind in BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return [(metric["name"], metric["unit"]) for metric in json.load(handle)[kind]]


def report(outcome: dict, kind: str) -> dict:
    """The result object: every declared metric of ``kind`` with its unit."""
    names = declared(kind)
    missing = [name for name, _ in names if name not in outcome["metrics"]]
    if missing:
        raise RuntimeError("metrics not measured: %s" % ", ".join(missing))
    return {
        "correct": outcome["failed"] == 0,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {
            name: {"value": outcome["metrics"][name], "unit": unit} for name, unit in names
        },
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print("perfbench: no repro package under %s; run from a full checkout" % SRC,
              file=sys.stderr)
        return 2
    # Measure the library's defaults: ignore REPRO_* selections of the shell.
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        os.environ.pop(key)
    sys.path.insert(0, SRC)
    start = time.perf_counter()
    import repro.he  # noqa: F401  (the library import is timed on its own)

    import_s = time.perf_counter() - start

    from common import stop_processes, write_record
    from repro.service.protocol import jsonable

    try:
        if args.trace:
            from traced import trace

            outcome, info = trace(args.workload, args.seed, args.seconds, import_s)
            result = report(outcome, "per_layer")
        else:
            from local import Bootstrap, Chain
            from serve import Serve

            workload = {"chain-60": Chain, "bootstrap-30": Bootstrap, "serve-60": Serve}[args.workload]()
            outcome, info = workload.measure(args.seed, args.seconds)
            result = report(outcome, "end_to_end")
    finally:
        stop_processes()
    info = jsonable(dict(info, workload=args.workload, seed=args.seed, trace=args.trace))
    write_record(
        "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace),
        {"result": result, "info": info},
    )
    print(json.dumps({"info": info}))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
