"""Self-test of the benchmark itself, at toy shapes (about a minute).

Run from the root of a checkout::

    python3 perfbench/selftest.py

It checks that

* every metric ``BENCHMARK.json`` names is emitted, with its unit, by the
  timed and the traced run of every workload;
* a deliberately corrupted result is counted as one failed op, for the
  in-process workloads and for a served reply;
* the deterministic program counts (NTT rows, pool hits, dispatches,
  conversions, fallback rows) repeat exactly across two traced runs;
* a full-shape bootstrap-30 run, started in a session of its own, leaves
  no process of that session behind when it exits.

Exits 0 when every check holds and 1 otherwise.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys

from run import HERE, ROOT, SRC, declared, report

for key in [key for key in os.environ if key.startswith("REPRO_")]:
    os.environ.pop(key)
sys.path.insert(0, SRC)

import serve  # noqa: E402
import traced  # noqa: E402
from common import Window, processes_where, stop_processes  # noqa: E402
from local import Bootstrap, Chain, Spec  # noqa: E402
from repro.he import Ciphertext, HEParams  # noqa: E402

TOY_CHAIN = Chain(Spec(
    params=HEParams(n=256, plaintext_modulus=65537, prime_bits=60, prime_count=3, name="toy-chain"),
    backend="numpy", shards=None, inputs=2, sessions=2,
))
TOY_BOOTSTRAP = Bootstrap(Spec(
    params=HEParams(n=256, plaintext_modulus=17, prime_bits=30, prime_count=3, name="toy-bootstrap"),
    backend="parallel", shards=2, inputs=2, sessions=2,
))
WORKLOADS = {"chain": TOY_CHAIN, "bootstrap": TOY_BOOTSTRAP}
DETERMINISTIC = (
    "compiler.ntt_rows_per_op",
    "compiler.pool_hits_per_op",
    "pool.dispatches_per_op",
    "backend.conversions_per_op",
    "backend.fallback_rows_per_op",
)
SECONDS = 1.0

failures: list[str] = []


def expect(condition: bool, message: str) -> None:
    print("%s  %s" % ("ok  " if condition else "FAIL", message), flush=True)
    if not condition:
        failures.append(message)


def check_units(result: dict, kind: str, label: str) -> None:
    units = dict(declared(kind))
    metrics = result["metrics"]
    expect(set(metrics) == set(units), "%s emits exactly the %s metrics" % (label, kind))
    expect(
        all(
            metrics[name]["unit"] == unit
            and isinstance(metrics[name]["value"], (int, float))
            and math.isfinite(metrics[name]["value"])
            for name, unit in units.items()
            if name in metrics
        ),
        "%s gives every metric a finite value and its declared unit" % label,
    )
    expect(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
           "%s verified %d ops with no failure" % (label, result["attempted"]))


class CorruptOnce:
    """An expression stand-in whose first result comes back corrupted."""

    def __init__(self, expr) -> None:
        self.expr = expr
        self.corrupted = False

    def run(self):
        result = self.expr.run()
        if not self.corrupted:
            self.corrupted = True
            result = Ciphertext(
                polys=list(reversed(result.polys)), params=result.params, level=result.level
            )
        return result


def check_local_corruption(workload, label: str) -> None:
    data = workload.data(5)
    digests, _ = workload.reference(data)
    session, _, _, failed = workload.sessions(data, digests, 1)
    try:
        session.exprs[0] = CorruptOnce(session.exprs[0])
        window = Window(SECONDS, min_ops=10).run(session.op)
    finally:
        session.close()
    expect(failed == 0 and len(window.failures) == 1,
           "%s counts one corrupted result as exactly one failed op" % label)


def check_served_corruption() -> None:
    serve_data = serve.ServeData(5, chain=TOY_CHAIN)
    served = serve.Served(serve_data, "selftest")
    honest = serve.request
    state = {"corrupted": False}

    def corrupting(port, method, path, body=None):
        status, reply = honest(port, method, path, body)
        if method == "POST" and not state["corrupted"]:
            state["corrupted"] = True
            reply = reply.replace(b'"rows": [["0x', b'"rows": [["0x1', 1)
        return status, reply

    serve.request = corrupting
    try:
        window = Window(SECONDS, callers=serve.CALLERS, min_ops=10).run(served.op)
    finally:
        serve.request = honest
        served.close()
    expect(served.failed == 0 and len(window.failures) == 1,
           "serve-60 counts one corrupted reply as exactly one failed op")


def check_no_process_left() -> None:
    """A full-shape bootstrap-30 run, started in a session of its own, has
    ended every process of that session (pool workers, the shared-memory
    resource tracker) by the time it exits."""
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "bootstrap-30",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, start_new_session=True, stdout=subprocess.DEVNULL,
    )
    try:
        code = proc.wait(timeout=180)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    left = processes_where(3, proc.pid)
    expect(code == 0 and not left,
           "a bootstrap-30 run exits 0 and leaves no process of its session: %s" % left)


def main() -> int:
    traced.PROBE_SECONDS = SECONDS
    timed_runs = {
        "chain-60": TOY_CHAIN,
        "bootstrap-30": TOY_BOOTSTRAP,
        "serve-60": serve.Serve(chain=TOY_CHAIN),
    }
    for name, workload in timed_runs.items():
        outcome, _ = workload.measure(1, SECONDS)
        check_units(report(outcome, "end_to_end"), "end_to_end", name + " timed run")
    for name in timed_runs:
        counts = []
        for _ in range(2):
            outcome, _ = traced.trace(name, 1, 2 * SECONDS, 0.0, workloads=WORKLOADS)
            check_units(report(outcome, "per_layer"), "per_layer", name + " traced run")
            counts.append({key: outcome["metrics"][key] for key in DETERMINISTIC})
        expect(counts[0] == counts[1],
               "%s deterministic counts repeat exactly: %s" % (name, counts[0]))
    check_local_corruption(TOY_CHAIN, "chain-60")
    check_local_corruption(TOY_BOOTSTRAP, "bootstrap-30")
    check_served_corruption()
    stop_processes()
    check_no_process_left()
    print("%d check(s) failed" % len(failures) if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
