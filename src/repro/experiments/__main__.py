"""Command-line entry point: print every reproduced table and figure.

Usage::

    python -m repro.experiments                       # run everything
    python -m repro.experiments table2 fig4           # run selected experiments
    python -m repro.experiments --backend scalar      # pin the compute backend
    python -m repro.experiments --p-bits 60           # measured word size
    python -m repro.experiments --backend parallel --shards 4   # sharded pool
    python -m repro.experiments --list                # keys + backend/shard/engine info
    python -m repro.experiments serve --port 8793     # HE-as-a-service server
    python -m repro.experiments trajectory            # read BENCH_trajectory.json

Exit status: 0 on full success, 1 when any experiment raised (the failure is
reported on stderr and the remaining experiments still run), 2 on bad
arguments.
"""

from __future__ import annotations

import argparse
import os
import sys
import traceback

from ..backends.engines import ARRAY_ENGINE, available_engines
from ..backends.pool import SHARDS_ENV_VAR, resolve_shard_count, set_default_shards
from ..backends.registry import BACKEND_ENV_VAR, available_backends, set_default_backend
from ..compiler import (
    parse_passes,
    pass_descriptions,
    resolve_passes,
    set_default_passes,
)
from ..telemetry import (
    TRACER,
    enable_tracing,
    format_summary,
    summarize,
    write_chrome_trace,
)
from . import measured
from .registry import EXPERIMENTS, run_experiment
from .report import format_experiment


def _print_engines() -> None:
    """Print the engine zoo and the fixed array kernel."""
    print("NTT engines: %s (figures measure each through NumpyBackend(engine=...))"
          % ", ".join(available_engines()))
    print("fixed array kernel: %s (the scalar oracle runs one transform)" % ARRAY_ENGINE)


def main(argv: list[str]) -> int:
    if argv and argv[0] == "serve":
        # The serving layer owns its own argument set (host/port/batching);
        # delegate before the experiments parser can reject them.
        from ..service.server import main as serve_main

        return serve_main(argv[1:])
    if argv and argv[0] == "trajectory":
        from .trajectory import main as trajectory_main

        return trajectory_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "keys",
        nargs="*",
        metavar="experiment",
        help="experiment keys to run (default: all, in paper order)",
    )
    parser.add_argument(
        "--backend",
        default=None,
        help="compute backend for the measured columns (default: registry "
        "precedence; registered: %s)" % ", ".join(available_backends()),
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=None,
        help="shard/worker count for the 'parallel' backend (default: "
        "%s env var, then cpu_count-1)" % SHARDS_ENV_VAR,
    )
    parser.add_argument(
        "--p-bits",
        type=int,
        default=None,
        metavar="N",
        help="prime bit length for the measured columns, %d-%d (default: "
        "%d; the wide-word window keeps 32-62-bit primes on the vectorised "
        "array path, so 60 exercises the paper's native word size)"
        % (*measured.MEASURE_PRIME_BITS_RANGE, measured.MEASURE_PRIME_BITS),
    )
    parser.add_argument(
        "--passes",
        default=None,
        metavar="LIST",
        help="plan-optimiser passes applied to compiled plans, as a "
        "comma-separated list of registered names, or 'none' to disable "
        "rewriting (default: the full default pipeline; see --list for the "
        "registry)",
    )
    parser.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="capture a Chrome-trace JSON of the run to PATH (load in "
        "Perfetto / chrome://tracing) and print the span-time summary "
        "table (equivalent: the REPRO_TRACE env var)",
    )
    parser.add_argument(
        "--list",
        action="store_true",
        help="list experiment keys plus backend/shard-worker info, the "
        "fixed array NTT kernel, and exit",
    )
    args = parser.parse_args(argv)

    if args.list:
        print("\n".join(EXPERIMENTS))
        print()
        print("backends: %s" % ", ".join(available_backends()))
        try:
            shard_info = "%d shard worker(s)" % resolve_shard_count(args.shards)
        except ValueError as exc:
            # Informational command: report the problem, don't fail on an
            # environment variable an actual run might never consult.
            shard_info = "shard count unresolved (%s)" % exc
        print(
            "parallel backend: %s on %s cpu(s) "
            "(--shards > set_default_shards > %s > cpu_count-1)"
            % (shard_info, os.cpu_count() or "?", SHARDS_ENV_VAR)
        )
        try:
            selected = resolve_passes(args.passes)
        except KeyError as exc:
            print("plan passes unresolved (%s)" % exc.args[0])
        else:
            print(
                "plan passes: %s (--passes > set_default_passes > default)"
                % (",".join(selected) if selected else "none")
            )
        print("registered plan passes:")
        for name, description in pass_descriptions():
            print("  %-16s %s" % (name, description))
        _print_engines()
        return 0

    keys = args.keys if args.keys else list(EXPERIMENTS)
    unknown = [key for key in keys if key not in EXPERIMENTS]
    if unknown:
        print("unknown experiment(s): %s" % ", ".join(unknown), file=sys.stderr)
        print("available: %s" % ", ".join(EXPERIMENTS), file=sys.stderr)
        return 2
    if args.shards is not None:
        # --shards only reaches a sharding backend; the built-in
        # non-sharding combinations are rejected loudly instead of silently
        # running single-core.  Unrecognised (third-party) names pass
        # through: their capability cannot be known without instantiating
        # them, and a sharding implementation reads the default via
        # resolve_shard_count.
        selected = args.backend or os.environ.get(BACKEND_ENV_VAR)
        if selected in (None, "scalar", "numpy"):
            print(
                "error: --shards requires a sharding backend "
                "(--backend parallel or %s=parallel), got %r"
                % (BACKEND_ENV_VAR, selected),
                file=sys.stderr,
            )
            return 2
    try:
        # Validate every argument before mutating any process-wide default:
        # a rejected invocation must leak nothing into later in-process
        # main() calls.  (set_default_backend validates atomically; shard
        # counts are pre-checked with their pure resolver.  The 'parallel'
        # backend is built lazily at first resolution, so the shard default
        # set below is read in time.)
        if args.shards is not None:
            resolve_shard_count(args.shards)
        if args.p_bits is not None:
            low, high = measured.MEASURE_PRIME_BITS_RANGE
            if not low <= args.p_bits <= high:
                raise ValueError(
                    "--p-bits must be in [%d, %d], got %d"
                    % (low, high, args.p_bits)
                )
        if args.passes is not None:
            # Pre-checked with the pure parser so an unknown pass name
            # cannot leave a half-mutated process default behind.
            parse_passes(args.passes)
        if args.backend is not None:
            set_default_backend(args.backend)
        if args.shards is not None:
            set_default_shards(args.shards)
        if args.p_bits is not None:
            # Pre-checked against the same range the setter enforces.
            measured.set_measure_prime_bits(args.p_bits)
        if args.passes is not None:
            set_default_passes(args.passes)
    except (KeyError, ValueError) as exc:
        # Unknown names raise KeyError, malformed shard counts or word sizes
        # raise ValueError — both are bad arguments.
        print("error: %s" % exc, file=sys.stderr)
        return 2

    trace_mark = None
    if args.trace is not None:
        enable_tracing(args.trace)
        trace_mark = TRACER.mark()

    failures: list[str] = []
    for key in keys:
        try:
            result = run_experiment(key)
        except Exception:
            # A broken experiment must not abort the rest of the report —
            # but it must be loud and must fail the process at the end.
            failures.append(key)
            print("experiment %r FAILED:" % key, file=sys.stderr)
            traceback.print_exc()
            continue
        print(format_experiment(result))
        print()
    if trace_mark is not None:
        # Written here as well as at interpreter exit so in-process callers
        # (tests driving main() directly) see the file immediately.
        write_chrome_trace(args.trace, TRACER.events())
        print(format_summary(summarize(TRACER.events_since(trace_mark))))
        print("chrome trace written to %s" % args.trace)
        print()
    if failures:
        print("%d experiment(s) failed: %s" % (len(failures), ", ".join(failures)),
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
