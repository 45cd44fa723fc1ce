"""Whole-program compilation of a bootstrap-shaped circuit.

The paper's profile says NTT/iNTT is a third to a half of HE computation
time; the plan compiler attacks that share by *not running* redundant
transforms.  This example puts the two headline pieces together:

1. **Whole-program front end** — ``context.program()`` records the
   bootstrap circuit (CoeffToSlot → EvalMod rounds → SlotToCoeff, built by
   :func:`repro.he.bootstrap.bootstrap_circuit`) as one named statement and
   compiles the entire circuit into a single fused plan.
2. **Optimiser passes** — the same program is compiled twice, once with
   the passes disabled and once with the default pipeline (structure
   folding, CSE, dead-value elimination, sum-of-products folding and
   transform batching).  The relinearisation key and the plaintext
   diagonals rest in the NTT domain, so neither plan transforms them: both
   run the same transform rows, and the passes fold every sum of products
   into one multiply-accumulate node.
3. **metrics_diff accounting** — each variant's steady-state cost is the
   delta between two ``context.metrics()`` snapshots around one warm run,
   printed side by side.  The outputs are asserted bit-identical: the
   optimiser changes *what work runs*, never *what is computed*.

Run with::

    python examples/compiled_bootstrap.py
"""

from __future__ import annotations

from repro.compiler import set_default_passes
from repro.he import HeContext, HEParams, bootstrap_circuit


def main() -> None:
    params = HEParams(
        n=2048, plaintext_modulus=65537, prime_bits=45, prime_count=4
    )
    context = HeContext.create(params, backend="numpy", seed=3)
    encryptor = context.encryptor(seed=21)
    ct = encryptor.encrypt(context.encoder().encode([5, 7, 11]))
    print("params         : n=%d, t=%d, %d x %d-bit primes (numpy backend)"
          % (params.n, params.plaintext_modulus, params.prime_count,
             params.prime_bits))

    def steady_state(passes):
        """(warm result, warm-run metrics delta) for one pass selection."""
        set_default_passes(passes)
        program = context.program()
        set_default_passes(None)
        program.let(
            "refreshed",
            bootstrap_circuit(context, program.pipeline, ct, seed=7),
        )
        program.run()  # first run: compile the plan
        before = context.metrics()
        result = program.run()["refreshed"]
        return result, HeContext.metrics_diff(before, context.metrics())

    raw_result, raw = steady_state("none")
    opt_result, opt = steady_state("default")

    print("circuit        : bootstrap-shaped (CoeffToSlot -> EvalMod -> "
          "SlotToCoeff), one compiled program")
    print()
    print("steady-state cost of one warm run (metrics_diff):")
    print("  %-24s %12s %12s" % ("counter", "passes=none", "default"))
    for key in sorted(set(raw) | set(opt)):
        print("  %-24s %12d %12d" % (key, raw.get(key, 0), opt.get(key, 0)))
    print()
    print("ntt.invocations: %d raw, %d optimised (no plan transforms the key "
          "or a diagonal)" % (raw["ntt.invocations"], opt["ntt.invocations"]))

    rows = lambda ct_: [poly.to_coeff_lists() for poly in ct_.polys]
    assert rows(raw_result) == rows(opt_result)
    print("outputs        : bit-identical with and without the optimiser")


if __name__ == "__main__":
    main()
