"""Tests for the plan-compiler subsystem: passes, manager, pool, programs.

Pins the acceptance criteria of the optimiser:

* **pass unit tests** — each registered pass rewrites hand-built plans the
  way its contract says (sinking inverse transforms through linear nodes
  without adding rows, cancellation through the batching plumbing, copy
  and slice/concat folding, commutative-aware CSE, constant hoisting, dead
  value sweeping, post-fixpoint re-batching) while never aliasing a value
  into an output slot;
* **bit-for-bit equivalence** — optimised plans produce exactly the same
  ciphertexts as unoptimised ones, on scalar/numpy/forced-pool-parallel
  backends, at 30- and 60-bit primes, for the canonical
  ``multiply → relinearize → mod_switch`` chain and the bootstrap-shaped
  circuit;
* **selection precedence** — explicit > ``set_default_passes`` >
  ``REPRO_PASSES`` > default, with registry-style errors on unknown names;
* **constant pool** — relinearisation keys and repeated plaintexts transform
  once (cold run) and hit the pool on every later execution, with fewer NTT
  rows on warm runs;
* **whole programs** — :meth:`Pipeline.run_many` and :class:`HeProgram`
  compile many statements into one plan with shared lowering, and
  ``HeContext.metrics_diff`` reports the deltas the benchmarks print.
"""

from __future__ import annotations

import pytest

from repro.backends import ops
from repro.backends.parallel import ParallelBackend
from repro.backends.scalar import ScalarBackend
from repro.compiler import (
    DEFAULT_PASSES,
    ConstantPool,
    PASS_REGISTRY,
    PASSES_ENV_VAR,
    PassContext,
    PassManager,
    available_passes,
    count_ntt_rows,
    parse_passes,
    pass_descriptions,
    resolve_passes,
    set_default_passes,
)
from repro.compiler.manager import materialize_derived
from repro.he import Evaluator, HeContext, HEParams, bootstrap_circuit
from repro.modarith.primes import generate_ntt_primes

N = 64
PARAMS = {
    bits: HEParams(n=N, plaintext_modulus=257, prime_bits=bits, prime_count=3)
    for bits in (30, 60)
}


def forced_parallel():
    return ParallelBackend(shards=2, transform_threshold=1, pointwise_threshold=1)


def coeffs(ciphertext):
    return [poly.to_coeff_lists() for poly in ciphertext.polys]


def oracle(context):
    """The reference evaluator: raw emitted plans, one scalar call per node."""
    return Evaluator(context.params, backend="scalar", passes="none")


@pytest.fixture(
    params=[
        "scalar-30",
        "scalar-60",
        "numpy-30",
        "numpy-60",
        "parallel-30",
        "parallel-60",
    ]
)
def context(request):
    name, bits = request.param.rsplit("-", 1)
    backend = forced_parallel() if name == "parallel" else name
    ctx = HeContext.create(PARAMS[int(bits)], backend=backend, seed=7)
    yield ctx
    if isinstance(ctx.backend, ParallelBackend):
        ctx.backend.close()


@pytest.fixture(autouse=True)
def _clean_pass_default():
    set_default_passes(None)
    yield
    set_default_passes(None)


# --------------------------------------------------- structural helpers


def run_pass(name, plan, input_primes=None, constant_inputs=(), sweep=False):
    """Apply one pass (optionally sweeping dead nodes after, since a single
    rewrite leaves the values it orphaned for ``dead_values``)."""
    ctx = PassContext(input_primes=input_primes, constant_inputs=constant_inputs)
    plan = PASS_REGISTRY[name].rewrite(plan, ctx)
    if sweep:
        plan = PASS_REGISTRY["dead_values"].rewrite(plan, ctx)
    return plan, ctx


def scalar_outputs(plan, bindings_rows):
    backend = ScalarBackend()
    bindings = {
        name: backend.from_rows(rows, primes)
        for name, (rows, primes) in bindings_rows.items()
    }
    outputs = backend.execute(plan, bindings)
    return {name: outputs[name].to_rows() for name in plan.output_names}


def kinds(plan):
    return [node.kind for node in plan.nodes]


PRIMES = tuple(generate_ntt_primes(17, 3, 2 * N))


def rows_for(primes, seed=1):
    return [[(seed * 37 + i * 31 + j) % p for j in range(N)] for i, p in enumerate(primes)]


# --------------------------------------------------------- pass: cancellation


def test_cancel_forward_inverse_pair():
    g = ops.OpGraph()
    x = g.input("x")
    g.output("out", g.inverse_ntt(g.forward_ntt(x)))
    plan = g.compile()
    rewritten, ctx = run_pass("cancel_ntt_pairs", plan, {"x": PRIMES}, sweep=True)
    assert "forward_ntt" not in kinds(rewritten)
    assert "inverse_ntt" not in kinds(rewritten)
    assert ctx.stats["plan.pass.cancel_ntt_pairs.pairs_cancelled"] == 1
    # Output never aliases the input: a Copy is materialised in the slot.
    rows = rows_for(PRIMES)
    out = scalar_outputs(rewritten, {"x": (rows, PRIMES)})
    assert out["out"] == rows


def test_cancel_sees_through_slice_plumbing():
    # inverse(slice(forward(x))) == slice(x): the emitters' batch shape.
    g = ops.OpGraph()
    x = g.input("x")
    fwd = g.forward_ntt(x)
    g.output("out", g.inverse_ntt(g.slice_rows(fwd, 1, 3)))
    plan = g.compile()
    rewritten, _ = run_pass("cancel_ntt_pairs", plan, {"x": PRIMES})
    assert "inverse_ntt" not in kinds(rewritten)
    rows = rows_for(PRIMES)
    out = scalar_outputs(rewritten, {"x": (rows, PRIMES)})
    assert out["out"] == rows[1:3]


def test_cancel_partial_concat_keeps_surviving_rows_grouped():
    # forward(concat(inverse(a), b, c)) -> concat(a', forward(concat(b, c)));
    # the two non-cancellable parts stay in ONE wide transform.
    g = ops.OpGraph()
    a = g.input("a")
    b = g.input("b")
    c = g.input("c")
    stacked = g.concat([g.inverse_ntt(a), b, c])
    g.output("out", g.forward_ntt(stacked))
    plan = g.compile()
    primes = {"a": PRIMES, "b": PRIMES, "c": PRIMES}
    rewritten, ctx = run_pass("cancel_ntt_pairs", plan, primes, sweep=True)
    assert ctx.stats["plan.pass.cancel_ntt_pairs.pairs_cancelled"] == 1
    assert kinds(rewritten).count("forward_ntt") == 1
    assert "inverse_ntt" not in kinds(rewritten)
    backend = ScalarBackend()
    bindings = {
        name: backend.from_rows(rows_for(PRIMES, seed), PRIMES)
        for seed, name in enumerate(("a", "b", "c"), start=1)
    }
    got = backend.execute(rewritten, bindings)
    ref_backend = ScalarBackend()
    ref_bindings = {
        name: ref_backend.from_rows(rows_for(PRIMES, seed), PRIMES)
        for seed, name in enumerate(("a", "b", "c"), start=1)
    }
    expected = ops.interpret(ref_backend, plan, ref_bindings)
    assert got["out"].to_rows() == expected["out"].to_rows()


# ------------------------------------------------------------ pass: sinking

LINEAR = {
    "add": lambda g, x, y: g.add(x, y),
    "sub": lambda g, x, y: g.sub(x, y),
    "neg": lambda g, x, y: g.neg(x),
    "scalar_mul": lambda g, x, y: g.scalar_mul(x, 12345),
}


def bindings_for(names):
    return {
        name: (rows_for(PRIMES, seed), PRIMES)
        for seed, name in enumerate(names, start=1)
    }


def assert_same_outputs(rewritten, plan, names):
    assert scalar_outputs(rewritten, bindings_for(names)) == scalar_outputs(
        plan, bindings_for(names)
    )


@pytest.mark.parametrize("kind", sorted(LINEAR))
def test_sink_moves_each_linear_node_into_the_ntt_domain(kind):
    g = ops.OpGraph()
    a = g.input("a")
    b = g.input("b")
    g.output("out", LINEAR[kind](g, g.inverse_ntt(a), g.inverse_ntt(b)))
    plan = g.compile()
    primes = {"a": PRIMES, "b": PRIMES}
    rewritten, ctx = run_pass("sink_inverse_ntt", plan, primes, sweep=True)
    assert kinds(rewritten).count("inverse_ntt") == 1
    assert kind in kinds(rewritten)
    # The output is the one inverse transform, of the NTT-domain result.
    assert isinstance(rewritten.nodes[rewritten.outputs[0][1]], ops.InverseNtt)
    assert count_ntt_rows(rewritten, primes) == len(PRIMES)
    assert ctx.stats["plan.pass.sink_inverse_ntt.nodes_sunk"] == 1
    assert_same_outputs(rewritten, plan, primes)


def test_sink_sees_through_slices_and_concats():
    # sum = slice(inverse(concat(a, b)), 0, 3) + slice(..., 3, 6), and
    # mixed = concat(two rows of inverse(c), one row of inverse(d)) - inverse(e):
    # both sums become one 3-row inverse transform each.
    g = ops.OpGraph()
    a, b, c, d, e = (g.input(name) for name in "abcde")
    first, second = g.split(g.inverse_ntt(g.concat([a, b])), [3, 3])
    g.output("sum", g.add(first, second))
    stitched = g.concat(
        [g.slice_rows(g.inverse_ntt(c), 0, 2), g.slice_rows(g.inverse_ntt(d), 2, 3)]
    )
    g.output("mixed", g.sub(stitched, g.inverse_ntt(e)))
    plan = g.compile()
    primes = {name: PRIMES for name in "abcde"}
    rewritten, ctx = run_pass("sink_inverse_ntt", plan, primes, sweep=True)
    assert count_ntt_rows(plan, primes) == 15
    assert count_ntt_rows(rewritten, primes) == 6
    assert ctx.stats["plan.pass.sink_inverse_ntt.nodes_sunk"] == 2
    assert_same_outputs(rewritten, plan, "abcde")


def test_sink_never_moves_mul():
    g = ops.OpGraph()
    a = g.input("a")
    b = g.input("b")
    g.output("out", g.mul(g.inverse_ntt(a), g.inverse_ntt(b)))
    plan = g.compile()
    rewritten, _ = run_pass("sink_inverse_ntt", plan, {"a": PRIMES, "b": PRIMES})
    assert rewritten is plan


@pytest.mark.parametrize("other_reader", ["digit_broadcast", "output"])
def test_sink_skips_a_transform_another_reader_keeps_alive(other_reader):
    g = ops.OpGraph()
    a = g.input("a")
    b = g.input("b")
    shared = g.inverse_ntt(a)
    if other_reader == "output":
        g.output("raw", shared)
    else:
        g.output("digit", g.copy(g.digit_broadcast(shared, 0)))
    g.output("sum", g.add(shared, g.inverse_ntt(b)))
    plan = g.compile()
    primes = {"a": PRIMES, "b": PRIMES}
    rewritten, _ = run_pass("sink_inverse_ntt", plan, primes)
    assert rewritten is plan
    optimised = PassManager(DEFAULT_PASSES).run(plan, input_primes=primes).plan
    assert count_ntt_rows(optimised, primes) == count_ntt_rows(plan, primes)
    assert_same_outputs(optimised, plan, primes)


def test_sink_narrows_a_batch_to_the_rows_still_read():
    # Relinearisation's shape: inverse(concat(c0, c1, c2)) feeds c0 + k0 and
    # c1 + k1 (sunk) and a digit of c2 (kept): only c2's rows stay.
    g = ops.OpGraph()
    c0, c1, c2, k0, k1 = (g.input(name) for name in ("c0", "c1", "c2", "k0", "k1"))
    s0, s1, s2 = g.split(g.inverse_ntt(g.concat([c0, c1, c2])), [3, 3, 3])
    t0, t1 = g.split(g.inverse_ntt(g.concat([k0, k1])), [3, 3])
    g.output("digit", g.copy(g.digit_broadcast(s2, 1)))
    g.output("out0", g.add(s0, t0))
    g.output("out1", g.add(s1, t1))
    plan = g.compile()
    names = ("c0", "c1", "c2", "k0", "k1")
    primes = {name: PRIMES for name in names}
    rewritten, ctx = run_pass("sink_inverse_ntt", plan, primes, sweep=True)
    assert ctx.stats["plan.pass.sink_inverse_ntt.transforms_narrowed"] == 1
    assert count_ntt_rows(plan, primes) == 15
    assert count_ntt_rows(rewritten, primes) == 9
    assert_same_outputs(rewritten, plan, names)


def test_sink_never_aliases_an_output():
    # Row 2 of inverse(a) is sunk into the sum; the output reading rows 0:2
    # then covers the whole narrowed transform and gets its own Copy.
    g = ops.OpGraph()
    a = g.input("a")
    b = g.input("b")
    shared = g.inverse_ntt(a)
    g.output("head", g.slice_rows(shared, 0, 2))
    tail = g.inverse_ntt(g.slice_rows(b, 2, 3))
    g.output("sum", g.add(g.slice_rows(shared, 2, 3), tail))
    plan = g.compile()
    primes = {"a": PRIMES, "b": PRIMES}
    rewritten, _ = run_pass("sink_inverse_ntt", plan, primes, sweep=True)
    assert count_ntt_rows(rewritten, primes) == 3
    head = dict(rewritten.outputs)["head"]
    assert isinstance(rewritten.nodes[head], ops.Copy)
    assert_same_outputs(rewritten, plan, primes)


# ---------------------------------------------------------- pass: batching


def test_batch_ntt_merges_independent_transforms_of_one_kind():
    g = ops.OpGraph()
    a, b, c = (g.input(name) for name in "abc")
    fa = g.forward_ntt(a)
    g.output("fa", fa)
    g.output("fb", g.forward_ntt(b))
    g.output("ic", g.inverse_ntt(c))  # other kind: stays apart
    g.output("later", g.forward_ntt(g.neg(fa)))  # reads fa: stays apart
    plan = g.compile()
    primes = {name: PRIMES for name in "abc"}
    rewritten, ctx = run_pass("batch_ntt", plan, primes)
    assert kinds(rewritten).count("forward_ntt") == 2
    assert kinds(rewritten).count("inverse_ntt") == 1
    wide = next(n for n in rewritten.nodes if isinstance(n, ops.ForwardNtt))
    assert rewritten.nodes[wide.src] == ops.Concat(
        (rewritten.input_names.index("a"), rewritten.input_names.index("b"))
    )
    assert ctx.stats["plan.pass.batch_ntt.transforms_merged"] == 2
    assert count_ntt_rows(rewritten, primes) == count_ntt_rows(plan, primes)
    assert_same_outputs(rewritten, plan, "abc")
    again, _ = run_pass("batch_ntt", rewritten, primes)
    assert again is rewritten


def test_batch_ntt_runs_once_after_the_fixpoint():
    # Two copies of one transform: CSE merges them inside the fixpoint, so
    # batching (listed first) must not see them first and batch both.
    g = ops.OpGraph()
    x = g.input("x")
    g.output("p", g.copy(g.forward_ntt(x)))
    g.output("q", g.copy(g.forward_ntt(x)))
    plan = g.compile()
    primes = {"x": PRIMES}
    result = PassManager("batch_ntt,cse,dead_values").run(plan, input_primes=primes)
    assert count_ntt_rows(result.plan, primes) == len(PRIMES)
    batched_first, _ = run_pass("batch_ntt", plan, primes)
    assert count_ntt_rows(batched_first, primes) == 2 * len(PRIMES)


def test_passes_none_returns_the_raw_plan():
    g = ops.OpGraph()
    x = g.input("x")
    g.output("out", g.add(g.inverse_ntt(x), g.inverse_ntt(x)))
    plan = g.compile()
    result = PassManager("none").run(plan, input_primes={"x": PRIMES})
    assert result.plan is plan
    assert result.derived_inputs == () and result.stats == {}


# --------------------------------------------------------- pass: folding


def test_fold_copy_chain_collapses():
    g = ops.OpGraph()
    x = g.input("x")
    y = g.copy(g.copy(g.copy(x)))
    g.output("out", g.neg(y))
    plan = g.compile()
    rewritten, ctx = run_pass("fold_structure", plan, {"x": PRIMES})
    assert kinds(rewritten) == ["input", "neg"]
    assert ctx.stats["plan.pass.fold_structure.copies_forwarded"] == 3


def test_fold_slice_of_concat_and_full_range():
    g = ops.OpGraph()
    a = g.input("a")
    b = g.input("b")
    stacked = g.concat([a, b])
    g.output("b_again", g.copy(g.slice_rows(stacked, len(PRIMES), 2 * len(PRIMES))))
    g.output("all", g.copy(g.slice_rows(stacked, 0, 2 * len(PRIMES))))
    plan = g.compile()
    rewritten, ctx = run_pass(
        "fold_structure", plan, {"a": PRIMES, "b": PRIMES}
    )
    assert "slice_rows" not in kinds(rewritten)
    assert ctx.stats["plan.pass.fold_structure.slices_folded"] == 2
    rows_a, rows_b = rows_for(PRIMES, 1), rows_for(PRIMES, 2)
    out = scalar_outputs(
        rewritten, {"a": (rows_a, PRIMES), "b": (rows_b, PRIMES)}
    )
    assert out["b_again"] == rows_b
    assert out["all"] == rows_a + rows_b


def test_fold_nested_concat_flattens():
    g = ops.OpGraph()
    a = g.input("a")
    b = g.input("b")
    c = g.input("c")
    inner = g.concat([a, b])
    g.output("out", g.copy(g.concat([inner, c])))
    plan = g.compile()
    rewritten, ctx = run_pass(
        "fold_structure", plan, {"a": PRIMES, "b": PRIMES, "c": PRIMES}, sweep=True
    )
    concats = [n for n in rewritten.nodes if isinstance(n, ops.Concat)]
    assert len(concats) == 1 and len(concats[0].srcs) == 3
    assert ctx.stats["plan.pass.fold_structure.concats_flattened"] == 1


# --------------------------------------------------------------- pass: cse


def test_cse_merges_commutative_duplicates():
    g = ops.OpGraph()
    a = g.input("a")
    b = g.input("b")
    g.output("x", g.copy(g.add(a, b)))
    g.output("y", g.copy(g.add(b, a)))
    g.output("z", g.copy(g.mul(a, b)))
    plan = g.compile()
    rewritten, ctx = run_pass("cse", plan, {"a": PRIMES, "b": PRIMES})
    assert kinds(rewritten).count("add") == 1
    assert ctx.stats["plan.pass.cse.values_merged"] == 1
    out = scalar_outputs(
        rewritten,
        {"a": (rows_for(PRIMES, 1), PRIMES), "b": (rows_for(PRIMES, 2), PRIMES)},
    )
    assert out["x"] == out["y"]


def test_cse_never_merges_copies():
    g = ops.OpGraph()
    a = g.input("a")
    g.output("x", g.copy(a))
    g.output("y", g.copy(a))
    plan = g.compile()
    rewritten, _ = run_pass("cse", plan, {"a": PRIMES})
    assert kinds(rewritten).count("copy") == 2


# ------------------------------------------------------- pass: dead values


def test_dead_values_drops_unreached_nodes_and_inputs():
    g = ops.OpGraph()
    a = g.input("a")
    b = g.input("b")
    g.neg(b)  # dead
    g.forward_ntt(b)  # dead
    g.output("out", g.copy(a))
    plan = g.compile()
    rewritten, ctx = run_pass("dead_values", plan, {"a": PRIMES, "b": PRIMES})
    assert kinds(rewritten) == ["input", "copy"]
    assert rewritten.input_names == ("a",)
    assert ctx.stats["plan.pass.dead_values.values_removed"] == 3


# -------------------------------------------------------- pass: residency


def test_residency_hoists_constant_transform_to_derived_input():
    g = ops.OpGraph()
    x = g.input("x")
    k = g.input("k")
    x_ntt = g.forward_ntt(x)
    k_ntt = g.forward_ntt(k)
    g.output("out", g.inverse_ntt(g.mul(x_ntt, k_ntt)))
    plan = g.compile()
    rewritten, ctx = run_pass(
        "ntt_residency", plan, {"x": PRIMES, "k": PRIMES}, constant_inputs=("k",)
    )
    assert ctx.derived_inputs == {"k@ntt": "k"}
    assert "k@ntt" in rewritten.input_names
    assert kinds(rewritten).count("forward_ntt") == 1  # only x's survives
    assert ctx.stats["plan.pass.ntt_residency.transforms_hoisted"] == 1


def test_residency_splits_constants_out_of_batched_transform():
    # forward(concat(x, k1, k2)): the constant tail hoists, x stays in one
    # transform; the recombining concat preserves row order.
    g = ops.OpGraph()
    x = g.input("x")
    k1 = g.input("k1")
    k2 = g.input("k2")
    stacked = g.concat([x, k1, k2])
    g.output("out", g.copy(g.forward_ntt(stacked)))
    plan = g.compile()
    primes = {"x": PRIMES, "k1": PRIMES, "k2": PRIMES}
    rewritten, ctx = run_pass(
        "ntt_residency", plan, primes, constant_inputs=("k1", "k2")
    )
    assert ctx.stats["plan.pass.ntt_residency.transforms_hoisted"] == 2
    assert kinds(rewritten).count("forward_ntt") == 1
    assert set(ctx.derived_inputs) == {"k1@ntt", "k2@ntt"}


def test_residency_is_noop_without_constants():
    g = ops.OpGraph()
    x = g.input("x")
    g.output("out", g.forward_ntt(x))
    plan = g.compile()
    rewritten, ctx = run_pass("ntt_residency", plan, {"x": PRIMES})
    assert rewritten is plan
    assert not ctx.derived_inputs


# ------------------------------------------------- manager and materialise


def test_pass_manager_reaches_fixpoint_and_counts_rows():
    g = ops.OpGraph()
    x = g.input("x")
    roundtrip = g.inverse_ntt(g.forward_ntt(x))
    g.output("out", g.copy(roundtrip))
    plan = g.compile()
    manager = PassManager(DEFAULT_PASSES)
    result = manager.run(plan, input_primes={"x": PRIMES})
    assert count_ntt_rows(result.plan, {"x": PRIMES}) == 0
    assert count_ntt_rows(plan, {"x": PRIMES}) == 2 * len(PRIMES)
    out = scalar_outputs(result.plan, {"x": (rows_for(PRIMES), PRIMES)})
    assert out["out"] == rows_for(PRIMES)


def test_materialize_derived_builds_seeding_variant():
    g = ops.OpGraph()
    x = g.input("x")
    k = g.input("k")
    g.output("out", g.inverse_ntt(g.mul(g.forward_ntt(x), g.forward_ntt(k))))
    plan = g.compile()
    manager = PassManager(DEFAULT_PASSES)
    optimized = manager.run(
        plan, input_primes={"x": PRIMES, "k": PRIMES}, constant_inputs=("k",)
    )
    assert optimized.derived_inputs == (("k@ntt", "k"),)
    input_primes = {"x": PRIMES, "k": PRIMES, "k@ntt": PRIMES}
    cold, const_outputs = materialize_derived(
        optimized.plan, optimized.derived_inputs, input_primes
    )
    assert const_outputs == (("const:k@ntt", "k"),)
    assert set(cold.input_names) == {"x", "k"}
    # The cold plan computes the same "out" AND exports the constant image.
    cold_out = scalar_outputs(
        cold,
        {"x": (rows_for(PRIMES, 1), PRIMES), "k": (rows_for(PRIMES, 2), PRIMES)},
    )
    reference = scalar_outputs(
        plan,
        {"x": (rows_for(PRIMES, 1), PRIMES), "k": (rows_for(PRIMES, 2), PRIMES)},
    )
    assert cold_out["out"] == reference["out"]
    assert "const:k@ntt" in cold_out


# ------------------------------------------------------ selection precedence


def test_parse_passes_spellings():
    assert parse_passes("none") == ()
    assert parse_passes("") == ()
    assert parse_passes("default") == DEFAULT_PASSES
    assert parse_passes("cse, dead_values") == ("cse", "dead_values")
    assert parse_passes(["cse"]) == ("cse",)


def test_unknown_pass_error_lists_registry():
    with pytest.raises(KeyError) as excinfo:
        parse_passes("cse,bogus")
    message = str(excinfo.value)
    for name in available_passes():
        assert name in message
    assert PASSES_ENV_VAR in message
    assert "none" in message


def test_resolve_passes_precedence(monkeypatch):
    monkeypatch.setenv(PASSES_ENV_VAR, "cse")
    assert resolve_passes() == ("cse",)
    set_default_passes("dead_values")
    assert resolve_passes() == ("dead_values",)
    assert resolve_passes("fold_structure") == ("fold_structure",)
    assert resolve_passes("none") == ()
    set_default_passes(None)
    monkeypatch.delenv(PASSES_ENV_VAR)
    assert resolve_passes() == DEFAULT_PASSES


def test_registry_descriptions_cover_every_pass():
    table = dict(pass_descriptions())
    assert available_passes() == DEFAULT_PASSES
    assert set(table) == set(DEFAULT_PASSES)
    assert all(table.values())
    # batch_ntt alone runs after the fixpoint, and last.
    after = [name for name in DEFAULT_PASSES if PASS_REGISTRY[name].after_fixpoint]
    assert after == ["batch_ntt"] == list(DEFAULT_PASSES[-1:])


# ---------------------------------------------- bit-for-bit equivalence


def chain(evaluator, ct_a, ct_b, relin):
    return evaluator.mod_switch_to_next(
        evaluator.relinearize(evaluator.multiply(ct_a, ct_b), relin)
    )


def test_chain_optimised_bit_identical_and_fewer_ntts(context):
    encryptor = context.encryptor(seed=11)
    encoder = context.encoder()
    relin = context.relinearization_key()
    ct_a = encryptor.encrypt(encoder.encode([1, 2, 3]))
    ct_b = encryptor.encrypt(encoder.encode([4, 5, 6]))

    plain_ev = context.evaluator(passes="none")
    optim_ev = context.evaluator(passes="default")
    assert plain_ev.passes == ()
    assert optim_ev.passes == DEFAULT_PASSES

    expected = chain(plain_ev, ct_a, ct_b, relin)
    cold = chain(optim_ev, ct_a, ct_b, relin)  # seeds the constant pool
    warm = chain(optim_ev, ct_a, ct_b, relin)
    assert coeffs(cold) == coeffs(expected)
    assert coeffs(warm) == coeffs(expected)
    assert warm.level == expected.level

    # Warm executions skip the pooled key transforms: strictly fewer NTT
    # rows per run than the unoptimised evaluator.
    plain_per_run = plain_ev.ntt_invocations
    chain(plain_ev, ct_a, ct_b, relin)
    plain_second = plain_ev.ntt_invocations - plain_per_run
    warm_before = optim_ev.ntt_invocations
    chain(optim_ev, ct_a, ct_b, relin)
    warm_cost = optim_ev.ntt_invocations - warm_before
    assert warm_cost < plain_second
    assert optim_ev.metrics.value("plan.pool.hits") > 0


def test_bootstrap_circuit_optimised_bit_identical(context):
    check_bootstrap_circuit_bit_identical(context)


def test_bootstrap_30_circuit_shape_optimised_bit_identical(context):
    # The benchmark's bootstrap-30 circuit: four diagonal products a side,
    # the sums the sinking pass moves into the NTT domain.
    check_bootstrap_circuit_bit_identical(
        context, c2s_terms=4, eval_depth=1, s2c_terms=4
    )


def check_bootstrap_circuit_bit_identical(context, **shape):
    encryptor = context.encryptor(seed=11)
    encoder = context.encoder()
    ct = encryptor.encrypt(encoder.encode([3, 1, 4, 1, 5]))

    set_default_passes("none")
    plain_pipe = context.pipeline()
    set_default_passes(None)
    optim_pipe = context.pipeline()
    assert plain_pipe.evaluator.passes == ()
    assert optim_pipe.evaluator.passes == DEFAULT_PASSES

    expected = bootstrap_circuit(context, plain_pipe, ct, seed=99, **shape).run()
    expr = bootstrap_circuit(context, optim_pipe, ct, seed=99, **shape)
    cold = expr.run()
    warm = expr.run()
    assert coeffs(cold) == coeffs(expected)
    assert coeffs(warm) == coeffs(expected)
    assert warm.level == expected.level == 1


def test_pipeline_plain_ops_match_eager(context):
    encryptor = context.encryptor(seed=11)
    encoder = context.encoder()
    ct = encryptor.encrypt(encoder.encode([1, 2, 3]))
    plain = encoder.encode([2, 0, 1])

    reference = oracle(context)
    expected = reference.add_plain(reference.multiply_plain(ct, plain), plain)

    pipe = context.pipeline()
    result = pipe.load(ct).mul_plain(plain).add_plain(plain).run()
    assert coeffs(result) == coeffs(expected)


# ------------------------------------------------------------ constant pool


def test_constant_pool_identity_keyed_lru():
    pool = ConstantPool(max_entries=2)
    a, b, c = object(), object(), object()
    pool.store(a, "A")
    pool.store(b, "B")
    assert pool.lookup(a) == "A"  # refreshes a's recency
    pool.store(c, "C")  # evicts b (least recent)
    assert pool.lookup(b) is None
    assert pool.lookup(a) == "A"
    assert pool.lookup(c) == "C"
    assert len(pool) == 2
    pool.clear()
    assert pool.lookup(a) is None


def test_context_shares_one_pool_across_evaluators():
    ctx = HeContext.create(PARAMS[30], backend="scalar", seed=7)
    encryptor = ctx.encryptor(seed=11)
    encoder = ctx.encoder()
    relin = ctx.relinearization_key()
    ct = encryptor.encrypt(encoder.encode([1, 2, 3]))
    ev1 = ctx.evaluator()
    ev2 = ctx.evaluator()
    product = ev1.multiply(ct, ct)
    ev1.relinearize(product, relin)  # cold: fills the shared pool
    before = ctx.metrics()
    ev2.relinearize(product, relin)  # second evaluator: pool already warm
    diff = HeContext.metrics_diff(before, ctx.metrics())
    assert diff["plan.pool.hits"] > 0
    assert diff.get("plan.pool.misses", 0) == 0


# --------------------------------------------------------------- metrics diff


def test_metrics_diff_headline_keys_always_present():
    diff = HeContext.metrics_diff({}, {})
    assert diff == {
        "pool.dispatches": 0,
        "conversions.rows": 0,
        "ntt.invocations": 0,
        "fallback.rows": 0,
    }
    diff = HeContext.metrics_diff(
        {"ntt.invocations": 10, "histogram": {"p50": 1}},
        {"ntt.invocations": 25, "plan.compiled": 2, "histogram": {"p50": 9}},
    )
    assert diff["ntt.invocations"] == 15
    assert diff["plan.compiled"] == 2
    assert "histogram" not in diff


# --------------------------------------------------- run_many and programs


def test_run_many_shares_subexpressions_in_one_plan(context):
    encryptor = context.encryptor(seed=11)
    encoder = context.encoder()
    relin = context.relinearization_key()
    ct = encryptor.encrypt(encoder.encode([1, 2, 3]))

    pipe = context.pipeline()
    x = pipe.load(ct)
    sq = x.square().relinearize(relin)
    twice = x + x
    switched = sq.mod_switch()
    results = pipe.run_many([sq, twice, switched])
    assert pipe.evaluator.plans_compiled == 1

    reference = oracle(context)
    squared = reference.relinearize(reference.square(ct), relin)
    assert coeffs(results[0]) == coeffs(squared)
    assert coeffs(results[1]) == coeffs(reference.add(ct, ct))
    assert coeffs(results[2]) == coeffs(reference.mod_switch_to_next(squared))
    assert results[2].level == 1


def test_program_front_end():
    ctx = HeContext.create(PARAMS[30], backend="scalar", seed=7)
    encryptor = ctx.encryptor(seed=11)
    encoder = ctx.encoder()
    relin = ctx.relinearization_key()
    ct = encryptor.encrypt(encoder.encode([1, 2, 3]))

    program = ctx.program()
    x = program.load(ct)
    program.let("sq", x.square().relinearize(relin).mod_switch())
    program.let("twice", x + x)
    assert program.statements == ("sq", "twice")
    with pytest.raises(ValueError, match="already defines"):
        program.let("sq", x)
    results = program.run()
    assert set(results) == {"sq", "twice"}

    reference = oracle(ctx)
    assert coeffs(results["sq"]) == coeffs(
        reference.mod_switch_to_next(reference.relinearize(reference.square(ct), relin))
    )
    assert coeffs(results["twice"]) == coeffs(reference.add(ct, ct))

    empty = ctx.program()
    with pytest.raises(ValueError, match="no statements"):
        empty.run()


def test_run_many_rejects_foreign_and_empty(context):
    pipe = context.pipeline()
    other = context.pipeline()
    encryptor = context.encryptor(seed=11)
    ct = encryptor.encrypt(context.encoder().encode([1]))
    with pytest.raises(ValueError, match="at least one"):
        pipe.run_many([])
    with pytest.raises(ValueError, match="different pipeline"):
        pipe.run_many([other.load(ct)])
    with pytest.raises(TypeError):
        pipe.run_many([ct])


# ------------------------------------------------------------- CLI surface


def test_cli_rejects_unknown_passes_before_mutating(capsys):
    from repro.experiments.__main__ import main

    assert main(["--passes", "bogus", "table2"]) == 2
    err = capsys.readouterr().err
    assert "unknown plan pass" in err
    assert resolve_passes() == DEFAULT_PASSES  # nothing leaked


def test_cli_list_prints_pass_registry(capsys):
    from repro.experiments.__main__ import main

    assert main(["--list"]) == 0
    out = capsys.readouterr().out
    for name in available_passes():
        assert name in out
    assert "plan passes:" in out
