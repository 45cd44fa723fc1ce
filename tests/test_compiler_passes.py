"""Tests for the plan-compiler subsystem: passes, manager, programs.

Pins the acceptance criteria of the optimiser:

* **pass unit tests** — each registered pass rewrites hand-built plans the
  way its contract says (copy and slice/concat folding, commutative-aware
  CSE, dead value sweeping, sum-of-products folding, post-fixpoint
  re-batching) while never aliasing a value into an output slot;
* **bit-for-bit equivalence** — optimised plans produce exactly the same
  ciphertexts as unoptimised ones, on scalar/numpy/forced-pool-parallel
  backends, at 30- and 60-bit primes, for the canonical
  ``multiply → relinearize → mod_switch`` chain and the bootstrap-shaped
  circuit;
* **selection precedence** — explicit > ``set_default_passes`` > default,
  with registry-style errors on unknown names;
* **NTT-resident constants** — the relinearisation key rests in the NTT
  domain, so no plan transforms it: the first run of a shape is the same
  plan as every later one, on any evaluator of the context;
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
    PASS_REGISTRY,
    PassContext,
    PassManager,
    available_passes,
    count_ntt_rows,
    parse_passes,
    pass_descriptions,
    resolve_passes,
    set_default_passes,
)
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


def run_pass(name, plan, input_primes=None, sweep=False):
    """Apply one pass (optionally sweeping dead nodes after, since a single
    rewrite leaves the values it orphaned for ``dead_values``)."""
    ctx = PassContext(input_primes=input_primes)
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


def bindings_for(names):
    return {
        name: (rows_for(PRIMES, seed), PRIMES)
        for seed, name in enumerate(names, start=1)
    }


def assert_same_outputs(rewritten, plan, names):
    assert scalar_outputs(rewritten, bindings_for(names)) == scalar_outputs(
        plan, bindings_for(names)
    )


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
    assert result.stats == {}


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


# ------------------------------------------------ pass: inner products


def test_fuse_inner_products_folds_only_products_read_once_by_the_sum():
    g = ops.OpGraph()
    a, b, c, d, e = (g.input(name) for name in "abcde")
    shared = g.mul(a, c)  # also read by y: stays a product, added as is
    x = g.add(g.add(g.mul(a, b), g.mul(c, d)), shared)
    y = g.add(shared, e)  # no product of its own: stays an Add
    z = g.add(g.mul(a, a), g.mul(a, a))  # a repeated pair
    returned = g.mul(b, c)  # a plan output is never fused away
    w = g.add(returned, e)
    for name, value in zip("xyzwr", (x, y, z, w, returned)):
        g.output(name, value)
    plan = g.compile()
    primes = {name: PRIMES for name in "abcde"}
    rewritten, ctx = run_pass("fuse_inner_products", plan, primes)
    assert kinds(rewritten).count("inner_product") == 2
    assert kinds(rewritten).count("mul") == 2 and kinds(rewritten).count("add") == 2
    (x_node, z_node) = [n for n in rewritten.nodes if n.kind == "inner_product"]
    assert x_node.pairs == ((0, 1), (2, 3)) and len(x_node.addends) == 1
    assert z_node.pairs == ((0, 0), (0, 0)) and z_node.addends == ()
    assert ctx.stats["plan.pass.fuse_inner_products.nodes_absorbed"] == 5
    assert_same_outputs(rewritten, plan, "abcde")
    # Idempotent: a fused plan has nothing left to fold.
    assert run_pass("fuse_inner_products", rewritten, primes)[0] is rewritten


# ------------------------------------------------------------- manager


def test_pass_manager_reaches_fixpoint_and_counts_rows():
    # Round 1: cse merges the duplicate transform, and fuse_inner_products
    # folds the sum into a multiply-accumulate node equal to the one the
    # plan already holds.  Round 2: cse merges the two (the output keeps a
    # Copy of its own).  Round 3 changes nothing.
    g = ops.OpGraph()
    a, b, c = (g.input(name) for name in "abc")
    g.output("first", g.inner_product([(g.forward_ntt(a), b), (c, c)]))
    g.output("second", g.add(g.mul(g.forward_ntt(a), b), g.mul(c, c)))
    plan = g.compile()
    primes = {name: PRIMES for name in "abc"}
    one_round = plan
    ctx = PassContext(input_primes=primes)
    for name in DEFAULT_PASSES:
        if not PASS_REGISTRY[name].after_fixpoint:
            one_round = PASS_REGISTRY[name].rewrite(one_round, ctx)
    assert kinds(one_round).count("inner_product") == 2

    manager = PassManager(DEFAULT_PASSES)
    result = manager.run(plan, input_primes=primes)
    assert kinds(result.plan) == [
        "input", "input", "input", "forward_ntt", "inner_product", "copy"
    ]
    assert result.stats["plan.pass.cse.values_merged"] == 2
    assert count_ntt_rows(plan, primes) == 2 * len(PRIMES)
    assert count_ntt_rows(result.plan, primes) == len(PRIMES)
    assert manager.run(result.plan, input_primes=primes).plan is result.plan
    assert_same_outputs(result.plan, plan, "abc")


@pytest.mark.parametrize("name", ["fold_structure", "cse"])
def test_aliasing_passes_never_alias_an_output(name):
    # Each pass forwards the output's value to an existing one (a slice
    # landing on a concat part to that part, a duplicate sum to the first):
    # the output slot gets its own Copy rather than the shared handle.
    g = ops.OpGraph()
    a = g.input("a")
    b = g.input("b")
    if name == "fold_structure":
        g.output("out", g.slice_rows(g.concat([a, b]), 0, len(PRIMES)))
    else:
        g.output("first", g.add(a, b))
        g.output("out", g.add(b, a))
    plan = g.compile()
    rewritten, _ = run_pass(name, plan, {"a": PRIMES, "b": PRIMES}, sweep=True)
    outputs = dict(rewritten.outputs)
    node = rewritten.nodes[outputs["out"]]
    assert isinstance(node, ops.Copy)
    if name == "fold_structure":
        assert rewritten.nodes[node.src] == ops.Input("a")
    else:
        assert node.src == outputs["first"]
    assert_same_outputs(rewritten, plan, "ab")


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
    assert "--passes" in message
    assert "none" in message


def test_resolve_passes_precedence(monkeypatch):
    # No environment variable selects passes.
    monkeypatch.setenv("REPRO_PASSES", "cse")
    assert resolve_passes() == DEFAULT_PASSES
    set_default_passes("dead_values")
    assert resolve_passes() == ("dead_values",)
    assert resolve_passes("fold_structure") == ("fold_structure",)
    assert resolve_passes("none") == ()
    set_default_passes(None)
    assert resolve_passes() == DEFAULT_PASSES


def test_registry_descriptions_cover_every_pass():
    table = dict(pass_descriptions())
    assert available_passes() == DEFAULT_PASSES == (
        "fold_structure",
        "cse",
        "dead_values",
        "fuse_inner_products",
        "batch_ntt",
    )
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


def plan_nodes(evaluator):
    return sum(len(entry[0]) for entry in evaluator._plan_cache.values())


def test_chain_optimised_bit_identical_equal_rows_fewer_nodes(context):
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
    raw_rows = plain_ev.metrics.value("ntt.invocations")
    first = chain(optim_ev, ct_a, ct_b, relin)  # compiles the plans
    first_rows = optim_ev.metrics.value("ntt.invocations")
    again = chain(optim_ev, ct_a, ct_b, relin)
    again_rows = optim_ev.metrics.value("ntt.invocations") - first_rows
    assert coeffs(first) == coeffs(expected)
    assert coeffs(again) == coeffs(expected)
    assert again.level == expected.level

    # Keys rest in the NTT domain and the emitters transform only what the
    # cross-row steps need, so the passes leave the transform rows as they
    # are; they fold the plumbing and the sums of products into fewer nodes.
    assert first_rows == again_rows == raw_rows > 0
    assert plan_nodes(optim_ev) < plan_nodes(plain_ev)


def test_bootstrap_circuit_optimised_bit_identical(context):
    check_bootstrap_circuit_bit_identical(context)


def test_bootstrap_30_circuit_shape_optimised_bit_identical(context):
    # The benchmark's bootstrap-30 circuit: four diagonal products a side,
    # sums the emitters accumulate in the NTT domain.
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
    first = expr.run()
    again = expr.run()
    assert coeffs(first) == coeffs(expected)
    assert coeffs(again) == coeffs(expected)
    assert again.level == expected.level == 1


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


# ---------------------------------------------------- NTT-resident constants


def test_second_evaluator_first_relinearize_runs_warm_rows():
    ctx = HeContext.create(PARAMS[30], backend="scalar", seed=7)
    encryptor = ctx.encryptor(seed=11)
    encoder = ctx.encoder()
    relin = ctx.relinearization_key()
    ct = encryptor.encrypt(encoder.encode([1, 2, 3]))
    ev1 = ctx.evaluator()
    ev2 = ctx.evaluator()
    product = ev1.multiply(ct, ct)
    ev1.relinearize(product, relin)  # compiles ev1's plan
    before = ctx.metrics()
    warm = ev1.relinearize(product, relin)
    warm_diff = HeContext.metrics_diff(before, ctx.metrics())
    before = ctx.metrics()
    first = ev2.relinearize(product, relin)  # ev2's first run compiles its own
    first_diff = HeContext.metrics_diff(before, ctx.metrics())
    assert first_diff["plan.compiled"] == 1 and warm_diff["plan.cache_hits"] == 1
    # The key rests in the NTT domain: a first run transforms no more rows
    # than a warm one, on any evaluator of the context.
    assert first_diff["ntt.invocations"] == warm_diff["ntt.invocations"] > 0
    assert coeffs(first) == coeffs(warm)


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
    assert pipe.evaluator.metrics.value("plan.compiled") == 1

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
