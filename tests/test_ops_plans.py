"""Tests for the op-graph plan IR and ``ComputeBackend.execute``.

Pins the acceptance criteria of the op-graph execution redesign:

* **eager compat** — every legacy :class:`ComputeBackend` method is
  cross-checked bit-for-bit against its one-op plan, on all three backends,
  on both word-size regimes (30-bit vectorised, 60-bit per-prime fallback);
* **builder/IR validation** — malformed graphs fail at build or inference
  time with actionable errors, and unknown backend and engine names list
  the valid plan nodes and the environment overrides;
* **fused scheduling** — stage splitting by dependency level at cross-row
  nodes, per-worker row ranges through concat/split chains, and the
  parallel backend's fallbacks (big rows, misaligned operands, heap inputs,
  single shard) all yield bit-identical results.
"""

from __future__ import annotations

import random

import pytest

from repro.backends import (
    NODE_NAMES,
    OpGraph,
    get_backend,
    get_engine,
    ops,
)
from repro.backends.numpy_backend import NumpyBackend
from repro.backends.parallel import ParallelBackend
from repro.backends.scalar import ScalarBackend
from repro.modarith.primes import generate_ntt_primes

N = 64
PRIME_BITS = (30, 60)


def random_rows(primes, n, seed):
    rng = random.Random(seed)
    return [[rng.randrange(p) for _ in range(n)] for p in primes]


def forced_parallel():
    return ParallelBackend(shards=2, transform_threshold=1, pointwise_threshold=1)


@pytest.fixture(scope="module")
def backends():
    pooled = forced_parallel()
    yield {"scalar": ScalarBackend(), "numpy": NumpyBackend(), "parallel": pooled}
    pooled.close()


def one_op_plan(build):
    """Compile a plan whose body is ``build(graph, *input values)``."""
    graph = OpGraph()
    a = graph.input("a")
    b = graph.input("b")
    graph.output("out", build(graph, a, b))
    return graph.compile()


# --------------------------------------------------- eager-compat cross-check


@pytest.mark.parametrize("bits", PRIME_BITS)
@pytest.mark.parametrize("name", ["scalar", "numpy", "parallel"])
def test_every_eager_method_matches_its_one_op_plan(name, bits, backends):
    """The eager compatibility layer and one-node plans are bit-for-bit
    interchangeable on every backend and both word-size regimes."""
    backend = backends[name]
    distinct = generate_ntt_primes(bits, 3, N)
    primes = [p for p in distinct for _ in range(2)]
    rows_a = random_rows(primes, N, seed=bits)
    rows_b = random_rows(primes, N, seed=100 + bits)
    a = backend.from_rows(rows_a, primes)
    b = backend.from_rows(rows_b, primes)

    unary_cases = {
        "forward_ntt_batch": lambda g, x, y: g.forward_ntt(x),
        "inverse_ntt_batch": lambda g, x, y: g.inverse_ntt(x),
        "neg": lambda g, x, y: g.neg(x),
        "copy": lambda g, x, y: g.copy(x),
    }
    for method, build in unary_cases.items():
        eager = getattr(backend, method)(a)
        planned = backend.execute(one_op_plan(build), {"a": a, "b": b})["out"]
        assert planned.to_rows() == eager.to_rows(), method

    binary_cases = {
        "add": lambda g, x, y: g.add(x, y),
        "sub": lambda g, x, y: g.sub(x, y),
        "mul": lambda g, x, y: g.mul(x, y),
        "concat": lambda g, x, y: g.concat([x, y]),
    }
    for method, build in binary_cases.items():
        if method == "concat":
            eager = backend.concat([a, b])
        else:
            eager = getattr(backend, method)(a, b)
        planned = backend.execute(one_op_plan(build), {"a": a, "b": b})["out"]
        assert planned.to_rows() == eager.to_rows(), method

    parameterised = {
        "scalar_mul": (
            lambda g, x, y: g.scalar_mul(x, 123457),
            lambda: backend.scalar_mul(a, 123457),
        ),
        "slice_rows": (
            lambda g, x, y: g.slice_rows(x, 1, 4),
            lambda: backend.slice_rows(a, 1, 4),
        ),
        "digit_broadcast": (
            lambda g, x, y: g.digit_broadcast(x, 1),
            lambda: backend.digit_broadcast(a, 1),
        ),
    }
    for method, (build, eager_call) in parameterised.items():
        planned = backend.execute(one_op_plan(build), {"a": a, "b": b})["out"]
        assert planned.to_rows() == eager_call().to_rows(), method

    # mod_switch needs a distinct-prime basis; split is slice_rows sugar.
    basis = generate_ntt_primes(bits, 4, N)
    ms_rows = random_rows(basis, N, seed=200 + bits)
    tensor = backend.from_rows(ms_rows, basis)
    graph = OpGraph()
    src = graph.input("a")
    graph.output("out", graph.mod_switch_drop_last(src, 257))
    planned = backend.execute(graph.compile(), {"a": tensor})["out"]
    assert planned.to_rows() == backend.mod_switch_drop_last(tensor, 257).to_rows()

    graph = OpGraph()
    src = graph.input("a")
    first, second = graph.split(src, [1, 3])
    graph.output("first", first)
    graph.output("second", second)
    outs = backend.execute(graph.compile(), {"a": tensor})
    eager_first, eager_second = backend.split(tensor, [1, 3])
    assert outs["first"].to_rows() == eager_first.to_rows()
    assert outs["second"].to_rows() == eager_second.to_rows()


@pytest.mark.parametrize("bits", PRIME_BITS)
def test_multi_op_plan_bit_identical_across_backends(bits, backends):
    """A full product + mod-switch + digit plan agrees across all backends
    and performs zero boundary conversions."""
    primes = generate_ntt_primes(bits, 4, N)
    rows_a = random_rows(primes, N, seed=7 + bits)
    rows_b = random_rows(primes, N, seed=8 + bits)
    graph = OpGraph()
    a = graph.input("a")
    b = graph.input("b")
    fwd = graph.forward_ntt(graph.concat([a, b]))
    fa, fb = graph.split(fwd, [4, 4])
    coeff = graph.inverse_ntt(graph.mul(fa, fb))
    graph.output("switched", graph.mod_switch_drop_last(coeff, 257))
    graph.output("digit", graph.digit_broadcast(coeff, 2))
    plan = graph.compile()

    results = {}
    for name, backend in backends.items():
        ta = backend.from_rows(rows_a, primes)
        tb = backend.from_rows(rows_b, primes)
        before = backend.conversion_count
        outs = backend.execute(plan, {"a": ta, "b": tb})
        if bits == 30:
            assert backend.conversion_count == before, name
        results[name] = {key: value.to_rows() for key, value in outs.items()}
    assert results["scalar"] == results["numpy"] == results["parallel"]


def test_plan_execution_rejects_foreign_and_missing_inputs(backends):
    primes = generate_ntt_primes(30, 2, N)
    rows = random_rows(primes, N, seed=3)
    plan = one_op_plan(lambda g, a, b: g.add(a, b))
    numpy_backend = backends["numpy"]
    scalar_backend = backends["scalar"]
    tensor = numpy_backend.from_rows(rows, primes)
    with pytest.raises(ValueError, match="owned by backend"):
        scalar_backend.execute(plan, {"a": tensor, "b": tensor})
    with pytest.raises(ValueError, match="plan input 'b' was not bound"):
        numpy_backend.execute(plan, {"a": tensor})
    pooled = backends["parallel"]
    with pytest.raises(ValueError, match="owned by backend"):
        pooled.execute(plan, {"a": tensor, "b": tensor})
    own = pooled.from_rows(rows, primes)
    with pytest.raises(ValueError, match="plan input 'b' was not bound"):
        pooled.execute(plan, {"a": own})


# ------------------------------------------------------------- IR validation


def test_graph_builder_validates_structure():
    graph = OpGraph()
    a = graph.input("a")
    with pytest.raises(ValueError, match="duplicate plan input"):
        graph.input("a")
    with pytest.raises(ValueError, match="not the index of an existing node"):
        graph.forward_ntt(99)
    with pytest.raises(ValueError, match="empty value sequence"):
        graph.concat([])
    with pytest.raises(ValueError, match="invalid slice bounds"):
        graph.slice_rows(a, 3, 1)
    with pytest.raises(ValueError, match="at least one output"):
        graph.compile()
    graph.output("x", a)
    with pytest.raises(ValueError, match="duplicate plan output"):
        graph.output("x", a)
    plan = graph.compile()
    assert plan.input_names == ("a",)
    assert plan.output_names == ("x",)
    assert len(plan) == 1
    assert hash(plan) == hash(plan)


def test_infer_primes_mirrors_eager_validation():
    graph = OpGraph()
    a = graph.input("a")
    b = graph.input("b")
    graph.output("x", graph.add(a, b))
    plan = graph.compile()
    with pytest.raises(ValueError, match="prime mismatch"):
        ops.infer_primes(plan, {"a": (17, 17), "b": (17, 97)})
    inferred = ops.infer_primes(plan, {"a": (17, 97), "b": (17, 97)})
    assert inferred[-1] == (17, 97)

    graph = OpGraph()
    a = graph.input("a")
    graph.output("x", graph.mod_switch_drop_last(a, 5))
    with pytest.raises(ValueError, match="below a single prime"):
        ops.infer_primes(graph.compile(), {"a": (17,)})

    graph = OpGraph()
    a = graph.input("a")
    graph.output("x", graph.digit_broadcast(a, 5))
    with pytest.raises(ValueError, match="digit index 5 out of range"):
        ops.infer_primes(graph.compile(), {"a": (17, 97)})


def test_ir_edge_cases_from_rewritten_plans(backends):
    """Shapes an optimiser pass could (buggily) produce must fail in static
    validation — or, when legal, execute cleanly — on every backend.

    ``ops.Plan`` is a plain frozen dataclass, so a rewrite can construct
    nodes the :class:`OpGraph` builder would have rejected; ``infer_primes``
    (and through it ``interpret`` and the parallel scheduler) is the
    backstop."""
    # Empty concat: builder rejects it, a hand-rolled Plan must die in
    # validation on every execution path, before any backend work.
    empty_concat = ops.Plan(
        (ops.Input("a"), ops.Concat(())), (("out", 1),)
    )
    primes = generate_ntt_primes(30, 2, N)
    with pytest.raises(ValueError, match="empty value sequence"):
        ops.infer_primes(empty_concat, {"a": tuple(primes)})
    for backend in backends.values():
        a = backend.from_rows(random_rows(primes, N, seed=3), primes)
        with pytest.raises(ValueError, match="empty value sequence"):
            backend.execute(empty_concat, {"a": a})

    # Slice out of range after (a buggy) elimination shrank its source.
    bad_slice = ops.Plan(
        (ops.Input("a"), ops.SliceRows(0, 1, 5)), (("out", 1),)
    )
    with pytest.raises(ValueError, match="out of range"):
        ops.infer_primes(bad_slice, {"a": tuple(primes)})
    for backend in backends.values():
        a = backend.from_rows(random_rows(primes, N, seed=3), primes)
        with pytest.raises(ValueError, match="out of range"):
            backend.execute(bad_slice, {"a": a})

    # Copy chains are legal (fold_structure collapses them; a partial fold
    # may leave a chain) and must execute to the same rows.
    chain = ops.Plan(
        (ops.Input("a"), ops.Copy(0), ops.Copy(1), ops.Copy(2)),
        (("out", 3),),
    )
    for backend in backends.values():
        rows = random_rows(primes, N, seed=5)
        a = backend.from_rows(rows, primes)
        assert backend.execute(chain, {"a": a})["out"].to_rows() == rows

    # Two outputs referencing the same node: CSE merges output expressions
    # deliberately; both names must resolve (aliased handles are fine for
    # reads).
    aliased = ops.Plan(
        (ops.Input("a"), ops.Neg(0)), (("x", 1), ("y", 1))
    )
    for backend in backends.values():
        rows = random_rows(primes, N, seed=7)
        a = backend.from_rows(rows, primes)
        out = backend.execute(aliased, {"a": a})
        assert out["x"].to_rows() == out["y"].to_rows()


def test_unknown_name_errors_list_plan_nodes_and_flags():
    with pytest.raises(KeyError) as backend_error:
        get_backend("no-such-backend")
    with pytest.raises(KeyError) as engine_error:
        get_engine("no-such-engine")
    for excinfo in (backend_error, engine_error):
        message = str(excinfo.value)
        for node in ("forward_ntt", "digit_broadcast", "mod_switch_drop_last"):
            assert node in message
    assert "REPRO_BACKEND" in str(backend_error.value)
    assert "REPRO_SHARDS" in str(backend_error.value)


# ------------------------------------------------------- fused scheduling


def test_split_stages_cuts_at_cross_row_intermediates():
    graph = OpGraph()
    a = graph.input("a")
    # Cross-row read of an *input* needs no cut...
    d0 = graph.digit_broadcast(a, 0)
    # ...but a cross-row read of an intermediate does.
    f = graph.forward_ntt(d0)
    inv = graph.inverse_ntt(f)
    d1 = graph.digit_broadcast(inv, 1)
    graph.output("x", d1)
    plan = graph.compile()
    stages = ops.split_stages(plan)
    assert len(stages) == 2
    assert stages[0] == [1, 2, 3]  # digit(input), forward, inverse
    assert stages[1] == [4]  # digit(intermediate) after the barrier
    outs = ops.stage_outputs(plan, stages)
    assert outs[0] == [3]  # only the value the next stage reads materialises
    assert outs[1] == [4]


def test_split_stages_cuts_independent_chains_by_dependency_level():
    """Two independent forward -> digit chains, emitted one after the other,
    share both stages: each digit waits only for its own transform."""
    graph = OpGraph()
    a = graph.input("a")
    b = graph.input("b")
    digit_a = graph.digit_broadcast(graph.forward_ntt(a), 0)
    digit_b = graph.digit_broadcast(graph.forward_ntt(b), 0)
    graph.output("x", digit_a)
    graph.output("y", digit_b)
    plan = graph.compile()
    stages = ops.split_stages(plan)
    assert stages == [[2, 4], [3, 5]]  # each stage in plan order
    assert ops.stage_outputs(plan, stages) == [[2, 4], [3, 5]]


def test_shard_stage_aligns_concat_split_chains():
    graph = OpGraph()
    a = graph.input("a")
    b = graph.input("b")
    fwd = graph.forward_ntt(graph.concat([a, b]))
    fa, fb = graph.split(fwd, [3, 3])
    graph.output("x", graph.mul(fa, fb))
    plan = graph.compile()
    primes = ops.infer_primes(plan, {"a": (17,) * 3, "b": (17,) * 3})
    [stage] = ops.split_stages(plan)
    schedule = ops.shard_stage(plan, stage, primes, {0, 1}, 2)
    assert schedule is not None
    # Worker 0 owns rows 0:2 of each 3-row input; through the concat its
    # share of the 6-row batch is the union {0:2, 3:5}; the split pieces
    # re-align with the inputs, so the final mul pairs cleanly.
    assert schedule[0][2] == schedule[0][3] == ((0, 2), (3, 5))  # concat, fwd
    assert schedule[0][4] == schedule[0][5] == ((0, 2),)  # the split pieces
    assert schedule[1][6] == ((2, 3),)  # worker 1's share of the product


def test_shard_stage_reports_misalignment():
    graph = OpGraph()
    a = graph.input("a")
    left = graph.slice_rows(a, 0, 2)
    right = graph.slice_rows(a, 1, 3)
    graph.output("x", graph.add(left, right))
    plan = graph.compile()
    primes = ops.infer_primes(plan, {"a": (17, 17, 17)})
    [stage] = ops.split_stages(plan)
    assert ops.shard_stage(plan, stage, primes, {0}, 2) is None


@pytest.mark.parametrize("rows, shares", [(3, [1, 1]), (4, [2, 1]), (7, [3, 3])])
def test_shard_stage_balances_the_modulus_switch(rows, shares):
    """The switched value's rows get their own canonical partition, so the
    dropped row is not taken from the last worker's share."""
    graph = OpGraph()
    graph.output("x", graph.mod_switch_drop_last(graph.input("a"), 17))
    plan = graph.compile()
    primes = ops.infer_primes(plan, {"a": tuple(generate_ntt_primes(30, rows, N))})
    [stage] = ops.split_stages(plan)
    schedule = ops.shard_stage(plan, stage, primes, {0}, 2)
    assert [worker[1] for worker in schedule] == ops._partition(rows - 1, 2)
    assert [sum(hi - lo for lo, hi in worker[1]) for worker in schedule] == shares


def test_split_stages_replicates_an_inverse_transform_of_inputs():
    """A cross-row node reads an inverse transform of a plan input in the
    same stage: every worker holds all rows of that replicated value.  A
    value any other node reads is not replicated, so its cross-row reader
    still waits a stage."""
    graph = OpGraph()
    a = graph.input("a")
    inv = graph.inverse_ntt(a)
    graph.output("x", graph.forward_ntt(graph.digit_broadcast(inv, 1)))
    plan = graph.compile()
    assert ops.replicated_values(plan) == {1}
    assert ops.split_stages(plan) == [[1, 2, 3]]
    primes = ops.infer_primes(plan, {"a": (17,) * 3})
    schedule = ops.shard_stage(plan, [1, 2, 3], primes, {0}, 2)
    assert [worker[1] for worker in schedule] == [((0, 3),), ((0, 3),)]
    assert [worker[2] for worker in schedule] == ops._partition(3, 2)

    graph = OpGraph()
    inv = graph.inverse_ntt(graph.input("a"))
    graph.output("x", graph.digit_broadcast(inv, 1))
    graph.output("y", inv)
    plan = graph.compile()
    assert ops.replicated_values(plan) == frozenset()
    assert ops.split_stages(plan) == [[1], [2]]


def test_shard_stage_pairs_an_input_slice_with_a_produced_operand():
    """A slice of a materialised value is read straight from its rows, so a
    pointwise pair gives it the produced operand's ownership — here the
    modulus switch's kept rows and its transformed correction."""
    primes = tuple(generate_ntt_primes(30, 3, N))
    rows = random_rows(primes, N, seed=13)
    graph = OpGraph()
    a = graph.input("a")
    dropped = graph.inverse_ntt(graph.slice_rows(a, 2, 3))
    correction = graph.mod_switch_correction(dropped, 17, primes[:2])
    kept = graph.slice_rows(a, 0, 2)
    graph.output("x", graph.add(kept, graph.forward_ntt(correction)))
    plan = graph.compile()
    assert ops.replicated_values(plan) == {1, 2}
    [stage] = ops.split_stages(plan)
    schedule = ops.shard_stage(
        plan, stage, ops.infer_primes(plan, {"a": primes}), {0}, 2
    )
    # The kept slice (value 4) takes the transformed correction's (5) rows.
    assert [worker[4] for worker in schedule] == ops._partition(2, 2)
    assert [worker[5] for worker in schedule] == ops._partition(2, 2)
    scalar = ScalarBackend()
    expected = scalar.execute(plan, {"a": scalar.from_rows(rows, primes)})["x"]
    pooled = forced_parallel()
    try:
        got = pooled.execute(plan, {"a": pooled.from_rows(rows, primes)})["x"]
        assert got.to_rows() == expected.to_rows()
        assert pooled.dispatch_count == 1
    finally:
        pooled.close()


def test_parallel_falls_back_for_misaligned_plans():
    p = generate_ntt_primes(30, 1, N)[0]
    primes = [p, p, p]
    rows = random_rows(primes, N, seed=11)
    graph = OpGraph()
    a = graph.input("a")
    graph.output("x", graph.add(graph.slice_rows(a, 0, 2), graph.slice_rows(a, 1, 3)))
    plan = graph.compile()
    scalar = ScalarBackend()
    expected = scalar.execute(plan, {"a": scalar.from_rows(rows, primes)})["x"].to_rows()
    pooled = forced_parallel()
    try:
        got = pooled.execute(plan, {"a": pooled.from_rows(rows, primes)})["x"]
        assert got.to_rows() == expected
    finally:
        pooled.close()


def test_parallel_promotes_heap_inputs_and_handles_single_shard():
    primes = generate_ntt_primes(30, 2, N)
    batch = [p for p in primes for _ in range(2)]
    rows = random_rows(batch, N, seed=12)
    plan = one_op_plan(lambda g, a, b: g.inverse_ntt(g.forward_ntt(a)))
    reference = NumpyBackend()
    expected = reference.execute(
        plan, {"a": reference.from_rows(rows, batch), "b": reference.from_rows(rows, batch)}
    )["out"].to_rows()

    # Heap (sub-crossover) inputs are promoted into shared memory for the
    # fused dispatch; the round trip is still bit-exact.
    pooled = ParallelBackend(shards=2, transform_threshold=1 << 40, pointwise_threshold=1 << 40)
    try:
        heap_a = pooled.from_rows(rows, batch)
        assert heap_a.segment is None
        pooled._transform_threshold = 1  # force dispatch with heap inputs
        before = pooled.dispatch_count
        got = pooled.execute(plan, {"a": heap_a, "b": heap_a})["out"]
        assert got.to_rows() == expected
        assert pooled.dispatch_count == before + 1
    finally:
        pooled.close()

    # A single-shard backend interprets eagerly (nothing to fuse across).
    single = ParallelBackend(shards=1, transform_threshold=1, pointwise_threshold=1)
    try:
        got = single.execute(
            plan,
            {"a": single.from_rows(rows, batch), "b": single.from_rows(rows, batch)},
        )["out"]
        assert got.to_rows() == expected
        assert single.dispatch_count == 0
    finally:
        single.close()


def test_parallel_inline_plan_below_crossover_counts_no_dispatch():
    primes = generate_ntt_primes(30, 2, N)
    rows = random_rows(primes, N, seed=13)
    plan = one_op_plan(lambda g, a, b: g.mul(g.forward_ntt(a), g.forward_ntt(b)))
    backend = ParallelBackend(shards=2)  # default thresholds: toy shapes inline
    try:
        a = backend.from_rows(rows, primes)
        b = backend.from_rows(rows, primes)
        before = backend.conversion_count
        out = backend.execute(plan, {"a": a, "b": b})["out"]
        assert backend.dispatch_count == 0
        assert not backend.pool_running
        assert backend.conversion_count == before
        reference = NumpyBackend()
        expected = reference.execute(
            plan,
            {"a": reference.from_rows(rows, primes), "b": reference.from_rows(rows, primes)},
        )["out"]
        assert out.to_rows() == expected.to_rows()
    finally:
        backend.close()
