"""Seeded differential fuzzing of lowered ciphertext pipelines.

Each case draws a random pipeline over ``multiply``, ``square``,
``relinearize``, ``mod_switch``, ``add``, ``sub``, ``add_plain`` and
``mul_plain``, on ciphertexts and plaintexts that rest in either domain,
at one of three word sizes.  The pipeline runs as one plan on the scalar
and numpy backends and on a 2-shard pool forced to dispatch every stage
(each pooled plan twice, so the kept stage storage and the inputs moved
into shared memory run too), each under a random subset of the optimiser
passes in a random order.  Every result must equal, bit for bit and
domain for domain, the scalar backend's raw plan (``passes="none"``), and
the raw result must decrypt to the slot-wise plaintext arithmetic
whenever its noise budget is positive (a spent budget is noise, not a
miscompile).  Only the standard library draws the cases.

Every raw plan an evaluator emits in this module, and the chain's and the
bootstrap circuit's, must hold no transform round trip and no linear node
over inverse-transform rows: the optimiser has no pass that would remove
either.
"""

from __future__ import annotations

import random

import pytest

from repro.backends import ops
from repro.backends.parallel import ParallelBackend
from repro.compiler import available_passes
from repro.he import Ciphertext, Evaluator, HeContext, HEParams, bootstrap_circuit

SEED = 8117
CASES = 16
BITS = (30, 50, 62)
N = 64
T = 257
PRIMES = 4
LEAVES = 3
MAX_STEPS = 6
#: Ops drawn per step; the switch and relinearisation draw more often, as
#: they are often not applicable (no size-3 value at the full level, the
#: last prime).
KINDS = (
    "multiply", "square", "relinearize", "relinearize",
    "mod_switch", "mod_switch", "add", "sub", "add_plain", "mul_plain",
)


def params_for(bits: int) -> HEParams:
    return HEParams(n=N, plaintext_modulus=T, prime_bits=bits, prime_count=PRIMES)


def slots(rng: random.Random) -> list[int]:
    return [rng.randrange(T) for _ in range(N)]


class Case:
    """One drawn pipeline: inputs, steps and the expected slots per value.

    ``steps`` are ``(kind, operand positions, plaintext index)``; value
    ``i`` of a case is leaf ``i`` for ``i < LEAVES`` and step
    ``i - LEAVES`` after.  The generator mirrors the emitters' domain rules:
    ``add``/``sub`` of values whose components rest in both domains yields
    NTT-domain components.
    """

    def __init__(self, index: int) -> None:
        rng = random.Random("%d/%d" % (SEED, index))
        self.bits = BITS[index % len(BITS)]
        self.encrypt_seed = rng.randrange(1 << 30)
        self.leaf_slots = [slots(rng) for _ in range(LEAVES)]
        self.leaf_ntt = [rng.random() < 0.5 for _ in range(LEAVES)]
        self.plains: list[tuple[list[int], int, bool]] = []
        self.steps: list[tuple[str, tuple[int, ...], int | None]] = []
        # Per value: (slots, size, level, component domains as "ntt"/"coeff").
        values = [
            (self.leaf_slots[i], 2, 0, ("ntt" if self.leaf_ntt[i] else "coeff",) * 2)
            for i in range(LEAVES)
        ]
        products = 0
        for _ in range(rng.randint(2, MAX_STEPS)):
            kind, operands, plain, value = self._draw(rng, values, products)
            products += kind in ("multiply", "square")
            self.steps.append((kind, operands, plain))
            values.append(value)
        self.values = values
        self.outputs = sorted({len(values) - 1, rng.randrange(LEAVES, len(values))})

    def _draw(self, rng, values, products):
        while True:
            kind = rng.choice(KINDS)
            i = rng.randrange(len(values))
            s, size, level, domains = values[i]
            if kind in ("multiply", "square"):
                if size != 2 or products >= 2:
                    continue
                j = i
                if kind == "multiply":
                    matches = [k for k, v in enumerate(values) if v[1] == 2 and v[2] == level]
                    j = rng.choice(matches)
                return kind, (i, j), None, (
                    [x * y % T for x, y in zip(s, values[j][0])], 3, level, ("ntt",) * 3
                )
            if kind == "relinearize":
                # The key covers the full basis: size-3 values at level 0.
                eligible = [k for k, v in enumerate(values) if v[1] == 3 and v[2] == 0]
                if not eligible:
                    continue
                i = rng.choice(eligible)
                return kind, (i,), None, (values[i][0], 2, 0, ("ntt",) * 2)
            if kind == "mod_switch":
                if level + 1 >= PRIMES:
                    continue
                return kind, (i,), None, (s, size, level + 1, domains)
            if kind in ("add", "sub"):
                matches = [k for k, v in enumerate(values) if v[2] == level]
                j = rng.choice(matches)
                other = values[j]
                sign = 1 if kind == "add" else -1
                longer = domains if size >= other[1] else other[3]
                if len(set(domains + other[3])) > 1:
                    longer = ("ntt",) * len(longer)
                return kind, (i, j), None, (
                    [(x + sign * y) % T for x, y in zip(s, other[0])],
                    max(size, other[1]), level, longer,
                )
            # Plaintext operands: a fresh slot vector at the value's level,
            # resting in either domain.
            plain_slots = slots(rng)
            plain_ntt = rng.random() < 0.5
            self.plains.append((plain_slots, level, plain_ntt))
            plain = len(self.plains) - 1
            if kind == "mul_plain":
                return kind, (i,), plain, (
                    [x * y % T for x, y in zip(s, plain_slots)], size, level, ("ntt",) * size
                )
            mixed = (domains[0] == "ntt") != plain_ntt
            return kind, (i,), plain, (
                [(x + y) % T for x, y in zip(s, plain_slots)], size, level,
                ("ntt",) * size if mixed else domains,
            )


def build_inputs(case: Case, context: HeContext):
    """The case's leaf ciphertexts and plaintexts, resident on ``context``."""
    encoder = context.encoder()
    encryptor = context.encryptor(seed=case.encrypt_seed)
    leaves = []
    for values, ntt in zip(case.leaf_slots, case.leaf_ntt):
        ct = encryptor.encrypt(encoder.encode(values))
        if not ntt:
            ct = Ciphertext(
                polys=[poly.to_coefficient() for poly in ct.polys], params=ct.params
            )
        leaves.append(ct)
    plains = []
    for values, level, ntt in case.plains:
        plain = encoder.encode(values)
        for _ in range(level):
            plain = plain.drop_last_prime()
        plains.append(plain.to_ntt() if ntt else plain)
    return leaves, plains


def build_runner(case: Case, context: HeContext, passes):
    """A callable running the case's pipeline as one plan on ``context``."""
    leaves, plains = build_inputs(case, context)
    pipe = context.pipeline()
    pipe.evaluator = context.evaluator(passes=passes)
    rk = context.relinearization_key()
    exprs = [pipe.load(ct) for ct in leaves]
    for kind, operands, plain in case.steps:
        x = exprs[operands[0]]
        if kind == "multiply":
            expr = x * exprs[operands[1]]
        elif kind == "add":
            expr = x + exprs[operands[1]]
        elif kind == "sub":
            expr = x - exprs[operands[1]]
        elif kind == "square":
            expr = x.square()
        elif kind == "relinearize":
            expr = x.relinearize(rk)
        elif kind == "mod_switch":
            expr = x.mod_switch()
        elif kind == "add_plain":
            expr = x.add_plain(plains[plain])
        else:
            expr = x.mul_plain(plains[plain])
        exprs.append(expr)
    outputs = [exprs[index] for index in case.outputs]
    return lambda: pipe.run_many(outputs)


def fingerprint(results: list[Ciphertext]) -> list:
    return [
        (
            ct.level,
            [(poly.domain, poly.basis.primes, poly.to_coeff_lists()) for poly in ct.polys],
        )
        for ct in results
    ]


# ------------------------------------------------------ no round trips
#
# Ciphertexts rest in the NTT domain and no emitter ends an op in an
# inverse transform, so the optimiser keeps no pass that cancels transform
# pairs or moves inverse transforms through linear nodes.  This static
# check pins that: it reads rows through Copy, SliceRows and Concat.

TRANSFORMS = (ops.ForwardNtt, ops.InverseNtt)
LINEAR = (ops.Add, ops.Sub, ops.Neg, ops.ScalarMul)


def round_trips(plan: ops.Plan, input_primes) -> list[int]:
    """Nodes that transform rows of the opposite transform, or that apply a
    linear node to operands made only of inverse-transform rows."""
    counts = [len(primes) for primes in ops.infer_primes(plan, input_primes)]
    origins: list[list] = []  # per value, the transform each row came from
    found = []
    for index, node in enumerate(plan.nodes):
        if isinstance(node, ops.Copy):
            origins.append(origins[node.src])
        elif isinstance(node, ops.SliceRows):
            origins.append(origins[node.src][node.start:node.stop])
        elif isinstance(node, ops.Concat):
            origins.append([row for src in node.srcs for row in origins[src]])
        else:
            kind = type(node) if isinstance(node, TRANSFORMS) else None
            origins.append([kind] * counts[index])
        if isinstance(node, TRANSFORMS):
            opposite = TRANSFORMS[isinstance(node, ops.ForwardNtt)]
            if opposite in origins[node.src]:
                found.append(index)
        elif isinstance(node, LINEAR) and all(
            set(origins[op]) == {ops.InverseNtt} for op in node.operands()
        ):
            found.append(index)
    return found


@pytest.fixture(autouse=True)
def raw_plans(monkeypatch):
    """Every plan an evaluator emits in the test, with its input primes.

    Each is checked when the test ends.
    """
    plans = []
    run_plan = Evaluator._run_plan

    def recording(self, key, build, bindings):
        def build_and_record():
            built = build()
            plan = built[0]
            plans.append((plan, {name: bindings[name].primes for name in plan.input_names}))
            return built

        return run_plan(self, key, build_and_record, bindings)

    monkeypatch.setattr(Evaluator, "_run_plan", recording)
    yield plans
    for plan, primes in plans:
        assert not round_trips(plan, primes), plan


def test_round_trip_check_flags_a_transform_of_opposite_rows():
    # inverse(slice(forward(x))): a round trip behind the batching plumbing.
    g = ops.OpGraph()
    x = g.input("x")
    g.output("out", g.inverse_ntt(g.slice_rows(g.forward_ntt(x), 1, 3)))
    plan = g.compile()
    assert round_trips(plan, {"x": (17, 97, 113)}) == [3]


@pytest.mark.parametrize("kind", ["add", "sub", "neg", "scalar_mul"])
def test_round_trip_check_flags_a_linear_node_over_inverse_rows(kind):
    g = ops.OpGraph()
    a, b = g.inverse_ntt(g.input("a")), g.inverse_ntt(g.input("b"))
    value = {
        "add": lambda: g.add(a, b),
        "sub": lambda: g.sub(a, b),
        "neg": lambda: g.neg(a),
        "scalar_mul": lambda: g.scalar_mul(a, 12345),
    }[kind]()
    g.output("out", value)
    plan = g.compile()
    assert round_trips(plan, {"a": (17, 97), "b": (17, 97)}) == [value]


@pytest.mark.parametrize("bits", [30, 60])
def test_chain_and_bootstrap_circuit_plans_hold_no_round_trip(bits, raw_plans):
    context = HeContext.create(params_for(bits), backend="numpy", seed=7)
    encryptor, encoder = context.encryptor(seed=11), context.encoder()
    a, b = (encryptor.encrypt(encoder.encode(slots(random.Random(v)))) for v in "ab")
    pipe = context.pipeline()
    pipe.evaluator = context.evaluator(passes="none")
    rk = context.relinearization_key()
    (pipe.load(a) * pipe.load(b)).relinearize(rk).mod_switch().run()
    bootstrap_circuit(context, pipe, a, seed=5, c2s_terms=4, eval_depth=1, s2c_terms=4).run()
    assert len(raw_plans) == 2


@pytest.fixture(scope="module")
def pool():
    backend = ParallelBackend(shards=2, transform_threshold=1, pointwise_threshold=1)
    yield backend
    backend.close()


@pytest.mark.parametrize("index", range(CASES))
def test_random_pipeline_matches_the_raw_scalar_plan(index, pool):
    case = Case(index)
    params = params_for(case.bits)
    rng = random.Random("%d/passes/%d" % (SEED, index))
    names = list(available_passes())

    oracle = HeContext.create(params, backend="scalar", seed=7)
    expected = build_runner(case, oracle, "none")()
    want = fingerprint(expected)

    for backend in ("scalar", "numpy", pool):
        passes = rng.sample(names, rng.randint(0, len(names))) or "none"
        context = HeContext.create(params, backend=backend, seed=7)
        run = build_runner(case, context, passes)
        assert fingerprint(run()) == want, (backend, passes)
        if backend is pool:
            dispatches = pool.dispatch_count
            assert fingerprint(run()) == want, ("pool, second run", passes)
            assert pool.dispatch_count > dispatches

    decryptor = oracle.decryptor()
    encoder = oracle.encoder()
    for result, position in zip(expected, case.outputs):
        if decryptor.noise_budget_bits(result) > 0:
            decoded = encoder.decode(decryptor.decrypt(result))
            assert decoded == case.values[position][0], position


# ----------------------------------------------------- sums of products
#
# Each case draws 2-8 products (``multiply`` and ``mul_plain`` results over
# shared leaves, so products share factors) and adds them into one or two
# sums: the first sum holds every product, some of them twice, the second a
# few of them again, and a product may also be returned itself.  So the
# ``fuse_inner_products`` pass meets shared, repeated and multiply-read
# products under random pass subsets, and every backend must still match
# the scalar raw plan bit for bit.

SUM_CASES = 8


class SumCase:
    """One drawn sum of products: leaves, plaintexts, products and sums."""

    def __init__(self, index: int) -> None:
        rng = random.Random("%d/sums/%d" % (SEED, index))
        self.bits = BITS[index % len(BITS)]
        self.encrypt_seed = rng.randrange(1 << 30)
        self.leaf_slots = [slots(rng) for _ in range(LEAVES)]
        self.leaf_ntt = [rng.random() < 0.5 for _ in range(LEAVES)]
        self.plain_slots = [slots(rng) for _ in range(2)]
        self.plain_ntt = [rng.random() < 0.5 for _ in range(2)]
        #: ``(kind, leaf, leaf or plaintext index)``.
        self.products = [
            (kind, rng.randrange(LEAVES), rng.randrange(LEAVES if kind == "multiply" else 2))
            for kind in (
                rng.choice(("multiply", "mul_plain")) for _ in range(rng.randint(2, 8))
            )
        ]
        everything = list(range(len(self.products)))
        everything += rng.sample(everything, rng.randint(0, len(everything)))
        rng.shuffle(everything)
        self.sums = [everything]
        if rng.random() < 0.5:
            self.sums.append(rng.sample(range(len(self.products)), 2))
        self.returned = rng.randrange(len(self.products)) if rng.random() < 0.5 else None

    def product_slots(self, index: int) -> list[int]:
        kind, i, j = self.products[index]
        other = self.leaf_slots[j] if kind == "multiply" else self.plain_slots[j]
        return [x * y % T for x, y in zip(self.leaf_slots[i], other)]

    def expected_slots(self) -> list[list[int]]:
        values = [
            [sum(column) % T for column in zip(*map(self.product_slots, terms))]
            for terms in self.sums
        ]
        if self.returned is not None:
            values.append(self.product_slots(self.returned))
        return values


def build_sum_runner(case: SumCase, context: HeContext, passes):
    encoder = context.encoder()
    encryptor = context.encryptor(seed=case.encrypt_seed)
    leaves = []
    for values, ntt in zip(case.leaf_slots, case.leaf_ntt):
        ct = encryptor.encrypt(encoder.encode(values))
        if not ntt:
            ct = Ciphertext(
                polys=[poly.to_coefficient() for poly in ct.polys], params=ct.params
            )
        leaves.append(ct)
    plains = [
        encoder.encode(values).to_ntt() if ntt else encoder.encode(values)
        for values, ntt in zip(case.plain_slots, case.plain_ntt)
    ]
    pipe = context.pipeline()
    pipe.evaluator = context.evaluator(passes=passes)
    exprs = [pipe.load(ct) for ct in leaves]
    products = [
        exprs[i] * exprs[j] if kind == "multiply" else exprs[i].mul_plain(plains[j])
        for kind, i, j in case.products
    ]
    outputs = []
    for terms in case.sums:
        total = products[terms[0]]
        for term in terms[1:]:
            total = total + products[term]
        outputs.append(total)
    if case.returned is not None:
        outputs.append(products[case.returned])
    return pipe, lambda: pipe.run_many(outputs)


@pytest.mark.parametrize("index", range(SUM_CASES))
def test_random_sums_of_products_match_the_raw_scalar_plan(index, pool):
    case = SumCase(index)
    params = params_for(case.bits)
    rng = random.Random("%d/sums/passes/%d" % (SEED, index))
    names = list(available_passes())

    oracle = HeContext.create(params, backend="scalar", seed=7)
    expected = build_sum_runner(case, oracle, "none")[1]()
    want = fingerprint(expected)

    for backend in ("scalar", "numpy", pool):
        passes = rng.sample(names, rng.randint(0, len(names))) or "none"
        if backend == "numpy":
            passes = "default"  # the full pipeline folds every sum
        context = HeContext.create(params, backend=backend, seed=7)
        pipe, run = build_sum_runner(case, context, passes)
        assert fingerprint(run()) == want, (backend, passes)
        if backend is pool:
            assert fingerprint(run()) == want, ("pool, second run", passes)
        if backend == "numpy":
            (plan, *_), = pipe.evaluator._plan_cache.values()
            assert any(node.kind == "inner_product" for node in plan.nodes)

    decryptor = oracle.decryptor()
    encoder = oracle.encoder()
    for result, values in zip(expected, case.expected_slots()):
        if decryptor.noise_budget_bits(result) > 0:
            assert encoder.decode(decryptor.decrypt(result)) == values
