"""Seeded differential fuzzing of lowered ciphertext pipelines.

Each case draws a random pipeline over ``multiply``, ``square``,
``relinearize``, ``mod_switch``, ``add``, ``sub``, ``add_plain`` and
``mul_plain``, on ciphertexts and plaintexts that rest in either domain,
at one of three word sizes.  The pipeline runs as one plan on the scalar
and numpy backends and on a 2-shard pool forced to dispatch every stage
(each pooled plan twice, so the warm variant, the pooled constants and the
kept stage storage run too), each under a random subset of the optimiser
passes in a random order.  Every result must equal, bit for bit and
domain for domain, the scalar backend's raw plan (``passes="none"``), and
the raw result must decrypt to the slot-wise plaintext arithmetic
whenever its noise budget is positive (a spent budget is noise, not a
miscompile).  Only the standard library draws the cases.
"""

from __future__ import annotations

import random

import pytest

from repro.backends.parallel import ParallelBackend
from repro.compiler import available_passes
from repro.he import Ciphertext, HeContext, HEParams

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
