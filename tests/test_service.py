"""Tests for the HE serving layer: tenants, batching, protocol, HTTP round trips."""

from __future__ import annotations

import asyncio
import io
import json
import os

import pytest

from repro.core.serialization import ciphertext_from_dict, ciphertext_to_dict
from repro.he import Ciphertext, HeContext
from repro.he.params import HEParams, toy_params
from repro.service import (
    AsyncServiceClient,
    ServerThread,
    ServiceClient,
    ServiceError,
    TenantCache,
    build_request,
    execute_group,
    jsonable,
    params_hash,
)
from repro.service.protocol import trace_sizes, validate_request
from repro.telemetry.metrics import MetricsRegistry

SEED = 424242


def _session(params=None, seed=SEED, backend=None):
    context = HeContext.create(params or toy_params(), seed=seed, backend=backend)
    return context, context.encryptor(), context.encoder()


def _polys(ct):
    return [poly.to_coeff_lists() for poly in ct.polys]


# -- params hashing / tenant cache -----------------------------------------------------


def test_params_hash_is_stable_and_discriminating():
    params = toy_params()
    assert params_hash(params, 1) == params_hash(toy_params(), 1)
    assert params_hash(params, 1) != params_hash(params, 2)
    different = HEParams(
        n=params.n,
        plaintext_modulus=params.plaintext_modulus,
        prime_bits=params.prime_bits,
        prime_count=params.prime_count + 1,
    )
    assert params_hash(params, 1) != params_hash(different, 1)


def test_tenant_cache_returns_cached_context_for_same_hash():
    root = MetricsRegistry()
    cache = TenantCache(root)
    try:
        first = cache.get(toy_params(), 7)
        again = cache.get(toy_params(), 7)
        assert again is first
        assert again.context is first.context
        assert len(cache.tenants()) == 1
    finally:
        cache.close()


def test_tenant_cache_isolates_different_params_and_seeds():
    root = MetricsRegistry()
    cache = TenantCache(root)
    try:
        a = cache.get(toy_params(), 7)
        b = cache.get(toy_params(), 8)
        c = cache.get(
            HEParams(n=64, plaintext_modulus=257, prime_bits=40, prime_count=2), 7
        )
        assert len({a.key, b.key, c.key}) == 3
        assert a.context is not b.context
        # Dedicated backend instances per tenant — never a shared singleton.
        assert a.context.backend is not b.context.backend
        assert a.context.backend is not c.context.backend
    finally:
        cache.close()


def test_tenant_metrics_do_not_bleed_but_aggregate_into_root():
    root = MetricsRegistry()
    cache = TenantCache(root)
    try:
        busy = cache.get(toy_params(), 7)
        idle = cache.get(toy_params(), 8)
        enc = busy.context.encryptor()
        encoder = busy.context.encoder()
        ct = enc.encrypt(encoder.encode([1, 2, 3]))
        execute_group(busy, ("multiply",), [[ct, ct]])

        assert busy.metrics()["plan.compiled"] == 1
        assert idle.metrics()["plan.compiled"] == 0  # no bleed across tenants
        assert root.value("plan.compiled") == 1  # but the root aggregates
    finally:
        cache.close()


# -- protocol validation ---------------------------------------------------------------


def test_validate_request_rejections():
    params = toy_params()
    context, enc, encoder = _session(params)
    ct = ciphertext_to_dict(enc.encrypt(encoder.encode([1])))
    good = build_request(params, ["multiply"], [ct, ct], seed=SEED)
    validate_request(good)

    cases = [
        (dict(good, format_version=99), "format_version"),
        (dict(good, params="nope"), "params"),
        (dict(good, params=dict(good["params"], extra=1)), "unknown params"),
        (dict(good, seed="x"), "seed"),
        (dict(good, ops=[]), "ops"),
        (dict(good, ops=["fly"]), "unknown first op"),
        (dict(good, ops=["multiply", "multiply"]), "unknown chain op"),
        (dict(good, ciphertexts=[ct]), "takes 2"),
        (dict(good, ciphertexts=[ct, {"kind": "x"}]), "not a serialised"),
    ]
    for payload, fragment in cases:
        with pytest.raises(ServiceError) as err:
            validate_request(payload)
        assert err.value.status == 400
        assert fragment in err.value.message

    # Ciphertexts under different parameters than the request's.
    other = HEParams(n=64, plaintext_modulus=257, prime_bits=40, prime_count=2)
    mismatch = build_request(other, ["multiply"], [ct, ct], seed=SEED)
    with pytest.raises(ServiceError, match="different parameters"):
        validate_request(mismatch)


def test_trace_sizes_models_every_chain():
    assert trace_sizes(("multiply",), [2, 2]) == [3]
    assert trace_sizes(("multiply", "relinearize", "mod_switch"), [2, 2]) == [3, 2, 2]
    assert trace_sizes(("square", "relinearize"), [2]) == [3, 2]
    assert trace_sizes(("add",), [2, 3]) == [3]
    assert trace_sizes(("negate", "negate"), [2]) == [2, 2]
    with pytest.raises(ValueError, match="relinearisation"):
        trace_sizes(("square", "relinearize"), [3])


def test_jsonable_flattens_tuple_keyed_gauges():
    snapshot = {"ntt.engine_choices": {(256, 30, 4): "high_radix"}, "n": 1}
    encoded = json.dumps(jsonable(snapshot))
    assert json.loads(encoded) == {
        "ntt.engine_choices": {"256,30,4": "high_radix"},
        "n": 1,
    }


# -- group execution == per-request execution ------------------------------------------

CHAINS = [
    ("multiply",),
    ("multiply", "relinearize"),
    ("multiply", "relinearize", "mod_switch"),
    ("multiply", "relinearize", "mod_switch", "negate"),
    ("square", "relinearize"),
    ("add",),
    ("sub", "mod_switch"),
    ("negate",),
]


def _reference(context, ops, args):
    ev = context.evaluator()
    first = ops[0]
    if first in ("multiply", "add", "sub"):
        result = getattr(ev, first)(args[0], args[1])
    elif first == "square":
        result = ev.square(args[0])
    else:
        result = ev.negate(args[0])
    for op in ops[1:]:
        if op == "relinearize":
            result = ev.relinearize(result, context.relinearization_key())
        elif op == "mod_switch":
            result = ev.mod_switch_to_next(result)
        else:
            result = ev.negate(result)
    return result


@pytest.mark.parametrize("ops", CHAINS, ids=["+".join(c) for c in CHAINS])
def test_execute_group_matches_per_request_evaluator(ops):
    from repro.service.protocol import FIRST_OPS

    root = MetricsRegistry()
    cache = TenantCache(root)
    try:
        tenant = cache.get(toy_params(), 5)
        enc = tenant.context.encryptor()
        encoder = tenant.context.encoder()
        arity = FIRST_OPS[ops[0]]
        requests = [
            [
                enc.encrypt(encoder.encode([r + 1, i + 2, 3]))
                for i in range(arity)
            ]
            for r in range(3)
        ]
        batched = execute_group(tenant, ops, requests)
        assert len(batched) == 3
        for request, got in zip(requests, batched):
            want = _reference(tenant.context, ops, request)
            assert got.level == want.level
            assert _polys(got) == _polys(want)
    finally:
        cache.close()


def test_execute_group_compiles_once_per_shape():
    root = MetricsRegistry()
    cache = TenantCache(root)
    try:
        tenant = cache.get(toy_params(), 5)
        enc = tenant.context.encryptor()
        encoder = tenant.context.encoder()

        def fresh_requests():
            return [
                [enc.encrypt(encoder.encode([r, 1])) for _ in range(2)]
                for r in range(4)
            ]

        execute_group(tenant, ("multiply", "relinearize"), fresh_requests())
        execute_group(tenant, ("multiply", "relinearize"), fresh_requests())
        snapshot = tenant.metrics()
        assert snapshot["plan.compiled"] == 1
        assert snapshot["plan.cache_hits"] == 1
    finally:
        cache.close()


def test_execute_group_width_adds_no_transforms_or_dispatches(monkeypatch):
    """Stage cuts by dependency level let ``batch_ntt`` merge the riders'
    transforms: at k = 1, 2 and 4 the group plan has the same transform
    nodes, and a warm run costs the same pool dispatches."""
    import repro.service.tenants as tenants_mod
    from repro.backends import ops as plan_ops
    from repro.backends.parallel import ParallelBackend

    monkeypatch.setattr(
        tenants_mod,
        "build_backend",
        lambda name: ParallelBackend(
            shards=2, transform_threshold=1, pointwise_threshold=1
        ),
    )
    params = HEParams(n=64, plaintext_modulus=17, prime_bits=30, prime_count=6)
    ops = ("multiply", "relinearize", "mod_switch")
    cache = TenantCache(MetricsRegistry(), backend="parallel")
    try:
        tenant = cache.get(params, 5)
        enc = tenant.context.encryptor()
        encoder = tenant.context.integer_encoder()
        requests = [
            [enc.encrypt(encoder.encode(r + 2)) for _ in range(2)] for r in range(4)
        ]
        plan_cache = tenant.pipeline.evaluator._plan_cache
        costs = {}
        for k in (1, 2, 4):
            execute_group(tenant, ops, requests[:k])  # first run: compiles the plan
            plan = list(plan_cache.values())[-1][0]
            transforms = sum(
                isinstance(node, (plan_ops.ForwardNtt, plan_ops.InverseNtt))
                for node in plan.nodes
            )
            before = tenant.metrics()
            execute_group(tenant, ops, requests[:k])
            diff = HeContext.metrics_diff(before, tenant.metrics())
            costs[k] = (transforms, diff["pool.dispatches"])
        assert costs[1] == costs[2] == costs[4] == (4, 3), costs
    finally:
        cache.close()


def test_execute_group_rejects_heterogeneous_batches():
    root = MetricsRegistry()
    cache = TenantCache(root)
    try:
        tenant = cache.get(toy_params(), 5)
        enc = tenant.context.encryptor()
        encoder = tenant.context.encoder()
        ev = tenant.context.evaluator()
        plain = enc.encrypt(encoder.encode([1]))
        widened = ev.multiply(plain, plain)  # size 3
        with pytest.raises(ValueError, match="different shapes"):
            execute_group(tenant, ("negate",), [[plain], [widened]])
    finally:
        cache.close()


# -- HTTP round trips ------------------------------------------------------------------


@pytest.mark.parametrize("backend", ["scalar", "numpy", "parallel"])
def test_http_compute_is_bit_for_bit_with_local_execution(backend):
    params = toy_params()
    local, enc, encoder = _session(params)
    ct_a = enc.encrypt(encoder.encode([1, 2, 3, 4]))
    ct_b = enc.encrypt(encoder.encode([5, 6, 7, 8]))
    ops = ["multiply", "relinearize", "mod_switch"]

    with ServerThread(backend=backend, shards=2, batch_window=0.001) as server:
        client = ServiceClient("127.0.0.1", server.port)
        assert client.health()["status"] == "ok"
        got = client.compute(params, ops, [ct_a, ct_b], seed=SEED)

    want = _reference(local, tuple(ops), [ct_a, ct_b])
    assert got.level == want.level
    assert _polys(got) == _polys(want)
    decoded = local.encoder().decode(local.decryptor().decrypt(got))
    assert decoded[:4] == [
        (x * y) % params.plaintext_modulus
        for x, y in zip([1, 2, 3, 4], [5, 6, 7, 8])
    ]


def test_http_coefficient_domain_operands_answer_like_ntt_domain_ones():
    """Format 2 carries each polynomial's domain, so operands sent in the
    coefficient domain are transformed where the op needs NTT rows: the
    request answers 200 with the result of the NTT-domain request.  Adding
    a coefficient-domain operand to an NTT-domain one answers 200 too: the
    coefficient side is transformed."""
    params = toy_params()
    local, enc, encoder = _session(params)
    ct_a = enc.encrypt(encoder.encode([1, 2, 3, 4]))
    ct_b = enc.encrypt(encoder.encode([5, 6, 7, 8]))
    coefficient = [
        Ciphertext(
            polys=[poly.to_coefficient() for poly in ct.polys],
            params=ct.params,
            level=ct.level,
        )
        for ct in (ct_a, ct_b)
    ]
    ops = ["multiply", "relinearize", "mod_switch"]

    with ServerThread(batch_window=0.001) as server:
        client = ServiceClient("127.0.0.1", server.port)
        request = build_request(
            params, ops, [ciphertext_to_dict(ct) for ct in coefficient], seed=SEED
        )
        assert [poly["domain"] for poly in request["ciphertexts"][0]["polys"]] == [
            "coefficient",
            "coefficient",
        ]
        status, body = client._raw_request("POST", "/v1/compute", request)
        assert status == 200, body
        from_coefficient = client.compute(params, ops, coefficient, seed=SEED)
        from_ntt = client.compute(params, ops, [ct_a, ct_b], seed=SEED)
        # A stored coefficient-domain payload adds to a fresh NTT-resident
        # ciphertext.
        mixed = client.compute(params, ["add"], [coefficient[0], ct_b], seed=SEED)
        same = client.compute(params, ["add"], [ct_a, ct_b], seed=SEED)

    assert _polys(from_coefficient) == _polys(from_ntt)
    assert _polys(mixed) == _polys(same)
    decrypt = local.decryptor().decrypt
    assert decrypt(from_coefficient) == decrypt(from_ntt)
    assert local.encoder().decode(decrypt(from_coefficient))[:4] == [
        (x * y) % params.plaintext_modulus
        for x, y in zip([1, 2, 3, 4], [5, 6, 7, 8])
    ]
    assert local.encoder().decode(decrypt(mixed))[:4] == [6, 8, 10, 12]


def test_http_concurrent_requests_coalesce_into_fewer_plans():
    params = toy_params()
    local, enc, encoder = _session(params)
    pairs = [
        (
            enc.encrypt(encoder.encode([r + 1, 2])),
            enc.encrypt(encoder.encode([3, r + 4])),
        )
        for r in range(6)
    ]
    ops = ["multiply", "relinearize", "mod_switch"]

    # A generous window so all six requests (issued concurrently from one
    # event loop) reliably land inside one batch even on slow CI runners.
    with ServerThread(batch_window=0.25, max_batch=8) as server:
        client = AsyncServiceClient("127.0.0.1", server.port)

        async def run_all():
            responses = await asyncio.gather(
                *[
                    client.compute_raw(params, ops, [a, b], seed=SEED)
                    for a, b in pairs
                ]
            )
            return responses, await client.metrics()

        responses, metrics = asyncio.run(run_all())

    for (a, b), response in zip(pairs, responses):
        got = ciphertext_from_dict(response["result"])
        want = _reference(local, tuple(ops), [a, b])
        assert _polys(got) == _polys(want)
    assert any(response["batch_size"] > 1 for response in responses)

    server_metrics = metrics["server"]
    assert server_metrics["service.requests"] == 6
    assert server_metrics["service.batched_requests"] == 6
    # The throughput claim, structurally: fewer batches than requests, and
    # fewer plan executions than requests on the tenant doing the work.
    assert server_metrics["service.batches"] < server_metrics["service.requests"]
    [tenant_metrics] = metrics["tenants"].values()
    plan_executions = tenant_metrics["plan.compiled"] + tenant_metrics["plan.cache_hits"]
    assert plan_executions < 6
    json.dumps(metrics)  # the whole surface stays JSON-safe


def test_http_multi_tenant_metrics_isolation():
    params = toy_params()
    local_a, enc_a, encoder_a = _session(params, seed=1)
    local_b, enc_b, encoder_b = _session(params, seed=2)
    ct_a = enc_a.encrypt(encoder_a.encode([1, 2]))
    ct_b = enc_b.encrypt(encoder_b.encode([3, 4]))

    with ServerThread(batch_window=0.001) as server:
        client = ServiceClient("127.0.0.1", server.port)
        client.compute(params, ["multiply"], [ct_a, ct_a], seed=1)
        client.compute(params, ["multiply"], [ct_b, ct_b], seed=2)
        client.compute(params, ["multiply"], [ct_b, ct_b], seed=2)
        metrics = client.metrics()

    key_a, key_b = params_hash(params, 1), params_hash(params, 2)
    tenants = metrics["tenants"]
    assert set(tenants) == {key_a, key_b}
    assert tenants[key_a]["plan.compiled"] == 1
    assert tenants[key_a]["plan.cache_hits"] == 0
    assert tenants[key_b]["plan.compiled"] == 1
    assert tenants[key_b]["plan.cache_hits"] == 1
    assert metrics["server"]["service.requests"] == 3
    assert metrics["server"]["service.tenants"] == 2


def test_http_error_paths():
    with ServerThread(batch_window=0.001) as server:
        client = ServiceClient("127.0.0.1", server.port)

        with pytest.raises(ServiceError) as err:
            client._request("POST", "/v1/compute", {"format_version": 99})
        assert err.value.status == 400

        with pytest.raises(ServiceError) as err:
            client._request("GET", "/v1/nope")
        assert err.value.status == 404

        # Level mismatch passes validation but is rejected by the HE layer
        # as a clean 400, not a connection-killing crash.
        params = toy_params()
        context, enc, encoder = _session(params)
        ct = enc.encrypt(encoder.encode([1]))
        switched = context.evaluator().mod_switch_to_next(
            _reference(context, ("multiply", "relinearize"), [ct, ct])
        )
        with pytest.raises(ServiceError) as err:
            client.compute(params, ["add"], [ct, switched], seed=SEED)
        assert err.value.status == 400

        metrics = client.metrics()
        assert metrics["server"]["service.errors"] == 3
        # All three failures were client mistakes: the 4xx/5xx split
        # attributes every one of them, and nothing to the server class.
        assert metrics["server"]["service.errors.4xx"] == 3
        assert metrics["server"]["service.errors.5xx"] == 0


def _drop(mapping, key):
    del mapping[key]


def _set_residue(ct, word):
    ct["polys"][0]["rows"][0][0] = word


def _edit_residue(ct, edit):
    _set_residue(ct, edit(ct["polys"][0]["rows"][0][0]))


#: Residue rows that are not format 2, each rejected while the rows decode.
MALFORMED_ROWS = {
    "unpadded_residue": lambda ct: _set_residue(ct, "0x1"),
    "residue_of_17_digits": lambda ct: _edit_residue(ct, lambda word: word + "0"),
    "residue_without_prefix": lambda ct: _edit_residue(ct, lambda word: word[2:]),
    "non_hex_digit": lambda ct: _edit_residue(ct, lambda word: word[:-1] + "g"),
    "embedded_space": lambda ct: _edit_residue(ct, lambda word: word[:9] + " " + word[10:]),
    "non_ascii_digit": lambda ct: _edit_residue(ct, lambda word: word[:-1] + "\u00e9"),
    "row_one_residue_short": lambda ct: ct["polys"][0]["rows"][0].pop(),
    "row_as_one_string": lambda ct: ct["polys"][0]["rows"].__setitem__(
        0, ",".join(ct["polys"][0]["rows"][0])
    ),
}

#: Structural corruptions of a serialised ciphertext, each a client mistake.
MALFORMED_CIPHERTEXTS = {
    "rows_not_a_list": lambda ct: ct["polys"][0].update(rows=7),
    "residue_as_number": lambda ct: ct["polys"][0]["rows"][0].__setitem__(0, 5),
    "primes_as_numbers": lambda ct: ct["polys"][0].update(
        primes=[int(p, 16) for p in ct["polys"][0]["primes"]]
    ),
    "missing_rows": lambda ct: _drop(ct["polys"][0], "rows"),
    "polys_not_a_list": lambda ct: ct.update(polys=3),
    "string_level": lambda ct: ct.update(level="top"),
    "string_n": lambda ct: ct["polys"][0].update(n="4096"),
    "poly_not_an_object": lambda ct: ct["polys"].__setitem__(0, 5),
    "unknown_domain": lambda ct: ct["polys"][0].update(domain="frequency"),
    "domain_as_number": lambda ct: ct["polys"][0].update(domain=1),
    "missing_domain": lambda ct: _drop(ct["polys"][0], "domain"),
    **MALFORMED_ROWS,
}


@pytest.fixture(scope="module")
def served_ciphertext():
    params = toy_params()
    _, enc, encoder = _session(params)
    payload = ciphertext_to_dict(enc.encrypt(encoder.encode([1, 2])))
    with ServerThread(batch_window=0.001) as server:
        yield params, payload, ServiceClient("127.0.0.1", server.port)


@pytest.mark.parametrize("corrupt", sorted(MALFORMED_CIPHERTEXTS))
def test_http_malformed_ciphertext_is_a_400_with_request_id(served_ciphertext, corrupt):
    params, payload, client = served_ciphertext
    bad = json.loads(json.dumps(payload))
    MALFORMED_CIPHERTEXTS[corrupt](bad)
    request = build_request(params, ["multiply"], [bad, payload], seed=SEED)
    request["request_id"] = "malformed-" + corrupt.replace("_", "-")
    status, body = client._raw_request("POST", "/v1/compute", request)
    assert status == 400, body
    # Rejected while decoding, the caller's id comes back; rejected while
    # validating, before the id is taken, the server's own.
    assert json.loads(body)["request_id"]
    if corrupt in MALFORMED_ROWS:
        assert json.loads(body)["request_id"] == request["request_id"]


@pytest.mark.parametrize("corrupt", sorted(MALFORMED_CIPHERTEXTS))
def test_malformed_ciphertext_is_a_value_error(corrupt):
    _, enc, encoder = _session()
    bad = ciphertext_to_dict(enc.encrypt(encoder.encode([1, 2])))
    MALFORMED_CIPHERTEXTS[corrupt](bad)
    with pytest.raises(ValueError):
        ciphertext_from_dict(bad)


# -- request-scoped observability ------------------------------------------------------


def test_validate_request_request_id_rules():
    from repro.service.protocol import new_request_id

    params = toy_params()
    context, enc, encoder = _session(params)
    ct = ciphertext_to_dict(enc.encrypt(encoder.encode([1])))
    base = build_request(params, ["multiply"], [ct, ct], seed=SEED)

    # Omitted is fine (the server mints one); a well-formed id round-trips.
    assert validate_request(dict(base))[4] is None
    good = dict(base, request_id="load-gen_01.retry:2")
    assert validate_request(good)[4] == "load-gen_01.retry:2"
    minted = new_request_id()
    assert validate_request(dict(base, request_id=minted))[4] == minted

    for bad in (42, "", "x" * 129, "has spaces", "semi;colon", "new\nline"):
        with pytest.raises(ServiceError) as err:
            validate_request(dict(base, request_id=bad))
        assert err.value.status == 400
        assert "request_id" in err.value.message


def test_http_request_id_round_trip_and_error_correlation():
    params = toy_params()
    context, enc, encoder = _session(params)
    ct = enc.encrypt(encoder.encode([1, 2]))
    ct_payload = ciphertext_to_dict(ct)

    with ServerThread(batch_window=0.001) as server:
        client = ServiceClient("127.0.0.1", server.port)

        # The caller's id comes back verbatim in the response envelope.
        response = client.compute_raw(
            params, ["multiply"], [ct, ct], seed=SEED, request_id="caller-pick-1"
        )
        assert response["request_id"] == "caller-pick-1"

        # Without one, the client mints an id the server echoes.
        response = client.compute_raw(params, ["multiply"], [ct, ct], seed=SEED)
        assert response["request_id"]

        # A malformed id is a 400 whose body still carries a request id,
        # so even the rejection correlates with its access-log line.
        bad = build_request(params, ["multiply"], [ct_payload, ct_payload], seed=SEED)
        bad["request_id"] = "has spaces"
        status, body = client._raw_request("POST", "/v1/compute", bad)
        assert status == 400
        payload = json.loads(body)
        assert "request_id" in payload["error"]
        assert payload["request_id"]

        metrics = client.metrics()
        assert metrics["server"]["service.errors.4xx"] == 1
        assert metrics["server"]["service.errors.5xx"] == 0
        # Per-stage latency summaries surface per tenant, with percentiles.
        [tenant_metrics] = metrics["tenants"].values()
        for stage in (
            "service.latency.queue_seconds",
            "service.latency.batch_wait_seconds",
            "service.latency.execute_seconds",
            "service.latency.serialize_seconds",
            "service.latency.total_seconds",
        ):
            summary = tenant_metrics[stage]
            assert summary["count"] == 2, stage
            assert summary["min"] <= summary["p50"] <= summary["p99"], stage
        # Batch occupancy is fleet-wide accounting: it lives on the root.
        assert metrics["server"]["service.batch_size"]["count"] >= 1


def test_http_healthz_reports_runtime_facts():
    from repro.service.protocol import PROTOCOL_VERSION

    params = toy_params()
    context, enc, encoder = _session(params)
    ct = enc.encrypt(encoder.encode([1]))

    with ServerThread(backend="numpy", shards=2, batch_window=0.001) as server:
        client = ServiceClient("127.0.0.1", server.port)
        health = client.health()
        assert health["status"] == "ok"
        assert health["format_version"] == PROTOCOL_VERSION
        assert health["backend"] == "numpy"
        assert health["shards"] == 2
        assert health["tenants"] == 0
        assert health["uptime_seconds"] >= 0
        assert health["tracing"] is False
        assert isinstance(health["profiling"], bool)
        client.compute(params, ["multiply"], [ct, ct], seed=SEED)
        assert client.health()["tenants"] == 1


def test_http_metrics_prometheus_exposition():
    params = toy_params()
    context, enc, encoder = _session(params)
    ct = enc.encrypt(encoder.encode([1, 2]))

    with ServerThread(batch_window=0.001) as server:
        client = ServiceClient("127.0.0.1", server.port)
        client.compute(params, ["multiply"], [ct, ct], seed=SEED)
        text = client.metrics_text()
        # The JSON content type stays the default for plain GETs.
        status, body = client._raw_request("GET", "/v1/metrics")
        assert status == 200
        assert json.loads(body)["server"]["service.requests"] == 1

    lines = text.splitlines()
    assert "# TYPE repro_service_requests_total counter" in lines
    assert "repro_service_requests_total 1" in lines
    # Latency histograms export as summaries with percentile labels, both
    # fleet-wide (unlabelled) and per tenant.
    assert "# TYPE repro_service_latency_total_seconds summary" in lines
    assert 'repro_service_latency_total_seconds{quantile="0.5"} ' in text
    assert 'repro_service_latency_total_seconds{quantile="0.99",tenant="' in text
    assert "repro_service_latency_total_seconds_count 1" in lines
    assert "repro_service_batch_size_sum" in text


def test_http_dashboard_serves_selfcontained_html():
    with ServerThread(batch_window=0.001) as server:
        client = ServiceClient("127.0.0.1", server.port)
        status, body = client._raw_request("GET", "/v1/dashboard")
    assert status == 200
    html = body.decode("utf-8")
    assert "<html" in html
    assert "/v1/metrics" in html  # polls the JSON metrics endpoint
    assert "50.04" in html  # the paper's NTT share, next to the live one


def test_http_trace_endpoint_404_and_409_paths():
    from repro.telemetry import TRACER

    try:
        with ServerThread(batch_window=0.001) as server:
            client = ServiceClient("127.0.0.1", server.port)
            # Tracing off: the endpoint says so rather than a bare miss.
            with pytest.raises(ServiceError) as err:
                client.trace("anything")
            assert err.value.status == 409
            assert "tracing" in err.value.message
            # Tracing on, unknown id: a 404.
            TRACER.start()
            with pytest.raises(ServiceError) as err:
                client.trace("never-served")
            assert err.value.status == 404
    finally:
        TRACER.stop()
        TRACER.clear()


def test_http_access_log_correlates_every_path(tmp_path):
    from repro.telemetry import JsonLinesLog

    params = toy_params()
    context, enc, encoder = _session(params)
    ct = enc.encrypt(encoder.encode([1]))
    stream = io.StringIO()

    with ServerThread(
        batch_window=0.001, access_log=JsonLinesLog(stream)
    ) as server:
        client = ServiceClient("127.0.0.1", server.port)
        client.compute_raw(
            params, ["multiply"], [ct, ct], seed=SEED, request_id="logged-1"
        )
        with pytest.raises(ServiceError):
            client._request("GET", "/v1/nope")

    records = [json.loads(line) for line in stream.getvalue().splitlines()]
    assert all(r["event"] == "request" for r in records)
    [compute] = [r for r in records if r["path"] == "/v1/compute"]
    assert compute["status"] == 200
    assert compute["request_id"] == "logged-1"
    assert compute["duration_ms"] >= 0
    assert compute["batch_size"] >= 1
    assert compute["tenant"]
    [miss] = [r for r in records if r["path"] == "/v1/nope"]
    assert miss["status"] == 404
    assert miss["error"]
    assert miss["request_id"]  # server-minted: every line correlates


def _walk_tree(node, parent=None):
    yield node, parent
    for child in node["children"]:
        yield from _walk_tree(child, node)


def test_http_trace_reassembles_cross_process_spans(monkeypatch):
    """The tentpole acceptance criterion: one HTTP request on the parallel
    backend yields, from ``/v1/trace/<id>``, a single tree rooted at
    ``service.request`` that includes worker-recorded pool spans (worker
    PIDs preserved) under the dispatch that submitted them."""
    import repro.service.tenants as tenants_mod
    from repro.backends.parallel import ParallelBackend
    from repro.telemetry import TRACER

    # Tenant backends come from build_backend(); force pool dispatch at toy
    # sizes by injecting thresholds the same way the direct-pool test does.
    monkeypatch.setattr(
        tenants_mod,
        "build_backend",
        lambda name: ParallelBackend(
            shards=2, transform_threshold=1, pointwise_threshold=1
        ),
    )

    params = toy_params()
    context, enc, encoder = _session(params)
    ct_a = enc.encrypt(encoder.encode([1, 2, 3, 4]))
    ct_b = enc.encrypt(encoder.encode([5, 6, 7, 8]))
    ops = ["multiply", "relinearize", "mod_switch"]

    try:
        with ServerThread(backend="parallel", batch_window=0.001) as server:
            client = ServiceClient("127.0.0.1", server.port)
            # Warm run first: pool spin-up and plan compile off the trace.
            client.compute(params, ops, [ct_a, ct_b], seed=SEED)
            TRACER.start()
            response = client.compute_raw(
                params, ops, [ct_a, ct_b], seed=SEED, request_id="pool-trace-1"
            )
            assert response["request_id"] == "pool-trace-1"
            trace = client.trace("pool-trace-1")
        TRACER.stop()

        assert trace["request_id"] == "pool-trace-1"
        tree = trace["trace"]
        assert tree["name"] == "service.request"
        assert tree["attrs"]["request_id"] == "pool-trace-1"
        assert tree["attrs"]["ops"] == "+".join(ops)

        nodes = list(_walk_tree(tree))
        names = {node["name"] for node, _ in nodes}
        for expected in (
            "service.prepare",
            "service.batch",
            "plan.execute",
            "service.serialize",
        ):
            assert expected in names, expected

        # Worker spans crossed the process boundary: recorded under a
        # worker PID, parented under the dispatch inside a plan stage.
        main_pid = os.getpid()
        tasks = [
            (node, parent) for node, parent in nodes if node["name"] == "pool.task"
        ]
        assert tasks, "no worker spans in the served trace"
        for task, dispatch in tasks:
            assert task["pid"] != main_pid
            assert dispatch["name"] == "pool.dispatch"
        dispatch_parents = {
            parent["name"]
            for node, parent in nodes
            if node["name"] == "pool.dispatch"
        }
        assert dispatch_parents == {"plan.stage"}
    finally:
        TRACER.stop()
        TRACER.clear()


def test_http_coalesced_batch_trace_names_every_rider():
    """When k requests fuse into one plan, each rider's trace contains the
    shared ``service.batch`` subtree, attributed to all k request ids —
    grafted (and marked shared) for every rider but the one whose root
    parents it."""
    from repro.telemetry import TRACER

    params = toy_params()
    local, enc, encoder = _session(params)
    pairs = [
        (
            enc.encrypt(encoder.encode([r + 1, 2])),
            enc.encrypt(encoder.encode([3, r + 4])),
        )
        for r in range(3)
    ]
    ops = ["multiply", "relinearize"]
    rids = ["rider-a", "rider-b", "rider-c"]

    try:
        TRACER.start()
        with ServerThread(batch_window=0.25, max_batch=8) as server:
            client = AsyncServiceClient("127.0.0.1", server.port)

            async def run_all():
                responses = await asyncio.gather(
                    *[
                        client.compute_raw(
                            params, ops, [a, b], seed=SEED, request_id=rid
                        )
                        for (a, b), rid in zip(pairs, rids)
                    ]
                )
                traces = [await client.trace(rid) for rid in rids]
                return responses, traces

            responses, traces = asyncio.run(run_all())
        TRACER.stop()

        assert all(r["request_id"] == rid for r, rid in zip(responses, rids))
        batches = {}
        for rid, trace in zip(rids, traces):
            tree = trace["trace"]
            assert tree["attrs"]["request_id"] == rid
            batch_nodes = [
                node
                for node, _ in _walk_tree(tree)
                if node["name"] == "service.batch"
            ]
            assert batch_nodes, "rider %s has no batch in its trace" % rid
            [batch] = batch_nodes
            riders = tuple(batch["attrs"]["request_ids"])
            assert rid in riders
            # The fused execution itself is in every rider's tree.
            subtree_names = {n["name"] for n, _ in _walk_tree(batch)}
            assert "plan.execute" in subtree_names
            batches.setdefault(riders, []).append(bool(batch.get("shared")))

        # Issued concurrently inside a generous window: coalescing happened.
        assert any(len(riders) > 1 for riders in batches)
        for riders, shared_flags in batches.items():
            if len(shared_flags) > 1:
                # Exactly one rider owns the subtree; the rest see a graft.
                assert sorted(shared_flags) == [False] + [True] * (
                    len(shared_flags) - 1
                )
    finally:
        TRACER.stop()
        TRACER.clear()
