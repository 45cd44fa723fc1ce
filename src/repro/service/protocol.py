"""Wire protocol of the HE serving layer: request grammar + validation.

One request is *one ciphertext operation chain* for one tenant::

    {
      "format_version": 1,
      "params": {"n": ..., "plaintext_modulus": ..., "prime_bits": ...,
                 "prime_count": ..., "error_std": ..., "name": ...},
      "seed": 2020,
      "ops": ["multiply", "relinearize", "mod_switch"],
      "ciphertexts": [<ciphertext_to_dict>, ...],
      "request_id": "optional caller-chosen correlation id"
    }

``ops[0]`` consumes the submitted ciphertexts (its arity must equal their
count); every later op transforms the running result.  The response carries
the result ciphertext in the same :mod:`repro.core.serialization` dict form
plus the size of the cross-request batch the operation actually rode in.

Validation happens here — at the HTTP boundary, with
:class:`ServiceError` carrying the status code — so malformed payloads
produce a clear 4xx instead of failing deep inside tensor reconstruction
(the failure mode the ``format_version`` satellite of this layer removes
from the serialization module as well).
"""

from __future__ import annotations

import uuid
from typing import Any

from ..core.serialization import FORMAT_VERSION as _SERIAL_VERSION
from ..he.params import HEParams

__all__ = [
    "PROTOCOL_VERSION",
    "FIRST_OPS",
    "CHAIN_OPS",
    "ServiceError",
    "build_request",
    "new_request_id",
    "validate_request",
    "trace_sizes",
    "jsonable",
]

#: Version of the request/response envelope (distinct from the artefact
#: ``format_version`` inside each serialised ciphertext, which the
#: serialization module checks itself).
PROTOCOL_VERSION = 1

#: Ops allowed to open a chain, mapped to their ciphertext arity.
FIRST_OPS: dict[str, int] = {
    "multiply": 2,
    "add": 2,
    "sub": 2,
    "square": 1,
    "negate": 1,
}

#: Ops allowed after the first (unary transforms of the running result).
CHAIN_OPS = ("relinearize", "mod_switch", "negate")

#: Fields of :class:`~repro.he.params.HEParams` carried in the request.
PARAM_FIELDS = (
    "n", "plaintext_modulus", "prime_bits", "prime_count", "error_std", "name",
)

#: Longest accepted ``request_id`` (ids land in span attributes, log lines
#: and URL paths; the bound keeps hostile ids from bloating all three).
MAX_REQUEST_ID_LEN = 128

#: Characters allowed in a ``request_id`` besides ASCII alphanumerics.
_REQUEST_ID_PUNCT = frozenset("-_.:")


class ServiceError(Exception):
    """A request rejection with the HTTP status it maps to."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


def params_dict(params: HEParams) -> dict[str, Any]:
    """The request-side dictionary form of a parameter set."""
    return {field: getattr(params, field) for field in PARAM_FIELDS}


def new_request_id() -> str:
    """A fresh request id (clients generate one when the caller passes none,
    the server generates one for requests that arrive without an id, so
    every log line / trace / error body correlates on *something*)."""
    return uuid.uuid4().hex[:16]


def build_request(
    params: HEParams,
    ops: list[str] | tuple[str, ...],
    ciphertext_payloads: list[dict],
    seed: int = 2020,
    request_id: str | None = None,
) -> dict[str, Any]:
    """Assemble a compute-request envelope (used by both clients)."""
    payload = {
        "format_version": PROTOCOL_VERSION,
        "params": params_dict(params),
        "seed": seed,
        "ops": list(ops),
        "ciphertexts": ciphertext_payloads,
    }
    if request_id is not None:
        payload["request_id"] = request_id
    return payload


def _validate_request_id(payload: dict) -> str | None:
    rid = payload.get("request_id")
    if rid is None:
        return None
    if not isinstance(rid, str) or not rid or len(rid) > MAX_REQUEST_ID_LEN:
        raise ServiceError(
            400,
            "'request_id' must be a non-empty string of at most %d characters"
            % MAX_REQUEST_ID_LEN,
        )
    if not all(
        (ch.isascii() and ch.isalnum()) or ch in _REQUEST_ID_PUNCT for ch in rid
    ):
        raise ServiceError(
            400, "'request_id' may only contain [A-Za-z0-9._:-]"
        )
    return rid


def validate_request(
    payload: Any,
) -> tuple[HEParams, int, tuple[str, ...], list[dict], str | None]:
    """Check a compute request; returns
    ``(params, seed, ops, ct payloads, request_id)``.

    ``request_id`` is the client-chosen correlation id (``None`` when the
    request arrived without one — the server then mints its own).

    Raises:
        ServiceError: With a 4xx status describing exactly what is wrong —
            version mismatch, malformed params, an unknown or mis-aried op
            chain, a malformed request id, or ciphertexts that disagree with
            the request params.
    """
    if not isinstance(payload, dict):
        raise ServiceError(400, "request body must be a JSON object")
    version = payload.get("format_version", PROTOCOL_VERSION)
    if version != PROTOCOL_VERSION:
        raise ServiceError(
            400,
            "unsupported request format_version %r (this server speaks %d)"
            % (version, PROTOCOL_VERSION),
        )
    raw_params = payload.get("params")
    if not isinstance(raw_params, dict):
        raise ServiceError(400, "request is missing the 'params' object")
    unknown = set(raw_params) - set(PARAM_FIELDS)
    if unknown:
        raise ServiceError(
            400, "unknown params fields: %s" % ", ".join(sorted(unknown))
        )
    try:
        params = HEParams(**raw_params)
    except (TypeError, ValueError) as exc:
        raise ServiceError(400, "invalid params: %s" % exc) from None
    seed = payload.get("seed", 2020)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ServiceError(400, "'seed' must be an integer")
    request_id = _validate_request_id(payload)

    ops = payload.get("ops")
    if not isinstance(ops, (list, tuple)) or not ops:
        raise ServiceError(400, "'ops' must be a non-empty list of operation names")
    if not all(isinstance(op, str) for op in ops):
        raise ServiceError(400, "'ops' must be a non-empty list of operation names")
    first, rest = ops[0], ops[1:]
    if first not in FIRST_OPS:
        raise ServiceError(
            400,
            "unknown first op %r (one of: %s)" % (first, ", ".join(sorted(FIRST_OPS))),
        )
    bad = [op for op in rest if op not in CHAIN_OPS]
    if bad:
        raise ServiceError(
            400,
            "unknown chain op %r (after the first op, one of: %s)"
            % (bad[0], ", ".join(CHAIN_OPS)),
        )

    cts = payload.get("ciphertexts")
    if not isinstance(cts, list) or not all(isinstance(ct, dict) for ct in cts):
        raise ServiceError(400, "'ciphertexts' must be a list of serialised ciphertexts")
    arity = FIRST_OPS[first]
    if len(cts) != arity:
        raise ServiceError(
            400,
            "op %r takes %d ciphertext(s), got %d" % (first, arity, len(cts)),
        )
    for index, ct in enumerate(cts):
        if ct.get("kind") != "ciphertext":
            raise ServiceError(400, "ciphertexts[%d] is not a serialised ciphertext" % index)
        if ct.get("format_version", _SERIAL_VERSION) != _SERIAL_VERSION:
            raise ServiceError(
                400,
                "ciphertexts[%d] has unsupported format_version %r"
                % (index, ct.get("format_version")),
            )
        if not isinstance(ct.get("polys"), list):
            raise ServiceError(400, "ciphertexts[%d] 'polys' must be a list" % index)
        embedded = ct.get("params")
        if embedded != params_dict(params):
            raise ServiceError(
                400,
                "ciphertexts[%d] was encrypted under different parameters "
                "than the request's" % index,
            )
    # The chain must stay well-formed for the sizes these inputs produce.
    try:
        trace_sizes(tuple(ops), [len(ct["polys"]) for ct in cts])
    except ValueError as exc:
        raise ServiceError(400, str(exc)) from None
    return params, seed, tuple(ops), cts, request_id


def trace_sizes(ops: tuple[str, ...], input_sizes: list[int]) -> list[int]:
    """Ciphertext size (component count) after each op of a chain.

    Returns one entry per op; the last entry is the response size.  Raises
    ``ValueError`` on chains that cannot execute (e.g. relinearising a
    size-5 ciphertext), so shape errors surface at validation time instead
    of during plan emission.
    """
    first = ops[0]
    if first in ("multiply",):
        size = input_sizes[0] + input_sizes[1] - 1
    elif first in ("add", "sub"):
        size = max(input_sizes)
    elif first == "square":
        size = 2 * input_sizes[0] - 1
    else:  # negate
        size = input_sizes[0]
    sizes = [size]
    for op in ops[1:]:
        if op == "relinearize":
            if size not in (2, 3):
                raise ValueError(
                    "relinearisation supports size-2/3 ciphertexts only "
                    "(chain reaches size %d)" % size
                )
            size = 2
        sizes.append(size)
    return sizes


def jsonable(value: Any) -> Any:
    """A JSON-safe copy of a metrics snapshot.

    Snapshots may contain tuple-keyed gauge dicts (the engine choices'
    ``(n, p_bits, batch)`` shape keys); JSON needs string keys, so tuples
    are flattened to ``"n,p_bits,batch"`` and anything else non-primitive
    falls back to ``str``.
    """
    if isinstance(value, dict):
        return {
            ",".join(str(part) for part in key) if isinstance(key, tuple) else str(key):
            jsonable(item)
            for key, item in value.items()
        }
    if isinstance(value, (list, tuple)):
        return [jsonable(item) for item in value]
    if isinstance(value, (int, float, str, bool)) or value is None:
        return value
    return str(value)
