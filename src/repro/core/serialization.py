"""JSON (de)serialisation of plans, twiddle tables, RNS polynomials and ciphertexts.

An HE service typically generates its NTT parameters once (primes, roots,
twiddle tables, tuned execution plans) and ships them to workers — and then
ships ciphertexts and plaintext polynomials between services for the life of
the deployment; this module provides a stable, dependency-free JSON
representation for all of those artefacts.

Integers are stored as hexadecimal strings because 60-bit values are outside
the exact range of JSON numbers in many consumers; everything is validated on
load (primes must still be NTT primes for the stored size, stored roots must
still generate the stored tables).

Format 2 writes every residue as its 64-bit word: ``0x`` plus exactly 16 hex
digits, so any ``int(v, 16)`` reader still parses it.  The fixed width lets a
whole row be converted by a few C-level calls instead of one ``hex()`` or
``int(v, 16)`` per residue: :func:`encode_residues` hex-encodes the row's
big-endian words at once and splits the text, and :func:`decode_residues`
checks the joined row column by column and decodes its digits at once into
a ``uint64`` array, which the backends store without a Python list between.
Format-1 payloads (unpadded ``hex()`` residues) are refused by the version
check.  Primes, twiddle tables and plans keep their version-1 fields; they
share the module's version number.

Residue data crosses the resident-tensor boundary exactly once per
direction: :func:`rns_polynomial_to_dict` materialises through the explicit
:meth:`~repro.rns.poly.RnsPolynomial.to_coeff_lists` boundary, and
:func:`rns_polynomial_from_dict` re-enters backend-native storage through
:meth:`~repro.rns.poly.RnsPolynomial.from_residue_rows`.
"""

from __future__ import annotations

import binascii
import json
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from ..modarith.primes import is_ntt_prime
from ..rns.basis import RnsBasis
from ..rns.poly import Domain, RnsPolynomial
from .on_the_fly import OnTheFlyConfig
from .plan import NTTAlgorithm, NTTPlan
from .twiddle import TwiddleTable

__all__ = [
    "FORMAT_VERSION",
    "encode_residues",
    "decode_residues",
    "plan_to_dict",
    "plan_from_dict",
    "twiddle_table_to_dict",
    "twiddle_table_from_dict",
    "rns_polynomial_to_dict",
    "rns_polynomial_from_dict",
    "ciphertext_to_dict",
    "ciphertext_from_dict",
    "save_json",
    "load_json",
]


#: Version of the on-the-wire dictionary format this module emits.  Every
#: ``*_to_dict`` payload carries it as ``format_version`` and every
#: ``*_from_dict`` refuses versions it does not understand — so a fleet
#: mixing old and new services fails loudly at the boundary instead of deep
#: inside reconstruction.  A payload without the field is read as the
#: current version.  Version 2 fixed the width of residues (see the module
#: docstring); version-1 payloads are refused.
FORMAT_VERSION = 2


def _require(payload: dict[str, Any], kind: str, description: str) -> None:
    """Validate the ``kind`` tag and ``format_version`` of a payload."""
    if not isinstance(payload, dict) or payload.get("kind") != kind:
        raise ValueError("payload is not a serialised %s" % description)
    version = payload.get("format_version", FORMAT_VERSION)
    if version != FORMAT_VERSION:
        raise ValueError(
            "unsupported %s format_version %r (this build reads version %d)"
            % (description, version, FORMAT_VERSION)
        )


# -- residue rows ------------------------------------------------------------------------

#: Bytes per residue of a row joined with ``,``: ``0x``, 16 digits, ``,``.
_CELL = 19
_MALFORMED_ROW = "every residue must be 0x plus exactly 16 hex digits"


def encode_residues(row: Sequence[int]) -> list[str]:
    """Format-2 strings of one residue row, ``0x`` plus 16 hex digits each.

    Raises:
        ValueError: for a residue of 2^64 or more, which has no word.
    """
    if not row:
        return []
    try:
        words = np.array(row, dtype=">u8").tobytes()
    except OverflowError:
        raise ValueError("a residue of 2^64 or more cannot be written") from None
    return ("0x" + words.hex(",", 8).replace(",", ",0x")).split(",")


def decode_residues(tokens: Any, count: int) -> np.ndarray:
    """Residues of one format-2 row of exactly ``count`` strings, as a ``uint64`` array.

    The row is joined with ``,`` and viewed as ``count`` cells of 19 bytes.
    Columns 0-1 must be ``0x`` and columns 2-17 must decode as hex digits.
    That leaves column 18 as the only place for the ``count - 1``
    separators, so every token is ``0x`` plus 16 hex digits: a token of the
    wrong length would move a separator into a prefix or digit column.

    Raises:
        ValueError: for anything but a list of ``count`` such strings.
    """
    if not isinstance(tokens, list) or len(tokens) != count:
        raise ValueError("a residue row must be a list of %d strings" % count)
    try:
        text = ",".join(tokens).encode("ascii")
    except (TypeError, UnicodeEncodeError):
        raise ValueError(_MALFORMED_ROW) from None
    if len(text) != _CELL * count - 1:
        raise ValueError(_MALFORMED_ROW)
    cells = np.frombuffer(text + b",", dtype=np.uint8).reshape(count, _CELL)
    if not ((cells[:, 0] == ord("0")).all() and (cells[:, 1] == ord("x")).all()):
        raise ValueError(_MALFORMED_ROW)
    try:
        words = binascii.unhexlify(cells[:, 2 : _CELL - 1].tobytes())
    except binascii.Error:
        raise ValueError(_MALFORMED_ROW) from None
    return np.frombuffer(words, dtype=">u8").astype(np.uint64)


# -- plans -----------------------------------------------------------------------------


def plan_to_dict(plan: NTTPlan) -> dict[str, Any]:
    """Convert an :class:`NTTPlan` into a JSON-serialisable dictionary."""
    payload: dict[str, Any] = {
        "kind": "ntt_plan",
        "format_version": FORMAT_VERSION,
        "n": plan.n,
        "algorithm": plan.algorithm.value,
        "radix": plan.radix,
        "kernel1_size": plan.kernel1_size,
        "kernel2_size": plan.kernel2_size,
        "per_thread_points": plan.per_thread_points,
        "coalesced": plan.coalesced,
        "preload_twiddles": plan.preload_twiddles,
        "word_size_bits": plan.word_size_bits,
        "ot": None,
    }
    if plan.ot is not None:
        payload["ot"] = {"base": plan.ot.base, "ot_stages": plan.ot.ot_stages}
    return payload


def plan_from_dict(payload: dict[str, Any]) -> NTTPlan:
    """Reconstruct an :class:`NTTPlan` from :func:`plan_to_dict` output."""
    _require(payload, "ntt_plan", "NTT plan")
    ot_payload = payload.get("ot")
    ot = (
        OnTheFlyConfig(base=ot_payload["base"], ot_stages=ot_payload["ot_stages"])
        if ot_payload
        else None
    )
    return NTTPlan(
        n=payload["n"],
        algorithm=NTTAlgorithm(payload["algorithm"]),
        radix=payload["radix"],
        kernel1_size=payload["kernel1_size"],
        kernel2_size=payload["kernel2_size"],
        per_thread_points=payload["per_thread_points"],
        coalesced=payload["coalesced"],
        preload_twiddles=payload["preload_twiddles"],
        ot=ot,
        word_size_bits=payload["word_size_bits"],
    )


# -- twiddle tables -------------------------------------------------------------------------


def twiddle_table_to_dict(table: TwiddleTable) -> dict[str, Any]:
    """Convert a :class:`TwiddleTable` into a JSON-serialisable dictionary.

    Only the defining quantities (``n``, ``p``, ``psi``) and the forward table
    are stored; the inverse table and Shoup companions are recomputed on load,
    which keeps the payload small and guarantees internal consistency.
    """
    return {
        "kind": "twiddle_table",
        "format_version": FORMAT_VERSION,
        "n": table.n,
        "p": hex(table.p),
        "psi": hex(table.psi),
        "word_bits": table.word.bits,
        "forward": [hex(value) for value in table.forward],
    }


def twiddle_table_from_dict(payload: dict[str, Any]) -> TwiddleTable:
    """Reconstruct (and validate) a :class:`TwiddleTable` from its dictionary form."""
    _require(payload, "twiddle_table", "twiddle table")
    n = payload["n"]
    p = int(payload["p"], 16)
    psi = int(payload["psi"], 16)
    if not is_ntt_prime(p, n):
        raise ValueError("stored modulus is not an NTT prime for the stored size")
    table = TwiddleTable.build(n=n, p=p, psi=psi)
    stored_forward = [int(value, 16) for value in payload["forward"]]
    if stored_forward != table.forward:
        raise ValueError("stored twiddle table does not match its stored root of unity")
    return table


# -- RNS polynomials ------------------------------------------------------------------------


def rns_polynomial_to_dict(poly: RnsPolynomial) -> dict[str, Any]:
    """Convert an :class:`RnsPolynomial` into a JSON-serialisable dictionary.

    The residue matrix leaves backend-native storage through the polynomial's
    explicit ``to_coeff_lists()`` boundary; the domain tag travels with it so
    NTT-form polynomials round-trip without a transform.
    """
    return {
        "kind": "rns_polynomial",
        "format_version": FORMAT_VERSION,
        "n": poly.n,
        "domain": poly.domain.value,
        "primes": [hex(p) for p in poly.basis.primes],
        "rows": [encode_residues(row) for row in poly.to_coeff_lists()],
    }


def rns_polynomial_from_dict(
    payload: dict[str, Any], backend: Any = None
) -> RnsPolynomial:
    """Reconstruct (and validate) an :class:`RnsPolynomial` from its dictionary form.

    Args:
        payload: Output of :func:`rns_polynomial_to_dict`.
        backend: Backend instance or registry name the rebuilt polynomial is
            made resident on (registry default when omitted).
    """
    _require(payload, "rns_polynomial", "RNS polynomial")
    # One guard for the header fields: a payload of the wrong shape fails
    # inside the reading with a TypeError or a KeyError, and that is a
    # malformed input, reported as a ValueError.
    try:
        n = payload["n"]
        primes = [int(value, 16) for value in payload["primes"]]
        tokens = payload["rows"]
        domain = Domain(payload["domain"])
    except (TypeError, KeyError) as exc:
        raise ValueError("malformed RNS polynomial payload: %r" % exc) from None
    if not isinstance(n, int) or isinstance(n, bool):
        raise ValueError("malformed RNS polynomial payload: n must be an integer")
    # The basis validates n and the primes before any row is decoded.
    basis = RnsBasis.from_primes(primes, n)
    if not isinstance(tokens, list) or len(tokens) != basis.count:
        raise ValueError(
            "malformed RNS polynomial payload: expected %d residue rows" % basis.count
        )
    rows = [decode_residues(row, n) for row in tokens]
    return RnsPolynomial.from_residue_rows(rows, basis, domain=domain, n=n, backend=backend)


# -- ciphertexts -----------------------------------------------------------------------------


def ciphertext_to_dict(ciphertext: Any) -> dict[str, Any]:
    """Convert a :class:`repro.he.ciphertext.Ciphertext` to a dictionary.

    The scheme parameters are embedded so a worker can rebuild the ciphertext
    with nothing but this payload (the polynomials carry their own — possibly
    modulus-switched — prime chain).
    """
    params = ciphertext.params
    return {
        "kind": "ciphertext",
        "format_version": FORMAT_VERSION,
        "level": ciphertext.level,
        "params": {
            "n": params.n,
            "plaintext_modulus": params.plaintext_modulus,
            "prime_bits": params.prime_bits,
            "prime_count": params.prime_count,
            "error_std": params.error_std,
            "name": params.name,
        },
        "polys": [rns_polynomial_to_dict(poly) for poly in ciphertext.polys],
    }


def ciphertext_from_dict(payload: dict[str, Any], backend: Any = None):
    """Reconstruct a :class:`repro.he.ciphertext.Ciphertext` from its dictionary form.

    Args:
        payload: Output of :func:`ciphertext_to_dict`.
        backend: Backend for the rebuilt polynomials (registry default when
            omitted).
    """
    # Imported lazily: repro.he pulls in repro.core for its bootstrap model,
    # so a module-level import here would be circular.
    from ..he.ciphertext import Ciphertext
    from ..he.params import HEParams

    _require(payload, "ciphertext", "ciphertext")
    try:
        params = HEParams(**payload["params"])
        poly_payloads = list(payload["polys"])
        level = payload["level"]
    except (TypeError, KeyError) as exc:
        raise ValueError("malformed ciphertext payload: %r" % exc) from None
    if not isinstance(level, int) or isinstance(level, bool):
        raise ValueError("malformed ciphertext payload: level must be an integer")
    polys = [rns_polynomial_from_dict(poly, backend=backend) for poly in poly_payloads]
    return Ciphertext(polys=polys, params=params, level=level)


# -- files -------------------------------------------------------------------------------------


def save_json(payload: dict[str, Any], path: str | Path) -> Path:
    """Write a serialised artefact to ``path`` (pretty-printed JSON)."""
    destination = Path(path)
    destination.write_text(json.dumps(payload, indent=2, sort_keys=True), encoding="utf-8")
    return destination


def load_json(path: str | Path) -> dict[str, Any]:
    """Read a serialised artefact from ``path``."""
    return json.loads(Path(path).read_text(encoding="utf-8"))
