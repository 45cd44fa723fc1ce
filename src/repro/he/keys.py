"""Key material and key generation for the RNS-BGV scheme."""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..backends.base import ComputeBackend
from ..backends.registry import resolve_backend
from ..rns.basis import RnsBasis
from ..rns.poly import RnsPolynomial
from .params import HEParams

__all__ = ["SecretKey", "PublicKey", "RelinearizationKey", "KeyGenerator"]


@dataclass
class SecretKey:
    """The secret key: a ternary polynomial ``s``."""

    s: RnsPolynomial


@dataclass
class PublicKey:
    """The public key ``(b, a)`` with ``b = -(a*s + t*e)`` (an RLWE sample of zero)."""

    b: RnsPolynomial
    a: RnsPolynomial


@dataclass
class RelinearizationKey:
    """RNS-decomposition key-switching key for ``s^2``.

    For every RNS prime index ``i`` the key holds an RLWE encryption of
    ``f_i * s^2`` where ``f_i`` is the CRT basis element that is 1 modulo
    ``q_i`` and 0 modulo every other prime.  Relinearisation decomposes the
    quadratic ciphertext component into its per-prime digits and pairs each
    digit with the matching key component, which keeps the switching noise at
    the scale of a single prime instead of the whole modulus.

    ``components`` stays digit-major (entry ``j`` pairs with digit ``j``).
    Key switching reads the key shift-major (:meth:`shift_major`): its
    digits come in whole-basis batches, one per shift ``g``, whose row
    ``i`` is digit ``(i + g) mod L``, and each pairs row by row with a key
    polynomial laid out the same way.
    """

    components: list[tuple[RnsPolynomial, RnsPolynomial]]
    _shifted: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def shift_major(
        self, backend: ComputeBackend
    ) -> list[tuple[RnsPolynomial, RnsPolynomial]]:
        """The key's ``2L`` shift-major polynomials on ``backend``, built once.

        Entry ``g`` is a pair whose row ``i`` is row ``i`` of component
        ``(i + g) mod L`` (both halves).  The rearrangement moves whole rows,
        so it serves keys in either domain; a key whose components rest in
        different domains is brought to the NTT domain first.  The pairs
        are cached per backend, so their tensors keep one identity across
        operations and the constant pool keeps their NTT images; they cost
        a second copy of the key (``2L`` polynomials of ``L`` rows).
        """
        cached = self._shifted.get(id(backend))
        if cached is not None and cached[0] is backend:
            return cached[1]
        halves = [
            [pair[half].with_backend(backend) for pair in self.components]
            for half in (0, 1)
        ]
        domains = {poly.domain for polys in halves for poly in polys}
        if len(domains) > 1:
            halves = [[poly.to_ntt() for poly in polys] for polys in halves]
        count = len(self.components)

        def shifted(polys: list[RnsPolynomial], shift: int) -> RnsPolynomial:
            rows = [
                backend.slice_rows(polys[(row + shift) % count].tensor, row, row + 1)
                for row in range(count)
            ]
            first = polys[0]
            return RnsPolynomial(first.basis, first.n, backend.concat(rows), first.domain)

        pairs = [
            (shifted(halves[0], shift), shifted(halves[1], shift))
            for shift in range(count)
        ]
        self._shifted[id(backend)] = (backend, pairs)
        return pairs


class KeyGenerator:
    """Generates secret, public and relinearisation keys for a parameter set.

    Args:
        params: Scheme parameters.
        seed: Seed for the deterministic RNG (tests rely on reproducibility).
        backend: Compute backend every generated key polynomial is resident
            on (registry default when omitted, resolved once at
            construction).  Key material generated here and ciphertexts built
            from it therefore share one pinned backend.

    Each key kind draws from its own seed-derived stream, so the material is
    a pure function of ``(params, seed)`` regardless of *which* keys a
    process generates or in what order.  That call-order independence is
    what lets a serving tenant (which only ever derives the relinearisation
    key) and a remote client (which derives the public key first to encrypt)
    agree bit-for-bit on shared key material from the same seed.
    """

    def __init__(
        self,
        params: HEParams,
        seed: int = 2020,
        backend: ComputeBackend | str | None = None,
    ) -> None:
        self.params = params
        self.basis: RnsBasis = params.make_basis()
        self.seed = seed
        self.backend = resolve_backend(backend)
        self._secret: SecretKey | None = None

    # -- helpers -------------------------------------------------------------------
    def _stream(self, label: str) -> random.Random:
        """An independent deterministic RNG for one key kind."""
        return random.Random("repro-key:%s:%d" % (label, self.seed))

    def _gaussian(self, rng: random.Random) -> RnsPolynomial:
        return RnsPolynomial.random_gaussian(
            self.basis,
            self.params.n,
            rng,
            stddev=self.params.error_std,
            backend=self.backend,
        )

    def _uniform(self, rng: random.Random) -> RnsPolynomial:
        return RnsPolynomial.random_uniform(
            self.basis, self.params.n, rng, backend=self.backend
        )

    def _ternary(self, rng: random.Random) -> RnsPolynomial:
        return RnsPolynomial.random_ternary(
            self.basis, self.params.n, rng, backend=self.backend
        )

    # -- key generation ---------------------------------------------------------------
    def secret_key(self) -> SecretKey:
        """Generate (once) and return the secret key."""
        if self._secret is None:
            self._secret = SecretKey(s=self._ternary(self._stream("secret")))
        return self._secret

    def public_key(self) -> PublicKey:
        """Generate the public key for the (possibly newly created) secret key."""
        s = self.secret_key().s
        t = self.params.plaintext_modulus
        rng = self._stream("public")
        a = self._uniform(rng)
        e = self._gaussian(rng)
        b = -(a * s + e.scalar_mul(t))
        return PublicKey(b=b, a=a)

    def relinearization_key(self) -> RelinearizationKey:
        """Generate the RNS-decomposition relinearisation key for ``s^2``."""
        s = self.secret_key().s
        t = self.params.plaintext_modulus
        s_squared = s * s
        modulus = self.basis.modulus
        rng = self._stream("relin")
        components: list[tuple[RnsPolynomial, RnsPolynomial]] = []
        for prime in self.basis.primes:
            punctured = modulus // prime
            basis_element = punctured * pow(punctured, -1, prime) % modulus
            a_i = self._uniform(rng)
            e_i = self._gaussian(rng)
            rk0 = -(a_i * s + e_i.scalar_mul(t)) + s_squared.scalar_mul(basis_element)
            components.append((rk0, a_i))
        return RelinearizationKey(components=components)
