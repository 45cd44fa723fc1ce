"""Key material and key generation for the RNS-BGV scheme."""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..backends.base import ComputeBackend
from ..backends.registry import resolve_backend
from ..rns.basis import RnsBasis
from ..rns.poly import RnsPolynomial
from .params import HEParams

__all__ = ["SecretKey", "PublicKey", "RelinearizationKey", "KeyGenerator"]


@dataclass
class SecretKey:
    """The secret key: a ternary polynomial ``s``, at rest in the NTT domain."""

    s: RnsPolynomial


@dataclass
class PublicKey:
    """The public key ``(b, a)`` with ``b = -(a*s + t*e)`` (an RLWE sample of zero).

    Both halves rest in the NTT domain.
    """

    b: RnsPolynomial
    a: RnsPolynomial


class RelinearizationKey:
    """RNS-decomposition key-switching key for ``s^2``.

    For every RNS prime index ``i`` the key holds an RLWE encryption of
    ``f_i * s^2`` where ``f_i`` is the CRT basis element that is 1 modulo
    ``q_i`` and 0 modulo every other prime.  Relinearisation decomposes the
    quadratic ciphertext component into its per-prime digits and pairs each
    digit with the matching key component, which keeps the switching noise at
    the scale of a single prime instead of the whole modulus.

    The key is kept in one layout, the shift-major one key switching reads:
    its digits come in whole-basis batches, one per shift ``g``, whose row
    ``i`` is digit ``(i + g) mod L``, so :attr:`pairs` entry ``g`` is a pair
    whose row ``i`` is row ``i`` of component ``(i + g) mod L`` (both
    halves).  The constructor takes the digit-major components (entry ``j``
    pairs with digit ``j``), brings them to the NTT domain, where the key
    rests (SEAL keeps its keys in NTT form too), and lays them out once;
    :attr:`components` rebuilds them on demand.
    """

    def __init__(self, components: list[tuple[RnsPolynomial, RnsPolynomial]]) -> None:
        backend = components[0][0].backend
        halves = [
            [pair[half].with_backend(backend).to_ntt() for pair in components]
            for half in (0, 1)
        ]
        #: The shift-major NTT-domain pairs, resident on the components' backend.
        self.pairs = _rotate_rows(halves, 1)
        self._adopted: dict = {}

    @property
    def components(self) -> list[tuple[RnsPolynomial, RnsPolynomial]]:
        """The digit-major components, rebuilt from :attr:`pairs` per call."""
        halves = [[pair[half] for pair in self.pairs] for half in (0, 1)]
        return _rotate_rows(halves, -1)

    def shift_major(
        self, backend: ComputeBackend
    ) -> list[tuple[RnsPolynomial, RnsPolynomial]]:
        """The shift-major pairs on ``backend``.

        :attr:`pairs` themselves on the backend they rest on; on any other
        backend a copy adopted once and cached, so the key crosses to that
        backend once, not once per operation.
        """
        if self.pairs[0][0].backend is backend:
            return self.pairs
        cached = self._adopted.get(id(backend))
        if cached is None or cached[0] is not backend:
            cached = (
                backend,
                [
                    (rk0.with_backend(backend), rk1.with_backend(backend))
                    for rk0, rk1 in self.pairs
                ],
            )
            self._adopted[id(backend)] = cached
        return cached[1]


def _rotate_rows(
    halves: list[list[RnsPolynomial]], sign: int
) -> list[tuple[RnsPolynomial, RnsPolynomial]]:
    """Entry ``e`` pairs, one per half, the polynomial whose row ``i`` is
    row ``i`` of ``polys[(e + sign * i) mod L]``.

    ``sign = 1`` lays digit-major components out shift-major; ``sign = -1``
    takes them back.
    """
    backend = halves[0][0].backend
    count = len(halves[0])

    def rotated(polys: list[RnsPolynomial], entry: int) -> RnsPolynomial:
        rows = [
            backend.slice_rows(polys[(entry + sign * row) % count].tensor, row, row + 1)
            for row in range(count)
        ]
        first = polys[0]
        return RnsPolynomial(first.basis, first.n, backend.concat(rows), first.domain)

    return [
        (rotated(halves[0], entry), rotated(halves[1], entry))
        for entry in range(count)
    ]


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

    # Each sampler draws in the coefficient domain and returns the sample's
    # NTT image, so every key is formed pointwise and rests in the NTT domain.
    def _gaussian(self, rng: random.Random) -> RnsPolynomial:
        return RnsPolynomial.random_gaussian(
            self.basis,
            self.params.n,
            rng,
            stddev=self.params.error_std,
            backend=self.backend,
        ).to_ntt()

    def _uniform(self, rng: random.Random) -> RnsPolynomial:
        return RnsPolynomial.random_uniform(
            self.basis, self.params.n, rng, backend=self.backend
        ).to_ntt()

    def _ternary(self, rng: random.Random) -> RnsPolynomial:
        return RnsPolynomial.random_ternary(
            self.basis, self.params.n, rng, backend=self.backend
        ).to_ntt()

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
        """Generate the RNS-decomposition relinearisation key for ``s^2``.

        The components are laid out shift-major once, and only that layout
        is kept (see :class:`RelinearizationKey`).
        """
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
