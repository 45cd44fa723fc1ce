"""Encryption and decryption for the RNS-BGV scheme.

Ciphertexts rest in the NTT domain, as SEAL keeps its BGV and CKKS
ciphertexts (``is_ntt_form``): an encryption forward-transforms its fresh
randomness once and forms both components pointwise against the public
key, which rests in the NTT domain too, and decryption accepts either
domain.
"""

from __future__ import annotations

import random

from ..backends import ops
from ..backends.base import ComputeBackend
from ..backends.registry import resolve_backend
from ..rns import sampling
from ..rns.basis import RnsBasis
from ..rns.poly import Domain, RnsPolynomial, _residue_rows
from .ciphertext import Ciphertext
from .keys import PublicKey, SecretKey
from .params import HEParams

__all__ = ["Encryptor", "Decryptor"]

#: Compiled encryption plans, keyed by ``(row count, t)``.
_ENCRYPTION_PLANS: dict[tuple[int, int], ops.Plan] = {}


def _encryption_plan(count: int, t: int) -> ops.Plan:
    """``c0 = b^*u^ + NTT(t*e0 + m)``, ``c1 = a^*u^ + NTT(t*e1)`` as one plan.

    ``b`` and ``a`` bind the public key's NTT image; ``u``, ``t*e0 + m``
    and ``t*e1`` go through one forward transform of ``3 * count`` rows.
    """
    plan = _ENCRYPTION_PLANS.get((count, t))
    if plan is None:
        graph = ops.OpGraph()
        b, a, u, e0, e1, m = map(graph.input, ("b", "a", "u", "e0", "e1", "m"))
        masked = graph.add(graph.scalar_mul(e0, t), m)
        stacked = graph.forward_ntt(graph.concat([u, masked, graph.scalar_mul(e1, t)]))
        u_ntt, masked_ntt, e1_ntt = graph.split(stacked, [count] * 3)
        graph.output("c0", graph.add(graph.mul(b, u_ntt), masked_ntt))
        graph.output("c1", graph.add(graph.mul(a, u_ntt), e1_ntt))
        plan = _ENCRYPTION_PLANS[(count, t)] = graph.compile()
    return plan


class Encryptor:
    """Encrypts plaintext polynomials under a public key.

    A BGV encryption of the plaintext ``m`` is::

        c0 = b*u + t*e0 + m
        c1 = a*u + t*e1

    with ``(b, a)`` the public key, ``u`` a fresh ternary polynomial and
    ``e0, e1`` fresh Gaussian errors, so that ``c0 + c1*s = m + t*(noise)``.
    Both components are emitted in the NTT domain: the public key rests
    there (one built in the coefficient domain is transformed once per
    encryptor), and each encryption transforms ``u``, ``t*e0 + m`` and
    ``t*e1`` in one batch (``3 * np`` rows) and forms the products
    pointwise.
    """

    def __init__(
        self,
        params: HEParams,
        public_key: PublicKey,
        seed: int = 95,
        backend: ComputeBackend | str | None = None,
    ) -> None:
        self.params = params
        self.public_key = public_key
        self.basis = public_key.a.basis
        self.rng = random.Random(seed)
        # Fresh randomness is created resident on the public key's backend by
        # default, so an encrypt → evaluate chain never crosses backends.
        self.backend = (
            public_key.a.backend if backend is None else resolve_backend(backend)
        )
        self._key_image: tuple[RnsPolynomial, RnsPolynomial] | None = None

    def _public_image(self) -> tuple[RnsPolynomial, RnsPolynomial]:
        """The public key's NTT image on this encryptor's backend (built once)."""
        if self._key_image is None:
            self._key_image = (
                self.public_key.b.with_backend(self.backend).to_ntt(),
                self.public_key.a.with_backend(self.backend).to_ntt(),
            )
        return self._key_image

    def encrypt(self, plaintext: RnsPolynomial) -> Ciphertext:
        """Encrypt a plaintext polynomial (coefficients understood mod ``t``)."""
        t = self.params.plaintext_modulus
        n = self.params.n
        if plaintext.basis.primes != self.basis.primes or plaintext.n != n:
            raise ValueError("polynomials live in different rings")
        if plaintext.domain is not Domain.COEFFICIENT:
            raise ValueError(
                "domain mismatch: %s vs coefficient — convert explicitly first"
                % plaintext.domain.value
            )
        # u, e0 and e1 enter the backend as one stacked tensor, split into
        # three views of it: on the sharded backend that is one segment for
        # all the randomness instead of one per polynomial.
        samples = (
            sampling.ternary(self.rng, n),
            sampling.rounded_normal(self.rng, self.params.error_std, n),
            sampling.rounded_normal(self.rng, self.params.error_std, n),
        )
        primes = self.basis.primes
        stacked = self.backend.from_rows(
            [row for values in samples for row in _residue_rows(values, primes)],
            primes * len(samples),
        )
        u, e0, e1 = self.backend.split(stacked, [len(primes)] * len(samples))
        b, a = self._public_image()
        outputs = self.backend.execute(
            _encryption_plan(self.basis.count, t),
            {
                "b": b.tensor,
                "a": a.tensor,
                "u": u,
                "e0": e0,
                "e1": e1,
                "m": plaintext.with_backend(self.backend).tensor,
            },
        )
        return Ciphertext(
            polys=[
                RnsPolynomial(self.basis, n, outputs[name], Domain.NTT)
                for name in ("c0", "c1")
            ],
            params=self.params,
        )


class Decryptor:
    """Decrypts ciphertexts (of any size, in either domain) with the secret key."""

    def __init__(self, params: HEParams, secret_key: SecretKey) -> None:
        self.params = params
        self.secret_key = secret_key
        self._key_images: dict[tuple[int, ...], RnsPolynomial] = {}

    def _key_image(self, basis: RnsBasis) -> RnsPolynomial:
        """The secret key's NTT image over ``basis`` (built once per level)."""
        image = self._key_images.get(basis.primes)
        if image is None:
            s = self.secret_key.s
            # The ciphertext may have been modulus-switched; drop the key to match.
            drop = len(s.basis.primes) - len(basis.primes)
            if drop < 0:
                raise ValueError("ciphertext modulus is larger than the key's modulus")
            for _ in range(drop):
                s = s.drop_last_prime()
            image = self._key_images[basis.primes] = s.to_ntt()
        return image

    def _inner_product(self, ciphertext: Ciphertext) -> RnsPolynomial:
        """Evaluate ``sum_i c_i * s^i`` over the ciphertext's own basis.

        The sum is formed in the NTT domain (coefficient-domain components
        are transformed first) and inverse-transformed once.
        """
        s = self._key_image(ciphertext.basis)
        accumulator = ciphertext.polys[0].to_ntt()
        s_power = None
        for component in ciphertext.polys[1:]:
            s_power = s if s_power is None else s_power * s
            accumulator = accumulator + component.to_ntt() * s_power
        return accumulator.to_coefficient()

    def raw_decrypt(self, ciphertext: Ciphertext) -> list[int]:
        """Return the centered value of ``sum_i c_i s^i`` (``m + t*e`` before mod-t)."""
        return self._inner_product(ciphertext).to_big_coefficients(centered=True)

    def decrypt(self, ciphertext: Ciphertext) -> list[int]:
        """Decrypt to the plaintext polynomial's coefficients (mod ``t``)."""
        t = self.params.plaintext_modulus
        return [value % t for value in self.raw_decrypt(ciphertext)]

    def noise_magnitude(self, ciphertext: Ciphertext) -> int:
        """Infinity norm of the noise term ``t*e`` inside the ciphertext."""
        t = self.params.plaintext_modulus
        noise = 0
        for value in self.raw_decrypt(ciphertext):
            remainder = value % t
            noise = max(noise, abs(value - remainder))
        return noise

    def noise_budget_bits(self, ciphertext: Ciphertext) -> float:
        """Remaining noise budget in bits: ``log2(Q / (2 * |noise|))``.

        Decryption stays correct while this is positive; each multiplication
        spends budget and bootstrapping (or a fresh encryption) restores it.
        """
        import math

        noise = max(self.noise_magnitude(ciphertext), 1)
        return math.log2(ciphertext.modulus / (2 * noise))
