"""Bootstrapping: noise refresh and the workload it implies for the NTT engine.

True CKKS/BGV bootstrapping (the reason the paper's parameter sets reach
``N = 2^17`` with dozens of primes) is a deep homomorphic circuit —
CoeffToSlot and SlotToCoeff linear transforms plus a polynomial evaluation of
the modular-reduction function — whose cost is dominated by NTTs.  A faithful
cryptographic implementation is outside the scope of this reproduction, so
this module substitutes two pieces that preserve what the paper needs:

* :class:`NoiseRefresher` — a *functional* stand-in that restores a
  ciphertext's noise budget by re-encrypting its decryption.  It requires the
  secret key and is clearly documented as such; it lets the examples run long
  computation chains the way an application using real bootstrapping would.
* :class:`BootstrapWorkloadModel` — a *performance* model that counts the
  NTT invocations of a CKKS-style bootstrapping pipeline at bootstrappable
  parameters and prices them with the GPU kernel models, connecting the HE
  layer back to the paper's headline numbers (NTT/iNTT consuming a third to a
  half of HE computation time).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..core.on_the_fly import OnTheFlyConfig
from ..gpu.costmodel import GpuCostModel
from ..kernels.smem import smem_ntt_model
from ..kernels.radix2 import radix2_ntt_model
from ..rns.poly import RnsPolynomial
from ..rns.sampling import uniform_below
from .ciphertext import Ciphertext
from .encryptor import Decryptor, Encryptor
from .params import HEParams

__all__ = [
    "NoiseRefresher",
    "BootstrapWorkloadModel",
    "BootstrapEstimate",
    "bootstrap_circuit",
]


def _diagonal(rng: random.Random, basis, n: int, t: int, backend) -> RnsPolynomial:
    """One deterministic pseudo-diagonal plaintext for the linear transforms.

    Coefficients are uniform in ``[1, t)``, drawn in bulk.
    """
    return RnsPolynomial.from_coefficients(
        1 + uniform_below(rng, t - 1, n), basis, backend=backend
    )


def bootstrap_circuit(
    context,
    pipeline,
    ciphertext: Ciphertext,
    *,
    c2s_terms: int = 2,
    eval_depth: int = 1,
    s2c_terms: int = 2,
    seed: int = 1234,
):
    """A bootstrap-*shaped* homomorphic circuit as one lazy expression.

    The structural skeleton of HEAAN-style bootstrapping — a CoeffToSlot
    linear transform (a sum of ``c2s_terms`` plaintext-diagonal products),
    ``eval_depth`` rounds of EvalMod-style nonlinear evaluation
    (square → relinearise while the full-basis key still fits → modulus
    switch → plaintext offset), and a SlotToCoeff transform (``s2c_terms``
    diagonal products at the final level) — expressed through
    :meth:`Pipeline <repro.he.pipeline.Pipeline>` combinators so the whole
    circuit compiles into **one** plan.  The diagonals are deterministic
    pseudo-random plaintexts (``seed``), not the DFT matrix: this is the
    optimiser's and scheduler's workload, faithful in structure and NTT
    profile, with no cryptographic claim.

    Each diagonal is transformed once, as the circuit is built, so it
    rests in the NTT domain like the key: no run of the circuit's plan
    transforms a constant.

    Returns the final :class:`~repro.he.pipeline.CiphertextExpr`; call
    ``.run()`` (or hand it to :meth:`Pipeline.run_many`) to execute.
    """
    if c2s_terms < 1 or s2c_terms < 1 or eval_depth < 0:
        raise ValueError("bootstrap circuit needs >= 1 transform term per side")
    basis = ciphertext.basis
    if eval_depth >= len(basis):
        raise ValueError(
            "eval_depth %d needs %d modulus switches but the ciphertext has "
            "only %d primes" % (eval_depth, eval_depth, len(basis))
        )
    params = context.params
    t = params.plaintext_modulus
    rng = random.Random(seed)
    relin_key = context.relinearization_key()

    def diagonal(basis) -> RnsPolynomial:
        return _diagonal(rng, basis, params.n, t, context.backend).to_ntt()

    x = pipeline.load(ciphertext)

    # CoeffToSlot: a sum of plaintext-diagonal products at the input level.
    acc = x.mul_plain(diagonal(basis))
    for _ in range(c2s_terms - 1):
        acc = acc + x.mul_plain(diagonal(basis))

    # EvalMod: square/relinearise/rescale rounds.  The session key is
    # generated for the full basis, so relinearisation only applies while the
    # ciphertext still lives there; deeper rounds carry the size-3 result.
    for _ in range(eval_depth):
        acc = acc.square()
        if len(relin_key.pairs) == len(basis):
            acc = acc.relinearize(relin_key)
        acc = acc.mod_switch()
        basis = basis.drop_last(1)
        acc = acc.add_plain(diagonal(basis))

    # SlotToCoeff: diagonal products at the final level.
    out = acc.mul_plain(diagonal(basis))
    for _ in range(s2c_terms - 1):
        out = out + acc.mul_plain(diagonal(basis))
    return out


class NoiseRefresher:
    """Functional noise refresh by re-encryption (requires the secret key).

    This is the standard engineering substitute used when studying HE
    *performance* rather than security: it produces exactly the ciphertext a
    real bootstrapping would (a fresh encryption of the same plaintext) while
    skipping the homomorphic evaluation of the decryption circuit.
    """

    def __init__(self, encryptor: Encryptor, decryptor: Decryptor) -> None:
        self.encryptor = encryptor
        self.decryptor = decryptor

    def refresh(self, ciphertext: Ciphertext) -> Ciphertext:
        """Return a fresh encryption of ``ciphertext``'s plaintext."""
        plaintext_coefficients = self.decryptor.decrypt(ciphertext)
        plaintext = RnsPolynomial.from_coefficients(
            plaintext_coefficients,
            self.encryptor.basis,
            backend=self.encryptor.backend,
        )
        return self.encryptor.encrypt(plaintext)


@dataclass(frozen=True)
class BootstrapEstimate:
    """Modelled cost of one bootstrapping invocation.

    Attributes:
        ntt_count: Number of ``N``-point NTT/iNTT executions (across all primes).
        ntt_time_us: Modelled GPU time spent in those NTTs.
        ntt_time_radix2_us: The same NTT work under the radix-2 baseline.
        total_time_estimate_us: Modelled bootstrapping time assuming the
            paper-reported NTT share of HE computation.
        ntt_share: NTT share of total time assumed for the estimate.
    """

    ntt_count: int
    ntt_time_us: float
    ntt_time_radix2_us: float
    total_time_estimate_us: float
    ntt_share: float


class BootstrapWorkloadModel:
    """Counts and prices the NTT workload of a CKKS-style bootstrapping.

    The structure follows HEAAN-style bootstrapping: ``CoeffToSlot`` and
    ``SlotToCoeff`` are (baby-step/giant-step) linear transforms costing
    roughly ``2 * sqrt(N_slots)`` plaintext multiplications' worth of NTTs
    each, and ``EvalMod`` evaluates a degree-``d`` polynomial approximation of
    modular reduction costing about ``2 * sqrt(d)`` ciphertext
    multiplications.  Every ciphertext multiplication at level ``L`` performs
    ``3 * np`` forward/inverse NTTs (two forward, one inverse, per prime per
    ciphertext polynomial pair) plus the key-switching NTTs.

    The constants are deliberately round — the goal is the order of magnitude
    and the NTT share, not a cycle-accurate bootstrapping model.
    """

    def __init__(
        self,
        params: HEParams,
        eval_mod_degree: int = 63,
        ntt_share: float = 0.40,
        model: GpuCostModel | None = None,
    ) -> None:
        if not 0 < ntt_share <= 1:
            raise ValueError("ntt_share must be in (0, 1]")
        self.params = params
        self.eval_mod_degree = eval_mod_degree
        self.ntt_share = ntt_share
        self.model = model if model is not None else GpuCostModel()

    def ciphertext_multiplications(self) -> int:
        """Approximate ciphertext multiplications in one bootstrapping."""
        import math

        slots = self.params.n // 2
        linear_transforms = 2 * int(math.isqrt(slots))
        eval_mod = 2 * int(math.isqrt(self.eval_mod_degree)) + self.eval_mod_degree.bit_length()
        return linear_transforms + eval_mod

    def ntt_invocations(self) -> int:
        """Total N-point NTT/iNTT executions (counting each prime separately)."""
        ntts_per_multiplication = (4 + 3) + 2
        return self.ciphertext_multiplications() * ntts_per_multiplication * self.params.prime_count

    def estimate(self, ot_stages: int = 2) -> BootstrapEstimate:
        """Estimate the NTT cost of one bootstrapping on the modelled GPU."""
        multiplications = self.ciphertext_multiplications()
        np_count = self.params.prime_count
        # Per ciphertext multiplication: 4 forward NTTs (two polynomials per
        # operand), 3 inverse NTTs (result components), and one key-switching
        # pass costing another 2 * np NTTs worth of work.
        ntts_per_multiplication = (4 + 3) + 2
        ntt_count = multiplications * ntts_per_multiplication * np_count

        ot = OnTheFlyConfig(base=1024, ot_stages=ot_stages) if ot_stages else None
        batched = smem_ntt_model(self.params.n, np_count, self.model, ot=ot)
        radix2 = radix2_ntt_model(self.params.n, np_count, self.model)
        batches = ntt_count / np_count
        ntt_time = batched.time_us * batches
        ntt_time_radix2 = radix2.time_us * batches
        return BootstrapEstimate(
            ntt_count=ntt_count,
            ntt_time_us=ntt_time,
            ntt_time_radix2_us=ntt_time_radix2,
            total_time_estimate_us=ntt_time / self.ntt_share,
            ntt_share=self.ntt_share,
        )
