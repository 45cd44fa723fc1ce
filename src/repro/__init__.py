"""repro — reproduction of "Accelerating Number Theoretic Transformations for
Bootstrappable Homomorphic Encryption on GPUs" (IISWC 2020).

The top-level package re-exports the most commonly used entry points; see the
sub-packages for the full API:

* :mod:`repro.modarith` — fixed-width modular arithmetic, primes, reducers.
* :mod:`repro.transforms` — the reference NTT (the scalar oracle's transform).
* :mod:`repro.backends` — pluggable batched compute backends (scalar, numpy,
  parallel) and the NTT engines, one array kernel per algorithm.
* :mod:`repro.rns` — CRT / residue-number-system substrate.
* :mod:`repro.core` — NTT execution plans and the functional model of
  on-the-fly twiddling.
* :mod:`repro.gpu` — the analytic GPU performance model (Titan V).
* :mod:`repro.kernels` — GPU kernel models for every paper configuration.
* :mod:`repro.he` — the RNS-CKKS-like homomorphic-encryption layer.
* :mod:`repro.experiments` — the per-figure/table reproduction harness.
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
