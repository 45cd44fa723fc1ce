"""Transform algorithms on real data: the reference NTT and its helpers.

This package holds the *algorithm-level* reference: bit reversal, the
radix-2 Cooley-Tukey / Gentleman-Sande pair of Algorithm 1
(:class:`NegacyclicTransformer`, the one transform of the scalar oracle)
and the quadratic definitions it is checked against.  The paper's other
NTT variants run as array kernels in :mod:`repro.backends.engines`; the
GPU-mapped kernel models that report performance estimates live in
:mod:`repro.kernels`.
"""

from .bitrev import (
    bit_reverse,
    bit_reverse_indices,
    bit_reverse_permute,
    is_power_of_two,
    log2_exact,
)
from .cooley_tukey import (
    NegacyclicTransformer,
    forward_twiddle_table,
    inverse_twiddle_table,
    negacyclic_multiply,
    ntt_forward,
    ntt_forward_inplace,
    ntt_inverse,
    ntt_inverse_inplace,
)
from .reference import (
    naive_cyclic_convolution,
    naive_intt,
    naive_negacyclic_convolution,
    naive_negacyclic_intt,
    naive_negacyclic_ntt,
    naive_ntt,
)

__all__ = [
    "bit_reverse",
    "bit_reverse_indices",
    "bit_reverse_permute",
    "is_power_of_two",
    "log2_exact",
    "NegacyclicTransformer",
    "forward_twiddle_table",
    "inverse_twiddle_table",
    "negacyclic_multiply",
    "ntt_forward",
    "ntt_forward_inplace",
    "ntt_inverse",
    "ntt_inverse_inplace",
    "naive_cyclic_convolution",
    "naive_intt",
    "naive_negacyclic_convolution",
    "naive_negacyclic_intt",
    "naive_negacyclic_ntt",
    "naive_ntt",
]
