"""The paper's NTT execution plans and their functional models.

The production transforms run in :mod:`repro.backends`; this package
describes and models them.  Public entry points:

* :class:`NTTPlan` / :class:`NTTAlgorithm` — describe *how* to execute a
  transform (radix-2 baseline, register-based high radix, or the two-kernel
  shared-memory decomposition, with coalescing / twiddle-preload / per-thread
  size knobs).
* :class:`OnTheFlyConfig` — the paper's on-the-fly twiddling scheme.
* :class:`NTTEngine` — forward/inverse negacyclic NTT for one modulus under a
  plan, with execution reporting: the functional model of on-the-fly
  twiddling.
* :class:`TwiddleTable` — precomputed twiddles with Shoup companions and
  memory-footprint accounting.
"""

from .engine import ExecutionReport, NTTEngine
from .on_the_fly import OnTheFlyConfig, OnTheFlyTwiddleGenerator
from .plan import NTTAlgorithm, NTTPlan, best_smem_plan, default_smem_split
from .serialization import (
    ciphertext_from_dict,
    ciphertext_to_dict,
    load_json,
    plan_from_dict,
    plan_to_dict,
    rns_polynomial_from_dict,
    rns_polynomial_to_dict,
    save_json,
    twiddle_table_from_dict,
    twiddle_table_to_dict,
)
from .tuner import PlanTuner, TunedPlan
from .twiddle import TwiddleTable, stage_input_entries, stage_table_entries

__all__ = [
    "PlanTuner",
    "TunedPlan",
    "ciphertext_from_dict",
    "ciphertext_to_dict",
    "load_json",
    "plan_from_dict",
    "plan_to_dict",
    "rns_polynomial_from_dict",
    "rns_polynomial_to_dict",
    "save_json",
    "twiddle_table_from_dict",
    "twiddle_table_to_dict",
    "ExecutionReport",
    "NTTEngine",
    "OnTheFlyConfig",
    "OnTheFlyTwiddleGenerator",
    "NTTAlgorithm",
    "NTTPlan",
    "best_smem_plan",
    "default_smem_split",
    "TwiddleTable",
    "stage_input_entries",
    "stage_table_entries",
]
