"""Renyi-2 mutual information of critical Ising chains under partial
measurement and decoherence.

Library layout:
  spin        bit-encoded states, basis rotations, translations, bipartitions
  tfim        critical transverse-field Ising chain: the symmetry-sector
              ground-state solver and its cache record of orbit amplitudes
  entropy     subsystem entropies, generalized entropies, mutual information,
              Pauli-weight plans for Z-dephased and Y-decohered windows
  scaling     chord-length scaling fit and central-charge extraction
  experiments sweeps, ground-state caching and CSV output
  cli         command-line driver (ground / case1 / case2 / fit)
  oracle      the tests' brute-force references: dense density matrices,
              the full-space Hamiltonian and ground state, free-fermion
              entropies, Kraus channels and the 4^L supervector engine; not
              loaded by `import renyimi`
"""

from .entropy import (
    GsePlan,
    MiPlan,
    MiPoint,
    PauliWeightPlan,
    build_mi_plans,
    conjectured_cn,
    marginal_probabilities,
    r2gse_pure,
    r2gsmi,
    r2smi,
    renyi2_ee,
    renyi2_shannon_entropy,
)
from .scaling import FitResult, default_window, fit_cft, scaling_variable
from .spin import (
    Bipartition,
    rotate_to_basis,
    translate,
    window_coefficient_matrix,
)
from .tfim import (
    GroundStateResult,
    LanczosError,
    ground_state,
    load_ground_state,
    save_ground_state,
)

__all__ = [
    "Bipartition",
    "FitResult",
    "GroundStateResult",
    "GsePlan",
    "LanczosError",
    "MiPlan",
    "MiPoint",
    "PauliWeightPlan",
    "build_mi_plans",
    "conjectured_cn",
    "default_window",
    "fit_cft",
    "ground_state",
    "load_ground_state",
    "marginal_probabilities",
    "r2gse_pure",
    "r2gsmi",
    "r2smi",
    "renyi2_ee",
    "renyi2_shannon_entropy",
    "rotate_to_basis",
    "save_ground_state",
    "scaling_variable",
    "translate",
    "window_coefficient_matrix",
]

__version__ = "0.1.0"


def __getattr__(name):
    # perfbench/tracing.py still looks up `renyimi.doubled`, the oracle's old
    # name; this alias goes once the benchmark refresh (ROADMAP item 1) drops
    # the `doubled.*` targets
    if name == "doubled":
        from . import oracle

        return oracle
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
