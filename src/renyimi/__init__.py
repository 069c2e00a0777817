"""Renyi-2 mutual information of critical Ising chains under partial
measurement and decoherence.

Library layout:
  spin        bit-encoded states, basis rotations, translations, bipartitions
  tfim        critical transverse-field Ising chain and its ground-state solver
  channels    single-site Pauli dephasing channels on dense density matrices
  doubled     Choi supervector engine (vectorized channels, depolarizers);
              the oracle for case 2, which runs on entropy.PauliWeightPlan
  entropy     subsystem entropies, generalized entropies, mutual information,
              Pauli-weight plans for Z-dephased and Y-decohered windows
  scaling     chord-length scaling fit and central-charge extraction
  oracle      brute-force dense references used as test ground truth,
              the full-space dense ground state among them
  experiments sweeps, ground-state caching and CSV output
  cli         command-line driver (ground / case1 / case2 / fit)
"""

from .channels import ChannelSpec, apply_channel_dense, y_decohere_dense
from .doubled import (
    SUPERVECTOR_MAX_SITES,
    apply_lifted_channel,
    depolarize_subsystem,
    devectorize,
    generalized_entropy_supervector,
    lift_channel,
    pure_supervector,
    r2gse_supervector,
    vectorize,
)
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
    TfimModel,
    apply_hamiltonian,
    ground_state,
    load_ground_state,
    save_ground_state,
)

__all__ = [
    "Bipartition",
    "ChannelSpec",
    "FitResult",
    "GroundStateResult",
    "GsePlan",
    "LanczosError",
    "MiPlan",
    "MiPoint",
    "PauliWeightPlan",
    "SUPERVECTOR_MAX_SITES",
    "TfimModel",
    "apply_channel_dense",
    "apply_hamiltonian",
    "apply_lifted_channel",
    "build_mi_plans",
    "conjectured_cn",
    "default_window",
    "depolarize_subsystem",
    "devectorize",
    "fit_cft",
    "generalized_entropy_supervector",
    "ground_state",
    "lift_channel",
    "load_ground_state",
    "marginal_probabilities",
    "pure_supervector",
    "r2gse_pure",
    "r2gse_supervector",
    "r2gsmi",
    "r2smi",
    "renyi2_ee",
    "renyi2_shannon_entropy",
    "rotate_to_basis",
    "save_ground_state",
    "scaling_variable",
    "translate",
    "vectorize",
    "window_coefficient_matrix",
    "y_decohere_dense",
]

__version__ = "0.1.0"
