import renyimi


def test_star_import_resolves_every_export():
    names = renyimi.__all__
    assert len(names) == len(set(names))
    namespace = {}
    exec("from renyimi import *", namespace)  # raises on a name __all__ lists but lacks
    assert set(names) <= namespace.keys()


def test_public_surface_is_pinned():
    # a new or dropped export is a deliberate edit of this list
    assert sorted(renyimi.__all__) == [
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
