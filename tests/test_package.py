import os
import subprocess
import sys

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


def test_import_loads_no_oracle():
    # the oracle is for tests: `import renyimi` leaves it unloaded, and the
    # `doubled` alias that the benchmark's tracer looks up loads no scipy
    code = (
        "import sys, renyimi; "
        "print(sorted(m for m in sys.modules if m.startswith('renyimi.')"
        " and m.split('.')[1] in ('oracle', 'channels', 'doubled'))); "
        "print(renyimi.doubled.apply_lifted_channel.__module__); "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    ).stdout
    assert out.split() == ["[]", "renyimi.oracle", "[]"]
