import numpy as np
import pytest

from renyimi import ground_state, rotate_to_basis, window_coefficient_matrix
from renyimi import entropy

SEED = 20250810


def random_state(L, rng):
    v = rng.standard_normal(2**L) + 1j * rng.standard_normal(2**L)
    return v / np.linalg.norm(v)


def random_density(L, rng):
    dim = 2**L
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = a @ a.conj().T
    return rho / np.real(np.trace(rho))


def kron_chain(mats):
    out = mats[0]
    for m in mats[1:]:
        out = np.kron(m, out)  # site 0 = low bits
    return out


def zero_state(L):
    v = np.zeros(2**L, dtype=complex)
    v[0] = 1.0
    return v


def plus_state(L):
    return np.full(2**L, 2.0 ** (-L / 2), dtype=complex)


def ghz_state(L):
    v = np.zeros(2**L, dtype=complex)
    v[0] = v[-1] = 1.0 / np.sqrt(2.0)
    return v


def bell_state():
    return ghz_state(2)


def kernel_entropy(kernel, state, start, length, axis, p_m):
    """Dephased Renyi-2 entropy of a window from one plan kernel, past GsePlan's size rule.

    `kernel` is entropy._DenseGramPlan or entropy._LowRankPlan; the state is
    rotated and checked for flip symmetry, as `build_mi_plans` does.
    """
    rot = rotate_to_basis(state, axis)
    coeff = window_coefficient_matrix(rot, start, length)
    plan = kernel(coeff, entropy.Symmetry.of(rot).flip)
    return entropy._entropy_of(plan.purity(entropy._contraction(p_m, "p_m")))


@pytest.fixture(scope="session")
def critical():
    """Factory for cached critical ground states keyed by L."""
    cache = {}

    def get(L):
        if L not in cache:
            cache[L] = ground_state(L).state
        return cache[L]

    return get
