import numpy as np
import pytest

from renyimi import TfimModel, ground_state, rotate_to_basis, window_coefficient_matrix
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
    rotated, made real where exact and checked for flip symmetry, as GsePlan
    does.
    """
    rot = entropy._real_if_exact(rotate_to_basis(state, axis))
    coeff = window_coefficient_matrix(rot, start, length)
    plan = kernel(coeff, entropy.is_flip_symmetric(rot))
    return entropy._entropy_of(plan.purity(entropy._contraction(p_m, "p_m")))


@pytest.fixture(scope="session")
def critical():
    """Factory for cached critical ground states keyed by L."""
    cache = {}

    def get(L):
        if L not in cache:
            cache[L] = ground_state(TfimModel(L)).state
        return cache[L]

    return get
