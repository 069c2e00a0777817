"""Critical transverse-field Ising chain, H = -sum_j (Z_j Z_{j+1} + X_j), periodic.

Ground states come from ARPACK's implicitly restarted Lanczos method
(scipy `eigsh` on the matrix-free matvec, fixed start vector, so results
are bit-reproducible) or from a dense eigensolve at oracle sizes.
"""

from __future__ import annotations

import os
import struct
import tempfile
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .spin import num_sites

LANCZOS_MAX_SITES = 24
DENSE_MAX_SITES = 12
_LANCZOS_SEED = 8899
_LANCZOS_NCV = 20  # ARPACK basis: 20 vectors of length 2^L
_LANCZOS_TOL = 1e-10  # relative Ritz tolerance; 1e-12 costs ~25% more matvecs at L=20
_RESIDUAL_BOUND = 1e-8  # hard postcondition on any returned ground state

CACHE_MAGIC = b"TFGS"
CACHE_VERSION = 2
_CACHE_HEADER = struct.Struct("<4sIId8s")  # magic, version, L, energy, method


class LanczosError(RuntimeError):
    """ARPACK's Lanczos (`eigsh`) did not converge, or the Ritz gap collapsed."""


@dataclass(frozen=True)
class TfimModel:
    """Periodic chain of L sites, couplings fixed at unit strength.

    L=2 double-counts the single bond and is only meaningful in the dense
    oracle path.
    """

    L: int

    def __post_init__(self):
        if self.L < 2:
            raise ValueError("TfimModel needs L >= 2")


@dataclass(frozen=True)
class GroundStateResult:
    """`method` names the solver that produced the state ("" if unknown)."""

    energy: float
    state: np.ndarray
    residual: float
    method: str = ""


@lru_cache(maxsize=None)
def _bond_diagonal(L):
    # -sum_j z_j z_{j+1} = -(L - 2 * #antiparallel bonds), periodic wrap
    n = np.arange(2**L, dtype=np.int64)
    rot = (n >> 1) | ((n & 1) << (L - 1))
    flips = np.bitwise_count((n ^ rot).astype(np.uint64)).astype(np.float64)
    d = 2.0 * flips - float(L)
    d.setflags(write=False)
    return d


def apply_hamiltonian(model: TfimModel, state):
    """Matrix-free H @ state: bond diagonal plus -1 per single-bit flip."""
    L = model.L
    if len(state) != 2**L:
        raise ValueError(f"state length {len(state)} does not match L={L}")
    psi = np.asarray(state)
    out = _bond_diagonal(L) * psi
    for j in range(L):
        out -= psi.reshape(2 ** (L - 1 - j), 2, 2**j)[:, ::-1, :].reshape(-1)
    return out


def dense_hamiltonian(model: TfimModel):
    """Explicit 2^L x 2^L matrix; oracle scale only."""
    L = model.L
    if L > DENSE_MAX_SITES:
        raise ValueError(f"dense Hamiltonian capped at L <= {DENSE_MAX_SITES}")
    dim = 2**L
    h = np.diag(_bond_diagonal(L)).copy()
    idx = np.arange(dim)
    for j in range(L):
        h[idx, idx ^ (1 << j)] -= 1.0
    return h


def translate(state, shift=1):
    """Cyclic lattice translation, site j -> j + shift."""
    L = num_sites(state)
    s = shift % L
    if s == 0:
        return np.array(state)
    idx = np.arange(2**L, dtype=np.int64)
    src = ((idx >> s) | (idx << (L - s))) & (2**L - 1)
    return np.asarray(state)[src]


def symmetrize_translation(state):
    """Project onto the translation-symmetric (momentum-zero) sector.

    The critical ground state lives in this sector; projecting an
    approximate eigenvector removes the symmetry-breaking part of the
    solver error.
    """
    L = num_sites(state)
    acc = np.array(state)
    shifted = np.asarray(state)
    for _ in range(L - 1):
        shifted = translate(shifted, 1)
        acc += shifted
    nrm = np.linalg.norm(acc)
    if nrm < 1e-8:
        raise LanczosError("state has no weight in the translation-symmetric sector")
    return acc / nrm


def _lanczos_lowest(model):
    """Lowest eigenvector from ARPACK's implicitly restarted Lanczos (`eigsh`).

    Aborts if the Ritz gap is below 1e-10: the critical chain has a unique
    ground state, so a collapsed gap signals a broken iteration, not physics.
    """
    # imported here: scipy.linalg costs ~0.3 s to import, and warm cached runs never solve
    from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

    n = 2**model.L
    # apply_hamiltonian is looked up per call, so a wrapper around it sees every matvec;
    # flattening keeps a (n, 1) input from broadcasting against the bond diagonal
    op = LinearOperator(
        (n, n), matvec=lambda v: apply_hamiltonian(model, v.reshape(-1)), dtype=np.float64
    )
    v0 = np.random.default_rng(_LANCZOS_SEED).standard_normal(n)
    try:
        theta, vecs = eigsh(
            op, k=2, which="SA", v0=v0, ncv=min(_LANCZOS_NCV, n), tol=_LANCZOS_TOL
        )
    except ArpackNoConvergence as exc:
        raise LanczosError(f"no convergence: {exc}") from exc
    if theta[1] - theta[0] < 1e-10:
        raise LanczosError(
            f"Ritz gap {theta[1] - theta[0]:.3e} below 1e-10; refusing to "
            "return a possibly mixed eigenvector"
        )
    return vecs[:, 0]


def ground_state(model: TfimModel, method="lanczos") -> GroundStateResult:
    """Lowest eigenpair of the chain.

    method="lanczos" (3 <= L <= 24) or "dense" (L <= 12).  The returned
    state is translation-symmetrized, normalized, and phase-fixed so the
    largest-magnitude amplitude is real positive; the residual satisfies
    ||H psi - E psi|| <= 1e-8.
    """
    L = model.L
    if method == "dense":
        if L > DENSE_MAX_SITES:
            raise ValueError(f"dense path capped at L <= {DENSE_MAX_SITES}")
        _, evecs = np.linalg.eigh(dense_hamiltonian(model))
        psi = evecs[:, 0]
    elif method == "lanczos":
        if L < 3:
            raise ValueError("lanczos path needs L >= 3 (L=2 double-counts the bond)")
        if L > LANCZOS_MAX_SITES:
            raise ValueError(f"lanczos path capped at L <= {LANCZOS_MAX_SITES}")
        psi = _lanczos_lowest(model)
    else:
        raise ValueError(f"unknown method {method!r}")

    psi = symmetrize_translation(psi.astype(complex))
    big = int(np.argmax(np.abs(psi)))
    psi *= np.conj(psi[big]) / np.abs(psi[big])
    hpsi = apply_hamiltonian(model, psi)
    energy = float(np.real(np.vdot(psi, hpsi)))
    residual = float(np.linalg.norm(hpsi - energy * psi))
    if residual > _RESIDUAL_BOUND:
        raise LanczosError(f"residual {residual:.3e} above bound {_RESIDUAL_BOUND}")
    return GroundStateResult(energy=energy, state=psi, residual=residual, method=method)


def save_ground_state(path, result: GroundStateResult):
    """Write the binary cache record: magic, version u32, L u32, energy f64,
    method (8 ASCII bytes, NUL-padded), amplitudes.

    The record goes to a temporary file in the target's directory and is then
    renamed over `path`, so a failed or interrupted write leaves any old record intact.
    """
    L = num_sites(result.state)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(
                _CACHE_HEADER.pack(
                    CACHE_MAGIC, CACHE_VERSION, L, result.energy, result.method.encode("ascii")
                )
            )
            fh.write(np.ascontiguousarray(result.state, dtype="<c16").tobytes())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def load_ground_state(path) -> GroundStateResult:
    """Read a cache record back; recomputes the residual as an integrity check."""
    with open(path, "rb") as fh:
        head = fh.read(_CACHE_HEADER.size)
        if len(head) != _CACHE_HEADER.size:
            raise ValueError(f"{path}: truncated header")
        magic, version, L, energy, method = _CACHE_HEADER.unpack(head)
        if magic != CACHE_MAGIC:
            raise ValueError(f"{path}: bad magic {magic!r}")
        if version != CACHE_VERSION:
            raise ValueError(f"{path}: unsupported version {version}")
        data = fh.read()
    state = np.frombuffer(data, dtype="<c16")
    if len(state) != 2**L:
        raise ValueError(f"{path}: expected 2^{L} amplitudes, found {len(state)}")
    state = state.astype(complex)
    hpsi = apply_hamiltonian(TfimModel(L), state)
    residual = float(np.linalg.norm(hpsi - energy * state))
    return GroundStateResult(
        energy=energy, state=state, residual=residual, method=method.rstrip(b"\0").decode("ascii")
    )


def cache_path(cache_dir, L):
    return os.path.join(cache_dir, f"tfgs_L{L:02d}.bin")
