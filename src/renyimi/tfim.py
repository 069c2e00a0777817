"""Critical transverse-field Ising chain, H = -sum_j (Z_j Z_{j+1} + X_j), periodic.

The ground state lies in the momentum-0, spin-flip-even (prod X = +1)
sector.  `ground_state` builds that sector from orbit representatives
(about 2^L / 2L states), solves it with ARPACK's implicitly restarted
Lanczos method (scipy `eigsh`, fixed start vector, so results are
bit-reproducible) and expands the result to the 2^L float64 amplitudes, so
the state is real and exactly shift- and flip-invariant by construction.
The independent full-space check is `renyimi.oracle.dense_ground_state`.
"""

from __future__ import annotations

import os
import struct
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .spin import num_sites

LANCZOS_MAX_SITES = 24
_LANCZOS_SEED = 8899
_SECTOR_DENSE_DIM = 64  # smaller sectors take a dense eigh (eigsh needs k < dim)
_LANCZOS_TOL = 1e-10  # relative Ritz tolerance: 92 sector matvecs at L=20, 110 at 1e-12
_RESIDUAL_BOUND = 1e-8  # hard postcondition on any returned ground state

CACHE_MAGIC = b"TFGS"
CACHE_VERSION = 4
_CACHE_HEADER = struct.Struct("<4sIId")  # magic, version, L, energy


class LanczosError(RuntimeError):
    """ARPACK's Lanczos (`eigsh`) did not converge, or the Ritz gap collapsed."""


@dataclass(frozen=True)
class TfimModel:
    """Periodic chain of L sites, couplings fixed at unit strength.

    L=2 double-counts the single bond; only the dense oracle solves it.
    """

    L: int

    def __post_init__(self):
        if self.L < 2:
            raise ValueError("TfimModel needs L >= 2")


@dataclass(frozen=True)
class GroundStateResult:
    energy: float
    state: np.ndarray
    residual: float


@lru_cache(maxsize=None)
def _bond_diagonal(L):
    # -sum_j z_j z_{j+1} = -(L - 2 * #antiparallel bonds), periodic wrap
    n = np.arange(2**L, dtype=np.int32)
    rot = (n >> 1) | ((n & 1) << (L - 1))
    flips = np.bitwise_count(n ^ rot).astype(np.float64)
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
        # flip bit j: subtract the bit-reversed view in place, with no 2^L copy
        o = out.reshape(2 ** (L - 1 - j), 2, 2**j)
        np.subtract(o, psi.reshape(o.shape)[:, ::-1, :], out=o)
    return out


def translate(state, shift=1):
    """Cyclic lattice translation, site j -> j + shift."""
    L = num_sites(state)
    s = shift % L
    if s == 0:
        return np.array(state)
    idx = np.arange(2**L, dtype=np.int64)
    src = ((idx >> s) | (idx << (L - s))) & (2**L - 1)
    return np.asarray(state)[src]


def _sector_basis(L):
    """Momentum-0, flip-even basis: representatives, sector index of every state, orbit sizes.

    rep(s) is the least of the L cyclic shifts of s and of its complement;
    s is a representative when rep(s) == s.  Index tables are int32, which
    holds every basis state up to L = 30.
    """
    mask = 2**L - 1
    cur = np.arange(2**L, dtype=np.int32)
    rep = np.full_like(cur, mask)
    tmp = np.empty_like(cur)
    for _ in range(L):
        np.minimum(rep, cur, out=rep)
        np.bitwise_xor(cur, mask, out=tmp)
        np.minimum(rep, tmp, out=rep)
        # rotate cur by one site in place; after L rotations it is 0 .. 2^L - 1 again
        np.bitwise_and(cur, 1, out=tmp)
        tmp <<= L - 1
        cur >>= 1
        cur |= tmp
    reps = np.flatnonzero(rep == cur).astype(np.int32)
    tmp[reps] = np.arange(len(reps), dtype=np.int32)
    sidx = np.take(tmp, rep, out=cur)
    return reps, sidx, np.bincount(sidx, minlength=len(reps))


def _sector_hamiltonian(L, reps, sidx, orbit):
    """H on the normalised orbit sums, as a real CSR matrix with L + 1 entries per row.

    Row i holds the diagonal and, for each site flip j, -sqrt(N_i / N_k) at
    k = sidx[reps[i] ^ 1 << j].  That is column i of H, equal to row i as H
    is symmetric; a flip that reaches the same orbit twice leaves two entries
    that every product sums.
    """
    from scipy.sparse import csr_matrix

    dim = len(reps)
    sq = np.sqrt(orbit.astype(np.float64))
    cols = np.empty((dim, L + 1), dtype=np.int32)
    vals = np.empty((dim, L + 1))
    cols[:, 0] = np.arange(dim)
    vals[:, 0] = _bond_diagonal(L)[reps]
    for j in range(L):
        k = sidx[reps ^ (1 << j)]
        cols[:, j + 1] = k
        vals[:, j + 1] = -sq / sq[k]
    indptr = np.arange(0, dim * (L + 1) + 1, L + 1, dtype=np.int32)
    return csr_matrix((vals.ravel(), cols.ravel(), indptr), shape=(dim, dim))


def _lanczos_lowest(model):
    """Lowest eigenvector, solved in the momentum-0, flip-even sector and expanded to 2^L.

    The sector holds the ground state of the critical ring.  ARPACK's
    implicitly restarted Lanczos (`eigsh`) solves it; sectors below
    _SECTOR_DENSE_DIM states take a dense `eigh`.  Aborts if the gap to the
    next sector level is below 1e-10: the critical chain has a unique ground
    state, so a collapsed gap signals a broken iteration, not physics.
    """
    # imported here: scipy.linalg costs ~0.3 s to import, and warm cached runs never solve
    from scipy.sparse.linalg import ArpackNoConvergence, eigsh

    reps, sidx, orbit = _sector_basis(model.L)
    h = _sector_hamiltonian(model.L, reps, sidx, orbit)
    if len(reps) < _SECTOR_DENSE_DIM:
        theta, vecs = np.linalg.eigh(h.toarray())
    else:
        v0 = np.random.default_rng(_LANCZOS_SEED).standard_normal(len(reps))
        try:
            theta, vecs = eigsh(h, k=2, which="SA", v0=v0, tol=_LANCZOS_TOL)
        except ArpackNoConvergence as exc:
            raise LanczosError(f"no convergence: {exc}") from exc
    if theta[1] - theta[0] < 1e-10:
        raise LanczosError(
            f"Ritz gap {theta[1] - theta[0]:.3e} below 1e-10; refusing to "
            "return a possibly mixed eigenvector"
        )
    return (vecs[:, 0] / np.sqrt(orbit))[sidx]


def ground_state(model: TfimModel) -> GroundStateResult:
    """Lowest eigenpair of the chain, solved in its symmetry sector (3 <= L <= 24).

    The returned state is real (float64), normalized, and sign-fixed so the
    largest-magnitude amplitude is positive; the residual satisfies
    ||H psi - E psi|| <= 1e-8.
    """
    L = model.L
    if L < 3:
        raise ValueError("the sector solver needs L >= 3 (L=2 double-counts the bond)")
    if L > LANCZOS_MAX_SITES:
        raise ValueError(f"the sector solver is capped at L <= {LANCZOS_MAX_SITES}")
    psi = _lanczos_lowest(model)
    psi /= np.linalg.norm(psi)
    psi *= np.sign(psi[np.argmax(np.abs(psi))])
    hpsi = apply_hamiltonian(model, psi)
    energy = float(psi @ hpsi)
    hpsi -= energy * psi
    residual = float(np.linalg.norm(hpsi))
    if residual > _RESIDUAL_BOUND:
        raise LanczosError(f"residual {residual:.3e} above bound {_RESIDUAL_BOUND}")
    return GroundStateResult(energy=energy, state=psi, residual=residual)


@contextmanager
def atomic_write(path):
    """Binary file whose contents replace `path` when the block exits without error.

    The bytes go to a new file beside `path`, renamed over it at the end, so a
    failed or interrupted write leaves any old file intact.  The file is
    created with mode 0666 minus the umask, as a plain open() would.
    """
    tmp = f"{path}.{os.getpid()}.{os.urandom(4).hex()}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def save_ground_state(path, result: GroundStateResult):
    """Write the binary cache record through `atomic_write`: magic, version u32,
    L u32, energy f64, real amplitudes as f64.
    """
    L = num_sites(result.state)
    if np.iscomplexobj(result.state):
        raise ValueError("cache records hold real amplitudes; the state is complex")
    with atomic_write(path) as fh:
        fh.write(_CACHE_HEADER.pack(CACHE_MAGIC, CACHE_VERSION, L, result.energy))
        fh.write(np.ascontiguousarray(result.state, dtype="<f8"))  # the buffer, not a copy


def load_ground_state(path) -> GroundStateResult:
    """Read a cache record back; recomputes the residual as an integrity check."""
    with open(path, "rb") as fh:
        head = fh.read(_CACHE_HEADER.size)
        if len(head) != _CACHE_HEADER.size:
            raise ValueError(f"{path}: truncated header")
        magic, version, L, energy = _CACHE_HEADER.unpack(head)
        if magic != CACHE_MAGIC:
            raise ValueError(f"{path}: bad magic {magic!r}")
        if version != CACHE_VERSION:
            raise ValueError(f"{path}: unsupported version {version}")
        state = np.fromfile(fh, dtype="<f8").astype(np.float64, copy=False)
    if len(state) != 2**L:
        raise ValueError(f"{path}: expected 2^{L} amplitudes, found {len(state)}")
    hpsi = apply_hamiltonian(TfimModel(L), state)
    residual = float(np.linalg.norm(hpsi - energy * state))
    return GroundStateResult(energy=energy, state=state, residual=residual)


def cache_path(cache_dir, L):
    return os.path.join(cache_dir, f"tfgs_L{L:02d}.bin")
