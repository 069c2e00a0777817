"""Critical transverse-field Ising chain, H = -sum_j (Z_j Z_{j+1} + X_j), periodic.

The couplings are fixed at unit strength, so the chain is its length L:
every function here takes the integer L, as `renyimi.oracle` and
`experiments.cached_ground_state` do.  The ground state lies in the
momentum-0, spin-flip-even (prod X = +1) sector, and it is even under the
site reversal j -> L - 1 - j, which commutes with H too.  `ground_state`, the
one solver function, builds the sector of the shifts, the complement and the
reversal from its orbit representatives alone (`spin._sector_basis`, about
2^L / 4L states; no table of 2^L labels), solves it by a thick-restart
Lanczos method on its bond diagonal and site-flip table (numpy alone, no stored
matrix, and no random start: it starts from the paramagnet |+>^L, so the solve
is bit-reproducible and imports no `numpy.random`), fixes the sign on the sector
vector and returns one amplitude per orbit, which is also the cache record.
The orbit table is a function of L alone, cached once per process: the
solver, the loader and `_expand` each look it up by L, and none passes it
on.  `GroundStateResult.state` expands the amplitudes on first read to the
2^L float64 amplitudes, real and exactly shift-, flip- and
reversal-invariant by construction.  The full-space checks are `renyimi.oracle.dense_ground_state` and `apply_hamiltonian`.
"""

from __future__ import annotations

import os
import struct
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .spin import _LABEL_BLOCK_BITS, _canonical, _reverse, _rotate, _sector_basis

LANCZOS_MAX_SITES = 24
_SECTOR_DENSE_DIM = 64  # smaller sectors (L <= 11) take a dense eigh
_LANCZOS_NCV = 20  # Lanczos basis rows before a restart, ARPACK's default for two levels
# relative Ritz tolerance: from |+>^L, 56 sector products at L=15, 83 at L=20,
# 92 at 22 and 101 at 24
_LANCZOS_TOL = 1e-14
_LANCZOS_MAX_PRODUCTS = 2000  # sector products before the solve gives up
_RESIDUAL_BOUND = 1e-8  # hard postcondition on any returned ground state
# sector rows per block, in bits, of `_sector_product`'s flip gathers: the
# gather buffer of one vector is 128 KB whatever the sector's size, and the
# Lanczos restart rotates its kept rows through a temporary of the same size
_BLOCK_BITS = 14

CACHE_MAGIC = b"TFGS"
CACHE_VERSION = 6
_CACHE_HEADER = struct.Struct("<4sIId")  # magic, version, L, energy


class LanczosError(RuntimeError):
    """The sector solve did not converge, its Ritz gap collapsed or its residual passed the bound."""


@dataclass(frozen=True)
class GroundStateResult:
    """A ground state of the ring of L sites as its sector vector: what its
    cache record holds, L, the energy and the sign-fixed amplitude `amp` of
    each orbit of `_sector_basis(L)` in the order of its representatives,
    and the sector residual that the solve or the load computed.  The orbit
    table is looked up by L, not held.  `state`, the normalized 2^L float64
    amplitudes, is expanded on first read and kept."""

    L: int
    energy: float
    residual: float
    amp: np.ndarray

    @cached_property
    def state(self):
        psi = _expand(self.L, self.amp)
        psi /= np.linalg.norm(psi)
        return psi


def _bond_diagonal(L, labels):
    """-sum_j z_j z_{j+1} = -(L - 2 * #antiparallel bonds) on the configurations `labels`."""
    rot = _rotate(labels, L)
    rot ^= labels
    # in place: one float64 array of len(labels), no temporary beside it
    diag = np.bitwise_count(rot).astype(np.float64)
    diag *= 2.0
    diag -= float(L)
    return diag


def _sector_hamiltonian(L):
    """H = D - S A S^-1 on the normalised orbit sums, as (diag, flips, sq).

    D is the bond diagonal, S = diag(sq) the square roots of the orbit sizes and A
    the 0/1 site-flip adjacency: flips[j, i] is the orbit `index` of
    `_canonical(reps[i] ^ 1 << j)` (an orbit met twice counts twice), for the
    representatives, sizes and `index` of the cached `_sector_basis(L)`.  The
    flip table itself is built per call and not kept (34 MB at L=24).
    """
    reps, orbit, index = _sector_basis(L)
    flips = np.empty((L, len(reps)), dtype=np.intp)  # intp: `take` converts any other index type
    # flips per `_canonical` call, up to one block of its labels: the L=9 table took
    # 1.1 ms with one call per flip and 0.35 ms with one call (fresh processes)
    step = max(1, (1 << _LABEL_BLOCK_BITS) // len(reps))
    for j in range(0, L, step):
        rows = flips[j : j + step]
        bits = np.left_shift(1, np.arange(j, j + len(rows), dtype=reps.dtype))
        rows.reshape(-1)[:] = index(_canonical(np.bitwise_xor(reps, bits[:, None]).ravel(), L))
    return _bond_diagonal(L, reps), flips, np.sqrt(orbit.astype(np.float64))


def _sector_product(h, v):
    """H v = diag v - sq sum_j u[flips[j]], u = v / sq, for v of shape (dim,) or (dim, m).

    Summed in blocks of 2^_BLOCK_BITS rows, each flip gathered into one cached buffer.
    """
    diag, flips, sq = h
    sq = sq.reshape((-1,) + (1,) * (v.ndim - 1))
    u = v / sq
    acc = np.zeros_like(u)
    buf = np.empty_like(u[: 1 << _BLOCK_BITS])
    for lo in range(0, len(u), len(buf)):
        a = acc[lo : lo + len(buf)]
        for f in flips[:, lo : lo + len(a)]:  # mode "raise" would buffer `out` again
            a += np.take(u, f, axis=0, out=buf[: len(a)], mode="clip")
    return diag.reshape(sq.shape) * v - sq * acc


def _expand(L, amp):
    """The 2^L amplitudes that hold amp[i] on every label of orbit i of `_sector_basis(L)`.

    amp is scattered to the L shifts of each representative and then to
    those of its reversal, each folded into the low half of the labels by
    the complement (min(s, s ^ mask)), through two reused label buffers;
    the high half is then the low half reversed, as psi(s^) = psi(s) and
    s ^ mask = mask - s.
    """
    reps = _sector_basis(L)[0]
    mask = (1 << L) - 1
    psi = np.empty(1 << L)
    low = psi[: 1 << (L - 1)]
    cur, spare = reps.copy(), np.empty_like(reps)
    for _ in range(2):
        for _ in range(L):
            np.bitwise_xor(cur, mask, out=spare)
            np.minimum(cur, spare, out=spare)
            low[spare] = amp
            _rotate(cur, L, out=cur, spare=spare)
        cur = _reverse(cur, L)  # L shifts took cur back to reps
    psi[len(low) :] = low[::-1]
    return psi


def _sector_residual(h, amp, energy):
    """||H x - E x||, x = amp * sqrt(orbit) normalized: ||H psi - E psi|| of the expanded
    state in exact arithmetic (the expansion is an isometry that commutes with H)."""
    x = amp * h[2]
    x /= np.linalg.norm(x)
    r = _sector_product(h, x)
    r -= energy * x
    return float(np.linalg.norm(r))


def _lanczos(h, v0):
    """The two lowest eigenpairs of the sector Hamiltonian h by thick-restart Lanczos.

    K. Wu and H. Simon, SIAM J. Matrix Anal. Appl. 22, 602 (2000).  The basis
    V holds _LANCZOS_NCV + 1 rows.  Each `_sector_product` h v is orthogonalised
    against every row by classical Gram-Schmidt, a second pass taken only when
    its norm falls below 1/sqrt(2) of its value (the DGKS test), and the
    projections fill the symmetric T.  A restart keeps the 11 lowest Ritz
    vectors, rotated into V's first rows in blocks of 2^_BLOCK_BITS / 11
    columns, so its temporary is the 128 KB of one gather buffer at every
    sector size, and moves the residual vector after them: T is then
    diag(theta) bordered by the projections of the next product.  Converged
    when |beta s_m,i| <= _LANCZOS_TOL |theta_i| for both levels.  Returns the
    two levels and their vectors as columns, as `eigh` does; LanczosError on a
    non-finite beta or theta, or once _LANCZOS_MAX_PRODUCTS products have not converged.
    """
    m = _LANCZOS_NCV
    keep = 2 + (m - 2) // 2
    V = np.empty((m + 1, len(v0)))
    V[0] = v0 / np.linalg.norm(v0)
    T = np.zeros((m, m))
    start = products = 0
    while True:
        for i in range(start, m):
            w = _sector_product(h, V[i])
            products += 1
            before = np.linalg.norm(w)
            c = V[: i + 1] @ w
            w -= c @ V[: i + 1]
            beta = np.linalg.norm(w)
            if beta < before / np.sqrt(2.0):
                d = V[: i + 1] @ w
                w -= d @ V[: i + 1]
                c += d
                beta = np.linalg.norm(w)
            if not np.isfinite(beta):
                raise LanczosError(f"non-finite Lanczos norm after {products} products")
            T[i, : i + 1] = T[: i + 1, i] = c
            V[i + 1] = w / beta
        theta, s = np.linalg.eigh(T)
        if not np.all(np.isfinite(theta)):
            raise LanczosError(f"non-finite Ritz value after {products} products")
        if np.all(np.abs(beta * s[-1, :2]) <= _LANCZOS_TOL * np.abs(theta[:2])):
            return theta[:2], V[:m].T @ s[:, :2]
        if products >= _LANCZOS_MAX_PRODUCTS:
            raise LanczosError(f"no convergence after {products} products")
        n = (1 << _BLOCK_BITS) // keep
        for lo in range(0, V.shape[1], n):
            V[:keep, lo : lo + n] = s[:, :keep].T @ V[:m, lo : lo + n]
        V[keep] = V[m]
        T[:] = 0.0
        np.fill_diagonal(T[:keep, :keep], theta[:keep])
        start = keep


def ground_state(L) -> GroundStateResult:
    """Lowest eigenpair of the ring of L sites, solved in its symmetry sector (3 <= L <= 24).

    `_lanczos` solves the momentum-0, flip-even, reversal-even sector of
    `_sector_basis` from sq = sqrt(orbit), the sector coordinates of the
    paramagnet |+>^L; sectors below _SECTOR_DENSE_DIM states take a dense
    `eigh` of the `_sector_product` of the identity.  The sector matrix is
    stoquastic and connected (S. Bravyi et al., quant-ph/0606140), so the
    ground vector has one sign: its overlap with the positive sq is nonzero
    for certain, where a random start's is nonzero only almost surely.  The
    energy is the unit sector vector's Rayleigh quotient.  The sign is read
    on the sector: an orbit's labels share its amplitude and its
    representative is its least label, so the first largest |amp| is the
    first largest |psi| (the vector has one sign, and no tie can flip it).
    No 2^L array is formed; `GroundStateResult.state` expands the
    amplitudes, real (float64), normalized and positive.  LanczosError if the
    solve does not converge or meets a non-finite value, if the gap to the
    next sector level is below 1e-10 (the critical ring's ground state is
    unique, so a collapsed gap is a broken iteration) or if the
    `_sector_residual` ||H x - E x|| > 1e-8; a NaN fails both.
    """
    if L < 3:
        raise ValueError("the sector solver needs L >= 3 (L=2 double-counts the bond)")
    if L > LANCZOS_MAX_SITES:
        raise ValueError(f"the sector solver is capped at L <= {LANCZOS_MAX_SITES}")
    h = _sector_hamiltonian(L)
    dim = len(h[0])
    if dim < _SECTOR_DENSE_DIM:
        theta, vecs = np.linalg.eigh(_sector_product(h, np.eye(dim)))
    else:
        theta, vecs = _lanczos(h, h[2])
    if not theta[1] - theta[0] >= 1e-10:
        raise LanczosError(
            f"Ritz gap {theta[1] - theta[0]:.3e} below 1e-10; refusing to "
            "return a possibly mixed eigenvector"
        )
    x = vecs[:, 0] / np.linalg.norm(vecs[:, 0])
    energy = float(x @ _sector_product(h, x))
    amp = vecs[:, 0] / h[2]  # sq = sqrt(orbit)
    amp *= np.sign(amp[np.argmax(np.abs(amp))])
    residual = _sector_residual(h, amp, energy)
    if not residual <= _RESIDUAL_BOUND:
        raise LanczosError(f"residual {residual:.3e} above bound {_RESIDUAL_BOUND}")
    return GroundStateResult(L=L, energy=energy, residual=residual, amp=amp)


@contextmanager
def atomic_write(path):
    """Binary file whose contents replace `path` when the block exits without error.

    The bytes go to a new file of a short name beside `path`, renamed over it
    at the end, so a failed or interrupted write leaves any old file intact.
    It is created with mode 0666 minus the umask, as a plain open() would.
    """
    tmp = os.path.join(os.path.dirname(path), f"{os.getpid()}.{os.urandom(4).hex()}.tmp")
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
    L u32, energy f64, then the real orbit amplitudes `amp` as f64.
    """
    if np.iscomplexobj(result.amp):
        raise ValueError("cache records hold real amplitudes; the orbit amplitudes are complex")
    with atomic_write(path) as fh:
        fh.write(_CACHE_HEADER.pack(CACHE_MAGIC, CACHE_VERSION, result.L, result.energy))
        fh.write(np.ascontiguousarray(result.amp, dtype="<f8"))  # the buffer, not a copy


def load_ground_state(path) -> GroundStateResult:
    """Read a cache record back; recomputes the residual as an integrity check.

    The header's L must lie in 3..LANCZOS_MAX_SITES before the sector basis
    is looked up (so a record adds no cached table of an L the solver
    refuses), and the file hold one amplitude per orbit.  The residual is
    the `_sector_residual` that `ground_state` takes and bounds, so a record
    loads with the residual it was solved with; one past the bound is a ValueError.
    """
    with open(path, "rb") as fh:
        head = fh.read(_CACHE_HEADER.size)
        if len(head) != _CACHE_HEADER.size:
            raise ValueError(f"{path}: truncated header")
        magic, version, L, energy = _CACHE_HEADER.unpack(head)
        if magic != CACHE_MAGIC:
            raise ValueError(f"{path}: bad magic {magic!r}")
        if version != CACHE_VERSION:
            raise ValueError(f"{path}: unsupported version {version}")
        if not 3 <= L <= LANCZOS_MAX_SITES:
            raise ValueError(f"{path}: L={L} outside 3..{LANCZOS_MAX_SITES}")
        dim = len(_sector_basis(L)[0])
        # the file size decides, before any read: np.fromfile would drop a partial amplitude
        size = os.fstat(fh.fileno()).st_size
        if size != _CACHE_HEADER.size + 8 * dim:
            raise ValueError(f"{path}: expected {dim} amplitudes, found {size} bytes")
        amp = np.fromfile(fh, dtype="<f8").astype(np.float64, copy=False)
    residual = _sector_residual(_sector_hamiltonian(L), amp, energy)
    if not residual <= _RESIDUAL_BOUND:  # nan fails as well
        raise ValueError(f"{path}: residual {residual:.3e} above bound {_RESIDUAL_BOUND}")
    return GroundStateResult(L=L, energy=energy, residual=residual, amp=amp)


def cache_path(cache_dir, L):
    return os.path.join(cache_dir, f"tfgs_L{L:02d}.bin")
