"""Independent cross-check: dense diagonalization in a truncated Fock basis.

The Hamiltonian a^dag a + g sigma_x (a^dag + a) + delta sigma_z
+ eps sigma_x (reduced units) is assembled in the interleaved basis
(n, down), (n, up) for n = 0..n_c, which keeps the matrix banded with
bandwidth 3, and diagonalized with a dense symmetric eigensolver.  The cutoff
starts small and is doubled until the requested low-lying eigenvalues agree.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .model import RabiParams

DEGENERACY_TOL = 1e-8
N_C_CAP = 2048


@dataclass
class SpinFockState:
    """Normalized amplitudes over (boson number n, spin); spin 0 = down, 1 = up."""

    amplitudes: np.ndarray            # shape (n_c + 1, 2)

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=float)
        if self.amplitudes.ndim != 2 or self.amplitudes.shape[1] != 2:
            raise ValueError("amplitudes must have shape (n_c + 1, 2)")

    @property
    def cutoff(self) -> int:
        return self.amplitudes.shape[0] - 1

    @property
    def norm(self) -> float:
        return float(np.sqrt(np.sum(self.amplitudes ** 2)))

    def flatten(self) -> np.ndarray:
        """Interleaved vector matching the Hamiltonian basis ordering 2n + spin."""
        return self.amplitudes.reshape(-1)


@dataclass
class OracleResult:
    eigenvalues: np.ndarray           # ascending, first k requested
    eigenvectors: Optional[List[SpinFockState]]
    cutoff_used: int
    converged_count: int


def build_hamiltonian(p: RabiParams, n_c: int) -> np.ndarray:
    """Real symmetric matrix of dimension 2(n_c + 1), basis (n, down), (n, up)."""
    if n_c < 1:
        raise ValueError(f"n_c must be >= 1, got {n_c}")
    dim = 2 * (n_c + 1)
    H = np.zeros((dim, dim))
    n = np.arange(n_c + 1)
    down, up = 2 * n, 2 * n + 1
    H[down, down] = n - p.delta
    H[up, up] = n + p.delta
    H[down, up] = H[up, down] = p.epsilon
    c = p.g * np.sqrt(n[1:])              # g <n+1| a^dag |n>, n < n_c
    H[down[:-1], up[1:]] = H[up[1:], down[:-1]] = c
    H[up[:-1], down[1:]] = H[down[1:], up[:-1]] = c
    return H


def _fix_phase(vec: np.ndarray) -> np.ndarray:
    i = int(np.argmax(np.abs(vec)))
    return -vec if vec[i] < 0 else vec


def eigen(p: RabiParams, k: int, tol: float = 1e-9,
          want_vectors: bool = False) -> OracleResult:
    """First k eigenvalues with cutoff-doubling convergence control.

    Starts at n_c = min(max(16, k), N_C_CAP) and doubles until the k lowest
    eigenvalues move by less than tol, which proves them converged since
    truncated eigenvalues fall monotonically with n_c, or N_C_CAP is hit;
    converged_count counts the leading stable ones (0 without a 2nd solve).
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not (tol > 0):
        raise ValueError(f"tol must be positive, got {tol}")
    n_c = min(max(16, k), N_C_CAP)
    vals = np.linalg.eigvalsh(build_hamiltonian(p, n_c))
    converged = 0
    while 2 * n_c <= N_C_CAP:
        vals_next = np.linalg.eigvalsh(build_hamiltonian(p, 2 * n_c))
        stable = 0
        for i in range(k):
            if abs(vals_next[i] - vals[i]) < tol:
                stable += 1
            else:
                break
        n_c, vals, converged = 2 * n_c, vals_next, stable
        if stable >= k:
            break
    vectors = None
    if want_vectors:
        _, vecs = np.linalg.eigh(build_hamiltonian(p, n_c))
        vectors = [SpinFockState(_fix_phase(vecs[:, i]).reshape(-1, 2))
                   for i in range(k)]
    return OracleResult(eigenvalues=np.array(vals[:k]),
                        eigenvectors=vectors, cutoff_used=n_c,
                        converged_count=converged)


def eigen_in_window(p: RabiParams, e_min: float, e_max: float,
                    tol: float = 1e-9) -> OracleResult:
    """The eigenvalues inside [e_min, e_max] (reduced units).

    converged_count counts those of them that ``eigen`` reports converged,
    i.e. whose index in its ascending list is below its converged_count.
    """
    k = max(4, math.ceil(2.0 * (e_max + p.g ** 2 + p.delta + abs(p.epsilon) + 2.0)))
    while True:
        res = eigen(p, k, tol=tol)
        if res.eigenvalues[-1] > e_max or res.converged_count < k:
            break
        k *= 2
    sel = (res.eigenvalues >= e_min) & (res.eigenvalues <= e_max)
    return OracleResult(eigenvalues=res.eigenvalues[sel], eigenvectors=None,
                        cutoff_used=res.cutoff_used,
                        converged_count=int(np.count_nonzero(sel[:res.converged_count])))


def eigenvector_overlap(a: SpinFockState, b: SpinFockState) -> float:
    """|<a|b>| with zero-padding to the larger cutoff; phase-insensitive."""
    va, vb = a.flatten(), b.flatten()
    if va.size < vb.size:
        va = np.pad(va, (0, vb.size - va.size))
    elif vb.size < va.size:
        vb = np.pad(vb, (0, va.size - vb.size))
    na = np.linalg.norm(va)
    nb = np.linalg.norm(vb)
    if na == 0.0 or nb == 0.0:
        raise ValueError("zero-norm state")
    return float(abs(np.dot(va, vb)) / (na * nb))
