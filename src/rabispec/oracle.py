"""Independent cross-check: dense diagonalization in a truncated Fock basis.

The Hamiltonian a^dag a + g sigma_x (a^dag + a) + delta sigma_z
+ eps sigma_x (reduced units) is assembled in the interleaved basis
(n, down), (n, up) for n = 0..n_c, which keeps the matrix banded with
bandwidth 3, and diagonalized with a dense symmetric eigensolver.  The cutoff
starts small and is doubled until the requested low-lying eigenvalues agree.

``count_in`` counts eigenvalues in a window without computing any, from the
inertia of the 2x2 block Schur complements of H - sigma (Sylvester's law and
Haynsworth's inertia additivity: a block Sturm count, O(n_c) per shift).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .model import RabiParams

DEGENERACY_TOL = 1e-8
N_C_CAP = 2048
PIVOT_SHIFT = 1e-100    # a pivot block with |det| below its square moves down by it


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
    A k above 2 (N_C_CAP + 1), the dimension of the capped basis, raises
    ValueError before any solve.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k > 2 * (N_C_CAP + 1):
        raise ValueError(f"k = {k} exceeds the {2 * (N_C_CAP + 1)} states of the "
                         f"basis at the cutoff cap {N_C_CAP}")
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


def index_bound(g, delta, epsilon, e_max):
    """2 (e_max + g^2 + |delta| + |eps| + 2), elementwise: the eigenvalue of
    index ceil(bound) - 1 lies at least 0.5 above e_max at any cutoff.

    Without delta sigma_z the levels are n - g^2 +- eps, so by Weyl's
    inequality eigenvalue i lies at or above floor(i/2) - g^2 - |eps| -
    |delta|; truncated eigenvalues lie above the exact ones."""
    return 2.0 * (e_max + g * g + np.abs(delta) + np.abs(epsilon) + 2.0)


def eigen_in_window(p: RabiParams, e_min: float, e_max: float) -> OracleResult:
    """The eigenvalues inside [e_min, e_max] (reduced units), from ``eigen``
    for the ``index_bound`` lowest.

    converged_count counts those of them that ``eigen`` reports converged,
    i.e. whose index in its ascending list is below its converged_count.  A
    window whose ``index_bound`` exceeds the capped basis raises ``eigen``'s
    ValueError.
    """
    k = max(4, math.ceil(index_bound(p.g, p.delta, p.epsilon, e_max)))
    res = eigen(p, k)
    sel = (res.eigenvalues >= e_min) & (res.eigenvalues <= e_max)
    return OracleResult(eigenvalues=res.eigenvalues[sel], eigenvectors=None,
                        cutoff_used=res.cutoff_used,
                        converged_count=int(np.count_nonzero(sel[:res.converged_count])))


def count_in(g, delta, epsilon, lo, hi) -> np.ndarray:
    """Converged eigenvalues in [lo, hi], elementwise over broadcast arrays.

    The count below sigma is the number of negative eigenvalues of the Schur
    complements S_0 = D_0 - sigma, S_n = D_n - sigma - g^2 n X S_{n-1}^-1 X
    of the blocks (n, down), (n, up), with D_n = [[n - delta, eps],
    [eps, n + delta]] and X the spin swap.  A singular pivot moves down by
    PIVOT_SHIFT, so an eigenvalue on sigma counts as below it.  The cutoff
    starts at the batch's largest ``index_bound`` up to hi (at least 16) and
    doubles until the counts below lo and below hi agree at two consecutive
    cutoffs, within N_C_CAP; an element that never agrees, or has lo > hi,
    counts 0.
    """
    g, delta, epsilon, lo, hi = np.broadcast_arrays(
        *(np.asarray(v, dtype=float) for v in (g, delta, epsilon, lo, hi)))
    out = np.zeros(g.shape, dtype=int)
    if g.size == 0:
        return out
    k = np.ceil(index_bound(g, delta, epsilon, hi)).max()
    n_c = min(max(16, int(k)), N_C_CAP)
    idx = np.arange(g.size)
    # rows: the shift lo, the shift hi; columns: elements
    g2, de, ep = (v.reshape(1, -1) for v in (g * g, delta, epsilon))
    sig = np.stack([lo.ravel(), hi.ravel()])
    a, d, b = -de - sig, de - sig, np.broadcast_to(ep, sig.shape)
    det = a * d - b * b
    below, prev, n = np.zeros(sig.shape, dtype=int), np.full(sig.shape, -1), 0
    while True:
        tiny = np.abs(det) < PIVOT_SHIFT ** 2
        if tiny.any():
            det = np.where(tiny, det - PIVOT_SHIFT * (a + d) + PIVOT_SHIFT ** 2, det)
            a, d = a - PIVOT_SHIFT * tiny, d - PIVOT_SHIFT * tiny
        below += np.where(det < 0, 1, np.where(a + d < 0, 2, 0))
        if n == n_c:
            agree = (below == prev).all(axis=0)
            out.flat[idx[agree]] = np.maximum(below[1] - below[0], 0)[agree]
            idx, keep = idx[~agree], ~agree
            g2, de, ep, sig, a, d, b, det, below = (
                v[:, keep] for v in (g2, de, ep, sig, a, d, b, det, below))
            if idx.size == 0 or 2 * n_c > N_C_CAP:
                return out
            prev, n_c = below.copy(), 2 * n_c
        n += 1
        ca, cd = n - de - sig, n + de - sig
        t = g2 * n / det
        # det S_n without forming the products of two large entries
        det = ca * cd - ep * ep + t * (g2 * n - cd * a - ca * d - 2.0 * ep * b)
        a, d, b = ca - t * a, cd - t * d, ep + t * b


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
