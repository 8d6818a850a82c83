"""Independent references for the rabispec benchmark.

Nothing here imports rabispec.  The eigenvalues come from a banded
Fock (x) spin eigensolve of

    H = a^dag a + g sigma_x (a^dag + a) + delta sigma_z + eps sigma_x

(omega = 1) in the interleaved basis (n, down), (n, up), which has three
superdiagonals.  Every solve is repeated at a larger cutoff and accepted only
when the two agree.  The exceptional energies, the N = 1 and N = 2 locus
relations and the crossing condition are the paper's closed forms.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.linalg import eig_banded

CUTOFF_AGREE = 1e-11      # two cutoffs must give the same eigenvalues to this
MAX_CUTOFF = 4000


class UncertifiedError(RuntimeError):
    """The reference could not certify its own result."""


def lower_bound(g: float, delta: float, eps: float) -> float:
    """-g^2 - sqrt(delta^2 + eps^2): no eigenvalue lies below it.

    H = (a + g sigma_x)^dag (a + g sigma_x) - g^2 + delta sigma_z + eps sigma_x.
    """
    return -g * g - math.hypot(delta, eps)


def banded_hamiltonian(g: float, delta: float, eps: float, n_c: int) -> np.ndarray:
    """Upper banded storage (4 rows) of H for Fock states n = 0..n_c."""
    dim = 2 * (n_c + 1)
    n = np.arange(n_c + 1, dtype=float)
    ab = np.zeros((4, dim))
    ab[3, 0::2] = n - delta                       # (n, down)
    ab[3, 1::2] = n + delta                       # (n, up)
    ab[2, 1::2] = eps                             # (n, down) - (n, up)
    hop = g * np.sqrt(n[1:])                      # sqrt(n + 1) for n = 0..n_c-1
    ab[2, 2::2] = hop                             # (n, up) - (n+1, down)
    ab[0, 3::2] = hop                             # (n, down) - (n+1, up)
    return ab


def banded_matvec(ab: np.ndarray, v: np.ndarray) -> np.ndarray:
    """H v for a symmetric matrix in upper banded storage."""
    u = ab.shape[0] - 1
    out = ab[u] * v
    for k in range(1, u + 1):
        band = ab[u - k, k:]
        out[:-k] += band * v[k:]
        out[k:] += band * v[:-k]
    return out


def _cutoff_for(g: float, e_max: float) -> int:
    # a level at energy E occupies displaced-oscillator numbers up to about
    # E + g^2; in the undisplaced basis that reaches (sqrt(E + g^2) + g)^2,
    # plus a margin for the Gaussian tail
    reach = (math.sqrt(max(e_max + g * g, 0.0) + 1.0) + g) ** 2
    return int(math.ceil(reach + 12.0 * math.sqrt(reach) + 30.0))


def _solve(g, delta, eps, n_c, lo, hi):
    ab = banded_hamiltonian(g, delta, eps, n_c)
    return eig_banded(ab, lower=False, eigvals_only=True, select="v",
                      select_range=(lo, hi))


def eigenvalues(g: float, delta: float, eps: float, e_min: float,
                e_max: float) -> np.ndarray:
    """Every eigenvalue in [e_min, e_max], ascending, certified by two cutoffs.

    The solve runs over a slightly wider range than asked so that a level on
    the window edge cannot enter at one cutoff and leave at the other.
    """
    if not e_min < e_max:
        raise ValueError(f"need e_min < e_max, got [{e_min}, {e_max}]")
    margin = 1e-6
    lo, hi = e_min - margin, e_max + margin
    n_c = _cutoff_for(abs(g), hi)
    while n_c <= MAX_CUTOFF:
        a = _solve(g, delta, eps, n_c, lo, hi)
        n_big = n_c + n_c // 2 + 20
        b = _solve(g, delta, eps, n_big, lo, hi)
        if a.size == b.size and (a.size == 0 or np.max(np.abs(a - b)) <= CUTOFF_AGREE):
            return b[(b >= e_min) & (b <= e_max)]
        n_c = 2 * n_c
    raise UncertifiedError(f"no cutoff up to {MAX_CUTOFF} certifies "
                         f"(g, delta, eps) = ({g}, {delta}, {eps})")


def exceptional_energy(N: int, branch: str, g: float, eps: float) -> float:
    """The paper's exceptional energy E = N - g^2 +- eps."""
    sign = {"plus": 1.0, "minus": -1.0}[branch]
    return N - g * g + sign * eps


def candidate_energies(g: float, eps: float, e_min: float, e_max: float):
    """Every N - g^2 +- eps (N >= 0) inside [e_min, e_max]."""
    out = []
    for N in range(0, int(math.ceil(e_max + g * g + abs(eps))) + 2):
        for branch in ("plus", "minus"):
            E = exceptional_energy(N, branch, g, eps)
            if e_min <= E <= e_max:
                out.append(E)
    return sorted(out)


def relation(N: int, branch: str, g: float, delta: float, eps: float) -> float:
    """Residual of the N = 1 and N = 2 locus relations.

    N = 1: delta^2 + 4 g^2 = 1 +- 2 eps.
    N = 2: 64 g^2 + delta^4 + 4 delta^2 + 4 = (16 g^2 + 3 delta^2 -+ 8 eps - 6)^2.
    """
    s = {"plus": 1.0, "minus": -1.0}[branch]
    g2, d2 = g * g, delta * delta
    if N == 1:
        return d2 + 4.0 * g2 - 1.0 - 2.0 * s * eps
    if N == 2:
        return 64.0 * g2 + (d2 + 2.0) ** 2 - (16.0 * g2 + 3.0 * d2 - 8.0 * s * eps - 6.0) ** 2
    raise ValueError(f"no closed-form relation for N = {N}")


def loci_along_g(N: int, branch: str, delta: float, eps: float,
                 g_lo: float, g_hi: float):
    """Every g in [g_lo, g_hi] on the N = 1 or N = 2 locus, ascending."""
    s = {"plus": 1.0, "minus": -1.0}[branch]
    d2 = delta * delta
    if N == 1:
        u_roots = [(1.0 + 2.0 * s * eps - d2) / 4.0]
    elif N == 2:
        # the relation is quadratic in u = g^2:
        # 256 u^2 + (32 A - 64) u + A^2 - (delta^2 + 2)^2 = 0
        A = 3.0 * d2 - 8.0 * s * eps - 6.0
        u_roots = _quadratic_roots(256.0, 32.0 * A - 64.0, A * A - (d2 + 2.0) ** 2)
    else:
        raise ValueError(f"no closed-form locus for N = {N}")
    gs = [math.sqrt(u) for u in u_roots if u > 0.0]
    return sorted(g for g in gs if g_lo <= g <= g_hi)


def loci_along_eps(N: int, branch: str, g: float, delta: float,
                   eps_lo: float, eps_hi: float):
    """Every eps in [eps_lo, eps_hi] on the N = 1 or N = 2 locus, ascending."""
    s = {"plus": 1.0, "minus": -1.0}[branch]
    g2, d2 = g * g, delta * delta
    if N == 1:
        roots = [s * (d2 + 4.0 * g2 - 1.0) / 2.0]
    elif N == 2:
        # 16 g^2 + 3 delta^2 - 6 - 8 s eps = +-sqrt(R)
        R = 64.0 * g2 + (d2 + 2.0) ** 2
        base = 16.0 * g2 + 3.0 * d2 - 6.0
        roots = [s * (base - r) / 8.0 for r in (math.sqrt(R), -math.sqrt(R))]
    else:
        raise ValueError(f"no closed-form locus for N = {N}")
    return sorted(e for e in roots if eps_lo <= e <= eps_hi)


def _quadratic_roots(a: float, b: float, c: float):
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        return []
    r = math.sqrt(disc)
    # the stable pair of formulas avoids cancellation in the smaller root
    q = -0.5 * (b + math.copysign(r, b))
    roots = [q / a]
    if q != 0.0:
        roots.append(c / q)
    return sorted(roots)


def crossing(delta: float, N1: int, N2: int, g_lo: float, g_hi: float):
    """(eps*, g*, E*) of the (N1, plus) / (N2, minus) crossing, or None.

    The two exceptional energies N1 - g^2 + eps and N2 - g^2 - eps coincide
    only at eps* = (N2 - N1)/2; g* is the lowest root in range of the N1
    plus-branch relation there (N1 = 1 gives g* = sqrt(1 + 2 eps* - delta^2)/2,
    so (1, 2) gives sqrt(2 - delta^2)/2).
    """
    eps_star = 0.5 * (N2 - N1)
    roots = loci_along_g(N1, "plus", delta, eps_star, g_lo, g_hi)
    if not roots:
        return None
    g_star = roots[0]
    return eps_star, g_star, exceptional_energy(N1, "plus", g_star, eps_star)


def state_residual(g: float, delta: float, eps: float, energy: float,
                   amplitudes: np.ndarray) -> float:
    """||H v - E v|| / ||v|| for Fock amplitudes of shape (n_c + 1, 2).

    The columns are (down, up), matching the interleaved basis.
    """
    amps = np.asarray(amplitudes, dtype=float)
    n_c = amps.shape[0] - 1
    v = amps.reshape(-1)
    ab = banded_hamiltonian(g, delta, eps, n_c)
    r = banded_matvec(ab, v) - energy * v
    return float(np.linalg.norm(r) / np.linalg.norm(v))
