import math

import numpy as np
import pytest

from rabispec import oracle
from rabispec.model import RabiParams
from rabispec.oracle import (SpinFockState, build_hamiltonian, eigen,
                             eigen_in_window, eigenvector_overlap)


def test_matrix_symmetric_and_banded():
    p = RabiParams(g=0.3, delta=0.7, epsilon=0.2)
    H = build_hamiltonian(p, 30)
    assert np.array_equal(H, H.T)
    # interleaved ordering keeps couplings within bandwidth 3
    for i in range(H.shape[0]):
        for j in range(H.shape[1]):
            if abs(i - j) > 3:
                assert H[i, j] == 0.0


def test_build_hamiltonian_entries():
    g, d, e = 0.3, 0.7, 0.2
    c1, c2 = g * math.sqrt(1.0), g * math.sqrt(2.0)
    # basis (0, down), (0, up), (1, down), (1, up), (2, down), (2, up)
    expect = np.array([
        [0 - d, e, 0, c1, 0, 0],
        [e, 0 + d, c1, 0, 0, 0],
        [0, c1, 1 - d, e, 0, c2],
        [c1, 0, e, 1 + d, c2, 0],
        [0, 0, 0, c2, 2 - d, e],
        [0, 0, c2, 0, e, 2 + d]])
    H = build_hamiltonian(RabiParams(g=g, delta=d, epsilon=e), 2)
    assert H.shape == expect.shape
    for i in range(6):
        for j in range(6):
            assert H[i, j] == expect[i, j], (i, j)


def test_decoupled_limit_g0_eps0():
    p = RabiParams(g=0.0, delta=0.8, epsilon=0.0)
    vals = np.linalg.eigvalsh(build_hamiltonian(p, 40))
    expect = sorted([n + s * 0.8 for n in range(6) for s in (-1, 1)])
    assert np.allclose(vals[:8], expect[:8], atol=1e-12)


def test_polaron_limit_delta0_eps0():
    p = RabiParams(g=0.35, delta=0.0, epsilon=0.0)
    res = eigen(p, 6, tol=1e-10)
    expect = [0 - p.g ** 2, 0 - p.g ** 2, 1 - p.g ** 2, 1 - p.g ** 2,
              2 - p.g ** 2, 2 - p.g ** 2]
    assert np.allclose(res.eigenvalues, expect, atol=1e-9)


def test_spin_block_limit_g0():
    p = RabiParams(g=0.0, delta=0.8, epsilon=0.1)
    res = eigen(p, 4, tol=1e-11)
    s = math.sqrt(0.8 ** 2 + 0.1 ** 2)
    expect = sorted(n + sg * s for n in range(4) for sg in (-1, 1))[:4]
    assert np.allclose(res.eigenvalues, expect, atol=1e-12)


def test_eigen_convergence_metadata():
    p = RabiParams(g=0.2, delta=0.8, epsilon=0.1)
    res = eigen(p, 4, tol=1e-9)
    assert res.converged_count == 4
    assert res.cutoff_used <= 160
    assert np.all(np.diff(res.eigenvalues) >= 0)


def test_eigen_exceptional_anchor():
    res = eigen(RabiParams(g=0.2, delta=0.8, epsilon=0.1), 4, tol=1e-9)
    assert abs(res.eigenvalues[2] - 0.86) <= 1e-8


def test_eigenvalue_residuals():
    p = RabiParams(g=0.4, delta=0.9, epsilon=0.15)
    res = eigen(p, 5, tol=1e-9, want_vectors=True)
    H = build_hamiltonian(p, res.cutoff_used)
    hnorm = np.abs(np.linalg.eigvalsh(H)).max()
    for lam, state in zip(res.eigenvalues, res.eigenvectors):
        v = state.flatten()
        assert np.linalg.norm(H @ v - lam * v) <= 1e-9 * hnorm


def test_cutoff_monotonicity():
    p = RabiParams(g=0.5, delta=0.8, epsilon=0.1)
    a = np.linalg.eigvalsh(build_hamiltonian(p, 40))[:12]
    b = np.linalg.eigvalsh(build_hamiltonian(p, 80))[:12]
    assert np.all(b <= a + 1e-12)


def test_epsilon_reflection_symmetry():
    a = eigen(RabiParams(g=0.3, delta=0.8, epsilon=0.25), 8, tol=1e-10)
    b = eigen(RabiParams(g=0.3, delta=0.8, epsilon=-0.25), 8, tol=1e-10)
    assert np.max(np.abs(a.eigenvalues - b.eigenvalues)) <= 1e-10


def test_eigen_in_window():
    p = RabiParams(g=0.2, delta=0.8, epsilon=0.1)
    res = eigen_in_window(p, -1.5, 1.5, tol=1e-9)
    assert len(res.eigenvalues) == 4
    assert np.all(res.eigenvalues >= -1.5) and np.all(res.eigenvalues <= 1.5)


def test_overlap_trivial_cases():
    p = RabiParams(g=0.3, delta=0.8, epsilon=0.1)
    res = eigen(p, 3, tol=1e-9, want_vectors=True)
    v0, v1 = res.eigenvectors[0], res.eigenvectors[1]
    assert eigenvector_overlap(v0, v0) == pytest.approx(1.0, abs=1e-12)
    assert eigenvector_overlap(v0, v1) == pytest.approx(0.0, abs=1e-10)


def test_overlap_pads_cutoffs():
    a = SpinFockState(np.array([[1.0, 0.0], [0.0, 0.0]]))
    b = SpinFockState(np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]))
    assert eigenvector_overlap(a, b) == pytest.approx(1.0, abs=1e-15)


def test_validation():
    p = RabiParams(g=0.2, delta=0.8, epsilon=0.1)
    with pytest.raises(ValueError):
        build_hamiltonian(p, 0)
    with pytest.raises(ValueError):
        eigen(p, 0)
    with pytest.raises(ValueError):
        eigen(p, 2, tol=-1.0)


def test_eigen_first_solve_respects_cap(monkeypatch):
    # the first cutoff would be 16; one solve at the cap proves nothing converged
    monkeypatch.setattr(oracle, "N_C_CAP", 12)
    res = eigen(RabiParams(g=0.8, delta=0.8, epsilon=0.5), 10)
    assert res.cutoff_used == 12
    assert res.converged_count == 0


def test_eigen_in_window_counts_only_converged(monkeypatch):
    p = RabiParams(g=0.8, delta=0.8, epsilon=0.5)
    full = eigen_in_window(p, -1.0, 1.0)
    assert full.converged_count == len(full.eigenvalues) == 3
    monkeypatch.setattr(oracle, "N_C_CAP", 12)
    capped = eigen_in_window(p, -1.0, 1.0)
    assert capped.cutoff_used == 12
    assert len(capped.eigenvalues) == 3
    assert capped.converged_count == 0


def test_eigen_matches_four_times_its_cutoff():
    # two agreeing cutoffs must mean converged: compare with a much larger basis
    rng = np.random.default_rng(5)
    for _ in range(24):
        p = RabiParams(g=rng.uniform(0.05, 3.0), delta=rng.uniform(0.1, 1.5),
                       epsilon=rng.uniform(-0.6, 0.6))
        k = int(rng.integers(1, 41))
        res = eigen(p, k)
        assert res.converged_count == k
        ref = np.linalg.eigvalsh(build_hamiltonian(p, 4 * res.cutoff_used))[:k]
        assert np.max(np.abs(res.eigenvalues - ref)) <= 1e-12, (p, k)


def test_eigen_cutoff_ceiling():
    assert eigen(RabiParams(g=0.8, delta=0.8, epsilon=0.5), 10).cutoff_used <= 64
    # a spectra-like window: 4 wide from just below -g^2 - sqrt(delta^2 + eps^2)
    g, d, e = 2.4, 0.77, 0.001
    lo = -g ** 2 - math.hypot(d, e) - 0.05
    res = eigen_in_window(RabiParams(g=g, delta=d, epsilon=e), lo, lo + 4.0)
    assert res.eigenvalues.size == res.converged_count > 0
    assert res.cutoff_used <= 256
