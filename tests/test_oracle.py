import math

import numpy as np
import pytest

from rabispec import oracle
from rabispec.model import RabiParams
from rabispec.oracle import (SpinFockState, build_hamiltonian, count_in, eigen,
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
    res = eigen_in_window(p, -1.5, 1.5)
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


def _random_point(rng, i):
    # g up to 3, and every third point unbiased (eps = 0: two parity chains)
    return RabiParams(g=rng.uniform(0.0, 3.0), delta=rng.uniform(-1.5, 1.5),
                      epsilon=0.0 if i % 3 == 0 else rng.uniform(-1.0, 1.0))


def _dense_count(p, n_c, lo, hi):
    vals = np.linalg.eigvalsh(build_hamiltonian(p, n_c))
    return np.searchsorted(vals, hi, side="right") - np.searchsorted(vals, lo)


def test_count_in_matches_dense_eigenvalues():
    # low-lying windows, converged at n_c = 96 for g <= 3: the block Sturm
    # count equals the dense count at thousands of random shifts per point
    rng = np.random.default_rng(11)
    for i in range(60):
        p = _random_point(rng, i)
        e0 = -p.g ** 2 - math.hypot(p.delta, p.epsilon)
        lo, hi = np.sort(rng.uniform(e0 - 1.0, e0 + 12.0, (2, 2000)), axis=0)
        got = count_in(p.g, p.delta, p.epsilon, lo, hi)
        assert got.shape == lo.shape and got.dtype.kind == "i"
        np.testing.assert_array_equal(got, _dense_count(p, 96, lo, hi), err_msg=str(p))


def test_count_in_singular_pivots_do_not_warn():
    # shifts on a pivot (det S_n = 0): g = 0, a zero first block, eps = 0
    # chains, the first block's eigenvalues at g > 0, and eigenvalues of a
    # truncated Hamiltonian (a later pivot); pytest turns any warning into an
    # error, and the count may take the eigenvalue on the shift either way
    cases = [(0.0, 0.8, 0.0, 0.2), (0.3, 0.0, 0.0, 0.0), (0.5, 0.8, 0.0, -0.8),
             (0.0, 0.0, 0.0, 0.0), (0.0, 0.3, 0.4, 1.5), (0.4, 0.3, 0.4, 0.5),
             (0.4, 0.3, 0.4, -0.5), (1.2, 0.0, 0.0, -1.44)]
    for g, d, e in [(0.4, 0.3, 0.4), (1.1, 0.8, 0.0), (0.0, 0.5, 0.2)]:
        for n in (1, 2, 5):
            cases += [(g, d, e, s) for s in
                      np.linalg.eigvalsh(build_hamiltonian(RabiParams(g, d, e), n))[:4]]
    for g, d, e, s in cases:
        vals = np.linalg.eigvalsh(build_hamiltonian(RabiParams(g, d, e), 128))
        got = int(count_in(g, d, e, -50.0, s))
        assert (np.searchsorted(vals, s - 1e-9) <= got
                <= np.searchsorted(vals, s + 1e-9, side="right")), (g, d, e, s)


def _first_cutoff(p, hi):
    k = max(4, math.ceil(2.0 * (hi + p.g * p.g + p.delta + abs(p.epsilon) + 2.0)))
    return max(16, k)


def test_count_in_matches_four_times_its_cutoff():
    # counts that agree at two consecutive cutoffs must be converged: find the
    # cutoff count_in accepts by its rule, with dense counts, and compare with
    # a basis four times larger
    rng = np.random.default_rng(7)
    for i in range(16):
        p = _random_point(rng, i)
        lo = rng.uniform(-2.0, 6.0)
        hi = lo + rng.uniform(1e-6, 2.0)
        n_c = _first_cutoff(p, hi)
        prev = _dense_count(p, n_c, lo, hi)
        while True:
            n_c *= 2
            cur = _dense_count(p, n_c, lo, hi)
            if cur == prev:
                break
            prev = cur
        assert count_in(p.g, p.delta, p.epsilon, lo, hi) == cur, (p, lo, hi)
        assert _dense_count(p, 4 * n_c, lo, hi) == cur, (p, lo, hi, n_c)


def test_count_in_batch_independent():
    # the batch sets the first cutoff, yet a point's count does not depend on
    # the points counted with it
    rng = np.random.default_rng(3)
    ps = [_random_point(rng, i) for i in range(51)]
    g, d, e = (np.array([getattr(p, f) for p in ps]) for f in ("g", "delta", "epsilon"))
    lo = rng.uniform(-4.0, 8.0, 51)
    hi = lo + rng.uniform(0.0, 3.0, 51)
    batch = count_in(g, d, e, lo, hi)
    for i in range(51):
        assert count_in(g[i], d[i], e[i], lo[i], hi[i]) == batch[i]


def test_count_in_empty_batch_and_inverted_window():
    assert count_in([], [], [], [], []).shape == (0,)
    assert count_in(0.8, 0.8, 0.5, [1.0, -1.0], [-1.0, 1.0]).tolist() == [0, 3]


def test_count_in_respects_cap(monkeypatch):
    # a first cutoff at the cap leaves no second one to agree with
    p = RabiParams(g=0.8, delta=0.8, epsilon=0.5)
    assert count_in(p.g, p.delta, p.epsilon, -1.0, 1.0) == 3
    monkeypatch.setattr(oracle, "N_C_CAP", 12)
    assert count_in(p.g, p.delta, p.epsilon, -1.0, 1.0) == 0


def test_delta_reflection_leaves_windows_unchanged():
    # sigma_x H(delta) sigma_x = H(-delta), so the window eigenvalues and the
    # counts cannot depend on the sign of delta; index_bound must take |delta|
    # (its + 2 hides a signed delta up to |delta| ~ 1.5, so these go to 3)
    rng = np.random.default_rng(17)
    g, d, e = rng.uniform(0.1, 2.5, 60), rng.uniform(0.0, 3.0, 60), rng.uniform(-0.5, 0.5, 60)
    lo = -g * g - np.hypot(d, e) - 0.05
    hi = lo + rng.uniform(1.0, 6.0, 60)
    counts = count_in(g, d, e, lo, hi)
    np.testing.assert_array_equal(count_in(g, -d, e, lo, hi), counts)
    for i in range(60):
        a, b = (eigen_in_window(RabiParams(g=g[i], delta=s, epsilon=e[i]), lo[i], hi[i])
                for s in (d[i], -d[i]))
        assert a.converged_count == b.converged_count == b.eigenvalues.size == counts[i]
        np.testing.assert_allclose(b.eigenvalues, a.eigenvalues, rtol=0, atol=1e-9)


def test_eigen_rejects_more_states_than_the_capped_basis(monkeypatch):
    # the capped basis holds 2 (N_C_CAP + 1) = 26 states; asking for 27 must
    # not return 26 values as if they were the 27 lowest
    monkeypatch.setattr(oracle, "N_C_CAP", 12)
    p = RabiParams(g=0.2, delta=0.8, epsilon=0.1)
    with pytest.raises(ValueError, match="cutoff cap 12"):
        eigen(p, 27)
    assert eigen(p, 26).eigenvalues.size == 26
