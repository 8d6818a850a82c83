import math
from collections import namedtuple

import numpy as np
import pytest

from rabispec import analytic, heun
from rabispec.analytic import (FIRST, MINUS, PLUS, ROOT_TOL, SECOND, W_EXCL_DEFAULT,
                               ScalePoleError, build_pair, cheb_roots, component_params,
                               eval_component, exceptional_candidates,
                               find_regular_spectra,
                               find_regular_spectrum,
                               refine_brackets, wronskian_grid)
from rabispec.model import RabiParams
from rabispec import oracle

P_EXC = RabiParams(g=0.2, delta=0.8, epsilon=0.1)

Sample = namedtuple("Sample", "w_plus w_minus reliable")


def _scalar_wronskian(E, p):
    """W_+ and W_- at z = 0 from each series built and summed on its own: the
    reference for ``wronskian_grid``.  Unreliable when a scale denominator
    vanishes or a series is neither converged nor truncated, built or summed."""
    try:
        first, second = build_pair(FIRST, E, p), build_pair(SECOND, E, p)
        series = [first.plus_series, first.minus_series,
                  second.plus_series, second.minus_series]
        statuses = ([s.status for s in series]
                    + [heun.eval_series(s, 0.5).status for s in series])
    except (ScalePoleError, heun.DivergentSeriesError):
        return Sample(math.nan, math.nan, False)
    vp1, dp1 = eval_component(first, PLUS, 0.0)
    vm1, dm1 = eval_component(first, MINUS, 0.0)
    vp2, dp2 = eval_component(second, PLUS, 0.0)
    vm2, dm2 = eval_component(second, MINUS, 0.0)
    reliable = all(s in (heun.CONVERGED, heun.TRUNCATED) for s in statuses)
    return Sample(vp2 * dp1 - vp1 * dp2, vm2 * dm1 - vm1 * dm2, reliable)

# diagonalization anchors at delta=0.8, eps=0.1, window [-1.5, 1.5]
ORACLE_LOW = {
    0.1: [-0.8101583893701, 0.17062040966759, 0.82146208060809, 1.15257615737715],
    0.2: [-0.82207586524588, 0.10707325334739, 0.86, 1.04930687111211],
    0.4: [-0.87164074357761, -0.09913413240409, 0.74126474863989, 0.97129589405842],
}


def test_build_pair_statuses_exceptional_point():
    first = build_pair(FIRST, 0.86, P_EXC)
    second = build_pair(SECOND, 0.86, P_EXC)
    assert first.plus_series.status == heun.DIVERGENT
    assert second.plus_series.status == heun.TRUNCATED
    assert second.plus_series.trunc_index == 0
    assert second.minus_series.status == heun.TRUNCATED
    assert second.minus_series.trunc_index == 1
    assert second.scale_plus == pytest.approx(1.0, abs=1e-12)


def test_build_pair_errors():
    with pytest.raises(ValueError):
        build_pair(FIRST, 0.5, RabiParams(g=0.0, delta=0.8, epsilon=0.1))
    # scale denominator E + g^2 + eps = 0
    with pytest.raises(ScalePoleError):
        build_pair(FIRST, -P_EXC.g ** 2 - P_EXC.epsilon, P_EXC)


def test_component_params_rejects_unknown_component():
    with pytest.raises(ValueError, match="unknown component 'bogus'"):
        component_params(FIRST, "bogus", 0.3, RabiParams(0.2, 0.8, 0.1))
    with pytest.raises(ValueError, match="unknown family"):
        component_params("bogus", PLUS, 0.3, RabiParams(0.2, 0.8, 0.1))


def test_eval_component_at_series_origin():
    # z = g makes x1 = 0, where the series equals 1
    p = RabiParams(g=0.3, delta=0.7, epsilon=0.05)
    pair = build_pair(FIRST, 0.4, p)
    v, _ = eval_component(pair, PLUS, p.g)
    assert v == pytest.approx(pair.scale_plus * math.exp(-p.g ** 2), rel=1e-12)


def test_eval_component_exceptional_closed_form():
    pair = build_pair(SECOND, 0.86, P_EXC)
    v, d = eval_component(pair, MINUS, 0.0)
    assert v == pytest.approx(0.9, rel=1e-12)
    # d/dz of (1 - 2g^2/(1-2eps) - 2gz/(1-2eps)) e^{gz} at z = 0
    expect = -2 * 0.2 / 0.8 + 0.2 * 0.9
    assert d == pytest.approx(expect, rel=1e-12)


def test_eval_component_derivative_fd():
    p = RabiParams(g=0.4, delta=0.9, epsilon=0.15)
    for family, which in ((FIRST, PLUS), (FIRST, MINUS), (SECOND, PLUS)):
        pair = build_pair(family, 0.3, p)
        _, d = eval_component(pair, which, 0.0)
        h = 1e-6
        vp, _ = eval_component(pair, which, h)
        vm, _ = eval_component(pair, which, -h)
        assert d == pytest.approx((vp - vm) / (2 * h), rel=1e-6)


def test_wronskian_epsilon_reflection_at_z0():
    for E in (-0.6, 0.25, 1.3):
        a = _scalar_wronskian(E, P_EXC)
        b = _scalar_wronskian(E, RabiParams(g=0.2, delta=0.8, epsilon=-0.1))
        assert a.w_plus == pytest.approx(b.w_minus, rel=1e-10)


def test_wronskian_plus_equals_minus_at_z0():
    # from the coupled system, W+ = Delta K/(z+g) and W- = -Delta K/(z-g)
    # share the cross-family combination K, so they coincide at z = 0
    for E in (-0.8, 0.3, 1.2):
        s = _scalar_wronskian(E, P_EXC)
        assert s.w_plus == pytest.approx(s.w_minus, rel=1e-10)


def test_wronskian_scale_pole_is_unreliable_sample():
    s = _scalar_wronskian(-P_EXC.g ** 2 - P_EXC.epsilon, P_EXC)
    assert not s.reliable


def test_wronskian_small_at_oracle_eigenvalue():
    res = oracle.eigen(P_EXC, 2, tol=1e-11)
    E0 = float(res.eigenvalues[0])
    w0 = _scalar_wronskian(E0, P_EXC)
    wa = _scalar_wronskian(E0 - 0.05, P_EXC)
    wb = _scalar_wronskian(E0 + 0.05, P_EXC)
    scale = max(abs(wa.w_plus), abs(wb.w_plus))
    assert abs(w0.w_plus) <= 1e-8 * scale


def test_wronskian_grid_matches_scalar():
    # the stacked sum and the scalar reference do the same float arithmetic
    E = np.linspace(-1.2, 1.2, 25)
    points = [P_EXC] * E.size
    rng = np.random.default_rng(7)
    for _ in range(200):
        g = rng.uniform(0.05, 2.5)
        points.append(RabiParams(g=g, delta=rng.uniform(0.1, 1.5),
                                 epsilon=rng.uniform(-0.5, 0.5)))
        E = np.append(E, rng.uniform(-g * g - 1.0, 3.0))
    stack = RabiParams(**{f: np.array([getattr(p, f) for p in points])
                          for f in ("g", "delta", "epsilon")})
    wp, wm, rel = wronskian_grid(E, stack)
    compared = 0
    for i, (e, p) in enumerate(zip(E.tolist(), points)):
        s = _scalar_wronskian(e, p)
        assert rel[i] == s.reliable
        if s.reliable:
            # W_+ bitwise; the kernel's w_minus is W_+ itself, which the psi_-
            # series of the reference confirm to rounding (W_- = W_+ at z = 0).
            # From g = 1.5 on the sums at x = 1/2 cancel and lose digits:
            # W_+ and W_- differ by up to 3.1e-5 relative at g = 2.31 here
            assert wp[i] == s.w_plus
            assert wm[i] == wp[i]
            assert s.w_minus == pytest.approx(wp[i], rel=1e-10 if p.g < 1.5 else 1e-4)
            compared += 1
    assert compared >= 200


def test_wronskian_grid_sums_two_series_per_energy(monkeypatch):
    shapes = []
    real = heun.sum_stack

    def recorded(hp):
        shapes.append(hp.beta.shape)
        return real(hp)

    monkeypatch.setattr(heun, "sum_stack", recorded)
    wronskian_grid(np.linspace(-1.5, 1.5, 600), P_EXC)
    assert shapes == [(2, 600)]


def test_wronskian_grid_usable_samples_match_scalar():
    # the kernel tests only the psi_+ rows, so it may call a sample reliable
    # that the four-series reference does not; such a sample must sit inside
    # an exclusion window, where the finder never reads it
    rng = np.random.default_rng(11)
    E, points, near = [], [], []
    while len(E) < 500:
        g = rng.uniform(0.05, 2.0)
        p = RabiParams(g=g, delta=rng.uniform(0.1, 1.5), epsilon=rng.uniform(-0.5, 0.5))
        lo, hi = -g * g - 1.0, 3.0
        cands = [c for (_, _, c) in exceptional_candidates(p, lo, hi)]
        e = rng.uniform(lo, hi)
        if len(E) % 2:
            e = cands[rng.integers(len(cands))] + rng.choice([0.0, 1e-13, -1e-12, 1e-12])
        E.append(e)
        points.append(p)
        near.append(min(abs(e - c) for c in cands))
    stack = RabiParams(**{f: np.array([getattr(p, f) for p in points])
                          for f in ("g", "delta", "epsilon")})
    wp, _, rel = wronskian_grid(np.array(E), stack)
    gained = compared = 0
    for i, (e, p) in enumerate(zip(E, points)):
        s = _scalar_wronskian(e, p)
        if rel[i] and not s.reliable:
            assert near[i] <= W_EXCL_DEFAULT
            gained += 1
            continue
        assert rel[i] == s.reliable
        if rel[i]:
            assert wp[i] == s.w_plus
            compared += 1
    assert gained >= 1 and compared >= 200


def test_exceptional_candidates_listing():
    cands = exceptional_candidates(P_EXC, -1.5, 1.5)
    assert (1, "minus", pytest.approx(0.86)) in [(n, b, e) for n, b, e in cands]
    energies = [e for _, _, e in cands]
    assert energies == sorted(energies)


@pytest.mark.parametrize("g", [0.1, 0.4])
def test_regular_spectrum_four_roots(g):
    p = RabiParams(g=g, delta=0.8, epsilon=0.1)
    pts = find_regular_spectrum(p, -1.5, 1.5)
    assert len(pts) == 4
    for q, e_ref in zip(pts, ORACLE_LOW[g]):
        assert q.energy == pytest.approx(e_ref, abs=1e-6)
        assert q.kind == "regular"


def test_regular_spectrum_misses_exceptional_level():
    pts = find_regular_spectrum(P_EXC, -1.5, 1.5)
    assert len(pts) == 3
    refs = [e for e in ORACLE_LOW[0.2] if abs(e - 0.86) > 1e-6]
    for q, e_ref in zip(pts, refs):
        assert q.energy == pytest.approx(e_ref, abs=1e-6)
    assert all(abs(q.energy - 0.86) > 1e-3 for q in pts)


def test_regular_spectrum_outside_exclusion_windows():
    p = RabiParams(g=0.4, delta=0.8, epsilon=0.1)
    pts = find_regular_spectrum(p, -1.5, 1.5)
    cands = [e for _, _, e in exceptional_candidates(p, -2.5, 2.5)]
    for q in pts:
        assert min(abs(q.energy - c) for c in cands) > 1e-3


def test_regular_spectrum_deterministic():
    a = find_regular_spectrum(P_EXC, -1.5, 1.5)
    b = find_regular_spectrum(P_EXC, -1.5, 1.5)
    assert [q.energy for q in a] == [q.energy for q in b]
    assert [q.residual for q in a] == [q.residual for q in b]


def test_regular_spectrum_empty_window_ok():
    pts = find_regular_spectrum(P_EXC, 0.4, 0.6)
    assert pts == []


def test_regular_spectrum_validates_args():
    with pytest.raises(ValueError):
        find_regular_spectrum(P_EXC, 1.0, -1.0)
    with pytest.raises(ValueError):
        find_regular_spectrum(P_EXC, -1.0, 1.0, grid_n=50)


def test_first_order_system_residual():
    # both families satisfy the coupled first-order equations
    for E, p in [(0.3, RabiParams(g=0.4, delta=0.8, epsilon=0.1)),
                 (-0.5, RabiParams(g=0.25, delta=0.6, epsilon=0.05))]:
        for family in (FIRST, SECOND):
            pair = build_pair(family, E, p)
            for z in (0.0, p.g / 2.0):
                vp, dp = eval_component(pair, PLUS, z)
                vm, dm = eval_component(pair, MINUS, z)
                r1 = dp - ((E - p.epsilon - p.g * z) * vp - p.delta * vm) / (z + p.g)
                r2 = dm - ((E + p.epsilon + p.g * z) * vm - p.delta * vp) / (z - p.g)
                scale = abs(dp) + abs(dm) + abs(vp) + abs(vm)
                assert abs(r1) <= 1e-8 * scale
                assert abs(r2) <= 1e-8 * scale


def test_linear_dependence_at_eigenvalue():
    p = RabiParams(g=0.4, delta=0.8, epsilon=0.1)
    pts = find_regular_spectrum(p, -1.5, 1.5)
    checked = 0
    for q in pts:
        first = build_pair(FIRST, q.energy, p)
        second = build_pair(SECOND, q.energy, p)
        if not (first.plus_series.status == heun.CONVERGED
                and second.plus_series.status == heun.CONVERGED):
            continue
        r0 = (eval_component(first, PLUS, 0.0)[0]
              / eval_component(second, PLUS, 0.0)[0])
        r1 = (eval_component(first, PLUS, p.g / 2)[0]
              / eval_component(second, PLUS, p.g / 2)[0])
        assert r0 == pytest.approx(r1, rel=1e-6)
        checked += 1
    assert checked >= 3


def test_wronskian_grid_batch_independent():
    # every element equals its own single-energy evaluation, bit for bit,
    # including energies on window edges and on the candidate poles; 83.86
    # converges before its pole at n = 85, which 400.0 keeps the loop reaching
    cands = np.array([e for _, _, e in exceptional_candidates(P_EXC, -1.5, 1.5)])
    offsets = W_EXCL_DEFAULT * np.array([-2.5, -1.02, 0.0, 1.02, 2.5])
    edges = (cands[:, None] + offsets).ravel()
    E = np.sort(np.concatenate([np.linspace(-1.5, 1.5, 41), edges, [83.86, 400.0]]))
    batch = wronskian_grid(E, P_EXC)
    assert not batch[2].all() and batch[2][E == 83.86].all()
    for i in range(E.size):
        alone = wronskian_grid(E[i:i + 1], P_EXC)
        for k in range(3):
            assert batch[k][i:i + 1].tobytes() == alone[k].tobytes()

    # one stack across parameter points, shuffled so that neighbours belong to
    # different points: each element carries its own (g, delta, eps) and equals
    # its one-point call with a scalar p
    pts = [P_EXC, RabiParams(g=0.4, delta=0.8, epsilon=0.1),
           RabiParams(g=1.3, delta=0.3, epsilon=0.0),
           RabiParams(g=0.7, delta=1.1, epsilon=0.45)]
    E, owner = [], []
    for j, p in enumerate(pts):
        c = np.array([e for _, _, e in exceptional_candidates(p, -2.0, 2.0)])
        e = np.concatenate([np.linspace(-2.0, 2.0, 17), (c[:, None] + offsets).ravel()])
        E.append(e)
        owner.append(np.full(e.size, j))
    order = np.random.default_rng(0).permutation(sum(e.size for e in E))
    E, owner = np.concatenate(E)[order], np.concatenate(owner)[order]
    stack = RabiParams(*(np.array([getattr(p, f) for p in pts])[owner]
                         for f in ("g", "delta", "epsilon")))
    batch = wronskian_grid(E, stack)
    assert not batch[2].all()
    for i in range(E.size):
        alone = wronskian_grid(E[i:i + 1], pts[owner[i]])
        for k in range(3):
            assert batch[k][i:i + 1].tobytes() == alone[k].tobytes()


def test_regular_spectra_batch_equals_single_points():
    # brackets never span two points (the narrow window has no candidate
    # energy to stop one), and each point's roots and residuals are those of
    # its own one-point search, bit for bit
    pts = [RabiParams(g=g, delta=0.8, epsilon=eps)
           for g in (0.1, 0.2, 0.4, 1.1) for eps in (0.0, 0.1, 0.5)]
    for window, n_roots in (((-1.5, 3.0), 92), ((0.0, 0.3), 5)):
        batch = find_regular_spectra(pts, *window, grid_n=300)
        assert len(batch) == len(pts) and sum(map(len, batch)) == n_roots
        for p, got in zip(pts, batch):
            alone = find_regular_spectrum(p, *window, grid_n=300)
            assert ([(q.energy, q.residual) for q in got]
                    == [(q.energy, q.residual) for q in alone])
    assert find_regular_spectra([], -1.5, 3.0) == []


def _scalar_bisection(E_lo, E_hi, p, width=1e-12):
    f_lo = _scalar_wronskian(E_lo, p).w_plus
    assert f_lo * _scalar_wronskian(E_hi, p).w_plus < 0.0
    while E_hi - E_lo > width:
        mid = 0.5 * (E_lo + E_hi)
        f_mid = _scalar_wronskian(mid, p).w_plus
        if np.sign(f_mid) == np.sign(f_lo):
            E_lo, f_lo = mid, f_mid
        else:
            E_hi = mid
    return 0.5 * (E_lo + E_hi)


def test_regular_spectrum_refinement_calls(monkeypatch):
    calls = []
    real = analytic.wronskian_grid

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(analytic, "wronskian_grid", counted)
    pts = find_regular_spectrum(P_EXC, -1.5, 1.5)
    assert len(pts) == 3
    assert len(calls) <= 8
    for q in pts:
        ref = _scalar_bisection(q.energy - 1e-6, q.energy + 1e-6, P_EXC)
        assert abs(q.energy - ref) <= 1e-9
        assert q.residual == abs(real(np.array([q.energy]), P_EXC)[0][0])


def test_regular_spectrum_takes_at_most_four_kernel_calls(monkeypatch):
    # the sign grid and at most three ladder steps: each step samples every
    # open bracket around its root estimate, so a good estimate closes it
    calls = []
    real = analytic.wronskian_grid

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(analytic, "wronskian_grid", counted)
    assert len(find_regular_spectrum(P_EXC, -1.5, 1.5)) == 3
    assert len(calls) <= 4


def test_regular_roots_bracket_a_sign_change():
    # W_+ vanishes at every returned root or changes sign across root +- ROOT_TOL
    rng = np.random.default_rng(11)
    checked = 0
    for g, delta, eps in zip(rng.uniform(0.05, 2.0, 20), rng.uniform(0.1, 1.5, 20),
                             rng.uniform(-0.5, 0.5, 20)):
        p = RabiParams(g=g, delta=delta, epsilon=eps)
        e_min = -g * g - math.hypot(delta, eps) - 0.5
        for q in find_regular_spectrum(p, e_min, e_min + 4.0):
            w, _, rel = wronskian_grid(q.energy + ROOT_TOL * np.array([-1.0, 0.0, 1.0]), p)
            assert rel.all()
            assert w[1] == 0.0 or np.sign(w[0]) != np.sign(w[2]), (p, q.energy)
            checked += 1
    assert checked >= 100


def _per_bracket(x, ok, segment, roots, resid, at):
    """refine_brackets' roots as (root, resid, found) per bracket between
    neighbouring ok samples of one segment, NaN where dropped."""
    left = np.flatnonzero(ok[:-1] & ok[1:] & (segment[:-1] == segment[1:]))
    root, res = np.full(left.size, np.nan), np.full(left.size, np.nan)
    found = np.isin(left, at)
    root[found], res[found] = roots, resid
    return root, res, found


# the refinement under test; its id names the step rule in test reports
STEP_RULE = pytest.mark.parametrize("refine", [refine_brackets], ids=["ladder"])


@STEP_RULE
def test_refine_brackets_synthetic(refine):
    seen = []

    def f(x):
        seen.append(x.copy())
        return np.cos(x), np.ones(x.shape, dtype=bool)

    x, ok, seg = np.array([1.0, 2.0]), np.ones(2, dtype=bool), np.zeros(2)
    root, resid, found = _per_bracket(x, ok, seg,
                                      *refine(f, x, np.cos(x), ok, seg, 1e-10))
    assert found[0]
    assert abs(root[0] - math.pi / 2) <= 1e-10
    assert resid[0] == abs(math.cos(root[0]))
    pts = np.concatenate(seen)
    assert np.all((1.0 < pts) & (pts < 2.0))
    assert len(seen) < 20


@STEP_RULE
def test_refine_brackets_drops_unreliable_bracket_only(refine):
    def f(x):
        return np.sin(x), ~((6.0 < x) & (x < 6.5))

    x, ok, seg = np.array([3.0, 3.5, 6.0, 6.5]), np.ones(4, dtype=bool), np.array([0, 0, 1, 1])
    root, resid, found = _per_bracket(x, ok, seg,
                                      *refine(f, x, np.sin(x), ok, seg, 1e-9))
    assert found.tolist() == [True, False]
    assert abs(root[0] - math.pi) <= 1e-9
    assert math.isnan(root[1]) and math.isnan(resid[1])


@STEP_RULE
def test_refine_brackets_segments_equal_separate_calls(refine):
    # f is continuous on each segment only: tan jumps at odd multiples of pi/2;
    # a per-sample shift rides along to f; an exact zero (x = 0), skipped
    # samples and sign changes across segment boundaries are all in the grid
    rng = np.random.default_rng(3)
    x = np.sort(np.append(rng.uniform(0.0, 7.0, 80), 0.0))
    seg = np.searchsorted(np.array([1, 3, 5]) * math.pi / 2, x)
    shift = 0.01 * seg

    def f(v, s):
        return np.tan(v) - s, np.ones(v.shape, dtype=bool)

    fx, ok = f(x, shift)[0], np.abs(np.cos(x)) > 0.02
    whole = refine(f, x, fx, ok, seg, 1e-12, shift)
    parts = []
    for k in range(4):
        m = np.flatnonzero(seg == k)
        roots, resid, at = refine(f, x[m], fx[m], ok[m], seg[m], 1e-12, shift[m])
        parts.append((roots, resid, m[at]))
    for a, b in zip(whole, (np.concatenate(p) for p in zip(*parts))):
        assert a.tobytes() == b.tobytes()
    assert whole[0].size == 3 and whole[1][0] == 0.0
    assert np.all(np.diff(whole[2]) > 0)
    assert np.all(np.abs(np.tan(whole[0]) - shift[whole[2]]) <= 1e-9)


def test_cheb_roots_trims_exact_zero_top_coefficients():
    # (x - 0.3)(x + 0.5) = 0.35 T_0 + 0.2 T_1 + 0.5 T_2, padded with exact
    # zeros: untrimmed, the colleague matrix would divide by the zero top
    # coefficient; a constant and a series with roots outside [-1, 1] have none
    coef = np.array([[0.35, 0.2, 0.5, 0.0, 0.0],
                     [1.0, 0.0, 0.0, 0.0, 0.0],
                     [5.0, 0.0, 1.0, 1e-16, 0.0],
                     [0.0, 1.0, 0.0, 0.0, 1e-17]])
    rows, x = cheb_roots(coef)
    order = np.lexsort((x, rows))
    assert rows[order].tolist() == [0, 0, 3]
    assert np.allclose(x[order], [-0.5, 0.3, 0.0], atol=1e-14)


def test_regular_spectrum_through_trimmed_pieces():
    # a criterion-9 sweep point (eps = 0.15) whose pieces have top Chebyshev
    # coefficients at rounding level: every oracle eigenvalue outside the
    # exclusion windows has its root
    g = float(np.linspace(0.05, 1.2, 120)[57])
    p = RabiParams(g=g, delta=0.8, epsilon=0.15)
    roots = np.array([q.energy for q in find_regular_spectrum(p, -1.5, 3.0)])
    cands = np.array([e for _, _, e in exceptional_candidates(p, -2.5, 4.0)])
    eigs = oracle.eigen_in_window(p, -1.5, 3.0).eigenvalues
    want = [e for e in eigs if np.min(np.abs(cands - e)) > W_EXCL_DEFAULT]
    assert len(want) == roots.size == 8
    for e in want:
        assert np.min(np.abs(roots - e)) <= 1e-9


def test_regular_spectra_take_three_kernel_calls(monkeypatch):
    # the nodes of every piece of every point, the polishing step and the
    # confirmation are one wronskian_grid call each
    sizes = []
    real = analytic.wronskian_grid

    def counted(E, p):
        sizes.append(E.size)
        return real(E, p)

    monkeypatch.setattr(analytic, "wronskian_grid", counted)
    pts = [RabiParams(g=g, delta=0.8, epsilon=0.1) for g in (0.1, 0.4, 1.1)]
    found = sum(map(len, find_regular_spectra(pts, -1.5, 3.0)))
    assert len(sizes) == 3
    assert sizes[0] == 3 * 3 * analytic.CHEB_M      # three pieces per point
    assert found >= 15


def test_unreliable_node_drops_its_piece_only(monkeypatch):
    # one unreliable node in the middle piece of (-1.5, 3.0): that piece
    # yields no root and raises nothing, the others are unchanged, and
    # assemble fills the missing levels from the oracle
    from rabispec.spectrum import assemble
    p = RabiParams(g=0.4, delta=0.8, epsilon=0.1)
    whole = [q.energy for q in find_regular_spectrum(p, -1.5, 3.0)]
    lost = [e for e in whole if 0.0 <= e < 1.5]
    assert lost
    real = analytic.wronskian_grid
    calls = []

    def one_bad_node(E, q):
        wp, wm, rel = real(E, q)
        if not calls:
            rel = rel.copy()
            rel[np.argmin(np.abs(E - 0.75))] = False
        calls.append(E.size)
        return wp, wm, rel

    monkeypatch.setattr(analytic, "wronskian_grid", one_bad_node)
    got = [q.energy for q in find_regular_spectrum(p, -1.5, 3.0)]
    assert got == [e for e in whole if not 0.0 <= e < 1.5]
    calls.clear()
    pts = assemble(p, (-1.5, 3.0), N_max=2)
    filled = [q.energy for q in pts if q.provenance == "oracle-assisted"]
    assert len(filled) == len(lost)
    assert np.allclose(filled, lost, atol=1e-9)
