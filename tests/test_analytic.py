import math
from collections import namedtuple

import numpy as np
import pytest

from rabispec import analytic, heun
from rabispec.analytic import (FIRST, MINUS, PLUS, SECOND, W_EXCL_DEFAULT,
                               ScalePoleError, build_pair, eval_component,
                               exceptional_candidates, find_regular_spectra,
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
            assert (wp[i], wm[i]) == (s.w_plus, s.w_minus)
            compared += 1
    assert compared >= 200


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


def test_refine_brackets_synthetic():
    seen = []

    def f(x):
        seen.append(x.copy())
        return np.cos(x), np.ones(x.shape, dtype=bool)

    root, resid, found = refine_brackets(f, [1.0], [2.0], [math.cos(1.0)],
                                         [math.cos(2.0)], 1e-10)
    assert found[0]
    assert abs(root[0] - math.pi / 2) <= 1e-10
    assert resid[0] == abs(math.cos(root[0]))
    pts = np.concatenate(seen)
    assert np.all((1.0 < pts) & (pts < 2.0))
    assert len(seen) < 20


def test_refine_brackets_drops_unreliable_bracket_only():
    def f(x):
        return np.sin(x), ~((6.0 < x) & (x < 6.5))

    lo, hi = np.array([3.0, 6.0]), np.array([3.5, 6.5])
    root, resid, found = refine_brackets(f, lo, hi, np.sin(lo), np.sin(hi), 1e-9)
    assert found.tolist() == [True, False]
    assert abs(root[0] - math.pi) <= 1e-9
    assert math.isnan(root[1]) and math.isnan(resid[1])
