import math

import numpy as np
import pytest

from rabispec import heun
from rabispec.heun import (CONVERGED, DIVERGENT, MAX_TERMS, TRUNCATED,
                           DivergentSeriesError, build_series, eval_series,
                           truncation_obstruction)
from rabispec.model import (HeunParams, RabiParams, heun_params_set1_minus,
                            heun_params_set1_plus, heun_params_set2)

P_EXC = RabiParams(g=0.2, delta=0.8, epsilon=0.1)
JUDD = RabiParams(g=0.3, delta=0.8, epsilon=0.0)
G_CROSS = 0.5 * math.sqrt(2.0 - 0.64)
CROSS = RabiParams(g=G_CROSS, delta=0.8, epsilon=0.5)


def test_all_zero_params_is_constant_polynomial():
    s = build_series(HeunParams(0.0, 0.0, 0.0, 0.0, 0.0))
    assert s.status == TRUNCATED
    assert s.trunc_index == 0
    ev = eval_series(s, 0.37)
    assert ev.value == 1.0
    assert ev.derivative == 0.0


def test_bad_arguments():
    hp = HeunParams(0.1, 0.1, 0.1, 0.1, 0.1)
    with pytest.raises(ValueError):
        build_series(hp, n_max=1)
    with pytest.raises(ValueError):
        build_series(hp, tol=0.0)


def test_statuses_at_exceptional_point():
    # the first-family plus series diverges (beta = -2), the second family
    # truncates with indices 0 and 1
    s1 = build_series(heun_params_set1_plus(0.86, P_EXC))
    assert s1.status == DIVERGENT and s1.pole_index == 2
    s2 = build_series(heun_params_set2(heun_params_set1_plus(0.86, P_EXC)))
    assert s2.status == TRUNCATED and s2.trunc_index == 0
    s3 = build_series(heun_params_set2(heun_params_set1_minus(0.86, P_EXC)))
    assert s3.status == TRUNCATED and s3.trunc_index == 1
    assert s3.coefficient(1) == pytest.approx(-0.2, abs=1e-13)


def test_divergent_refuses_eval():
    s = build_series(heun_params_set1_plus(0.86, P_EXC))
    with pytest.raises(DivergentSeriesError):
        eval_series(s, 0.5)


def test_judd_pole_resolution():
    # at eps = 0 every component hits a 0/0 pole exactly at its truncation
    # index; the free-parameter continuation must close the series
    E = 0.91
    cases = [
        (heun_params_set1_plus(E, JUDD), 1),
        (heun_params_set1_minus(E, JUDD), 0),
        (heun_params_set2(heun_params_set1_plus(E, JUDD)), 0),
        (heun_params_set2(heun_params_set1_minus(E, JUDD)), 1),
    ]
    for hp, n_exp in cases:
        s = build_series(hp)
        assert s.status == TRUNCATED
        assert s.trunc_index == n_exp


def test_crossing_pole_resolution():
    # eps = 1/2: poles sit strictly before the truncation index and the free
    # coefficient must be chosen to terminate the series
    E = 1.5 - G_CROSS ** 2
    cases = [
        (heun_params_set1_plus(E, CROSS), 1),
        (heun_params_set1_minus(E, CROSS), 0),
        (heun_params_set2(heun_params_set1_plus(E, CROSS)), 1),
        (heun_params_set2(heun_params_set1_minus(E, CROSS)), 2),
    ]
    for hp, n_exp in cases:
        s = build_series(hp)
        assert s.status == TRUNCATED
        assert s.trunc_index == n_exp


def test_off_locus_energy_does_not_truncate():
    s = build_series(heun_params_set2(heun_params_set1_plus(0.90, P_EXC)))
    assert s.status in (CONVERGED, MAX_TERMS)


def test_eval_at_zero():
    p = RabiParams(g=0.3, delta=0.7, epsilon=0.05)
    s = build_series(heun_params_set1_plus(0.4, p))
    ev = eval_series(s, 0.0)
    assert ev.value == 1.0
    assert ev.derivative == pytest.approx(s.coefficient(1), rel=1e-15)


def test_truncated_series_matches_closed_form():
    # plus-branch N = 1 locus: the polynomial is 1 - 4 g^2/(1 + 2 eps) x
    E = 1.0 - JUDD.g ** 2
    s = build_series(heun_params_set1_plus(E, JUDD))
    assert s.status == TRUNCATED and s.trunc_index == 1
    h1 = -4.0 * JUDD.g ** 2 / (1.0 + 2.0 * JUDD.epsilon)
    assert s.coefficient(1) == pytest.approx(h1, rel=1e-12)
    x = 0.3
    ev = eval_series(s, x)
    assert ev.value == pytest.approx(1.0 + h1 * x, rel=1e-14)
    assert ev.derivative == pytest.approx(h1, rel=1e-14)


def test_resummation_consistency():
    # partial sums with halved term budget agree at x = 1/2
    p = RabiParams(g=0.45, delta=0.9, epsilon=0.12)
    s_full = build_series(heun_params_set1_minus(0.7, p), n_max=400)
    s_half = build_series(heun_params_set1_minus(0.7, p), n_max=200)
    v_full = eval_series(s_full, 0.5)
    v_half = eval_series(s_half, 0.5)
    assert v_full.status == CONVERGED
    assert v_half.value == pytest.approx(v_full.value, rel=1e-10)


def test_derivative_matches_finite_difference():
    p = RabiParams(g=0.35, delta=0.8, epsilon=0.1)
    s = build_series(heun_params_set1_plus(0.25, p))
    step = 1e-6
    ev = eval_series(s, 0.5)
    vp = eval_series(s, 0.5 + step).value
    vm = eval_series(s, 0.5 - step).value
    assert ev.derivative == pytest.approx((vp - vm) / (2 * step), rel=1e-6)


def test_eval_domain_errors():
    p = RabiParams(g=0.35, delta=0.8, epsilon=0.1)
    s = build_series(heun_params_set1_plus(0.25, p))
    assert s.status == CONVERGED
    with pytest.raises(ValueError):
        eval_series(s, 1.0)


def test_recurrence_residuals():
    rng = np.random.default_rng(3)
    A_of = heun.recurrence_abc
    for _ in range(20):
        E = float(rng.uniform(-2, 2))
        p = RabiParams(g=float(rng.uniform(0.05, 1.2)),
                       delta=float(rng.uniform(0.1, 1.5)),
                       epsilon=float(rng.uniform(-0.4, 0.4)))
        hp = heun_params_set1_plus(E, p)
        s = build_series(hp, n_max=150)
        A, B, C = A_of(hp)
        top = s.trunc_index if s.status == TRUNCATED else len(s.coeffs) - 1
        for n in range(1, top + 1):
            if A(n) == 0.0:
                continue
            r = abs(A(n) * s.coefficient(n) - B(n) * s.coefficient(n - 1)
                    - C(n) * s.coefficient(n - 2))
            scale = (abs(A(n) * s.coefficient(n)) + abs(B(n) * s.coefficient(n - 1))
                     + abs(C(n) * s.coefficient(n - 2)) + 1e-300)
            assert r <= 1e-10 * scale


def test_truncation_closure():
    # after a detected truncation, twenty further coefficients stay at zero
    s = build_series(heun_params_set2(heun_params_set1_minus(0.86, P_EXC)),
                     n_max=30)
    assert s.status == TRUNCATED
    N = s.trunc_index
    hp = s.params
    A, B, C = heun.recurrence_abc(hp)
    h = [s.coefficient(k) for k in range(N + 2)]
    runmax = max(abs(v) for v in h[:N + 1])
    for n in range(N + 2, N + 21):
        h.append((B(n) * h[n - 1] + C(n) * h[n - 2]) / A(n))
        assert abs(h[n]) <= 1e-10 * runmax


def test_ode_residual():
    # termwise sums must satisfy the confluent Heun equation
    p = RabiParams(g=0.4, delta=0.9, epsilon=0.15)
    for E in (-0.3, 0.55):
        hp = heun_params_set1_minus(E, p)
        s = build_series(hp)
        assert s.status == CONVERGED
        for x in (0.1, 0.3, 0.5):
            v = d1 = d2 = 0.0
            for n in range(len(s.coeffs) - 1, -1, -1):
                hn = s.coefficient(n)
                v = v * x + hn
                if n >= 1:
                    d1 = d1 * x + n * hn
                if n >= 2:
                    d2 = d2 * x + n * (n - 1) * hn
            lhs = (d2 + (hp.alpha + (hp.beta + 1) / x + (hp.gamma + 1) / (x - 1)) * d1
                   + (hp.mu * x + hp.nu) / (x * (x - 1)) * v)
            scale = abs(d2) + abs(d1) + abs(v) + 1e-300
            assert abs(lhs) <= 1e-8 * scale


def test_obstruction_sign_change_at_locus():
    # the signed indicator flips across the N = 1 minus locus in g
    def f(g):
        p = RabiParams(g=g, delta=0.8, epsilon=0.1)
        E = 1.0 - g * g - 0.1
        return truncation_obstruction(
            heun_params_set2(heun_params_set1_minus(E, p)), 1)

    assert f(0.19) * f(0.21) < 0
    assert abs(f(0.2)) < 1e-12


def test_overflowing_coefficients_end_as_max_terms():
    # a huge accessory parameter drives the coefficients past float range:
    # the build stops there, neither raising nor claiming convergence
    hp = HeunParams(alpha=0.0, beta=0.5, gamma=0.0, delta=0.0, eta=1e170)
    s = build_series(hp, n_max=60)
    assert s.status == MAX_TERMS
    assert np.all(np.isfinite(s.coeffs))
    assert eval_series(s, 0.5).status != CONVERGED


def test_obstruction_finite_at_poles():
    # h_{N+1} itself is undefined at eps = 0 (recurrence pole); the
    # division-free indicator stays finite and vanishes on the Judd locus
    def f(g):
        p = RabiParams(g=g, delta=0.8, epsilon=0.0)
        E = 1.0 - g * g
        return truncation_obstruction(
            heun_params_set2(heun_params_set1_minus(E, p)), 1)

    vals = [f(g) for g in np.linspace(0.1, 0.5, 41)]
    assert all(math.isfinite(v) for v in vals)
    assert f(0.29) * f(0.31) < 0


@pytest.mark.parametrize("axis, values", [("g", np.linspace(0.05, 1.5, 400)),
                                          ("epsilon", np.linspace(-0.9, 0.9, 400))])
def test_obstruction_on_an_array_matches_scalar_calls(axis, values):
    # a whole sweep axis in one call, bit for bit as one call per point
    from rabispec.analytic import FIRST, MINUS, PLUS, SECOND, component_params
    from rabispec.exceptional import candidate_energy

    def obstruction(N, branch, v):
        p = RabiParams(**{"g": 0.7, "delta": 0.45, "epsilon": 0.2, axis: v})
        E = candidate_energy(N, branch, p)
        hp = (component_params(FIRST, PLUS, E, p) if branch == PLUS
              else component_params(SECOND, MINUS, E, p))
        return truncation_obstruction(hp, N)

    for N in range(1, 6):
        for branch in ("plus", "minus"):
            got = obstruction(N, branch, values)
            want = np.array([obstruction(N, branch, float(v)) for v in values])
            assert got.shape == values.shape
            assert got.tobytes() == want.tobytes()
