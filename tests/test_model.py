import math

import numpy as np
import pytest

from rabispec.model import (HeunParams, RabiParams, heun_params_set1_minus,
                            heun_params_set1_plus, heun_params_set2)


def test_invalid_params_rejected():
    with pytest.raises(ValueError):
        RabiParams(g=math.nan, delta=0.1, epsilon=0.0)


def test_array_fields_accepted_and_checked():
    g = np.linspace(0.1, 1.0, 7)
    p = RabiParams(g=g, delta=0.8, epsilon=0.1)
    assert np.array_equal(heun_params_set1_plus(0.5, p).alpha, 4.0 * g * g)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            RabiParams(g=np.array([0.1, bad, 0.3]), delta=0.8, epsilon=0.1)
        with pytest.raises(ValueError):
            RabiParams(g=0.2, delta=0.8, epsilon=np.array([bad, 0.1]))


def test_set1_plus_zero_point():
    hp = heun_params_set1_plus(0.0, RabiParams(g=0.0, delta=0.0, epsilon=0.0))
    assert (hp.alpha, hp.beta, hp.gamma, hp.delta, hp.eta) == (0.0, -1.0, 0.0, 0.0, 0.5)


def test_set1_minus_zero_point():
    hp = heun_params_set1_minus(0.0, RabiParams(g=0.0, delta=0.0, epsilon=0.0))
    assert (hp.alpha, hp.beta, hp.gamma, hp.delta, hp.eta) == (0.0, 0.0, -1.0, 0.0, 0.5)


def test_set1_plus_frozen_tuple():
    # independently re-evaluated from the closed-form parameter expressions
    hp = heun_params_set1_plus(1.0, RabiParams(g=0.5, delta=1.0, epsilon=0.0))
    assert hp.alpha == pytest.approx(1.0, abs=1e-15)
    assert hp.beta == pytest.approx(-2.25, abs=1e-15)
    assert hp.gamma == pytest.approx(-1.25, abs=1e-15)
    assert hp.delta == pytest.approx(-0.5, abs=1e-15)
    assert hp.eta == pytest.approx(0.28125, abs=1e-15)


def test_set1_minus_frozen_tuple():
    hp = heun_params_set1_minus(1.0, RabiParams(g=0.5, delta=1.0, epsilon=0.25))
    assert hp.alpha == pytest.approx(1.0, abs=1e-15)
    assert hp.beta == pytest.approx(-1.5, abs=1e-15)
    assert hp.gamma == pytest.approx(-2.0, abs=1e-15)
    assert hp.delta == pytest.approx(0.75, abs=1e-15)
    assert hp.eta == pytest.approx(-0.5, abs=1e-15)


def test_beta_values_at_exceptional_point():
    p = RabiParams(g=0.2, delta=0.8, epsilon=0.1)
    assert heun_params_set1_plus(0.86, p).beta == pytest.approx(-2.0, abs=1e-14)
    assert heun_params_set1_minus(0.86, p).beta == pytest.approx(-1.0, abs=1e-14)


def test_set2_swap():
    hp = HeunParams(alpha=1.0, beta=2.0, gamma=3.0, delta=4.0, eta=5.0)
    sw = heun_params_set2(hp)
    assert (sw.alpha, sw.beta, sw.gamma, sw.delta, sw.eta) == (1.0, 3.0, 2.0, -4.0, 9.0)


def test_set2_involution():
    # exact in real arithmetic; the eta shift costs at most an ulp in floats
    rng = np.random.default_rng(7)
    for _ in range(50):
        hp = HeunParams(*rng.uniform(-3, 3, size=5))
        back = heun_params_set2(heun_params_set2(hp))
        assert back.alpha == hp.alpha and back.beta == hp.beta
        assert back.gamma == hp.gamma and back.delta == hp.delta
        assert back.eta == pytest.approx(hp.eta, abs=4e-16 * (abs(hp.eta) + abs(hp.delta)))


def test_set2_matches_direct_second_family():
    # second-family parameters read off the transformation rules directly
    p = RabiParams(g=0.5, delta=1.0, epsilon=0.0)
    hp1 = heun_params_set1_plus(1.0, p)
    sw = heun_params_set2(hp1)
    assert sw.alpha == pytest.approx(1.0, abs=1e-15)
    assert sw.beta == pytest.approx(-1.25, abs=1e-15)
    assert sw.gamma == pytest.approx(-2.25, abs=1e-15)
    assert sw.delta == pytest.approx(0.5, abs=1e-15)
    assert sw.eta == pytest.approx(-0.21875, abs=1e-15)


def test_parameter_identities():
    rng = np.random.default_rng(11)
    for _ in range(100):
        E = float(rng.uniform(-10, 10))
        p = RabiParams(g=float(rng.uniform(0.01, 2)),
                       delta=float(rng.uniform(0, 2)),
                       epsilon=float(rng.uniform(-1, 1)))
        hp1 = heun_params_set1_plus(E, p)
        hp2 = heun_params_set1_minus(E, p)
        assert hp1.alpha == 4 * p.g ** 2
        assert hp2.alpha == 4 * p.g ** 2
        assert hp1.beta - hp2.beta == pytest.approx(-1.0, abs=1e-12)
        assert hp1.gamma - hp2.gamma == pytest.approx(1.0, abs=1e-12)


def test_mu_nu_derived():
    hp = HeunParams(alpha=1.0, beta=2.0, gamma=3.0, delta=4.0, eta=5.0)
    assert hp.mu == 4.0 + 1.0 * (2.0 + 3.0 + 2.0) / 2.0
    assert hp.nu == 5.0 + 1.0 + (3.0 - 1.0) * 3.0 / 2.0
