import math

import numpy as np
import pytest

from rabispec.analytic import MINUS, PLUS
from rabispec.exceptional import (ExceptionalPoint, candidate_energy,
                                  closed_form_relation, constraint_residual,
                                  factorization_identity_check, find_crossings,
                                  pair_separation, scan_exceptional)
from rabispec.model import RabiParams
from rabispec import oracle

P_EXC = RabiParams(g=0.2, delta=0.8, epsilon=0.1)


def test_candidate_energy_examples():
    assert candidate_energy(1, MINUS, P_EXC) == pytest.approx(0.86, abs=1e-14)
    assert candidate_energy(0, PLUS, RabiParams(g=0.0, delta=0.0, epsilon=0.0)) == 0.0
    p = RabiParams(g=0.5, delta=1.0, epsilon=0.25)
    assert candidate_energy(2, PLUS, p) == pytest.approx(2.0, abs=1e-14)


def test_constraint_residual_on_locus():
    assert constraint_residual(1, MINUS, P_EXC) <= 1e-12
    judd = RabiParams(g=0.3, delta=0.8, epsilon=0.0)
    assert constraint_residual(1, MINUS, judd) <= 1e-12
    assert constraint_residual(1, PLUS, judd) <= 1e-12


def test_constraint_residual_off_locus():
    # plus branch at the same parameters: delta^2 + 4g^2 = 0.8 != 1.2
    r = constraint_residual(1, PLUS, P_EXC)
    assert r > 1e-3


def test_constraint_residual_validates():
    with pytest.raises(ValueError):
        constraint_residual(0, PLUS, P_EXC)


def test_closed_form_relation_examples():
    assert closed_form_relation(1, MINUS, P_EXC) == pytest.approx(0.0, abs=1e-15)
    judd = RabiParams(g=0.3, delta=0.8, epsilon=0.0)
    assert closed_form_relation(1, PLUS, judd) == pytest.approx(0.0, abs=1e-15)
    # N = 2 minus at eps = 1/2 on the crossing locus delta^2 + 4g^2 = 2
    g = math.sqrt(1.36) / 2.0
    p = RabiParams(g=g, delta=0.8, epsilon=0.5)
    assert closed_form_relation(2, MINUS, p) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        closed_form_relation(3, PLUS, P_EXC)


def test_closed_form_matches_recurrence_near_locus():
    # both measures agree about which side of the locus we are on
    for g in (0.19, 0.2, 0.21):
        p = RabiParams(g=g, delta=0.8, epsilon=0.1)
        rec = constraint_residual(1, MINUS, p)
        rel = abs(closed_form_relation(1, MINUS, p))
        assert (rec <= 1e-10) == (rel <= 1e-8)


def test_scan_g_finds_known_point():
    pts = scan_exceptional(P_EXC, g_range=(0.05, 1.2), N_max=2)
    match = [pt for pt in pts if pt.N == 1 and pt.branch == MINUS
             and abs(pt.params.g - 0.2) < 1e-9]
    assert len(match) == 1
    assert match[0].energy == pytest.approx(0.86, abs=1e-12)
    assert match[0].family == "second"


def test_scan_g_judd_degenerate_pair():
    judd = RabiParams(g=0.1, delta=0.8, epsilon=0.0)
    pts = scan_exceptional(judd, g_range=(0.05, 1.2), N_max=1)
    gs = sorted(pt.params.g for pt in pts)
    assert len(gs) == 2
    assert gs[0] == pytest.approx(0.3, abs=1e-9)
    assert gs[1] == pytest.approx(0.3, abs=1e-9)
    es = [pt.energy for pt in pts]
    assert all(e == pytest.approx(0.91, abs=1e-9) for e in es)
    branches = sorted(pt.branch for pt in pts)
    assert branches == [MINUS, PLUS]


def test_scan_g_keeps_root_with_residual_near_tol():
    # the truncation residual at the midpoint of the final bisection bracket
    # read 1.29e-10 here, above tol = 1e-10, so the point used to be dropped;
    # the bracket end of smaller |indicator| has 5.6e-11
    p = RabiParams(g=0.1, delta=0.3015827218624087, epsilon=0.10464328022869265)
    pts = scan_exceptional(p, g_range=(0.05, 1.5), N_max=4)
    hits = [pt for pt in pts if (pt.N, pt.branch) == (4, MINUS)
            and abs(pt.params.g - 1.4990033584) <= 1e-9]
    assert len(hits) == 1
    assert hits[0].constraint_residual <= 1e-10


def test_scan_epsilon_sign_symmetry():
    p = RabiParams(g=0.2, delta=0.8, epsilon=0.0)
    pts = scan_exceptional(p, epsilon_range=(-0.3, 0.3), N_max=1, grid=601)
    found = {(pt.branch, round(pt.params.epsilon, 6)) for pt in pts}
    assert (MINUS, 0.1) in found
    assert (PLUS, -0.1) in found


def test_scan_validates_arguments():
    with pytest.raises(ValueError):
        scan_exceptional(P_EXC)
    with pytest.raises(ValueError):
        scan_exceptional(P_EXC, g_range=(0.1, 1.0), epsilon_range=(0, 1))
    with pytest.raises(ValueError):
        scan_exceptional(P_EXC, g_range=(0.1, 1.0), grid=50)
    with pytest.raises(ValueError):
        scan_exceptional(P_EXC, g_range=(0.1, 1.0), N_max=11)


def test_pair_separation():
    for eps, N in [(0.1, 1), (0.0, 2), (0.25, 3)]:
        p = RabiParams(g=0.2, delta=0.8, epsilon=eps)
        plus = ExceptionalPoint(N, PLUS, candidate_energy(N, PLUS, p), 0.0,
                                "first", p)
        minus = ExceptionalPoint(N, MINUS, candidate_energy(N, MINUS, p), 0.0,
                                 "second", p)
        assert pair_separation(plus, minus) == pytest.approx(2 * eps, abs=1e-15)
    with pytest.raises(ValueError):
        pair_separation(minus, plus)
    other = ExceptionalPoint(1, MINUS, 0.0, 0.0, "second", p)
    with pytest.raises(ValueError):
        pair_separation(plus, other)


def test_find_crossings_12():
    cr = find_crossings(0.8, 1, 2)
    assert cr is not None and not cr.boundary
    assert cr.epsilon_star == 0.5
    assert cr.g_star == pytest.approx(0.5 * math.sqrt(2 - 0.64), abs=1e-9)
    assert cr.delta_relation == pytest.approx(2.0, abs=1e-9)
    assert cr.energy == pytest.approx(1.16, abs=1e-9)


def test_find_crossings_boundary():
    cr = find_crossings(math.sqrt(2.0), 1, 2)
    assert cr is not None and cr.boundary
    assert cr.g_star == 0.0
    assert cr.energy == pytest.approx(1.5, abs=1e-12)


def test_find_crossings_13():
    # eps* = 1; the (1, plus) locus fixes g and the (3, minus) constraint
    # holds there as well, giving a genuine crossing verified by the oracle
    cr = find_crossings(0.8, 1, 3)
    assert cr is not None
    assert cr.epsilon_star == 1.0
    assert cr.g_star == pytest.approx(math.sqrt(3 - 0.64) / 2.0, abs=1e-9)
    p = RabiParams(g=cr.g_star, delta=0.8, epsilon=1.0)
    res = oracle.eigen(p, 10, tol=1e-10)
    near = np.sort(np.abs(res.eigenvalues - cr.energy))
    assert near[1] <= 1e-6          # two-fold degenerate within tolerance


def test_find_crossings_validates():
    with pytest.raises(ValueError):
        find_crossings(0.8, 2, 1)
    with pytest.raises(ValueError):
        find_crossings(0.8, 0, 1)


def test_factorization_identity_values():
    assert factorization_identity_check(0.3, 0.8) <= 1e-9
    # both sides equal -96 at the origin
    assert factorization_identity_check(0.0, 0.0) <= 1e-9 * 97


def test_factorization_identity_random():
    rng = np.random.default_rng(42)
    for _ in range(100):
        g = float(rng.uniform(0, 1.5))
        d = float(rng.uniform(0, 1.5))
        rhs = abs(-16 * (d * d + 4 * g * g - 2) * (3 * d * d + 16 * g * g - 3))
        assert factorization_identity_check(g, d) <= 1e-9 * (1 + rhs)


def test_scan_points_oracle_verified():
    pts = scan_exceptional(P_EXC, g_range=(0.05, 1.2), N_max=2)
    assert pts
    for pt in pts:
        res = oracle.eigen_in_window(pt.params, pt.energy - 0.3, pt.energy + 0.3)
        assert np.min(np.abs(res.eigenvalues - pt.energy)) <= 1e-6


def test_scan_oracle_check_needs_converged_eigenvalues(monkeypatch):
    monkeypatch.setattr(oracle, "N_C_CAP", 12)
    assert scan_exceptional(P_EXC, g_range=(0.15, 0.25), N_max=1) == []
    assert scan_exceptional(P_EXC, g_range=(0.15, 0.25), N_max=1, oracle_check=False)


def test_divergent_partner_family():
    # at an accepted exceptional point the partner family's series diverges
    from rabispec import heun
    from rabispec.model import heun_params_set1_plus
    s = heun.build_series(heun_params_set1_plus(0.86, P_EXC))
    assert s.status == heun.DIVERGENT


def test_no_wronskian_root_even_without_windows(monkeypatch):
    # the Wronskian has a removable singularity at an accepted exceptional
    # energy: suppressing the exclusion windows still yields no nearby root
    from rabispec import analytic
    pts = scan_exceptional(P_EXC, g_range=(0.15, 0.45), N_max=1, grid=200)
    assert pts
    monkeypatch.setattr(analytic, "W_EXCL_DEFAULT", 0.0)
    for pt in pts:
        roots = analytic.find_regular_spectrum(pt.params, pt.energy - 0.05,
                                               pt.energy + 0.05, grid_n=120)
        assert all(abs(q.energy - pt.energy) > 1e-3 for q in roots)
