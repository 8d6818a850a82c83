"""Acceptance suite: one callable per criterion, shared by the CLI and tests.

Each criterion returns a CriterionResult with a deterministic details string
(no timings inside, so reports are byte-identical across runs for a fixed
seed); measured durations are kept alongside for the runtime bounds.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from .model import RabiParams
from . import heun
from .analytic import (FIRST, MINUS, PLUS, SECOND, build_pair, component_params,
                       eval_component, find_regular_spectrum)
from .exceptional import (candidate_energy, closed_form_relation,
                          constraint_residual, factorization_identity_check,
                          find_crossings, scan_exceptional)
from . import oracle as oracle_mod
from .states import reconstruct_exceptional_state
from .spectrum import sweep

TRUNC_ACCEPT_TOL = 1e-10


@dataclass
class CriterionResult:
    index: int
    name: str
    passed: bool
    details: str
    duration: float
    time_limit: Optional[float] = None

    @property
    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.index:2d} {self.name}: {self.details}"


def _result(index, name, t0, ok, details, time_limit=None) -> CriterionResult:
    duration = time.perf_counter() - t0
    if time_limit is not None and duration > time_limit:
        ok = False
        details += f"; runtime limit {time_limit:.0f}s exceeded"
    return CriterionResult(index, name, bool(ok), details, duration, time_limit)


def criterion_1(tol: float = TRUNC_ACCEPT_TOL) -> CriterionResult:
    """Exceptional point at (g, delta, eps) = (0.2, 0.8, 0.1): E = 0.86."""
    t0 = time.perf_counter()
    p = RabiParams(g=0.2, delta=0.8, epsilon=0.1)
    E = candidate_energy(1, MINUS, p)
    closed_ok = abs(E - 0.86) <= 1e-14
    res = constraint_residual(1, MINUS, p, tol=tol)
    res_ok = res <= tol
    orc = oracle_mod.eigen(p, 4, tol=1e-9)
    delta_orc = float(np.min(np.abs(orc.eigenvalues - E)))
    orc_ok = delta_orc <= 1e-8 and orc.cutoff_used <= 160
    roots = find_regular_spectrum(p, -1.5, 1.5)
    near = [q.energy for q in roots if abs(q.energy - E) <= 1e-3]
    no_root_ok = not near
    ok = closed_ok and res_ok and orc_ok and no_root_ok
    details = (f"E={E!r} residual={res:.3e} oracle_delta={delta_orc:.3e} "
               f"cutoff={orc.cutoff_used} wronskian_roots_nearby={len(near)}")
    return _result(1, "known-exceptional-point", t0, ok, details, time_limit=5.0)


def criterion_2() -> CriterionResult:
    """Wronskian zeros match the 4 lowest oracle eigenvalues at g = 0.1, 0.4."""
    t0 = time.perf_counter()
    ok = True
    parts = []
    for g in (0.1, 0.4):
        p = RabiParams(g=g, delta=0.8, epsilon=0.1)
        roots = [q.energy for q in find_regular_spectrum(p, -1.5, 1.5)]
        orc = oracle_mod.eigen(p, 4, tol=1e-10)
        if len(roots) != 4:
            ok = False
            parts.append(f"g={g}: {len(roots)} roots (want 4)")
            continue
        worst = max(abs(r - e) for r, e in zip(roots, orc.eigenvalues))
        ok &= worst <= 1e-6
        parts.append(f"g={g}: max|root-oracle|={worst:.3e}")
    return _result(2, "regular-spectrum-vs-oracle", t0, ok, "; ".join(parts),
                   time_limit=30.0)


def criterion_3() -> CriterionResult:
    """Crossing of the (1, plus) and (2, minus) points at eps = 1/2."""
    t0 = time.perf_counter()
    cr = find_crossings(0.8, 1, 2)
    g_ref = 0.5 * math.sqrt(2.0 - 0.64)
    if cr is None:
        return _result(3, "crossing-eps-half", t0, False, "no crossing found",
                       time_limit=10.0)
    eps_ok = cr.epsilon_star == 0.5
    g_ok = abs(cr.g_star - g_ref) <= 1e-9
    p = RabiParams(g=cr.g_star, delta=0.8, epsilon=0.5)
    orc = oracle_mod.eigen(p, 8, tol=1e-9)
    near = np.abs(orc.eigenvalues - 1.16) <= 1e-6
    pair_gap = None
    deg_ok = False
    idx = np.where(near)[0]
    if idx.size >= 2:
        pair_gap = float(orc.eigenvalues[idx[1]] - orc.eigenvalues[idx[0]])
        deg_ok = pair_gap <= 1e-6
    ok = eps_ok and g_ok and deg_ok
    details = (f"eps*={cr.epsilon_star} g*={cr.g_star!r} |g*-ref|={abs(cr.g_star - g_ref):.2e} "
               f"oracle_pair_gap={pair_gap if pair_gap is not None else 'none'}")
    return _result(3, "crossing-eps-half", t0, ok, details, time_limit=10.0)


def criterion_4() -> CriterionResult:
    """Every scanned exceptional point satisfies the unified energy form."""
    t0 = time.perf_counter()
    p = RabiParams(g=0.1, delta=0.8, epsilon=0.1)
    pts = scan_exceptional(p, g_range=(0.05, 1.2), N_max=4)
    worst = 0.0
    for pt in pts:
        sign = 1.0 if pt.branch == PLUS else -1.0
        worst = max(worst, abs(pt.energy + pt.params.g ** 2 - sign * pt.params.epsilon - pt.N))
    ok = bool(pts) and worst <= 1e-12
    return _result(4, "unified-energy-form", t0, ok,
                   f"{len(pts)} points, max|E+g^2-+eps-N|={worst:.3e}")


def criterion_5() -> CriterionResult:
    """Matched plus/minus candidate pairs with equal N separate by exactly 2 eps."""
    t0 = time.perf_counter()
    from .exceptional import ExceptionalPoint, pair_separation
    worst = 0.0
    count = 0
    for eps in (0.05, 0.1, 0.2):
        for g in (0.1, 0.2, 0.5):
            p = RabiParams(g=g, delta=0.8, epsilon=eps)
            for N in range(1, 5):
                plus = ExceptionalPoint(N, PLUS, candidate_energy(N, PLUS, p),
                                        0.0, FIRST, p)
                minus = ExceptionalPoint(N, MINUS, candidate_energy(N, MINUS, p),
                                         0.0, SECOND, p)
                worst = max(worst, abs(pair_separation(plus, minus) - 2.0 * eps))
                count += 1
    ok = worst <= 1e-12
    return _result(5, "pair-separation", t0, ok,
                   f"{count} pairs, max|dE-2eps|={worst:.3e}")


def criterion_6(tol: float = TRUNC_ACCEPT_TOL) -> CriterionResult:
    """Recurrence residual and closed-form relation agree over a (g, delta) grid."""
    t0 = time.perf_counter()
    eps = 0.1
    gs = np.linspace(0.05, 1.2, 50)
    ds = np.linspace(0.1, 1.5, 50)
    disagreements = 0
    checked = 0
    for g in gs:
        for d in ds:
            p = RabiParams(g=float(g), delta=float(d), epsilon=eps)
            for N in (1, 2):
                for branch in (PLUS, MINUS):
                    rec_small = constraint_residual(N, branch, p, tol=tol) <= tol
                    rel = closed_form_relation(N, branch, p)
                    if N == 1:
                        scale = max(1.0, d * d + 4 * g * g)
                    else:
                        scale = max(1.0, 64 * g * g + d ** 4 + 4 * d * d + 4.0,
                                    (16 * g * g + 3 * d * d - (1 if branch == PLUS else -1) * 8 * eps - 6) ** 2)
                    cf_small = abs(rel) <= 1e-8 * scale
                    disagreements += rec_small != cf_small
                    checked += 1
    ok = disagreements == 0
    return _result(6, "closed-form-equivalence", t0, ok,
                   f"{checked} checks, {disagreements} disagreements")


def criterion_7(seed: int = 0) -> CriterionResult:
    """Factorization identity on 1000 seeded random (g, delta) pairs."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(1000):
        g = float(rng.uniform(0.0, 1.5))
        d = float(rng.uniform(0.0, 1.5))
        dev = factorization_identity_check(g, d)
        rhs = abs(-16.0 * (d * d + 4 * g * g - 2.0) * (3 * d * d + 16 * g * g - 3.0))
        worst = max(worst, dev / (1.0 + rhs))
    ok = worst <= 1e-9
    return _result(7, "factorization-identity", t0, ok,
                   f"1000 samples, max relative deviation={worst:.3e}")


def criterion_8() -> CriterionResult:
    """Reconstructed exceptional states match oracle eigenvectors."""
    t0 = time.perf_counter()
    cases = [(RabiParams(g=0.2, delta=0.8, epsilon=0.1), [MINUS]),
             (RabiParams(g=0.3, delta=0.8, epsilon=0.0), [PLUS, MINUS])]
    ok = True
    parts = []
    for p, branches in cases:
        for branch in branches:
            E = candidate_energy(1, branch, p)
            state = reconstruct_exceptional_state(p, branch, N=1, n_c=60)
            orc = oracle_mod.eigen(p, 6, tol=1e-10, want_vectors=True)
            i = int(np.argmin(np.abs(orc.eigenvalues - E)))
            if abs(orc.eigenvalues[i] - E) > 1e-6:
                ok = False
            # for a two-fold degenerate pair the eigensolver basis is arbitrary
            # inside the plane; project instead of trusting a single vector
            mates = [orc.eigenvectors[j].flatten() for j in range(len(orc.eigenvalues))
                     if abs(orc.eigenvalues[j] - E) <= 1e-6]
            v = state.flatten()
            size = max([v.size] + [m.size for m in mates])
            v_pad = np.pad(v, (0, size - v.size))
            proj = math.sqrt(sum(float(np.dot(v_pad, np.pad(m, (0, size - m.size)))) ** 2
                                 for m in mates))
            H = oracle_mod.build_hamiltonian(p, state.cutoff)
            hnorm = float(np.abs(np.linalg.eigvalsh(H)).max())
            resid = float(np.linalg.norm(H @ v - E * v)) / hnorm
            ok &= proj >= 1.0 - 1e-8 and resid <= 1e-8
            parts.append(f"(g={p.g},eps={p.epsilon},{branch}): overlap={proj:.12f} "
                         f"residual={resid:.2e}")
    return _result(8, "eigenstate-reconstruction", t0, ok, "; ".join(parts))


def criterion_9() -> CriterionResult:
    """Degeneracy structure of the exceptional markers along three g-sweeps."""
    t0 = time.perf_counter()
    window = (-1.5, 3.0)
    parts = []
    ok = True

    sw0 = sweep(RabiParams(g=0.1, delta=0.8, epsilon=0.0), "g", (0.05, 1.2),
                steps=120, e_window=window, N_max=2)
    deg2 = [grp for grp in sw0.marker_groups if grp["degeneracy"] == 2]
    all2 = all(grp["degeneracy"] == 2 and grp["oracle_degeneracy"] >= 2
               for grp in sw0.marker_groups)
    ok &= bool(sw0.marker_groups) and all2
    parts.append(f"eps=0: {len(sw0.marker_groups)} marker groups, "
                 f"{len(deg2)} degenerate")

    sw15 = sweep(RabiParams(g=0.1, delta=0.8, epsilon=0.15), "g", (0.05, 1.2),
                 steps=120, e_window=window, N_max=2)
    any_deg = any(grp["degeneracy"] != 1 or grp["oracle_degeneracy"] != 1
                  for grp in sw15.marker_groups)
    level_deg = any(q.degeneracy != 1 for lv in sw15.levels for q in lv)
    ok &= bool(sw15.marker_groups) and not any_deg and not level_deg
    parts.append(f"eps=0.15: {len(sw15.marker_groups)} groups, degenerate={any_deg}")

    sw5 = sweep(RabiParams(g=0.1, delta=0.8, epsilon=0.5), "g", (0.05, 1.2),
                steps=120, e_window=window, N_max=2)
    deg2 = [grp for grp in sw5.marker_groups if grp["degeneracy"] == 2]
    g_ref = 0.5 * math.sqrt(2.0 - 0.64)
    loc_ok = (len(deg2) == 1 and abs(deg2[0]["axis_value"] - g_ref) <= 1e-6
              and deg2[0]["oracle_degeneracy"] >= 2)
    ok &= loc_ok
    parts.append(f"eps=0.5: {len(deg2)} degenerate group(s)"
                 + (f" at g={deg2[0]['axis_value']:.6f}" if deg2 else ""))
    # grid points whose level list needed an oracle-assisted repair (an
    # eigenvalue inside a pole exclusion window); flagged, never dropped
    gaps = sum(sum(sw.metadata["gap_counts"]) for sw in (sw0, sw15, sw5))
    steps = 3 * 120
    parts.append(f"oracle-assisted repairs: {gaps} level entries over {steps} grid points")
    return _result(9, "sweep-degeneracy-structure", t0, ok, "; ".join(parts),
                   time_limit=180.0)


def _component_param_sets(E, p):
    return [component_params(family, which, E, p)
            for family in (FIRST, SECOND) for which in (PLUS, MINUS)]


def criterion_10() -> CriterionResult:
    """Property suites: recurrence residuals, truncation closure, first-order
    system residuals, linear dependence, eps reflection, oracle monotonicity."""
    t0 = time.perf_counter()
    parts = []
    ok = True

    # recurrence residuals over an (E, p) grid
    worst = 0.0
    grid = [(E, RabiParams(g=g, delta=d, epsilon=e))
            for E in (-0.7, 0.3, 1.2) for g in (0.15, 0.6) for d in (0.5, 1.1)
            for e in (0.0, 0.1)]
    for E, p in grid:
        for hp in _component_param_sets(E, p):
            s = heun.build_series(hp, n_max=120)
            A, B, C = heun.recurrence_abc(hp)
            top = s.trunc_index if s.status == heun.TRUNCATED else len(s.coeffs) - 1
            for n in range(1, top + 1):
                if abs(A(n)) == 0.0:
                    continue
                hn = s.coefficient(n)
                h1 = s.coefficient(n - 1)
                h2 = s.coefficient(n - 2)
                r = abs(A(n) * hn - B(n) * h1 - C(n) * h2)
                scale = abs(A(n) * hn) + abs(B(n) * h1) + abs(C(n) * h2) + 1e-300
                worst = max(worst, r / scale)
    rec_ok = worst <= 1e-10
    ok &= rec_ok
    parts.append(f"recurrence residual max={worst:.2e}")

    # truncation closure at exceptional loci
    closure_ok = True
    for p, branch, N in [(RabiParams(g=0.2, delta=0.8, epsilon=0.1), MINUS, 1),
                         (RabiParams(g=0.3, delta=0.8, epsilon=0.0), PLUS, 1)]:
        E = candidate_energy(N, branch, p)
        hp = (component_params(FIRST, PLUS, E, p) if branch == PLUS
              else component_params(SECOND, MINUS, E, p))
        if not constraint_residual(N, branch, p) <= 1e-10:
            closure_ok = False
            continue
        s = heun.build_series(hp, n_max=N + 20)
        runmax = max(abs(s.coefficient(k)) for k in range(min(N + 1, len(s.coeffs))))
        for n in range(N + 1, min(N + 21, len(s.coeffs))):
            closure_ok &= abs(s.coefficient(n)) <= 1e-10 * runmax
    ok &= closure_ok
    parts.append(f"truncation closure={'ok' if closure_ok else 'FAIL'}")

    # first-order coupled system residuals at z in {0, g/2}
    worst_sys = 0.0
    for E, p in [(0.3, RabiParams(g=0.4, delta=0.8, epsilon=0.1)),
                 (-0.5, RabiParams(g=0.25, delta=0.6, epsilon=0.05)),
                 (1.1, RabiParams(g=0.55, delta=1.0, epsilon=0.2))]:
        for family in (FIRST, SECOND):
            pair = build_pair(family, E, p)
            if not all(s.status in (heun.CONVERGED, heun.TRUNCATED)
                       for s in (pair.plus_series, pair.minus_series)):
                continue
            for z in (0.0, p.g / 2.0):
                vp, dp = eval_component(pair, PLUS, z)
                vm, dm = eval_component(pair, MINUS, z)
                r1 = dp - ((E - p.epsilon - p.g * z) * vp - p.delta * vm) / (z + p.g)
                r2 = dm - ((E + p.epsilon + p.g * z) * vm - p.delta * vp) / (z - p.g)
                scale = abs(dp) + abs(dm) + abs(vp) + abs(vm) + 1e-300
                worst_sys = max(worst_sys, abs(r1) / scale, abs(r2) / scale)
    sys_ok = worst_sys <= 1e-8
    ok &= sys_ok
    parts.append(f"first-order system residual max={worst_sys:.2e}")

    # linear dependence at a converged regular eigenvalue
    p = RabiParams(g=0.4, delta=0.8, epsilon=0.1)
    roots = find_regular_spectrum(p, -1.5, 1.5)
    dep_ok = bool(roots)
    checked = 0
    for q in roots:
        first = build_pair(FIRST, q.energy, p)
        second = build_pair(SECOND, q.energy, p)
        if not all(s.status == heun.CONVERGED
                   for s in (first.plus_series, second.plus_series)):
            continue
        ratios = []
        for z in (0.0, p.g / 2.0):
            v1, _ = eval_component(first, PLUS, z)
            v2, _ = eval_component(second, PLUS, z)
            ratios.append(v1 / v2)
        dep_ok &= abs(ratios[0] - ratios[1]) <= 1e-6 * max(abs(ratios[0]), abs(ratios[1]))
        checked += 1
    ok &= dep_ok and checked > 0
    parts.append(f"linear dependence at {checked} eigenvalues={'ok' if dep_ok else 'FAIL'}")

    # eps reflection symmetry of the oracle spectrum
    refl_ok = True
    for g, d, e in [(0.3, 0.8, 0.1), (0.6, 1.1, 0.35)]:
        a = oracle_mod.eigen(RabiParams(g=g, delta=d, epsilon=e), 8, tol=1e-10)
        b = oracle_mod.eigen(RabiParams(g=g, delta=d, epsilon=-e), 8, tol=1e-10)
        refl_ok &= float(np.max(np.abs(a.eigenvalues - b.eigenvalues))) <= 1e-10
    ok &= refl_ok
    parts.append(f"eps reflection={'ok' if refl_ok else 'FAIL'}")

    # variational monotonicity in the cutoff
    mono_ok = True
    p = RabiParams(g=0.5, delta=0.8, epsilon=0.1)
    e40 = np.linalg.eigvalsh(oracle_mod.build_hamiltonian(p, 40))[:10]
    e80 = np.linalg.eigvalsh(oracle_mod.build_hamiltonian(p, 80))[:10]
    mono_ok &= bool(np.all(e80 <= e40 + 1e-12))
    ok &= mono_ok
    parts.append(f"cutoff monotonicity={'ok' if mono_ok else 'FAIL'}")

    return _result(10, "property-suites", t0, ok, "; ".join(parts))


def run_all(seed: int = 0, tol: float = TRUNC_ACCEPT_TOL,
            only: Optional[List[int]] = None) -> List[CriterionResult]:
    """Run the criteria in order; tol overrides the truncation-acceptance
    threshold where a criterion uses one, and only restricts to a subset of
    criterion indices."""
    table: List[Callable[[], CriterionResult]] = [
        lambda: criterion_1(tol=tol),
        criterion_2,
        criterion_3,
        criterion_4,
        criterion_5,
        lambda: criterion_6(tol=tol),
        lambda: criterion_7(seed=seed),
        criterion_8,
        criterion_9,
        criterion_10,
    ]
    picked = range(1, 11) if only is None else only
    out = []
    for i in picked:
        if not 1 <= i <= 10:
            raise ValueError(f"criterion index out of range: {i}")
        out.append(table[i - 1]())
    return out
