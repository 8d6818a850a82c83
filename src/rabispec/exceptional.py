"""Exceptional (isolated, Judd-type) eigenvalues and level crossings.

An exceptional point with index N >= 1 has energy E = N - g^2 + eps
("plus" branch) or E = N - g^2 - eps ("minus" branch).  At that energy the
closing condition C(N+2) = 0 holds automatically for both components of the
family the branch truncates (``analytic.FAMILY``); existence additionally
requires the component series to terminate, h_{N_c + 1} = 0, at the
truncation indices (N, N - 1) that ``analytic`` assigns to the two
components.  The partner family's series is divergent there, so these
eigenvalues leave no sign-change zero in the Wronskian.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

import numpy as np

from .model import HeunParams, RabiParams
from . import heun
from .analytic import (BRANCH_SIGN, FAMILY, MINUS, PLUS, candidate_energy,
                       component_params, refine_brackets)
from . import oracle as oracle_mod

CROSSING_G_RANGE = (1e-3, 2.0)   # g interval that find_crossings scans
CROSSING_GRID = 400             # scan points in it


@dataclass(frozen=True)
class ExceptionalPoint:
    """An exceptional eigenvalue; ``oracle_count`` is the number of converged
    oracle eigenvalues within 1e-6 of it that ``scan_exceptional`` counted."""

    N: int
    branch: str                   # "plus" | "minus"
    energy: float
    constraint_residual: float
    params: RabiParams
    oracle_count: Optional[int] = None    # None on a point built by hand

    @property
    def family(self) -> str:
        """The solution family the branch truncates."""
        return FAMILY[self.branch]


@dataclass(frozen=True)
class CrossingPoint:
    N1: int
    N2: int
    epsilon_star: float
    g_star: float
    delta_relation: float         # delta^2 + 4 g_star^2 on the crossing locus
    energy: float
    boundary: bool = False        # g_star pinned at 0 (degenerate locus edge)


def constraint_residual(N: int, branch: str, p: RabiParams,
                        tol: float = heun.TRUNC_TOL) -> float:
    """Larger of the two normalized truncation residuals |h_{N_c+1}| / max|h_k|.

    Zero (within tol) iff an exceptional eigenvalue exists at these
    parameters.  Components whose series is divergent at the candidate energy
    yield an infinite residual.
    """
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    E = candidate_energy(N, branch, p)
    worst = 0.0
    for which in (PLUS, MINUS):    # the branch family's components truncate at N, N - 1
        hp = component_params(FAMILY[branch], which, E, p)
        n_c = N if which == branch else N - 1
        series = heun.build_series(hp, n_max=max(n_c + 4, 2), tol=tol)
        if series.status == heun.DIVERGENT:
            return math.inf
        hs = [series.coefficient(k) for k in range(n_c + 1)]
        scale = max(abs(v) for v in hs)
        if abs(n_c + 1 + hp.beta) <= heun.POLE_EPS:
            # pole at the residual index: the builder either resolved the 0/0
            # into an exact polynomial or reported divergence above
            r = abs(series.coefficient(n_c + 1)) / scale
        else:
            # raw recurrence value, immune to the builder's zero-filling
            A, B, C = heun.recurrence_abc(hp)
            prev2 = hs[n_c - 1] if n_c >= 1 else 0.0
            r = abs(B(n_c + 1) * hs[n_c] + C(n_c + 1) * prev2) / abs(A(n_c + 1)) / scale
        worst = max(worst, r)
    return worst


def closed_form_relation(N: int, branch: str, p: RabiParams) -> float:
    """Residual of the explicit N = 1, 2 parameter relations (reduced units)."""
    g2 = p.g * p.g
    d2 = p.delta * p.delta
    eps = p.epsilon
    sign = BRANCH_SIGN[branch]
    if N == 1:
        return d2 + 4.0 * g2 - 1.0 - sign * 2.0 * eps
    if N == 2:
        return (64.0 * g2 + d2 * d2 + 4.0 * d2 + 4.0
                - (16.0 * g2 + 3.0 * d2 - sign * 8.0 * eps - 6.0) ** 2)
    raise ValueError(f"no closed-form relation for N = {N}; use constraint_residual")


def _senior_obstruction(N, plus, p: RabiParams):
    """Signed truncation indicator of the component with index N, smooth along
    parameter sweeps (finite across recurrence poles).  ``p`` may carry an
    array of g or epsilon, N and the branch mask ``plus`` one entry per sample."""
    E = N - p.g * p.g + np.where(plus, BRANCH_SIGN[PLUS], BRANCH_SIGN[MINUS]) * p.epsilon
    hp, hm = (component_params(FAMILY[b], b, E, p) for b in (PLUS, MINUS))
    return heun.truncation_obstruction(
        HeunParams(**{k: np.where(plus, v, getattr(hm, k)) for k, v in vars(hp).items()}), N)


def _locus_roots(combos, p: RabiParams, axis: str, values: np.ndarray):
    """Ascending roots of the truncation indicator of each (N, branch) in
    ``combos`` as the ``RabiParams`` field ``axis`` of ``p`` runs over
    ``values``, one array per pair: the axis is tiled once per pair, each copy
    a segment of one ``refine_brackets`` call over len(combos) * values.size samples."""
    n = values.size
    N = np.repeat([N for N, _ in combos], n)
    plus = np.repeat([branch == PLUS for _, branch in combos], n)

    def f(v, N, plus):
        return (_senior_obstruction(N, plus, replace(p, **{axis: v})),
                np.ones(v.shape, dtype=bool))

    x = np.tile(values, len(combos))
    vals = f(x, N, plus)[0]
    roots, _, at = refine_brackets(f, x, vals, np.isfinite(vals),
                                   np.arange(x.size) // n, 1e-13, N, plus)
    return np.split(roots, np.searchsorted(at, n * np.arange(1, len(combos))))


def scan_exceptional(p_template: RabiParams,
                     g_range: Optional[Tuple[float, float]] = None,
                     epsilon_range: Optional[Tuple[float, float]] = None,
                     N_max: int = 4, tol: float = heun.TRUNC_TOL,
                     grid: int = 400,
                     oracle_check: bool = True) -> List[ExceptionalPoint]:
    """All exceptional points along a sweep of g or epsilon, ordered by it.

    Evaluates the signed truncation indicators of every (N, branch) with
    N = 1..N_max on the sweep grid in one array of 2 N_max grid samples,
    refines all their sign changes in one ``refine_brackets`` call and keeps
    the points whose full two-component residual passes.  One
    ``oracle.count_in`` batch puts the converged eigenvalues within 1e-6 of
    each point in its ``oracle_count``; ``oracle_check`` drops the points
    that count none.
    """
    if (g_range is None) == (epsilon_range is None):
        raise ValueError("provide exactly one of g_range, epsilon_range")
    if grid < 200:
        raise ValueError(f"sweep grid must be >= 200 points, got {grid}")
    if N_max > 10:
        raise ValueError(f"N_max is capped at 10, got {N_max}")

    axis, (lo, hi) = ("g", g_range) if g_range is not None else ("epsilon", epsilon_range)
    values = np.linspace(lo, hi, grid)

    combos = [(N, branch) for N in range(1, N_max + 1) for branch in (PLUS, MINUS)]
    found: List[ExceptionalPoint] = []
    for (N, branch), roots in zip(combos, _locus_roots(combos, p_template, axis, values)):
        for root in roots.tolist():
            pr = replace(p_template, **{axis: root})
            res = constraint_residual(N, branch, pr, tol=tol)
            if res <= tol:
                found.append(ExceptionalPoint(
                    N=N, branch=branch, energy=candidate_energy(N, branch, pr),
                    constraint_residual=res, params=pr))
    E = np.array([pt.energy for pt in found])
    counts = oracle_mod.count_in(*(np.array([getattr(pt.params, f) for pt in found])
                                   for f in ("g", "delta", "epsilon")),
                                 E - 1e-6, E + 1e-6)
    found = [replace(pt, oracle_count=int(c)) for pt, c in zip(found, counts)
             if c >= 1 or not oracle_check]
    found.sort(key=lambda pt: (getattr(pt.params, axis), pt.N, pt.branch))
    return found


def pair_separation(pt_plus: ExceptionalPoint, pt_minus: ExceptionalPoint) -> float:
    """E_plus - E_minus for a matched pair with equal N; equals 2 eps exactly."""
    if pt_plus.branch != PLUS or pt_minus.branch != MINUS:
        raise ValueError("expected a (plus, minus) pair of exceptional points")
    if pt_plus.N != pt_minus.N:
        raise ValueError(f"mismatched N: {pt_plus.N} vs {pt_minus.N}")
    if pt_plus.params != pt_minus.params:
        raise ValueError("exceptional points belong to different parameters")
    return pt_plus.energy - pt_minus.energy


def find_crossings(delta: float, N1: int, N2: int) -> Optional[CrossingPoint]:
    """Two-fold degeneracy where the (N1, plus) and (N2, minus) exceptional
    points coincide; possible only at eps = (N2 - N1)/2.

    Finds the roots in g of the (N1, plus) constraint at that eps with the
    batch scan of ``scan_exceptional`` given this one pair, and accepts the
    lowest root where the minus-branch residual also vanishes.
    The scan covers CROSSING_GRID points of CROSSING_G_RANGE, and both
    residuals must be at most heun.TRUNC_TOL, read at call time.  Returns None
    when no such g exists in range; a degenerate locus pinned at g = 0 is
    reported with boundary=True.
    """
    if not (N2 > N1 >= 1):
        raise ValueError(f"need N2 > N1 >= 1, got ({N1}, {N2})")
    g_lo, g_hi = CROSSING_G_RANGE
    tol = heun.TRUNC_TOL
    eps_star = 0.5 * (N2 - N1)
    p = RabiParams(g=g_lo, delta=delta, epsilon=eps_star)
    for root in _locus_roots([(N1, PLUS)], p, "g",
                             np.linspace(g_lo, g_hi, CROSSING_GRID))[0].tolist():
        pr = replace(p, g=root)
        if not (constraint_residual(N1, PLUS, pr, tol=tol) <= tol):
            continue
        if not (constraint_residual(N2, MINUS, pr, tol=tol) <= tol):
            continue
        return CrossingPoint(N1=N1, N2=N2, epsilon_star=eps_star,
                             g_star=float(root),
                             delta_relation=float(delta ** 2 + 4.0 * root ** 2),
                             energy=float(candidate_energy(N1, PLUS, pr)))
    if N1 == 1:
        # closed-form locus g^2 = (1 + 2 eps* - delta^2)/4 degenerates at g = 0
        g2 = (1.0 + 2.0 * eps_star - delta ** 2) / 4.0
        if g2 <= g_lo ** 2:
            return CrossingPoint(N1=N1, N2=N2, epsilon_star=eps_star, g_star=0.0,
                                 delta_relation=delta ** 2,
                                 energy=N1 + eps_star, boundary=True)
    return None


def factorization_identity_check(g: float, delta: float) -> float:
    """|LHS - RHS| of the crossing-locus factorization with eps eliminated via
    the N = 1 plus-branch relation eps = (delta^2 + 4 g^2 - 1)/2."""
    eps = 0.5 * (delta ** 2 + 4.0 * g ** 2 - 1.0)
    d2 = delta ** 2
    g2 = g ** 2
    lhs = (64.0 * g2 + d2 * d2 + 4.0 * d2 + 4.0
           - (16.0 * g2 + 3.0 * d2 + 8.0 * eps - 6.0) ** 2)
    rhs = -16.0 * (d2 + 4.0 * g2 - 2.0) * (3.0 * d2 + 16.0 * g2 - 3.0)
    return abs(lhs - rhs)
