"""Exceptional (isolated, Judd-type) eigenvalues and level crossings.

An exceptional point with index N >= 1 has energy E = N - g^2 + eps
("plus" branch, first solution family) or E = N - g^2 - eps ("minus" branch,
second family).  At that energy the closing condition C(N+2) = 0 holds
automatically for both components of the family; existence additionally
requires the component series to terminate, h_{N_c + 1} = 0, where the
truncation indices pair up as (N, N - 1) across the two components.  The
partner family's series is divergent there, so these eigenvalues leave no
sign-change zero in the Wronskian.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .model import RabiParams
from . import heun
from .analytic import FIRST, MINUS, PLUS, SECOND, component_params, refine_brackets
from . import oracle as oracle_mod

CROSSING_G_RANGE = (1e-3, 2.0)   # g interval that find_crossings scans
CROSSING_GRID = 400             # scan points in it


@dataclass(frozen=True)
class ExceptionalPoint:
    N: int
    branch: str                   # "plus" | "minus"
    energy: float
    constraint_residual: float
    family: str                   # "first" (plus) | "second" (minus)
    params: RabiParams


@dataclass(frozen=True)
class CrossingPoint:
    N1: int
    N2: int
    epsilon_star: float
    g_star: float
    delta_relation: float         # delta^2 + 4 g_star^2 on the crossing locus
    energy: float
    boundary: bool = False        # g_star pinned at 0 (degenerate locus edge)


def candidate_energy(N: int, branch: str, p: RabiParams) -> float:
    """Closed-form candidate E = N - g^2 +- eps (existence not implied)."""
    if N < 0:
        raise ValueError(f"N must be >= 0, got {N}")
    sign = {PLUS: 1.0, MINUS: -1.0}[branch]
    return N - p.g ** 2 + sign * p.epsilon


def _component_sets(N: int, branch: str, E: float, p: RabiParams):
    """(HeunParams, truncation index) for both components of the branch family."""
    if branch == PLUS:
        return [(component_params(FIRST, PLUS, E, p), N),
                (component_params(FIRST, MINUS, E, p), N - 1)]
    if branch == MINUS:
        return [(component_params(SECOND, PLUS, E, p), N - 1),
                (component_params(SECOND, MINUS, E, p), N)]
    raise ValueError(f"unknown branch {branch!r}")


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
    for hp, n_c in _component_sets(N, branch, E, p):
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
    g2 = p.g ** 2
    d2 = p.delta ** 2
    eps = p.epsilon
    sign = {PLUS: 1.0, MINUS: -1.0}[branch]
    if N == 1:
        return d2 + 4.0 * g2 - 1.0 - sign * 2.0 * eps
    if N == 2:
        return (64.0 * g2 + d2 * d2 + 4.0 * d2 + 4.0
                - (16.0 * g2 + 3.0 * d2 - sign * 8.0 * eps - 6.0) ** 2)
    raise ValueError(f"no closed-form relation for N = {N}; use constraint_residual")


def _senior_obstruction(N: int, branch: str, p: RabiParams) -> float:
    """Signed truncation indicator of the component with index N, smooth along
    parameter sweeps (finite across recurrence poles).  ``p`` may carry an
    array of g or epsilon."""
    E = candidate_energy(N, branch, p)
    hp = (component_params(FIRST, PLUS, E, p) if branch == PLUS
          else component_params(SECOND, MINUS, E, p))
    return heun.truncation_obstruction(hp, N)


def _locus_roots(N: int, branch: str, make, axis: np.ndarray) -> np.ndarray:
    """Ascending roots of the (N, branch) truncation indicator along the sweep
    axis: grid zeros, and every sign change refined by ``refine_brackets``."""
    def f(v):
        return _senior_obstruction(N, branch, make(v)), np.ones(v.shape, dtype=bool)

    vals = f(axis)[0]
    a, b, lo, hi = vals[:-1], vals[1:], axis[:-1], axis[1:]
    brk = (a != 0.0) & (b != 0.0) & ((a > 0) != (b > 0))
    root, _, found = refine_brackets(f, lo[brk], hi[brk], a[brk], b[brk], tol=1e-13)
    return np.sort(np.concatenate([lo[a == 0.0], root[found]]))


def scan_exceptional(p_template: RabiParams,
                     g_range: Optional[Tuple[float, float]] = None,
                     epsilon_range: Optional[Tuple[float, float]] = None,
                     N_max: int = 4, tol: float = heun.TRUNC_TOL,
                     grid: int = 400,
                     oracle_check: bool = True) -> List[ExceptionalPoint]:
    """All exceptional points along a one-parameter sweep.

    Evaluates the signed truncation indicator of each (N, branch) on the
    whole sweep grid at once and refines all its sign changes together with
    ``refine_brackets`` (Chandrupatla's method), then accepts a point only if
    the full two-component residual passes and (optionally) the oracle has a
    converged eigenvalue within 1e-6 of it.
    """
    if (g_range is None) == (epsilon_range is None):
        raise ValueError("provide exactly one of g_range, epsilon_range")
    if grid < 200:
        raise ValueError(f"sweep grid must be >= 200 points, got {grid}")
    if N_max > 10:
        raise ValueError(f"N_max is capped at 10, got {N_max}")

    if g_range is not None:
        lo, hi = g_range
        make = lambda v: RabiParams(g=v, delta=p_template.delta,
                                    epsilon=p_template.epsilon)
    else:
        lo, hi = epsilon_range
        make = lambda v: RabiParams(g=p_template.g, delta=p_template.delta,
                                    epsilon=v)
    axis = np.linspace(lo, hi, grid)

    found: List[ExceptionalPoint] = []
    for N in range(1, N_max + 1):
        for branch in (PLUS, MINUS):
            for root in _locus_roots(N, branch, make, axis).tolist():
                pr = make(root)
                res = constraint_residual(N, branch, pr, tol=tol)
                if not (res <= tol):
                    continue
                E = candidate_energy(N, branch, pr)
                if oracle_check:
                    orc = oracle_mod.eigen_in_window(pr, E - 0.5, E + 0.5)
                    conv = orc.eigenvalues[:orc.converged_count]
                    if conv.size == 0 or np.min(np.abs(conv - E)) > 1e-6:
                        continue
                found.append(ExceptionalPoint(
                    N=N, branch=branch, energy=E, constraint_residual=res,
                    family=FIRST if branch == PLUS else SECOND, params=pr))
    axis_of = (lambda pt: pt.params.g) if g_range is not None else (lambda pt: pt.params.epsilon)
    found.sort(key=lambda pt: (axis_of(pt), pt.N, pt.branch))
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


def find_crossings(delta: float, N1: int, N2: int,
                   tol: float = heun.TRUNC_TOL) -> Optional[CrossingPoint]:
    """Two-fold degeneracy where the (N1, plus) and (N2, minus) exceptional
    points coincide; possible only at eps = (N2 - N1)/2.

    Finds the roots in g of the plus-branch constraint at that eps with the
    same array scan and ``refine_brackets`` refinement as ``scan_exceptional``
    and accepts the lowest root where the minus-branch residual also vanishes.
    The scan covers CROSSING_GRID points of CROSSING_G_RANGE.  Returns None
    when no such g exists in range; a degenerate locus pinned at g = 0 is
    reported with boundary=True.
    """
    if not (N2 > N1 >= 1):
        raise ValueError(f"need N2 > N1 >= 1, got ({N1}, {N2})")
    g_lo, g_hi = CROSSING_G_RANGE
    eps_star = 0.5 * (N2 - N1)
    make = lambda g: RabiParams(g=g, delta=delta, epsilon=eps_star)
    for root in _locus_roots(N1, PLUS, make,
                             np.linspace(g_lo, g_hi, CROSSING_GRID)).tolist():
        pr = make(root)
        if not (constraint_residual(N1, PLUS, pr, tol=tol) <= tol):
            continue
        if not (constraint_residual(N2, MINUS, pr, tol=tol) <= tol):
            continue
        return CrossingPoint(N1=N1, N2=N2, epsilon_star=eps_star,
                             g_star=float(root),
                             delta_relation=float(delta ** 2 + 4.0 * root ** 2),
                             energy=float(N1 - root ** 2 + eps_star))
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
