"""Analytic solution pairs and the Wronskian condition for the regular spectrum.

Two families solve the coupled first-order system for (psi_+, psi_-):

    family "first":   psi_{+,-}^1(z) = scale * exp(-g z) * HC(..., (g - z)/(2g))
    family "second":  psi_{+,-}^2(z) = scale * exp(+g z) * HC(..., (g + z)/(2g))

At an energy eigenvalue the families are linearly dependent, so the Wronskians

    W_+(E, z) = psi_+^2 d(psi_+^1)/dz - psi_+^1 d(psi_+^2)/dz
    W_-(E, z) = psi_-^2 d(psi_-^1)/dz - psi_-^1 d(psi_-^2)/dz

vanish; the regular spectrum is found as sign-change zeros of W_+ in E at
z = 0, with exclusion windows around the candidate energies N - g^2 +- eps
where the series recurrence has poles (exceptional-point territory).

``wronskian_grid`` sums the four series for a whole array of energies in one
recurrence, with parameters from the ``model`` maps; ``refine_brackets``
refines all sign changes of the grid together by Chandrupatla's method, one
``wronskian_grid`` call per step.  The scalar ``wronskian`` builds each series
on its own and serves as the cross-check.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields
import numpy as np

from .model import (HeunParams, RabiParams, heun_params_set1_minus,
                    heun_params_set1_plus, heun_params_set2)
from . import heun
from .heun import (CONVERGED, TRUNCATED, DivergentSeriesError, HeunSeries,
                   build_series, eval_series)

FIRST = "first"
SECOND = "second"
PLUS = "plus"
MINUS = "minus"

W_EXCL_DEFAULT = 1e-3


class ScalePoleError(ValueError):
    """Scale denominator E + g^2 +- epsilon vanishes at this energy."""


def component_params(family: str, which: str, E: float, p: RabiParams):
    """Heun parameters of one component of one solution family."""
    base = heun_params_set1_plus(E, p) if which == PLUS else heun_params_set1_minus(E, p)
    if family == FIRST:
        return base
    if family == SECOND:
        return heun_params_set2(base)
    raise ValueError(f"unknown family {family!r}")


@dataclass(frozen=True)
class SolutionPair:
    family: str
    plus_series: HeunSeries
    minus_series: HeunSeries
    scale_plus: float
    scale_minus: float
    energy: float
    params: RabiParams


@dataclass(frozen=True)
class WronskianSample:
    energy: float
    w_plus: float
    w_minus: float
    reliable: bool


def build_pair(family: str, E: float, p: RabiParams,
               n_max: int = heun.N_MAX_DEFAULT, tol: float = heun.TRUNC_TOL) -> SolutionPair:
    """Build both components of one solution family at energy E."""
    if p.g == 0.0:
        raise ValueError("g = 0 is not supported by the analytic path; "
                         "the coordinate (g -+ z)/(2g) degenerates")
    g2 = p.g * p.g
    if family == FIRST:
        denom = E + g2 + p.epsilon
    elif family == SECOND:
        denom = E + g2 - p.epsilon
    else:
        raise ValueError(f"unknown family {family!r}")
    if abs(denom) < 1e-12 * max(1.0, abs(E)):
        raise ScalePoleError(
            f"scale denominator vanishes at E = {E} for family {family!r}")
    plus = build_series(component_params(family, PLUS, E, p), n_max=n_max, tol=tol)
    minus = build_series(component_params(family, MINUS, E, p), n_max=n_max, tol=tol)
    if family == FIRST:
        scale_plus, scale_minus = 1.0, p.delta / denom
    else:
        scale_plus, scale_minus = p.delta / denom, 1.0
    return SolutionPair(family, plus, minus, scale_plus, scale_minus, E, p)


def _eval_component_full(pair: SolutionPair, which: str, z: float):
    g = pair.params.g
    if pair.family == FIRST:
        x = (g - z) / (2.0 * g)
        dxdz = -1.0 / (2.0 * g)
        s = -g
    else:
        x = (g + z) / (2.0 * g)
        dxdz = 1.0 / (2.0 * g)
        s = g
    if which == PLUS:
        series, scale = pair.plus_series, pair.scale_plus
    elif which == MINUS:
        series, scale = pair.minus_series, pair.scale_minus
    else:
        raise ValueError(f"unknown component {which!r}")
    ev = eval_series(series, x)
    pref = scale * math.exp(s * z)
    value = pref * ev.value
    deriv = pref * (s * ev.value + ev.derivative * dxdz)
    return value, deriv, ev.status


def eval_component(pair: SolutionPair, which: str, z: float):
    """(value, d/dz) of one component at z, including prefactor and chain rule."""
    value, deriv, _ = _eval_component_full(pair, which, z)
    return value, deriv


def wronskian(E: float, p: RabiParams, z: float = 0.0,
              n_max: int = heun.N_MAX_DEFAULT, tol: float = heun.TRUNC_TOL) -> WronskianSample:
    """Both Wronskians at one energy; unreliable when any series misbehaves.

    At z = 0 the identity W_+(E; eps) = W_-(E; -eps) holds and serves as a
    cross-check.
    """
    try:
        first = build_pair(FIRST, E, p, n_max=n_max, tol=tol)
        second = build_pair(SECOND, E, p, n_max=n_max, tol=tol)
    except ScalePoleError:
        return WronskianSample(E, math.nan, math.nan, False)
    build_statuses = [first.plus_series.status, first.minus_series.status,
                      second.plus_series.status, second.minus_series.status]
    reliable = all(s in (CONVERGED, TRUNCATED) for s in build_statuses)
    try:
        vp1, dp1, s1 = _eval_component_full(first, PLUS, z)
        vp2, dp2, s2 = _eval_component_full(second, PLUS, z)
        vm1, dm1, s3 = _eval_component_full(first, MINUS, z)
        vm2, dm2, s4 = _eval_component_full(second, MINUS, z)
    except DivergentSeriesError:
        return WronskianSample(E, math.nan, math.nan, False)
    reliable &= all(s in (CONVERGED, TRUNCATED) for s in (s1, s2, s3, s4))
    w_plus = vp2 * dp1 - vp1 * dp2
    w_minus = vm2 * dm1 - vm1 * dm2
    return WronskianSample(E, w_plus, w_minus, reliable)


def exceptional_candidates(p: RabiParams, e_min: float, e_max: float):
    """(N, branch, E) for every candidate energy E = N - g^2 +- eps in range.

    These are the energies where the series recurrence has poles; N = 0 rows
    are included because they carry poles too, even though a valid exceptional
    point needs N >= 1.
    """
    g2 = p.g * p.g
    out = []
    n_lo = max(0, math.floor(e_min + g2 - abs(p.epsilon)) - 1)
    n_hi = math.ceil(e_max + g2 + abs(p.epsilon)) + 1
    for N in range(n_lo, n_hi + 1):
        for branch, sign in ((PLUS, 1.0), (MINUS, -1.0)):
            E = N - g2 + sign * p.epsilon
            if e_min <= E <= e_max:
                out.append((N, branch, E))
    out.sort(key=lambda t: t[2])
    return out


def wronskian_grid(E: np.ndarray, p: RabiParams, z: float = 0.0,
                   n_max: int = heun.N_MAX_DEFAULT):
    """Vectorized W_+ and W_- over an array of energies.

    Same arithmetic as the scalar path: the four series psi_+^1, psi_+^2,
    psi_-^1, psi_-^2 advance together in one recurrence over a (4, ...)
    stack, each row on its own coordinate x1 = (g - z)/(2g) or
    x2 = (g + z)/(2g).  Returns (w_plus, w_minus, reliable); an element is
    unreliable when a recurrence pole was hit before its series converged,
    the tail rule failed to fire within n_max terms, or a scale denominator
    is (nearly) singular.  No element depends on the other energies in E.
    """
    if p.g == 0.0:
        raise ValueError("g = 0 is not supported by the analytic path")
    E = np.asarray(E, dtype=float)
    g = p.g
    eps = p.epsilon
    g2 = g * g
    x1, x2 = (g - z) / (2.0 * g), (g + z) / (2.0 * g)
    dx1, dx2 = -1.0 / (2.0 * g), 1.0 / (2.0 * g)
    if abs(x1) >= 1.0 or abs(x2) >= 1.0:
        raise ValueError(f"z = {z} leaves the common convergence disk")

    rows = [component_params(family, which, E, p)
            for which in (PLUS, MINUS) for family in (FIRST, SECOND)]
    hp = HeunParams(*(np.stack([np.broadcast_to(getattr(r, f.name), E.shape)
                                for r in rows])
                      for f in fields(HeunParams)))
    A, B, C = heun.recurrence_abc(hp)
    x = np.array([x1, x2, x1, x2]).reshape((4,) + (1,) * E.ndim)
    # the only index where A(n) can vanish, found as the loop would find it
    n_pole = np.rint(-hp.beta)
    n_pole[np.abs(n_pole + hp.beta) > heun.POLE_EPS] = -1.0
    pole_steps = set(n_pole[n_pole >= 1.0].tolist())

    shape = hp.beta.shape
    h_prev = np.zeros(shape)
    h_cur = np.ones(shape)
    S = np.ones(shape)
    Dx = np.zeros(shape)
    small = np.zeros(shape, dtype=np.int32)
    done = np.zeros(shape, dtype=bool)
    hit_pole = np.zeros(shape, dtype=bool)
    xp = np.ones_like(x)               # x**(n-1)
    with np.errstate(all="ignore"):
        for n in range(1, n_max + 1):
            h_new = (B(n) * h_cur + C(n) * h_prev) / A(n)
            if n in pole_steps:
                pole = n_pole == n
                hit_pole |= pole & ~done
                h_new[pole] = 0.0
            active = ~done
            hx = h_new * xp
            np.add(Dx, n * hx, out=Dx, where=active)
            term = hx * x
            np.add(S, term, out=S, where=active)
            small = np.where(np.abs(term) <= heun.TAIL_TOL * np.abs(S), small + 1, 0)
            done |= small >= heun.TAIL_RUN
            if done.all():
                break
            h_prev, h_cur = h_cur, h_new
            xp = xp * x
    reliable = np.all(done & ~hit_pole & np.isfinite(S) & np.isfinite(Dx), axis=0)

    den_p = E + g2 - eps              # scale of psi_+^2
    den_m = E + g2 + eps              # scale of psi_-^1
    reliable &= (np.abs(den_p) > 1e-12) & (np.abs(den_m) > 1e-12)
    ezm = math.exp(-g * z)
    ezp = math.exp(g * z)
    with np.errstate(all="ignore"):   # singular scales are flagged unreliable
        sc_p = p.delta / den_p
        sc_m = p.delta / den_m
        vp1 = ezm * S[0]
        dp1 = ezm * (-g * S[0] + dx1 * Dx[0])
        vp2 = sc_p * ezp * S[1]
        dp2 = sc_p * ezp * (g * S[1] + dx2 * Dx[1])
        vm1 = sc_m * ezm * S[2]
        dm1 = sc_m * ezm * (-g * S[2] + dx1 * Dx[2])
        vm2 = ezp * S[3]
        dm2 = ezp * (g * S[3] + dx2 * Dx[3])
        w_plus = vp2 * dp1 - vp1 * dp2
        w_minus = vm2 * dm1 - vm1 * dm2
    return w_plus, w_minus, reliable


def refine_brackets(f, x1, x2, f1, f2, tol):
    """Refine the sign changes of f in the brackets [x1, x2] all at once.

    Chandrupatla's method (Adv. Eng. Softw. 28 (1997) 145): each step tries
    inverse quadratic interpolation through the two bracket ends and the end
    dropped last, and bisects where Chandrupatla's test finds that unsafe.
    Every new point lies at least tol/2 inside the bracket, so the bracket
    shrinks on every step.  ``f`` maps an array of points to
    (values, reliable) and is called once per step, for the brackets still
    open.  A bracket closes once it is no wider than tol (plus a few ulps of
    its ends) or f vanishes at an end, and reports the end of smaller |f|;
    a bracket whose new point is unreliable is dropped.  Returns
    (roots, |f(roots)|, found), NaN where not found.
    """
    x1, x2, f1, f2 = (np.array(a, dtype=float) for a in (x1, x2, f1, f2))
    root = np.full(x1.shape, np.nan)
    resid = np.full(x1.shape, np.nan)
    found = np.zeros(x1.shape, dtype=bool)
    idx = np.arange(x1.size)
    t = np.full(x1.shape, 0.5)
    while idx.size:
        xt = x1 + t * (x2 - x1)
        ft, rel = f(xt)
        rel = rel & np.isfinite(ft)
        # xt replaces the end of its own sign; the dropped end becomes x3
        same = np.sign(ft) == np.sign(f1)
        x3, f3 = np.where(same, x1, x2), np.where(same, f1, f2)
        x2, f2 = np.where(same, x2, x1), np.where(same, f2, f1)
        x1, f1 = xt, ft
        near = np.abs(f1) < np.abs(f2)
        xm, fm = np.where(near, x1, x2), np.where(near, f1, f2)
        width = np.abs(x2 - x1)
        tol_x = tol + 4.0 * np.finfo(float).eps * np.abs(xm)
        stop = rel & ((fm == 0.0) | (width <= tol_x))
        root[idx[stop]] = xm[stop]
        resid[idx[stop]] = np.abs(fm[stop])
        found[idx[stop]] = True
        with np.errstate(all="ignore"):
            xi = (x1 - x2) / (x3 - x2)
            phi = (f1 - f2) / (f3 - f2)
            iqi = (1.0 - np.sqrt(1.0 - xi) < phi) & (phi < np.sqrt(xi))
            t = np.where(iqi, f1 / (f2 - f1) * f3 / (f2 - f3)
                         + (x3 - x1) / (x2 - x1) * f1 / (f3 - f1) * f2 / (f3 - f2), 0.5)
            tl = 0.5 * tol_x / width
        t = np.clip(t, tl, 1.0 - tl)
        go = rel & ~stop
        idx, x1, x2, f1, f2, t = (a[go] for a in (idx, x1, x2, f1, f2, t))
    return root, resid, found


def find_regular_spectrum(p: RabiParams, e_min: float, e_max: float,
                          grid_n: int = 600, tol: float = 1e-9,
                          w_excl: float = W_EXCL_DEFAULT,
                          n_max: int = heun.N_MAX_DEFAULT):
    """Regular spectrum: sign-change zeros of W_+(E, 0) on a grid.

    Grid samples inside the exclusion windows around candidate energies
    N - g^2 +- eps are skipped, brackets never span a skipped or unreliable
    sample, and refined roots landing inside a window are dropped.  All
    brackets are refined together by ``refine_brackets`` to a width of tol,
    one ``wronskian_grid`` call per step; a root's residual is |W_+| there.
    """
    from .spectrum import SpectrumPoint

    if not (e_min < e_max):
        raise ValueError(f"need e_min < e_max, got [{e_min}, {e_max}]")
    if grid_n < 100:
        raise ValueError(f"grid_n must be >= 100, got {grid_n}")
    excl = np.array([E for (_, _, E) in
                     exceptional_candidates(p, e_min - 1.0, e_max + 1.0)])

    def outside_windows(e):
        return np.all(np.abs(e[:, None] - excl) > w_excl, axis=1)

    def w_plus(e):
        wp, _, rel = wronskian_grid(e, p, n_max=n_max)
        return wp, rel

    # base grid plus samples hugging each exclusion-window edge: levels repelled
    # by a nearby pole often sit just outside the window, between grid points
    edges = (excl[:, None] + w_excl * np.array([-1.02, 1.02, -2.5, 2.5])).ravel()
    grid = np.sort(np.concatenate([np.linspace(e_min, e_max, grid_n),
                                   edges[(e_min <= edges) & (edges <= e_max)]]))
    wp, _, rel = wronskian_grid(grid, p, n_max=n_max)
    ok = rel & outside_windows(grid)

    # neighbours form a bracket when both are usable and no candidate energy
    # lies strictly between them
    lo, hi = grid[:-1], grid[1:]
    pair = (ok[:-1] & ok[1:]
            & (np.searchsorted(excl, hi, "left") == np.searchsorted(excl, lo, "right")))
    at_zero = (wp == 0.0) & np.append(pair, ok[-1])
    w_lo, w_hi = wp[:-1], wp[1:]
    brk = pair & (w_lo != 0.0) & (w_hi != 0.0) & (np.sign(w_lo) != np.sign(w_hi))
    root, resid, found = refine_brackets(w_plus, lo[brk], hi[brk], w_lo[brk], w_hi[brk], tol)

    roots = sorted(zip(np.concatenate([grid[at_zero], root[found]]).tolist(),
                       np.concatenate([np.zeros(at_zero.sum()), resid[found]]).tolist()))
    keep = outside_windows(np.array([e for e, _ in roots]))
    return [SpectrumPoint(energy=e, kind="regular", residual=r, provenance="wronskian")
            for (e, r), k in zip(roots, keep) if k]
