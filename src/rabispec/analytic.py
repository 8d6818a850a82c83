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

``wronskian_grid`` stacks the four series of a whole array of energies, with
parameters from the ``model`` maps, and ``heun.sum_stack`` sums them in one
recurrence; g, delta and eps may be arrays, one entry per energy, since at
z = 0 every parameter point puts its series at x = 1/2.
``find_regular_spectra`` therefore searches many points (a sweep) as one
batch: their sign grids share one ``wronskian_grid`` call, and
``refine_brackets`` refines the sign changes of all of them together by
Chandrupatla's method, one ``wronskian_grid`` call per step.
``find_regular_spectrum`` is the one-point case.  ``build_pair`` and
``eval_component`` build one family's series on their own and evaluate them
at any z, away from z = 0 too.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields
import numpy as np

from .model import (HeunParams, RabiParams, heun_params_set1_minus,
                    heun_params_set1_plus, heun_params_set2)
from . import heun
from .heun import HeunSeries, build_series, eval_series

FIRST = "first"
SECOND = "second"
PLUS = "plus"
MINUS = "minus"

W_EXCL_DEFAULT = 1e-3    # half-width of the exclusion window around a candidate
ROOT_TOL = 1e-9          # bracket width at which a Wronskian root is accepted


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


def build_pair(family: str, E: float, p: RabiParams) -> SolutionPair:
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
    plus = build_series(component_params(family, PLUS, E, p))
    minus = build_series(component_params(family, MINUS, E, p))
    if family == FIRST:
        scale_plus, scale_minus = 1.0, p.delta / denom
    else:
        scale_plus, scale_minus = p.delta / denom, 1.0
    return SolutionPair(family, plus, minus, scale_plus, scale_minus, E, p)


def eval_component(pair: SolutionPair, which: str, z: float):
    """(value, d/dz) of one component at z, including prefactor and chain rule."""
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
    return pref * ev.value, pref * (s * ev.value + ev.derivative * dxdz)


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


def wronskian_grid(E: np.ndarray, p: RabiParams):
    """Vectorized W_+(E, 0) and W_-(E, 0) over an array of energies.

    The parameters of the four series psi_+^1, psi_+^2, psi_-^1, psi_-^2
    are stacked into (4, ...) rows, ``heun.sum_stack`` sums them all at
    x = 1/2, and the rows are combined into W_+ and W_-.  At z = 0 both
    coordinates (g -+ z)/(2g) equal 1/2 and the prefactors exp(-+g z) equal
    1, whatever the parameters, so the fields g, delta and epsilon of ``p``
    may be arrays that broadcast against E and energies of different
    parameter points share one stack.  Returns (w_plus, w_minus, reliable);
    an element is unreliable when one of its four sums is not (see
    ``sum_stack``) or a scale denominator is (nearly) singular.  No element
    depends on the other elements of the batch.
    """
    # count_nonzero: np.any costs a few microseconds more on a scalar p, and
    # a refinement step calls this kernel for a handful of energies
    if np.count_nonzero(p.g == 0.0):
        raise ValueError("g = 0 is not supported by the analytic path")
    E = np.asarray(E, dtype=float)
    g = p.g
    eps = p.epsilon
    g2 = g * g
    dx1, dx2 = -1.0 / (2.0 * g), 1.0 / (2.0 * g)

    rows = [component_params(family, which, E, p)
            for which in (PLUS, MINUS) for family in (FIRST, SECOND)]
    hp = HeunParams(*(np.stack([np.broadcast_to(getattr(r, f.name), E.shape)
                                for r in rows])
                      for f in fields(HeunParams)))
    S, Dx, ok = heun.sum_stack(hp)
    reliable = np.all(ok, axis=0)

    den_p = E + g2 - eps              # scale of psi_+^2
    den_m = E + g2 + eps              # scale of psi_-^1
    reliable &= (np.abs(den_p) > 1e-12) & (np.abs(den_m) > 1e-12)
    with np.errstate(all="ignore"):   # singular scale denominators are unreliable
        sc_p = p.delta / den_p
        sc_m = p.delta / den_m
        vp1 = S[0]
        dp1 = -g * S[0] + dx1 * Dx[0]
        vp2 = sc_p * S[1]
        dp2 = sc_p * (g * S[1] + dx2 * Dx[1])
        vm1 = sc_m * S[2]
        dm1 = sc_m * (-g * S[2] + dx1 * Dx[2])
        vm2 = S[3]
        dm2 = g * S[3] + dx2 * Dx[3]
        w_plus = vp2 * dp1 - vp1 * dp2
        w_minus = vm2 * dm1 - vm1 * dm2
    return w_plus, w_minus, reliable


def refine_brackets(f, x1, x2, f1, f2, tol, *per_bracket):
    """Refine the sign changes of f in the brackets [x1, x2] all at once.

    Chandrupatla's method (Adv. Eng. Softw. 28 (1997) 145): each step tries
    inverse quadratic interpolation through the two bracket ends and the end
    dropped last, and bisects where Chandrupatla's test finds that unsafe.
    Every new point lies at least tol/2 inside the bracket, so the bracket
    shrinks on every step.  ``f`` maps an array of points to
    (values, reliable) and is called once per step, for the brackets still
    open; trailing ``per_bracket`` arrays (one entry per bracket) are cut
    to the open brackets with them and passed to ``f`` after the points.  A
    bracket closes once it is no wider than tol (plus a few ulps of its
    ends) or f vanishes at an end, and reports the end of smaller |f|; a
    bracket whose new point is unreliable is dropped.  Returns
    (roots, |f(roots)|, found), NaN where not found.
    """
    x1, x2, f1, f2 = (np.array(a, dtype=float) for a in (x1, x2, f1, f2))
    per_bracket = [np.asarray(a) for a in per_bracket]
    root = np.full(x1.shape, np.nan)
    resid = np.full(x1.shape, np.nan)
    found = np.zeros(x1.shape, dtype=bool)
    idx = np.arange(x1.size)
    t = np.full(x1.shape, 0.5)
    while idx.size:
        xt = x1 + t * (x2 - x1)
        ft, rel = f(xt, *per_bracket)
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
        per_bracket = [a[go] for a in per_bracket]
    return root, resid, found


def find_regular_spectra(points, e_min: float, e_max: float, grid_n: int = 600):
    """Regular spectra of several parameter points: zeros of W_+(E, 0) in E.

    Each point has its own sign grid: grid_n energies plus samples hugging
    the edges of the exclusion windows around its candidate energies
    N - g^2 +- eps.  At z = 0 every point's series sit at x = 1/2, so the
    grids of all points are evaluated in one ``wronskian_grid`` call with
    per-element (g, delta, eps).  Grid samples inside a window are skipped;
    brackets never span a skipped or unreliable sample, a candidate energy
    or two points.  The brackets of all points are refined together by
    ``refine_brackets`` to a width of ROOT_TOL, one ``wronskian_grid`` call
    per step, and refined roots landing inside a window of their point are
    dropped; a root's residual is |W_+| there.  The window half-width is
    W_EXCL_DEFAULT, read at call time like ROOT_TOL.  Returns one ascending
    list of SpectrumPoint per point.
    """
    from .spectrum import SpectrumPoint

    if not (e_min < e_max):
        raise ValueError(f"need e_min < e_max, got [{e_min}, {e_max}]")
    if grid_n < 100:
        raise ValueError(f"grid_n must be >= 100, got {grid_n}")
    P = len(points)
    cands = [[E for (_, _, E) in exceptional_candidates(p, e_min - 1.0, e_max + 1.0)]
             for p in points]
    # candidate energies per point, padded with +inf (outside every window)
    excl = np.full((P, max(map(len, cands), default=0)), np.inf)
    for i, c in enumerate(cands):
        excl[i, :len(c)] = c
    # a field that every point shares stays a scalar (one point has only
    # such fields), so the kernel does no per-element arithmetic for it
    per_point = {}
    for f in ("g", "delta", "epsilon"):
        v = np.array([getattr(p, f) for p in points], dtype=float)
        per_point[f] = v[0] if P and (v == v[0]).all() else v

    def w_plus(e, k):
        p = RabiParams(**{f: v if v.ndim == 0 else v[k] for f, v in per_point.items()})
        wp, _, rel = wronskian_grid(e, p)
        return wp, rel

    # base grid plus samples hugging each exclusion-window edge: levels repelled
    # by a nearby pole often sit just outside the window, between grid points;
    # the grids of all points are stacked, each ascending, in point order
    edges = excl[:, :, None] + W_EXCL_DEFAULT * np.array([-1.02, 1.02, -2.5, 2.5])
    edges = edges.reshape(P, 4 * excl.shape[1])
    inside = (e_min <= edges) & (edges <= e_max)
    grid = np.concatenate([np.tile(np.linspace(e_min, e_max, grid_n), P), edges[inside]])
    owner = np.concatenate([np.repeat(np.arange(P), grid_n), np.nonzero(inside)[0]])
    order = np.lexsort((grid, owner))
    grid, owner = grid[order], owner[order]
    wp, rel = w_plus(grid, owner)
    dist = grid[:, None] - excl[owner]
    ok = rel & np.all(np.abs(dist) > W_EXCL_DEFAULT, axis=1)

    # neighbours of one point form a bracket when both are usable and the
    # same number of its candidate energies lies below each (none between)
    lo, hi, k = grid[:-1], grid[1:], owner[:-1]
    below = np.count_nonzero(dist > 0.0, axis=1)
    pair = ok[:-1] & ok[1:] & (k == owner[1:]) & (below[:-1] == below[1:])
    last = np.append(k != owner[1:], True)
    at_zero = (wp == 0.0) & np.where(last, ok, np.append(pair, False))
    w_lo, w_hi = wp[:-1], wp[1:]
    brk = pair & (w_lo != 0.0) & (w_hi != 0.0) & (np.sign(w_lo) != np.sign(w_hi))
    root, resid, found = refine_brackets(w_plus, lo[brk], hi[brk], w_lo[brk], w_hi[brk],
                                         ROOT_TOL, k[brk])

    e = np.concatenate([grid[at_zero], root[found]])
    r = np.concatenate([np.zeros(at_zero.sum()), resid[found]])
    k = np.concatenate([owner[at_zero], k[brk][found]])
    keep = np.all(np.abs(e[:, None] - excl[k]) > W_EXCL_DEFAULT, axis=1)
    e, r, k = e[keep], r[keep], k[keep]
    order = np.lexsort((r, e, k))
    out = [[] for _ in points]
    for ki, ei, ri in zip(*(a[order].tolist() for a in (k, e, r))):
        out[ki].append(SpectrumPoint(energy=ei, kind="regular", residual=ri,
                                     provenance="wronskian"))
    return out


def find_regular_spectrum(p: RabiParams, e_min: float, e_max: float,
                          grid_n: int = 600):
    """Regular spectrum of one point: ``find_regular_spectra`` on ``[p]``."""
    return find_regular_spectra([p], e_min, e_max, grid_n=grid_n)[0]
