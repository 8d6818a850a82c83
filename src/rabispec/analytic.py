"""Analytic solution pairs and the Wronskian condition for the regular spectrum.

Two families solve the coupled first-order system for (psi_+, psi_-):

    family "first":   psi_{+,-}^1(z) = scale * exp(-g z) * HC(..., (g - z)/(2g))
    family "second":  psi_{+,-}^2(z) = scale * exp(+g z) * HC(..., (g + z)/(2g))

At an energy eigenvalue the families are linearly dependent, so the Wronskians

    W_+(E, z) = psi_+^2 d(psi_+^1)/dz - psi_+^1 d(psi_+^2)/dz
    W_-(E, z) = psi_-^2 d(psi_-^1)/dz - psi_-^1 d(psi_-^2)/dz

vanish.  The coupled first-order system gives W_+ = Delta K/(z + g) and
W_- = -Delta K/(z - g) with one cross-family combination K, so at z = 0 the
two are one function and only W_+ is computed.  W_+ has simple poles at the
candidate energies N - g^2 +- eps, where the series recurrence has poles
(exceptional-point territory).  The regular spectrum is found as the zeros
of the pole-cancelled W~(E) = W_+(E) prod_c (E - E_c): W~ is analytic, so
its Chebyshev interpolant on pieces of the energy window converges
geometrically, and ``cheb_roots`` takes the interpolant's real roots as
eigenvalues of the colleague matrix.  At an exceptional point the pole is
lifted, as for Braak's G-function (PRL 107, 100401 (2011)), so W~ vanishes
at the candidate with no level behind it.

``wronskian_grid`` stacks the two series psi_+^1 and psi_+^2 of a whole
array of energies, with parameters from the ``model`` maps, and
``heun.sum_stack`` sums them in one recurrence; g, delta and eps may be
arrays, one entry per energy, since at z = 0 every parameter point puts its
series at x = 1/2.  ``find_regular_spectra`` therefore searches many points
(a sweep) as one batch: the Chebyshev nodes of every piece of every point
are one ``wronskian_grid`` call, and polishing and confirming the roots one
call each.  ``find_regular_spectrum`` is the one-point case.
``refine_brackets`` refines the sign changes of a function on a segmented
sample grid in ladder steps; the exceptional loci come from it.
``build_pair`` and ``eval_component`` build one family's series on their
own and evaluate them at any z, away from z = 0 too.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields
import numpy as np

from .model import (HeunParams, RabiParams, SpectrumPoint, heun_params_set1_minus,
                    heun_params_set1_plus, heun_params_set2)
from . import heun
from .heun import HeunSeries, build_series, eval_series

FIRST = "first"
SECOND = "second"
PLUS = "plus"
MINUS = "minus"

# The solution-family convention; other modules read it, never restate it.
# Branch b truncates family FAMILY[b]: its component b truncates at N with
# scale 1, the other at N - 1 with scale delta / scale_denominator.  Family
# f lives on x = (g + SIGN[f] z)/(2g) with prefactor exp(SIGN[f] g z).
FAMILY = {PLUS: FIRST, MINUS: SECOND}
SIGN = {FIRST: -1.0, SECOND: 1.0}
# the sign of eps in a branch's candidate energy N - g^2 +- eps
BRANCH_SIGN = {PLUS: 1.0, MINUS: -1.0}

W_EXCL_DEFAULT = 1e-3    # half-width of the exclusion window around a candidate
# a Wronskian root within ROOT_TOL of a candidate is a lifted pole, and a
# kept root changes sign across root +- 0.5 ROOT_TOL 10^k for some k = 0..4
ROOT_TOL = 1e-9
CHEB_M = 32              # Chebyshev nodes per piece of a regular-spectrum window
PIECE_WIDTH = 2.0        # widest piece of a regular-spectrum window


class ScalePoleError(ValueError):
    """Scale denominator E + g^2 +- epsilon vanishes at this energy."""


def scale_denominator(family: str, E, p: RabiParams):
    """E + g^2 - SIGN[family] eps, the denominator of the family's scaled
    component; E and ``p`` may carry arrays."""
    return E + p.g * p.g - SIGN[family] * p.epsilon


def component_params(family: str, which: str, E: float, p: RabiParams):
    """Heun parameters of one component of one solution family."""
    if family not in SIGN:
        raise ValueError(f"unknown family {family!r}")
    if which not in (PLUS, MINUS):
        raise ValueError(f"unknown component {which!r}")
    base = heun_params_set1_plus(E, p) if which == PLUS else heun_params_set1_minus(E, p)
    return base if family == FIRST else heun_params_set2(base)


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
    plus, minus = (build_series(component_params(family, which, E, p))
                   for which in (PLUS, MINUS))
    denom = scale_denominator(family, E, p)
    if abs(denom) < 1e-12 * max(1.0, abs(E)):
        raise ScalePoleError(
            f"scale denominator vanishes at E = {E} for family {family!r}")
    scale_plus, scale_minus = (1.0 if FAMILY[which] == family else p.delta / denom
                               for which in (PLUS, MINUS))
    return SolutionPair(family, plus, minus, scale_plus, scale_minus, E, p)


def eval_component(pair: SolutionPair, which: str, z: float):
    """(value, d/dz) of one component at z, including prefactor and chain rule."""
    g = pair.params.g
    s = SIGN[pair.family]
    sg, dxdz = s * g, s / (2.0 * g)
    if which == PLUS:
        series, scale = pair.plus_series, pair.scale_plus
    elif which == MINUS:
        series, scale = pair.minus_series, pair.scale_minus
    else:
        raise ValueError(f"unknown component {which!r}")
    ev = eval_series(series, (g + s * z) / (2.0 * g))
    pref = scale * math.exp(sg * z)
    return pref * ev.value, pref * (sg * ev.value + ev.derivative * dxdz)


def candidate_energy(N: int, branch: str, p: RabiParams):
    """Closed-form candidate E = N - g^2 +- eps (existence not implied);
    ``p`` may carry arrays."""
    if N < 0:
        raise ValueError(f"N must be >= 0, got {N}")
    return N - p.g * p.g + BRANCH_SIGN[branch] * p.epsilon


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
        for branch in (PLUS, MINUS):
            E = candidate_energy(N, branch, p)
            if e_min <= E <= e_max:
                out.append((N, branch, E))
    out.sort(key=lambda t: t[2])
    return out


def wronskian_grid(E: np.ndarray, p: RabiParams):
    """Vectorized W_+(E, 0) over an array of energies.

    The parameters of the two series psi_+^1 and psi_+^2 are stacked into
    (2, ...) rows, ``heun.sum_stack`` sums both at x = 1/2, and the rows are
    combined into W_+.  At z = 0 both coordinates (g -+ z)/(2g) equal 1/2 and
    the prefactors exp(-+g z) equal 1, whatever the parameters, so the fields
    g, delta and epsilon of ``p`` may be arrays that broadcast against E and
    energies of different parameter points share one stack.  Returns
    (w_plus, w_minus, reliable) with w_minus the same array as w_plus, since
    W_- = W_+ at z = 0; the slot stays so that callers keep reading
    ``reliable`` at index 2.  An element is unreliable when one of its two
    sums is not (see ``sum_stack``) or the psi_+^2 scale denominator is
    (nearly) singular.  No element depends on the other elements of the
    batch.
    """
    # count_nonzero: np.any costs a few microseconds more on a scalar p, and
    # a one-point search polishes its roots in a call of a few energies
    if np.count_nonzero(p.g == 0.0):
        raise ValueError("g = 0 is not supported by the analytic path")
    E = np.asarray(E, dtype=float)
    g = p.g
    # rows psi_+^1 (family FAMILY[PLUS], scale 1) and psi_+^2 (the other
    # family, mapped from the first), broadcast to E's shape in one call
    p1 = heun_params_set1_plus(E, p)
    rows = (p1, heun_params_set2(p1))
    cols = np.broadcast_arrays(E, *(getattr(hp, f.name) for f in fields(HeunParams)
                                    for hp in rows))[1:]
    S, Dx, ok = heun.sum_stack(HeunParams(*(np.stack(cols[i:i + 2])
                                            for i in range(0, len(cols), 2))))
    s1, s2 = SIGN[FIRST], SIGN[SECOND]
    with np.errstate(all="ignore"):   # a singular scale denominator is unreliable
        den = scale_denominator(SECOND, E, p)
        scale = p.delta / den
        # d/dz at z = 0 of exp(s g z) h((g + s z)/(2g)) is s g h + s/(2g) h'
        vp1, dp1 = S[0], s1 * g * S[0] + s1 / (2.0 * g) * Dx[0]
        vp2, dp2 = scale * S[1], scale * (s2 * g * S[1] + s2 / (2.0 * g) * Dx[1])
        w_plus = vp2 * dp1 - vp1 * dp2
    return w_plus, w_plus, ok[0] & ok[1] & (np.abs(den) > 1e-12)


# the ladder samples a bracket at its root estimate, at the estimate +-
# RUNGS * tol (the innermost inside tol/2, so two rungs can close it) and at
# the SPREAD fractions of it; a rung off the bracket moves to the fraction
# FILL[column] of it, none of which is a SPREAD fraction
RUNGS = np.outer([-1.0, 1.0], 0.4 * 10.0 ** np.arange(8)).ravel()
SPREAD = np.array([0.25, 0.5, 0.75])
FILL = np.arange(1, RUNGS.size + SPREAD.size + 2) / (RUNGS.size + SPREAD.size + 2)


def _ladder_points(x1, f1, x2, f2, hist, tol):
    """The ladder of each bracket around its root estimate: the inverse
    cubic through the four samples of ``hist``, else the secant root, else
    the midpoint, whichever is first strictly inside the bracket."""
    lo, hi = np.minimum(x1, x2)[:, None], np.maximum(x1, x2)[:, None]
    with np.errstate(all="ignore"):
        est = (x1 - f1 * (x2 - x1) / (f2 - f1))[:, None]
        if hist is not None:
            # Lagrange form at f = 0: x = sum_i X_i prod_{m != i} F_m / (F_m - F_i)
            X, F = hist
            ratio = np.where(np.eye(4, dtype=bool), 1.0,
                             F[:, None, :] / (F[:, None, :] - F[:, :, None]))
            cubic = (X * ratio.prod(axis=2)).sum(axis=1, keepdims=True)
            est = np.where((lo < cubic) & (cubic < hi), cubic, est)
    est = np.where((lo < est) & (est < hi), est, 0.5 * (lo + hi))
    xs = np.concatenate([est, est + tol * RUNGS, lo + (hi - lo) * SPREAD], axis=1)
    return np.where((lo < xs) & (xs < hi), xs, lo + (hi - lo) * FILL)


def _ladder_update(x1, f1, x2, f2, xs, fs):
    """The bracket shrinks to the first sign change among its sorted samples;
    the four samples around it are kept for the next estimate."""
    X = np.concatenate([x1[:, None], x2[:, None], xs], axis=1)
    F = np.concatenate([f1[:, None], f2[:, None], fs], axis=1)
    r = np.arange(X.shape[0])
    order = np.argsort(X, axis=1)
    X, F = X[r[:, None], order], F[r[:, None], order]
    s = np.sign(F)
    j = np.argmax(s[:, :-1] != s[:, 1:], axis=1)
    w = np.clip(j - 1, 0, X.shape[1] - 4)[:, None] + np.arange(4)
    return (X[r, j], F[r, j], X[r, j + 1], F[r, j + 1],
            (X[r[:, None], w], F[r[:, None], w]))


def refine_brackets(f, x, fx, ok, segment, tol, *per_sample):
    """Every root of f on a segmented sample grid, refined all at once.

    ``fx`` holds f at the samples ``x``, ``ok`` marks the usable samples and
    ``segment`` ids the runs of samples over which f is continuous.  A root
    is an ``ok`` sample where f is exactly 0, or a sign change between two
    ``ok`` neighbours of one segment, refined in ladder steps that make one
    call of ``f`` each for the brackets still open.  A step samples each
    bracket at an estimate of its root (the secant root first, then inverse
    cubic interpolation through the four samples around the last sign
    change), at the estimate +- 0.4 tol 10^k for k = 0..7 and at 1/4, 1/2
    and 3/4 of the bracket, and shrinks it to the first sign change among
    them.  An estimate within 0.4 tol of the root closes the bracket, so a
    root takes two or three steps.

    ``f`` maps an array of points to (values, reliable); trailing
    ``per_sample`` arrays are cut to the left ends of the brackets, repeated
    once per point, and passed to ``f`` after the points.  A bracket closes
    once it is no wider than tol (plus a few ulps of its ends) or f vanishes
    at an end, and reports the end of smaller |f|; a bracket with an
    unreliable new point is dropped.  Returns (roots, |f(roots)|, sample
    index of each root: a bracket's left end), ascending in the index.
    """
    x, fx = np.asarray(x, dtype=float), np.asarray(fx, dtype=float)
    ok, segment = np.asarray(ok, dtype=bool), np.asarray(segment)
    zero = np.flatnonzero(ok & (fx == 0.0))
    fa, fb = fx[:-1], fx[1:]
    left = np.flatnonzero(ok[:-1] & ok[1:] & (segment[:-1] == segment[1:])
                          & (fa != 0.0) & (fb != 0.0) & (np.sign(fa) != np.sign(fb)))
    x1, x2, f1, f2 = x[left], x[left + 1], fx[left], fx[left + 1]
    per_bracket = [np.asarray(a)[left] for a in per_sample]
    root, resid = np.empty(left.size), np.empty(left.size)
    found = np.zeros(left.size, dtype=bool)
    idx = np.arange(left.size)
    xs = _ladder_points(x1, f1, x2, f2, None, tol)
    while idx.size:
        k = xs.shape[1]     # points per bracket
        fs, rel = f(xs.ravel(), *(np.repeat(a, k) for a in per_bracket))
        # one unreliable point drops its bracket
        rel = (rel & np.isfinite(fs)).reshape(xs.shape).all(axis=1)
        x1, f1, x2, f2, hist = _ladder_update(x1, f1, x2, f2, xs, fs.reshape(xs.shape))
        near = np.abs(f1) < np.abs(f2)
        xm, fm = np.where(near, x1, x2), np.where(near, f1, f2)
        width = np.abs(x2 - x1)
        tol_x = tol + 4.0 * np.finfo(float).eps * np.abs(xm)
        stop = rel & ((fm == 0.0) | (width <= tol_x))
        root[idx[stop]] = xm[stop]
        resid[idx[stop]] = np.abs(fm[stop])
        found[idx[stop]] = True
        go = rel & ~stop
        xs = _ladder_points(x1, f1, x2, f2, hist, tol)[go]
        idx, x1, f1, x2, f2 = (a[go] for a in (idx, x1, f1, x2, f2))
        per_bracket = [a[go] for a in per_bracket]
    at = np.concatenate([zero, left[found]])
    order = np.argsort(at)
    return (np.concatenate([x[zero], root[found]])[order],
            np.concatenate([np.abs(fx[zero]), resid[found]])[order], at[order])


def cheb_roots(coef):
    """Real roots in [-1, 1] of Chebyshev series, one per row of ``coef``.

    Trailing coefficients at or below 1e-15 of a row's largest are trimmed.
    The roots of a row of degree d >= 1 are the eigenvalues of its
    colleague matrix (Boyd, SIAM J. Numer. Anal. 40, 1666 (2002)), whose
    rows state x T_0 = T_1 and x T_k = (T_{k-1} + T_{k+1})/2, with T_d
    eliminated by the series; one ``eigvals`` call serves every row of one
    degree.  An eigenvalue is kept when |Im| < 1e-8 and |Re| <= 1 + 1e-6.
    Returns (row of each root, root).
    """
    mag = np.abs(coef)
    big = mag > 1e-15 * mag.max(axis=1, keepdims=True)
    deg = coef.shape[1] - 1 - np.argmax(big[:, ::-1], axis=1)
    rows, xs = [np.zeros(0, dtype=int)], [np.zeros(0)]
    for d in np.unique(deg[deg > 0]).tolist():
        sel = np.flatnonzero(deg == d)
        c = coef[sel, :d + 1]
        col = np.zeros((sel.size, d, d))
        k = np.arange(1, d)
        col[:, 0, 1:2] = 1.0
        col[:, k, k - 1] = 0.5
        col[:, k[:-1], k[:-1] + 1] = 0.5
        col[:, -1, :] -= c[:, :d] / ((1.0 if d == 1 else 2.0) * c[:, d:])
        x = np.linalg.eigvals(col)
        real = (np.abs(x.imag) < 1e-8) & (np.abs(x.real) <= 1.0 + 1e-6)
        rows.append(np.broadcast_to(sel[:, None], x.shape)[real])
        xs.append(x.real[real])
    return np.concatenate(rows), np.concatenate(xs)


def find_regular_spectra(points, e_min: float, e_max: float, grid_n: int = 600):
    """Regular spectra of several parameter points: zeros of W_+(E, 0) in E.

    W_+ has simple poles at the candidate energies N - g^2 +- eps, so each
    point's window is cut into equal pieces no wider than PIECE_WIDTH and
    the piece's pole-cancelled W~(E) = W_+(E) prod_c (E - E_c), with one
    factor per candidate (N, branch) within 1 of the piece, is analytic on
    it.  W~ is sampled at CHEB_M first-kind Chebyshev nodes per piece; the
    Chebyshev coefficients, with trailing ones at or below 1e-15 of the
    largest trimmed, give the real roots of the interpolant as eigenvalues
    of the colleague matrix.  One secant step on W~ through root +- 1e-9
    polishes every root, and a root is kept only where W_+ vanishes or
    changes sign across root +- 0.5 ROOT_TOL 10^k for some k = 0..4, and
    where it lies in its own piece (half-open) and farther than
    max(W_EXCL_DEFAULT, ROOT_TOL) from every candidate energy; both are
    read at call time.  At an exceptional point the pole is lifted and W~
    vanishes at the candidate, so the ROOT_TOL part of that distance drops
    such zeros.  A piece with an unreliable node yields no roots.

    At z = 0 every point's series sit at x = 1/2, so the nodes of all
    pieces of all points are one ``wronskian_grid`` call with per-element
    (g, delta, eps), and the polishing and the confirmation are one call
    each: three calls per search.  A root's residual is |W_+| there.
    ``grid_n`` is still accepted and checked (>= 100) but sets no sample
    count.  Returns one ascending list of SpectrumPoint per point.
    """
    if not (e_min < e_max):
        raise ValueError(f"need e_min < e_max, got [{e_min}, {e_max}]")
    if grid_n < 100:
        raise ValueError(f"grid_n must be >= 100, got {grid_n}")
    P = len(points)
    if not P:
        return []
    n_pc = math.ceil((e_max - e_min) / PIECE_WIDTH)
    edges = np.linspace(e_min, e_max, n_pc + 1)
    a, b = np.tile(edges[:-1], P), np.tile(edges[1:], P)    # piece rows
    owner = np.repeat(np.arange(P), n_pc)
    cands = [[E for (_, _, E) in exceptional_candidates(p, e_min - 1.0, e_max + 1.0)]
             for p in points]
    # each row's candidates within 1 of its piece, in ascending order and
    # padded with NaN, so a root multiplies the same factors as its row
    excl = np.full((P, max(map(len, cands))), np.nan)
    for i, c in enumerate(cands):
        excl[i, :len(c)] = c
    near = excl[owner]
    near[~((a[:, None] - 1.0 <= near) & (near <= b[:, None] + 1.0))] = np.nan
    # a field that every point shares stays a scalar (one point has only
    # such fields), so the kernel does no per-element arithmetic for it
    per_point = {}
    for f in ("g", "delta", "epsilon"):
        v = np.array([getattr(p, f) for p in points], dtype=float)
        per_point[f] = v[0] if (v == v[0]).all() else v

    def w_plus(e, k):
        """W_+ and its reliability at energies ``e`` (K, m) of points ``k`` (K,)."""
        k = np.repeat(k, e.shape[1])
        p = RabiParams(**{f: v if v.ndim == 0 else v[k] for f, v in per_point.items()})
        wp, _, rel = wronskian_grid(e.ravel(), p)
        return wp.reshape(e.shape), (rel & np.isfinite(wp)).reshape(e.shape)

    def pole_free(e, rows):
        """W~ and its reliability at energies ``e`` (K, m) of piece ``rows`` (K,)."""
        w, rel = w_plus(e, owner[rows])
        for c in near[rows].T:          # a NaN candidate multiplies by 1
            d = e - c[:, None]
            w = w * np.where(np.isnan(d), 1.0, d)
        return w, rel

    # W~ at the nodes, scaled to max 1 per piece; c_n = (2/M) sum_k W~(x_k)
    # T_n(x_k), halved at n = 0, is a multiply and sum, so that a piece's
    # coefficients do not depend on the other pieces
    theta = np.pi * (np.arange(CHEB_M) + 0.5) / CHEB_M
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    w, rel = pole_free(mid[:, None] + half[:, None] * np.cos(theta), np.arange(a.size))
    with np.errstate(all="ignore"):
        w = w / np.max(np.abs(w), axis=1, keepdims=True)
    good = np.flatnonzero(rel.all(axis=1) & np.isfinite(w).all(axis=1))
    coef = (w[good, None, :] * np.cos(np.outer(np.arange(CHEB_M), theta))).sum(axis=2)
    coef *= 2.0 / CHEB_M
    coef[:, 0] *= 0.5
    rows, x = cheb_roots(coef)
    rows = good[rows]
    root = mid[rows] + half[rows] * x

    # polish: one secant step on W~ through root +- h
    h = 1e-9
    w, ok = pole_free(root[:, None] + np.array([-h, h]), rows)
    with np.errstate(all="ignore"):
        step = h * (w[:, 1] + w[:, 0]) / (w[:, 1] - w[:, 0])
    root = root - np.where(ok.all(axis=1) & np.isfinite(step), step, 0.0)

    # confirm: W_+ at the root, and a sign change across one pair around it
    n = 5
    offs = 0.5 * ROOT_TOL * 10.0 ** np.arange(n)
    wp, rel = w_plus(root[:, None] + np.concatenate([[0.0], -offs, offs]), owner[rows])
    flips = (rel[:, 1:n + 1] & rel[:, n + 1:]
             & (np.sign(wp[:, 1:n + 1]) * np.sign(wp[:, n + 1:]) < 0.0)).any(axis=1)
    lo, hi = a[rows], b[rows]
    keep = (rel[:, 0] & ((wp[:, 0] == 0.0) | flips)
            & (lo <= root) & ((root < hi) | ((root == hi) & (hi == e_max)))
            & ~(np.abs(root[:, None] - excl[owner[rows]])
                <= max(W_EXCL_DEFAULT, ROOT_TOL)).any(axis=1))
    out = [[] for _ in points]
    order = np.lexsort((root, owner[rows]))
    for i in order[keep[order]].tolist():
        out[owner[rows[i]]].append(SpectrumPoint(
            energy=float(root[i]), kind="regular", residual=float(abs(wp[i, 0])),
            provenance="wronskian"))
    return out


def find_regular_spectrum(p: RabiParams, e_min: float, e_max: float,
                          grid_n: int = 600):
    """Regular spectrum of one point: ``find_regular_spectra`` on ``[p]``."""
    return find_regular_spectra([p], e_min, e_max, grid_n=grid_n)[0]
