"""Confluent Heun series HC(alpha, beta, gamma, delta, eta, x).

Coefficients follow the three-term recurrence

    A(n) h_n = B(n) h_{n-1} + C(n) h_{n-2},    h_0 = 1, h_{-1} = 0,

with A(n) = (n + beta) n,
     B(n) = n^2 + (beta + gamma - alpha - 1) n + eta - beta/2
            + (gamma - alpha)(beta - 1)/2,
     C(n) = delta + alpha (beta + gamma)/2 + alpha (n - 1).

Three things can happen while building the series:

* polynomial truncation: two consecutive coefficients vanish, after which the
  recurrence keeps every later coefficient at zero (C(N+2) = 0 closes it);
* a recurrence pole: A(n0) = 0 because beta is a negative integer -n0.  If the
  numerator does not vanish there the h_0-normalized solution does not exist
  (status "divergent").  If the numerator vanishes too, h_{n0} is a free
  parameter; the series is accepted only when some choice of it closes the
  series into a polynomial, which is the case at exceptional parameter points
  with 2*epsilon at integer values;
* neither: the series converges inside the unit disk and is summed until the
  tail rule fires ("converged") or the term budget runs out ("max_terms").

``eval_series`` sums one built series at any x, and ``build_series`` takes
its status from that sum at x = 1/2; ``sum_stack`` sums a whole array of
series at x = 1/2 with the same recurrence and the same tail rule.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .model import HeunParams

CONVERGED = "converged"
TRUNCATED = "truncated"
DIVERGENT = "divergent"
MAX_TERMS = "max_terms"

N_MAX_DEFAULT = 500
TRUNC_TOL = 1e-10       # relative zero-coefficient tolerance
TAIL_TOL = 1e-13        # relative term size in the convergence rule
TAIL_RUN = 5            # consecutive small terms required
POLE_EPS = 1e-9         # |n + beta| below this counts as a recurrence pole
POLE_RESOLVE_TOL = 1e-8  # relative numerator tolerance at a pole


class DivergentSeriesError(RuntimeError):
    """Raised when evaluating a series whose h_0-normalized solution diverges."""


@dataclass(frozen=True)
class HeunSeries:
    """Built coefficient sequence plus its construction status.

    ``coeffs[n]`` is the coefficient h_n.  For a truncated series every
    stored h_n with n > trunc_index is exactly 0.
    """

    params: HeunParams
    coeffs: np.ndarray
    status: str
    trunc_index: Optional[int] = None
    pole_index: Optional[int] = None

    def coefficient(self, n: int) -> float:
        if n < 0:
            return 0.0
        if n >= len(self.coeffs):
            if self.status == TRUNCATED:
                return 0.0
            raise IndexError(f"coefficient {n} not stored (have {len(self.coeffs)})")
        return float(self.coeffs[n])


@dataclass(frozen=True)
class HeunEval:
    value: float
    derivative: float
    status: str


def recurrence_abc(hp: HeunParams):
    """The A, B, C coefficient functions of the three-term recurrence."""
    al, be, ga, de, et = hp.alpha, hp.beta, hp.gamma, hp.delta, hp.eta
    b_lin = be + ga - al - 1.0
    b_const = et - be / 2.0 + (ga - al) * (be - 1.0) / 2.0
    c_const = de + al * (be + ga) / 2.0

    def A(n):
        return (n + be) * n

    def B(n):
        return n * n + b_lin * n + b_const

    def C(n):
        return c_const + al * (n - 1.0)

    return A, B, C


def _closing_index(hp: HeunParams) -> Optional[int]:
    """Integer m with C(m) = 0, i.e. the only index where the recurrence can
    close into a polynomial (truncation index N = m - 2).  None if there is no
    such integer m >= 2."""
    if abs(hp.alpha) < 1e-300:
        return None
    m = 1.0 - hp.delta / hp.alpha - (hp.beta + hp.gamma) / 2.0
    mi = round(m)
    if abs(m - mi) > 1e-6 or mi < 2:
        return None
    return int(mi)


def _closes_at(hp: HeunParams, n_tr: int) -> bool:
    """Whether the closing condition C(n_tr + 2) = 0 holds, so that vanishing
    h_{n_tr+1}, h_{n_tr+2} really terminate the series.  Without it a pair of
    negligible coefficients is just a rapidly converging tail (the series at a
    regular eigenvalue is the minimal solution and decays superexponentially).
    """
    if abs(hp.alpha) < 1e-300:
        return abs(hp.delta) < 1e-13    # C(n) = delta for every n
    return _closing_index(hp) == n_tr + 2


def _resolve_pole(hp, h, runmax, k, tol):
    """Free-parameter continuation at a pole index k where the numerator also
    vanishes.  Returns the truncated coefficient list or None."""
    A, B, C = recurrence_abc(hp)
    m = _closing_index(hp)
    if m is None or m < k:
        return None
    if m == k:
        # closing and pole indices coincide: need h_{k-1} already negligible,
        # then h_k = 0 is the polynomial choice and the series ends at k - 2
        if abs(h[k - 1]) <= tol * runmax:
            return h[:k - 1] + [0.0, 0.0], k - 2
        return None
    n_tr = m - 2                      # truncation index, h_{n_tr+1} must vanish
    u = list(h) + [0.0]               # particular track, h_k = 0
    v = [0.0] * k + [1.0]             # homogeneous track seeded at index k
    for j in range(k + 1, n_tr + 2):
        u.append((B(j) * u[j - 1] + C(j) * u[j - 2]) / A(j))
        v.append((B(j) * v[j - 1] + C(j) * v[j - 2]) / A(j))
    if abs(v[n_tr + 1]) < 1e-300:
        if abs(u[n_tr + 1]) <= tol * max(1.0, max(abs(x) for x in u[:n_tr + 1])):
            t = 0.0
        else:
            return None
    else:
        t = -u[n_tr + 1] / v[n_tr + 1]
    hh = [u[j] + t * v[j] for j in range(n_tr + 2)]
    hh[n_tr + 1] = 0.0
    # closure: the next coefficient must vanish as well (C(n_tr + 2) ~ 0)
    nxt = (B(n_tr + 2) * hh[n_tr + 1] + C(n_tr + 2) * hh[n_tr]) / A(n_tr + 2)
    if abs(nxt) > tol * max(abs(x) for x in hh[:n_tr + 1]):
        return None
    return hh[:n_tr + 1] + [0.0, 0.0], n_tr


def build_series(hp: HeunParams, n_max: int = N_MAX_DEFAULT,
                 tol: float = TRUNC_TOL) -> HeunSeries:
    """Build the coefficient sequence and classify it.

    A series that neither truncates nor hits a pole gets the status of its
    sum at x = 1/2 (``eval_series``), where both solution families sit at
    z = 0; coefficients are stored up to n_max regardless so the series can
    be re-summed at other points inside the unit disk.  Coefficients that
    overflow end the build with status "max_terms".
    """
    if n_max < 2:
        raise ValueError(f"n_max must be >= 2, got {n_max}")
    if not (tol > 0.0):
        raise ValueError(f"tol must be positive, got {tol}")
    A, B, C = recurrence_abc(hp)
    be = hp.beta

    h = [1.0]
    runmax = 1.0
    prev2, prev1 = 0.0, 1.0           # h_{n-2}, h_{n-1}
    for n in range(1, n_max + 1):
        Bn = B(n)
        Cn = C(n)
        rhs = Bn * prev1 + Cn * prev2
        if abs(n + be) <= POLE_EPS:
            scale_ref = (1.0 + abs(Bn) + abs(Cn)) * runmax
            resolved = (None if abs(rhs) > POLE_RESOLVE_TOL * scale_ref
                        else _resolve_pole(hp, h, runmax, n, tol))
            if resolved is None:
                return HeunSeries(hp, np.asarray(h), DIVERGENT, pole_index=n)
            hh, n_tr = resolved
            return HeunSeries(hp, np.asarray(hh), TRUNCATED, trunc_index=n_tr,
                              pole_index=n)
        hn = rhs / A(n)
        if not math.isfinite(hn):
            return HeunSeries(hp, np.asarray(h), MAX_TERMS)
        h.append(hn)
        runmax = max(runmax, abs(hn))

        # truncation: two consecutive negligible coefficients close the series,
        # provided the closing condition holds at this index
        if (n >= 2 and abs(hn) <= tol * runmax and abs(prev1) <= tol * runmax
                and _closes_at(hp, n - 2)):
            return HeunSeries(hp, np.asarray(h[:n - 1] + [0.0, 0.0]), TRUNCATED,
                              trunc_index=n - 2)
        prev2, prev1 = prev1, hn

    series = HeunSeries(hp, np.asarray(h), MAX_TERMS)
    return replace(series, status=eval_series(series, 0.5).status)


def eval_series(series: HeunSeries, x: float) -> HeunEval:
    """Sum the series and its term-wise derivative at x.

    Truncated polynomials are summed exactly at any x.  Otherwise x must lie
    inside the unit disk; the sum stops once the tail rule fires, and the
    result is flagged "max_terms" when the stored coefficients run out first.
    This scalar sum is the reference that ``sum_stack`` is checked against.
    """
    if series.status == DIVERGENT:
        raise DivergentSeriesError(
            f"divergent solution (recurrence pole at n = {series.pole_index})")
    truncated = series.status == TRUNCATED
    if not truncated and abs(x) >= 1.0:
        raise ValueError(f"|x| must be < 1 for a non-truncated series, got {x}")

    if truncated:
        value = 0.0
        deriv = 0.0
        for n in range(series.trunc_index, -1, -1):  # Horner
            hn = series.coefficient(n)
            value = value * x + hn
            if n >= 1:
                deriv = deriv * x + n * hn
        return HeunEval(value, deriv, TRUNCATED)

    coeffs = series.coeffs.tolist()
    value = 1.0
    deriv = 0.0
    xp = 1.0                          # x**(n-1)
    small_run = 0
    for n in range(1, len(coeffs)):
        hx = coeffs[n] * xp
        deriv += n * hx
        term = hx * x
        value += term
        if not math.isfinite(value):
            return HeunEval(value, deriv, MAX_TERMS)
        if abs(term) <= TAIL_TOL * abs(value):
            small_run += 1
            if small_run >= TAIL_RUN:
                return HeunEval(value, deriv, CONVERGED)
        else:
            small_run = 0
        xp *= x
    return HeunEval(value, deriv, MAX_TERMS)


def sum_stack(hp: HeunParams):
    """Sum a stack of series and their x-derivatives at x = 1/2 at once.

    The fields of ``hp`` are arrays of one shape, one series per element;
    every element runs the recurrence and the tail rule of ``build_series``
    and ``eval_series`` up to N_MAX_DEFAULT terms, as if it were alone.
    Returns (S, Dx, ok) of that shape: the sum, its d/dx, and whether the
    tail rule fired with no recurrence pole before it and both sums finite.
    """
    A, B, C = recurrence_abc(hp)
    # the only index where A(n) can vanish, found as build_series would find it
    n_pole = np.rint(-hp.beta)
    n_pole[np.abs(n_pole + hp.beta) > POLE_EPS] = -1.0
    pole_steps = set(n_pole[n_pole >= 1.0].tolist())

    shape = hp.beta.shape
    h_prev = np.zeros(shape)
    h_cur = np.ones(shape)
    S = np.ones(shape)
    Dx = np.zeros(shape)
    small = np.zeros(shape, dtype=np.int32)
    done = np.zeros(shape, dtype=bool)
    hit_pole = np.zeros(shape, dtype=bool)
    xp = 1.0                           # (1/2)**(n-1)
    with np.errstate(all="ignore"):
        for n in range(1, N_MAX_DEFAULT + 1):
            h_new = (B(n) * h_cur + C(n) * h_prev) / A(n)
            if n in pole_steps:
                pole = n_pole == n
                hit_pole |= pole & ~done
                h_new[pole] = 0.0
            active = ~done
            hx = h_new * xp
            np.add(Dx, n * hx, out=Dx, where=active)
            term = hx * 0.5
            np.add(S, term, out=S, where=active)
            small = np.where(np.abs(term) <= TAIL_TOL * np.abs(S), small + 1, 0)
            done |= small >= TAIL_RUN
            if done.all():
                break
            h_prev, h_cur = h_cur, h_new
            xp = xp * 0.5
    return S, Dx, done & ~hit_pole & np.isfinite(S) & np.isfinite(Dx)


def truncation_obstruction(hp: HeunParams, N) -> float:
    """Signed, division-free truncation indicator for root bracketing.

    Equals h_{N+1} times the (fixed-sign) product of the A(k); computed by the
    numerator recurrence P_n = B(n) P_{n-1} + C(n) A(n-1) P_{n-2} so it stays
    finite and smooth across recurrence poles, where h_{N+1} itself is
    undefined.  Normalized to a bounded magnitude; zeros and sign changes are
    those of the truncation condition h_{N+1} = 0.  The parameters may be
    numpy arrays, and N an integer array broadcasting against them: element i
    runs N_i + 1 recurrence steps and is then held fixed, so each element is
    bit for bit what a call for it alone gives.
    """
    if np.any(N < 0):
        raise ValueError(f"N must be >= 0, got {np.min(N)}")
    A, B, C = recurrence_abc(hp)
    p_prev = 1.0
    p = B(1)
    for k in range(2, int(np.max(N, initial=0)) + 2):
        q_prev, q = p, B(k) * p + C(k) * A(k - 1) * p_prev
        norm = np.maximum(1.0, np.maximum(abs(q), abs(q_prev)))
        live = k <= N + 1
        p, p_prev = np.where(live, q / norm, p), np.where(live, q_prev / norm, p_prev)
    return p / np.maximum(1.0, abs(p))
