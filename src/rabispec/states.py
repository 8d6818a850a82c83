"""Closed-form reconstruction of exceptional eigenstates.

A truncated solution pair gives psi_+ and psi_- as (polynomial in z) times
exp(+-g z).  Recombining, psi_1 = psi_+ + psi_- and psi_2 = psi_+ - psi_-
act on the vacuum as functions of the creation operator, so the eigenstate
is psi_1(a^dag)|0>|up> + psi_2(a^dag)|0>|down> (psi_1 obeys the +delta row
of the coupled system, hence the spin-up leg under sigma_z|up> = +|up>): a
polynomial times a coherent exponential, i.e. a superposition of a coherent
state and photon-added coherent states.  Only exceptional (truncated)
solutions are reconstructed; regular eigenstates are represented by oracle
eigenvectors.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np
from numpy.polynomial import polynomial as npoly

from .model import RabiParams
from . import heun
from .analytic import FIRST, PLUS, SECOND, SolutionPair, build_pair
from .exceptional import candidate_energy, closed_form_relation
from .oracle import SpinFockState, eigenvector_overlap

FOCK_TAIL_TOL = 1e-14


@dataclass(frozen=True)
class PolynomialWavefunction:
    """One spin component: poly(z) * exp(prefactor_sign * z)."""

    prefactor_sign: float          # +-g, the exponent coefficient
    poly_coeffs: np.ndarray        # low-to-high coefficients in z
    component: str                 # "psi1" | "psi2"


def _series_poly_in_z(series, scale: float, g: float, family: str) -> np.ndarray:
    """Compose a truncated HC series with the affine coordinate map x(z)."""
    if series.status != heun.TRUNCATED:
        raise ValueError("state reconstruction requires truncated series; "
                         "regular states are validated via the oracle only")
    n = series.trunc_index
    hs = [series.coefficient(k) for k in range(n + 1)]
    # x = 1/2 -+ z/(2g); Horner in coefficient space keeps the degree exact
    c1 = -1.0 / (2.0 * g) if family == FIRST else 1.0 / (2.0 * g)
    affine = np.array([0.5, c1])
    poly = np.array([hs[n]])
    for k in range(n - 1, -1, -1):
        poly = npoly.polyadd(npoly.polymul(poly, affine), [hs[k]])
    return scale * poly


def component_polynomials(pair: SolutionPair) -> Tuple[np.ndarray, np.ndarray]:
    """(psi_+, psi_-) polynomial factors in z, scale factors applied."""
    g = pair.params.g
    plus = _series_poly_in_z(pair.plus_series, pair.scale_plus, g, pair.family)
    minus = _series_poly_in_z(pair.minus_series, pair.scale_minus, g, pair.family)
    return plus, minus


def reexpand(pair: SolutionPair) -> Tuple[PolynomialWavefunction, PolynomialWavefunction]:
    """psi_1 = psi_+ + psi_- and psi_2 = psi_+ - psi_- as polynomials sharing
    one exponential prefactor."""
    plus, minus = component_polynomials(pair)
    sign = -pair.params.g if pair.family == FIRST else pair.params.g
    psi1 = npoly.polyadd(plus, minus)
    psi2 = npoly.polysub(plus, minus)
    return (PolynomialWavefunction(sign, np.asarray(psi1), "psi1"),
            PolynomialWavefunction(sign, np.asarray(psi2), "psi2"))


def _fock_amplitudes(poly: np.ndarray, s: float, n_c: int) -> np.ndarray:
    """Fock amplitudes of poly(a^dag) exp(s a^dag) |0>, unnormalized.

    amplitude(k) = sum_j p_j s^(k-j) sqrt(k!)/(k-j)! , evaluated in log space
    to stay finite at large k.
    """
    amps = np.zeros(n_c + 1)
    logs = math.log(abs(s)) if s != 0.0 else None
    for k in range(n_c + 1):
        total = 0.0
        for j, pj in enumerate(poly):
            if pj == 0.0 or j > k:
                continue
            m = k - j
            if m == 0:
                mag = math.exp(0.5 * math.lgamma(k + 1) - math.lgamma(1))
                total += pj * mag
            elif s != 0.0:
                mag = math.exp(m * logs + 0.5 * math.lgamma(k + 1)
                               - math.lgamma(m + 1))
                total += pj * (1.0 if s > 0 else (-1.0) ** m) * mag
        amps[k] = total
    return amps


def fock_expand(pw1: PolynomialWavefunction, pw2: PolynomialWavefunction,
                n_c: int) -> SpinFockState:
    """Expand the two-component wavefunction into a normalized Fock state.

    psi_1 obeys the +delta row of the coupled system, so with the convention
    sigma_z |up> = +|up> it rides the spin-up leg and psi_2 the spin-down leg
    (the Hamiltonian residual fixes this pairing).  Raises when the cutoff
    leaves a tail above the truncation threshold.
    """
    if pw1.prefactor_sign != pw2.prefactor_sign:
        raise ValueError("components must share one exponential prefactor")
    s = pw1.prefactor_sign
    up = _fock_amplitudes(np.asarray(pw1.poly_coeffs, dtype=float), s, n_c)
    down = _fock_amplitudes(np.asarray(pw2.poly_coeffs, dtype=float), s, n_c)
    amps = np.stack([down, up], axis=1)
    peak = np.max(np.abs(amps))
    if peak == 0.0:
        raise ValueError("zero wavefunction")
    if np.max(np.abs(amps[-1])) >= FOCK_TAIL_TOL * peak:
        raise ValueError(
            f"cutoff n_c = {n_c} too small: tail amplitude "
            f"{np.max(np.abs(amps[-1])) / peak:.2e} above {FOCK_TAIL_TOL}")
    amps /= np.linalg.norm(amps)
    return SpinFockState(amps)


def reconstruct_exceptional_state(p: RabiParams, branch: str, N: int = 1,
                                  n_c: int = 60) -> SpinFockState:
    """Fock-basis eigenstate at the branch's exceptional energy."""
    family = FIRST if branch == PLUS else SECOND
    E = candidate_energy(N, branch, p)
    pair = build_pair(family, E, p)
    pw1, pw2 = reexpand(pair)
    return fock_expand(pw1, pw2, n_c)


def closed_form_state_check(p: RabiParams, branch: str, n_c: int = 60) -> float:
    """1 - overlap between the explicit N = 1 coherent-state form and the
    reconstruction through reexpand/fock_expand.

    The explicit form is u |b> + w |b, 1> per spin component with b = -+g;
    the photon-added normalization sqrt(L_1(-g^2)) = sqrt(1 + g^2) cancels
    against a^dag|b> = sqrt(1 + g^2) |b, 1>, leaving (u + w' a^dag)|b>.
    """
    rel = closed_form_relation(1, branch, p)
    if abs(rel) > 1e-8:
        raise ValueError(
            f"parameters off the N = 1 {branch} locus (relation residual {rel:.3e})")
    g, d, eps = p.g, p.delta, p.epsilon
    if branch == PLUS:
        b = -g
        den = 1.0 + 2.0 * eps
        u1, w1 = 1.0 + (d - 2.0 * g * g) / den, 2.0 * g / den
        u2, w2 = 1.0 - (d + 2.0 * g * g) / den, 2.0 * g / den
    else:
        b = g
        den = 1.0 - 2.0 * eps
        u1, w1 = 1.0 + (d - 2.0 * g * g) / den, -2.0 * g / den
        u2, w2 = -(1.0 - (d + 2.0 * g * g) / den), 2.0 * g / den
    k = np.arange(n_c + 1)
    log_coh = k * math.log(abs(b)) if b != 0.0 else np.where(k == 0, 0.0, -np.inf)
    coh = np.sign(b) ** k * np.exp(log_coh - 0.5 *
                                   np.array([math.lgamma(int(q) + 1) for q in k]))
    pac = np.zeros(n_c + 1)
    pac[1:] = np.sqrt(k[1:]) * coh[:-1]          # a^dag |b>, unnormalized
    # psi_1 bracket rides spin-up, psi_2 spin-down, as in fock_expand
    amps = np.stack([u2 * coh + w2 * pac,
                     u1 * coh + w1 * pac], axis=1)
    amps /= np.linalg.norm(amps)
    explicit_state = SpinFockState(amps)
    mine = reconstruct_exceptional_state(p, branch, N=1, n_c=n_c)
    return 1.0 - eigenvector_overlap(explicit_state, mine)
