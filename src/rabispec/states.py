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

from dataclasses import dataclass
from typing import Tuple

import numpy as np
from numpy.polynomial import polynomial as npoly

from .model import RabiParams
from . import heun
from .analytic import FAMILY, SIGN, SolutionPair, build_pair, candidate_energy
from .oracle import SpinFockState

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
    # x = 1/2 + SIGN z/(2g); Horner in coefficient space keeps the degree exact
    affine = np.array([0.5, SIGN[family] / (2.0 * g)])
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
    sign = SIGN[pair.family] * pair.params.g
    psi1 = npoly.polyadd(plus, minus)
    psi2 = npoly.polysub(plus, minus)
    return (PolynomialWavefunction(sign, np.asarray(psi1), "psi1"),
            PolynomialWavefunction(sign, np.asarray(psi2), "psi2"))


def _fock_amplitudes(poly: np.ndarray, s: float, n_c: int) -> np.ndarray:
    """Fock amplitudes of poly(a^dag) exp(s a^dag) |0>, unnormalized.

    Horner's rule in a^dag on the coherent amplitudes s^k / sqrt(k!); the
    cutoff loses nothing, since a^dag only moves amplitude up.
    """
    root = np.sqrt(np.arange(1, n_c + 1))
    coherent = np.cumprod(np.concatenate(([1.0], s / root)))
    amps = np.zeros(n_c + 1)
    for pj in poly[::-1]:
        amps = np.concatenate(([0.0], root * amps[:-1])) + pj * coherent
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
    pair = build_pair(FAMILY[branch], candidate_energy(N, branch, p), p)
    pw1, pw2 = reexpand(pair)
    return fock_expand(pw1, pw2, n_c)
