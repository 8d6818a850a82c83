"""Model parameters and the confluent-Heun parameter maps.

The Hamiltonian is H = omega*a^dag*a + g*sigma_x*(a^dag + a) + delta*sigma_z
+ epsilon*sigma_x.  The library takes reduced parameters only: omega = 1, so
g, delta and epsilon are given as multiples of omega and energies as E/omega.
Only the CLI takes physical inputs (--omega) and divides them once.

Energies are plain floats in reduced units throughout the package.  The Heun
parameter maps also take a numpy array of energies, or a ``RabiParams`` whose
g or epsilon is an array, so that a whole sweep is mapped at once.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class RabiParams:
    """Coupling, tunneling and bias in units of the oscillator frequency.

    A field may be a numpy array (a sweep axis); every entry must be finite.
    """

    g: float
    delta: float
    epsilon: float

    def __post_init__(self):
        for name in ("g", "delta", "epsilon"):
            v = getattr(self, name)
            # scalars keep the cheap check: one spectrum builds dozens of these
            if not (np.isfinite(v).all() if isinstance(v, np.ndarray) else math.isfinite(v)):
                raise ValueError(f"{name} must be finite")


@dataclass(frozen=True)
class HeunParams:
    """The five primary confluent-Heun parameters.

    The accessory parameters mu and nu are always derived from the primary
    five, never stored.
    """

    alpha: float
    beta: float
    gamma: float
    delta: float
    eta: float

    @property
    def mu(self) -> float:
        return self.delta + self.alpha * (self.beta + self.gamma + 2.0) / 2.0

    @property
    def nu(self) -> float:
        return (self.eta + self.beta / 2.0
                + (self.gamma - self.alpha) * (self.beta + 1.0) / 2.0)


def heun_params_set1_plus(E: float, p: RabiParams) -> HeunParams:
    """Parameter set of the spin-symmetric component of the first solution family.

    The series lives on x = (g - z)/(2g) with prefactor exp(-g*z).
    """
    g2 = p.g * p.g
    d2 = p.delta * p.delta
    eps = p.epsilon
    return HeunParams(
        alpha=4.0 * g2,
        beta=-(E + eps + g2 + 1.0),
        gamma=-(E - eps + g2),
        delta=-2.0 * (1.0 - 2.0 * eps) * g2,
        eta=(-1.5 * g2 * g2 + (1.0 - 2.0 * E - 4.0 * eps) * g2 / 2.0
             + (E * E + E - eps * eps + eps - 2.0 * d2 + 1.0) / 2.0),
    )


def heun_params_set1_minus(E: float, p: RabiParams) -> HeunParams:
    """Parameter set of the spin-antisymmetric component of the first family."""
    g2 = p.g * p.g
    d2 = p.delta * p.delta
    eps = p.epsilon
    return HeunParams(
        alpha=4.0 * g2,
        beta=-(E + eps + g2),
        gamma=-(E - eps + g2 + 1.0),
        delta=2.0 * (1.0 + 2.0 * eps) * g2,
        eta=(-1.5 * g2 * g2 - (3.0 + 2.0 * E + 4.0 * eps) * g2 / 2.0
             + (E * E + E - eps * eps - eps - 2.0 * d2 + 1.0) / 2.0),
    )


def heun_params_set2(hp: HeunParams) -> HeunParams:
    """Map a first-family parameter set to the second family.

    beta and gamma are interchanged, delta changes sign, eta picks up delta.
    The second-family series lives on x = (g + z)/(2g) with prefactor exp(g*z).
    """
    return HeunParams(alpha=hp.alpha, beta=hp.gamma, gamma=hp.beta,
                      delta=-hp.delta, eta=hp.eta + hp.delta)
