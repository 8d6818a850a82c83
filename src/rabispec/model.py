"""Model parameters and the confluent-Heun parameter maps.

The Hamiltonian is H = omega*a^dag*a + g*sigma_x*(a^dag + a) + delta*sigma_z
+ epsilon*sigma_x.  All internal computation uses reduced units (omega = 1,
energies given as E/omega); the CLI converts physical inputs exactly once.

Energies are plain floats in reduced units throughout the package; the Heun
parameter maps also take a numpy array of energies.
"""
from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class RabiParams:
    """Physical parameters: oscillator frequency, coupling, tunneling, bias."""

    g: float
    delta: float
    epsilon: float
    omega: float = 1.0

    def __post_init__(self):
        if not (self.omega > 0):
            raise ValueError(f"omega must be positive, got {self.omega}")
        for name in ("g", "delta", "epsilon", "omega"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")

    @property
    def is_reduced(self) -> bool:
        return self.omega == 1.0

    def reduced(self) -> "RabiParams":
        """Copy with omega = 1 and the energy-like parameters divided by omega."""
        w = self.omega
        return RabiParams(g=self.g / w, delta=self.delta / w,
                          epsilon=self.epsilon / w, omega=1.0)


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


def _require_reduced(p: RabiParams) -> None:
    if not p.is_reduced:
        raise ValueError("expected reduced parameters (omega = 1); call reduced() first")


def heun_params_set1_plus(E: float, p: RabiParams) -> HeunParams:
    """Parameter set of the spin-symmetric component of the first solution family.

    The series lives on x = (g - z)/(2g) with prefactor exp(-g*z).
    """
    _require_reduced(p)
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
    _require_reduced(p)
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
