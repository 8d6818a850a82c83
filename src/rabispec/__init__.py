"""Energy spectrum of the biased quantum Rabi model.

Regular eigenvalues come from zeros of the Wronskian of two confluent-Heun
solution families; exceptional (Judd-type) eigenvalues from series truncation
conditions; everything is cross-validated against dense Fock-basis
diagonalization.
"""
from .model import RabiParams
from .analytic import find_regular_spectrum
from .oracle import eigen
from .exceptional import find_crossings, scan_exceptional
from .spectrum import assemble, sweep

__version__ = "0.1.0"
