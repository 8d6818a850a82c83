"""Seeded inputs of the three workloads.

One round is a fixed list of operations drawn from the seed; a run repeats
whole rounds, so every run attempts the same operations in the same
proportions.  Strata and lattices keep the cost of a round nearly the same
from one seed to the next.  The spectra draws are the same for every seed,
which only orders them (see spectra_inputs).
"""
from __future__ import annotations

import numpy as np

import reference as ref

# spectra: independent assemble calls in a fixed-width window starting just
# below the lower bound -g^2 - sqrt(delta^2 + eps^2)
SPECTRA_DRAWS = 56
SPECTRA_WIDTH = 4.0
SPECTRA_BELOW = 0.05
SPECTRA_G = (0.1, 2.5)
SPECTRA_DELTA = (0.2, 1.2)
SPECTRA_EPS = (0.0, 0.5)
SPECTRA_LATTICE_SEED = 0
# one operation for each way of missing a level, the same in every round
SPECTRA_FAULTS = (
    (2.34, 1.26, 0.0),     # doublets split by less than the grid spacing
    (0.91, 0.40, 0.27),    # a regular level 8.6e-4 from a candidate energy
)

# sweep-g: spectrum.sweep along g as acceptance criterion 9 runs it
SWEEP_DELTA = 0.8
SWEEP_WINDOW = (-1.5, 3.0)
SWEEP_N_MAX = 2
SWEEP_STEPS = 6
SWEEP_FIXED_EPS = (0.0, 0.15, 0.5)
SWEEP_SEEDED_EPS = 3
SWEEP_EPS = (0.05, 0.45)

# loci: the exceptional structure of one template per operation
# N_max = 8 along g makes 5 s operations and a run of a handful; 5 and 3
# keep an operation near 1.5 s, so that a run holds about twenty
LOCI_TEMPLATES = 8
LOCI_DELTA = (0.3, 1.2)
LOCI_EPS = (0.05, 0.45)          # eps of the scan along g
LOCI_G = (0.2, 0.8)              # g of the scan along eps
LOCI_G_RANGE = (0.05, 1.5)
LOCI_EPS_RANGE = (-0.9, 0.9)
LOCI_G_N_MAX = 5
LOCI_EPS_N_MAX = 3
LOCI_PAIRS = ((1, 2), (1, 3), (2, 3))

WORKLOADS = ("sweep-g", "spectra", "loci")


def spectra_window(g, delta, eps):
    e_min = ref.lower_bound(g, delta, eps) - SPECTRA_BELOW
    return e_min, e_min + SPECTRA_WIDTH


# additive recurrence of the R2 low-discrepancy sequence (Roberts 2018)
R2 = (0.7548776662466927, 0.5698402909980532)


def spectra_inputs(seed):
    """The same draws for every seed, in an order drawn from the seed.

    The draws are a lattice shifted by SPECTRA_LATTICE_SEED: g steps evenly
    through its range and (delta, eps) follow the R2 sequence.  None is
    moved or left out, whatever find_regular_spectrum does with it.  The
    draws do not depend on ``seed`` because some of them make it miss
    levels, and which ones do would otherwise change from seed to seed.
    """
    u = np.random.default_rng([SPECTRA_LATTICE_SEED, 1]).random(3)
    n = SPECTRA_DRAWS
    ops = []
    for i in range(n):
        g = _scale(SPECTRA_G, (i + u[0]) / n)
        d = _scale(SPECTRA_DELTA, (u[1] + i * R2[0]) % 1.0)
        e = _scale(SPECTRA_EPS, (u[2] + i * R2[1]) % 1.0)
        ops.append(_spectra_op(g, d, e))
    ops += [_spectra_op(*p) for p in SPECTRA_FAULTS]
    order = np.random.default_rng([seed, 1]).permutation(len(ops))
    return [ops[k] for k in order]


def _scale(bounds, x):
    return bounds[0] + (bounds[1] - bounds[0]) * x


def _spectra_op(g, delta, eps):
    g, delta, eps = float(g), float(delta), float(eps)
    return {"kind": "assemble", "g": g, "delta": delta, "epsilon": eps,
            "window": list(spectra_window(g, delta, eps))}


def sweep_inputs(seed):
    rng = np.random.default_rng([seed, 2])
    u = rng.random()
    n = SWEEP_SEEDED_EPS
    epss = list(SWEEP_FIXED_EPS) + [_scale(SWEEP_EPS, (i + u) / n) for i in range(n)]
    ops = []
    for e in epss:
        g_lo = 0.05 + rng.uniform(-0.01, 0.01)
        g_hi = 1.2 + rng.uniform(-0.02, 0.02)
        ops.append({"kind": "sweep", "delta": SWEEP_DELTA, "epsilon": float(e),
                    "g_range": [float(g_lo), float(g_hi)], "steps": SWEEP_STEPS,
                    "window": list(SWEEP_WINDOW), "N_max": SWEEP_N_MAX})
    return ops


def loci_inputs(seed):
    """delta steps evenly through its range; (eps, g) follow the R2 sequence."""
    u = np.random.default_rng([seed, 3]).random(3)
    n = LOCI_TEMPLATES
    ops = []
    for i in range(n):
        ops.append({"kind": "loci", "delta": _scale(LOCI_DELTA, (i + u[0]) / n),
                    "epsilon": _scale(LOCI_EPS, (u[1] + i * R2[0]) % 1.0),
                    "g": _scale(LOCI_G, (u[2] + i * R2[1]) % 1.0),
                    "g_range": list(LOCI_G_RANGE), "g_N_max": LOCI_G_N_MAX,
                    "epsilon_range": list(LOCI_EPS_RANGE), "epsilon_N_max": LOCI_EPS_N_MAX,
                    "pairs": [list(p) for p in LOCI_PAIRS]})
    return ops


def inputs(workload, seed):
    """The operations of one round."""
    return {"sweep-g": sweep_inputs, "spectra": spectra_inputs,
            "loci": loci_inputs}[workload](seed)
