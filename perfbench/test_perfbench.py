"""Self-tests of the benchmark: its references against known cases, and its
checks against real rabispec outputs that are then deliberately perturbed.

    python3 -m pytest -q perfbench
"""
import copy
import json
import math

import numpy as np
import pytest
from scipy.linalg import eig_banded

import checks
import reference as ref
import worker
import workloads


# --- references --------------------------------------------------------------

def test_reference_at_zero_coupling():
    delta, eps = 0.8, 0.1
    r = math.hypot(delta, eps)
    want = sorted(n + s * r for n in range(6) for s in (-1.0, 1.0) if n + s * r <= 4.5)
    got = ref.eigenvalues(0.0, delta, eps, -1.0, 4.5)
    assert got.size == len(want)
    assert np.max(np.abs(got - want)) < 1e-12


def test_reference_criterion_one_anchor():
    g, delta, eps = 0.2, 0.8, 0.1
    energy = ref.exceptional_energy(1, "minus", g, eps)
    assert energy == pytest.approx(0.86, abs=1e-15)
    assert ref.relation(1, "minus", g, delta, eps) == pytest.approx(0.0, abs=1e-15)
    assert np.min(np.abs(ref.eigenvalues(g, delta, eps, -1.5, 1.5) - 0.86)) < 1e-12


def test_reference_window_is_lower_bounded():
    g, delta, eps = 1.7, 0.6, 0.3
    bound = ref.lower_bound(g, delta, eps)
    assert ref.eigenvalues(g, delta, eps, bound - 10.0, bound).size == 0


def test_reference_locus_roots_satisfy_relations():
    delta = 0.7
    for N in (1, 2):
        for branch in ("plus", "minus"):
            for eps in (0.0, 0.15, 0.5):
                for g in ref.loci_along_g(N, branch, delta, eps, 0.0, 3.0):
                    assert abs(ref.relation(N, branch, g, delta, eps)) < 1e-9
            for e in ref.loci_along_eps(N, branch, 0.4, delta, -2.0, 2.0):
                assert abs(ref.relation(N, branch, 0.4, delta, e)) < 1e-9


def test_reference_crossing_one_two():
    delta = 0.8
    eps_star, g_star, energy = ref.crossing(delta, 1, 2, 1e-3, 2.0)
    assert eps_star == 0.5
    assert g_star == pytest.approx(0.5 * math.sqrt(2.0 - delta ** 2), abs=1e-15)
    assert energy == pytest.approx(1.16, abs=1e-12)
    near = ref.eigenvalues(g_star, delta, eps_star, energy - 1e-6, energy + 1e-6)
    assert near.size == 2


def test_reference_state_residual():
    g, delta, eps, n_c = 0.3, 0.8, 0.2, 60
    vals, vecs = eig_banded(ref.banded_hamiltonian(g, delta, eps, n_c), lower=False)
    amps = vecs[:, 2].reshape(-1, 2)
    assert ref.state_residual(g, delta, eps, vals[2], amps) < 1e-12
    assert ref.state_residual(g, delta, eps, vals[2] + 1e-5, amps) > 1e-6


# --- checks on real outputs ----------------------------------------------------

@pytest.fixture(scope="module")
def rabispec():
    return worker._import_rabispec()


def _output(rs, op):
    raw = worker.RUNNERS[op["kind"]](rs, op)
    return json.loads(json.dumps(worker.serialize(op["kind"], raw)))


@pytest.fixture(scope="module")
def spectra_case(rabispec):
    op = workloads._spectra_op(0.6, 0.8, 0.15)
    return op, _output(rabispec, op)


@pytest.fixture(scope="module")
def sweep_case(rabispec):
    op = workloads.sweep_inputs(0)[2]        # eps = 1/2: a degenerate crossing
    op["steps"] = 3
    return op, _output(rabispec, op)


@pytest.fixture(scope="module")
def loci_case(rabispec):
    op = workloads.loci_inputs(0)[1]
    op["g_N_max"], op["epsilon_N_max"] = 3, 2
    return op, _output(rabispec, op)


def test_spectra_check(spectra_case):
    op, out = spectra_case
    assert checks.check(op, out) == []
    moved = copy.deepcopy(out)
    moved["levels"][1][0] += 1e-5
    assert checks.check(op, moved)
    removed = copy.deepcopy(out)
    del removed["levels"][2]
    assert checks.check(op, removed)
    doubled = copy.deepcopy(out)
    doubled["levels"][0][1] = 2
    assert checks.check(op, doubled)


def test_spectra_fault_is_seen(rabispec):
    op = workloads._spectra_op(*workloads.SPECTRA_FAULTS[1])
    out = _output(rabispec, op)
    assert checks.check(op, out) == []
    assert checks.oracle_assisted(out) >= 1


def test_spectra_draws_are_the_same_for_every_seed():
    key = lambda op: (op["g"], op["delta"], op["epsilon"])
    a, b = workloads.spectra_inputs(0), workloads.spectra_inputs(1)
    assert [key(op) for op in a] != [key(op) for op in b]
    assert sorted(map(key, a)) == sorted(map(key, b))
    assert a == workloads.spectra_inputs(0)


def test_sweep_check(sweep_case):
    op, out = sweep_case
    assert checks.check(op, out) == []
    assert any(grp[2] == 2 for grp in out["groups"])
    moved = copy.deepcopy(out)
    moved["levels"][1][0][0] += 1e-5
    assert checks.check(op, moved)
    removed = copy.deepcopy(out)
    del removed["markers"][0]
    assert checks.check(op, removed)


def test_sweep_degenerate_group_needs_integer_two_eps(sweep_case):
    op, out = sweep_case
    op = dict(op, epsilon=0.15)
    fake = copy.deepcopy(out)
    for grp in fake["groups"]:
        grp[2] = 1
    fake["groups"][0][2] = 2
    problems = checks.check_groups(fake["groups"], fake["markers"], op["delta"],
                                   op["epsilon"], tuple(op["window"]))
    assert any("not an integer" in p for p in problems)


def test_loci_check(loci_case):
    op, out = loci_case
    assert checks.check(op, out) == []
    n1 = [i for i, pt in enumerate(out["along_g"]) if pt[0] == 1]
    assert n1 and out["states"]
    removed = copy.deepcopy(out)
    del removed["along_g"][n1[0]]
    assert checks.check(op, removed)
    moved = copy.deepcopy(out)
    pt = moved["along_g"][n1[0]]
    pt[2] += 1e-5
    pt[5] = ref.exceptional_energy(pt[0], pt[1], pt[2], pt[4])
    assert checks.check(op, moved)
    high = [i for i, pt in enumerate(out["along_g"]) if pt[0] == 3]
    assert high
    off = copy.deepcopy(out)
    off["along_g"][high[0]][5] += 1e-5
    assert checks.check(op, off)
    crossing = copy.deepcopy(out)
    crossing["crossings"][0][3] += 1e-5
    assert checks.check(op, crossing)
    state = copy.deepcopy(out)
    state["states"][0][-1][1][0] += 1e-5
    assert checks.check(op, state)
