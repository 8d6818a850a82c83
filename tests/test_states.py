import math

import numpy as np
import pytest

from rabispec.analytic import FIRST, MINUS, PLUS, SECOND, build_pair
from rabispec.exceptional import candidate_energy, closed_form_relation
from rabispec.model import RabiParams
from rabispec import oracle
from rabispec.oracle import SpinFockState, eigenvector_overlap
from rabispec.states import (PolynomialWavefunction, component_polynomials,
                             fock_expand, reconstruct_exceptional_state, reexpand)

P_EXC = RabiParams(g=0.2, delta=0.8, epsilon=0.1)
JUDD = RabiParams(g=0.3, delta=0.8, epsilon=0.0)


def _exc_pair():
    return build_pair(SECOND, candidate_energy(1, MINUS, P_EXC), P_EXC)


def test_component_polynomials_known_point():
    plus, minus = component_polynomials(_exc_pair())
    assert plus == pytest.approx([1.0], abs=1e-12)
    assert minus == pytest.approx([0.9, -0.5], abs=1e-12)


def test_reexpand_combines_components():
    pw1, pw2 = reexpand(_exc_pair())
    assert pw1.component == "psi1" and pw2.component == "psi2"
    assert pw1.prefactor_sign == P_EXC.g and pw2.prefactor_sign == P_EXC.g
    assert pw1.poly_coeffs == pytest.approx([1.9, -0.5], abs=1e-12)
    assert pw2.poly_coeffs == pytest.approx([0.1, 0.5], abs=1e-12)


def test_reexpand_first_family_constant_minus():
    # plus-branch N = 1 locus: psi_- is the constant delta/(1 + 2 eps)
    E = candidate_energy(1, PLUS, JUDD)
    plus, minus = component_polynomials(build_pair(FIRST, E, JUDD))
    assert len(minus) == 1
    assert minus[0] == pytest.approx(JUDD.delta / (1 + 2 * JUDD.epsilon), rel=1e-12)
    assert len(plus) == 2      # degree equals the truncation index


def test_reexpand_requires_truncated():
    pair = build_pair(SECOND, 0.5, P_EXC)     # generic energy: infinite series
    with pytest.raises(ValueError):
        reexpand(pair)


def test_fock_expand_coherent_state():
    # poly = 1 with exponent -g gives coherent-state amplitudes (-g)^k/sqrt(k!)
    g = 0.4
    pw1 = PolynomialWavefunction(-g, np.array([1.0]), "psi1")
    pw2 = PolynomialWavefunction(-g, np.array([0.0]), "psi2")
    st = fock_expand(pw1, pw2, 40)
    ref = np.array([(-g) ** k / math.sqrt(math.factorial(k)) for k in range(41)])
    ref /= np.linalg.norm(ref)
    assert st.amplitudes[:, 1] == pytest.approx(list(ref), abs=1e-12)
    assert np.all(st.amplitudes[:, 0] == 0.0)


def test_fock_expand_photon_added_terms():
    # poly(a^dag) exp(s a^dag)|0> has amplitude sum_j p_j s^(k-j) sqrt(k!)/(k-j)!
    poly = np.array([0.3, -1.2, 0.0, 0.5])
    for s in (0.7, -0.7, 0.0):
        pw1 = PolynomialWavefunction(s, poly, "psi1")
        pw2 = PolynomialWavefunction(s, np.array([1.0]), "psi2")
        st = fock_expand(pw1, pw2, 50)
        ref = np.array([[sum(p * s ** (k - j) * math.sqrt(math.factorial(k))
                             / math.factorial(k - j)
                             for j, p in enumerate(poly) if j <= k), c]
                        for k in range(51)
                        for c in [s ** k / math.sqrt(math.factorial(k))]])
        np.testing.assert_allclose(st.amplitudes[:, [1, 0]], ref / np.linalg.norm(ref),
                                   rtol=0, atol=1e-15)


def test_fock_expand_norm_and_tail():
    st = reconstruct_exceptional_state(P_EXC, MINUS, n_c=60)
    assert st.norm == pytest.approx(1.0, abs=1e-12)
    peak = np.max(np.abs(st.amplitudes))
    assert np.max(np.abs(st.amplitudes[-1])) < 1e-14 * peak


def test_fock_expand_cutoff_too_small():
    pw1, pw2 = reexpand(_exc_pair())
    with pytest.raises(ValueError):
        fock_expand(pw1, pw2, 3)


def test_fock_expand_mismatched_prefactors():
    pw1 = PolynomialWavefunction(0.2, np.array([1.0]), "psi1")
    pw2 = PolynomialWavefunction(-0.2, np.array([1.0]), "psi2")
    with pytest.raises(ValueError):
        fock_expand(pw1, pw2, 20)


def test_amplitude_tail_decays():
    st = reconstruct_exceptional_state(P_EXC, MINUS, n_c=60)
    mags = np.abs(st.amplitudes).max(axis=1)
    start = 8      # beyond g^2 + N + 5
    assert np.all(np.diff(mags[start:]) <= 1e-16)


def test_overlap_with_oracle_eigenvector():
    st = reconstruct_exceptional_state(P_EXC, MINUS, n_c=60)
    res = oracle.eigen(P_EXC, 4, tol=1e-10, want_vectors=True)
    i = int(np.argmin(np.abs(res.eigenvalues - 0.86)))
    assert oracle.eigenvector_overlap(st, res.eigenvectors[i]) >= 1 - 1e-8


def test_hamiltonian_residual():
    for p, branch in [(P_EXC, MINUS), (JUDD, PLUS), (JUDD, MINUS)]:
        E = candidate_energy(1, branch, p)
        st = reconstruct_exceptional_state(p, branch, n_c=60)
        H = oracle.build_hamiltonian(p, st.cutoff)
        v = st.flatten()
        hnorm = np.abs(np.linalg.eigvalsh(H)).max()
        assert np.linalg.norm(H @ v - E * v) <= 1e-8 * hnorm


def closed_form_state_check(p: RabiParams, branch: str, n_c: int = 60) -> float:
    """Reference for the tests below: 1 - overlap between the explicit N = 1
    coherent-state form and the reconstruction through reexpand/fock_expand.

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


def test_closed_form_state_checks():
    assert closed_form_state_check(P_EXC, MINUS) <= 1e-10
    assert closed_form_state_check(JUDD, PLUS) <= 1e-10
    assert closed_form_state_check(JUDD, MINUS) <= 1e-10


def test_closed_form_state_check_off_locus():
    with pytest.raises(ValueError):
        closed_form_state_check(RabiParams(g=0.25, delta=0.8, epsilon=0.1), MINUS)
