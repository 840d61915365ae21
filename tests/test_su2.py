import os
import subprocess
import sys

import numpy as np
import pytest

import gauge_mps
from gauge_mps.errors import BadAlgebra, BadSpinSet
from gauge_mps.su2 import (
    check_su2_commutators,
    conjugate_generators,
    coupled_basis,
    element_from_generators,
    product_generators,
    spin_dim,
    su2_clebsch_gordan,
    su2_element,
    su2_generators,
    su2_samples,
)


@pytest.mark.parametrize("j", [0, 0.5, 1, 1.5, 2, 5])
def test_generator_commutators(j):
    assert check_su2_commutators(su2_generators(j)) < 1e-12


def test_spin_dim_rejects_bad_spin():
    with pytest.raises(BadSpinSet):
        spin_dim(0.3)
    with pytest.raises(BadSpinSet):
        spin_dim(-1)


def test_spin_half_is_pauli_over_two():
    tau = su2_generators(0.5)
    sx = np.array([[0, 1], [1, 0]]) / 2
    sy = np.array([[0, -1j], [1j, 0]]) / 2
    sz = np.array([[1, 0], [0, -1]]) / 2
    assert np.allclose(tau, [sx, sy, sz])


def test_conjugate_and_product_generators_close_algebra():
    tau = su2_generators(1)
    assert check_su2_commutators(conjugate_generators(tau)) < 1e-12
    prod = product_generators(tau, su2_generators(0.5))
    assert check_su2_commutators(prod) < 1e-12


PAULI = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


def test_spin_half_elements_match_closed_form():
    # exp(i phi.sigma / 2) = cos(|phi|/2) 1 + i sin(|phi|/2) phi_hat.sigma
    for phi in np.random.default_rng(5).normal(scale=2.0, size=(6, 3)):
        angle = np.linalg.norm(phi)
        axis_sigma = np.einsum("a,aij->ij", phi / angle, PAULI)
        want = np.cos(angle / 2) * np.eye(2) + 1j * np.sin(angle / 2) * axis_sigma
        assert np.allclose(su2_element(0.5, phi), want, atol=1e-13)


@pytest.mark.parametrize("j", [0, 0.5, 1, 1.5, 2])
def test_full_turn_is_plus_or_minus_identity(j):
    axis = np.random.default_rng(int(2 * j)).normal(size=3)
    phi = 2 * np.pi * axis / np.linalg.norm(axis)
    want = (-1) ** int(2 * j) * np.eye(spin_dim(j))
    assert np.allclose(su2_element(j, phi), want, atol=1e-12)


def test_elements_are_unitary_and_consistent():
    # unitary, and D(phi) D(-phi) = 1
    phi = np.array([0.3, -1.2, 0.7])
    for j in (0.5, 1, 1.5, 2):
        u = su2_element(j, phi)
        d = spin_dim(j)
        assert np.allclose(u.conj().T @ u, np.eye(d), atol=1e-12)
        assert np.allclose(u @ su2_element(j, -phi), np.eye(d), atol=1e-12)


def test_stacked_parameters_match_one_at_a_time():
    gens = product_generators(su2_generators(1), su2_generators(0.5))
    samples = su2_samples(7, seed=1)
    stacked = element_from_generators(gens, samples)
    assert stacked.shape == (7, 6, 6)
    for phi, u in zip(samples, stacked):
        assert np.allclose(u, element_from_generators(gens, phi), atol=1e-13)


def test_element_rejects_non_hermitian_generators():
    gens = su2_generators(1).copy()
    gens[0, 0, 2] += 0.1
    with pytest.raises(BadAlgebra):
        element_from_generators(gens, [0.4, 0.0, 0.0])
    # the Hermitian generators alone still exponentiate
    u = element_from_generators(gens, [0.0, 0.4, -0.2])
    assert np.allclose(u.conj().T @ u, np.eye(3), atol=1e-12)


def test_import_does_not_load_scipy():
    src = os.path.dirname(os.path.dirname(gauge_mps.__file__))
    code = ("import sys, gauge_mps, gauge_mps.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_group_law_on_rotations_about_one_axis():
    # commuting parameters along a fixed axis add up
    u1 = su2_element(1, [0, 0, 0.4])
    u2 = su2_element(1, [0, 0, 1.1])
    u12 = su2_element(1, [0, 0, 1.5])
    assert np.allclose(u1 @ u2, u12, atol=1e-12)


def test_samples_are_seed_deterministic():
    s1 = su2_samples(10, seed=3)
    s2 = su2_samples(10, seed=3)
    assert np.array_equal(s1, s2)
    assert not np.array_equal(s1, su2_samples(10, seed=4))


def test_coupled_basis_splits_half_times_half():
    gens = product_generators(su2_generators(0.5), su2_generators(0.5))
    multiplets = coupled_basis(gens)
    assert [j for j, _ in multiplets] == [0.0, 1.0]
    # singlet: (|ud> - |du>)/sqrt(2) up to the fixed phase
    singlet = multiplets[0][1][:, 0]
    want = np.array([0, 1, -1, 0]) / np.sqrt(2)
    assert np.allclose(singlet, want, atol=1e-12)


def test_coupled_basis_standard_ladder_action():
    rng = np.random.default_rng(2)
    gens = product_generators(su2_generators(1), su2_generators(0.5))
    q, _ = np.linalg.qr(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))
    gens = np.einsum("ab,gbc,dc->gad", q, gens, np.conj(q))
    multiplets = coupled_basis(gens)
    assert [j for j, _ in multiplets] == [0.5, 1.5]
    tz = gens[2]
    tp = gens[0] + 1j * gens[1]
    for jv, cols in multiplets:
        dim = cols.shape[1]
        for k in range(dim):
            m = jv - k
            assert np.allclose(tz @ cols[:, k], m * cols[:, k], atol=1e-9)
            if k > 0:
                up = tp @ cols[:, k]
                factor = np.sqrt(jv * (jv + 1) - m * (m + 1))
                assert np.allclose(up, factor * cols[:, k - 1], atol=1e-9)


def test_su2_clebsch_gordan_known_values():
    cg = su2_clebsch_gordan(0.5, 0.5)
    assert set(cg) == {0.0, 1.0}
    # <1/2,1/2; 1/2,-1/2 | 0, 0> = 1/sqrt(2), antisymmetric partner -1/sqrt(2)
    c0 = cg[0.0][0]     # (m, n), m/n ordered +1/2, -1/2
    assert np.isclose(c0[0, 1], 1 / np.sqrt(2))
    assert np.isclose(c0[1, 0], -1 / np.sqrt(2))
    # triplet top: <1/2,1/2;1/2,1/2|1,1> = 1
    assert np.isclose(cg[1.0][0][0, 0], 1)
    # unitarity of the full table
    u = np.concatenate([cg[j].reshape(spin_dim(j), -1) for j in sorted(cg)])
    assert np.allclose(u @ u.conj().T, np.eye(4), atol=1e-12)


def test_su2_clebsch_gordan_block_diagonalizes_elements():
    cg = su2_clebsch_gordan(1.0, 0.5)
    phi = [0.9, 0.2, -0.5]
    prod = np.kron(su2_element(1.0, phi), su2_element(0.5, phi))
    u = np.concatenate([cg[j].reshape(spin_dim(j), -1) for j in sorted(cg)])
    rot = u.conj() @ prod @ u.T
    expect = np.zeros_like(rot)
    off = 0
    for j in sorted(cg):
        d = spin_dim(j)
        expect[off:off + d, off:off + d] = su2_element(j, phi)
        off += d
    assert np.allclose(rot, expect, atol=1e-10)
