"""SU(2) spin representations: generators, sampled elements, coupling.

Group elements are D^j(phi) = exp(i sum_a phi_a tau^j_a).  The symmetry
checks read only generators: SU(2) is connected, so a state is invariant
under every element exactly when they annihilate it.  Seeded samples of
elements remain as an independent oracle.
"""
from __future__ import annotations

import numpy as np

from . import _tol
from .errors import BadAlgebra, BadSpinSet
from .tensors import _leading_index

EPS_ABC = np.zeros((3, 3, 3))
for _i, _j, _k, _s in [(0, 1, 2, 1), (1, 2, 0, 1), (2, 0, 1, 1),
                       (1, 0, 2, -1), (2, 1, 0, -1), (0, 2, 1, -1)]:
    EPS_ABC[_i, _j, _k] = _s


def spin_dim(j) -> int:
    d = int(round(2 * j + 1))
    if abs(2 * j - round(2 * j)) > _tol.SPIN_ROUNDING or d < 1:
        raise BadSpinSet(f"invalid spin {j}")
    return d


def su2_generators(j) -> np.ndarray:
    """(tau_x, tau_y, tau_z) for spin j, basis ordered m = j..-j."""
    d = spin_dim(j)
    m = j - np.arange(d)
    jz = np.diag(m.astype(complex))
    jp = np.zeros((d, d), dtype=complex)
    for k in range(1, d):
        mm = m[k]  # raising |j,m> -> |j,m+1>
        jp[k - 1, k] = np.sqrt(j * (j + 1) - mm * (mm + 1))
    jm = jp.conj().T
    jx = (jp + jm) / 2
    jy = (jp - jm) / (2j)
    return np.array([jx, jy, jz])


def su2_element(j, phi) -> np.ndarray:
    """D^j(phi) = exp(i sum_a phi_a tau_a)."""
    return element_from_generators(su2_generators(j), phi)


def element_from_generators(gens, phi) -> np.ndarray:
    """exp(i H) for the Hermitian H = sum_a phi_a gens_a, from H's eigenbasis.

    `phi` may stack parameter triples, shape (..., 3), for one element each;
    a stack is exponentiated in one batched `eigh`.  Generators whose
    combination is not Hermitian (relative to ||H||) are rejected, since
    they would not give a unitary group element.
    """
    h = np.einsum("...a,aij->...ij", np.asarray(phi, float), np.asarray(gens))
    h_dag = np.conj(np.swapaxes(h, -1, -2))
    skew = np.linalg.norm(h - h_dag, axis=(-2, -1))
    if not np.all(skew <= _tol.HERMITIAN_TOL * np.linalg.norm(h, axis=(-2, -1))):
        raise BadAlgebra("generators are not Hermitian "
                         f"(||H - H^dag|| = {np.max(skew):.3e})")
    w, v = np.linalg.eigh((h + h_dag) / 2)
    return (v * np.exp(1j * w)[..., None, :]) @ np.conj(np.swapaxes(v, -1, -2))


def su2_samples(count: int, seed: int = 0) -> np.ndarray:
    """Seeded parameter triples: random axis, angle uniform in [0, 2pi)."""
    rng = np.random.default_rng(seed)
    axes = rng.normal(size=(count, 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    angles = rng.uniform(0, 2 * np.pi, size=count)
    return axes * angles[:, None]


def check_su2_commutators(gens) -> float:
    """Max norm of [tau_a, tau_b] - i eps_abc tau_c (NaN propagates)."""
    gens = np.asarray(gens)
    comm = gens[:, None] @ gens[None] - gens[None] @ gens[:, None]
    expect = 1j * np.einsum("abc,cij->abij", EPS_ABC, gens)
    return float(np.max(np.linalg.norm(comm - expect, axis=(-2, -1))))


def conjugate_generators(gens) -> np.ndarray:
    """Generators of the entrywise-conjugate representation."""
    return -np.conj(np.asarray(gens))


def product_generators(gens1, gens2) -> np.ndarray:
    """Generators of the tensor product of two representations."""
    gens1 = np.asarray(gens1)
    gens2 = np.asarray(gens2)
    d1, d2 = gens1.shape[1], gens2.shape[1]
    out = np.empty((3, d1 * d2, d1 * d2), dtype=complex)
    for a in range(3):
        out[a] = np.kron(gens1[a], np.eye(d2)) + np.kron(np.eye(d1), gens2[a])
    return out


def coupled_basis(gens):
    """Decompose a (possibly reducible) su(2) action into standard multiplets.

    Given generators `gens` = (Tx, Ty, Tz) of any finite-dimensional su(2)
    representation, returns a list of (J, columns) where `columns` is a
    d x (2J+1) matrix of orthonormal basis vectors ordered M = J..-J, on
    which the ladder operators act with the standard matrix elements.
    Phase convention: the first non-negligible component of each
    highest-weight vector is real and positive.
    """
    gens = np.asarray(gens, dtype=complex)
    d = gens.shape[1]
    tz = gens[2]
    tp = gens[0] + 1j * gens[1]
    casimir = sum(g @ g for g in gens)
    # simultaneous structure: highest-weight vectors = ker(T+) within Tz eigenspaces
    evals, evecs = np.linalg.eigh((tz + tz.conj().T) / 2)
    multiplets = []
    # group Tz eigenvalues
    order = np.argsort(-evals)
    evals = evals[order]
    evecs = evecs[:, order]
    used = 0
    idx = 0
    while idx < d:
        m_val = evals[idx]
        sel = np.abs(evals - m_val) < _tol.WEIGHT_MATCH
        space = evecs[:, sel]
        idx += int(sel.sum())
        # highest-weight vectors in this weight space: kernel of T+ restricted
        img = tp @ space
        u, s, vh = np.linalg.svd(img, full_matrices=True)
        cutoff = _tol.RANK_CUTOFF * max(1.0, float(np.linalg.norm(tp)))
        ker_dim = int(np.sum(s < cutoff)) + space.shape[1] - len(s)
        if ker_dim == 0:
            continue
        kernel = space @ vh.conj().T[:, space.shape[1] - ker_dim:]
        jval = m_val
        if abs(jval - round(2 * jval) / 2) > _tol.WEIGHT_ROUNDING:
            raise BadSpinSet(f"weight {m_val} is not half-integral")
        jval = round(2 * jval) / 2
        dim_j = int(round(2 * jval + 1))
        for c in range(kernel.shape[1]):
            v = kernel[:, c]
            # check Casimir eigenvalue
            cv = casimir @ v
            if np.linalg.norm(cv - jval * (jval + 1) * v) > \
                    _tol.CASIMIR_TOL * max(1.0, np.linalg.norm(v)):
                raise BadSpinSet("highest-weight vector has wrong Casimir value")
            lead = v[_leading_index(v)]
            v = v / (lead / abs(lead))
            v = v / np.linalg.norm(v)
            cols = np.empty((d, dim_j), dtype=complex)
            cols[:, 0] = v
            tm = tp.conj().T
            mm = jval
            for k in range(1, dim_j):
                # T- |J,M> = sqrt(J(J+1) - M(M-1)) |J,M-1>
                factor = np.sqrt(jval * (jval + 1) - mm * (mm - 1))
                cols[:, k] = (tm @ cols[:, k - 1]) / factor
                mm -= 1
            multiplets.append((jval, cols))
            used += dim_j
    if used != d:
        raise BadSpinSet("multiplet dimensions do not exhaust the space")
    multiplets.sort(key=lambda t: t[0])
    return multiplets


def su2_clebsch_gordan(j1, j2):
    """CG table for spin j1 x j2 (standard generators on both factors).

    Returns a dict {J: array of shape (2J+1, d1, d2)} with entries
    <j1,m; j2,n | J,M> under the basis ordering m = j..-j.
    """
    gens = product_generators(su2_generators(j1), su2_generators(j2))
    d1, d2 = spin_dim(j1), spin_dim(j2)
    out = {}
    for jval, cols in coupled_basis(gens):
        out[jval] = cols.T.reshape(-1, d1, d2)
    return out
