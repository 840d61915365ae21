"""Projective unitary representations of finite groups.

Multipliers, validation, conjugation and tensor products, irrep
decomposition (characters count the copies, twirl projectors embed them),
Clebsch-Gordan tables, and the built-in irrep catalogs (Z_n, dihedral, S3,
Q8).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import _tol
from .errors import (
    BadMultiplier,
    GroupMismatch,
    IncompleteCatalog,
    MultiplierMismatch,
    NonUnitary,
    NotARep,
)
from .groups import (
    FiniteGroup,
    cyclic_group,
    dihedral_group,
    quaternion_group,
    symmetric_group_s3,
)
from .tensors import _conj_kron_sum, _leading_index


@dataclass(frozen=True)
class Multiplier:
    """A 2-cocycle gamma(g,h) of unit-modulus phases."""

    group: FiniteGroup
    values: np.ndarray  # (n, n) complex

    def validate(self, tol=_tol.REP_TOL):
        # written as `not x <= tol` so that NaN values fail
        g = self.group
        v = self.values
        n = g.order
        if not np.abs(np.abs(v) - 1).max() <= tol:
            raise BadMultiplier("multiplier values must have unit modulus")
        e = g.identity
        if not (np.abs(v[e, :] - 1).max() <= tol and np.abs(v[:, e] - 1).max() <= tol):
            raise BadMultiplier("multiplier not normalized at the identity")
        t = g.mult_table
        # gamma(g,h) gamma(gh,f) == gamma(g,hf) gamma(h,f)
        lhs = v[:, :, None] * v[t[:, :, None], np.arange(n)[None, None, :]]
        rhs = v[np.arange(n)[:, None, None], t[None, :, :]] * v[None, :, :]
        if not np.abs(lhs - rhs).max() <= tol:
            raise BadMultiplier("cocycle condition violated")
        return self

    def is_trivial(self) -> bool:
        return np.abs(self.values - 1).max() <= _tol.REP_TOL

    def inverse(self) -> "Multiplier":
        return Multiplier(self.group, np.conj(self.values))

    def product(self, other: "Multiplier") -> "Multiplier":
        if other.group != self.group:
            raise GroupMismatch("multipliers over different groups")
        return Multiplier(self.group, self.values * other.values)

    def close_to(self, other: "Multiplier") -> bool:
        return (other.group == self.group
                and np.abs(self.values - other.values).max() <= _tol.MULTIPLIER_TOL)


def trivial_multiplier(group: FiniteGroup) -> Multiplier:
    n = group.order
    return Multiplier(group, np.ones((n, n), dtype=complex))


@dataclass(frozen=True)
class Rep:
    """A (possibly reducible) projective unitary representation."""

    group: FiniteGroup
    matrices: np.ndarray  # (order, dim, dim) complex
    multiplier: Multiplier

    @property
    def dim(self) -> int:
        return self.matrices.shape[1]

    def matrix(self, g: int) -> np.ndarray:
        return self.matrices[g]

    def character(self) -> np.ndarray:
        return np.einsum("gii->g", self.matrices)


@dataclass(frozen=True)
class Irrep(Rep):
    label: str = ""


def check_projective_rep(matrices, group: FiniteGroup, tol=_tol.REP_TOL) -> Multiplier:
    """Extract and validate the multiplier of a candidate projective rep.

    gamma(g,h) is read off from Tr(U(gh)^dag U(g)U(h)) / dim and the
    residual ||U(g)U(h) - gamma U(gh)|| is required to vanish.  Every
    comparison is written as `not x <= tol`, so NaN matrices are rejected.
    """
    mats = np.asarray(matrices, dtype=complex)
    n = group.order
    if mats.shape[0] != n or mats.shape[1] != mats.shape[2]:
        raise NotARep("expected one square matrix per group element")
    d = mats.shape[1]
    adj = mats.conj().transpose(0, 2, 1)
    bad = _first_failure(np.linalg.norm(adj @ mats - np.eye(d), axis=(1, 2)), tol * d)
    if bad is not None:
        raise NonUnitary(f"matrix for element {group.name(bad)} is not unitary")
    gamma = np.empty((n, n), dtype=complex)
    for g, prods, phases in _multiplier_phases(mats, group, adj):
        mod = np.abs(phases)
        unit_mod = np.abs(mod - 1) <= _tol.PHASE_MODULUS_TOL
        gamma[g] = phases / np.where(unit_mod, mod, 1.0)
        resid = np.linalg.norm(prods - gamma[g, :, None, None] * mats[group.mult_table[g]],
                               axis=(1, 2))
        h = _first_failure(np.where(unit_mod, resid, np.inf), tol * d)
        if h is not None:
            raise NotARep(
                f"U({group.name(g)})U({group.name(h)}) not proportional to "
                f"U({group.name(group.multiply(g, h))})"
            )
    return Multiplier(group, gamma).validate(tol=_tol.MULTIPLIER_TOL)


def _first_failure(values, tol):
    """Index of the first of `values` that is not <= tol (NaN included), or None."""
    bad = np.flatnonzero(~(values <= tol))
    return int(bad[0]) if bad.size else None


def _multiplier_phases(mats, group: FiniteGroup, invs):
    """Yield (g, U(g)U(h), Tr(U(gh)^-1 U(g)U(h)) / dim) for each g, the last
    two stacked over h; `invs` stacks the inverse of every U(g)."""
    d = mats.shape[1]
    for g in range(group.order):
        prods = mats[g] @ mats
        yield g, prods, np.trace(invs[group.mult_table[g]] @ prods, axis1=1, axis2=2) / d


def make_rep(group: FiniteGroup, matrices) -> Rep:
    mats = np.asarray(matrices, dtype=complex)
    return Rep(group, mats, check_projective_rep(mats, group))


def make_irrep(group: FiniteGroup, matrices, label: str) -> Irrep:
    mats = np.asarray(matrices, dtype=complex)
    return Irrep(group, mats, check_projective_rep(mats, group), label)


def conjugate_rep(rep: Rep) -> Rep:
    """Entrywise complex conjugate; multiplier becomes its inverse."""
    parts = (rep.group, np.conj(rep.matrices), rep.multiplier.inverse())
    return Irrep(*parts, f"conj({rep.label})") if isinstance(rep, Irrep) else Rep(*parts)


def tensor_product_rep(rep1: Rep, rep2: Rep) -> Rep:
    if rep1.group != rep2.group:
        raise GroupMismatch("representations over different groups")
    mats = np.einsum("gij,gkl->gikjl", rep1.matrices, rep2.matrices)
    d = rep1.dim * rep2.dim
    mats = mats.reshape(rep1.group.order, d, d)
    return Rep(rep1.group, mats, rep1.multiplier.product(rep2.multiplier))


def intertwiner_space(rep1: Rep, rep2: Rep, tol=_tol.INTERTWINER_TOL):
    """Orthonormal basis of {T : rep2(g) T = T rep1(g) for all g}.

    Computed as the eigenvalue-1 space of the twirl projector
    T -> (1/|G|) sum_g rep2(g) T rep1(g)^dag, which is well defined exactly
    when the multipliers agree.
    """
    if rep1.group != rep2.group:
        raise GroupMismatch("representations over different groups")
    if not rep1.multiplier.close_to(rep2.multiplier):
        raise MultiplierMismatch("intertwiners require equal multipliers")
    # row-major vec: vec(U T W^dag) = kron(U, conj(W)) vec(T)
    twirl = _conj_kron_sum(rep2.matrices, rep1.matrices)
    twirl /= rep1.group.order
    # the twirl is a Hermitian projector; its eigenvalue-1 space is the answer
    evals, evecs = np.linalg.eigh(twirl)
    keep = np.nonzero(np.abs(evals - 1) < tol)[0]
    return [evecs[:, k].reshape(rep2.dim, rep1.dim) for k in keep]


def irreps_equivalent(a: Irrep, b: Irrep) -> bool:
    """True iff `a` and `b` are equivalent irreps of one group: same
    dimension, agreeing multipliers and one intertwiner, which the
    characters count."""
    if a.group != b.group or a.dim != b.dim:
        return False
    if not a.multiplier.close_to(b.multiplier):
        return False
    return _copies(a, b.character()) == 1


def _copies(irr: Irrep, chi) -> int:
    """Copies of `irr` in a rep with character `chi` and the same multiplier:
    <chi_irr, chi> / |G| by Schur orthogonality, rounded; 0 when NaN."""
    m = np.vdot(irr.character(), chi).real / irr.group.order
    return round(m) if m >= 0.5 else 0


@dataclass(frozen=True)
class RepDecomposition:
    blocks: tuple          # ((label, multiplicity), ...) in catalog order
    basis_change: np.ndarray  # unitary, columns grouped (irrep, copy, row)
    irreps: tuple          # the catalog Irrep object per block

    def block_slices(self):
        """Yield (label, copy, slice) for each irrep copy in column order."""
        col = 0
        for (label, mult), irr in zip(self.blocks, self.irreps):
            for q in range(mult):
                yield label, q, slice(col, col + irr.dim)
                col += irr.dim


def decompose_rep(rep: Rep, catalog, tol=_tol.INTERTWINER_TOL) -> RepDecomposition:
    """Decompose `rep` into catalog irreps with a unitary basis change.

    The characters give each catalog irrep's multiplicity m.  Only irreps
    with m > 0 are twirled: the intertwiner space {T : rep(g) T = T D^j(g)}
    must have dimension m (IncompleteCatalog otherwise), and its elements,
    once orthonormalized in the Schur inner product, provide the isometries
    embedding each copy.
    """
    blocks = []
    irreps = []
    columns = []
    chi = rep.character()
    for irr in catalog:
        if irr.group != rep.group:
            raise GroupMismatch("catalog irrep over a different group")
        if not irr.multiplier.close_to(rep.multiplier):
            continue
        m = _copies(irr, chi)
        if m == 0:
            continue
        maps = intertwiner_space(irr, rep, tol=tol)
        if len(maps) != m:
            raise IncompleteCatalog(
                f"the twirl finds {len(maps)} copies of {irr.label}, "
                f"the characters {m}")
        # Schur inner product <T,S> = Tr(T^dag S)/dim is positive definite here;
        # orthonormalize so that each isometry satisfies T^dag T = identity.
        gram = np.array([[np.trace(a.conj().T @ b) / irr.dim for b in maps]
                         for a in maps])
        w = np.linalg.inv(np.linalg.cholesky(gram)).conj().T
        maps = [sum(w[a, b] * maps[a] for a in range(m)) for b in range(m)]
        maps.sort(key=_leading_index)  # by the first row supporting each copy
        blocks.append((irr.label, m))
        irreps.append(irr)
        # fix the free phase of each copy: first non-negligible entry real positive
        for t in maps:
            lead = t.reshape(-1)[_leading_index(t)]
            columns.append(t / (lead / abs(lead)))
    total = sum(t.shape[1] for t in columns)
    if total != rep.dim:
        raise IncompleteCatalog(
            f"catalog accounts for dimension {total} of {rep.dim}"
        )
    dec = RepDecomposition(tuple(blocks), np.hstack(columns), tuple(irreps))
    _check_decomposition(rep, dec)
    return dec


def _check_decomposition(rep: Rep, dec: RepDecomposition):
    u = dec.basis_change
    d = rep.dim
    if not np.linalg.norm(u.conj().T @ u - np.eye(d)) <= _tol.BASIS_UNITARITY_TOL * d:
        raise IncompleteCatalog("decomposition basis change is not unitary")
    copies = [irr for (_, m), irr in zip(dec.blocks, dec.irreps) for _ in range(m)]
    expect = np.zeros_like(rep.matrices)
    for (_, _, sl), irr in zip(dec.block_slices(), copies):
        expect[:, sl, sl] = irr.matrices
    resid = np.linalg.norm(u.conj().T @ rep.matrices @ u - expect, axis=(1, 2))
    g = _first_failure(resid, _tol.BLOCK_RESIDUAL_TOL * d)
    if g is not None:
        raise IncompleteCatalog(
            f"off-block residual too large at element {rep.group.name(g)}"
        )


@dataclass(frozen=True)
class CGTable:
    """Clebsch-Gordan change of basis for a product of two irreps.

    `basis_change` is the unitary U with U^dag (D^j x D^l)(g) U block
    diagonal; its column (J, copy, M) holds the coefficients
    <j,m; l,n | J,copy,M> at row m*dim(l)+n.
    """

    left: Irrep
    right: Irrep
    decomposition: RepDecomposition

    @property
    def basis_change(self) -> np.ndarray:
        return self.decomposition.basis_change

    def coeff_block(self, label: str, copy: int = 0) -> np.ndarray:
        """Coefficients as an array (M, m, n) for one (J, copy) block."""
        for lab, q, sl in self.decomposition.block_slices():
            if lab == label and q == copy:
                blk = self.basis_change[:, sl]
                return blk.T.reshape(-1, self.left.dim, self.right.dim)
        raise KeyError((label, copy))

    def labels(self):
        return [lab for lab, _ in self.decomposition.blocks]


def clebsch_gordan(j: Irrep, l: Irrep, catalog) -> CGTable:
    """CG table for j x l against a catalog covering multiplier class gamma*gamma'."""
    prod = tensor_product_rep(j, l)
    dec = decompose_rep(prod, catalog)
    return CGTable(j, l, dec)


# ----------------------------------------------------------------------------
# built-in catalogs


def _phase(x):
    return np.exp(2j * np.pi * x)


def cyclic_catalog(n: int):
    """All irreps of Z_n (one-dimensional characters)."""
    group = cyclic_group(n)
    irreps = []
    for k in range(n):
        mats = _phase(k * np.arange(n) / n).reshape(n, 1, 1)
        irreps.append(make_irrep(group, mats, f"chi{k}"))
    return group, irreps


def dihedral_catalog(n: int):
    """All irreps of the dihedral group of order 2n."""
    group = dihedral_group(n)
    ab = [(a, b) for b in range(2) for a in range(n)]
    irreps = []

    def one_dim(eps, delta, label):
        mats = np.array([[[complex(eps) ** a * complex(delta) ** b]] for a, b in ab])
        irreps.append(make_irrep(group, mats, label))

    one_dim(1, 1, "triv")
    one_dim(1, -1, "sign")
    if n % 2 == 0:
        one_dim(-1, 1, "rot-sign")
        one_dim(-1, -1, "rot-ref-sign")
    s = np.array([[0, 1], [1, 0]], dtype=complex)
    kmax = (n - 1) // 2 if n % 2 else n // 2 - 1
    for k in range(1, kmax + 1):
        r = np.diag([_phase(k / n), _phase(-k / n)])
        mats = np.array([np.linalg.matrix_power(r, a) @ (s if b else np.eye(2)) for a, b in ab])
        irreps.append(make_irrep(group, mats, f"rho{k}"))
    return group, irreps


def s3_catalog():
    group = symmetric_group_s3()
    _, irreps = dihedral_catalog(3)
    # rebuild over the S3-labelled group object (same table)
    irreps = [Irrep(group, irr.matrices, trivial_multiplier(group), irr.label)
              for irr in irreps]
    return group, irreps


def quaternion_catalog():
    """Q8: four one-dimensional irreps plus the two-dimensional one."""
    group = quaternion_group()
    names = group.element_names
    irreps = []
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    two = {"1": np.eye(2, dtype=complex), "i": 1j * sz, "j": 1j * sy, "k": 1j * sx}
    for epsi, epsj, label in [(1, 1, "triv"), (1, -1, "chi-j"), (-1, 1, "chi-i"),
                              (-1, -1, "chi-k")]:
        mats = []
        for nm in names:
            axis = nm.lstrip("-")
            val = {"1": 1, "i": epsi, "j": epsj, "k": epsi * epsj}[axis]
            mats.append([[complex(val)]])
        irreps.append(make_irrep(group, np.array(mats), label))
    mats2 = []
    for nm in names:
        sign = -1 if nm.startswith("-") else 1
        mats2.append(sign * two[nm.lstrip("-")])
    irreps.append(make_irrep(group, np.array(mats2), "spin"))
    return group, irreps


@lru_cache(maxsize=None)
def builtin_catalog(name: str):
    """Return (group, irreps) for a built-in catalog name.

    Names: 'z1'..'z12' (cyclic), 'd4'..'d12' even (dihedral by order),
    's3', 'q8'.
    """
    name = name.lower()
    if name.startswith("z"):
        n = int(name[1:])
        if not 1 <= n <= 12:
            raise KeyError(name)
        return cyclic_catalog(n)
    if name.startswith("d"):
        order = int(name[1:])
        if order % 2 or not 4 <= order <= 12:
            raise KeyError(name)
        return dihedral_catalog(order // 2)
    if name == "s3":
        return s3_catalog()
    if name == "q8":
        return quaternion_catalog()
    raise KeyError(name)
