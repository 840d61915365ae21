"""Certified tensor families with local gauge symmetry.

Elementary gauge-field blocks, Wigner-Eckart matter blocks, gauging of a
globally symmetric matter tensor, minimal matter-gauge coupling, and two
ready-made examples: the dihedral-group chain whose local symmetry has no
single-site certificate, and the SU(2) chain annihilated by the Gauss law.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    BadSpinSet,
    GroupMismatch,
    MixedCohomology,
    NotARep,
    ZeroByWignerEckart,
)
from .reps import (
    Irrep,
    Rep,
    clebsch_gordan,
    conjugate_rep,
    decompose_rep,
    irreps_equivalent,
    make_rep,
)
from .su2 import (
    conjugate_generators,
    coupled_basis,
    product_generators,
    spin_dim,
    su2_generators,
)
from .symmetry import GaussOperators, sampled_ops
from .tensors import MpsTensor, TensorPair


@dataclass(frozen=True)
class GaugeConstruction:
    """A matter-gauge pair together with the operators certifying it.

    `theta_ops`, `r_ops`, `l_ops` are lists of (label, matrix) pairs over
    the same element ordering; `x_mats`/`y_mats` are the matching virtual
    matrices with Theta(g) A = X^-1 A Y, R(g) B = B X, L(g) B = Y^-1 B.
    """

    pair: TensorPair
    theta_ops: tuple
    r_ops: tuple
    l_ops: tuple
    x_mats: tuple
    y_mats: tuple
    group: object = None

    @property
    def A(self) -> MpsTensor:
        return self.pair.A

    @property
    def B(self) -> MpsTensor:
        return self.pair.B


# ----------------------------------------------------------------------------
# elementary building blocks


def _elementary_entries(dl, dr, value=1.0) -> np.ndarray:
    """Entries of `value` |m><n| on H_l x H_r: entries[m*dr+n, m, n] = value."""
    entries = np.zeros((dl * dr, dl, dr), dtype=complex)
    m, nn = np.divmod(np.arange(dl * dr), dr)
    entries[np.arange(dl * dr), m, nn] = value
    return entries


@dataclass(frozen=True)
class GaugeBBlock:
    """Elementary gauge-field tensor B^{(m,n)} = |m><n| on H_l x H_r.

    When the requested virtual irreps are incompatible with (l, r) the
    transformation relations force B = 0; `zero` is then set and `flag`
    records the mismatch.
    """

    tensor: MpsTensor
    r_rep: Rep       # physical, 1 x D^r
    l_rep: Rep       # physical, D^l x 1
    x_rep: Irrep     # right virtual
    y_rep: Rep       # left virtual (conjugate of D^l when matched)
    zero: bool = False
    flag: str = None


def elementary_b_block(l: Irrep, r: Irrep, x: Irrep = None,
                       y: Rep = None) -> GaugeBBlock:
    """B^{(m,n)} = |m><n| with R = 1 x D^r and L = D^l x 1.

    The identically satisfied virtual relations use X = D^r and
    Y = conj(D^l); passing inequivalent `x` or `y` yields the zero tensor
    with a mismatch flag, since no nonzero tensor can satisfy them.
    """
    if l.group != r.group:
        raise GroupMismatch("l and r must be irreps of the same group")
    group = l.group
    n = group.order
    dl, dr = l.dim, r.dim
    y_default = conjugate_rep(l)
    flag = None
    if x is not None and not irreps_equivalent(x, r):
        flag = f"x irrep {x.label!r} not equivalent to {r.label!r}"
    if y is None:
        y = y_default
    elif isinstance(y, Irrep) and not irreps_equivalent(y, y_default):
        flag = f"y irrep {y.label!r} not equivalent to conj({l.label!r})"
    if x is None:
        x = r
    entries = _elementary_entries(dl, dr, 1.0 if flag is None else 0.0)
    r_mats = np.array([np.kron(np.eye(dl), r.matrices[g]) for g in range(n)])
    l_mats = np.array([np.kron(l.matrices[g], np.eye(dr)) for g in range(n)])
    return GaugeBBlock(
        MpsTensor(entries),
        Rep(group, r_mats, r.multiplier),
        Rep(group, l_mats, l.multiplier),
        x, y, zero=flag is not None, flag=flag,
    )


@dataclass(frozen=True)
class MatterABlock:
    """Covariant matter tensor with Theta = D^{j0}, X = D^j, Y = D^l."""

    tensor: MpsTensor
    theta_rep: Irrep
    x_rep: Irrep
    y_rep: Irrep
    multiplicity: int
    alphas: tuple


def wigner_eckart_a_block(j0: Irrep, j: Irrep, l: Irrep, catalog,
                          alphas=None) -> MatterABlock:
    """Most general A with Theta(g) A = X(g)^-1 A Y(g) for irrep data.

    A^M = sum_q alpha_q sum_{m,n} conj(<jbar m; l n | j0,q,M>) |m><n|,
    the coupling coefficients taken from conj(D^j) x D^l.  Raises when
    j0 does not occur in that product (the tensor would vanish).
    """
    cg = clebsch_gordan(conjugate_rep(j), l, catalog)
    mult = dict(cg.decomposition.blocks).get(j0.label, 0)
    if mult == 0:
        raise ZeroByWignerEckart(j0.label)
    if alphas is None:
        alphas = np.ones(mult, dtype=complex)
    alphas = np.asarray(alphas, dtype=complex)
    if alphas.shape != (mult,):
        raise ZeroByWignerEckart(
            f"{j0.label}: expected {mult} reduced matrix elements")
    entries = np.zeros((j0.dim, j.dim, l.dim), dtype=complex)
    for q in range(mult):
        entries += alphas[q] * np.conj(cg.coeff_block(j0.label, q))
    return MatterABlock(MpsTensor(entries), j0, j, l, mult, tuple(alphas))


# ----------------------------------------------------------------------------
# gauging a global symmetry


def gauge_global_symmetry(a_t: MpsTensor, x_mats, group, catalog,
                          theta_ops=None, betas=None) -> GaugeConstruction:
    """Attach gauge-field tensors to a globally symmetric matter tensor.

    `a_t` must satisfy Theta(g) A = X(g)^-1 A X(g) with X a projective rep
    given by `x_mats`.  The virtual basis is rotated so X becomes a direct
    sum of catalog irreps; B then carries one elementary block per irrep
    copy (weighted by `betas`), with physical reps R = (+) 1 x D^a and
    L = (+) conj(D^a) x 1.  The resulting pair is locally symmetric under
    R x Theta x L windows, and the identity lies in span{B^j}.
    """
    try:
        x_rep = make_rep(group, np.asarray(x_mats, dtype=complex))
    except NotARep as exc:
        raise MixedCohomology(
            f"X is not projective as a whole ({exc}); its blocks carry "
            "inequivalent multipliers") from exc
    dec = decompose_rep(x_rep, catalog)
    u = dec.basis_change
    a_rot = a_t.conjugated_by(u, w_inv=u.conj().T)
    copies = list(dec.block_slices())
    dims = {irr.label: irr.dim for irr in dec.irreps}
    mats = {irr.label: irr.matrices for irr in dec.irreps}
    if betas is None:
        betas = np.ones(len(copies), dtype=complex)
    betas = np.asarray(betas, dtype=complex)
    d_total = a_t.left_dim
    d_phys = sum(dims[lab] ** 2 for (lab, _, _) in copies)
    entries = np.zeros((d_phys, d_total, d_total), dtype=complex)
    n = group.order
    r_phys = np.zeros((n, d_phys, d_phys), dtype=complex)
    l_phys = np.zeros((n, d_phys, d_phys), dtype=complex)
    x_block = np.zeros((n, d_total, d_total), dtype=complex)
    off = 0
    for k, (lab, _q, sl) in enumerate(copies):
        dk = dims[lab]
        entries[off:off + dk * dk, sl, sl] = _elementary_entries(dk, dk, betas[k])
        for g in range(n):
            r_phys[g, off:off + dk * dk, off:off + dk * dk] = \
                np.kron(np.eye(dk), mats[lab][g])
            l_phys[g, off:off + dk * dk, off:off + dk * dk] = \
                np.kron(np.conj(mats[lab][g]), np.eye(dk))
            x_block[g, sl, sl] = mats[lab][g]
        off += dk * dk
    b_t = MpsTensor(entries)
    labels = [group.name(g) for g in range(n)]
    r_ops = tuple(zip(labels, r_phys))
    l_ops = tuple(zip(labels, l_phys))
    if theta_ops is None:
        theta_ops = tuple((labels[g], np.eye(a_t.phys_dim, dtype=complex))
                          for g in range(n))
    return GaugeConstruction(
        TensorPair(a_rot, b_t),
        tuple(theta_ops), r_ops, l_ops,
        tuple(x_block), tuple(x_block), group,
    )


@dataclass(frozen=True)
class CoupledMatter:
    """Matter tensor coupled to a gauge field via one spin choice per block."""

    tensor: MpsTensor
    theta_rep: Rep
    choices: tuple       # ((x irrep label, chosen physical irrep label), ...)
    basis: np.ndarray    # unitary making X block diagonal


def couple_matter_to_gauge(x_mats, group, catalog, choices=None,
                           alphas=None) -> CoupledMatter:
    """Minimal matter content compatible with a gauge field's virtual rep X.

    X is split into irrep blocks D^{j_k}; block (k, k) of A is the
    Wigner-Eckart tensor for one physical irrep J(k) occurring in
    conj(j_k) x j_k (lowest dimension by default, first catalog match on
    ties), and Theta = (+)_k D^{J(k)}.  A is returned in the original
    virtual basis, so Theta(g) A = X(g)^-1 A X(g) with the given X.
    """
    x_rep = make_rep(group, np.asarray(x_mats, dtype=complex))
    dec = decompose_rep(x_rep, catalog)
    u = dec.basis_change
    copies = list(dec.block_slices())
    by_label = {irr.label: irr for irr in catalog}
    blocks = []
    chosen = []
    for k, (lab, _q, sl) in enumerate(copies):
        jk = by_label[lab]
        cg = clebsch_gordan(conjugate_rep(jk), jk, catalog)
        present = [by_label[lb] for lb, _m in cg.decomposition.blocks]
        if choices is not None and choices[k] is not None:
            j0 = by_label[choices[k]]
            if j0.label not in [p.label for p in present]:
                raise ZeroByWignerEckart(j0.label)
        else:
            j0 = min(present, key=lambda irr: irr.dim)
        a_block = wigner_eckart_a_block(
            j0, jk, jk, catalog,
            alphas=None if alphas is None else alphas[k])
        blocks.append((a_block, sl))
        chosen.append((lab, j0.label))
    d = x_rep.dim
    d_phys = sum(blk.tensor.phys_dim for blk, _ in blocks)
    entries = np.zeros((d_phys, d, d), dtype=complex)
    n = group.order
    theta = np.zeros((n, d_phys, d_phys), dtype=complex)
    off = 0
    for blk, sl in blocks:
        dj = blk.tensor.phys_dim
        entries[off:off + dj, sl, sl] = blk.tensor.entries
        theta[:, off:off + dj, off:off + dj] = blk.theta_rep.matrices
        off += dj
    a_rot = MpsTensor(entries)
    a_orig = a_rot.conjugated_by(u.conj().T, w_inv=u)
    theta_rep = Rep(group, theta, copies and blocks[0][0].theta_rep.multiplier
                    or x_rep.multiplier)
    return CoupledMatter(a_orig, theta_rep, tuple(chosen), u)


# ----------------------------------------------------------------------------
# worked example: dihedral group of order 10


def build_d10_example() -> GaugeConstruction:
    """Matter-gauge chain over the order-10 dihedral group.

    The pair is locally symmetric under R x Theta x L windows for every
    chain length, yet the matter tensor alone admits no single-site
    certificate (Theta acts nontrivially on its physical support) and the
    gauge tensor alone is not symmetric under R/L on adjacent sites.
    """
    from .reps import builtin_catalog

    group, irreps = builtin_catalog("d10")
    by_label = {irr.label: irr for irr in irreps}
    rho1, rho2 = by_label["rho1"], by_label["rho2"]
    a_t = MpsTensor(np.array([
        [[1, 0], [0, 0]],
        [[0, 0], [0, 1]],
    ], dtype=complex))
    blk = elementary_b_block(conjugate_rep(rho2), rho1)
    n = group.order
    labels = [group.name(g) for g in range(n)]
    return GaugeConstruction(
        TensorPair(a_t, blk.tensor),
        tuple(zip(labels, rho1.matrices)),
        tuple(zip(labels, blk.r_rep.matrices)),
        tuple(zip(labels, blk.l_rep.matrices)),
        tuple(rho1.matrices),
        tuple(rho2.matrices),
        group,
    )


# ----------------------------------------------------------------------------
# worked example: SU(2) Gauss law


@dataclass(frozen=True)
class Su2Construction:
    """SU(2) matter-gauge chain annihilated by the Gauss-law generators."""

    pair: TensorPair
    gauss: GaussOperators
    x_gens: np.ndarray   # right virtual, tau^r
    y_gens: np.ndarray   # left virtual, tau^l
    r_spin: float
    l_spin: float
    j_set: tuple
    alphas: tuple

    def generators(self, name):
        """The su(2) generators of the op list `name`: theta, r, l
        (physical) or x, y (virtual)."""
        return {"theta": self.gauss.q_gens, "r": self.gauss.r_gens,
                "l": self.gauss.l_gens, "x": self.x_gens, "y": self.y_gens}[name]

    def sampled_ops(self, samples):
        """(r_ops, theta_ops, l_ops, x_mats, y_mats) at parameter triples."""
        r_ops, th_ops, l_ops, x_ops, y_ops = (
            sampled_ops(self.generators(name), samples)
            for name in ("r", "theta", "l", "x", "y"))
        return r_ops, th_ops, l_ops, [m for _, m in x_ops], [m for _, m in y_ops]


def build_su2_example(r=0.5, l=0.5, j_set=(0.0, 1.0),
                      alphas=None) -> Su2Construction:
    """Alternating SU(2) chain: B^{(m,n)} = |m><n| on H_l x H_r and
    A^{J,M} built from the coupling coefficients of conj(r) x l.

    The Gauss generators G_a = R_a + Q_a + L_a around each matter site
    (Q_a = (+)_J tau^J_a, R_a = 1 x tau^r_a, L_a = -conj(tau^l_a) x 1)
    annihilate the state for every chain length.  `j_set` must be a subset
    of the spins occurring in conj(r) x l, i.e. |r-l| .. r+l.
    """
    dr, dl = spin_dim(r), spin_dim(l)
    gens_r = su2_generators(r)
    gens_l = su2_generators(l)
    multiplets = coupled_basis(product_generators(conjugate_generators(gens_r),
                                                  gens_l))
    available = {jv: cols for jv, cols in multiplets}
    j_set = tuple(sorted(float(j) for j in j_set))
    missing = [j for j in j_set if j not in available]
    if missing or not j_set:
        raise BadSpinSet(
            f"spins {missing or j_set} not in the coupling of "
            f"conj({r}) x {l} (available: {sorted(available)})")
    if alphas is None:
        alphas = np.ones(len(j_set), dtype=complex)
    alphas = np.asarray(alphas, dtype=complex)
    d_phys_a = sum(spin_dim(j) for j in j_set)
    a_entries = np.zeros((d_phys_a, dr, dl), dtype=complex)
    q_gens = np.zeros((3, d_phys_a, d_phys_a), dtype=complex)
    off = 0
    for jv, alpha in zip(j_set, alphas):
        cols = available[jv]          # (dr*dl, 2J+1), columns M = J..-J
        dj = spin_dim(jv)
        coeffs = cols.T.reshape(dj, dr, dl)   # <J,M | rbar m; l n>
        a_entries[off:off + dj] = alpha * np.conj(coeffs)
        q_gens[:, off:off + dj, off:off + dj] = su2_generators(jv)
        off += dj
    b_entries = _elementary_entries(dl, dr)
    r_gens = np.array([np.kron(np.eye(dl), gens_r[a]) for a in range(3)])
    l_gens = np.array([np.kron(-np.conj(gens_l[a]), np.eye(dr)) for a in range(3)])
    pair = TensorPair(MpsTensor(a_entries), MpsTensor(b_entries))
    gauss = GaussOperators(r_gens, q_gens, l_gens)
    gauss.validate()
    return Su2Construction(pair, gauss, gens_r, gens_l, float(r), float(l),
                           j_set, tuple(alphas))
