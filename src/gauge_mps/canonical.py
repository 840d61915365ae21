"""Canonical form of MPV tensors and gauge relations between them.

The decomposition follows the invariant-subspace route: the algebra
generated by the Kraus matrices is computed explicitly; eigenvectors of a
random algebra element seed orbits that expose proper invariant subspaces,
which split the tensor block-upper-triangularly.  Periodicity (several
transfer eigenvalues on the unit circle) is removed by blocking.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _tol
from .errors import GaugeNotFound, NotEquivalent, NumericalDegeneracy
from .tensors import (
    MpsTensor,
    TensorPair,
    _orth_basis,
    _rank,
    block,
    contract_mpv,
    contract_pair_mpv,
    fixed_point,
    is_normal,
    lcm,
    spectral_radius,
    transfer_matrix,
    unit_eigenvalue_count,
)

MAX_BLOCK_ROUNDS = 6
SUBSPACE_ATTEMPTS = 12  # random algebra elements tried before giving up


def algebra_basis(mats):
    """Orthonormal basis (rows) of the unital algebra generated by `mats`."""
    D = mats[0].shape[0]
    vecs = [np.eye(D, dtype=complex).reshape(-1)]
    vecs += [np.asarray(m, dtype=complex).reshape(-1) for m in mats]
    basis = _orth_basis(vecs, _tol.ALGEBRA_RANK_CUTOFF)
    while True:
        if basis.shape[0] == D * D:
            return basis
        nxt = list(basis)
        for v in basis:
            m = v.reshape(D, D)
            for a in mats:
                nxt.append((m @ a).reshape(-1))
        grown = _orth_basis(nxt, _tol.ALGEBRA_RANK_CUTOFF)
        if grown.shape[0] == basis.shape[0]:
            return grown
        basis = grown


def find_invariant_subspace(mats, rng):
    """Orthonormal columns spanning a proper common invariant subspace.

    Returns None when the matrices act irreducibly (generated algebra is
    full).  Strategy: any minimal invariant subspace contains an eigenvector
    of every algebra element, so orbits of eigenvectors of a random algebra
    element are tried until a proper one with a clean block structure shows
    up.
    """
    mats = [np.asarray(m, dtype=complex) for m in mats]
    D = mats[0].shape[0]
    alg = algebra_basis(mats)
    if alg.shape[0] == D * D:
        return None
    scale = max(np.linalg.norm(m) for m in mats)
    if scale < _tol.ZERO_FLOOR:
        # zero tensor: every subspace is invariant
        basis = np.zeros((D, 1), dtype=complex)
        basis[0, 0] = 1.0
        return basis
    # cheap exact cases first: the joint column range and the joint kernel
    # are invariant; use them whenever they are proper.
    cols = _orth_basis([c for m in mats for c in m.T])
    if 0 < cols.shape[0] < D:
        return cols.T.copy()
    stacked = np.vstack(mats)
    _, s, vh = np.linalg.svd(stacked)
    rank = _rank(s)
    if 0 < D - rank:
        return vh[rank:].conj().T

    best = None
    for _ in range(SUBSPACE_ATTEMPTS):
        coeff = rng.normal(size=alg.shape[0]) + 1j * rng.normal(size=alg.shape[0])
        m = (coeff @ alg).reshape(D, D)
        _, evecs = np.linalg.eig(m)
        for k in range(D):
            v = evecs[:, k]
            orbit = _orth_basis([(e.reshape(D, D) @ v) for e in alg],
                                _tol.ORBIT_RANK_CUTOFF)
            r = orbit.shape[0]
            if r == 0 or r >= D:
                continue
            p = orbit.T.copy()  # columns, D x r
            # invariance residual of the candidate
            res = max(
                np.linalg.norm(a @ p - p @ (p.conj().T @ a @ p)) for a in mats
            )
            if res <= _tol.INVARIANCE_TOL * scale and \
                    (best is None or r < best.shape[1]):
                best = p
        if best is not None:
            return best
    raise NumericalDegeneracy(
        "algebra is proper but no clean invariant subspace was found",
        gap=float(D * D - alg.shape[0]),
    )


def _split_leaves(t: MpsTensor, rng):
    """Recursively split into irreducible leaf tensors; drops zero leaves."""
    leaves = []

    def recurse(mats):
        D = mats[0].shape[0]
        if D == 0:
            return
        if max(np.linalg.norm(m) for m in mats) < _tol.ZERO_FLOOR:
            return
        p = find_invariant_subspace(mats, rng)
        if p is None:
            leaf = MpsTensor(np.array(mats))
            if spectral_radius(leaf) > _tol.ZERO_FLOOR:
                leaves.append(leaf)
            return
        q = _orth_complement(p)
        recurse([p.conj().T @ a @ p for a in mats])
        if q.shape[1]:
            recurse([q.conj().T @ a @ q for a in mats])

    recurse([np.asarray(m) for m in t.matrices()])
    return leaves


def _orth_complement(p):
    D = p.shape[0]
    u, s, _ = np.linalg.svd(np.hstack([p, np.eye(D, dtype=complex)]))
    return u[:, p.shape[1]:D]


def cfii_fix(t: MpsTensor):
    """Gauge a normal, radius-1 tensor into trace-preserving form with a
    positive diagonal fixed point.

    Returns (fixed tensor, M, lam) with fixed = M t M^-1 and lam the
    diagonal fixed point (normalized to unit trace, descending entries).
    """
    y = fixed_point(t, left=True)
    wy, vy = np.linalg.eigh(y)
    y_half = vy @ np.diag(np.sqrt(wy.clip(min=0))) @ vy.conj().T
    y_half_inv = vy @ np.diag(1 / np.sqrt(wy.clip(min=_tol.DIVISION_FLOOR))) \
        @ vy.conj().T
    a1 = MpsTensor(np.einsum("ab,ibc,cd->iad", y_half, t.entries, y_half_inv))
    rho = fixed_point(a1, left=False)
    w, u = np.linalg.eigh(rho)
    order = np.argsort(-w)
    w = w[order]
    u = u[:, order]
    a2 = MpsTensor(np.einsum("ab,ibc,cd->iad", u.conj().T, a1.entries, u))
    m = u.conj().T @ y_half
    lam = np.diag(w / w.sum())
    return a2, m, lam


def gauge_between_normal(t1: MpsTensor, t2: MpsTensor):
    """Find (s, phase) with t1 = phase * s t2 s^-1, for normal radius-1
    tensors, via the leading eigenvector of the mixed transfer map."""
    if t1.left_dim != t2.left_dim or t1.phys_dim != t2.phys_dim:
        raise GaugeNotFound("dimension mismatch")
    mix = transfer_matrix(t1, t2)
    evals, evecs = np.linalg.eig(mix)
    k = int(np.argmax(np.abs(evals)))
    lam = evals[k]
    if abs(abs(lam) - 1) > _tol.GAUGE_TOL:
        raise GaugeNotFound(f"mixed transfer radius {abs(lam):.6f} != 1")
    if np.sum(np.abs(evals) > abs(lam) * (1 - _tol.UNIT_CIRCLE_MARGIN)) != 1:
        raise GaugeNotFound("mixed transfer leading eigenvalue degenerate")
    phase = lam / abs(lam)
    D = t1.left_dim
    v = evecs[:, k].reshape(D, D)
    rho2 = fixed_point(t2, left=False)
    s = v @ np.linalg.inv(rho2)
    s *= np.sqrt(D) / np.linalg.norm(s)
    flat = s.reshape(-1)
    piv = flat[np.argmax(np.abs(flat))]
    s = s / (piv / abs(piv))
    s_inv = np.linalg.inv(s)
    resid = max(
        np.linalg.norm(t1.entries[i] - phase * s @ t2.entries[i] @ s_inv)
        for i in range(t1.phys_dim)
    ) / max(_tol.DIVISION_FLOOR, np.linalg.norm(t1.entries))
    if resid > _tol.GAUGE_TOL:
        raise GaugeNotFound(f"conjugation residual {resid:.3e}")
    return s, phase


@dataclass(frozen=True)
class CFBlock:
    tensor: MpsTensor               # normal representative, radius 1, CFII gauge
    copies: tuple                   # ((mu, V), ...): leaf = mu * V^-1 tensor V
    fixed_point: np.ndarray         # positive diagonal, unit trace


@dataclass(frozen=True)
class CanonicalFormResult:
    blocks: tuple                   # CFBlock per basis-of-normal-tensors element
    blocking_factor: int
    input_tensor: MpsTensor

    def reassembled_coeffs(self, n: int):
        """Sum over blocks of mu^N times the block coefficients."""
        d = self.blocks[0].tensor.phys_dim if self.blocks else self.input_tensor.phys_dim
        total = None
        for blk in self.blocks:
            c = contract_mpv(blk.tensor, n)
            for (mu, _) in blk.copies:
                term = (mu ** n) * c
                total = term if total is None else total + term
        if total is None:
            total = np.zeros((d,) * n, dtype=complex)
        return total


def canonical_form(t: MpsTensor, seed: int = 0) -> CanonicalFormResult:
    """Decompose into weighted, similarity-conjugated normal blocks.

    Periodic tensors are blocked (factor = lcm of the component periods,
    iterated) before the final decomposition; the result describes the
    blocked tensor.  Reassembly is verified against the input for N up to
    6, fewer (down to 2) while d^N D^2 exceeds 2^22.
    """
    if not t.is_square:
        raise NumericalDegeneracy("canonical form needs a square tensor")
    rng = np.random.default_rng(seed)
    b = 1
    current = t
    for _ in range(MAX_BLOCK_ROUNDS):
        leaves = _split_leaves(current, rng)
        periods = []
        for leaf in leaves:
            rho = spectral_radius(leaf)
            periods.append(unit_eigenvalue_count(leaf.scaled(1 / np.sqrt(rho))))
        p = lcm(periods) if periods else 1
        if p == 1:
            break
        b *= p
        current = block(t, b)
    else:
        raise NumericalDegeneracy("periodicity removal did not terminate")

    blocks = []  # mutable: [rep tensor, [(mu, V)...], lam]
    for leaf in leaves:
        rho = spectral_radius(leaf)
        scaled = leaf.scaled(1 / np.sqrt(rho))
        placed = False
        for entry in blocks:
            rep = entry[0]
            try:
                s, phase = gauge_between_normal(scaled, rep)
            except GaugeNotFound:
                continue
            # leaf = sqrt(rho)*phase * S rep S^-1  =>  V = S^-1
            entry[1].append((np.sqrt(rho) * phase, np.linalg.inv(s)))
            placed = True
            break
        if not placed:
            rep, m, lam = cfii_fix(scaled)
            ok, _ = is_normal(rep)
            if not ok:
                raise NumericalDegeneracy("leaf failed the normality check")
            blocks.append([rep, [(np.sqrt(rho) + 0j, m)], lam])

    result = CanonicalFormResult(
        tuple(CFBlock(rep, tuple(copies), lam) for rep, copies, lam in blocks),
        b,
        t,
    )
    n_check = 6
    while current.phys_dim ** n_check * current.left_dim ** 2 > 2 ** 22 and n_check > 2:
        n_check -= 1
    bad = _coefficient_mismatch(
        lambda n: (contract_mpv(current, n), result.reassembled_coeffs(n)), n_check,
        np.linalg.norm(current.entries))
    if bad:
        raise NumericalDegeneracy(f"reassembled coefficients mismatch at N={bad[0]}",
                                  gap=bad[1])
    return result


def _coefficient_mismatch(coeffs, n_max, norm, symmetric=False):
    """(N, relative gap) at the first N in 1..n_max where coeffs(N) = (want,
    got) has ||got - want|| > MATCH_TOL * max(||want||, COEFF_FLOOR norm^N),
    or None; `norm` is the Frobenius norm of the tensor whose products the
    coefficients trace, so the floor sits above their round-off even where
    psi_N vanishes.  `symmetric` puts ||got|| into that max as well.  A NaN
    gap counts as a mismatch."""
    for n in range(1, n_max + 1):
        want, got = coeffs(n)
        scale = max(np.linalg.norm(want), np.linalg.norm(got) if symmetric else 0.0,
                    _tol.COEFF_FLOOR * norm ** n)
        diff = np.linalg.norm(got - want)
        if not diff <= _tol.MATCH_TOL * scale:
            return n, float(diff / scale)
    return None


@dataclass(frozen=True)
class GaugeRelation:
    """How two canonical forms of the same MPV are related."""

    permutation: tuple      # copy q of t1 matches copy permutation[q] of t2
    x_blocks: tuple         # per copy of t1: invertible X with
    phases: tuple           # leaf2 = phase * X^-1 leaf1 X


def find_gauge_between(t1: MpsTensor, t2: MpsTensor, seed: int = 0) -> GaugeRelation:
    """Match the canonical forms of two tensors generating the same MPV.

    Verifies coefficient equality first (NotEquivalent otherwise), then
    pairs up copies across the two forms by weight and transfer-spectrum
    fingerprint, extracting the per-block similarity from the mixed
    transfer map.
    """
    bad = _coefficient_mismatch(lambda n: (contract_mpv(t1, n), contract_mpv(t2, n)), 4,
                                max(np.linalg.norm(t1.entries), np.linalg.norm(t2.entries)),
                                symmetric=True)
    if bad:
        raise NotEquivalent(f"MPV coefficients differ at N={bad[0]}")
    cf1 = canonical_form(t1, seed=seed)
    cf2 = canonical_form(t2, seed=seed)
    copies1 = [(bi, mu, v, blk.tensor)
               for bi, blk in enumerate(cf1.blocks) for (mu, v) in blk.copies]
    copies2 = [(bi, mu, v, blk.tensor)
               for bi, blk in enumerate(cf2.blocks) for (mu, v) in blk.copies]
    if len(copies1) != len(copies2):
        raise NotEquivalent("different number of canonical-form copies")
    taken = [False] * len(copies2)
    perm = []
    xs = []
    phases = []
    for _, mu1, v1, rep1 in copies1:
        found = None
        for q2, (_, mu2, v2, rep2) in enumerate(copies2):
            if taken[q2] or abs(abs(mu1) - abs(mu2)) > \
                    _tol.MATCH_TOL * max(abs(mu1), _tol.SCALE_FLOOR):
                continue
            if rep1.left_dim != rep2.left_dim:
                continue
            try:
                s, ph = gauge_between_normal(rep2, rep1)
            except GaugeNotFound:
                continue
            # leaf1 = mu1 V1^-1 rep1 V1, leaf2 = mu2 V2^-1 rep2 V2,
            # rep2 = ph * S rep1 S^-1  =>  leaf2 = phase * X^-1 leaf1 X
            # with X = V1^-1 S^-1 V2 ... assembled below
            x = np.linalg.inv(v1) @ np.linalg.inv(s) @ v2
            phase = (mu2 / mu1) * ph
            found = (q2, x, phase)
            break
        if found is None:
            raise GaugeNotFound("no matching canonical-form copy")
        q2, x, phase = found
        taken[q2] = True
        perm.append(q2)
        xs.append(x)
        phases.append(phase)
    return GaugeRelation(tuple(perm), tuple(xs), tuple(phases))


# ----------------------------------------------------------------------------
# pair decomposition (matter-gauge chains)


def _pair_products(a_ent, b_ent):
    prods = np.einsum("iab,jbc->ijac", a_ent, b_ent)
    return [prods[i, j] for i in range(prods.shape[0]) for j in range(prods.shape[1])]


def pair_decompose(p: TensorPair, seed: int = 0):
    """Split an alternating pair into components normal on both AB and BA.

    Returns (components, blocking_factor) where each component is a tuple
    (A_chi, B_chi, mu_chi) of radius-1-normalized tensors with
    sum_chi mu_chi^N |psi_chi^N> equal to the (blocked) input.
    """
    rng = np.random.default_rng(seed)
    pair = p
    for round_ in range(4):
        comps = _pair_split(pair.A.entries, pair.B.entries, rng)
        periodic = False
        for a_ent, b_ent in comps:
            comb = TensorPair(MpsTensor(a_ent), MpsTensor(b_ent)).combined
            rho = spectral_radius(comb)
            if rho > _tol.ZERO_FLOOR and \
                    unit_eigenvalue_count(comb.scaled(1 / np.sqrt(rho))) > 1:
                periodic = True
                break
        if not periodic:
            blocking = 3 ** round_
            break
        # blocking scheme: the new unit cell covers three of the old ones
        a3 = np.einsum("iab,jbc,kcd->ijkad", pair.A.entries, pair.B.entries,
                       pair.A.entries)
        b3 = np.einsum("iab,jbc,kcd->ijkad", pair.B.entries, pair.A.entries,
                       pair.B.entries)
        da = a3.shape[0] * a3.shape[1] * a3.shape[2]
        db = b3.shape[0] * b3.shape[1] * b3.shape[2]
        pair = TensorPair(
            MpsTensor(a3.reshape(da, a3.shape[3], a3.shape[4])),
            MpsTensor(b3.reshape(db, b3.shape[3], b3.shape[4])),
        )
    else:
        raise NumericalDegeneracy("pair periodicity removal did not terminate")

    out = []
    for a_ent, b_ent in comps:
        comb = TensorPair(MpsTensor(a_ent), MpsTensor(b_ent)).combined
        rho = spectral_radius(comb)
        if rho < _tol.ZERO_FLOOR:
            continue
        c = rho ** 0.25
        out.append((MpsTensor(a_ent / c), MpsTensor(b_ent / c), np.sqrt(rho) + 0j))
    bad = _coefficient_mismatch(lambda n: (
        contract_pair_mpv(pair, n),
        sum(mu ** n * contract_pair_mpv(TensorPair(a, b), n) for a, b, mu in out)), 3,
        np.linalg.norm(pair.A.entries) * np.linalg.norm(pair.B.entries))
    if bad:
        raise NumericalDegeneracy(f"pair reassembly mismatch at N={bad[0]}", gap=bad[1])
    return out, blocking


def _pair_split(a_ent, b_ent, rng):
    """Alternate invariant-subspace splits on AB (left space of A) and BA."""
    prods = _pair_products(a_ent, b_ent)
    if max(np.linalg.norm(m) for m in prods) < _tol.ZERO_FLOOR:
        return []  # all words vanish: the component contributes nothing
    for swap in (False, True):
        first, second = (b_ent, a_ent) if swap else (a_ent, b_ent)
        sub = find_invariant_subspace(
            _pair_products(first, second) if swap else prods, rng)
        if sub is None:
            continue
        out = []
        for basis in (sub, _orth_complement(sub)):
            if basis.shape[1] == 0:
                continue
            # first_s = P^dag first, second_s = second P
            first_s = np.einsum("ak,iab->ikb", basis.conj(), first)
            second_s = np.einsum("iab,bk->iak", second, basis)
            a_s, b_s = (second_s, first_s) if swap else (first_s, second_s)
            out.extend(_pair_split(a_s, b_s, rng))
        return out
    return [(a_ent, b_ent)]

