"""Symmetry certification for matter / gauge / matter-gauge MPVs.

Two independent layers are always kept apart: brute-force checks contract
the state and apply physical operators site by site, while tensor-level
checks verify the local transformation relations of the tensors.  Reports
carry residual magnitudes, never bare booleans.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import cycle

import numpy as np

from .errors import (
    BadAlgebra,
    DimMismatch,
    ExtractionDegenerate,
    NotDecomposable,
    NotNormal,
    SymmetryError,
)
from .reps import Rep, check_projective_rep, decompose_rep, intertwiner_space
from .su2 import EPS_ABC, element_from_generators
from .tensors import MpsTensor, TensorPair, contract_mpv, contract_pair_mpv, is_normal
from .canonical import pair_decompose

PASS_TOL = 1e-9


# ----------------------------------------------------------------------------
# operator adapters: a "symmetry op set" is a list of (label, matrix) pairs


def rep_ops(rep: Rep, skip_identity=False):
    out = []
    for g in range(rep.group.order):
        if skip_identity and g == rep.group.identity:
            continue
        out.append((rep.group.name(g), rep.matrices[g]))
    return out


def sampled_ops(generators, samples, prefix="s"):
    """Exponentiated Lie-group elements at sampled parameter triples."""
    return [
        (f"{prefix}{k}", element_from_generators(generators, phi))
        for k, phi in enumerate(samples)
    ]


@dataclass(frozen=True)
class SymmetryReport:
    setting: str
    n_values: tuple
    tolerance: float
    records: tuple  # ((N, element, site, residual), ...)

    @property
    def max_residual(self) -> float:
        return max((r[3] for r in self.records), default=0.0)

    @property
    def failures(self):
        return tuple(r for r in self.records if r[3] > self.tolerance)

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.tolerance

    def to_json_dict(self):
        return {
            "setting": self.setting,
            "N_values": list(self.n_values),
            "tolerance": self.tolerance,
            "max_residual": self.max_residual,
            "failures": [
                {"N": n, "element": el, "site": site, "residual": res}
                for (n, el, site, res) in self.failures
            ],
        }


def _apply_site(psi, op, site):
    """Apply a one-site operator to axis `site` of the coefficient array."""
    out = np.tensordot(op, psi, axes=([1], [site]))
    return np.moveaxis(out, 0, site)


def _bab_windows(n):
    """Axes (A_K, B_{K-1}, B_K) of each matter site's window on the chain
    (A_1, B_1, ..., A_N, B_N); the left B site wraps around cyclically."""
    return [(k, (2 * k, (2 * k - 1) % (2 * n), 2 * k + 1)) for k in range(n)]


def _check_windows(setting, chain, n_values, op_lists, windows, tol,
                   summed=False, labels=None) -> SymmetryReport:
    """Residuals of every element's window action on psi_N = chain(N).

    `op_lists` holds one (label, matrix) list per window slot, in the order
    the ops are applied, and elements are named after `labels` (default the
    first list).  `windows(N)` yields (site, axes); ops[i] acts on axes[i],
    and a lone op acts on every axis.  The product of an element's ops must
    leave psi unchanged, ||O psi - psi|| / ||psi||; with `summed` their sum
    must annihilate it, ||sum_j O_j psi|| / ||psi||.
    """
    n_values = tuple(n_values)
    lengths = [len(ops) for ops in op_lists]
    if len(set(lengths)) != 1:
        raise SymmetryError(f"{setting}: operator lists of unequal lengths {lengths}")
    if not lengths[0] or not n_values:
        raise SymmetryError(f"{setting}: nothing to check ({lengths[0]} elements, "
                            f"N={list(n_values)})")
    elements = [(label, tuple(m for _, m in ops)) for (label, _), ops
                in zip(labels or op_lists[0], zip(*op_lists))]
    records = []
    for n in n_values:
        psi = chain(n)
        norm = max(np.linalg.norm(psi), 1e-300)
        wins = list(windows(n))
        for label, ops in elements:
            # every window puts each op on the same kind of site
            for op, axis in zip(cycle(ops), wins[0][1]):
                if np.shape(op) != (psi.shape[axis],) * 2:
                    raise DimMismatch(
                        f"{setting}: operator {label} has shape {np.shape(op)}, "
                        f"its site has dimension {psi.shape[axis]}")
            for site, axes in wins:
                placed = zip(cycle(ops), axes)
                if summed:
                    (op, axis), *rest = placed
                    out = _apply_site(psi, op, axis)
                    for op, axis in rest:
                        out = out + _apply_site(psi, op, axis)
                else:
                    out = psi
                    for op, axis in placed:
                        out = _apply_site(out, op, axis)
                    out = out - psi
                records.append((n, label, site, float(np.linalg.norm(out) / norm)))
    return SymmetryReport(setting, n_values, tol, tuple(records))


def check_local_symmetry_matter(t: MpsTensor, theta_ops, n_max: int,
                                tol: float = PASS_TOL) -> SymmetryReport:
    """Single-site action of Theta(g) at site 1 (sufficient under TI)."""
    return _check_windows("matter-local", lambda n: contract_mpv(t, n),
                          range(1, n_max + 1), (theta_ops,),
                          lambda n: [(0, (0,))], tol)


def check_global_symmetry(t: MpsTensor, theta_ops, n_max: int,
                          tol: float = PASS_TOL) -> SymmetryReport:
    """Theta(g) on every site at once."""
    return _check_windows("matter-global", lambda n: contract_mpv(t, n),
                          range(1, n_max + 1), (theta_ops,),
                          lambda n: [(-1, tuple(range(n)))], tol)


def check_local_symmetry_gauge(t: MpsTensor, r_ops, l_ops, n_max: int,
                               tol: float = PASS_TOL) -> SymmetryReport:
    """R(g) at site K with L(g) at site K+1 (cyclic), for every K."""
    return _check_windows("gauge-local", lambda n: contract_mpv(t, n),
                          range(2, n_max + 1), (r_ops, l_ops),
                          lambda n: [(k, (k, (k + 1) % n)) for k in range(n)],
                          tol)


def check_local_symmetry_matter_gauge(pair: TensorPair, r_ops, theta_ops,
                                      l_ops, n_max: int,
                                      tol: float = PASS_TOL) -> SymmetryReport:
    """R x Theta x L on each B-A-B window of the alternating chain.

    Sites are ordered (A_1, B_1, ..., A_N, B_N); the window around matter
    site K uses the B site to its left (cyclically) and to its right.
    """
    return _check_windows("matter-gauge-local",
                          lambda n: contract_pair_mpv(pair, n),
                          range(1, n_max + 1), (theta_ops, r_ops, l_ops),
                          _bab_windows, tol, labels=r_ops)


# ----------------------------------------------------------------------------
# tensor-level relations


def verify_relation_A(t: MpsTensor, theta_ops, x_mats, y_mats):
    """Residuals of Theta(g) A = X(g)^-1 A Y(g), per element."""
    scale = max(np.linalg.norm(t.entries), 1e-300)
    out = []
    for (label, th), x, y in zip(theta_ops, x_mats, y_mats):
        lhs = np.einsum("ij,jab->iab", th, t.entries)
        rhs = np.einsum("ab,ibc,cd->iad", np.linalg.inv(x), t.entries, y)
        out.append((label, float(np.linalg.norm(lhs - rhs) / scale)))
    return out


def verify_relation_B(t: MpsTensor, r_ops, l_ops, x_mats, y_mats):
    """Residuals of R(g) B = B X(g) and L(g) B = Y(g)^-1 B, per element."""
    scale = max(np.linalg.norm(t.entries), 1e-300)
    out = []
    for (label, r_op), (_, l_op), x, y in zip(r_ops, l_ops, x_mats, y_mats):
        lhs_r = np.einsum("ij,jab->iab", r_op, t.entries)
        rhs_r = np.einsum("iab,bc->iac", t.entries, x)
        lhs_l = np.einsum("ij,jab->iab", l_op, t.entries)
        rhs_l = np.einsum("ab,ibc->iac", np.linalg.inv(y), t.entries)
        res = max(np.linalg.norm(lhs_r - rhs_r), np.linalg.norm(lhs_l - rhs_l))
        out.append((label, float(res / scale)))
    return out


@dataclass(frozen=True)
class VirtualRep:
    labels: tuple
    x_mats: tuple          # on A's left virtual space (B's right)
    y_mats: tuple          # on A's right virtual space (B's left)
    x_multiplier: np.ndarray = None   # gamma(g,h) when a group table is given
    y_multiplier: np.ndarray = None
    relation_residual: float = 0.0


def fix_virtual_phase(x):
    """Rotate the free phase so that det(X) has argument 0 (principal)."""
    d = x.shape[0]
    det = np.linalg.det(x)
    if det == 0:
        return x
    return x * np.exp(-1j * np.angle(det) / d)


def projective_distance(x1, x2):
    """Distance between matrices modulo scale and phase."""
    a = x1 / np.linalg.norm(x1)
    b = x2 / np.linalg.norm(x2)
    ov = np.trace(a.conj().T @ b)
    if abs(ov) < 1e-300:
        return float(np.linalg.norm(a - b))
    return float(np.linalg.norm(a * ov / abs(ov) - b))


def _stacked_words(pair: TensorPair, phys_ops, apply_left, max_levels=None):
    """Stack alternating-chain words with one physical op applied to a B site.

    Returns (W, Wg): for `apply_left` False the op acts on the innermost
    (rightmost) B factor of words B(AB)^k, so Wg = W X; for True it acts on
    the outermost (leftmost) B of words (BA)^k B, so Wg = Y^-1 W.
    """
    a_ent, b_ent = pair.A.entries, pair.B.entries
    d_b = pair.B.phys_dim
    rot_b = np.einsum("ij,jab->iab", phys_ops, b_ent)
    words = [b_ent[j] for j in range(d_b)]
    words_g = [rot_b[j] for j in range(d_b)]
    levels = [list(zip(words, words_g))]
    d1 = b_ent.shape[2] if not apply_left else b_ent.shape[1]
    if max_levels is None:
        max_levels = 2 * b_ent.shape[1] * b_ent.shape[2]
    for _ in range(max_levels):
        stacked = np.vstack([w for lv in levels for (w, _) in lv]) if not apply_left \
            else np.hstack([w for lv in levels for (w, _) in lv])
        rank = np.linalg.matrix_rank(stacked, tol=1e-10 * max(1.0, np.linalg.norm(stacked)))
        if rank == d1:
            break
        nxt = []
        for (w, wg) in levels[-1]:
            for i in range(pair.A.phys_dim):
                for j in range(d_b):
                    if not apply_left:
                        nxt.append((b_ent[j] @ a_ent[i] @ w, b_ent[j] @ a_ent[i] @ wg))
                    else:
                        nxt.append((w @ a_ent[i] @ b_ent[j], wg @ a_ent[i] @ b_ent[j]))
        levels.append(nxt)
    flat = [(w, wg) for lv in levels for (w, wg) in lv]
    return flat


def extract_virtual_rep(pair: TensorPair, r_ops, theta_ops, l_ops,
                        group=None, tol=1e-8) -> VirtualRep:
    """Solve for X(g), Y(g) relating physical group actions to virtual ones.

    X satisfies (R(g)B) = B X(g) extended over words of the chain so the
    system is full rank whenever BA is normal; Y analogously from L.  The
    transformation relations are then verified on both tensors.
    """
    ok_ab, _ = is_normal(pair.combined, require_unit_radius=False)
    ok_ba, _ = is_normal(pair.reversed, require_unit_radius=False)
    if not (ok_ab and ok_ba):
        raise NotNormal("extraction requires AB and BA normal")
    labels = tuple(lbl for lbl, _ in r_ops)
    xs, ys = [], []
    worst = 0.0
    for (lbl, r_op), (_, th_op), (_, l_op) in zip(r_ops, theta_ops, l_ops):
        words = _stacked_words(pair, r_op, apply_left=False)
        w_mat = np.vstack([w for w, _ in words])
        wg_mat = np.vstack([wg for _, wg in words])
        x, *_ = np.linalg.lstsq(w_mat, wg_mat, rcond=None)
        resid = np.linalg.norm(w_mat @ x - wg_mat) / max(np.linalg.norm(wg_mat), 1e-300)
        if resid > 1e-6:
            raise ExtractionDegenerate(
                f"X({lbl}) word system inconsistent (residual {resid:.3e})")
        words = _stacked_words(pair, l_op, apply_left=True)
        w_mat = np.hstack([w for w, _ in words])
        wg_mat = np.hstack([wg for _, wg in words])
        # Y^-1 W = Wg  =>  W^T (Y^-1)^T = Wg^T
        y_inv_t, *_ = np.linalg.lstsq(w_mat.T, wg_mat.T, rcond=None)
        y_inv = y_inv_t.T
        resid = np.linalg.norm(y_inv @ w_mat - wg_mat) / max(np.linalg.norm(wg_mat), 1e-300)
        if resid > 1e-6:
            raise ExtractionDegenerate(
                f"Y({lbl}) word system inconsistent (residual {resid:.3e})")
        y = np.linalg.inv(y_inv)
        rel_a = verify_relation_A(pair.A, [(lbl, th_op)], [x], [y])[0][1]
        rel_b = verify_relation_B(pair.B, [(lbl, r_op)], [(lbl, l_op)], [x], [y])[0][1]
        worst = max(worst, rel_a, rel_b)
        xs.append(x)
        ys.append(y)
    if worst > tol:
        raise ExtractionDegenerate(
            f"extracted virtual reps violate the relations (residual {worst:.3e})")
    x_mult = y_mult = None
    if group is not None:
        x_mult = _extract_multiplier(group, labels, xs)
        y_mult = _extract_multiplier(group, labels, ys)
    return VirtualRep(labels, tuple(xs), tuple(ys), x_mult, y_mult, worst)


def _extract_multiplier(group, labels, mats):
    """gamma(g,h) from X(g)X(h) = gamma X(gh); assumes label order = element order."""
    n = group.order
    if len(mats) != n:
        return None
    gamma = np.empty((n, n), dtype=complex)
    for g in range(n):
        for h in range(n):
            gh = group.multiply(g, h)
            prod = mats[g] @ mats[h]
            ov = np.trace(np.linalg.inv(mats[gh]) @ prod) / mats[gh].shape[0]
            gamma[g, h] = ov / abs(ov) if abs(ov) > 0 else 1.0
    return gamma


# ----------------------------------------------------------------------------
# gauge Hilbert-space structure


@dataclass(frozen=True)
class GaugeSector:
    l_label: str
    r_label: str
    phys_basis: np.ndarray  # columns: sector basis vectors in C^d, (m,n) order


@dataclass(frozen=True)
class GaugeHilbertAnalysis:
    sectors: tuple
    support: np.ndarray      # columns spanning the occupied physical subspace
    kogut_susskind: bool
    commutator_residual: float


def _physical_support(t: MpsTensor, tol=1e-10):
    mat = t.entries.reshape(t.phys_dim, -1)
    u, s, _ = np.linalg.svd(mat, full_matrices=False)
    rank = int(np.sum(s > tol * s[0])) if s.size and s[0] > 0 else 0
    return u[:, :rank]


def analyze_gauge_hilbert(t: MpsTensor, r_rep: Rep, l_rep: Rep, catalog,
                          tol=1e-8) -> GaugeHilbertAnalysis:
    """Decompose the occupied physical space of a gauge tensor into
    sectors H_l x H_r with L acting on the left factor and R on the right.

    Flags Kogut-Susskind structure when every sector has l equivalent to
    the conjugate of r.
    """
    from .groups import direct_product
    from .reps import Irrep, Multiplier, conjugate_rep

    p = _physical_support(t)
    group = r_rep.group
    n = group.order
    r_res = np.einsum("ak,gab,bl->gkl", p.conj(), r_rep.matrices, p)
    l_res = np.einsum("ak,gab,bl->gkl", p.conj(), l_rep.matrices, p)
    # invariance of the support and commutation on it
    worst = 0.0
    for g in range(n):
        proj = p @ p.conj().T
        worst = max(worst, np.linalg.norm(r_rep.matrices[g] @ proj - proj @ r_rep.matrices[g] @ proj))
        worst = max(worst, np.linalg.norm(l_rep.matrices[g] @ proj - proj @ l_rep.matrices[g] @ proj))
    comm = 0.0
    for g in range(n):
        for h in range(n):
            comm = max(comm, np.linalg.norm(r_res[g] @ l_res[h] - l_res[h] @ r_res[g]))
    if worst > 1e-7 or comm > 1e-7:
        raise NotDecomposable(
            f"R/L do not act cleanly on the occupied space "
            f"(support residual {worst:.3e}, commutator {comm:.3e})")

    gg = direct_product(group, group)
    # the pair rep (g,h) -> L(g)R(h) restricted to the support
    pair_mats = np.einsum("gkl,hlm->ghkm", l_res, r_res).reshape(
        n * n, p.shape[1], p.shape[1])
    pair_mult = check_projective_rep(pair_mats, gg, tol=1e-8)
    pair_rep = Rep(gg, pair_mats, pair_mult)
    pair_catalog = []
    for la in catalog:
        for ra in catalog:
            mats = np.einsum("gij,hkl->ghikjl", la.matrices, ra.matrices).reshape(
                n * n, la.dim * ra.dim, la.dim * ra.dim)
            mult = Multiplier(gg, np.kron(la.multiplier.values, ra.multiplier.values))
            pair_catalog.append(Irrep(gg, mats, mult, f"{la.label}*{ra.label}"))
    dec = decompose_rep(pair_rep, pair_catalog, tol=tol)
    sectors = []
    for label, q, sl in dec.block_slices():
        l_label, r_label = label.split("*")
        basis = p @ dec.basis_change[:, sl]
        sectors.append(GaugeSector(l_label, r_label, basis))
    # Kogut-Susskind: each sector's l equals the catalog irrep conjugate to r
    by_label = {irr.label: irr for irr in catalog}
    ks = True
    for sec in sectors:
        rc = conjugate_rep(by_label[sec.r_label])
        match = None
        for irr in catalog:
            if irr.multiplier.close_to(rc.multiplier) and \
                    len(intertwiner_space(rc, irr)) == 1:
                match = irr.label
                break
        if match != sec.l_label:
            ks = False
    return GaugeHilbertAnalysis(tuple(sectors), p, ks, float(max(worst, comm)))


@dataclass(frozen=True)
class BBlockEntry:
    sector: tuple        # (l_label, r_label)
    y_block: str         # irrep label of the left virtual block
    x_block: str         # irrep label of the right virtual block
    matched: bool
    constant: complex    # proportionality constant when matched
    residual: float


@dataclass(frozen=True)
class BStructureReport:
    entries: tuple
    unmatched_y: tuple   # left virtual blocks matching no physical sector
    unmatched_x: tuple
    max_residual: float

    @property
    def normality_contradiction(self) -> bool:
        return bool(self.unmatched_y or self.unmatched_x)


def analyze_b_structure(t: MpsTensor, r_rep: Rep, l_rep: Rep, x_mats, y_mats,
                        catalog, tol=1e-8) -> BStructureReport:
    """Classify each (physical sector, virtual block pair) of a gauge tensor.

    In bases where the right virtual rep X and the conjugate of the left
    virtual rep Y are direct sums of catalog irreps, each sector block is
    either proportional to the elementary pattern |m><n| (irreps match) or
    zero (they do not).
    """
    from .reps import Rep as _Rep

    group = r_rep.group
    hilb = analyze_gauge_hilbert(t, r_rep, l_rep, catalog, tol)
    x_rep = _Rep(group, np.array(x_mats),
                 check_projective_rep(np.array(x_mats), group, tol=1e-8))
    ybar = np.conj(np.array(y_mats))
    ybar_rep = _Rep(group, ybar, check_projective_rep(ybar, group, tol=1e-8))
    x_dec = decompose_rep(x_rep, catalog, tol)
    y_dec = decompose_rep(ybar_rep, catalog, tol)
    x_blocks = list(x_dec.block_slices())
    y_blocks = list(y_dec.block_slices())
    ux = x_dec.basis_change
    uy = np.conj(y_dec.basis_change)  # rotates Y itself block-diagonal (conjugate blocks)
    rotated = np.einsum("ak,iab,bl->ikl", uy.conj(), t.entries, ux)
    entries = []
    matched_y = set()
    matched_x = set()
    worst = 0.0
    for sec in hilb.sectors:
        # sector components of B: project physical index onto the sector basis
        comp = np.einsum("ik,ilm->klm", np.conj(sec.phys_basis), rotated)
        dl = next(irr.dim for irr in catalog if irr.label == sec.l_label)
        dr = next(irr.dim for irr in catalog if irr.label == sec.r_label)
        comp = comp.reshape(dl, dr, comp.shape[1], comp.shape[2])
        for (y_lab, yq, ysl) in y_blocks:
            for (x_lab, xq, xsl) in x_blocks:
                blk = comp[:, :, ysl, xsl]
                is_match = (x_lab == sec.r_label and y_lab == sec.l_label
                            and blk.shape[2] == dl and blk.shape[3] == dr)
                if is_match:
                    diag = np.einsum("mnmn->", blk) / (dl * dr)
                    pattern = np.zeros_like(blk)
                    for m in range(dl):
                        for nn in range(dr):
                            pattern[m, nn, m, nn] = diag
                    res = float(np.linalg.norm(blk - pattern))
                    if abs(diag) > tol:
                        matched_y.add((y_lab, yq))
                        matched_x.add((x_lab, xq))
                else:
                    diag = 0.0
                    res = float(np.linalg.norm(blk))
                worst = max(worst, res)
                entries.append(BBlockEntry((sec.l_label, sec.r_label), y_lab,
                                           x_lab, bool(is_match), diag, res))
    un_y = tuple(f"{lab}[{q}]" for (lab, q, _) in y_blocks if (lab, q) not in matched_y)
    un_x = tuple(f"{lab}[{q}]" for (lab, q, _) in x_blocks if (lab, q) not in matched_x)
    return BStructureReport(tuple(entries), un_y, un_x, worst)


def analyze_matter_local_symmetry(t: MpsTensor, theta_rep: Rep, catalog,
                                  tol=1e-9):
    """Per-irrep physical support of a matter tensor, plus the tensor-level
    residual of Theta(g) A = A.

    A locally symmetric matter MPV in canonical form is supported on the
    trivial sectors only; nontrivial-sector norms are reported.
    """
    dec = decompose_rep(theta_rep, catalog, tol=1e-8)
    u = dec.basis_change
    rotated = np.einsum("ia,ikl->akl", np.conj(u), t.entries)
    support = []
    for label, q, sl in dec.block_slices():
        support.append((label, q, float(np.linalg.norm(rotated[sl]))))
    worst = 0.0
    scale = max(np.linalg.norm(t.entries), 1e-300)
    for g in range(theta_rep.group.order):
        lhs = np.einsum("ij,jab->iab", theta_rep.matrices[g], t.entries)
        worst = max(worst, float(np.linalg.norm(lhs - t.entries) / scale))
    trivial_only = all(
        norm <= 1e-8 * scale
        for (label, q, norm) in support
        if not _is_trivial_irrep(label, catalog)
    )
    return {
        "support": support,
        "tensor_residual": worst,
        "trivial_sectors_only": trivial_only,
    }


def _is_trivial_irrep(label, catalog):
    for irr in catalog:
        if irr.label == label:
            return irr.dim == 1 and np.abs(irr.matrices - 1).max() < 1e-10
    return False


# ----------------------------------------------------------------------------
# Gauss law


@dataclass(frozen=True)
class GaussOperators:
    r_gens: np.ndarray   # (3, dB, dB) or (k, dB, dB)
    q_gens: np.ndarray   # matter-site charges
    l_gens: np.ndarray

    def validate(self, tol=1e-12):
        worst = 0.0
        for gens in (self.r_gens, self.l_gens):
            for a in range(len(gens)):
                if len(gens) == 3:
                    for b in range(3):
                        comm = gens[a] @ gens[b] - gens[b] @ gens[a]
                        want = 1j * np.einsum("c,cij->ij", EPS_ABC[a, b], gens)
                        worst = max(worst, np.linalg.norm(comm - want))
        for a in range(len(self.r_gens)):
            for b in range(len(self.l_gens)):
                comm = self.r_gens[a] @ self.l_gens[b] - self.l_gens[b] @ self.r_gens[a]
                worst = max(worst, np.linalg.norm(comm))
        for q in self.q_gens:
            worst = max(worst, np.linalg.norm(q - q.conj().T))
        if worst > tol:
            raise BadAlgebra(f"generator relations violated (residual {worst:.3e})")
        return worst


def check_gauss_law(pair: TensorPair, ops: GaussOperators, n_max: int,
                    tol: float = PASS_TOL) -> SymmetryReport:
    """Residuals ||(R_a + Q_a + L_a around each matter site) psi|| / ||psi||."""
    ops.validate()
    q_ops, r_ops, l_ops = ([(f"a{a + 1}", g) for a, g in enumerate(gens)]
                           for gens in (ops.q_gens, ops.r_gens, ops.l_gens))
    return _check_windows("gauss-law", lambda n: contract_pair_mpv(pair, n),
                          range(1, n_max + 1), (q_ops, r_ops, l_ops),
                          _bab_windows, tol, summed=True)


# ----------------------------------------------------------------------------
# structural corollaries


def check_every_component_invariant(pair: TensorPair, r_ops, theta_ops, l_ops,
                                    n_max: int, tol: float = PASS_TOL,
                                    seed: int = 0):
    """Window check on each normal component of the pair decomposition."""
    comps, blocking = pair_decompose(pair, seed=seed)
    reports = []
    for a, b, _mu in comps:
        reports.append(
            check_local_symmetry_matter_gauge(TensorPair(a, b), r_ops,
                                              theta_ops, l_ops, n_max, tol))
    return reports, blocking


def check_coupling_implies_global(a_t: MpsTensor, b_t: MpsTensor, theta_ops,
                                  r_ops, l_ops, n_max: int = 3,
                                  tol: float = PASS_TOL):
    """When the identity lies in span{B^j} and the pair is locally
    symmetric, the matter MPV must be globally symmetric."""
    d2, d1 = b_t.left_dim, b_t.right_dim
    if d1 != d2:
        return {"applicable": False, "span_residual": float("inf")}
    mat = b_t.entries.reshape(b_t.phys_dim, -1).T
    target = np.eye(d1, dtype=complex).reshape(-1)
    coef, *_ = np.linalg.lstsq(mat, target, rcond=None)
    span_res = float(np.linalg.norm(mat @ coef - target) / np.sqrt(d1))
    pair = TensorPair(a_t, b_t)
    bab = check_local_symmetry_matter_gauge(pair, r_ops, theta_ops, l_ops, n_max, tol)
    applicable = span_res <= 1e-8 and bab.passed
    result = {
        "applicable": applicable,
        "span_residual": span_res,
        "bab_report": bab,
    }
    if applicable:
        result["global_report"] = check_global_symmetry(a_t, theta_ops, n_max, tol)
    return result
