"""Symmetry certification for matter / gauge / matter-gauge MPVs.

Two independent layers are always kept apart: state-level checks apply
physical operators to the state, contracted densely or, for local windows,
through transfer matrices, while tensor-level checks verify the local
transformation relations of the tensors.  Reports carry residual
magnitudes, never bare booleans.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import cycle

import numpy as np

from . import _tol
from ._tol import PASS_TOL
from .errors import (
    BadAlgebra,
    DimMismatch,
    ExtractionDegenerate,
    NotDecomposable,
    NotNormal,
    NumericalDegeneracy,
    SymmetryError,
)
from .groups import direct_product
from .reps import (
    Irrep,
    Multiplier,
    Rep,
    _multiplier_phases,
    check_projective_rep,
    conjugate_rep,
    decompose_rep,
    irreps_equivalent,
)
from .su2 import check_su2_commutators, element_from_generators
from .tensors import MpsTensor, TensorPair, _rank, contract_mpv, contract_pair_mpv, is_normal
from .canonical import pair_decompose


# ----------------------------------------------------------------------------
# operator adapters: a "symmetry op set" is a list of (label, matrix) pairs


def rep_ops(rep: Rep):
    return [(rep.group.name(g), rep.matrices[g]) for g in range(rep.group.order)]


def sampled_ops(generators, samples):
    """Exponentiated Lie-group elements at sampled parameter triples."""
    mats = element_from_generators(generators, np.reshape(samples, (len(samples), 3)))
    return [(f"s{k}", m) for k, m in enumerate(mats)]


class LieOps(tuple):
    """Lie-algebra generators labelled a1, a2, ...: a check asks that they annihilate
    psi, which for a connected group is invariance under every element."""

    def __new__(cls, generators):
        return super().__new__(cls, ((f"a{k + 1}", g) for k, g in enumerate(generators)))


@dataclass(frozen=True)
class SymmetryReport:
    setting: str
    n_values: tuple
    tolerance: float
    records: tuple  # ((N, element, site, residual), ...)

    @property
    def max_residual(self) -> float:
        # np.max propagates NaN, so a non-finite residual is never hidden
        return float(np.max([r[3] for r in self.records], initial=0.0))

    @property
    def failures(self):
        # a NaN residual compares false either way: it counts as a failure
        return tuple(r for r in self.records if not r[3] <= self.tolerance)

    @property
    def passed(self) -> bool:
        return not self.failures

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


def _defect(psi, placed, summed):
    """O psi - psi for the ops `placed` as (op, axis) pairs, in the order
    they act; sum_j O_j psi when `summed`."""
    if summed:
        out = _apply_site(psi, *next(placed))
        for op, axis in placed:
            out = out + _apply_site(psi, op, axis)
        return out
    out = psi
    for op, axis in placed:
        out = _apply_site(out, op, axis)
    return out - psi


def _bab_windows(n):
    """Axes (A_K, B_{K-1}, B_K) of each matter site's window on the chain
    (A_1, B_1, ..., A_N, B_N); the left B site wraps around cyclically."""
    return [(k, (2 * k, 2 * k - 1, 2 * k + 1)) for k in range(n)]


def _unit_factor(a):
    """The power of two that brings the largest |entry| of `a` into [1/2, 1)
    (1 for a zero array).  Multiplying by it is exact."""
    _, exp = np.frexp(np.max(np.abs(a), initial=0.0))
    return np.ldexp(1.0, min(-int(exp), 1023))


def _transfer(blocks):
    """E_X = sum_s X^s (x) conj(X^s) on row-major vec, for the matrices
    X^s = blocks[s..., :, :], as one Gram product."""
    d1, d2 = blocks.shape[-2:]
    m = blocks.reshape(-1, d1 * d2)
    return (m.T @ m.conj()).reshape(d1, d2, d1, d2).transpose(0, 2, 1, 3).reshape(
        d1 * d1, d2 * d2)


def _trace_with(e_x, rest):
    """Tr(E_X E_rest), and the sum of the moduli of its terms."""
    terms = e_x * rest.T
    return np.sum(terms).real, np.sum(np.abs(terms))


def _contract_sites(sites, placed=()):
    """The block W^{s_1...s_w} = T_1^{s_1} ... T_w^{s_w} of consecutive site
    tensors, with each (op, position) of `placed` first applied, in order,
    to the physical index of its site."""
    sites = list(sites)
    for op, pos in placed:
        sites[pos] = np.tensordot(op, sites[pos], axes=1)
    block = sites[0]
    for t in sites[1:]:   # (..., a, b) x (s, b, c) -> (..., s, a, c)
        block = np.moveaxis(np.tensordot(block, t, axes=([-1], [1])), -2, -3)
    return block


class _TransferWindows:
    """Window residuals of psi_N = Tr(prod of N cells) from transfer matrices.

    psi_N is a trace of identical cells, so every window is a translate of
    window 0.  With W the block of window 0's sites and C its defect,
    C = (O - 1) W or sum_j O_j W, ||(O - 1) psi_N||^2 = Tr(E_C E_rest) and
    ||psi_N||^2 = Tr(E_W E_rest), where E_rest is the transfer matrix of
    the sites outside the window.  E_C is built once per element; E_rest
    grows by one cell, one product of D^2 x D^2 matrices, per N and is
    kept at unit order by exact powers of two, which cancel in the ratio.
    """

    def __init__(self, cell, axes, elements, summed):
        lo, c = min(axes), len(cell)
        sites = [cell[(lo + j) % c].entries for j in range(max(axes) - lo + 1)]
        slots = [a - lo for a in axes]
        block = _contract_sites(sites)
        self.e_window = _transfer(block)
        self.e_defects = []
        for _, ops in elements:
            if summed:
                defect = _contract_sites(sites, [(ops[0], slots[0])])
                for op, pos in zip(ops[1:], slots[1:]):
                    defect = defect + _contract_sites(sites, [(op, pos)])
            else:
                defect = _contract_sites(sites, zip(ops, slots)) - block
            self.e_defects.append(_transfer(defect))
        # the rest of psi_N runs from the site after the window round to the
        # one before it: a head of h sites completes the window's last cell,
        # then whole cells (sites lo, ..., lo + c - 1), one more for each N
        site_e = [_transfer(t.entries) for t in cell]
        w, h = len(sites), -len(sites) % c
        self.rest = np.eye(self.e_window.shape[1], dtype=complex)
        for j in range(h):
            self.rest = self.rest @ site_e[(lo + w + j) % c]
        self.e_cell = site_e[lo % c]
        for j in range(1, c):
            self.e_cell = self.e_cell @ site_e[(lo + j) % c]
        # window and head span window_cells cells, and the rest n_rest more
        self.window_cells, self.n_rest = (w + h) // c, 0

    def residuals(self, n, setting):
        """One residual per element at N = n, or None when psi_N vanishes."""
        while self.n_rest < n - self.window_cells:
            self.rest = self.rest @ self.e_cell
            self.rest *= _unit_factor(self.rest)
            self.n_rest += 1
        rest = self.rest
        den, den_terms = _trace_with(self.e_window, rest)
        if not den > _tol.TRACE_ROUNDOFF * den_terms:
            return None
        out = []
        for e_c in self.e_defects:
            num, num_terms = _trace_with(e_c, rest)
            if num < -_tol.TRACE_ROUNDOFF * num_terms:
                raise NumericalDegeneracy(
                    f"{setting}: negative defect norm at N={n}", gap=-num / num_terms)
            # np.maximum keeps a NaN, which then fails the check
            out.append(float(np.sqrt(np.maximum(num, 0.0) / den)))
        return out


def _dense_state(cell, n):
    if len(cell) == 1:
        return contract_mpv(cell[0], n)
    return contract_pair_mpv(TensorPair(*cell), n)


def _uses_dense_state(n, axes, op_lists):
    """matter-global puts one op on every site, and at N = 1 the B-A-B
    window wraps onto one B site: neither is a local window of psi_N."""
    return n == 1 or len(axes) != len(op_lists)


def _check_windows(setting, cell, n_values, op_lists, windows, tol,
                   labels=None) -> SymmetryReport:
    """Residuals of every element's window action on psi_N, the trace of N
    cells of the site tensors `cell` (one MPV tensor, or A and B).

    `op_lists` holds one (label, matrix) list per window slot, in the order
    the ops are applied, and elements are named after `labels` (default the
    first list).  `windows(N)` yields (site, axes) with axes counted along
    the chain of N cells, modulo its length; ops[i] acts on axes[i], and a
    lone op acts on every axis.  The product of an element's ops must leave
    psi unchanged, ||O psi - psi|| / ||psi||; for LieOps lists their sum
    must annihilate it, ||sum_j O_j psi|| / ||psi||.

    A local window with N >= 2 takes the transfer route
    (`_TransferWindows`): one residual per (N, element), listed for every
    site.  matter-global and N = 1 contract the dense psi_N, whose size
    `GAUGE_MPS_SIZE_LIMIT` caps.  A and B are first scaled by exact powers
    of two, so residuals do not depend on their scale.  An N whose psi_N
    is zero has nothing to check and is left out of the report;
    SymmetryError when every N is.
    """
    n_values = tuple(n_values)
    summed = isinstance(op_lists[0], LieOps)
    if any(isinstance(ops, LieOps) != summed for ops in op_lists):
        raise SymmetryError(f"{setting}: generator and group-element lists mixed")
    lengths = [len(ops) for ops in op_lists]
    if len(set(lengths)) != 1:
        raise SymmetryError(f"{setting}: operator lists of unequal lengths {lengths}")
    if not lengths[0] or not n_values:
        raise SymmetryError(f"{setting}: nothing to check ({lengths[0]} elements, "
                            f"N={list(n_values)})")
    elements = [(label, tuple(m for _, m in ops)) for (label, _), ops
                in zip(labels or op_lists[0], zip(*op_lists))]
    cell = tuple(t.scaled(_unit_factor(t.entries)) for t in cell)
    transfer = None
    records, checked = [], []
    for n in n_values:
        wins = list(windows(n))
        axes = wins[0][1]
        # every window puts each op on the same kind of site
        for label, ops in elements:
            for op, axis in zip(cycle(ops), axes):
                dim = cell[axis % len(cell)].phys_dim
                if np.shape(op) != (dim, dim):
                    raise DimMismatch(
                        f"{setting}: operator {label} has shape {np.shape(op)}, "
                        f"its site has dimension {dim}")
        if _uses_dense_state(n, axes, op_lists):
            psi = _dense_state(cell, n)
            norm = np.linalg.norm(psi)
            if norm < np.finfo(float).tiny:
                continue  # e.g. psi_1 = Tr(A^i) = 0 for traceless Kraus matrices
            size = psi.ndim
            rows = [[float(np.linalg.norm(_defect(
                psi, zip(cycle(ops), (a % size for a in win)), summed)) / norm)
                for _, win in wins] for _, ops in elements]
        else:
            if transfer is None:
                transfer = _TransferWindows(cell, axes, elements, summed)
            res = transfer.residuals(n, setting)
            if res is None:
                continue
            rows = [[r] * len(wins) for r in res]
        checked.append(n)
        records += [(n, label, site, r) for (label, _), row in zip(elements, rows)
                    for (site, _), r in zip(wins, row)]
    if not checked:
        raise SymmetryError(f"{setting}: psi_N vanishes for every N in "
                            f"{list(n_values)}, nothing to check")
    return SymmetryReport(setting, tuple(checked), tol, tuple(records))


def check_local_symmetry_matter(t: MpsTensor, theta_ops, n_max: int,
                                tol: float = PASS_TOL) -> SymmetryReport:
    """Single-site action of Theta(g) at site 1 (sufficient under TI)."""
    return _check_windows("matter-local", (t,),
                          range(1, n_max + 1), (theta_ops,),
                          lambda n: [(0, (0,))], tol)


def check_global_symmetry(t: MpsTensor, theta_ops, n_max: int,
                          tol: float = PASS_TOL) -> SymmetryReport:
    """Theta(g) on every site at once."""
    return _check_windows("matter-global", (t,),
                          range(1, n_max + 1), (theta_ops,),
                          lambda n: [(-1, tuple(range(n)))], tol)


def check_local_symmetry_gauge(t: MpsTensor, r_ops, l_ops, n_max: int,
                               tol: float = PASS_TOL) -> SymmetryReport:
    """R(g) at site K with L(g) at site K+1 (cyclic), for every K."""
    return _check_windows("gauge-local", (t,),
                          range(2, n_max + 1), (r_ops, l_ops),
                          lambda n: [(k, (k, k + 1)) for k in range(n)],
                          tol)


def check_local_symmetry_matter_gauge(pair: TensorPair, r_ops, theta_ops,
                                      l_ops, n_max: int,
                                      tol: float = PASS_TOL) -> SymmetryReport:
    """R x Theta x L on each B-A-B window of the alternating chain.

    Sites are ordered (A_1, B_1, ..., A_N, B_N); the window around matter
    site K uses the B site to its left (cyclically) and to its right.
    """
    return _check_windows("matter-gauge-local", (pair.A, pair.B),
                          range(1, n_max + 1), (theta_ops, r_ops, l_ops),
                          _bab_windows, tol, labels=r_ops)


# ----------------------------------------------------------------------------
# tensor-level relations


def verify_relation_A(t: MpsTensor, theta_ops, x_mats, y_mats):
    """Residuals of Theta(g) A = X(g)^-1 A Y(g), per element."""
    scale = max(np.linalg.norm(t.entries), _tol.DIVISION_FLOOR)
    out = []
    for (label, th), x, y in zip(theta_ops, x_mats, y_mats):
        lhs = np.einsum("ij,jab->iab", th, t.entries)
        rhs = np.einsum("ab,ibc,cd->iad", np.linalg.inv(x), t.entries, y)
        out.append((label, float(np.linalg.norm(lhs - rhs) / scale)))
    return out


def verify_relation_B(t: MpsTensor, r_ops, l_ops, x_mats, y_mats):
    """Residuals of R(g) B = B X(g) and L(g) B = Y(g)^-1 B, per element."""
    scale = max(np.linalg.norm(t.entries), _tol.DIVISION_FLOOR)
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
    if abs(ov) < _tol.DIVISION_FLOOR:
        return float(np.linalg.norm(a - b))
    return float(np.linalg.norm(a * ov / abs(ov) - b))


def _stacked_words(pair: TensorPair, phys_ops, apply_left):
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
    for _ in range(2 * b_ent.shape[1] * b_ent.shape[2]):
        stacked = np.vstack([w for lv in levels for (w, _) in lv]) if not apply_left \
            else np.hstack([w for lv in levels for (w, _) in lv])
        rank = np.linalg.matrix_rank(
            stacked, tol=_tol.WORD_RANK_CUTOFF * max(1.0, np.linalg.norm(stacked)))
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
                        group=None) -> VirtualRep:
    """Solve for X(g), Y(g) relating physical group actions to virtual ones.

    X satisfies (R(g)B) = B X(g) extended over words of the chain so the
    system is full rank whenever BA is normal; Y analogously from L.  The
    transformation relations are then verified on both tensors.
    """
    ok_ab, _ = is_normal(pair.combined)
    ok_ba, _ = is_normal(pair.reversed)
    if not (ok_ab and ok_ba):
        raise NotNormal("extraction requires AB and BA normal")
    labels = tuple(lbl for lbl, _ in r_ops)
    xs, ys = [], []
    worst = 0.0
    for (lbl, r_op), (_, th_op), (_, l_op) in zip(r_ops, theta_ops, l_ops):
        x = _solve_words(_stacked_words(pair, r_op, apply_left=False), f"X({lbl})")
        # Y^-1 W = Wg  =>  W^T (Y^-1)^T = Wg^T
        y_inv_t = _solve_words([(w.T, wg.T) for w, wg in
                                _stacked_words(pair, l_op, apply_left=True)], f"Y({lbl})")
        y = np.linalg.inv(y_inv_t.T)
        rel_a = verify_relation_A(pair.A, [(lbl, th_op)], [x], [y])[0][1]
        rel_b = verify_relation_B(pair.B, [(lbl, r_op)], [(lbl, l_op)], [x], [y])[0][1]
        worst = float(np.max([worst, rel_a, rel_b]))  # NaN propagates
        xs.append(x)
        ys.append(y)
    if not worst <= _tol.RELATION_TOL:
        raise ExtractionDegenerate(
            f"extracted virtual reps violate the relations (residual {worst:.3e})")
    x_mult = y_mult = None
    if group is not None:
        x_mult = _extract_multiplier(group, labels, xs)
        y_mult = _extract_multiplier(group, labels, ys)
    return VirtualRep(labels, tuple(xs), tuple(ys), x_mult, y_mult, worst)


def _solve_words(words, name):
    """Least-squares M with W M = Wg over the stacked word pairs (W, Wg);
    ExtractionDegenerate when the system is inconsistent."""
    w_mat = np.vstack([w for w, _ in words])
    wg_mat = np.vstack([wg for _, wg in words])
    m, *_ = np.linalg.lstsq(w_mat, wg_mat, rcond=None)
    resid = np.linalg.norm(w_mat @ m - wg_mat) / max(np.linalg.norm(wg_mat),
                                                      _tol.DIVISION_FLOOR)
    if not resid <= _tol.EXTRACTION_RESIDUAL:
        raise ExtractionDegenerate(f"{name} word system inconsistent (residual {resid:.3e})")
    return m


def _extract_multiplier(group, labels, mats):
    """gamma(g,h) from X(g)X(h) = gamma X(gh); assumes label order = element order."""
    n = group.order
    if len(mats) != n:
        return None
    gamma = np.empty((n, n), dtype=complex)
    for g, _, ov in _multiplier_phases(np.asarray(mats), group, np.linalg.inv(mats)):
        mod = np.abs(ov)
        gamma[g] = np.where(mod > 0, ov / np.where(mod > 0, mod, 1.0), 1.0)
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


def _physical_support(t: MpsTensor):
    mat = t.entries.reshape(t.phys_dim, -1)
    u, s, _ = np.linalg.svd(mat, full_matrices=False)
    return u[:, :_rank(s, _tol.SUPPORT_RANK_CUTOFF)]


def analyze_gauge_hilbert(t: MpsTensor, r_rep: Rep, l_rep: Rep,
                          catalog) -> GaugeHilbertAnalysis:
    """Decompose the occupied physical space of a gauge tensor into
    sectors H_l x H_r with L acting on the left factor and R on the right.

    Flags Kogut-Susskind structure when every sector has l equivalent to
    the conjugate of r.
    """
    p = _physical_support(t)
    group = r_rep.group
    n = group.order
    r_res = np.einsum("ak,gab,bl->gkl", p.conj(), r_rep.matrices, p)
    l_res = np.einsum("ak,gab,bl->gkl", p.conj(), l_rep.matrices, p)
    # invariance of the support and commutation on it; np.max keeps a NaN
    proj = p @ p.conj().T
    acts = np.stack([r_rep.matrices, l_rep.matrices], axis=1)
    worst = np.max([np.linalg.norm(m) for m in
                    (acts @ proj - proj @ acts @ proj).reshape(-1, *proj.shape)])
    rl = r_res[:, None] @ l_res[None, :]
    lr = l_res[None, :] @ r_res[:, None]
    comm = np.max([np.linalg.norm(m) for m in (rl - lr).reshape(-1, *r_res.shape[1:])])
    if not (worst <= _tol.GAUGE_ACTION_TOL and comm <= _tol.GAUGE_ACTION_TOL):
        raise NotDecomposable(
            f"R/L do not act cleanly on the occupied space "
            f"(support residual {worst:.3e}, commutator {comm:.3e})")

    # L(g)R(h) L(g')R(h') = gamma_L(g,g') gamma_R(h,h') L(gg')R(hh') once R
    # and L commute on the support, so the pair multiplier is their product
    l_mult = check_projective_rep(l_res, group, tol=_tol.COMPUTED_REP_TOL)
    r_mult = check_projective_rep(r_res, group, tol=_tol.COMPUTED_REP_TOL)
    gg = direct_product(group, group)
    # the pair rep (g,h) -> L(g)R(h) restricted to the support
    pair_mats = np.einsum("gkl,hlm->ghkm", l_res, r_res).reshape(
        n * n, p.shape[1], p.shape[1])
    pair_rep = Rep(gg, pair_mats, Multiplier(gg, np.kron(l_mult.values, r_mult.values)))
    pair_catalog = []
    for la in catalog:
        for ra in catalog:
            mats = np.einsum("gij,hkl->ghikjl", la.matrices, ra.matrices).reshape(
                n * n, la.dim * ra.dim, la.dim * ra.dim)
            mult = Multiplier(gg, np.kron(la.multiplier.values, ra.multiplier.values))
            pair_catalog.append(Irrep(gg, mats, mult, f"{la.label}*{ra.label}"))
    dec = decompose_rep(pair_rep, pair_catalog)
    sectors = []
    for label, q, sl in dec.block_slices():
        l_label, r_label = label.split("*")
        basis = p @ dec.basis_change[:, sl]
        sectors.append(GaugeSector(l_label, r_label, basis))
    # Kogut-Susskind: each sector's l is equivalent to the conjugate of its r
    by_label = {irr.label: irr for irr in catalog}
    ks = all(irreps_equivalent(conjugate_rep(by_label[sec.r_label]), by_label[sec.l_label])
             for sec in sectors)
    return GaugeHilbertAnalysis(tuple(sectors), p, ks, float(np.max([worst, comm])))


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
                        catalog) -> BStructureReport:
    """Classify each (physical sector, virtual block pair) of a gauge tensor.

    In bases where the right virtual rep X and the conjugate of the left
    virtual rep Y are direct sums of catalog irreps, each sector block is
    either proportional to the elementary pattern |m><n| (irreps match) or
    zero (they do not).
    """
    group = r_rep.group
    hilb = analyze_gauge_hilbert(t, r_rep, l_rep, catalog)
    x_arr, ybar = np.array(x_mats), np.conj(np.array(y_mats))
    x_rep = Rep(group, x_arr, check_projective_rep(x_arr, group, tol=_tol.COMPUTED_REP_TOL))
    ybar_rep = Rep(group, ybar, check_projective_rep(ybar, group, tol=_tol.COMPUTED_REP_TOL))
    x_dec = decompose_rep(x_rep, catalog)
    y_dec = decompose_rep(ybar_rep, catalog)
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
                    pattern = diag * np.eye(dl * dr).reshape(dl, dr, dl, dr)
                    res = float(np.linalg.norm(blk - pattern))
                    if abs(diag) > _tol.BLOCK_CONSTANT_FLOOR:
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


def analyze_matter_local_symmetry(t: MpsTensor, theta_rep: Rep, catalog):
    """Per-irrep physical support of a matter tensor, plus the tensor-level
    residual of Theta(g) A = A.

    A locally symmetric matter MPV in canonical form is supported on the
    trivial sectors only; nontrivial-sector norms are reported.
    """
    dec = decompose_rep(theta_rep, catalog)
    u = dec.basis_change
    rotated = np.einsum("ia,ikl->akl", np.conj(u), t.entries)
    support = [(label, q, float(np.linalg.norm(rotated[sl])))
               for label, q, sl in dec.block_slices()]
    worst = 0.0
    scale = max(np.linalg.norm(t.entries), _tol.DIVISION_FLOOR)
    for g in range(theta_rep.group.order):
        lhs = np.einsum("ij,jab->iab", theta_rep.matrices[g], t.entries)
        worst = max(worst, float(np.linalg.norm(lhs - t.entries) / scale))
    trivial = {irr.label for irr in dec.irreps
               if irr.dim == 1 and np.abs(irr.matrices - 1).max() < _tol.REP_TOL}
    trivial_only = all(norm <= _tol.SECTOR_FLOOR * scale
                       for (label, q, norm) in support if label not in trivial)
    return {
        "support": support,
        "tensor_residual": worst,
        "trivial_sectors_only": trivial_only,
    }


# ----------------------------------------------------------------------------
# Gauss law


@dataclass(frozen=True)
class GaussOperators:
    r_gens: np.ndarray   # (3, dB, dB) or (k, dB, dB)
    q_gens: np.ndarray   # matter-site charges
    l_gens: np.ndarray

    def validate(self, tol=_tol.GENERATOR_TOL):
        """Worst residual of su(2) R and L, [R_a, L_b] = 0, Hermitian Q_a."""
        r, l, q = (np.asarray(g) for g in (self.r_gens, self.l_gens, self.q_gens))
        norms = [np.linalg.norm(r[:, None] @ l[None] - l[None] @ r[:, None], axis=(-2, -1)),
                 np.linalg.norm(q - np.conj(np.swapaxes(q, -1, -2)), axis=(-2, -1)),
                 [check_su2_commutators(g) for g in (r, l) if len(g) == 3]]
        worst = float(np.max([np.max(x, initial=0.0) for x in norms]))
        if not worst <= tol:
            raise BadAlgebra(f"generator relations violated (residual {worst:.3e})")
        return worst


def check_gauss_law(pair: TensorPair, ops: GaussOperators, n_max: int,
                    tol: float = PASS_TOL) -> SymmetryReport:
    """Residuals ||(R_a + Q_a + L_a around each matter site) psi|| / ||psi||."""
    ops.validate()
    return _check_windows("gauss-law", (pair.A, pair.B), range(1, n_max + 1),
                          tuple(map(LieOps, (ops.q_gens, ops.r_gens, ops.l_gens))),
                          _bab_windows, tol)


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
    applicable = span_res <= _tol.SPAN_RESIDUAL and bab.passed
    result = {
        "applicable": applicable,
        "span_residual": span_res,
        "bab_report": bab,
    }
    if applicable:
        result["global_report"] = check_global_symmetry(a_t, theta_ops, n_max, tol)
    return result
