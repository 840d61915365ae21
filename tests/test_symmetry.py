from functools import reduce

import numpy as np
import pytest

from gauge_mps.constructors import (
    build_d10_example,
    build_su2_example,
    gauge_global_symmetry,
    wigner_eckart_a_block,
)
from gauge_mps.errors import BadAlgebra, NotNormal
from gauge_mps.reps import Rep, builtin_catalog, clebsch_gordan, conjugate_rep
from gauge_mps.su2 import su2_samples
from gauge_mps.symmetry import (
    GaussOperators,
    analyze_b_structure,
    analyze_gauge_hilbert,
    analyze_matter_local_symmetry,
    check_coupling_implies_global,
    check_every_component_invariant,
    check_gauss_law,
    check_global_symmetry,
    check_local_symmetry_gauge,
    check_local_symmetry_matter,
    check_local_symmetry_matter_gauge,
    extract_virtual_rep,
    fix_virtual_phase,
    projective_distance,
    rep_ops,
    verify_relation_A,
    verify_relation_B,
)
from gauge_mps.tensors import MpsTensor, TensorPair, contract_mpv, contract_pair_mpv


@pytest.fixture(scope="module")
def d10():
    return build_d10_example()


@pytest.fixture(scope="module")
def d10_catalog():
    return builtin_catalog("d10")


def test_report_json_schema(d10):
    rep = check_local_symmetry_matter_gauge(d10.pair, d10.r_ops, d10.theta_ops,
                                            d10.l_ops, 2)
    doc = rep.to_json_dict()
    assert set(doc) == {"setting", "N_values", "tolerance", "max_residual",
                        "failures"}
    assert doc["failures"] == []
    assert doc["N_values"] == [1, 2]


def test_single_site_check_catches_symmetric_state():
    # trivial physical action: every check passes
    t = MpsTensor(np.random.default_rng(0).normal(size=(2, 3, 3)))
    ops = [("e", np.eye(2))]
    assert check_local_symmetry_matter(t, ops, 3).passed
    assert check_global_symmetry(t, ops, 3).passed


def test_global_symmetry_detects_basis_rotation_invariance():
    # GHZ-type state is invariant under simultaneous spin flip
    ghz = MpsTensor(np.array([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]))
    flip = np.array([[0.0, 1.0], [1.0, 0.0]])
    ops = [("x", flip)]
    assert check_global_symmetry(ghz, ops, 4).passed
    assert not check_local_symmetry_matter(ghz, ops, 2).passed


def test_relation_residuals_scale_invariant(d10):
    big = MpsTensor(1e6 * d10.A.entries)
    res = verify_relation_A(big, d10.theta_ops, list(d10.x_mats),
                            list(d10.y_mats))
    assert max(r for _, r in res) < 1e-12


def test_relation_violated_reports_order_one(d10):
    wrong = [np.eye(2, dtype=complex) for _ in d10.x_mats]
    res = verify_relation_A(d10.A, d10.theta_ops, wrong, wrong)
    assert max(r for _, r in res) > 0.1


def test_extraction_requires_normality(d10):
    a = MpsTensor(np.zeros((2, 2, 2)))
    with pytest.raises(NotNormal):
        extract_virtual_rep(TensorPair(a, d10.B), d10.r_ops, d10.theta_ops,
                            d10.l_ops)


def test_extraction_multiplier_is_cocycle(d10):
    vr = extract_virtual_rep(d10.pair, d10.r_ops, d10.theta_ops, d10.l_ops,
                             group=d10.group)
    from gauge_mps.reps import Multiplier
    Multiplier(d10.group, vr.x_multiplier).validate(tol=1e-6)
    Multiplier(d10.group, vr.y_multiplier).validate(tol=1e-6)


def test_fix_virtual_phase_determinant_real():
    rng = np.random.default_rng(1)
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    fixed = fix_virtual_phase(q)
    assert abs(np.angle(np.linalg.det(fixed))) < 1e-10


def test_projective_distance_mod_phase():
    rng = np.random.default_rng(2)
    m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    assert projective_distance(m, np.exp(0.77j) * m) < 1e-12
    assert projective_distance(m, m + np.eye(3) * np.linalg.norm(m)) > 0.1


def test_gauge_hilbert_on_d10(d10, d10_catalog):
    group, irreps = d10_catalog
    by = {i.label: i for i in irreps}
    r_rep = Rep(group, np.array([m for _, m in d10.r_ops]), by["rho1"].multiplier)
    l_rep = Rep(group, np.array([m for _, m in d10.l_ops]), by["rho2"].multiplier)
    hil = analyze_gauge_hilbert(d10.B, r_rep, l_rep, irreps)
    assert [(s.l_label, s.r_label) for s in hil.sectors] == [("rho2", "rho1")]
    # conj(rho1) ~ rho1 != rho2, so this is not a Kogut-Susskind pair
    assert not hil.kogut_susskind
    bs = analyze_b_structure(d10.B, r_rep, l_rep, list(d10.x_mats),
                             list(d10.y_mats), irreps)
    assert bs.max_residual < 1e-10
    assert not bs.normality_contradiction


def test_matter_local_support_analysis(d10_catalog):
    group, irreps = d10_catalog
    by = {i.label: i for i in irreps}
    # physical rep triv (+) rho1; the tensor lives on the trivial sector only
    mats = np.zeros((group.order, 3, 3), dtype=complex)
    for g in range(group.order):
        mats[g, 0, 0] = 1.0
        mats[g, 1:, 1:] = by["rho1"].matrices[g]
    theta = Rep(group, mats, by["triv"].multiplier)
    ent = np.zeros((3, 2, 2), dtype=complex)
    ent[0] = np.eye(2)
    info = analyze_matter_local_symmetry(MpsTensor(ent), theta, irreps)
    assert info["trivial_sectors_only"]
    assert info["tensor_residual"] < 1e-12
    ent[1] = np.eye(2)
    info = analyze_matter_local_symmetry(MpsTensor(ent), theta, irreps)
    assert not info["trivial_sectors_only"]


def test_gauss_operator_validation():
    su2 = build_su2_example()
    assert su2.gauss.validate() < 1e-12
    broken = GaussOperators(su2.gauss.r_gens * 1.01, su2.gauss.q_gens,
                            su2.gauss.l_gens)
    with pytest.raises(BadAlgebra):
        broken.validate()


def test_gauss_law_rejects_wrong_charges():
    su2 = build_su2_example()
    wrong = GaussOperators(su2.gauss.r_gens, 2 * su2.gauss.q_gens,
                           su2.gauss.l_gens)
    rep = check_gauss_law(su2.pair, wrong, 2)
    assert not rep.passed


def test_every_component_invariant_on_stacked_pairs(d10):
    # two stacked copies of the D10 pair: both components stay symmetric
    a = np.zeros((2, 4, 4), dtype=complex)
    b = np.zeros((4, 4, 4), dtype=complex)
    a[:, :2, :2] = d10.A.entries
    a[:, 2:, 2:] = 0.5 * d10.A.entries
    b[:, :2, :2] = d10.B.entries
    b[:, 2:, 2:] = d10.B.entries
    pair = TensorPair(MpsTensor(a), MpsTensor(b))
    reports, blocking = check_every_component_invariant(
        pair, d10.r_ops, d10.theta_ops, d10.l_ops, 2)
    assert blocking == 1
    assert len(reports) == 2
    assert all(r.passed for r in reports)


def test_coupling_implies_global_on_gauged_tensor():
    group, irreps = builtin_catalog("s3")
    by = {i.label: i for i in irreps}
    j = by["rho1"]
    rng = np.random.default_rng(3)
    cg = clebsch_gordan(conjugate_rep(j), j, irreps)
    ent, theta = [], []
    for lab, m in cg.decomposition.blocks:
        we = wigner_eckart_a_block(by[lab], j, j, irreps,
                                   alphas=rng.normal(size=m))
        ent.append(we.tensor.entries)
        theta.append(by[lab].matrices)
    a_ent = np.concatenate(ent, axis=0)
    n = group.order
    d = a_ent.shape[0]
    th = np.zeros((n, d, d), dtype=complex)
    off = 0
    for tm in theta:
        th[:, off:off + tm.shape[1], off:off + tm.shape[1]] = tm
        off += tm.shape[1]
    theta_ops = [(group.name(g), th[g]) for g in range(n)]
    cons = gauge_global_symmetry(MpsTensor(a_ent), list(j.matrices), group,
                                 irreps, theta_ops=theta_ops)
    res = check_coupling_implies_global(cons.A, cons.B, cons.theta_ops,
                                        cons.r_ops, cons.l_ops)
    assert res["applicable"]
    assert res["global_report"].passed


def test_su2_windows_and_gauss(d10):
    su2 = build_su2_example()
    samples = su2_samples(20, seed=1)
    r_ops, th_ops, l_ops, xs, ys = su2.sampled_ops(samples)
    assert check_local_symmetry_matter_gauge(su2.pair, r_ops, th_ops, l_ops,
                                             2).passed
    assert check_gauss_law(su2.pair, su2.gauss, 3).passed
    assert max(r for _, r in verify_relation_A(su2.pair.A, th_ops, xs, ys)) < 1e-12
    assert max(r for _, r in verify_relation_B(su2.pair.B, r_ops, l_ops,
                                               xs, ys)) < 1e-12


def _dense_residual(psi, placed, summed):
    """||O psi - psi|| / ||psi|| (or ||sum_j O_j psi|| / ||psi||) with O
    the Kronecker product over the whole chain; `placed` lists (site, op) in
    the order the ops act."""
    vec = psi.reshape(-1)

    def full(pairs):
        mats = [np.eye(dim) for dim in psi.shape]
        for site, op in pairs:
            mats[site] = op @ mats[site]
        return reduce(np.kron, mats)

    if summed:
        out = sum(full([pair]) @ vec for pair in placed)
    else:
        out = full(placed) @ vec - vec
    return np.linalg.norm(out) / np.linalg.norm(vec)


@pytest.mark.parametrize("example", ["d10", "su2"])
def test_window_axes_match_dense_reference(example):
    rng = np.random.default_rng(5)

    def noisy(t):   # no window leaves the perturbed state invariant
        noise = rng.normal(size=t.entries.shape) + 1j * rng.normal(size=t.entries.shape)
        return MpsTensor(t.entries + 0.3 * noise)

    if example == "d10":
        cons = build_d10_example()
        r_ops, th_ops, l_ops = cons.r_ops, cons.theta_ops, cons.l_ops
    else:   # spin-1 matter keeps the N = 3 pair chain at 12^3 amplitudes
        cons = build_su2_example(j_set=(1.0,))
        r_ops, th_ops, l_ops, _, _ = cons.sampled_ops(su2_samples(2, seed=4))
    pair = TensorPair(noisy(cons.pair.A), noisy(cons.pair.B))
    a_t, b_t = pair.A, pair.B

    def bab(n, ops):
        return [(k, [(2 * k, ops[0]), ((2 * k - 1) % (2 * n), ops[1]),
                     (2 * k + 1, ops[2])]) for k in range(n)]

    def elements(*op_lists):
        return [(lbl, [m for _, m in ops]) for (lbl, _), ops
                in zip(op_lists[0], zip(*op_lists))]

    # setting -> (report, state, elements, windows(N, ops) -> [(site, placed)])
    cases = {
        "matter-local": (check_local_symmetry_matter(a_t, th_ops, 3),
                         lambda n: contract_mpv(a_t, n), elements(th_ops),
                         lambda n, ops: [(0, [(0, ops[0])])]),
        "matter-global": (check_global_symmetry(a_t, th_ops, 3),
                          lambda n: contract_mpv(a_t, n), elements(th_ops),
                          lambda n, ops: [(-1, [(s, ops[0]) for s in range(n)])]),
        "gauge-local": (check_local_symmetry_gauge(b_t, r_ops, l_ops, 3),
                        lambda n: contract_mpv(b_t, n), elements(r_ops, l_ops),
                        lambda n, ops: [(k, [(k, ops[0]), ((k + 1) % n, ops[1])])
                                        for k in range(n)]),
        "bab": (check_local_symmetry_matter_gauge(pair, r_ops, th_ops, l_ops, 3),
                lambda n: contract_pair_mpv(pair, n),
                elements(r_ops, th_ops, l_ops),
                lambda n, ops: bab(n, [ops[1], ops[0], ops[2]])),
    }
    if example == "su2":
        gens = [[(f"a{a + 1}", g) for a, g in enumerate(gs)] for gs in
                (cons.gauss.q_gens, cons.gauss.r_gens, cons.gauss.l_gens)]
        cases["gauss"] = (check_gauss_law(pair, cons.gauss, 3),
                          lambda n: contract_pair_mpv(pair, n),
                          elements(*gens), bab)
    for setting, (report, state, elems, windows) in cases.items():
        want = []
        for n in report.n_values:
            psi = state(n)
            for label, ops in elems:
                for site, placed in windows(n, ops):
                    want.append((n, label, site,
                                 _dense_residual(psi, placed, setting == "gauss")))
        assert [r[:3] for r in report.records] == [w[:3] for w in want], setting
        got = np.array([r[3] for r in report.records])
        ref = np.array([w[3] for w in want])
        assert (ref > 1e-3).mean() > 0.8, setting   # only identities stay 0
        np.testing.assert_allclose(got, ref, rtol=1e-10, err_msg=setting)
