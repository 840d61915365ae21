from dataclasses import replace
from functools import reduce

import numpy as np
import pytest

from gauge_mps.constructors import (
    build_d10_example,
    build_su2_example,
    gauge_global_symmetry,
    wigner_eckart_a_block,
)
from gauge_mps import symmetry
from gauge_mps.errors import (
    BadAlgebra,
    ExtractionDegenerate,
    NotDecomposable,
    NotNormal,
    NumericalDegeneracy,
    SymmetryError,
)
from gauge_mps.groups import direct_product
from gauge_mps.reps import (
    Irrep,
    Rep,
    builtin_catalog,
    check_projective_rep,
    clebsch_gordan,
    conjugate_rep,
    make_rep,
)
from gauge_mps.su2 import EPS_ABC, su2_samples
from gauge_mps.symmetry import (
    GaussOperators,
    LieOps,
    SymmetryReport,
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
    sampled_ops,
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


def test_report_counts_nan_residual_as_failure():
    rep = SymmetryReport("matter-local", (1,), 1e-9,
                         ((1, "a", 0, float("nan")), (1, "b", 0, 1e-12)))
    assert not rep.passed
    assert [r[1] for r in rep.failures] == ["a"]
    assert np.isnan(rep.max_residual)


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


def test_extraction_rejects_a_nan_op(d10):
    # NaN compares false either way: the word system and the relation
    # residuals must still count it as a failure
    r_ops = list(d10.r_ops)
    label, m = r_ops[1]
    m = m.copy()
    m[0, 0] = np.nan
    r_ops[1] = (label, m)
    with pytest.raises(ExtractionDegenerate):
        extract_virtual_rep(d10.pair, r_ops, d10.theta_ops, d10.l_ops,
                            group=d10.group)


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


def test_gauged_s3_field_is_kogut_susskind():
    # gauging X = rho1 gives one sector H_l x H_r with L = conj(rho1) x 1,
    # and conj(rho1) is equivalent to rho1 for S3
    group, irreps = builtin_catalog("s3")
    by = {i.label: i for i in irreps}
    cons = gauge_global_symmetry(MpsTensor(np.eye(2)[None]), by["rho1"].matrices,
                                 group, irreps)
    r_rep = make_rep(group, [m for _, m in cons.r_ops])
    l_rep = make_rep(group, [m for _, m in cons.l_ops])
    hil = analyze_gauge_hilbert(cons.B, r_rep, l_rep, irreps)
    assert [(s.l_label, s.r_label) for s in hil.sectors] == [("rho1", "rho1")]
    assert hil.kogut_susskind is True


def test_gauge_hilbert_rejects_a_nan_action(d10, d10_catalog):
    group, irreps = d10_catalog
    by = {i.label: i for i in irreps}
    r_mats = np.array([m for _, m in d10.r_ops])
    r_mats[2, 0, 0] = np.nan
    r_rep = Rep(group, r_mats, by["rho1"].multiplier)
    l_rep = Rep(group, np.array([m for _, m in d10.l_ops]), by["rho2"].multiplier)
    with pytest.raises(NotDecomposable, match="support residual nan"):
        analyze_gauge_hilbert(d10.B, r_rep, l_rep, irreps)


def test_pair_multiplier_is_the_product_of_its_factors():
    """analyze_gauge_hilbert takes the multiplier of the G x G pair rep
    (g, h) -> L(g)R(h) as kron(gamma_L, gamma_R); the reference reads it
    off all 36 pair elements of the gauged S3 field."""
    group, irreps = builtin_catalog("s3")
    by = {i.label: i for i in irreps}
    cons = gauge_global_symmetry(MpsTensor(np.eye(2)[None]), by["rho1"].matrices,
                                 group, irreps)
    # phases on each element but the identity (a coboundary) give R and L
    # multipliers other than 1, and different ones
    n = group.order
    twist = np.exp(2j * np.pi * np.random.default_rng(0).uniform(size=(2, n, 1, 1)))
    twist[:, group.identity] = 1
    r_rep, l_rep = (make_rep(group, tw * np.array([m for _, m in ops]))
                    for tw, ops in zip(twist, (cons.r_ops, cons.l_ops)))
    # the catalog twisted the same way, one copy for each side
    catalog = [Irrep(group, tw * irr.matrices,
                     check_projective_rep(tw * irr.matrices, group), side + irr.label)
               for tw, side in zip(twist, ("r:", "l:")) for irr in irreps]
    hil = analyze_gauge_hilbert(cons.B, r_rep, l_rep, catalog)
    assert [(s.l_label, s.r_label) for s in hil.sectors] == [("l:rho1", "r:rho1")]

    p = hil.support
    r_res, l_res = (np.einsum("ak,gab,bl->gkl", p.conj(), rep.matrices, p)
                    for rep in (r_rep, l_rep))
    gg = direct_product(group, group)
    pair_mats = np.einsum("gkl,hlm->ghkm", l_res, r_res).reshape(
        n * n, p.shape[1], p.shape[1])
    direct = check_projective_rep(pair_mats, gg).values
    factors = np.kron(check_projective_rep(l_res, group).values,
                      check_projective_rep(r_res, group).values)
    assert gg.order == 36
    assert not np.allclose(direct, 1)
    assert np.allclose(factors, direct, rtol=0, atol=1e-12)


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


def _loop_gauss_residual(ops):
    """GaussOperators.validate's residual, one matrix pair at a time."""
    worst = 0.0
    for gens in (ops.r_gens, ops.l_gens):
        for a in range(3):
            for b in range(3):
                expect = 1j * sum(EPS_ABC[a, b, c] * gens[c] for c in range(3))
                worst = max(worst, np.linalg.norm(gens[a] @ gens[b] - gens[b] @ gens[a]
                                                  - expect))
    for r in ops.r_gens:
        for l in ops.l_gens:
            worst = max(worst, np.linalg.norm(r @ l - l @ r))
    for q in ops.q_gens:
        worst = max(worst, np.linalg.norm(q - q.conj().T))
    return worst


@pytest.mark.parametrize("part", ["r", "q", "l"])
def test_gauss_validation_matches_loop_reference(part):
    # validate gates every su2 bundle the CLI checks through generators
    gauss = build_su2_example(r=1.0, l=0.5, j_set=(0.5, 1.5)).gauss
    rng = np.random.default_rng(3)
    gens = {"r": gauss.r_gens, "q": gauss.q_gens, "l": gauss.l_gens}
    for scale in (1e-9, 1e-3, 0.3):
        noise = rng.normal(size=gens[part].shape + (2,)) @ [1, 1j]
        ops = GaussOperators(**{f"{k}_gens": g + (scale * noise if k == part else 0)
                                for k, g in gens.items()})
        np.testing.assert_allclose(ops.validate(tol=np.inf), _loop_gauss_residual(ops),
                                   rtol=1e-12)
    gens[part] = gens[part].copy()
    gens[part][0, 0, 0] = np.nan   # the loop's max() drops a NaN; validate may not
    with pytest.raises(BadAlgebra):
        GaussOperators(**{f"{k}_gens": g for k, g in gens.items()}).validate()


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


@pytest.mark.parametrize("example", ["d10", "su2", "su2-generators"])
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
    if example == "su2-generators":   # every window sums the generators it places
        r_ops, th_ops, l_ops = (LieOps(cons.generators(name))
                                for name in ("r", "theta", "l"))
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
        summed = setting == "gauss" or example == "su2-generators"
        for n in report.n_values:
            psi = state(n)
            for label, ops in elems:
                for site, placed in windows(n, ops):
                    want.append((n, label, site, _dense_residual(psi, placed, summed)))
        assert [r[:3] for r in report.records] == [w[:3] for w in want], setting
        got = np.array([r[3] for r in report.records])
        ref = np.array([w[3] for w in want])
        assert (ref > 1e-3).mean() > 0.8, setting   # only identities stay 0
        np.testing.assert_allclose(got, ref, rtol=1e-10, err_msg=setting)


def _noisy_su2():
    cons = build_su2_example()
    a = cons.pair.A.entries
    noise = np.random.default_rng(11).normal(size=a.shape + (2,)) @ [1, 1j]
    a = a + 0.2 * np.linalg.norm(a) / np.linalg.norm(noise) * noise
    return replace(cons, pair=TensorPair(MpsTensor(a), cons.pair.B))


SU2_ORACLE_CASES = {
    **{f"r=l={s},J={j}": (lambda s=s, j=j: build_su2_example(r=s, l=s, j_set=(j,)))
       for s, js in ((0.5, (0.0, 1.0)), (1.0, (0.0, 1.0, 2.0))) for j in js},
    "noisy-A": _noisy_su2,
}


def _su2_reports(cons, ops):
    """setting -> report at N <= 3, with `ops(name)` the list of theta, r or l."""
    pair = cons.pair
    return {
        "matter-local": check_local_symmetry_matter(pair.A, ops("theta"), 3),
        "matter-global": check_global_symmetry(pair.A, ops("theta"), 3),
        "gauge-local": check_local_symmetry_gauge(pair.B, ops("r"), ops("l"), 3),
        "bab": check_local_symmetry_matter_gauge(pair, ops("r"), ops("theta"),
                                                 ops("l"), 3),
    }


def _verdicts(report):
    return {n: all(r[3] <= report.tolerance for r in report.records if r[0] == n)
            for n in report.n_values}


@pytest.mark.parametrize("case", list(SU2_ORACLE_CASES))
def test_su2_generators_agree_with_sampled_elements(case):
    # SU(2) is connected: the generators annihilate psi exactly when every
    # element leaves it invariant, so 100 sampled elements are an oracle
    cons = SU2_ORACLE_CASES[case]()
    samples = su2_samples(100, seed=0)
    lie = _su2_reports(cons, lambda name: LieOps(cons.generators(name)))
    sampled = _su2_reports(cons, lambda name: sampled_ops(cons.generators(name), samples))
    for setting, report in lie.items():
        assert _verdicts(report) == _verdicts(sampled[setting]), setting
    assert lie["bab"].records == check_gauss_law(cons.pair, cons.gauss, 3).records
    if case == "noisy-A":   # the noise breaks every window that touches A
        expected = {s: s == "gauge-local" for s in lie}
    else:   # only a singlet matter site is invariant on its own
        expected = {s: s != "matter-local" or cons.j_set == (0.0,) for s in lie}
    assert {s: r.passed for s, r in lie.items()} == expected



def test_window_check_rejects_generators_mixed_with_elements():
    cons = build_su2_example()
    elements = sampled_ops(cons.generators("l"), su2_samples(3, seed=0))
    with pytest.raises(SymmetryError, match="mixed"):
        check_local_symmetry_gauge(cons.pair.B, LieOps(cons.generators("r")), elements, 2)


# ----------------------------------------------------------------------------
# the transfer route against the dense state


@pytest.fixture(scope="module")
def criterion_9():
    from test_acceptance import criterion_9_cases

    return [cons for cons, _ in criterion_9_cases()]


def _local_reports(cons, n_max, ops):
    """setting -> report for every setting the transfer route serves, with
    `ops` holding the lists theta, r and l."""
    pair = cons.pair
    reports = {
        "matter-local": check_local_symmetry_matter(pair.A, ops["theta"], n_max),
        "gauge-local": check_local_symmetry_gauge(pair.B, ops["r"], ops["l"], n_max),
        "bab": check_local_symmetry_matter_gauge(pair, ops["r"], ops["theta"],
                                                 ops["l"], n_max),
    }
    if hasattr(cons, "gauss"):
        reports["gauss"] = check_gauss_law(pair, cons.gauss, n_max)
    return reports


@pytest.mark.parametrize("case", [f"criterion-9-{k}" for k in range(20)]
                         + list(SU2_ORACLE_CASES))
def test_transfer_route_matches_dense_state(case, criterion_9, monkeypatch):
    names = ("theta", "r", "l")
    if case in SU2_ORACLE_CASES:
        cons = SU2_ORACLE_CASES[case]()
        ops = {name: LieOps(cons.generators(name)) for name in names}
    else:
        cons = criterion_9[int(case.rsplit("-", 1)[1])]
        ops = {name: getattr(cons, f"{name}_ops") for name in names}
    pair = cons.pair
    # N <= 4, or N <= 3 where psi_4 of the B-A-B chain is large
    n_max = 4 if (pair.A.phys_dim * pair.B.phys_dim) ** 4 <= 2 ** 18 else 3

    dense_n = []

    def spy(cell, n):
        dense_n.append(n)
        return dense_state(cell, n)

    dense_state = symmetry._dense_state
    monkeypatch.setattr(symmetry, "_dense_state", spy)
    fast = _local_reports(cons, n_max, ops)
    assert set(dense_n) == {1}   # every N >= 2 took the transfer route
    monkeypatch.setattr(symmetry, "_uses_dense_state", lambda n, axes, op_lists: True)
    dense = _local_reports(cons, n_max, ops)
    for setting, report in fast.items():
        want = dense[setting]
        assert report.n_values == want.n_values, setting
        assert [r[:3] for r in report.records] == [r[:3] for r in want.records], setting
        got = np.array([r[3] for r in report.records])
        ref = np.array([r[3] for r in want.records])
        large = ref > 1e-6
        np.testing.assert_allclose(got[large], ref[large], rtol=1e-9, err_msg=setting)
        assert np.all(got[~large] <= 1e-12) and np.all(ref[~large] <= 1e-12), setting


def test_transfer_route_keeps_nan_and_rejects_negative_defects(d10):
    theta_ops = list(d10.theta_ops)
    theta_ops[1] = (theta_ops[1][0], np.full_like(theta_ops[1][1], np.nan))
    report = check_local_symmetry_matter_gauge(d10.pair, d10.r_ops, theta_ops,
                                               d10.l_ops, 3)
    assert [r[1] for r in report.failures] == [theta_ops[1][0]] * (1 + 2 + 3)
    assert np.isnan(report.max_residual)
    # a defect norm below zero by more than round-off is an error, not a clamp
    elements = [(label, (th, r, l)) for (label, th), (_, r), (_, l)
                in zip(d10.theta_ops, d10.r_ops, d10.l_ops)]
    windows = symmetry._TransferWindows((d10.A, d10.B), (0, -1, 1), elements, False)
    windows.e_defects[3] = -windows.e_window
    with pytest.raises(NumericalDegeneracy, match="negative defect norm at N=2"):
        windows.residuals(2, "bab")
