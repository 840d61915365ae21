"""Acceptance gate: one test per criterion, each ending in a single
PASS/FAIL line (printed; also reflected in the pytest verdict)."""
import itertools
import json
import time

import numpy as np
import pytest

from gauge_mps import io
from gauge_mps.canonical import canonical_form
from gauge_mps.cli import main as cli_main
from gauge_mps.constructors import (
    build_d10_example,
    build_su2_example,
    elementary_b_block,
    gauge_global_symmetry,
    wigner_eckart_a_block,
)
from gauge_mps.errors import ZeroByWignerEckart
from gauge_mps.reps import (
    builtin_catalog,
    clebsch_gordan,
    conjugate_rep,
    intertwiner_space,
)
from gauge_mps.su2 import check_su2_commutators, su2_samples
from gauge_mps.symmetry import (
    check_gauss_law,
    check_global_symmetry,
    check_local_symmetry_gauge,
    check_local_symmetry_matter_gauge,
    extract_virtual_rep,
    projective_distance,
    rep_ops,
    verify_relation_A,
    verify_relation_B,
)
from gauge_mps.tensors import (
    MpsTensor,
    TensorPair,
    apply_transfer,
    contract_mpv,
    is_normal,
    spectral_radius,
)


def verdict(num, name, ok):
    print(f"ACCEPTANCE {num:2d} [{name}]: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {num} ({name}) failed"


# ----------------------------------------------------------------------------
# shared builders


def random_global_symmetric(name, x_labels, seed):
    """Globally symmetric matter tensor with X = direct sum of `x_labels`,
    coupling every virtual block pair through every allowed physical irrep."""
    group, irreps = builtin_catalog(name)
    by = {i.label: i for i in irreps}
    rng = np.random.default_rng(seed)
    xs = [by[lab] for lab in x_labels]
    D = sum(i.dim for i in xs)
    slices = []
    off = 0
    for irr in xs:
        slices.append((irr, slice(off, off + irr.dim)))
        off += irr.dim
    n = group.order
    x_mats = np.zeros((n, D, D), dtype=complex)
    for irr, sl in slices:
        x_mats[:, sl, sl] = irr.matrices
    phys, theta = [], []
    for J in irreps:
        ent = np.zeros((J.dim, D, D), dtype=complex)
        found = False
        for jk, slk in slices:
            for jl, sll in slices:
                cg = clebsch_gordan(conjugate_rep(jk), jl, irreps)
                mult = dict(cg.decomposition.blocks).get(J.label, 0)
                if mult:
                    we = wigner_eckart_a_block(
                        J, jk, jl, irreps,
                        alphas=rng.normal(size=mult)
                        + 1j * rng.normal(size=mult))
                    ent[:, slk, sll] = we.tensor.entries
                    found = True
        if found:
            phys.append(ent)
            theta.append(J.matrices)
    a_ent = np.concatenate(phys, axis=0)
    d = a_ent.shape[0]
    th = np.zeros((n, d, d), dtype=complex)
    off = 0
    for tm in theta:
        th[:, off:off + tm.shape[1], off:off + tm.shape[1]] = tm
        off += tm.shape[1]
    theta_ops = [(group.name(g), th[g]) for g in range(n)]
    return group, irreps, MpsTensor(a_ent), theta_ops, x_mats


# ----------------------------------------------------------------------------
# criteria


def test_criterion_01_d10_counterexample():
    t0 = time.perf_counter()
    cons = build_d10_example()
    bab = check_local_symmetry_matter_gauge(cons.pair, cons.r_ops,
                                            cons.theta_ops, cons.l_ops, 3)
    glob = check_global_symmetry(cons.A, cons.theta_ops, 1)
    bb = check_local_symmetry_gauge(cons.B, cons.r_ops, cons.l_ops, 2)
    elapsed = time.perf_counter() - t0
    ok = (bab.max_residual <= 1e-10
          and len(bab.records) == 10 * (1 + 2 + 3)        # all elements, windows
          and not glob.passed and glob.max_residual >= 0.1
          and not bb.passed and bb.max_residual >= 0.1
          and elapsed < 1.0)
    verdict(1, "d10 counterexample", ok)


def test_criterion_02_wigner_eckart_all_triples():
    t0 = time.perf_counter()
    worst = 0.0
    ok = True
    for name in ("d10", "s3"):
        group, irreps = builtin_catalog(name)
        for j in irreps:
            for l in irreps:
                present = set(clebsch_gordan(conjugate_rep(j), l,
                                             irreps).labels())
                for j0 in irreps:
                    if j0.label in present:
                        we = wigner_eckart_a_block(j0, j, l, irreps)
                        res = verify_relation_A(we.tensor, rep_ops(j0),
                                                list(j.matrices),
                                                list(l.matrices))
                        worst = max(worst, max(v for _, v in res))
                    else:
                        try:
                            wigner_eckart_a_block(j0, j, l, irreps)
                            ok = False
                        except ZeroByWignerEckart:
                            pass
    elapsed = time.perf_counter() - t0
    ok = ok and worst <= 1e-12 and elapsed < 5.0
    verdict(2, "wigner-eckart constructor", ok)


def test_criterion_03_elementary_b_block():
    worst = 0.0
    zero_ok = True
    for name in ("d10", "s3"):
        group, irreps = builtin_catalog(name)
        labels = [group.name(g) for g in range(group.order)]
        for l in irreps:
            for r in irreps:
                blk = elementary_b_block(l, r)
                r_ops = list(zip(labels, blk.r_rep.matrices))
                l_ops = list(zip(labels, blk.l_rep.matrices))
                res = verify_relation_B(blk.tensor, r_ops, l_ops,
                                        list(blk.x_rep.matrices),
                                        list(blk.y_rep.matrices))
                worst = max(worst, max(v for _, v in res))
                # request a wrong virtual irrep: forced zero tensor
                other = next((i for i in irreps
                              if i.dim != r.dim or i.label != r.label), None)
                if other is not None:
                    bad = elementary_b_block(l, r, x=other)
                    if not (bad.zero and np.all(bad.tensor.entries == 0)):
                        zero_ok = False
    verdict(3, "elementary B block", worst <= 1e-12 and zero_ok)


GAUGING_CONFIGS = [
    ("s3", ["rho1"]), ("s3", ["rho1", "triv"]), ("s3", ["rho1", "sign"]),
    ("s3", ["rho1", "rho1"]),
    ("d10", ["rho1"]), ("d10", ["rho2"]), ("d10", ["rho1", "triv"]),
    ("d10", ["rho1", "sign"]), ("d10", ["rho2", "triv"]),
    ("d10", ["rho1", "rho2"]),
]


def test_criterion_04_gauging_round_trip():
    ok = True
    for seed, (name, labs) in enumerate(GAUGING_CONFIGS):
        group, irreps, a_t, theta_ops, x_mats = random_global_symmetric(
            name, labs, seed)
        assert a_t.left_dim <= 4
        cons = gauge_global_symmetry(a_t, x_mats, group, irreps,
                                     theta_ops=theta_ops)
        bab = check_local_symmetry_matter_gauge(
            cons.pair, cons.r_ops, cons.theta_ops, cons.l_ops, 3)
        bb = check_local_symmetry_gauge(cons.B, cons.r_ops, cons.l_ops, 3)
        vr = extract_virtual_rep(cons.pair, cons.r_ops, cons.theta_ops,
                                 cons.l_ops, group=group)
        dx = max(projective_distance(a, b)
                 for a, b in zip(vr.x_mats, cons.x_mats))
        ok = ok and bab.max_residual <= 1e-9 and bb.max_residual <= 1e-9 \
            and dx <= 1e-8
    verdict(4, "gauging round trip", ok)


def _canonical_case(seed):
    """Seeded tensor zoo: random, reducible, copies, and periodic cases."""
    rng = np.random.default_rng(seed)
    kind = seed % 5

    def rand(d, D):
        return rng.normal(size=(d, D, D)) + 1j * rng.normal(size=(d, D, D))

    def scramble(ent):
        D = ent.shape[1]
        w = rng.normal(size=(D, D)) + 1j * rng.normal(size=(D, D))
        return np.einsum("ab,ibc,cd->iad", np.linalg.inv(w), ent, w)

    def dsum(e1, e2):
        d = e1.shape[0]
        D = e1.shape[1] + e2.shape[1]
        out = np.zeros((d, D, D), dtype=complex)
        out[:, :e1.shape[1], :e1.shape[1]] = e1
        out[:, e1.shape[1]:, e1.shape[1]:] = e2
        return out

    if kind == 0:       # generic normal tensor
        d, D = 2 + seed % 3, 2 + seed % 5
        return MpsTensor(rand(d, D))
    if kind == 1:       # two inequivalent blocks
        return MpsTensor(scramble(dsum(rand(2, 2), rand(2, 3))))
    if kind == 2:       # two copies of the same block, different weights
        base = rand(3, 2)
        return MpsTensor(scramble(dsum(base, 0.7 * base)))
    if kind == 3:       # periodic: shift tensor decorated with a random gauge
        shift = np.array([[[0, 1], [0, 0]], [[0, 0], [1, 0]]], dtype=complex)
        return MpsTensor(scramble(shift))
    # reducible with a periodic part
    shift = np.array([[[0, 1], [0, 0]], [[0, 0], [1, 0]]], dtype=complex)
    return MpsTensor(scramble(dsum(shift, rand(2, 2))))


def test_criterion_05_canonical_form_zoo():
    t0 = time.perf_counter()
    ok = True
    for seed in range(50):
        t = _canonical_case(seed)
        result = canonical_form(t, seed=seed)
        b = result.blocking_factor
        for n in range(1, 7):
            if t.phys_dim ** (n * b) * t.left_dim ** 2 > 2 ** 20:
                break
            want = contract_mpv(t, n * b).reshape((t.phys_dim ** b,) * n)
            got = result.reassembled_coeffs(n)
            scale = max(np.linalg.norm(want), 1e-300)
            ok = ok and np.linalg.norm(got - want) / scale <= 1e-8
        for blk in result.blocks:
            normal, _ = is_normal(blk.tensor)
            lam = np.real(np.diagonal(blk.fixed_point))
            ok = ok and normal and lam.min() > 1e-10 \
                and np.allclose(blk.fixed_point,
                                np.diag(np.diagonal(blk.fixed_point)),
                                atol=1e-8)
    elapsed = time.perf_counter() - t0
    verdict(5, "canonical form", ok and elapsed < 30.0)


def test_criterion_06_transfer_spectrum_radius():
    ok = True
    for seed in range(100):
        rng = np.random.default_rng(1000 + seed)
        d1 = 2 + seed % 4
        d2 = 2 + (seed // 4) % 4
        a = MpsTensor(rng.normal(size=(2, d1, d2))
                      + 1j * rng.normal(size=(2, d1, d2)))
        b = MpsTensor(rng.normal(size=(3, d2, d1))
                      + 1j * rng.normal(size=(3, d2, d1)))
        pair = TensorPair(a, b)
        r_ab = spectral_radius(pair.combined)
        r_ba = spectral_radius(pair.reversed)
        ok = ok and abs(r_ab - r_ba) <= 1e-10 * max(r_ab, 1.0)
    verdict(6, "transfer spectrum AB vs BA", ok)


def test_criterion_07_schur_and_cg():
    ok = True
    for name in ("d10", "s3", "z5"):
        group, irreps = builtin_catalog(name)
        for a in irreps:
            for b in irreps:
                want = 1 if a.label == b.label else 0
                ok = ok and len(intertwiner_space(a, b)) == want
        for j in irreps:
            for l in irreps:
                cg = clebsch_gordan(j, l, irreps)
                u = cg.basis_change
                d = j.dim * l.dim
                ok = ok and np.linalg.norm(
                    u.conj().T @ u - np.eye(d)) <= 1e-12 * d
                for g in range(group.order):
                    prod = np.kron(j.matrices[g], l.matrices[g])
                    rot = u.conj().T @ prod @ u
                    expect = np.zeros_like(rot)
                    for lab, q, sl in cg.decomposition.block_slices():
                        irr = next(i for i in irreps if i.label == lab)
                        expect[sl, sl] = irr.matrices[g]
                    ok = ok and np.linalg.norm(rot - expect) <= 1e-10
    verdict(7, "schur and clebsch-gordan", ok)


def test_criterion_08_su2_gauss_law():
    t0 = time.perf_counter()
    su2 = build_su2_example(r=0.5, l=0.5, j_set=(0.0, 1.0))
    comm_ok = (check_su2_commutators(su2.gauss.r_gens) <= 1e-12
               and su2.gauss.validate(tol=1e-12) <= 1e-12)
    gauss = check_gauss_law(su2.pair, su2.gauss, 3)
    gauss_ok = all(res <= 1e-9 for (n, el, site, res) in gauss.records
                   if n >= 2)
    samples = su2_samples(100, seed=0)
    r_ops, th_ops, l_ops, _, _ = su2.sampled_ops(samples)
    windows = check_local_symmetry_matter_gauge(su2.pair, r_ops, th_ops,
                                                l_ops, 3)
    elapsed = time.perf_counter() - t0
    ok = comm_ok and gauss_ok and windows.max_residual <= 1e-9 \
        and elapsed < 10.0
    verdict(8, "su2 gauss law", ok)


def criterion_9_cases():
    """The 20 constructions of criterion 9 as (construction, perturbed):
    five gaugings with a noisy copy of each, and the d10 example, five
    times clean and four times with noise on A."""
    from gauge_mps.constructors import GaugeConstruction

    cases = []
    for seed, (name, labs) in enumerate(GAUGING_CONFIGS[:5]):
        group, irreps, a_t, theta_ops, x_mats = random_global_symmetric(
            name, labs, seed)
        cons = gauge_global_symmetry(a_t, x_mats, group, irreps,
                                     theta_ops=theta_ops)
        cases.append((cons, False))
        rng = np.random.default_rng(500 + seed)
        noisy = MpsTensor(cons.A.entries
                          + 0.2 * rng.normal(size=cons.A.entries.shape))
        cases.append((GaugeConstruction(
            TensorPair(noisy, cons.B), cons.theta_ops, cons.r_ops,
            cons.l_ops, cons.x_mats, cons.y_mats, group), True))
    d10 = build_d10_example()
    cases.append((d10, False))
    for k in range(9):
        rng = np.random.default_rng(700 + k)
        if k % 2 == 0:
            cases.append((d10, False))
        else:
            noisy = MpsTensor(d10.A.entries
                              + 0.3 * rng.normal(size=d10.A.entries.shape))
            cases.append((GaugeConstruction(
                TensorPair(noisy, d10.B), d10.theta_ops, d10.r_ops,
                d10.l_ops, d10.x_mats, d10.y_mats, d10.group), True))
    return cases


def test_criterion_09_oracle_equivalence():
    """Tensor-level relation verdicts vs brute-force contraction verdicts
    on 20 constructions (half valid, half deliberately perturbed)."""
    ok = True
    cases = criterion_9_cases()
    assert len(cases) == 20
    for cons, perturbed in cases:
        rel_a = verify_relation_A(cons.pair.A, cons.theta_ops,
                                  list(cons.x_mats), list(cons.y_mats))
        rel_b = verify_relation_B(cons.pair.B, cons.r_ops, cons.l_ops,
                                  list(cons.x_mats), list(cons.y_mats))
        tensor_verdict = max(
            max(v for _, v in rel_a), max(v for _, v in rel_b)) <= 1e-9
        state_verdict = check_local_symmetry_matter_gauge(
            cons.pair, cons.r_ops, cons.theta_ops, cons.l_ops, 4).passed
        ok = ok and (tensor_verdict == state_verdict == (not perturbed))
    verdict(9, "oracle equivalence", ok)


def test_criterion_10_determinism(tmp_path):
    outputs = []
    for run in range(2):
        root = tmp_path / f"run{run}"
        root.mkdir()
        chunks = []
        for name in ("d10", "su2"):
            bundle = root / f"{name}.json"
            assert cli_main(["example", name, "--out", str(bundle)]) == 0
            report = root / f"{name}-verify.json"
            assert cli_main(["verify", "--setting", "bab", "--bundle",
                             str(bundle), "--json", "--seed", "0",
                             "--out", str(report)]) == 0
            cf = root / f"{name}-cf.json"
            assert cli_main(["canonical-form", "--bundle", str(bundle),
                             "--tensor", "A", "--seed", "0",
                             "--out", str(cf)]) == 0
            chunks += [bundle.read_bytes(), report.read_bytes(),
                       cf.read_bytes()]
        outputs.append(b"".join(chunks))
    verdict(10, "determinism", outputs[0] == outputs[1])
