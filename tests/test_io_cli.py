import json
import os
import subprocess
import sys

import numpy as np
import pytest

import gauge_mps
from gauge_mps import io
from gauge_mps.canonical import canonical_form
from gauge_mps.cli import main, report_render
from gauge_mps.constructors import GaugeConstruction, build_d10_example, build_su2_example
from gauge_mps.errors import ParseError, SchemaError
from gauge_mps.symmetry import check_local_symmetry_matter_gauge
from gauge_mps.groups import cyclic_group, direct_product
from gauge_mps.tensors import MpsTensor, TensorPair


def test_array_round_trip():
    rng = np.random.default_rng(0)
    arr = rng.normal(size=(2, 3, 4)) + 1j * rng.normal(size=(2, 3, 4))
    assert np.array_equal(io.decode_array(io.encode_array(arr)), arr)


def test_tensor_round_trip():
    t = MpsTensor(np.random.default_rng(1).normal(size=(2, 3, 4)) + 0j)
    t2 = io.tensor_from_dict(io.tensor_to_dict(t))
    assert np.array_equal(t.entries, t2.entries)


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_decode_array_rejects_non_finite(value):
    data = io.encode_array(np.eye(2))
    data[1][0][1] = value
    with pytest.raises(SchemaError):
        io.decode_array(data)


def test_tensor_shape_mismatch_rejected():
    doc = io.tensor_to_dict(MpsTensor(np.zeros((2, 2, 2))))
    doc["phys_dim"] = 3
    with pytest.raises(SchemaError):
        io.tensor_from_dict(doc)


def test_group_round_trip_with_irreps():
    from gauge_mps.reps import builtin_catalog

    group, irreps = builtin_catalog("s3")
    doc = io.group_to_dict(group, irreps)
    g2, irr2 = io.group_from_dict(doc)
    assert g2 == group
    assert [i.label for i in irr2] == [i.label for i in irreps]
    for a, b in zip(irreps, irr2):
        assert np.allclose(a.matrices, b.matrices)


@pytest.mark.parametrize("builder", [build_d10_example, build_su2_example],
                         ids=["d10", "su2"])
def test_bundle_round_trip_byte_exact(builder):
    doc = io.bundle_to_dict(builder())
    text = io.dumps(doc)
    cons = io.bundle_from_dict(json.loads(text))
    assert io.dumps(io.bundle_to_dict(cons)) == text


def test_load_json_errors(tmp_path):
    with pytest.raises(ParseError):
        io.load_json(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ParseError) as err:
        io.load_json(bad)
    assert "line" in err.value.pointer


def test_report_render_pass_and_fail():
    cons = build_d10_example()
    rep = check_local_symmetry_matter_gauge(cons.pair, cons.r_ops,
                                            cons.theta_ops, cons.l_ops, 2)
    text = report_render(rep)
    assert "PASS" in text
    from gauge_mps.symmetry import check_global_symmetry
    rep = check_global_symmetry(cons.A, cons.theta_ops, 1)
    text = report_render(rep)
    assert "FAIL" in text
    assert "e+00" in text  # residuals in scientific notation


# ----------------------------------------------------------------------------
# CLI end to end


@pytest.fixture()
def d10_bundle(tmp_path):
    path = tmp_path / "d10.json"
    assert main(["example", "d10", "--out", str(path)]) == 0
    return str(path)


@pytest.fixture()
def su2_bundle(tmp_path):
    path = tmp_path / "su2.json"
    assert main(["example", "su2", "--out", str(path)]) == 0
    return str(path)


def test_cli_verify_exit_codes(d10_bundle, capsys):
    assert main(["verify", "--setting", "bab", "--bundle", d10_bundle,
                 "--n-max", "3"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert main(["verify", "--setting", "global", "--bundle", d10_bundle,
                 "--n-max", "1"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert "r1" in out  # failing element named


def test_cli_verify_missing_bundle_is_input_error(capsys):
    assert main(["verify", "--setting", "bab", "--bundle",
                 "/nonexistent/x.json"]) == 2


def test_cli_gauss_needs_su2(d10_bundle, su2_bundle, capsys):
    assert main(["verify", "--setting", "gauss", "--bundle", su2_bundle,
                 "--n-max", "2"]) == 0
    assert main(["verify", "--setting", "gauss", "--bundle", d10_bundle]) == 2


def test_cli_json_reports_are_deterministic(d10_bundle, tmp_path):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    for out in (out1, out2):
        assert main(["verify", "--setting", "bab", "--bundle", d10_bundle,
                     "--json", "--seed", "0", "--out", str(out)]) == 0
    b1, b2 = out1.read_bytes(), out2.read_bytes()
    assert b1 == b2
    doc = json.loads(b1)
    assert set(doc) == {"setting", "N_values", "tolerance", "max_residual",
                        "failures"}


def test_cli_canonical_form(d10_bundle, tmp_path):
    out = tmp_path / "cf.json"
    assert main(["canonical-form", "--bundle", d10_bundle, "--tensor", "A",
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert "blocking_factor" in doc and "blocks" in doc


def test_cli_decompose_rep(tmp_path):
    from gauge_mps.reps import builtin_catalog

    group, irreps = builtin_catalog("s3")
    by = {i.label: i for i in irreps}
    mats = np.array([np.kron(m1, m2) for m1, m2 in
                     zip(by["rho1"].matrices, by["rho1"].matrices)])
    path = tmp_path / "rep.json"
    io.save_json({"matrices": io.encode_array(mats)}, path)
    out = tmp_path / "dec.json"
    assert main(["decompose-rep", "--group", "s3", "--bundle", str(path),
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert sorted(tuple(b) for b in doc["blocks"]) == \
        sorted([("triv", 1), ("sign", 1), ("rho1", 1)])


def test_cli_construct_round_trip(tmp_path):
    from gauge_mps.reps import builtin_catalog, clebsch_gordan, conjugate_rep
    from gauge_mps.constructors import wigner_eckart_a_block

    group, irreps = builtin_catalog("s3")
    by = {i.label: i for i in irreps}
    j = by["rho1"]
    rng = np.random.default_rng(9)
    cg = clebsch_gordan(conjugate_rep(j), j, irreps)
    blocks, theta = [], []
    for lab, m in cg.decomposition.blocks:
        we = wigner_eckart_a_block(by[lab], j, j, irreps,
                                   alphas=rng.normal(size=m))
        blocks.append(we.tensor.entries)
        theta.append(by[lab].matrices)
    ent = np.concatenate(blocks, axis=0)
    n = group.order
    th = np.zeros((n, ent.shape[0], ent.shape[0]), dtype=complex)
    off = 0
    for tm in theta:
        th[:, off:off + tm.shape[1], off:off + tm.shape[1]] = tm
        off += tm.shape[1]
    doc = {
        "tensors": {"A": io.tensor_to_dict(MpsTensor(ent))},
        "virtual": {"x": io.encode_array(j.matrices)},
        "ops": {"theta": io.ops_to_list(
            [(group.name(g), th[g]) for g in range(n)])},
    }
    matter = tmp_path / "matter.json"
    io.save_json(doc, matter)
    gauged = tmp_path / "gauged.json"
    assert main(["construct", "--group", "s3", "--bundle", str(matter),
                 "--out", str(gauged)]) == 0
    assert main(["verify", "--setting", "bab", "--bundle", str(gauged),
                 "--n-max", "3"]) == 0


def _emptied_ops(doc):
    for name in ("theta", "r", "l"):
        doc["ops"][name] = []


def _one_r_op(doc):
    doc["ops"]["r"] = doc["ops"]["r"][:1]


def _wrong_size_r_op(doc):
    doc["ops"]["r"][0]["matrix"] = io.encode_array(np.eye(3))


def _two_r_generators(doc):
    gens = io.decode_array(doc["generators"]["r"])
    doc["generators"]["r"] = io.encode_array(gens[:2])


def _nan_theta_entry(doc):
    doc["ops"]["theta"][0]["matrix"][0][0][0] = float("nan")


def _zero_a(doc):
    # psi_N = 0 for every N: no N is left to check
    a = io.tensor_from_dict(doc["tensors"]["A"])
    doc["tensors"]["A"] = io.tensor_to_dict(a.scaled(0.0))


def _non_hermitian_r_generator(doc):
    gens = io.decode_array(doc["generators"]["r"])
    gens[0, 0, -1] += 0.5
    doc["generators"]["r"] = io.encode_array(gens)


@pytest.mark.parametrize("example,mutate,setting,n_max", [
    ("d10", _emptied_ops, "bab", 3),
    ("d10", None, "gauge-local", 1),     # N = [] for the two-site windows
    ("d10", _one_r_op, "bab", 3),
    ("su2", _two_r_generators, "gauss", 2),
    ("d10", _wrong_size_r_op, "gauge-local", 2),
    ("d10", _nan_theta_entry, "bab", 2),
    ("su2", _non_hermitian_r_generator, "bab", 2),
    ("d10", _zero_a, "bab", 3),
], ids=["empty-ops", "empty-n-range", "short-r-list", "short-gauss-r",
        "wrong-size-r-op", "nan-theta-op", "non-hermitian-r", "vanishing-state"])
def test_cli_verify_rejects_malformed_checks(tmp_path, capsys, example, mutate,
                                             setting, n_max):
    cons = build_d10_example() if example == "d10" else build_su2_example()
    doc = io.bundle_to_dict(cons)
    if mutate is not None:
        mutate(doc)
    bundle = tmp_path / "bundle.json"
    io.save_json(doc, bundle)
    report = tmp_path / "report.txt"
    assert main(["verify", "--setting", setting, "--bundle", str(bundle),
                 "--n-max", str(n_max), "--out", str(report)]) == 2
    assert not report.exists()
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("command,flag", [
    ("canonical-form", "--tol"), ("canonical-form", "--json"),
    ("construct", "--tol"), ("construct", "--seed"), ("construct", "--json"),
    ("decompose-rep", "--seed"), ("decompose-rep", "--json"),
])
def test_cli_rejects_flags_its_command_does_not_read(d10_bundle, capsys, command, flag):
    group = [] if command == "canonical-form" else ["--group", "s3"]
    value = [] if flag == "--json" else ["1"]
    with pytest.raises(SystemExit) as exc:
        main([command, "--bundle", d10_bundle, *group, flag, *value])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_cli_verdict_does_not_depend_on_tensor_scale(tmp_path):
    # the perturbed d10 pair fails bab; scaled by 1e-200 its psi_N used to
    # underflow to 0 and pass, scaled by 1e100 its norm overflowed to NaN;
    # at N = 40 the transfer matrices of the rest would do the same
    cons = build_d10_example()
    rng = np.random.default_rng(7)
    a = cons.A.entries
    noisy = MpsTensor(a + 0.2 * (rng.normal(size=a.shape) + 1j * rng.normal(size=a.shape)))
    for n_max in (3, 40):
        reports = {}
        for scale in (1.0, 1e-200, 1e100):
            doc = io.bundle_to_dict(cons)
            doc["tensors"]["A"] = io.tensor_to_dict(noisy.scaled(scale))
            bundle, out = tmp_path / "bundle.json", tmp_path / f"report{scale}.json"
            io.save_json(doc, bundle)
            assert main(["verify", "--setting", "bab", "--bundle", str(bundle),
                         "--n-max", str(n_max), "--json", "--out", str(out)]) == 1
            reports[scale] = json.loads(out.read_text())
        want = reports.pop(1.0)
        assert {f["N"] for f in want["failures"]} == set(range(1, n_max + 1))
        for got in reports.values():
            assert got["N_values"] == want["N_values"] == list(range(1, n_max + 1))
            assert [(f["N"], f["element"], f["site"]) for f in got["failures"]] == \
                [(f["N"], f["element"], f["site"]) for f in want["failures"]]
            assert np.allclose([f["residual"] for f in got["failures"]],
                               [f["residual"] for f in want["failures"]], rtol=1e-9)


def test_cli_skips_n_where_traceless_kraus_state_vanishes(tmp_path):
    # AKLT: A^m = Tr-less, so psi_1 = 0, while psi_N (N >= 2) is a singlet
    # invariant under the pi rotations about x, y and z (Z2 x Z2)
    sp = np.array([[0, 1], [0, 0]])
    aklt = MpsTensor(np.array([np.sqrt(2 / 3) * sp, -np.sqrt(1 / 3) * np.diag([1, -1]),
                               -np.sqrt(2 / 3) * sp.T], dtype=complex))
    s_x = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]]) / np.sqrt(2)
    s_y = np.array([[0, -1j, 0], [1j, 0, -1j], [0, 1j, 0]]) / np.sqrt(2)
    s_z = np.diag([1.0, 0.0, -1.0])
    rotations = [np.eye(3)] + [np.eye(3) - 2 * s @ s for s in (s_x, s_y, s_z)]
    pauli = [np.eye(2), np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]),
             np.diag([1.0, -1.0])]
    group = direct_product(cyclic_group(2), cyclic_group(2))
    ones = [np.eye(1)] * 4
    names = [group.name(g) for g in range(4)]
    cons = GaugeConstruction(TensorPair(aklt, MpsTensor(np.eye(2)[None])),
                             tuple(zip(names, rotations)), tuple(zip(names, ones)),
                             tuple(zip(names, ones)), tuple(pauli), tuple(pauli), group)
    bundle, out = tmp_path / "aklt.json", tmp_path / "report.json"
    io.save_json(io.bundle_to_dict(cons), bundle)
    assert main(["verify", "--setting", "matter-global", "--bundle", str(bundle),
                 "--n-max", "3", "--json", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["N_values"] == [2, 3]


@pytest.fixture()
def d12_product_bundle(tmp_path):
    from gauge_mps.reps import builtin_catalog, tensor_product_rep

    _, catalog = builtin_catalog("d12")
    by = {irr.label: irr for irr in catalog}
    path = tmp_path / "rho1xrho2.json"
    rep = tensor_product_rep(by["rho1"], by["rho2"])
    io.save_json({"matrices": io.encode_array(rep.matrices)}, path)
    return str(path)


@pytest.mark.parametrize("command,tol", [
    ("verify", "nan"), ("verify", "-1"), ("verify", "inf"), ("verify", "-inf"),
    ("decompose-rep", "2"), ("decompose-rep", "1"), ("decompose-rep", "nan"),
    ("decompose-rep", "-inf"),
])
def test_cli_rejects_tolerances_without_meaning(d10_bundle, d12_product_bundle,
                                                tmp_path, capsys, command, tol):
    # verify --tol nan or -1 used to FAIL an exact symmetry and --tol inf to
    # pass anything finite; decompose-rep --tol >= 1 counted every twirl
    # eigenvalue and blamed the catalog
    out = tmp_path / "out.json"
    args = (["--setting", "bab", "--bundle", d10_bundle] if command == "verify"
            else ["--group", "d12", "--bundle", d12_product_bundle])
    with pytest.raises(SystemExit) as exc:
        main([command, *args, f"--tol={tol}", "--out", str(out)])
    assert exc.value.code == 2
    assert "--tol" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("tol", ["0.5", "1e-12", "0", "-1"])
def test_cli_decompose_rep_floors_small_tolerances(d12_product_bundle, tmp_path, tol):
    out = tmp_path / "dec.json"
    assert main(["decompose-rep", "--group", "d12", "--bundle", d12_product_bundle,
                 f"--tol={tol}", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["blocks"] == \
        [["rot-sign", 1], ["rot-ref-sign", 1], ["rho1", 1]]


@pytest.mark.parametrize("setting", ["matter-local", "matter-global",
                                     "gauge-local", "bab", "gauss"])
def test_cli_su2_reports_do_not_depend_on_seed(su2_bundle, tmp_path, setting):
    reports = []
    for seed in ("0", "7"):
        out = tmp_path / f"report{seed}.json"
        code = main(["verify", "--setting", setting, "--bundle", su2_bundle,
                     "--json", "--seed", seed, "--out", str(out)])
        assert code == (1 if setting == "matter-local" else 0)
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]


def test_cli_verify_has_no_samples_flag(su2_bundle, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--setting", "bab", "--bundle", su2_bundle, "--samples", "5"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.fixture(scope="module")
def d12_bundles(tmp_path_factory):
    """The d12 gauging with X = rho1+rho2+rho1+rho2 (D = 8), clean and with
    20% noise on A."""
    from test_acceptance import random_global_symmetric
    from gauge_mps.constructors import gauge_global_symmetry

    group, irreps, a_t, theta_ops, x_mats = random_global_symmetric(
        "d12", ["rho1", "rho2", "rho1", "rho2"], 0)
    cons = gauge_global_symmetry(a_t, x_mats, group, irreps, theta_ops=theta_ops)
    assert cons.A.left_dim == 8
    a = cons.A.entries
    noise = np.random.default_rng(1).normal(size=a.shape + (2,)) @ [1, 1j]
    doc = io.bundle_to_dict(cons)
    root = tmp_path_factory.mktemp("d12")
    io.save_json(doc, root / "clean.json")
    doc["tensors"]["A"] = io.tensor_to_dict(MpsTensor(a + 0.2 * np.abs(a).max() * noise))
    io.save_json(doc, root / "perturbed.json")
    return {name: str(root / f"{name}.json") for name in ("clean", "perturbed")}


@pytest.mark.parametrize("state,code", [("clean", 0), ("perturbed", 1)])
def test_cli_bab_certifies_d12_at_large_n(d12_bundles, tmp_path, state, code):
    # the dense psi_3 of this chain already exceeds the size cap
    out = tmp_path / "report.json"
    assert main(["verify", "--setting", "bab", "--bundle", d12_bundles[state],
                 "--n-max", "64", "--json", "--out", str(out)]) == code
    report = json.loads(out.read_text())
    assert report["N_values"] == list(range(1, 65))
    if code:
        assert {f["N"] for f in report["failures"]} == set(range(1, 65))
    else:
        assert report["max_residual"] <= 1e-12


def test_cli_report_does_not_depend_on_blas_threads(d12_bundles):
    src = os.path.dirname(os.path.dirname(gauge_mps.__file__))
    reports = {}
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OMP_NUM_THREADS=threads,
                   OPENBLAS_NUM_THREADS=threads)
        reports[threads] = [subprocess.run(
            [sys.executable, "-m", "gauge_mps.cli", "verify", "--setting", "bab",
             "--bundle", d12_bundles[state], "--n-max", "16", "--json"],
            env=env, capture_output=True, timeout=120).stdout
            for state in ("clean", "perturbed")]
    assert all(reports["1"]) and reports["1"] == reports["2"]


@pytest.mark.parametrize("spin", [0.5, 1.0])
def test_cli_canonical_form_of_spin_one_matter(tmp_path, spin):
    # Tr A^i = 0 for the spin-1 matter tensor, so psi_1 vanishes and
    # round-off of the reassembled psi_1 used to read as a mismatch
    bundle, out = tmp_path / "su2.json", tmp_path / "cf.json"
    io.save_json(io.bundle_to_dict(build_su2_example(r=spin, l=spin, j_set=(1.0,))),
                 bundle)
    assert main(["canonical-form", "--bundle", str(bundle), "--tensor", "A",
                 "--out", str(out)]) == 0
    result = json.loads(out.read_text())
    assert result["blocking_factor"] == 1
    assert [len(blk["copies"]) for blk in result["blocks"]] == [1]
