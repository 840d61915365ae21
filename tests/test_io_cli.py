import json

import numpy as np
import pytest

from gauge_mps import io
from gauge_mps.canonical import canonical_form
from gauge_mps.cli import main, report_render
from gauge_mps.constructors import build_d10_example, build_su2_example
from gauge_mps.errors import ParseError, SchemaError
from gauge_mps.symmetry import check_local_symmetry_matter_gauge
from gauge_mps.tensors import MpsTensor


def test_array_round_trip():
    rng = np.random.default_rng(0)
    arr = rng.normal(size=(2, 3, 4)) + 1j * rng.normal(size=(2, 3, 4))
    assert np.array_equal(io.decode_array(io.encode_array(arr)), arr)


def test_tensor_round_trip():
    t = MpsTensor(np.random.default_rng(1).normal(size=(2, 3, 4)) + 0j)
    t2 = io.tensor_from_dict(io.tensor_to_dict(t))
    assert np.array_equal(t.entries, t2.entries)


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


@pytest.mark.parametrize("example,mutate,setting,n_max", [
    ("d10", _emptied_ops, "bab", 3),
    ("d10", None, "gauge-local", 1),     # N = [] for the two-site windows
    ("d10", _one_r_op, "bab", 3),
    ("su2", _two_r_generators, "gauss", 2),
    ("d10", _wrong_size_r_op, "gauge-local", 2),
], ids=["empty-ops", "empty-n-range", "short-r-list", "short-gauss-r",
        "wrong-size-r-op"])
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
