import numpy as np
import pytest

from gauge_mps.canonical import (
    canonical_form,
    find_gauge_between,
    pair_decompose,
)
from gauge_mps.errors import NotEquivalent
from gauge_mps.tensors import (
    MpsTensor,
    TensorPair,
    apply_transfer,
    contract_mpv,
    is_normal,
)


def random_tensor(d, D, seed):
    rng = np.random.default_rng(seed)
    return MpsTensor(rng.normal(size=(d, D, D)) + 1j * rng.normal(size=(d, D, D)))


def direct_sum(*tensors):
    d = tensors[0].phys_dim
    D = sum(t.left_dim for t in tensors)
    out = np.zeros((d, D, D), dtype=complex)
    off = 0
    for t in tensors:
        out[:, off:off + t.left_dim, off:off + t.left_dim] = t.entries
        off += t.left_dim
    return MpsTensor(out)


def scramble(t, seed):
    rng = np.random.default_rng(seed)
    D = t.left_dim
    w = rng.normal(size=(D, D)) + 1j * rng.normal(size=(D, D))
    return t.conjugated_by(w)


def assert_reassembles(t, result, n_max=4):
    for n in range(1, n_max + 1):
        want = contract_mpv(t, n * result.blocking_factor).reshape(
            (t.phys_dim ** result.blocking_factor,) * n)
        got = result.reassembled_coeffs(n)
        scale = max(np.linalg.norm(want), 1e-300)
        assert np.linalg.norm(got - want) / scale < 1e-8


def assert_blocks_canonical(result):
    for blk in result.blocks:
        ok, _ = is_normal(blk.tensor)
        assert ok
        lam = blk.fixed_point
        # positive diagonal, unit trace, descending
        assert np.allclose(lam, np.diag(np.diagonal(lam)), atol=1e-8)
        diag = np.real(np.diagonal(lam))
        assert diag.min() > 1e-10
        assert np.isclose(diag.sum(), 1.0, atol=1e-8)
        assert all(diag[i] >= diag[i + 1] - 1e-10 for i in range(len(diag) - 1))
        # CFII: sum_i A^i(dag) A^i = identity (left fixed point is 1)
        eye = np.eye(blk.tensor.left_dim, dtype=complex)
        back = sum(m.conj().T @ m for m in blk.tensor.matrices())
        assert np.linalg.norm(back - eye) < 1e-7
        # and the right fixed point is the reported diagonal Lambda
        assert np.linalg.norm(apply_transfer(blk.tensor, lam) - lam) < 1e-7


@pytest.mark.parametrize("seed", range(5))
def test_random_tensor_is_single_normal_block(seed):
    t = random_tensor(2, 3, seed)
    result = canonical_form(t, seed=seed)
    assert result.blocking_factor == 1
    assert len(result.blocks) == 1
    assert len(result.blocks[0].copies) == 1
    assert_blocks_canonical(result)
    assert_reassembles(t, result)


def test_two_inequivalent_blocks_found():
    t = scramble(direct_sum(random_tensor(2, 2, 1), random_tensor(2, 3, 2)), 3)
    result = canonical_form(t)
    assert sorted(b.tensor.left_dim for b in result.blocks) == [2, 3]
    assert_blocks_canonical(result)
    assert_reassembles(t, result)


def test_two_copies_of_same_block_grouped():
    base = random_tensor(2, 2, 4)
    t = scramble(direct_sum(base, base.scaled(0.5)), 5)
    result = canonical_form(t)
    assert len(result.blocks) == 1
    assert len(result.blocks[0].copies) == 2
    mus = sorted(abs(mu) for (mu, _) in result.blocks[0].copies)
    assert np.isclose(mus[1] / mus[0], 2.0, atol=1e-7)
    assert_reassembles(t, result)


def test_periodic_tensor_needs_blocking():
    # shift tensor: period 2, becomes normal after blocking two sites
    shift = MpsTensor(np.array([[[0, 1], [0, 0]], [[0, 0], [1, 0]]], dtype=complex))
    result = canonical_form(shift)
    assert result.blocking_factor == 2
    assert_blocks_canonical(result)
    assert_reassembles(shift, result)


def test_zero_radius_directions_dropped():
    # upper-triangular junk around a normal core contributes nothing
    core = random_tensor(2, 2, 6)
    t = np.zeros((2, 3, 3), dtype=complex)
    t[:, :2, :2] = core.entries
    t[:, :2, 2] = np.random.default_rng(0).normal(size=(2, 2))
    t = scramble(MpsTensor(t), 7)
    result = canonical_form(t)
    assert len(result.blocks) == 1
    assert result.blocks[0].tensor.left_dim == 2
    assert_reassembles(t, result)


@pytest.mark.parametrize("seed", range(4))
def test_gauge_found_between_conjugated_tensors(seed):
    t1 = random_tensor(2, 3, 40 + seed)
    rng = np.random.default_rng(100 + seed)
    u, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    t2 = MpsTensor(np.einsum("ab,ibc,cd->iad", u.conj().T, t1.entries, u))
    rel = find_gauge_between(t1, t2, seed=seed)

    def leaves(cf):
        return [blk.tensor.conjugated_by(v).scaled(mu)
                for blk in cf.blocks for (mu, v) in blk.copies]

    l1 = leaves(canonical_form(t1, seed=seed))
    l2 = leaves(canonical_form(t2, seed=seed))
    # invariant: each matched copy pair is conjugate up to the reported phase
    for q, (x, ph) in enumerate(zip(rel.x_blocks, rel.phases)):
        got = l1[q].conjugated_by(x).scaled(ph)
        want = l2[rel.permutation[q]]
        assert np.linalg.norm(got.entries - want.entries) < \
            1e-7 * np.linalg.norm(want.entries)


def test_gauge_rejects_inequivalent():
    with pytest.raises(NotEquivalent):
        find_gauge_between(random_tensor(2, 3, 50), random_tensor(2, 3, 51))


def test_pair_decompose_recovers_components():
    rng = np.random.default_rng(8)
    a1 = MpsTensor(rng.normal(size=(2, 2, 3)) + 1j * rng.normal(size=(2, 2, 3)))
    b1 = MpsTensor(rng.normal(size=(2, 3, 2)) + 1j * rng.normal(size=(2, 3, 2)))
    a2 = MpsTensor(rng.normal(size=(2, 2, 2)) + 1j * rng.normal(size=(2, 2, 2)))
    b2 = MpsTensor(rng.normal(size=(2, 2, 2)) + 1j * rng.normal(size=(2, 2, 2)))
    a = np.zeros((2, 4, 5), dtype=complex)
    b = np.zeros((2, 5, 4), dtype=complex)
    a[:, :2, :3] = a1.entries
    a[:, 2:, 3:] = a2.entries
    b[:, :3, :2] = b1.entries
    b[:, 3:, 2:] = b2.entries
    pair = TensorPair(MpsTensor(a), MpsTensor(b))
    comps, blocking = pair_decompose(pair)
    assert blocking == 1
    assert len(comps) == 2
    for a_c, b_c, _mu in comps:
        ok_ab, _ = is_normal(TensorPair(a_c, b_c).combined)
        ok_ba, _ = is_normal(TensorPair(a_c, b_c).reversed)
        assert ok_ab and ok_ba


def test_canonical_form_when_psi_1_vanishes():
    # AKLT: Tr A^i = 0, so psi_1 = 0 and the reassembly check must measure
    # round-off against ||A||^N, not against the zero coefficients alone
    sp = np.array([[0, 1], [0, 0]])
    aklt = MpsTensor(np.array([np.sqrt(2 / 3) * sp, -np.sqrt(1 / 3) * np.diag([1, -1]),
                               -np.sqrt(2 / 3) * sp.T], dtype=complex))
    result = canonical_form(aklt)
    assert result.blocking_factor == 1
    assert [len(blk.copies) for blk in result.blocks] == [1]
    assert np.abs(result.reassembled_coeffs(1)).max() <= 1e-15
    for n in (2, 3, 4):
        want = contract_mpv(aklt, n)
        assert np.linalg.norm(result.reassembled_coeffs(n) - want) <= \
            1e-10 * np.linalg.norm(want)
