import numpy as np
import pytest

from gauge_mps.errors import (
    BadMultiplier,
    IncompleteCatalog,
    MultiplierMismatch,
    NonUnitary,
    NotARep,
)
from gauge_mps.groups import cyclic_group, direct_product
from gauge_mps.reps import (
    Irrep,
    Multiplier,
    Rep,
    RepDecomposition,
    _check_decomposition,
    builtin_catalog,
    check_projective_rep,
    clebsch_gordan,
    conjugate_rep,
    decompose_rep,
    intertwiner_space,
    make_rep,
    tensor_product_rep,
    trivial_multiplier,
)

CATALOG_NAMES = ["z1", "z5", "z12", "d4", "d6", "d10", "d12", "s3", "q8"]


def catalogs(names=CATALOG_NAMES):
    return [(name,) + builtin_catalog(name) for name in names]


# ----------------------------------------------------------------------------
# multipliers


def test_trivial_multiplier_validates():
    for _, group, _ in catalogs(["z5", "q8"]):
        trivial_multiplier(group).validate()


def test_multiplier_rejects_broken_cocycle():
    group = cyclic_group(3)
    vals = np.ones((3, 3), dtype=complex)
    vals[1, 1] = np.exp(0.3j)
    with pytest.raises(BadMultiplier):
        Multiplier(group, vals).validate()


def test_pauli_projective_rep_of_z2xz2():
    """The Pauli matrices realize Z2 x Z2 projectively; the multiplier is
    a nontrivial cocycle (commutator phase -1)."""
    group = direct_product(cyclic_group(2), cyclic_group(2))
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    mats = np.array([np.eye(2), sz, sx, sx @ sz])
    mult = check_projective_rep(mats, group)
    mult.validate()
    assert not mult.is_trivial()
    # commutator phase gamma(g,h)/gamma(h,g) = -1 for the anticommuting pair
    assert np.isclose(mult.values[1, 2] / mult.values[2, 1], -1)


def test_nan_matrices_and_multipliers_are_rejected():
    z2 = cyclic_group(2)
    # NaN fails the first comparison it meets, the unitarity check
    with pytest.raises(NonUnitary):
        check_projective_rep(np.full((2, 1, 1), np.nan), z2)
    with pytest.raises(NonUnitary):
        make_rep(z2, np.full((2, 1, 1), np.nan))
    vals = np.ones((2, 2), dtype=complex)
    vals[1, 1] = np.nan
    with pytest.raises(BadMultiplier):
        Multiplier(z2, vals).validate()


def test_check_rep_rejects_non_rep():
    group = cyclic_group(2)
    rng = np.random.default_rng(0)
    q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    with pytest.raises(NotARep):
        check_projective_rep(np.array([np.eye(2), q]), group)


# ----------------------------------------------------------------------------
# catalogs


@pytest.mark.parametrize("name,group,irreps", catalogs(), ids=CATALOG_NAMES)
def test_catalog_irreps_are_reps(name, group, irreps):
    labels = [irr.label for irr in irreps]
    assert len(set(labels)) == len(labels)
    for irr in irreps:
        check_projective_rep(irr.matrices, group)


@pytest.mark.parametrize("name,group,irreps", catalogs(), ids=CATALOG_NAMES)
def test_catalog_complete_squared_dims(name, group, irreps):
    assert sum(irr.dim ** 2 for irr in irreps) == group.order


@pytest.mark.parametrize("name,group,irreps", catalogs(), ids=CATALOG_NAMES)
def test_catalog_character_orthonormality(name, group, irreps):
    """Independent oracle: rows of the character table are orthonormal
    under the group-averaged inner product (trivial multipliers only)."""
    chars = np.array([irr.character() for irr in irreps])
    gram = chars @ chars.conj().T / group.order
    assert np.allclose(gram, np.eye(len(irreps)), atol=1e-10)


# ----------------------------------------------------------------------------
# intertwiners and decomposition


@pytest.mark.parametrize("name", ["d10", "s3", "z5"])
def test_schur_intertwiner_dimensions(name):
    _, group, irreps = catalogs([name])[0]
    for a in irreps:
        for b in irreps:
            dim = len(intertwiner_space(a, b))
            assert dim == (1 if a.label == b.label else 0)


def test_intertwiner_requires_matching_multiplier():
    group = direct_product(cyclic_group(2), cyclic_group(2))
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    pauli = make_rep(group, np.array([np.eye(2), sz, sx, sx @ sz]))
    linear = make_rep(group, np.array([np.eye(2), sz, np.eye(2), sz]))
    with pytest.raises(MultiplierMismatch):
        intertwiner_space(pauli, linear)


@pytest.mark.parametrize("name", ["d10", "s3", "q8"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_decompose_random_sum_matches_character_oracle(name, seed):
    _, group, irreps = catalogs([name])[0]
    rng = np.random.default_rng(seed)
    picks = rng.integers(0, len(irreps), size=3)
    mats = None
    for k in picks:
        irr = irreps[k]
        mats = irr.matrices if mats is None else np.array(
            [np.block([[m1, np.zeros((m1.shape[0], m2.shape[1]))],
                       [np.zeros((m2.shape[0], m1.shape[1])), m2]])
             for m1, m2 in zip(mats, irr.matrices)])
    q, _ = np.linalg.qr(rng.normal(size=mats[0].shape)
                        + 1j * rng.normal(size=mats[0].shape))
    mats = np.einsum("ab,gbc,dc->gad", q, mats, np.conj(q))
    rep = make_rep(group, mats)
    dec = decompose_rep(rep, irreps)
    # oracle: multiplicity from character orthogonality
    chi = rep.character()
    found = dict(dec.blocks)
    for irr in irreps:
        want = int(round(np.real(np.vdot(irr.character(), chi)) / group.order))
        assert found.get(irr.label, 0) == want
    # the basis change is unitary and block-diagonalizes every element
    u = dec.basis_change
    assert np.allclose(u.conj().T @ u, np.eye(rep.dim), atol=1e-10)


def test_decompose_incomplete_catalog_raises():
    _, group, irreps = catalogs(["d10"])[0]
    rho1 = next(i for i in irreps if i.label == "rho1")
    partial = [i for i in irreps if i.label != "rho1"]
    with pytest.raises(IncompleteCatalog):
        decompose_rep(Rep(group, rho1.matrices, rho1.multiplier), partial)


ORACLE_CATALOGS = ["z5", "d8", "s3", "q8", "d10", "d12"]


def _twirl_counts(rep, irreps):
    """Copies of each catalog irrep found by the twirl alone: the number of
    eigenvalue-1 directions of every intertwiner projector."""
    counts = {irr.label: len(intertwiner_space(irr, rep)) for irr in irreps
              if irr.multiplier.close_to(rep.multiplier)}
    return {label: m for label, m in counts.items() if m}


@pytest.mark.parametrize("name", ORACLE_CATALOGS)
def test_characters_keep_the_irreps_the_twirl_finds(name):
    """The decomposition twirls only what the characters keep; the twirl
    over the whole catalog is the oracle for which irreps, and how many
    copies, that is."""
    _, group, irreps = catalogs([name])[0]
    for j in irreps:
        for l in irreps:
            prod = tensor_product_rep(conjugate_rep(j), l)
            dec = decompose_rep(prod, irreps)
            assert dict(dec.blocks) == _twirl_counts(prod, irreps), (j.label, l.label)


def test_characters_count_copies_of_a_projective_irrep():
    # Pauli (+) Pauli of Z2 x Z2, against the Pauli irrep: two copies
    group = direct_product(cyclic_group(2), cyclic_group(2))
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    pauli = np.array([np.eye(2), sz, sx, sx @ sz])
    irr = Irrep(group, pauli, check_projective_rep(pauli, group), "pauli")
    assert not irr.multiplier.is_trivial()
    rng = np.random.default_rng(4)
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    twice = np.einsum("ab,gbc,dc->gad", q, np.kron(np.eye(2), pauli), np.conj(q))
    rep = make_rep(group, twice)
    assert _twirl_counts(rep, [irr]) == {"pauli": 2}
    assert decompose_rep(rep, [irr]).blocks == (("pauli", 2),)


@pytest.mark.parametrize("name", ORACLE_CATALOGS)
def test_decompose_without_a_present_irrep_raises(name):
    # characters skip the missing irrep; the dimension count must catch it
    _, group, irreps = catalogs([name])[0]
    prod = tensor_product_rep(conjugate_rep(irreps[-1]), irreps[-1])
    for label, _ in decompose_rep(prod, irreps).blocks:
        partial = [irr for irr in irreps if irr.label != label]
        with pytest.raises(IncompleteCatalog):
            decompose_rep(prod, partial)


def test_decompose_rejects_a_twirl_count_the_characters_contradict():
    # a tolerance of 2 keeps every twirl eigenvalue, 0 included
    _, group, irreps = catalogs(["d10"])[0]
    rho1 = next(i for i in irreps if i.label == "rho1")
    with pytest.raises(IncompleteCatalog, match="twirl finds 4 copies of rho1, "
                                                "the characters 1"):
        decompose_rep(Rep(group, rho1.matrices, rho1.multiplier), irreps, tol=2)


def test_decomposition_check_rejects_nan():
    _, group, irreps = catalogs(["d10"])[0]
    rho1 = next(i for i in irreps if i.label == "rho1")
    rep = Rep(group, rho1.matrices, rho1.multiplier)
    dec = decompose_rep(rep, irreps)
    nan_basis = RepDecomposition(dec.blocks, np.full_like(dec.basis_change, np.nan),
                                 dec.irreps)
    with pytest.raises(IncompleteCatalog, match="not unitary"):
        _check_decomposition(rep, nan_basis)
    mats = rho1.matrices.copy()
    mats[3, 0, 0] = np.nan
    with pytest.raises(IncompleteCatalog, match="residual too large at element r3"):
        _check_decomposition(Rep(group, mats, rho1.multiplier), dec)


def test_decompose_is_deterministic():
    _, group, irreps = catalogs(["s3"])[0]
    rng = np.random.default_rng(5)
    reg = np.zeros((group.order, group.order, group.order), dtype=complex)
    for g in range(group.order):
        for h in range(group.order):
            reg[g, group.multiply(g, h), h] = 1.0
    q, _ = np.linalg.qr(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))
    mats = np.einsum("ab,gbc,dc->gad", q, reg, np.conj(q))
    rep = make_rep(group, mats)
    d1 = decompose_rep(rep, irreps)
    d2 = decompose_rep(rep, irreps)
    assert d1.blocks == d2.blocks
    assert np.array_equal(d1.basis_change, d2.basis_change)


def test_regular_rep_multiplicities_equal_dims():
    for name in ("z5", "s3", "q8"):
        _, group, irreps = catalogs([name])[0]
        reg = np.zeros((group.order, group.order, group.order), dtype=complex)
        for g in range(group.order):
            for h in range(group.order):
                reg[g, group.multiply(g, h), h] = 1.0
        dec = decompose_rep(make_rep(group, reg), irreps)
        found = dict(dec.blocks)
        for irr in irreps:
            if irr.multiplier.is_trivial():
                assert found.get(irr.label, 0) == irr.dim


# ----------------------------------------------------------------------------
# conjugation and products


@pytest.mark.parametrize("name", ["d10", "q8"])
def test_conjugate_rep_multiplier_inverse(name):
    _, group, irreps = catalogs([name])[0]
    for irr in irreps:
        conj = conjugate_rep(irr)
        assert conj.multiplier.close_to(irr.multiplier.inverse())
        check_projective_rep(conj.matrices, group)


def test_tensor_product_multiplier_product():
    _, group, irreps = catalogs(["q8"])[0]
    spin = next(i for i in irreps if i.label == "spin")
    prod = tensor_product_rep(spin, spin)
    assert prod.multiplier.close_to(
        spin.multiplier.product(spin.multiplier))
    # spin x spin of Q8 contains each one-dimensional irrep once
    dec = decompose_rep(prod, irreps)
    assert dict(dec.blocks) == {"triv": 1, "chi-i": 1, "chi-j": 1, "chi-k": 1}


# ----------------------------------------------------------------------------
# Clebsch-Gordan


@pytest.mark.parametrize("name", ["d10", "s3", "z5"])
def test_cg_unitarity_and_series(name):
    _, group, irreps = catalogs([name])[0]
    for j in irreps:
        for l in irreps:
            cg = clebsch_gordan(j, l, irreps)
            u = cg.basis_change
            d = j.dim * l.dim
            assert np.linalg.norm(u.conj().T @ u - np.eye(d)) < 1e-12 * d
            # series: U^dag (D^j x D^l)(g) U equals the direct sum
            for g in range(group.order):
                prod = np.kron(j.matrices[g], l.matrices[g])
                rot = u.conj().T @ prod @ u
                expect = np.zeros_like(rot)
                for lab, q, sl in cg.decomposition.block_slices():
                    irr = next(i for i in irreps if i.label == lab)
                    expect[sl, sl] = irr.matrices[g]
                assert np.linalg.norm(rot - expect) < 1e-10


def test_cg_d10_worked_example_coefficients():
    """conj(rho1) x rho2 of the order-10 dihedral group decomposes into
    rho1 (+) rho2 with unit coefficients placing |m> x |n> directly."""
    _, group, irreps = catalogs(["d10"])[0]
    by = {i.label: i for i in irreps}
    cg = clebsch_gordan(conjugate_rep(by["rho1"]), by["rho2"], irreps)
    assert dict(cg.decomposition.blocks) == {"rho1": 1, "rho2": 1}
    c1 = cg.coeff_block("rho1")   # (M, m, n)
    c2 = cg.coeff_block("rho2")
    # weights: |rho1, 1> = |1, 1>, |rho1, 2> = |2, 2>;
    # |rho2, 1> = |1, 2>, |rho2, 2> = |2, 1>
    want1 = np.zeros((2, 2, 2)); want1[0, 0, 0] = 1; want1[1, 1, 1] = 1
    want2 = np.zeros((2, 2, 2)); want2[0, 0, 1] = 1; want2[1, 1, 0] = 1
    assert np.allclose(c1, want1, atol=1e-12)
    assert np.allclose(c2, want2, atol=1e-12)
