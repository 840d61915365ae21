import numpy as np
import pytest

from gauge_mps.errors import MissingInverse, NoIdentity, NonAssociative
from gauge_mps.groups import (
    cyclic_group,
    dihedral_group,
    direct_product,
    quaternion_group,
    symmetric_group_s3,
    validate_group,
)

ALL_GROUPS = [
    cyclic_group(1), cyclic_group(5), cyclic_group(12),
    dihedral_group(2), dihedral_group(3), dihedral_group(5), dihedral_group(6),
    symmetric_group_s3(), quaternion_group(),
]


@pytest.mark.parametrize("group", ALL_GROUPS, ids=lambda g: f"order{g.order}")
def test_group_axioms(group):
    n = group.order
    t = group.mult_table
    e = group.identity
    # associativity: t[t[a,b],c] == t[a,t[b,c]]
    assert np.array_equal(t[t, :], t[:, t])
    # identity and inverses
    assert all(t[e, a] == a and t[a, e] == a for a in range(n))
    assert all(t[a, group.inverse(a)] == e for a in range(n))
    # revalidation reproduces identity/inverses
    again = validate_group(t, group.element_names)
    assert again.identity == e
    assert np.array_equal(again.inverse_table, group.inverse_table)


def test_validate_rejects_non_associative():
    table = np.array([[0, 1], [1, 1]])
    with pytest.raises((NonAssociative, MissingInverse)):
        validate_group(table)


def test_validate_rejects_no_identity():
    # left shift table: no two-sided identity
    table = np.array([[1, 0, 2], [2, 1, 0], [0, 2, 1]])
    with pytest.raises((NoIdentity, NonAssociative)):
        validate_group(table)


def test_cyclic_structure():
    g = cyclic_group(6)
    assert g.multiply(2, 5) == 1
    assert g.inverse(2) == 4


def test_dihedral_relations():
    # r^n = e, s^2 = e, s r s = r^-1
    for n in (3, 5, 6):
        g = dihedral_group(n)
        names = {g.name(k): k for k in range(g.order)}
        r, s = names["r1"], names["s"]
        acc = g.identity
        for _ in range(n):
            acc = g.multiply(acc, r)
        assert acc == g.identity
        assert g.multiply(s, s) == g.identity
        srs = g.multiply(g.multiply(s, r), s)
        assert srs == g.inverse(r)


def test_s3_matches_dihedral_3():
    assert np.array_equal(symmetric_group_s3().mult_table,
                          dihedral_group(3).mult_table)


def test_quaternion_center():
    g = quaternion_group()
    names = {g.name(k): k for k in range(g.order)}
    i, j = names["i"], names["j"]
    ij = g.multiply(i, j)
    ji = g.multiply(j, i)
    assert g.name(ij) == "k"
    assert g.name(ji) == "-k"
    assert g.multiply(i, i) == names["-1"]


def test_direct_product_order_and_commuting_factors():
    g = direct_product(cyclic_group(3), dihedral_group(2))
    assert g.order == 12
    again = validate_group(g.mult_table, g.element_names)
    assert again.identity == g.identity


@pytest.mark.parametrize("g1,g2", [(cyclic_group(2), cyclic_group(2)),
                                   (symmetric_group_s3(), symmetric_group_s3()),
                                   (quaternion_group(), cyclic_group(3)),
                                   (dihedral_group(6), dihedral_group(6))],
                         ids=["z2xz2", "s3xs3", "q8xz3", "d12xd12"])
def test_direct_product_reads_identity_and_inverses_off_its_factors(g1, g2):
    g = direct_product(g1, g2)
    again = validate_group(g.mult_table, g.element_names)
    assert g.identity == again.identity
    assert np.array_equal(g.inverse_table, again.inverse_table)
    assert g.element_names == again.element_names
