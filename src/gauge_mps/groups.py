"""Finite groups as validated multiplication tables, plus the built-in families."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MissingInverse, NoIdentity, NonAssociative


@dataclass(frozen=True)
class FiniteGroup:
    """A finite group given by its multiplication table over indices 0..n-1.

    Use :func:`validate_group` to construct one from a raw table; the
    constructor itself trusts its arguments.
    """

    mult_table: np.ndarray
    identity: int
    inverse_table: np.ndarray
    element_names: tuple = None

    @property
    def order(self) -> int:
        return self.mult_table.shape[0]

    def multiply(self, a: int, b: int) -> int:
        return int(self.mult_table[a, b])

    def inverse(self, a: int) -> int:
        return int(self.inverse_table[a])

    def name(self, a: int) -> str:
        if self.element_names is not None:
            return self.element_names[a]
        return str(a)

    def __eq__(self, other):
        return isinstance(other, FiniteGroup) and np.array_equal(
            self.mult_table, other.mult_table
        )

    def __hash__(self):
        return hash(self.mult_table.tobytes())


def validate_group(table, element_names=None) -> FiniteGroup:
    """Check that `table` defines a group and locate identity and inverses.

    Raises NonAssociative / NoIdentity / MissingInverse naming the violating
    triple or element.
    """
    table = np.asarray(table, dtype=np.intp)
    if table.ndim != 2 or table.shape[0] != table.shape[1]:
        raise NoIdentity()
    n = table.shape[0]
    if table.min() < 0 or table.max() >= n:
        raise NoIdentity()

    # two-sided identity
    identity = None
    rng = np.arange(n)
    for e in range(n):
        if np.array_equal(table[e], rng) and np.array_equal(table[:, e], rng):
            identity = e
            break
    if identity is None:
        raise NoIdentity()

    # associativity: table[table[a,b],c] == table[a,table[b,c]]
    left = table[table, :]          # (a,b,c) -> (ab)c
    right = table[:, table]         # (a,b,c) -> a(bc)
    if not np.array_equal(left, right):
        bad = np.argwhere(left != right)[0]
        raise NonAssociative(*map(int, bad))

    # inverses: each row must contain the identity
    inverse = np.full(n, -1, dtype=np.intp)
    for g in range(n):
        hits = np.nonzero(table[g] == identity)[0]
        if hits.size == 0 or table[hits[0], g] != identity:
            raise MissingInverse(g)
        inverse[g] = hits[0]

    names = tuple(element_names) if element_names is not None else None
    return FiniteGroup(table, identity, inverse, names)


def _table_from_elements(elements, product):
    """Build a multiplication table from hashable element objects."""
    index = {e: i for i, e in enumerate(elements)}
    n = len(elements)
    table = np.empty((n, n), dtype=np.intp)
    for i, a in enumerate(elements):
        for j, b in enumerate(elements):
            table[i, j] = index[product(a, b)]
    return table


def cyclic_group(n: int) -> FiniteGroup:
    """Z_n with elements 0..n-1 under addition mod n."""
    a = np.arange(n)
    table = (a[:, None] + a[None, :]) % n
    names = tuple(f"g{k}" for k in range(n))
    return validate_group(table, names)


def dihedral_group(n: int) -> FiniteGroup:
    """Dihedral group of order 2n: elements r^a s^b with s r = r^-1 s.

    Element (a, b) is indexed a + n*b, so indices 0..n-1 are rotations.
    """
    elements = [(a, b) for b in range(2) for a in range(n)]

    def product(x, y):
        a, b = x
        c, d = y
        return ((a + (c if b == 0 else -c)) % n, (b + d) % 2)

    table = _table_from_elements(elements, product)
    names = tuple(
        ("e" if (a, b) == (0, 0) else f"r{a}" if b == 0 else f"sr{a}" if a else "s")
        for (a, b) in elements
    )
    return validate_group(table, names)


def symmetric_group_s3() -> FiniteGroup:
    """S3, realized as the dihedral group of order 6."""
    g = dihedral_group(3)
    return FiniteGroup(g.mult_table, g.identity, g.inverse_table, g.element_names)


_QUAT_UNITS = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]


def quaternion_group() -> FiniteGroup:
    """Q8 = {±1, ±i, ±j, ±k}."""
    # encode q = (sign, axis) with axis in {1, i, j, k}
    def decode(name):
        sign = -1 if name.startswith("-") else 1
        return sign, name.lstrip("-")

    basis = {
        ("1", "1"): (1, "1"), ("1", "i"): (1, "i"), ("1", "j"): (1, "j"), ("1", "k"): (1, "k"),
        ("i", "1"): (1, "i"), ("i", "i"): (-1, "1"), ("i", "j"): (1, "k"), ("i", "k"): (-1, "j"),
        ("j", "1"): (1, "j"), ("j", "i"): (-1, "k"), ("j", "j"): (-1, "1"), ("j", "k"): (1, "i"),
        ("k", "1"): (1, "k"), ("k", "i"): (1, "j"), ("k", "j"): (-1, "i"), ("k", "k"): (-1, "1"),
    }

    def product(x, y):
        sx, ax = decode(x)
        sy, ay = decode(y)
        s, a = basis[(ax, ay)]
        s *= sx * sy
        return ("-" if s < 0 else "") + a

    table = _table_from_elements(_QUAT_UNITS, product)
    return validate_group(table, tuple(_QUAT_UNITS))


def direct_product(g1: FiniteGroup, g2: FiniteGroup) -> FiniteGroup:
    """G1 × G2 with element (a, b) indexed a*|G2| + b.  A product of groups
    is a group: identity and inverses come from the factors, unvalidated."""
    n1, n2 = g1.order, g2.order
    t1, t2 = g1.mult_table, g2.mult_table
    table = (t1[:, None, :, None] * n2 + t2[None, :, None, :]).reshape(n1 * n2, n1 * n2)
    inverse = (g1.inverse_table[:, None] * n2 + g2.inverse_table[None, :]).reshape(-1)
    names = tuple(
        f"({g1.name(a)},{g2.name(b)})" for a in range(n1) for b in range(n2)
    )
    return FiniteGroup(table, g1.identity * n2 + g2.identity, inverse, names)
