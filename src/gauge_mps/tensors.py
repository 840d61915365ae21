"""MPV tensors: contraction, blocking, transfer (CP) maps, injectivity,
normality."""
from __future__ import annotations

import os
from dataclasses import dataclass
from math import gcd

import numpy as np

from .errors import DimMismatch, SizeLimit

DEFAULT_SIZE_CAP = 2 ** 24
RANK_CUTOFF = 1e-9  # relative singular-value cutoff for rank decisions


def size_cap() -> int:
    return int(os.environ.get("GAUGE_MPS_SIZE_LIMIT", DEFAULT_SIZE_CAP))


@dataclass(frozen=True)
class MpsTensor:
    """Rank-3 tensor, index order (physical, left bond, right bond)."""

    entries: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.entries, dtype=complex)
        if arr.ndim != 3:
            raise DimMismatch("tensor entries must have shape (d, D1, D2)")
        if not np.all(np.isfinite(arr)):
            raise DimMismatch("tensor entries must be finite")
        object.__setattr__(self, "entries", arr)

    @property
    def phys_dim(self) -> int:
        return self.entries.shape[0]

    @property
    def left_dim(self) -> int:
        return self.entries.shape[1]

    @property
    def right_dim(self) -> int:
        return self.entries.shape[2]

    @property
    def is_square(self) -> bool:
        return self.left_dim == self.right_dim

    def matrices(self):
        return [self.entries[i] for i in range(self.phys_dim)]

    @classmethod
    def from_matrices(cls, mats) -> "MpsTensor":
        return cls(np.array(mats, dtype=complex))

    def scaled(self, c) -> "MpsTensor":
        return MpsTensor(c * self.entries)

    def conjugated_by(self, w, w_inv=None) -> "MpsTensor":
        """A^i -> w^-1 A^i w (square tensors only)."""
        if w_inv is None:
            w_inv = np.linalg.inv(w)
        return MpsTensor(np.einsum("ab,ibc,cd->iad", w_inv, self.entries, w))


@dataclass(frozen=True)
class TensorPair:
    """Alternating A (matter) and B (gauge field) tensors on a ring."""

    A: MpsTensor
    B: MpsTensor

    def __post_init__(self):
        if self.A.right_dim != self.B.left_dim or self.B.right_dim != self.A.left_dim:
            raise DimMismatch("pair bond dimensions do not chain")

    @property
    def combined(self) -> MpsTensor:
        """The two-site tensor (AB)^{i,j} = A^i B^j with physical index i*dB+j."""
        return _two_site(self.A, self.B)

    @property
    def reversed(self) -> MpsTensor:
        """(BA)^{j,i} = B^j A^i."""
        return _two_site(self.B, self.A)


def _two_site(first: MpsTensor, second: MpsTensor) -> MpsTensor:
    prod = np.einsum("iab,jbc->ijac", first.entries, second.entries)
    return MpsTensor(prod.reshape(first.phys_dim * second.phys_dim,
                                  first.left_dim, second.right_dim))


def _check_size(total, cap=None):
    cap = cap if cap is not None else size_cap()
    if total > cap:
        raise SizeLimit(total, cap)


def contract_mpv(t: MpsTensor, n: int, cap=None) -> np.ndarray:
    """Coefficients Tr(A^{i1}...A^{iN}) as an array of shape (d,)*N."""
    if not t.is_square:
        raise DimMismatch("contraction needs matching bond dimensions")
    coeffs = np.trace(block(t, n, cap).entries, axis1=1, axis2=2)
    return coeffs.reshape((t.phys_dim,) * n)


def contract_pair_mpv(p: TensorPair, n_pairs: int, cap=None) -> np.ndarray:
    """Coefficients of the alternating chain, shape (dA, dB)*N."""
    dA, dB = p.A.phys_dim, p.B.phys_dim
    coeffs = contract_mpv(p.combined, n_pairs, cap=cap)
    return coeffs.reshape((dA, dB) * n_pairs)


def block(t: MpsTensor, b: int, cap=None) -> MpsTensor:
    """b-fold blocking: matrices indexed by (i1..ib) are ordered products."""
    _check_size(t.phys_dim ** b * t.left_dim * t.right_dim, cap)
    if b == 1:
        return t
    prod = t.entries
    for _ in range(b - 1):
        prod = np.einsum("aij,bjk->abik", prod.reshape(-1, prod.shape[-2], prod.shape[-1]),
                         t.entries)
        prod = prod.reshape(-1, prod.shape[-2], prod.shape[-1])
    return MpsTensor(prod)


def apply_transfer(t: MpsTensor, x: np.ndarray, other: MpsTensor = None) -> np.ndarray:
    """E(X) = sum_i A^i X B^i(dag); the mixed map when `other` is given."""
    other = other if other is not None else t
    x = np.asarray(x, dtype=complex)
    if x.shape != (t.right_dim, other.right_dim):
        raise DimMismatch("fixed-point argument has wrong shape")
    return np.einsum("iab,bc,idc->ad", t.entries, x, np.conj(other.entries))


def transfer_matrix(t: MpsTensor, other: MpsTensor = None) -> np.ndarray:
    """Matrix of E acting on row-major vec(X): sum_i kron(A^i, conj(B^i))."""
    other = other if other is not None else t
    d1 = t.left_dim * other.left_dim
    d2 = t.right_dim * other.right_dim
    out = np.zeros((d1, d2), dtype=complex)
    for i in range(t.phys_dim):
        out += np.kron(t.entries[i], np.conj(other.entries[i]))
    return out


def spectral_radius(t: MpsTensor) -> float:
    if not t.is_square:
        raise DimMismatch("spectral radius needs a square tensor")
    return float(np.max(np.abs(np.linalg.eigvals(transfer_matrix(t)))))


def _span_rank(mats, tol=RANK_CUTOFF):
    m = np.stack([a.reshape(-1) for a in mats])
    s = np.linalg.svd(m, compute_uv=False)
    if s.size == 0 or s[0] == 0:
        return 0
    return int(np.sum(s > tol * s[0]))


def is_injective(t: MpsTensor, tol=RANK_CUTOFF) -> bool:
    """True iff span{A^i} is the full matrix algebra."""
    if not t.is_square:
        raise DimMismatch("injectivity needs a square tensor")
    return _span_rank(t.matrices(), tol) == t.left_dim ** 2

def injectivity_length(t: MpsTensor, max_len: int = None, tol=RANK_CUTOFF):
    """Smallest L with span{A^{i1}...A^{iL}} full, or None up to max_len.

    The search is capped (default D^4) since a sharp general bound is not
    assumed; None means 'not injective within the cap'.
    """
    D = t.left_dim
    full = D * D
    if max_len is None:
        max_len = D ** 4
    # orthonormal basis of the exact-length-L span, grown one site at a time
    basis = _orth_basis([a.reshape(-1) for a in t.matrices()], tol)
    for length in range(1, max_len + 1):
        if basis.shape[0] == full:
            return length
        if length == max_len:
            break
        nxt = []
        for v in basis:
            m = v.reshape(D, D)
            for a in t.matrices():
                nxt.append((m @ a).reshape(-1))
        basis = _orth_basis(nxt, tol)
        if basis.shape[0] == 0:
            break
    return None


def _orth_basis(vectors, tol=RANK_CUTOFF):
    m = np.stack(vectors)
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    if s.size == 0 or s[0] == 0:
        return np.zeros((0, m.shape[1]), dtype=complex)
    rank = int(np.sum(s > tol * s[0]))
    return vh[:rank]


def unit_eigenvalue_count(t: MpsTensor, tol=1e-8) -> int:
    """Number of transfer eigenvalues on the circle |z| = spectral radius."""
    ev = np.linalg.eigvals(transfer_matrix(t))
    rho = np.max(np.abs(ev))
    if rho == 0:
        return 0
    return int(np.sum(np.abs(ev) > rho * (1 - tol)))


def fixed_point(t: MpsTensor, left=False, tol=1e-8) -> np.ndarray:
    """Hermitian eigenmatrix of E (or its adjoint) at the spectral radius.

    Sign-fixed so the largest-magnitude eigenvalue is positive; for a
    normal tensor this is the positive definite fixed point.
    """
    e = transfer_matrix(t)
    if left:
        e = e.conj().T
    evals, evecs = np.linalg.eig(e)
    rho = np.max(np.abs(evals))
    # pick the eigenvalue closest to +rho (real positive branch)
    k = int(np.argmin(np.abs(evals - rho)))
    D = t.left_dim
    x = evecs[:, k].reshape(D, D)
    h = (x + x.conj().T) / 2
    a = (x - x.conj().T) / 2j
    x = h if np.linalg.norm(h) >= np.linalg.norm(a) else a
    w = np.linalg.eigvalsh(x)
    if abs(w.min()) > abs(w.max()):
        x = -x
    return x / np.linalg.norm(x)


def is_normal(t: MpsTensor, tol=1e-8, require_unit_radius=False):
    """(verdict, L): primitivity of the transfer map, cross-checked by the
    span-growth injectivity length.

    With `require_unit_radius` the spectral radius must itself be 1;
    otherwise the tensor is judged after rescaling to radius 1.
    """
    if not t.is_square:
        raise DimMismatch("normality needs a square tensor")
    rho = spectral_radius(t)
    if rho < tol:
        return False, None
    if require_unit_radius and abs(rho - 1) > tol:
        return False, None
    scaled = t.scaled(1 / np.sqrt(rho))
    if unit_eigenvalue_count(scaled, tol) != 1:
        return False, None
    for left in (False, True):
        x = fixed_point(scaled, left=left)
        w = np.linalg.eigvalsh(x)
        if w.min() < tol * w.max():
            return False, None
    L = injectivity_length(t)
    if L is None:
        return False, None
    return True, L


def lcm(values) -> int:
    out = 1
    for v in values:
        out = out * v // gcd(out, v)
    return out
