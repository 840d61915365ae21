"""Seeded requests for the benchmark workloads, and their output checks.

A workload is a fixed cycle of request templates.  Each template names the
request's code path and problem size; the seed only draws the numbers that
fill it (random gauges, reduced matrix elements, tensor entries), so the
latency of a template hardly depends on the seed while no two requests
share an input.  `Request.call` is the timed part; `Request.check` runs
outside the timed region and raises `CheckFailed` when the output is wrong.
"""
from __future__ import annotations

import functools
import json
import os
from dataclasses import dataclass, field

import numpy as np

from gauge_mps import canonical, cli, constructors, io, reps, symmetry, tensors

PASS_TOL = 1e-9        # the CLI's default --tol
FAIL_FLOOR = 1e-4      # a FAIL verdict must sit this far above PASS_TOL
REASSEMBLY_TOL = 1e-8  # relative, canonical forms against the input state
GAUGE_TOL = 1e-6       # relative, tensor relations recovered by a gauge search
PROJECTIVE_TOL = 1e-8  # extracted X against the input X, modulo phase


class CheckFailed(Exception):
    """The program's output contradicts what the request's construction implies."""


@dataclass
class Request:
    """One timed call plus the check of its output.

    `size` is (d, D, N, |G|) with 0 where a dimension does not apply.
    `call` returns the value that `check` inspects; `check` returns the
    request's verdict token for the run digest.
    """

    kind: str
    size: tuple
    call: object
    check: object
    cleanup: list = field(default_factory=list)

    def close(self):
        for path in self.cleanup:
            if os.path.exists(path):
                os.remove(path)


def _rng(seed, index):
    return np.random.default_rng([seed, index])


def _complex_normal(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _well_conditioned(rng, n):
    """Random invertible n x n matrix with condition number at most 4."""
    q, _ = np.linalg.qr(_complex_normal(rng, (n, n)))
    return q * rng.uniform(0.5, 2.0, size=n)


def _scramble(rng, ent):
    """A^i -> W^-1 A^i W with a random well-conditioned gauge W."""
    w = _well_conditioned(rng, ent.shape[1])
    return np.einsum("ab,ibc,cd->iad", np.linalg.inv(w), ent, w)


def _direct_sum(*blocks):
    d = blocks[0].shape[0]
    D = sum(b.shape[1] for b in blocks)
    out = np.zeros((d, D, D), dtype=complex)
    off = 0
    for b in blocks:
        k = b.shape[1]
        out[:, off:off + k, off:off + k] = b
        off += k
    return out


def _rel(a, b):
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


def _is_normal_block(t):
    """The transfer matrix has one dominant eigenvalue, and its eigenvector
    is a positive definite matrix: the block is normal.

    One eig call, where `tensors.is_normal` makes four decompositions and
    an injectivity search.
    """
    evals, evecs = np.linalg.eig(tensors.transfer_matrix(t))
    order = np.argsort(-np.abs(evals))
    if evals.size > 1 and not abs(evals[order[1]]) < (1 - 1e-6) * abs(evals[order[0]]):
        return False
    x = evecs[:, order[0]].reshape(t.left_dim, t.left_dim)
    x = x / np.trace(x)   # a positive definite matrix has a positive trace
    w = np.linalg.eigvalsh((x + x.conj().T) / 2)
    return bool(w.min() > 1e-8 * w.max())


# ----------------------------------------------------------------------------
# globally symmetric matter and its gauging: inputs of certify and
# pair_decompose requests, and the timed work of gauging requests


def _virtual_blocks(irreps, x_labels):
    """[(irrep, slice of the virtual space)] for X = (+) x_labels, and D."""
    by_label = {irr.label: irr for irr in irreps}
    slices, off = [], 0
    for lab in x_labels:
        irr = by_label[lab]
        slices.append((irr, slice(off, off + irr.dim)))
        off += irr.dim
    return slices, off


def coupling_blocks(catalog_name, x_labels):
    """Wigner-Eckart tensors, at unit reduced matrix elements, coupling each
    pair of virtual blocks of X = (+) x_labels through every physical irrep
    in the Clebsch-Gordan series of conj(j_k) x j_l.

    Returns [(physical irrep, rows, columns, [entries per copy])].
    """
    _, irreps = reps.builtin_catalog(catalog_name)
    by_label = {irr.label: irr for irr in irreps}
    slices, _ = _virtual_blocks(irreps, x_labels)
    out = []
    for jk, slk in slices:
        for jl, sll in slices:
            cg = reps.clebsch_gordan(reps.conjugate_rep(jk), jl, irreps)
            for label, mult in cg.decomposition.blocks:
                j0 = by_label[label]
                units = [constructors.wigner_eckart_a_block(
                    j0, jk, jl, irreps, alphas=np.eye(mult)[q]).tensor.entries
                    for q in range(mult)]
                out.append((j0, slk, sll, units))
    return out


# untimed input generation reuses the coupling blocks of a configuration
_cached_coupling_blocks = functools.lru_cache(coupling_blocks)


def symmetric_matter(catalog_name, x_labels, rng, couplings):
    """Matter tensor with Theta(g) A = X(g)^-1 A X(g), X = (+) x_labels.

    Built from `couplings` (the `coupling_blocks` of the same X) with random
    reduced matrix elements.  Returns (group, irreps, A, theta_ops, x_mats).
    """
    group, irreps = reps.builtin_catalog(catalog_name)
    slices, D = _virtual_blocks(irreps, x_labels)
    n = group.order
    x_mats = np.zeros((n, D, D), dtype=complex)
    for irr, sl in slices:
        x_mats[:, sl, sl] = irr.matrices
    blocks = {}  # physical irrep label -> (dim J, D, D) entries
    for j0, slk, sll, units in couplings:
        alphas = _complex_normal(rng, len(units))
        ent = blocks.setdefault(j0.label, np.zeros((j0.dim, D, D), complex))
        ent[:, slk, sll] = sum(a * u for a, u in zip(alphas, units))
    present = [irr for irr in irreps if irr.label in blocks]
    a_ent = np.concatenate([blocks[irr.label] for irr in present])
    d = a_ent.shape[0]
    theta = np.zeros((n, d, d), dtype=complex)
    off = 0
    for irr in present:
        theta[:, off:off + irr.dim, off:off + irr.dim] = irr.matrices
        off += irr.dim
    theta_ops = tuple((group.name(g), theta[g]) for g in range(n))
    return group, irreps, tensors.MpsTensor(a_ent), theta_ops, x_mats


def gauged_construction(catalog_name, x_labels, rng):
    x_labels = tuple(x_labels)
    group, irreps, a_t, theta_ops, x_mats = symmetric_matter(
        catalog_name, x_labels, rng, _cached_coupling_blocks(catalog_name, x_labels))
    return constructors.gauge_global_symmetry(a_t, x_mats, group, irreps,
                                              theta_ops=theta_ops)


def _perturbed(cons, rng):
    """The same construction with 20% noise on A: no longer symmetric."""
    a = cons.A.entries
    noise = 0.2 * np.sqrt(np.mean(np.abs(a) ** 2)) * _complex_normal(rng, a.shape)
    return constructors.GaugeConstruction(
        tensors.TensorPair(tensors.MpsTensor(a + noise), cons.B), cons.theta_ops,
        cons.r_ops, cons.l_ops, cons.x_mats, cons.y_mats, cons.group)


def _regauged(cons, rng):
    """Apply a random virtual gauge A -> V^-1 A W, B -> W^-1 B V.

    The state, and so every state-level verdict, is unchanged.
    """
    v = _well_conditioned(rng, cons.A.left_dim)
    w = _well_conditioned(rng, cons.A.right_dim)
    v_inv, w_inv = np.linalg.inv(v), np.linalg.inv(w)
    a = np.einsum("ab,ibc,cd->iad", v_inv, cons.A.entries, w)
    b = np.einsum("ab,ibc,cd->iad", w_inv, cons.B.entries, v)
    return constructors.GaugeConstruction(
        tensors.TensorPair(tensors.MpsTensor(a), tensors.MpsTensor(b)),
        cons.theta_ops, cons.r_ops, cons.l_ops,
        tuple(v_inv @ x @ v for x in cons.x_mats),
        tuple(w_inv @ y @ w for y in cons.y_mats), cons.group)


def _pair_size(pair, n, group_order):
    return (pair.A.phys_dim * pair.B.phys_dim, pair.A.left_dim, n, group_order)


# ----------------------------------------------------------------------------
# certify: one in-process `gauge-mps verify --json` per request


def _su2_bundle(spin, rng):
    j_set = (0.0, 1.0) if spin == 0.5 else (0.0, 1.0, 2.0)
    alphas = _complex_normal(rng, len(j_set))
    return constructors.build_su2_example(r=spin, l=spin, j_set=j_set,
                                          alphas=alphas)


def _certify_bundle(bundle, rng):
    """(construction, |G|, perturbed) for a certify bundle name."""
    if bundle == "d10":
        cons = constructors.build_d10_example()
        return _regauged(cons, rng), cons.group.order, False
    if bundle.startswith("su2-"):
        return _su2_bundle(float(bundle[4:]), rng), 0, False
    catalog_name, labels, state = bundle.split(":")
    cons = gauged_construction(catalog_name, labels.split("+"), rng)
    if state == "perturbed":
        return _perturbed(cons, rng), cons.group.order, True
    return cons, cons.group.order, False


def _expected_certify_code(bundle, setting, n_max, perturbed):
    """Exit code that the physics of the construction implies.

    - d10: only the B-A-B windows are a symmetry; the matter tensor has no
      single-site or global certificate and B alone is not symmetric under
      R/L on adjacent sites (for N >= 2).
    - su2 with r = l: the Gauss law and the sampled B-A-B windows hold, and
      so do the global matter and the adjacent R/L actions because X = Y.
      A single-site Theta is no symmetry once N >= 2.
    - gauged constructions: B-A-B windows, global matter and adjacent R/L
      hold; noise on A breaks the windows and the global symmetry.
    """
    if bundle == "d10":
        return 0 if setting == "bab" else 1
    if bundle.startswith("su2-"):
        return 1 if setting == "matter-local" and n_max >= 2 else 0
    return 1 if perturbed else 0


def certify_request(template, seed, index, workdir):
    bundle, setting, n_max = template
    rng = _rng(seed, index)
    cons, order, perturbed = _certify_bundle(bundle, rng)
    expected = _expected_certify_code(bundle, setting, n_max, perturbed)
    path = os.path.join(workdir, f"bundle-{index}.json")
    out = os.path.join(workdir, f"report-{index}.json")
    io.save_json(io.bundle_to_dict(cons), path)
    argv = ["verify", "--setting", setting, "--bundle", path,
            "--n-max", str(n_max), "--json", "--out", out]
    if bundle.startswith("su2-"):
        argv += ["--seed", str(int(rng.integers(2 ** 31)))]
    pair = cons.pair
    size = _pair_size(pair, n_max, order)
    if setting in ("matter-local", "matter-global"):
        size = (pair.A.phys_dim, pair.A.left_dim, n_max, order)
    elif setting == "gauge-local":
        size = (pair.B.phys_dim, pair.B.left_dim, n_max, order)

    def call():
        return cli.main(argv)

    def check(code):
        if code != expected:
            raise CheckFailed(f"{bundle} {setting}: exit {code}, expected {expected}")
        with open(out) as fh:
            report = json.load(fh)
        worst = report["max_residual"]
        if expected == 0 and not worst <= PASS_TOL:
            raise CheckFailed(f"{bundle} {setting}: PASS with residual {worst}")
        if expected == 1 and not worst >= FAIL_FLOOR:
            raise CheckFailed(f"{bundle} {setting}: FAIL with residual {worst}")
        windows = sorted((f["N"], f["element"], f["site"]) for f in report["failures"])
        return [bundle, setting, n_max, code, windows]

    return Request(f"certify/{bundle}/{setting}/N{n_max}", size, call, check,
                   cleanup=[path, out])


# ----------------------------------------------------------------------------
# canonicalize: library calls on seeded tensors


def _canonical_tensor(kind, d, D, rng):
    """(tensor, blocks, copies per block, blocking factor) the input implies."""
    if kind == "normal":
        return tensors.MpsTensor(_complex_normal(rng, (d, D, D))), 1, 1, 1
    if kind == "dsum":  # two inequivalent normal blocks
        k = D // 2
        ent = _direct_sum(_complex_normal(rng, (d, k, k)),
                          _complex_normal(rng, (d, D - k, D - k)))
        return tensors.MpsTensor(_scramble(rng, ent)), 2, 1, 1
    if kind == "copies":  # one normal block twice, with different weights
        base = _complex_normal(rng, (d, D // 2, D // 2))
        ent = _direct_sum(base, rng.uniform(0.3, 0.8) * base)
        return tensors.MpsTensor(_scramble(rng, ent)), 1, 2, 1
    if kind == "periodic":  # period 2: A^i = [[0, P^i], [Q^i, 0]]
        k = D // 2
        ent = np.zeros((d, D, D), dtype=complex)
        ent[:, :k, k:] = _complex_normal(rng, (d, k, k))
        ent[:, k:, :k] = _complex_normal(rng, (d, k, k))
        return tensors.MpsTensor(_scramble(rng, ent)), 2, 1, 2
    raise ValueError(kind)


def _check_canonical(result, t, n_blocks, n_copies, blocking):
    b = result.blocking_factor
    if b != blocking or len(result.blocks) != n_blocks:
        raise CheckFailed(f"{len(result.blocks)} blocks at blocking {b}, "
                          f"expected {n_blocks} at {blocking}")
    if any(len(blk.copies) != n_copies for blk in result.blocks):
        raise CheckFailed(f"copies per block != {n_copies}")
    for n in (1, 2):
        want = tensors.contract_mpv(t, n * b).reshape((t.phys_dim ** b,) * n)
        if not _rel(result.reassembled_coeffs(n), want) <= REASSEMBLY_TOL:
            raise CheckFailed(f"reassembly mismatch at N={n}")
    for blk in result.blocks:
        if not _is_normal_block(blk.tensor):
            raise CheckFailed("canonical-form block is not normal")
    return [len(result.blocks), b, [len(blk.copies) for blk in result.blocks]]


def canonicalize_request(template, seed, index, workdir=None):
    op = template[0]
    if op == "gauge":
        return gauge_request(template[1:], seed, index)
    rng = _rng(seed, index)
    if op == "canonical_form":
        _, kind, d, D = template
        t, n_blocks, n_copies, blocking = _canonical_tensor(kind, d, D, rng)

        def call():
            return canonical.canonical_form(t, seed=index)

        def check(result):
            return [kind] + _check_canonical(result, t, n_blocks, n_copies,
                                             blocking)

        return Request(f"canonicalize/{kind}/d{d}/D{D}", (d, D, 0, 0), call, check)

    if op == "find_gauge_between":
        _, d, D = template
        t1 = tensors.MpsTensor(_complex_normal(rng, (d, D, D)))
        t2 = tensors.MpsTensor(_scramble(rng, t1.entries))

        def call():
            return canonical.find_gauge_between(t1, t2, seed=index)

        def check(rel):
            if len(rel.x_blocks) != 1:
                raise CheckFailed(f"{len(rel.x_blocks)} gauge blocks, expected 1")
            x, phase = rel.x_blocks[0], rel.phases[0]
            got = phase * np.einsum("ab,ibc,cd->iad", np.linalg.inv(x),
                                    t1.entries, x)
            if not _rel(got, t2.entries) <= GAUGE_TOL:
                raise CheckFailed("recovered gauge does not map t1 to t2")
            return ["gauge", len(rel.x_blocks)]

        return Request(f"canonicalize/gauge/d{d}/D{D}", (d, D, 0, 0), call, check)

    if op == "pair_decompose":
        _, catalog_name, labels = template
        pair = gauged_construction(catalog_name, labels.split("+"), rng).pair
        order = reps.builtin_catalog(catalog_name)[0].order

        def call():
            return canonical.pair_decompose(pair, seed=index)

        def check(out):
            comps, blocking = out
            if blocking != 1 or len(comps) != 1:
                raise CheckFailed(f"{len(comps)} components at blocking "
                                  f"{blocking}, expected 1 at 1")
            for n in (1, 2):
                want = tensors.contract_pair_mpv(pair, n)
                got = sum(mu ** n * tensors.contract_pair_mpv(
                    tensors.TensorPair(a, b), n) for a, b, mu in comps)
                if not _rel(got, want) <= REASSEMBLY_TOL:
                    raise CheckFailed(f"pair reassembly mismatch at N={n}")
            for a, b, _ in comps:
                if not _is_normal_block(tensors.TensorPair(a, b).combined):
                    raise CheckFailed("pair component is not normal")
            return ["pair", len(comps), blocking]

        return Request(f"canonicalize/pair/{catalog_name}/{labels}",
                       _pair_size(pair, 0, order), call, check)
    raise ValueError(op)


# ----------------------------------------------------------------------------
# gauging (part of canonicalize): build symmetric matter, gauge it, extract
# and analyse the virtual reps


def gauge_request(template, seed, index, workdir=None):
    catalog_name, labels = template
    rng = _rng(seed, index)
    group, irreps = reps.builtin_catalog(catalog_name)
    x_labels = labels.split("+")
    D = sum(next(i.dim for i in irreps if i.label == lab) for lab in x_labels)

    def call():
        grp, cat, a_t, theta_ops, x_mats = symmetric_matter(
            catalog_name, x_labels, rng, coupling_blocks(catalog_name, x_labels))
        cons = constructors.gauge_global_symmetry(a_t, x_mats, grp, cat,
                                                  theta_ops=theta_ops)
        vr = symmetry.extract_virtual_rep(cons.pair, cons.r_ops, cons.theta_ops,
                                          cons.l_ops, group=grp)
        r_rep = reps.make_rep(grp, [m for _, m in cons.r_ops])
        l_rep = reps.make_rep(grp, [m for _, m in cons.l_ops])
        b_report = symmetry.analyze_b_structure(cons.B, r_rep, l_rep, vr.x_mats,
                                                vr.y_mats, cat)
        return cons, vr, b_report

    def check(out):
        cons, vr, b_report = out
        dist = max(symmetry.projective_distance(a, b)
                   for a, b in zip(vr.x_mats, cons.x_mats))
        if not dist <= PROJECTIVE_TOL:
            raise CheckFailed(f"extracted X off by {dist:.3e}")
        bab = symmetry.check_local_symmetry_matter_gauge(
            cons.pair, cons.r_ops, cons.theta_ops, cons.l_ops, 2)
        if not bab.passed:
            raise CheckFailed(f"gauged pair fails bab at N=2 ({bab.max_residual:.3e})")
        if b_report.normality_contradiction:
            raise CheckFailed("B structure reports unmatched virtual blocks")
        return [labels, len(b_report.entries),
                sum(e.matched for e in b_report.entries)]

    return Request(f"gauge/{catalog_name}/{labels}",
                   (0, D, 0, group.order), call, check)


# ----------------------------------------------------------------------------
# the workloads


@dataclass(frozen=True)
class Workload:
    """A closed loop over `cycle`, one request at a time.

    `warmup` holds cheap templates that reach every code path of the cycle;
    set-up runs them on inputs that are never timed, after loading
    `catalogs`.  They are also the requests of a smoke run.
    """

    make: object
    cycle: tuple
    warmup: tuple
    catalogs: tuple


D12_X8 = "rho1+rho2+rho1+rho2"   # X of the d12 construction, D = 8

# Each cycle is sorted into latency classes with the shares noted, chosen so
# that the p50 and p90 ranks fall inside a class, never on a jump between two.
WORKLOADS = {
    "certify": Workload(
        certify_request,
        cycle=(
            # 10 small (0-29%): finite bundles, cheap settings
            ("d10", "matter-local", 3), ("d10", "matter-global", 4),
            ("d10", "gauge-local", 5), ("d10", "bab", 4),
            ("s3:rho1:clean", "matter-global", 5),
            ("s3:rho1:perturbed", "matter-global", 5),
            ("s3:rho1:clean", "gauge-local", 4),
            ("q8:spin+triv:perturbed", "matter-global", 3),
            ("q8:spin+triv:clean", "gauge-local", 3),
            (f"d12:{D12_X8}:perturbed", "matter-global", 3),
            # 12 (29-65%, holds p50): su2 r = l = 1/2 at small N, all five
            # settings; the fixed costs of io, cli and exponentials dominate
            ("su2-0.5", "matter-local", 3), ("su2-0.5", "matter-global", 3),
            ("su2-0.5", "gauge-local", 3), ("su2-0.5", "bab", 2),
            ("su2-0.5", "gauss", 3), ("su2-0.5", "matter-local", 3),
            ("su2-0.5", "matter-global", 3), ("su2-0.5", "gauge-local", 3),
            ("su2-0.5", "bab", 2), ("su2-0.5", "gauss", 3),
            ("su2-0.5", "matter-local", 3), ("su2-0.5", "bab", 2),
            # 5 (65-79%): su2 r = l = 1 and mid-sized finite windows
            ("su2-1.0", "matter-local", 4), ("su2-1.0", "gauss", 2),
            ("su2-1.0", "bab", 2), ("s3:rho1:perturbed", "bab", 4),
            (f"d12:{D12_X8}:clean", "bab", 2),
            # 5 (79-94%, holds p90): contraction-bound B-A-B windows
            ("d10:rho1+rho2:clean", "bab", 3), ("d10:rho1+rho2:perturbed", "bab", 3),
            ("d10:rho1+rho2:clean", "bab", 3), ("d10:rho1+rho2:perturbed", "bab", 3),
            ("d10:rho1+rho2:clean", "bab", 3),
            # 2 (94-100%): the largest windows under the size cap
            ("d10", "bab", 6), ("su2-0.5", "gauss", 5),
        ),
        warmup=(("d10", "bab", 2), ("su2-0.5", "gauss", 2),
                ("su2-0.5", "matter-local", 2), ("s3:rho1:perturbed", "bab", 2),
                ("s3:rho1:clean", "gauge-local", 2),
                ("s3:rho1:clean", "matter-global", 2)),
        catalogs=("s3", "q8", "d10", "d12"),
    ),
    "canonicalize": Workload(
        canonicalize_request,
        cycle=(
            # 10 small (0-28%)
            ("pair_decompose", "s3", "rho1"), ("pair_decompose", "d10", "rho1+triv"),
            ("pair_decompose", "q8", "spin+triv"),
            ("canonical_form", "normal", 2, 4), ("canonical_form", "normal", 3, 4),
            ("canonical_form", "normal", 2, 6), ("canonical_form", "copies", 2, 6),
            ("canonical_form", "dsum", 2, 6), ("canonical_form", "periodic", 2, 4),
            ("find_gauge_between", 2, 4),
            # 12 (28-61%, holds p50), S3 gauging among them
            ("canonical_form", "normal", 2, 8), ("canonical_form", "normal", 3, 8),
            ("canonical_form", "normal", 2, 8), ("canonical_form", "normal", 3, 8),
            ("canonical_form", "periodic", 2, 8), ("canonical_form", "copies", 2, 12),
            ("canonical_form", "dsum", 3, 12), ("find_gauge_between", 2, 6),
            ("find_gauge_between", 2, 6), ("gauge", "s3", "rho1"),
            ("gauge", "s3", "rho1+triv"), ("gauge", "s3", "rho1+rho1"),
            # 6 (61-78%), Q8 gauging among them
            ("canonical_form", "normal", 3, 9), ("canonical_form", "normal", 2, 10),
            ("canonical_form", "periodic", 3, 6), ("find_gauge_between", 3, 8),
            ("gauge", "q8", "spin"), ("gauge", "q8", "spin+chi-i"),
            # 6 (78-94%, holds p90): dense transfer spectra of 144 x 144
            ("canonical_form", "normal", 2, 12), ("canonical_form", "normal", 3, 12),
            ("canonical_form", "normal", 2, 12), ("canonical_form", "normal", 3, 12),
            ("canonical_form", "normal", 2, 12), ("canonical_form", "normal", 3, 12),
            # 2 (94-100%): 256 x 256 spectra, and D12 gauging at D = 8
            ("canonical_form", "normal", 2, 16), ("gauge", "d12", D12_X8),
        ),
        warmup=(("canonical_form", "normal", 2, 4), ("canonical_form", "dsum", 2, 4),
                ("canonical_form", "copies", 2, 4),
                ("canonical_form", "periodic", 2, 4),
                ("find_gauge_between", 2, 4), ("pair_decompose", "s3", "rho1"),
                ("gauge", "s3", "rho1"), ("gauge", "q8", "spin")),
        catalogs=("s3", "q8", "d10", "d12"),
    ),
}
