"""JSON serialization for tensors, groups, reps, and construction bundles.

Complex numbers are stored as [re, im] pairs throughout; all documents are
emitted with sorted keys so identical inputs produce byte-identical files.
"""
from __future__ import annotations

import json

import numpy as np

from .errors import ParseError, SchemaError
from .groups import FiniteGroup, validate_group
from .reps import Irrep, Multiplier, Rep, check_projective_rep
from .tensors import MpsTensor, TensorPair


# ----------------------------------------------------------------------------
# low-level encoding


def encode_array(arr) -> list:
    """Nested lists with [re, im] leaves."""
    arr = np.asarray(arr, dtype=complex)
    if arr.ndim == 0:
        # adding 0.0 canonicalizes IEEE negative zero, keeping files byte-stable
        return [float(arr.real) + 0.0, float(arr.imag) + 0.0]
    return [encode_array(sub) for sub in arr]


def decode_array(data, pointer="") -> np.ndarray:
    try:
        arr = np.asarray(data, dtype=float)
    except (ValueError, TypeError) as exc:
        raise SchemaError(f"{pointer}: not a numeric array ({exc})") from exc
    if arr.ndim < 1 or arr.shape[-1] != 2:
        raise SchemaError(f"{pointer}: complex entries must be [re, im] pairs")
    if not np.all(np.isfinite(arr)):
        raise SchemaError(f"{pointer}: non-finite number")
    return arr[..., 0] + 1j * arr[..., 1]


def _require(data, key, typ, pointer):
    if not isinstance(data, dict):
        raise SchemaError(f"{pointer}: expected an object")
    if key not in data:
        raise SchemaError(f"{pointer}/{key}: missing")
    val = data[key]
    if typ is not None and not isinstance(val, typ):
        raise SchemaError(f"{pointer}/{key}: expected {typ.__name__}")
    return val


# ----------------------------------------------------------------------------
# tensors


def tensor_to_dict(t: MpsTensor) -> dict:
    return {
        "phys_dim": t.phys_dim,
        "left_dim": t.left_dim,
        "right_dim": t.right_dim,
        "entries": encode_array(t.entries),
    }


def tensor_from_dict(data, pointer="") -> MpsTensor:
    d = _require(data, "phys_dim", int, pointer)
    d1 = _require(data, "left_dim", int, pointer)
    d2 = _require(data, "right_dim", int, pointer)
    entries = decode_array(_require(data, "entries", list, pointer),
                           pointer + "/entries")
    if entries.shape != (d, d1, d2):
        raise SchemaError(
            f"{pointer}/entries: shape {entries.shape} != ({d}, {d1}, {d2})")
    return MpsTensor(entries)


# ----------------------------------------------------------------------------
# groups and representations


def group_to_dict(group: FiniteGroup, irreps=(), multiplier=None) -> dict:
    out = {
        "order": group.order,
        "mult_table": [[int(v) for v in row] for row in group.mult_table],
        "element_names": list(group.element_names),
        "irreps": [
            {
                "label": irr.label,
                "dim": irr.dim,
                "matrices": encode_array(irr.matrices),
            }
            for irr in irreps
        ],
    }
    if multiplier is not None and not multiplier.is_trivial():
        out["multiplier"] = encode_array(multiplier.values)
    return out


def group_from_dict(data, pointer="/group"):
    table = np.asarray(_require(data, "mult_table", list, pointer), dtype=int)
    names = data.get("element_names")
    group = validate_group(table, tuple(names) if names else None)
    irreps = []
    for k, item in enumerate(data.get("irreps", [])):
        ptr = f"{pointer}/irreps/{k}"
        label = _require(item, "label", str, ptr)
        mats = decode_array(_require(item, "matrices", list, ptr),
                            ptr + "/matrices")
        mult = check_projective_rep(mats, group)
        irreps.append(Irrep(group, mats, mult, label))
    return group, irreps


def ops_to_list(ops) -> list:
    return [{"label": lbl, "matrix": encode_array(m)} for lbl, m in ops]


def ops_from_list(data, pointer):
    out = []
    for k, item in enumerate(data):
        ptr = f"{pointer}/{k}"
        lbl = _require(item, "label", str, ptr)
        m = decode_array(_require(item, "matrix", list, ptr), ptr + "/matrix")
        out.append((lbl, m))
    return out


# ----------------------------------------------------------------------------
# construction bundles


def bundle_to_dict(cons) -> dict:
    """Serialize a GaugeConstruction or Su2Construction."""
    from .constructors import GaugeConstruction, Su2Construction

    if isinstance(cons, Su2Construction):
        return {
            "kind": "su2",
            "tensors": {
                "A": tensor_to_dict(cons.pair.A),
                "B": tensor_to_dict(cons.pair.B),
            },
            "generators": {
                "r": encode_array(cons.gauss.r_gens),
                "q": encode_array(cons.gauss.q_gens),
                "l": encode_array(cons.gauss.l_gens),
                "x": encode_array(cons.x_gens),
                "y": encode_array(cons.y_gens),
            },
            "params": {
                "r_spin": cons.r_spin,
                "l_spin": cons.l_spin,
                "j_set": list(cons.j_set),
                "alphas": encode_array(np.asarray(cons.alphas)),
            },
        }
    if isinstance(cons, GaugeConstruction):
        return {
            "kind": "finite",
            "group": group_to_dict(cons.group),
            "tensors": {
                "A": tensor_to_dict(cons.pair.A),
                "B": tensor_to_dict(cons.pair.B),
            },
            "ops": {
                "theta": ops_to_list(cons.theta_ops),
                "r": ops_to_list(cons.r_ops),
                "l": ops_to_list(cons.l_ops),
            },
            "virtual": {
                "x": encode_array(np.asarray(cons.x_mats)),
                "y": encode_array(np.asarray(cons.y_mats)),
            },
        }
    raise SchemaError(f"cannot serialize {type(cons).__name__}")


def bundle_from_dict(data, pointer=""):
    """Rebuild a construction object from a bundle document."""
    from .constructors import GaugeConstruction, Su2Construction
    from .symmetry import GaussOperators

    kind = _require(data, "kind", str, pointer)
    tensors = _require(data, "tensors", dict, pointer)
    a_t = tensor_from_dict(_require(tensors, "A", dict, pointer + "/tensors"),
                           pointer + "/tensors/A")
    b_t = tensor_from_dict(_require(tensors, "B", dict, pointer + "/tensors"),
                           pointer + "/tensors/B")
    pair = TensorPair(a_t, b_t)
    if kind == "su2":
        gens = _require(data, "generators", dict, pointer)
        params = _require(data, "params", dict, pointer)
        gauss = GaussOperators(
            decode_array(gens["r"], pointer + "/generators/r"),
            decode_array(gens["q"], pointer + "/generators/q"),
            decode_array(gens["l"], pointer + "/generators/l"),
        )
        return Su2Construction(
            pair, gauss,
            decode_array(gens["x"], pointer + "/generators/x"),
            decode_array(gens["y"], pointer + "/generators/y"),
            float(params["r_spin"]), float(params["l_spin"]),
            tuple(params["j_set"]),
            tuple(decode_array(params["alphas"], pointer + "/params/alphas")),
        )
    if kind == "finite":
        group, _ = group_from_dict(_require(data, "group", dict, pointer),
                                   pointer + "/group")
        ops = _require(data, "ops", dict, pointer)
        virt = _require(data, "virtual", dict, pointer)
        x = decode_array(virt["x"], pointer + "/virtual/x")
        y = decode_array(virt["y"], pointer + "/virtual/y")
        return GaugeConstruction(
            pair,
            tuple(ops_from_list(_require(ops, "theta", list, pointer + "/ops"),
                                pointer + "/ops/theta")),
            tuple(ops_from_list(_require(ops, "r", list, pointer + "/ops"),
                                pointer + "/ops/r")),
            tuple(ops_from_list(_require(ops, "l", list, pointer + "/ops"),
                                pointer + "/ops/l")),
            tuple(x), tuple(y), group,
        )
    raise SchemaError(f"{pointer}/kind: unknown bundle kind {kind!r}")


# ----------------------------------------------------------------------------
# derived results


def canonical_form_to_dict(result) -> dict:
    return {
        "blocking_factor": result.blocking_factor,
        "blocks": [
            {
                "tensor": tensor_to_dict(blk.tensor),
                "fixed_point": encode_array(blk.fixed_point),
                "copies": [
                    {"mu": [float(np.real(mu)), float(np.imag(mu))],
                     "V": encode_array(v)}
                    for (mu, v) in blk.copies
                ],
            }
            for blk in result.blocks
        ],
    }


def decomposition_to_dict(dec) -> dict:
    return {
        "blocks": [[label, mult] for label, mult in dec.blocks],
        "basis_change": encode_array(dec.basis_change),
    }


# ----------------------------------------------------------------------------
# files


def dumps(document) -> str:
    return json.dumps(document, sort_keys=True, indent=2) + "\n"


def save_json(document, path):
    with open(path, "w") as fh:
        fh.write(dumps(document))


def load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(str(path), "", str(exc)) from exc
    except json.JSONDecodeError as exc:
        raise ParseError(str(path), f"line {exc.lineno} column {exc.colno}",
                         exc.msg) from exc
