"""Command-line front end.

Commands: verify (symmetry checks on a bundle), construct (gauge a matter
bundle), canonical-form, decompose-rep, example (write a built-in bundle).
Exit status: 0 = pass/success, 1 = a symmetry check failed, 2 = input error.
"""
from __future__ import annotations

import argparse
import math
import sys
from operator import attrgetter

from . import _tol
from . import io
from . import symmetry as sym
from .constructors import Su2Construction
from .errors import GaugeMpsError, ParseError, SchemaError, SizeLimit
from .reps import builtin_catalog, make_rep

# setting -> (check in `symmetry`, the bundle part it reads, the operator
# lists it takes before n_max and tol); checks are named rather than bound
# so that each call goes through the module's current attribute, which the
# perfbench tracer wraps
_VERIFY_CHECKS = {
    "matter-local": ("check_local_symmetry_matter", "pair.A", ("theta",)),
    "matter-global": ("check_global_symmetry", "pair.A", ("theta",)),
    "gauge-local": ("check_local_symmetry_gauge", "pair.B", ("r", "l")),
    "bab": ("check_local_symmetry_matter_gauge", "pair", ("r", "theta", "l")),
    "gauss": ("check_gauss_law", "pair", ("gauss",)),
}
SETTINGS = tuple(_VERIFY_CHECKS)
SETTING_ALIASES = {"local": "matter-local", "global": "matter-global"}


def _tolerance(admits, what):
    """argparse type: a finite float that `admits` accepts, or exit 2."""
    def parse(text):
        if not (math.isfinite(value := float(text)) and admits(value)):
            raise argparse.ArgumentTypeError(f"must be finite and {what}, not {text}")
        return value
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gauge-mps",
        description="Construct and certify matrix product vectors with "
                    "local gauge symmetry.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # each command registers only the flags its handler reads
    def bundle_and_out(p):
        p.add_argument("--bundle", required=True, help="input bundle JSON")
        p.add_argument("--out", help="write the report/result to this path")

    p = sub.add_parser("verify", help="run a symmetry check on a bundle")
    p.add_argument("--setting", required=True,
                   choices=SETTINGS + tuple(SETTING_ALIASES))
    p.add_argument("--n-max", type=int, default=3)
    p.add_argument("--tol", default=_tol.PASS_TOL, type=_tolerance(lambda v: v >= 0, ">= 0"))
    p.add_argument("--seed", type=int, default=0, help="ignored")
    p.add_argument("--json", action="store_true",
                   help="emit a JSON report instead of text")
    bundle_and_out(p)

    p = sub.add_parser("construct",
                       help="gauge the global symmetry of a matter bundle")
    p.add_argument("--group", required=True, help="built-in catalog name")
    bundle_and_out(p)

    p = sub.add_parser("canonical-form", help="canonical form of a tensor")
    p.add_argument("--tensor", default="A", choices=("A", "B"),
                   help="which bundle tensor to canonicalize")
    p.add_argument("--seed", type=int, default=0)
    bundle_and_out(p)

    p = sub.add_parser("decompose-rep",
                       help="decompose rep matrices into catalog irreps")
    p.add_argument("--group", required=True, help="built-in catalog name")
    p.add_argument("--tol", default=_tol.DECOMPOSE_TOL_FLOOR,
                   type=_tolerance(lambda v: v < 1, "< 1"))
    bundle_and_out(p)

    p = sub.add_parser("example", help="write a built-in example bundle")
    p.add_argument("name", choices=("d10", "su2"))
    p.add_argument("--out", help="output path (stdout when omitted)")
    return parser


# ----------------------------------------------------------------------------
# report rendering


def report_render(report) -> str:
    lines = [
        f"setting={report.setting}  N={list(report.n_values)}  "
        f"tol={report.tolerance:.3e}  max_residual={report.max_residual:.3e}"
    ]
    failures = sorted(report.failures, key=lambda r: (r[0], str(r[1]), r[2]))
    if not failures:
        lines.append("PASS")
    else:
        lines.append(f"FAIL ({len(failures)} violations)")
        lines.append(f"{'N':>4} {'element':>12} {'site':>5} {'residual':>12}")
        for n, el, site, res in failures:
            lines.append(f"{n:>4} {str(el):>12} {site:>5} {res:>12.3e}")
    return "\n".join(lines) + "\n"


def _emit(text, out):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ----------------------------------------------------------------------------
# commands


def _verify_ops(cons, names):
    """Lists theta, r, l (su(2) generators on an su2 bundle) or the Gauss ops."""
    if not isinstance(cons, Su2Construction):
        if names == ("gauss",):
            raise SchemaError("the gauss setting needs an su2 bundle")
        return [getattr(cons, f"{name}_ops") for name in names]
    if names == ("gauss",):
        return [cons.gauss]
    cons.gauss.validate()
    return [sym.LieOps(cons.generators(name)) for name in names]


def cmd_verify(args) -> int:
    cons = io.bundle_from_dict(io.load_json(args.bundle))
    setting = SETTING_ALIASES.get(args.setting, args.setting)
    check, part, op_names = _VERIFY_CHECKS[setting]
    report = getattr(sym, check)(attrgetter(part)(cons),
                                 *_verify_ops(cons, op_names),
                                 args.n_max, args.tol)
    text = io.dumps(report.to_json_dict()) if args.json else report_render(report)
    _emit(text, args.out)
    return 0 if report.passed else 1


def cmd_construct(args) -> int:
    from .constructors import gauge_global_symmetry

    data = io.load_json(args.bundle)
    group, catalog = builtin_catalog(args.group)
    tensors = data.get("tensors", {})
    if "A" not in tensors:
        raise SchemaError("/tensors/A: missing")
    a_t = io.tensor_from_dict(tensors["A"], "/tensors/A")
    virt = data.get("virtual", {})
    if "x" not in virt:
        raise SchemaError("/virtual/x: missing")
    x_mats = io.decode_array(virt["x"], "/virtual/x")
    theta_ops = None
    if "ops" in data and "theta" in data["ops"]:
        theta_ops = io.ops_from_list(data["ops"]["theta"], "/ops/theta")
    cons = gauge_global_symmetry(a_t, x_mats, group, catalog,
                                 theta_ops=theta_ops)
    _emit(io.dumps(io.bundle_to_dict(cons)), args.out)
    return 0


def cmd_canonical_form(args) -> int:
    from .canonical import canonical_form

    data = io.load_json(args.bundle)
    if "tensors" in data:
        t = io.tensor_from_dict(data["tensors"][args.tensor],
                                f"/tensors/{args.tensor}")
    else:
        t = io.tensor_from_dict(data, "")
    result = canonical_form(t, seed=args.seed)
    _emit(io.dumps(io.canonical_form_to_dict(result)), args.out)
    return 0


def cmd_decompose_rep(args) -> int:
    from .reps import decompose_rep

    data = io.load_json(args.bundle)
    if "matrices" not in data:
        raise SchemaError("/matrices: missing")
    mats = io.decode_array(data["matrices"], "/matrices")
    group, catalog = builtin_catalog(args.group)
    rep = make_rep(group, mats)
    dec = decompose_rep(rep, catalog, tol=max(args.tol, _tol.DECOMPOSE_TOL_FLOOR))
    _emit(io.dumps(io.decomposition_to_dict(dec)), args.out)
    return 0


def cmd_example(args) -> int:
    from .constructors import build_d10_example, build_su2_example

    cons = build_d10_example() if args.name == "d10" else build_su2_example()
    _emit(io.dumps(io.bundle_to_dict(cons)), args.out)
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "verify": cmd_verify,
        "construct": cmd_construct,
        "canonical-form": cmd_canonical_form,
        "decompose-rep": cmd_decompose_rep,
        "example": cmd_example,
    }
    try:
        return handlers[args.command](args)
    except (ParseError, SchemaError, SizeLimit, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GaugeMpsError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
