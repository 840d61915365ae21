"""Spans around calls into gauge_mps's public functions and numpy.linalg.

Installed only for a traced run.  `Tracer.install` wraps every public
function defined in each package module, plus the dense kernels of
numpy.linalg, and rebinds the wrapper wherever a module namespace holds
the original (so `from .tensors import is_normal` bindings in canonical
and symmetry are traced too).  Spans are recorded only inside a request
(`Tracer.request`); outside it the wrappers call straight through.

A span's self time is its duration minus the durations of its child spans;
children include the linalg spans.  Spans are kept in memory and written
out by the caller when the run ends.
"""
from __future__ import annotations

import functools
import os
import sys
import time
from contextlib import contextmanager

LAYERS = ("cli", "io", "su2", "groups", "reps", "constructors", "tensors",
          "canonical", "symmetry")
# dense kernels: eig and eigvals form the eig group, eigh and eigvalsh the
# eigh group; the rest are traced so that their time is not charged to callers
LINALG = ("eig", "eigvals", "eigh", "eigvalsh", "svd", "lstsq", "inv", "det",
          "matrix_rank", "cholesky", "qr", "solve", "pinv")
CHECKS = ("check_local_symmetry_matter", "check_global_symmetry",
          "check_local_symmetry_gauge", "check_local_symmetry_matter_gauge",
          "check_gauss_law")

EIG = ("linalg.eig", "linalg.eigvals")
EIGH = ("linalg.eigh", "linalg.eigvalsh")
SPECTRUM = ("tensors.spectral_radius", "tensors.unit_eigenvalue_count",
            "tensors.fixed_point")
CONTRACT = ("tensors.contract_mpv",)
SU2_ELEMENT = ("su2.su2_element", "su2.element_from_generators")
IO_LOAD = ("io.load_json", "io.bundle_from_dict", "io.tensor_from_dict",
           "io.group_from_dict", "io.ops_from_list", "io.decode_array")
IO_DUMP = ("io.dumps", "io.save_json", "io.bundle_to_dict", "io.tensor_to_dict",
           "io.encode_array", "io.canonical_form_to_dict",
           "io.decomposition_to_dict")

# (metric, unit, span field, span names summed); `calls` and `self_s` are
# kept for every span, the other fields by `_counters` below
PER_LAYER = [
    ("linalg.eig.calls", "count", "calls", EIG),
    ("linalg.eig.self_s", "s", "self_s", EIG),
    ("linalg.eig.flops_computed", "flop", "flops", EIG),
    ("linalg.svd.calls", "count", "calls", ("linalg.svd",)),
    ("linalg.svd.self_s", "s", "self_s", ("linalg.svd",)),
    ("linalg.eigh.calls", "count", "calls", EIGH),
    ("linalg.eigh.self_s", "s", "self_s", EIGH),
    ("linalg.lstsq.calls", "count", "calls", ("linalg.lstsq",)),
    ("linalg.lstsq.self_s", "s", "self_s", ("linalg.lstsq",)),
    ("tensors.contract.calls", "count", "calls", CONTRACT),
    ("tensors.contract.elements", "count", "elements", CONTRACT),
    ("tensors.contract.self_s", "s", "self_s",
     CONTRACT + ("tensors.contract_pair_mpv",)),
    ("tensors.spectrum.calls", "count", "calls", SPECTRUM),
    ("tensors.spectrum.self_s", "s", "self_s", SPECTRUM),
    ("tensors.transfer_matrix.calls", "count", "calls",
     ("tensors.transfer_matrix",)),
    ("tensors.is_normal.calls", "count", "calls", ("tensors.is_normal",)),
    ("tensors.is_normal.self_s", "s", "self_s", ("tensors.is_normal",)),
    ("tensors.injectivity_length.self_s", "s", "self_s",
     ("tensors.injectivity_length",)),
    ("canonical.canonical_form.calls", "count", "calls",
     ("canonical.canonical_form",)),
    ("canonical.canonical_form.self_s", "s", "self_s",
     ("canonical.canonical_form",)),
    ("canonical.find_gauge_between.self_s", "s", "self_s",
     ("canonical.find_gauge_between",)),
    ("canonical.pair_decompose.self_s", "s", "self_s",
     ("canonical.pair_decompose",)),
    ("symmetry.check.windows", "count", "windows",
     tuple(f"symmetry.{c}" for c in CHECKS)),
    ("symmetry.bab.self_s", "s", "self_s",
     ("symmetry.check_local_symmetry_matter_gauge",)),
    ("symmetry.gauss.self_s", "s", "self_s", ("symmetry.check_gauss_law",)),
    ("symmetry.gauge_local.self_s", "s", "self_s",
     ("symmetry.check_local_symmetry_gauge",)),
    ("symmetry.matter_local.self_s", "s", "self_s",
     ("symmetry.check_local_symmetry_matter",)),
    ("symmetry.matter_global.self_s", "s", "self_s",
     ("symmetry.check_global_symmetry",)),
    ("symmetry.extract_virtual_rep.self_s", "s", "self_s",
     ("symmetry.extract_virtual_rep",)),
    ("symmetry.analyze_gauge_hilbert.self_s", "s", "self_s",
     ("symmetry.analyze_gauge_hilbert",)),
    ("reps.intertwiner_space.calls", "count", "calls",
     ("reps.intertwiner_space",)),
    ("reps.intertwiner_space.self_s", "s", "self_s",
     ("reps.intertwiner_space",)),
    ("reps.decompose_rep.calls", "count", "calls", ("reps.decompose_rep",)),
    ("reps.decompose_rep.self_s", "s", "self_s", ("reps.decompose_rep",)),
    ("reps.clebsch_gordan.calls", "count", "calls", ("reps.clebsch_gordan",)),
    ("reps.clebsch_gordan.self_s", "s", "self_s", ("reps.clebsch_gordan",)),
    ("reps.check_projective_rep.self_s", "s", "self_s",
     ("reps.check_projective_rep",)),
    ("constructors.wigner_eckart_a_block.self_s", "s", "self_s",
     ("constructors.wigner_eckart_a_block",)),
    ("constructors.gauge_global_symmetry.self_s", "s", "self_s",
     ("constructors.gauge_global_symmetry",)),
    ("su2.element.calls", "count", "calls", SU2_ELEMENT),
    ("su2.element.self_s", "s", "self_s", SU2_ELEMENT),
    ("io.load.self_s", "s", "self_s", IO_LOAD),
    ("io.dump.self_s", "s", "self_s", IO_DUMP),
    ("io.bundle_bytes", "bytes", "bytes", ("io.load_json",)),
    ("cli.main.self_s", "s", "self_s", ("cli.main",)),
]
# each layer's busy time: the self time of all its spans
PER_LAYER += [(f"{layer}.self_s", "s", "self_s", layer)
              for layer in LAYERS + ("linalg",)]


def _eig_flops(name, size):
    """Golub & Van Loan estimate for the dense nonsymmetric eigenproblem:
    10 n^3 for eigenvalues only, 25 n^3 with eigenvectors, times 4 for
    complex input, per matrix of the batch."""
    batch, n, is_complex = size
    per = (25 if name == "linalg.eig" else 10) * n ** 3
    return batch * per * (4 if is_complex else 1)


def problem_size(args, kwargs):
    """(d, D, N, |G|) of a call, read from its arguments; 0 where absent."""
    d = D = N = G = 0
    for pos, arg in enumerate(list(args) + list(kwargs.items())):
        key = None
        if pos >= len(args):
            key, arg = arg
        cls = type(arg).__name__
        if cls == "MpsTensor":
            d, D = d or arg.phys_dim, D or arg.left_dim
        elif cls == "TensorPair":
            d = d or arg.A.phys_dim * arg.B.phys_dim
            D = D or arg.A.left_dim
        elif cls in ("Rep", "Irrep"):
            G, D = G or arg.group.order, D or arg.dim
        elif cls == "FiniteGroup":
            G = G or arg.order
        elif pos == 0 and getattr(arg, "ndim", 0) >= 2:   # a linalg operand
            D = arg.shape[-1]
        elif isinstance(arg, int) and not isinstance(arg, bool) \
                and key in (None, "n", "n_max", "n_pairs"):
            N = N or arg
        elif isinstance(arg, (list, tuple)) and arg and isinstance(arg[0], tuple) \
                and len(arg[0]) == 2 and isinstance(arg[0][0], str):
            G = G or len(arg)   # (label, matrix) operator lists
    return d, D, N, G


class Tracer:
    """Collects spans for the calls made inside `request` blocks."""

    def __init__(self):
        self.spans = []     # (id, parent id, name, start, end, request, size)
        self.stats = {}     # span name -> {"calls": .., "self_s": .., ...}
        self.absent = []    # metric span names that the package does not define
        self._stack = []    # open frames: [span id, name, start, child time]
        self._request = None
        self._undo = []     # (namespace, attribute, original)
        self._t0 = time.perf_counter()

    # -- installation --------------------------------------------------------

    def install(self, package):
        """Wrap the package's public functions and the linalg kernels."""
        import numpy.linalg

        originals = {}
        namespaces = [package]
        for layer in LAYERS:
            mod = sys.modules.get(f"{package.__name__}.{layer}")
            if mod is None:
                continue
            namespaces.append(mod)
            for attr, obj in vars(mod).items():
                if not attr.startswith("_") and callable(obj) \
                        and not isinstance(obj, type) \
                        and getattr(obj, "__module__", None) == mod.__name__:
                    originals[obj] = f"{layer}.{attr}"
        # the implementation module, whose own functions (matrix_rank, pinv)
        # call svd and friends through its globals
        impl = sys.modules.get("numpy.linalg._linalg") \
            or sys.modules.get("numpy.linalg.linalg")
        namespaces += [numpy.linalg] + ([impl] if impl is not None else [])
        for attr in LINALG:
            if hasattr(numpy.linalg, attr):
                originals[getattr(numpy.linalg, attr)] = f"linalg.{attr}"
        wrappers = {fn: self._wrap(name, fn) for fn, name in originals.items()}
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                try:
                    wrapper = wrappers.get(obj)
                except TypeError:   # unhashable module attribute
                    continue
                if wrapper is not None:
                    self._undo.append((ns, attr, obj))
                    setattr(ns, attr, wrapper)
        named = {name for *_, names in PER_LAYER if not isinstance(names, str)
                 for name in names}
        self.absent = sorted(named - set(originals.values()))
        return self

    def uninstall(self):
        for ns, attr, obj in reversed(self._undo):
            setattr(ns, attr, obj)
        self._undo.clear()

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._request is None:
                return fn(*args, **kwargs)
            frame = tracer._open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                tracer._close(frame, name, args, kwargs, result)

        return traced

    # -- spans -----------------------------------------------------------------

    def _open(self, name):
        frame = [len(self.spans) + len(self._stack), name, time.perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def _close(self, frame, name, args, kwargs, result):
        end = time.perf_counter()
        self._stack.pop()
        span_id, _, start, child = frame
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        size = problem_size(args, kwargs)
        st = self.stats.setdefault(name, {"calls": 0, "self_s": 0.0})
        st["calls"] += 1
        st["self_s"] += duration - child
        for field, amount in self._counters(name, args, size, result):
            st[field] = st.get(field, 0) + amount
        self.spans.append((span_id, parent[0] if parent else None, name,
                           start - self._t0, end - self._t0, self._request, size))

    @staticmethod
    def _counters(name, args, size, result):
        if name in EIG and args and hasattr(args[0], "shape"):
            a = args[0]
            batch = 1
            for k in a.shape[:-2]:
                batch *= k
            yield "flops", _eig_flops(name, (batch, a.shape[-1],
                                             a.dtype.kind == "c"))
        elif name in CONTRACT:
            d, D, N, _ = size
            yield "elements", d ** N * D * D
        elif name.startswith("symmetry.check_") and hasattr(result, "records"):
            yield "windows", len(result.records)
        elif name == "io.load_json" and args and isinstance(args[0], (str, os.PathLike)):
            yield "bytes", os.path.getsize(args[0])

    @contextmanager
    def request(self, request_id, kind, size):
        """Record the spans of one request under a root span named `kind`."""
        self._request = request_id
        frame = self._open(f"request.{kind}")
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            span_id, name, start, _ = frame
            self.spans.append((span_id, None, name, start - self._t0,
                               end - self._t0, request_id, tuple(size)))
            self._request = None

    # -- results ----------------------------------------------------------------

    def per_layer(self):
        """{metric: (value, unit)} for every PER_LAYER row."""
        out = {}
        for metric, unit, field, names in PER_LAYER:
            if isinstance(names, str):  # a whole layer
                names = [n for n in self.stats if n.split(".", 1)[0] == names]
            value = sum(self.stats.get(n, {}).get(field, 0) for n in names)
            out[metric] = (value, unit)
        return out

    def request_summaries(self):
        """Per request: kind, size, duration, and the eig group's calls and
        self time, for reading one request's profile from the trace."""
        children = {}
        for _, parent, _, start, end, _, _ in self.spans:
            children[parent] = children.get(parent, 0.0) + (end - start)
        out = {}
        for span_id, parent, name, start, end, req, size in self.spans:
            s = out.setdefault(req, {"eig_calls": 0, "eig_self_s": 0.0})
            if parent is None:
                s.update(kind=name, size=size, duration_s=end - start)
            elif name in EIG:
                s["eig_calls"] += 1
                s["eig_self_s"] += end - start - children.get(span_id, 0.0)
        return out
