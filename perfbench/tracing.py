"""Spans around the public functions of each tcprop layer, recorded from outside.

The package modules import each other with ``from .x import y``, so a
function is called through whichever module namespace imported it.  The
tracer therefore rebinds every module-level name (and every value of a
module-level dict, such as the CLI's command table) that refers to a traced
function, and patches ``CompositeOperator.__matmul__`` and ``from_blocks``
on the class itself.  Uninstalling restores the original objects.

A span is (name, start, end, parent span, request id), kept in compact
arrays in memory and written out once when the run ends.  Self time is a
span's duration minus the durations of its direct children.  Work counts
that the functions do not report are computed from their arguments and
labelled as computed:

* ``spinchain.matmul.flops``: 8 d^3 real flops per dense complex product of
  dimension d;
* ``spinchain.from_blocks.bytes``: size of the assembled complex matrix;
* ``fock.spectral_fn.levels``: photon levels evaluated (one Python callback each);
* ``oracle.expm_hermitian.flops``: 44 d^3, i.e. about 9 d^3 complex
  operations for a Hermitian eigendecomposition with eigenvectors (Golub &
  Van Loan, Matrix Computations, sec. 8.3) at 4 real flops each, plus 8 d^3
  for the reconstruction product;
* ``oracle.expm_hermitian.distinct_inputs``: distinct generator matrices per
  request, by hashing their bytes.

No layer waits on another thread or a queue: every call runs to completion
on the caller's thread, so time waited is not a metric here.
"""

from __future__ import annotations

import hashlib
import sys
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

LAYERS = ("fock", "spinchain", "propagator", "oracle", "verify", "cli")

# layer -> traced attribute paths inside tcprop.<layer>
TARGETS = {
    "fock": ("cosz", "sincz", "spectral_fn"),
    "spinchain": (
        "CompositeOperator.from_blocks",
        "CompositeOperator.__matmul__",
        "coupling_operator",
        "hamiltonian",
    ),
    "propagator": (
        "evolve_one_atom",
        "evolve_two_atoms",
        "apply",
        "gauss_decompose_one_atom",
        "reconstruct_two_atoms",
        "evolve_full",
    ),
    "oracle": (
        "expm_hermitian",
        "compare",
        "sector_decompose",
        "min_poly_degree",
        "relation_fit",
        "fit_left_diagonal",
    ),
    "verify": ("run_checks",),
    "cli": ("main", "build_state", "cmd_evolve", "cmd_verify", "cmd_decompose",
            "cmd_relation_search"),
}

EXPM_FLOPS_PER_D3 = 44


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _matmul_work(tracer, args, kwargs):
    d = args[0].matrix.shape[0]
    tracer.work["spinchain.matmul.flops"] += 8 * d**3


def _from_blocks_work(tracer, args, kwargs):
    # classmethod: args[0] is the class
    d = len(_arg(args, kwargs, 2, "blocks")) * _arg(args, kwargs, 1, "space").cutoff
    tracer.work["spinchain.from_blocks.bytes"] += 16 * d * d


def _spectral_fn_work(tracer, args, kwargs):
    tracer.work["fock.spectral_fn.levels"] += _arg(args, kwargs, 0, "space").cutoff


def _expm_work(tracer, args, kwargs):
    matrix = _arg(args, kwargs, 0, "m").matrix
    tracer.work["oracle.expm_hermitian.flops"] += EXPM_FLOPS_PER_D3 * matrix.shape[0] ** 3
    digest = hashlib.blake2b(np.ascontiguousarray(matrix).tobytes(), digest_size=16).digest()
    tracer.expm_inputs[tracer.request].add(digest)


WORK_METRICS = (
    "spinchain.matmul.flops",
    "spinchain.from_blocks.bytes",
    "fock.spectral_fn.levels",
    "oracle.expm_hermitian.flops",
)
WORK = {
    "spinchain.matmul": _matmul_work,
    "spinchain.from_blocks": _from_blocks_work,
    "fock.spectral_fn": _spectral_fn_work,
    "oracle.expm_hermitian": _expm_work,
}


def _span_name(layer: str, path: str) -> str:
    attr = path.rsplit(".", 1)[-1]
    return f"{layer}.{'matmul' if attr == '__matmul__' else attr}"


class Tracer:
    """Records spans for the tcprop modules already imported in this process."""

    def __init__(self):
        self.span_names = [_span_name(layer, path) for layer, paths in TARGETS.items() for path in paths]
        self.name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.req = array("i")
        self.current = -1
        self.request = -1
        self.work: dict[str, float] = defaultdict(float)
        self.expm_inputs: dict[int, set] = defaultdict(set)
        self._restore: list = []

    def _wrap(self, fn, nid: int):
        work = WORK.get(self.span_names[nid])
        clock = time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            if work is not None:
                work(tracer, args, kwargs)
            parent = tracer.current
            idx = len(tracer.start)
            tracer.name.append(nid)
            tracer.parent.append(parent)
            tracer.req.append(tracer.request)
            tracer.end.append(0)
            tracer.current = idx
            tracer.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end[idx] = clock()
                tracer.current = parent

        traced.__wrapped__ = fn
        return traced

    def _rebind(self, original, wrapper) -> None:
        """Point every tcprop module-level reference to ``original`` at ``wrapper``."""
        for modname, module in list(sys.modules.items()):
            if modname != "tcprop" and not modname.startswith("tcprop."):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
                    self._restore.append((setattr, module, key, original))
                elif isinstance(value, dict) and not key.startswith("__"):
                    for dkey, dval in list(value.items()):
                        if dval is original:
                            value[dkey] = wrapper
                            self._restore.append((dict.__setitem__, value, dkey, original))

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        nid = 0
        for layer, paths in TARGETS.items():
            module = sys.modules[f"tcprop.{layer}"]
            for path in paths:
                if "." in path:
                    cls_name, attr = path.split(".")
                    cls = getattr(module, cls_name)
                    raw = cls.__dict__[attr]
                    if isinstance(raw, classmethod):
                        setattr(cls, attr, classmethod(self._wrap(raw.__func__, nid)))
                    else:
                        setattr(cls, attr, self._wrap(raw, nid))
                    self._restore.append((setattr, cls, attr, raw))
                else:
                    original = getattr(module, path)
                    self._rebind(original, self._wrap(original, nid))
                nid += 1

    def uninstall(self) -> None:
        for setter, obj, key, original in reversed(self._restore):
            setter(obj, key, original)
        self._restore.clear()

    @contextmanager
    def active(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def _columns(self):
        return (
            np.frombuffer(self.name, dtype=np.uint16).astype(np.int64),
            np.frombuffer(self.start, dtype=np.int64),
            np.frombuffer(self.end, dtype=np.int64),
            np.frombuffer(self.parent, dtype=np.int32).astype(np.int64),
            np.frombuffer(self.req, dtype=np.int32).astype(np.int64),
        )

    def calls_by_request(self, span: str, n_requests: int) -> np.ndarray:
        """Number of ``span`` spans in each request id 0..n_requests-1."""
        names, _, _, _, req = self._columns()
        nid = self.span_names.index(span)
        return np.bincount(req[names == nid], minlength=n_requests)[:n_requests]

    def per_request(self, n_requests: int) -> dict[str, float]:
        """Per-request totals: calls, inclusive s and self_s per span, layer self_s, work counts."""
        names, start, end, parent, req = self._columns()
        k = len(self.span_names)
        dur = (end - start) / 1e9
        child = np.zeros(dur.size)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child
        calls = np.bincount(names, minlength=k)
        total = np.bincount(names, weights=dur, minlength=k)
        self_total = np.bincount(names, weights=self_time, minlength=k)
        out: dict[str, float] = {}
        for nid, span in enumerate(self.span_names):
            out[f"{span}.calls"] = calls[nid] / n_requests
            out[f"{span}.s"] = total[nid] / n_requests
            out[f"{span}.self_s"] = self_total[nid] / n_requests
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(
                out[f"{span}.self_s"] for span in self.span_names if span.startswith(layer + ".")
            )
        for metric in WORK_METRICS:
            out[metric] = self.work.get(metric, 0.0) / n_requests
        out["oracle.expm_hermitian.distinct_inputs"] = (
            sum(len(s) for s in self.expm_inputs.values()) / n_requests
        )
        return out

    def write(self, path: Path) -> None:
        names, start, end, parent, req = self._columns()
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path, span_names=np.array(self.span_names), name=names, start_ns=start,
            end_ns=end, parent=parent, request=req,
        )
