"""Per-layer tracing of hartogslab, installed from the benchmark's own files.

A traced operation runs with wrappers around the calls into each layer: every
binding of a wrapped function in the package's modules is replaced (so
`geometry.jet_det` and `domains.jet_det` both record), and the Jet methods are
replaced on the class. `uninstall` puts every original object back; untraced
runs check that no wrapper is left anywhere before they time anything.

Spans (name, start, end, parent span, operation id) are kept in memory in flat
arrays and written out once, at the end of the run. A layer's self time is its
spans' durations minus the parts covered by their child spans.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from array import array

import numpy as np

MODULES = ("hartogslab", "hartogslab.jets", "hartogslab.domains",
           "hartogslab.geometry", "hartogslab.oracles", "hartogslab.cases",
           "hartogslab.cli")

# (module, function, span name). Names that a module no longer has are
# skipped and listed in Tracer.missing, so a refactor does not break tracing.
FUNCTION_SPANS = (
    ("jets", "jet_det", "jets.det"),
    ("jets", "jet_log", "jets.compose"),
    ("jets", "jet_real_power", "jets.compose"),
    ("jets", "jet_reciprocal", "jets.compose"),
    ("domains", "generic_norm_jet", "domains.generic_norm_jet"),
    ("domains", "sample_interior", "domains.sample_interior"),
    ("domains", "contains", "domains.contains"),
    ("geometry", "curvature_report", "geometry.curvature_report"),
    ("geometry", "hartogs_potential_jet", "geometry.hartogs_potential_jet"),
    ("geometry", "curvature_report_from_potential", "geometry.report"),
    ("geometry", "metric_at", "geometry.metric_at"),
    ("geometry", "_log_det_jets", "geometry.log_det"),
    ("geometry", "ricci_and_scalar", "geometry.ricci_and_scalar"),
    ("geometry", "curvature_tensor", "geometry.curvature_tensor"),
    ("geometry", "tensor_norms", "geometry.tensor_norms"),
    ("geometry", "_laplacian_from_parts", "geometry.laplacian"),
    ("geometry", "scalar_curvature_at", "geometry.scalar_curvature_at"),
    ("oracles", "scalar_curvature_formula", "oracles"),
    ("oracles", "R2_formula", "oracles"),
    ("oracles", "lap_k_formula", "oracles"),
    ("oracles", "ric2_formula", "oracles"),
    ("oracles", "a2_quadratic_coeffs", "oracles"),
    ("oracles", "appendix_R2_base", "oracles"),
    ("cases", "classify_all", "cases.classify_all"),
    ("cases", "integer_root_scan", "cases.integer_root_scan"),
    ("cli", "main", "cli.main"),
)
JET_METHOD_SPANS = (("partial", "jets.partial"),
                    ("derivative_jet", "jets.derivative_jet"))
MUL_CAPS = ("c11", "c22", "c33")
# layers reported as calls and self time, and spans reported as self time
CALL_LAYERS = ("jets.det", "jets.compose", "jets.partial", "jets.derivative_jet",
               "oracles")
SELF_TIME_SPANS = ("geometry.hartogs_potential_jet", "geometry.metric_at",
                   "geometry.curvature_tensor", "geometry.ricci_and_scalar",
                   "geometry.tensor_norms", "geometry.scalar_curvature_at",
                   "geometry.report", "geometry.log_det", "geometry.laplacian",
                   "domains.generic_norm_jet", "domains.sample_interior",
                   "cases.classify_all", "cases.integer_root_scan", "cli.main")


def wrapped_bindings(H):
    """Every (owner, name) that currently holds a tracing wrapper; empty when
    the package is untouched."""
    owners = [sys.modules[m] for m in MODULES if m in sys.modules] + [H.jets.Jet]
    return [(getattr(o, "__name__", o), k) for o in owners
            for k, v in list(vars(o).items()) if hasattr(v, "__traced__")]


def self_times(start, end, parent):
    """Self time of each span: its duration minus its children's durations."""
    dur = end - start
    child = parent >= 0
    covered = np.bincount(parent[child], weights=dur[child], minlength=len(dur))
    return dur - covered


class Tracer:
    """Spans and counters of traced operations; `install` and `uninstall`
    switch the wrappers on and off between operations."""

    def __init__(self, H):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.op_id = -1
        self.counters = {}
        self.missing = []
        self._patches = []  # (owner, name, original, wrapper)
        self._installed = False
        self._build(H)

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _count(self, key, amount):
        self.counters[key] = self.counters.get(key, 0) + amount

    def _wrap(self, fn, name_of, after=None):
        names, parents, ops = self.name, self.parent, self.op
        starts, ends, stack = self.start, self.end, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(name_of(args))
            parents.append(stack[-1])
            ops.append(self.op_id)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if after is not None:
                after(args, result)
            return result

        wrapper.__traced__ = True
        return wrapper

    def _patch_everywhere(self, owners, original, wrapper):
        for owner in owners:
            for key, value in list(vars(owner).items()):
                if value is original:
                    self._patches.append((owner, key, original, wrapper))

    def _build(self, H):
        modules = [sys.modules[m] for m in MODULES if m in sys.modules]
        for module, attr, span in FUNCTION_SPANS:
            fn = getattr(getattr(H, module), attr, None)
            if fn is None:
                self.missing.append(module + "." + attr)
                continue
            sid = self._id(span)
            after = None
            if span == "domains.sample_interior":
                after = lambda args, result: self._count("sample.points", len(result))
            elif span == "cases.classify_all":
                after = lambda args, result: self._count("cases.pairs_checked", sum(
                    v.evidence.get("pairs_checked", 0) for v in result["verdicts"]))
            self._patch_everywhere(modules, fn, self._wrap(fn, lambda a, s=sid: s, after))

        Jet = H.jets.Jet
        mul_ids = {}

        def mul_name(args):
            cap = args[0].cap
            key = (cap[0], cap[1])
            if key not in mul_ids:
                mul_ids[key] = self._id("jets.mul.c%d%d" % key)
            return mul_ids[key]

        def mul_bytes(args, result):
            other = args[1]
            nbytes = args[0].data.nbytes + result.data.nbytes + (
                other.data.nbytes if isinstance(other, Jet) else 0)
            self._count("jets.mul.bytes.c%d%d" % tuple(args[0].cap), nbytes)

        mul = Jet.__dict__["__mul__"]
        self._patch_everywhere([Jet], mul, self._wrap(mul, mul_name, mul_bytes))
        for attr, span in JET_METHOD_SPANS:
            fn = Jet.__dict__.get(attr)
            if fn is None:
                self.missing.append("jets.Jet." + attr)
                continue
            sid = self._id(span)
            self._patch_everywhere([Jet], fn, self._wrap(fn, lambda a, s=sid: s))

    def install(self):
        if self._installed:
            raise RuntimeError("tracer is already installed")
        self._installed = True
        for owner, key, _, wrapper in self._patches:
            setattr(owner, key, wrapper)

    def uninstall(self):
        for owner, key, original, _ in reversed(self._patches):
            setattr(owner, key, original)
        self._installed = False

    def arrays(self):
        return (np.frombuffer(self.name, dtype=np.int32),
                np.frombuffer(self.start, dtype=np.float64),
                np.frombuffer(self.end, dtype=np.float64),
                np.frombuffer(self.parent, dtype=np.int32),
                np.frombuffer(self.op, dtype=np.int32))

    def save(self, path):
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        name, start, end, parent, op = self.arrays()
        np.savez(path, names=np.array(self.names), name=name, start=start,
                 end=end, parent=parent, op=op)

    def summary(self, passes, op_kind, op_scale):
        """Per-layer metrics per pass, plus inclusive stage times per
        operation kind (for the stage split table). Span times of operation
        i are multiplied by op_scale[i], as the operation's own time was."""
        name, start, end, parent, op = self.arrays()
        scale = op_scale[np.maximum(op, 0)]
        own = self_times(start, end, parent) * scale
        dur = (end - start) * scale
        n_names = len(self.names)
        calls = np.bincount(name, minlength=n_names)
        self_s = np.bincount(name, weights=own, minlength=n_names)

        def per_pass(x):
            return float(x) / passes

        def by_name(span, what):
            sid = self._ids.get(span)
            if sid is None:
                return 0.0
            return per_pass(calls[sid] if what == "calls" else self_s[sid] * 1e3)

        m = {}
        for cap in MUL_CAPS:
            m["jets.mul.calls." + cap] = by_name("jets.mul." + cap, "calls")
            m["jets.mul.self_ms." + cap] = by_name("jets.mul." + cap, "self_ms")
            m["jets.mul.bytes_computed." + cap] = per_pass(
                self.counters.get("jets.mul.bytes." + cap, 0))
        for layer in CALL_LAYERS:
            m[layer + ".calls"] = by_name(layer, "calls")
            m[layer + ".self_ms"] = by_name(layer, "self_ms")
        for span in SELF_TIME_SPANS:
            m[span + ".self_ms"] = by_name(span, "self_ms")
        # accept ratio: points sample_interior returned over the contains()
        # calls it made; 0 where the workload does not sample
        tries = 0
        sid, cid = self._ids.get("domains.sample_interior"), self._ids.get("domains.contains")
        if sid is not None and cid is not None:
            has_parent = parent >= 0
            tries = int(np.count_nonzero(
                (name == cid) & has_parent & (name[np.where(has_parent, parent, 0)] == sid)))
        m["domains.sample.accept_ratio"] = (
            self.counters.get("sample.points", 0) / tries if tries else 0.0)
        m["cases.pairs_checked"] = per_pass(self.counters.get("cases.pairs_checked", 0))

        stages = {}
        kinds = np.where(op >= 0, op_kind[np.maximum(op, 0)], -1)
        for sid, span in enumerate(self.names):
            sel = name == sid
            for kind in np.unique(kinds[sel]):
                if kind >= 0:
                    stages[(int(kind), span)] = float(dur[sel & (kinds == kind)].sum())
        return m, stages
