"""Span tracing of calls into angmf, installed from outside the package.

Each target is wrapped where it is looked up: a function is rebound in
every ``angmf`` module that holds it (``from x import f`` copies the
binding, so ``invert_error_cdf`` lives in both ``sampling`` and
``synth``), and a method is rebound on its class.  A target that no
longer exists is recorded as absent and reads zero.

A span records its name, start, end, parent span and op id.  Spans are
kept in compact arrays and written out once, when the run ends.  A span's
self time is its duration minus the durations of its direct children;
spans nest strictly because the benchmark runs one op at a time.
"""

import functools
import importlib
import sys
from array import array
from time import perf_counter

import numpy as np

__all__ = ["TARGETS", "BASELINE_TARGETS", "PER_LAYER", "Tracer"]


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _uniform_draws(args, kwargs, result):
    n = _arg(args, kwargs, 1, "n")
    return 1 if n is None else int(n)


def _median_iterations(args, kwargs, result):
    # only the full_output form returns a report
    return result[1].iterations if isinstance(result, tuple) else 0


# (span name, module, attribute path, {counter: f(args, kwargs, result)})
TARGETS = (
    ("cli.main", "angmf.cli", "main", {}),
    ("mapio.read_normal_map", "angmf.mapio", "read_normal_map", {}),
    ("mapio.read_kappa_map", "angmf.mapio", "read_kappa_map", {}),
    ("mapio.NormalMap.init", "angmf.mapio", "NormalMap.__init__", {}),
    ("mapio.NormalMap.from_vectors", "angmf.mapio", "NormalMap.from_vectors", {}),
    ("mapio.write_vectors_csv", "angmf.mapio", "write_vectors_csv",
     {"rows": lambda a, k, r: len(_arg(a, k, 0, "vectors"))}),
    ("mapio.read_vectors_csv", "angmf.mapio", "read_vectors_csv", {"rows": lambda a, k, r: len(r)}),
    ("mapio.write_curve_csv", "angmf.mapio", "write_curve_csv", {}),
    ("mapio.write_selection_csv", "angmf.mapio", "write_selection_csv", {}),
    ("metrics.angular_errors", "angmf.metrics", "angular_errors", {}),
    ("metrics.sparsification", "angmf.metrics", "sparsification", {}),
    ("metrics.oracle_curve", "angmf.metrics", "oracle_curve", {}),
    ("metrics.summarize", "angmf.metrics", "summarize", {}),
    ("pixel_select.select_pixels", "angmf.pixel_select", "select_pixels",
     {"pixels": lambda a, k, r: int(np.size(_arg(a, k, 0, "uncertainty")))}),
    ("rng.uniform", "angmf.rng", "RngState.uniform", {"draws": _uniform_draws}),
    ("rng.next_below", "angmf.rng", "RngState.next_below", {}),
    ("distributions.angmf_error_cdf", "angmf.distributions", "angmf_error_cdf",
     {"elements": lambda a, k, r: int(np.size(r))}),
    ("distributions.expected_angular_error", "angmf.distributions", "expected_angular_error", {}),
    ("sampling.invert_error_cdf", "angmf.sampling", "invert_error_cdf",
     {"elements": lambda a, k, r: int(np.size(r))}),
    ("sampling.sample_angmf", "angmf.sampling", "sample_angmf", {}),
    ("sampling.sample_vonmf", "angmf.sampling", "sample_vonmf", {}),
    ("estimators.fit_angmf_mle", "angmf.estimators", "fit_angmf_mle",
     {"iterations": lambda a, k, r: r.iterations}),
    ("estimators.spherical_median", "angmf.estimators", "spherical_median", {"iterations": _median_iterations}),
    ("estimators.mean_direction", "angmf.estimators", "mean_direction", {}),
    ("sphere.normalize", "angmf.sphere", "normalize", {}),
    ("synth.make_frame", "angmf.synth", "make_frame", {}),
    ("synth.sample_boundary_pixels", "angmf.synth", "sample_boundary_pixels", {}),
    ("refine.train", "angmf.refine", "train", {}),
    ("refine._forward_batch", "angmf.refine", "_forward_batch",
     {"rows": lambda a, k, r: len(_arg(a, k, 1, "x"))}),
    ("refine._backward_batch", "angmf.refine", "_backward_batch",
     {"rows": lambda a, k, r: len(_arg(a, k, 1, "x"))}),
    ("refine._mean_nll_all", "angmf.refine", "_mean_nll_all", {}),
)

# Top-level calls only: no target here runs inside another many times, so
# wrapper cost stays out of the per-call times the baseline table quotes.
BASELINE_TARGETS = tuple(t for t in TARGETS if t[0] in {
    "mapio.read_normal_map", "mapio.NormalMap.init", "mapio.NormalMap.from_vectors",
    "metrics.sparsification", "pixel_select.select_pixels", "sampling.sample_angmf",
    "sampling.sample_vonmf", "estimators.fit_angmf_mle", "estimators.spherical_median", "refine.train",
})

_UNITS = {"calls": "count", "self_s": "s", "rows": "rows", "pixels": "pixels", "draws": "draws",
          "elements": "elements", "iterations": "iterations"}

# (metric name, unit): the per-layer metrics of a traced run, in report order
PER_LAYER = tuple((name, _UNITS[name.rsplit(".", 1)[1]]) for name in (
    "cli.main.self_s",
    "mapio.read_normal_map.calls", "mapio.read_normal_map.self_s",
    "mapio.read_kappa_map.self_s",
    "mapio.NormalMap.init.calls", "mapio.NormalMap.init.self_s",
    "mapio.NormalMap.from_vectors.calls", "mapio.NormalMap.from_vectors.self_s",
    "mapio.write_vectors_csv.rows", "mapio.write_vectors_csv.self_s",
    "mapio.read_vectors_csv.rows", "mapio.read_vectors_csv.self_s",
    "mapio.write_curve_csv.self_s", "mapio.write_selection_csv.self_s",
    "metrics.angular_errors.self_s", "metrics.sparsification.self_s",
    "metrics.oracle_curve.self_s", "metrics.summarize.calls", "metrics.summarize.self_s",
    "pixel_select.select_pixels.calls", "pixel_select.select_pixels.pixels",
    "pixel_select.select_pixels.self_s",
    "rng.uniform.calls", "rng.uniform.draws", "rng.next_below.calls", "rng.self_s",
    "distributions.angmf_error_cdf.calls", "distributions.angmf_error_cdf.elements",
    "distributions.angmf_error_cdf.self_s",
    "distributions.expected_angular_error.calls", "distributions.expected_angular_error.self_s",
    "sampling.invert_error_cdf.calls", "sampling.invert_error_cdf.elements",
    "sampling.invert_error_cdf.self_s", "sampling.sample_angmf.self_s", "sampling.sample_vonmf.self_s",
    "estimators.fit_angmf_mle.calls", "estimators.fit_angmf_mle.iterations",
    "estimators.fit_angmf_mle.self_s",
    "estimators.spherical_median.calls", "estimators.spherical_median.iterations",
    "estimators.spherical_median.self_s", "estimators.mean_direction.self_s",
    "sphere.normalize.calls", "sphere.normalize.self_s",
    "synth.make_frame.calls", "synth.make_frame.self_s", "synth.sample_boundary_pixels.self_s",
    "refine.train.self_s",
    "refine._forward_batch.calls", "refine._forward_batch.rows", "refine._forward_batch.self_s",
    "refine._backward_batch.calls", "refine._backward_batch.rows", "refine._backward_batch.self_s",
    "refine._mean_nll_all.self_s",
))


class Tracer:
    """Records spans around the targets it installs; ``op_id`` tags each span."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.counts = {}  # (span name, counter, op id) -> total
        self.absent = []
        self.op_id = -1
        self._stack = []
        self._undo = []

    def install(self, targets=TARGETS):
        for name, module, attr, counters in targets:
            try:
                self._install_one(name, module, attr, counters)
            except (ImportError, AttributeError, KeyError):
                self.absent.append(name)

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _install_one(self, name, module, attr, counters):
        mod = importlib.import_module(module)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap(name, raw.__func__, counters))
            else:
                new = self._wrap(name, raw, counters)
            self._undo.append((cls, meth, raw))
            setattr(cls, meth, new)
            return
        original = getattr(mod, attr)
        wrapper = self._wrap(name, original, counters)
        for mod_name, holder in list(sys.modules.items()):
            if holder is None or not (mod_name == "angmf" or mod_name.startswith("angmf.")):
                continue
            for key, value in list(vars(holder).items()):
                if value is original:
                    self._undo.append((holder, key, original))
                    setattr(holder, key, wrapper)

    def _wrap(self, name, fn, counters):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self._name_ids[name]
        stack, counts = self._stack, self.counts
        name_id, start, end, parent, op = self.name_id, self.start, self.end, self.parent, self.op
        tracer = self

        def wrapper(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            op.append(tracer.op_id)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            for counter, count in counters.items():
                key = (name, counter, tracer.op_id)
                counts[key] = counts.get(key, 0) + count(args, kwargs, result)
            return result

        return functools.wraps(fn)(wrapper)

    def durations(self):
        """(name ids, total durations, self durations) as numpy arrays, one entry per span."""
        ids = np.frombuffer(self.name_id, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        child = np.zeros_like(dur)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        return ids, dur, dur - child

    def per_layer(self):
        """Every PER_LAYER metric as {name: (value, unit)}; absent targets read zero."""
        ids, _, self_dur = self.durations()
        by_name = {name: i for i, name in enumerate(self.names)}
        calls = np.bincount(ids, minlength=len(self.names))
        self_s = np.bincount(ids, weights=self_dur, minlength=len(self.names))
        totals = {}
        for (name, counter, _), value in self.counts.items():
            totals[(name, counter)] = totals.get((name, counter), 0) + value
        out = {}
        for metric, unit in PER_LAYER:
            span, stat = metric.rsplit(".", 1)
            if span == "rng":
                value = float(sum(self_s[i] for n, i in by_name.items() if n.startswith("rng.")))
            elif stat == "calls":
                value = int(calls[by_name[span]]) if span in by_name else 0
            elif stat == "self_s":
                value = float(self_s[by_name[span]]) if span in by_name else 0.0
            else:
                value = int(totals.get((span, stat), 0))
            out[metric] = (value, unit)
        return out

    def write(self, path, op_labels):
        """Write every span as a tab-separated line: op, label, span, parent, name, start_s, end_s."""
        with open(path, "w") as f:
            f.write("op\tlabel\tspan\tparent\tname\tstart_s\tend_s\n")
            for i in range(len(self.start)):
                op_id = self.op[i]
                label = op_labels[op_id] if 0 <= op_id < len(op_labels) else ""
                f.write(f"{op_id}\t{label}\t{i}\t{self.parent[i]}\t{self.names[self.name_id[i]]}\t"
                        f"{self.start[i]!r}\t{self.end[i]!r}\n")
