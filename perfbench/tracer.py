"""Span tracer for the traced benchmark run.

The package is not instrumented.  Instead, each layer's public functions are
replaced, in every ``liespectra`` module that holds a reference to them, by a
wrapper that records a span (name, start, end, parent) and, where a layer
metric needs one, a count taken from the call's arguments or result.  Spans are
kept in flat arrays in memory and written out when the run ends.

A span's self time is its duration minus the durations of its direct child
spans.  Span names are ``<layer>.<function>``; a layer's self time is the sum
of the self times of its spans.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from array import array
from collections import Counter, defaultdict

LAYERS = ("rootdata", "weights", "kernels", "mult", "torus", "linalg", "spectra", "verify", "cli")


def _count_len(key, pick=lambda result: result):
    def count(counts, args, kwargs, result):
        counts[key] += len(pick(result))
    return count


def _count_strata(counts, args, kwargs, result):
    datum = args[0] if args else kwargs["datum"]
    depth = args[1] if len(args) > 1 else kwargs["depth"]
    p = len(datum.positive_roots)
    counts["torus.generator_sets"] += p + (p * (p - 1) // 2 if depth >= 2 else 0)
    counts["torus.strata_found"] += len(result)


def _count_spectrum(counts, args, kwargs, result):
    multiset = args[1] if len(args) > 1 else kwargs["multiset"]
    counts["spectra.evaluated_weights"] += len(multiset.entries)


# (module, attribute, span name, count) for every wrapped function.  A
# "Class.method" attribute wraps the method on the class.
TARGETS = (
    ("liespectra.rootdata", "RootDatum.__init__", "rootdata.build", None),
    ("liespectra.rootdata", "RootDatum.weyl_order", "rootdata.weyl_order", None),
    ("liespectra.weights", "subdominant_weights", "weights.subdominant",
     _count_len("weights.dominant_weights")),
    ("liespectra.weights", "orbit_size", "weights.orbit_size", None),
    ("liespectra.weights", "weyl_orbit", "weights.weyl_orbit", None),
    ("liespectra.weights", "level_sets", "weights.level", None),
    ("liespectra.kernels", "freudenthal", "kernels.freudenthal",
     _count_len("kernels.freudenthal_dominants", lambda result: result[0])),
    ("liespectra.kernels", "orbit_expand", "kernels.orbit_expand",
     _count_len("kernels.orbit_expand_weights")),
    ("liespectra.kernels", "weyl_orbit", "kernels.weyl_orbit", None),
    ("liespectra.kernels", "dominant_subdominants", "kernels.dominant_subdominants", None),
    ("liespectra.mult", "freudenthal_multiplicities", "mult.freudenthal_multiplicities", None),
    ("liespectra.mult", "premet_weight_set", "mult.premet_weight_set", None),
    ("liespectra.mult", "weyl_dimension", "mult.weyl_dimension", None),
    ("liespectra.torus", "canonical_root_strata", "torus.strata", _count_strata),
    ("liespectra.torus", "generic_stratum_element", "torus.generic_element", None),
    ("liespectra.torus", "is_regular", "torus.regularity", None),
    ("liespectra.torus", "is_central", "torus.regularity", None),
    ("liespectra.linalg", "hermite_normal_form", "linalg.hnf", None),
    ("liespectra.linalg", "smith_normal_form", "linalg.snf", None),
    ("liespectra.spectra", "spectrum_of_multiset", "spectra.spectrum", _count_spectrum),
    ("liespectra.spectra", "classify", "spectra.classify", None),
    ("liespectra.spectra", "tensor_spectrum", "spectra.tensor", None),
    ("liespectra.verify", "run_check", "verify.run_check", None),
    ("liespectra.verify", "enumerate_modules", "verify.enumerate_modules",
     _count_len("verify.modules")),
    ("liespectra.verify", "sweep_elements", "verify.sweep_elements",
     _count_len("verify.elements")),
    ("liespectra.verify", "classification_sweep", "verify.classification_sweep", None),
    ("liespectra.cli", "run", "cli.run", None),
)
# Not wrapped: torus.evaluate (one call per weight and element; a span there
# would cost more than the evaluation, so its time shows in spectra.spectrum)
# and the Weight constructor (its time shows as the self time of its caller).


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counts = Counter()
        self.active = True
        self._stack = [-1]
        self._undo = []

    def _wrap(self, name, fn, count):
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        names, parents, starts, ends = self.span_name, self.span_parent, self.span_start, self.span_end
        stack, counts, clock = self._stack, self.counts, time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()
            if count is not None:
                count(counts, args, kwargs, result)
            return result

        return wrapper

    def install(self):
        """Replace every target, in each liespectra module that refers to it."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "liespectra" or n.startswith("liespectra."))]
        for modname, attr, name, count in TARGETS:
            owner = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(name, orig, count))
                self._undo.append((cls, meth, orig))
                continue
            orig = getattr(owner, attr)
            wrapper = self._wrap(name, orig, count)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapper)
                        self._undo.append((mod, key, orig))

    def uninstall(self):
        for obj, key, orig in reversed(self._undo):
            setattr(obj, key, orig)
        self._undo.clear()

    def summary(self):
        """Per span name: calls, inclusive seconds and self seconds."""
        n = len(self.span_name)
        child = [0.0] * n
        starts, ends, parents = self.span_start, self.span_end, self.span_parent
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        calls, incl, self_s = Counter(), defaultdict(float), defaultdict(float)
        names = self.names
        for i in range(n):
            nm = names[self.span_name[i]]
            d = ends[i] - starts[i]
            calls[nm] += 1
            incl[nm] += d
            self_s[nm] += d - child[i]
        return calls, incl, self_s

    def write_spans(self, path):
        """Spans as columns: name index, parent span index (-1 for none), and
        start/end in microseconds from the first span."""
        t0 = self.span_start[0] if len(self.span_start) else 0.0
        payload = {
            "names": self.names,
            "name": self.span_name.tolist(),
            "parent": self.span_parent.tolist(),
            "start_us": [round((t - t0) * 1e6) for t in self.span_start],
            "end_us": [round((t - t0) * 1e6) for t in self.span_end],
        }
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(payload, fh, separators=(",", ":"))


def layer_metrics(tracer, wall_s, overhead_ref_s, import_s):
    """The per-layer metrics of one traced pass, named as in BENCHMARK.json.
    ``overhead_ref_s`` is the traced pass minus an untraced one, both in
    reference seconds, so that the box's speed swings are divided out."""
    calls, incl, self_s = tracer.summary()
    c = tracer.counts
    hnf = calls["linalg.hnf"]
    gens = c["torus.generator_sets"]
    m = {
        "kernels.freudenthal_s": (incl["kernels.freudenthal"], "s"),
        "kernels.freudenthal_calls": (calls["kernels.freudenthal"], "count"),
        "kernels.freudenthal_dominants": (c["kernels.freudenthal_dominants"], "count"),
        "mult.multiplicities_self_s": (self_s["mult.freudenthal_multiplicities"], "s"),
        "kernels.orbit_expand_s": (incl["kernels.orbit_expand"], "s"),
        "kernels.orbit_expand_weights": (c["kernels.orbit_expand_weights"], "count"),
        "mult.saturated_set_self_s": (self_s["mult.premet_weight_set"], "s"),
        "weights.orbit_size_calls": (calls["weights.orbit_size"], "count"),
        "rootdata.weyl_order_calls": (calls["rootdata.weyl_order"], "count"),
        "rootdata.weyl_order_s": (incl["rootdata.weyl_order"], "s"),
        "torus.strata_s": (incl["torus.strata"], "s"),
        "torus.strata_calls": (calls["torus.strata"], "count"),
        "torus.strata_found": (c["torus.strata_found"], "count"),
        "linalg.hnf_calls": (hnf, "count"),
        "linalg.hnf_s": (incl["linalg.hnf"], "s"),
        "torus.hnf_per_generator": (hnf / gens if gens else 0.0, "ratio"),
        "verify.classification_sweep_calls": (calls["verify.classification_sweep"], "count"),
        "verify.sweep_elements_s": (incl["verify.sweep_elements"], "s"),
        "verify.elements": (c["verify.elements"], "count"),
        "spectra.spectrum_s": (incl["spectra.spectrum"], "s"),
        "spectra.spectra": (calls["spectra.spectrum"], "count"),
        "spectra.evaluated_weights": (c["spectra.evaluated_weights"], "count"),
        "spectra.classify_s": (incl["spectra.classify"], "s"),
        "spectra.tensor_s": (incl["spectra.tensor"], "s"),
        "spectra.tensor_pairs": (calls["spectra.tensor"], "count"),
        "torus.generic_element_s": (incl["torus.generic_element"], "s"),
        "linalg.snf_calls": (calls["linalg.snf"], "count"),
        "weights.subdominant_s": (incl["weights.subdominant"], "s"),
        "weights.dominant_weights": (c["weights.dominant_weights"], "count"),
        "weights.level_s": (incl["weights.level"], "s"),
        "verify.enumerate_modules_s": (incl["verify.enumerate_modules"], "s"),
        "verify.modules": (c["verify.modules"], "count"),
        "mult.weyl_dimension_calls": (calls["mult.weyl_dimension"], "count"),
        "cli.import_s": (import_s, "s"),
        "rootdata.build_s": (incl["rootdata.build"], "s"),
        "rootdata.build_calls": (calls["rootdata.build"], "count"),
        "cli.run_self_s": (self_s["cli.run"], "s"),
    }
    layer_self = {layer: 0.0 for layer in LAYERS}
    for nm, s in self_s.items():
        layer_self[nm.split(".", 1)[0]] += s
    for layer, s in layer_self.items():
        m[f"{layer}.self_s"] = (s, "s")
    m["bench.self_s"] = (wall_s - sum(layer_self.values()), "s")
    m["trace.wall_s"] = (wall_s, "s")
    m["trace.overhead_s"] = (overhead_ref_s, "ref_s")
    m["trace.spans"] = (len(tracer.span_name), "count")
    return m
