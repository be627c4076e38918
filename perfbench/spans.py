"""Span tracing of toricfan's public functions, installed from outside.

`Tracer.install` replaces each listed function with a wrapper that records
a span (name, start, end, parent span, operation id) in every `toricfan.*`
module namespace holding it, so `from .toric import transition` call sites
are traced too.  `Fan` is traced through its constructor, `Fan.__init__`.
Spans stay in memory in flat arrays; `write` puts them in a file at the
end of the run.  Nothing under `src/` changes.
"""

from __future__ import annotations

import gzip
import sys
from array import array
from time import perf_counter

LAYERS = {
    "lattice": ["dual_basis", "det", "is_part_of_basis", "rational_rank",
                "solve_combination", "rational_kernel", "integer_kernel_basis",
                "invariant_factors"],
    "cone": ["halfspace_description", "intersect_generators", "double_description"],
    "fan": ["Fan", "Fan.chart_weights", "validate", "is_complete_facet",
            "is_complete_raycast", "support_contains", "star_subdivide"],
    "toric": ["isotropy_weights", "transition", "weight_data_from_fan",
              "fan_from_weight_data", "quotient_presentation"],
    "flow": ["limit_stratum", "track", "verify_limit", "curve_point"],
    "formats": ["parse_fan", "dump_fan", "parse_weight_data", "dump_weight_data"],
    "library": ["builtin_fan"],
    "cli": ["main"],
}
SPAN_NAMES = [f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns]

DERIVED = [
    ("fan.validate.pairs", "count"),
    ("cone.intersect_generators.per_pair", "ratio"),
    ("fan.Fan.chart_weights.miss_ratio", "ratio"),
    ("flow.track.switches", "count"),
    ("toric.transition.per_switch", "ratio"),
    ("flow.verify_limit.converged_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
]


def per_layer_metric_specs():
    """(name, unit) of every per-layer metric, in report order."""
    specs = []
    for name in SPAN_NAMES:
        specs += [(f"{name}.calls", "count"), (f"{name}.self_ms", "ms")]
    return specs + DERIVED


class Tracer:
    """Records spans and the work counters read from inputs and return
    values: validated pairs, chart switches, converged verifications."""

    def __init__(self):
        self.ids = {name: i for i, name in enumerate(SPAN_NAMES)}
        self.op_id = -1
        self._saved = []
        self.reset()

    def reset(self):
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = []
        self.counters = {"pairs": 0, "switches": 0, "converged": 0}

    def _wrap(self, span, fn, observe):
        ident = self.ids[span]

        def traced(*args, **kwargs):
            idx = len(self.name)
            self.name.append(ident)
            self.parent.append(self.stack[-1] if self.stack else -1)
            self.op.append(self.op_id)
            self.start.append(0.0)
            self.end.append(0.0)
            self.stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self.stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if observe is not None:
                observe(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _observers(self):
        c = self.counters

        def validate(args, report):
            m = len(args[0].maximal_cones)
            c["pairs"] += m * (m - 1) // 2

        def track(args, segments):
            c["switches"] += len(segments) - 1

        def verify(args, report):
            c["converged"] += bool(report.converged)

        return {"fan.validate": validate, "flow.track": track,
                "flow.verify_limit": verify}

    def install(self):
        observers = self._observers()
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "toricfan" or name.startswith("toricfan."))]
        for mod_name, fns in LAYERS.items():
            home = sys.modules[f"toricfan.{mod_name}"]
            for fn in fns:
                span = f"{mod_name}.{fn}"
                if fn == "Fan":
                    self._patch(home.Fan, "__init__", span, observers)
                    continue
                if fn.startswith("Fan."):
                    self._patch(home.Fan, fn[4:], span, observers)
                    continue
                original = getattr(home, fn)
                wrapper = self._wrap(span, original, observers.get(span))
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._saved.append((mod, attr, original))
                            setattr(mod, attr, wrapper)

    def _patch(self, owner, attr, span, observers):
        original = owner.__dict__[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self._wrap(span, original, observers.get(span)))

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    def summary(self):
        """calls and self time per span name, plus span-derived ratios.

        Self time is a span's duration minus the time its direct children
        cover; spans nest, so the children never overlap."""
        count = len(self.name)
        child = [0.0] * count
        in_track = bytearray(count)
        track_id = self.ids["flow.track"]
        for i in range(count):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
                in_track[i] = in_track[p]
            if self.name[i] == track_id:
                in_track[i] = 1
        calls = [0] * len(SPAN_NAMES)
        self_s = [0.0] * len(SPAN_NAMES)
        dual_under_cache = 0
        transitions_in_track = 0
        dual_id, cache_id = self.ids["lattice.dual_basis"], self.ids["fan.Fan.chart_weights"]
        transition_id = self.ids["toric.transition"]
        for i in range(count):
            k = self.name[i]
            calls[k] += 1
            self_s[k] += self.end[i] - self.start[i] - child[i]
            p = self.parent[i]
            if k == dual_id and p >= 0 and self.name[p] == cache_id:
                dual_under_cache += 1
            if k == transition_id and in_track[i]:
                transitions_in_track += 1
        by_name = {name: (calls[i], self_s[i] * 1000.0) for i, name in enumerate(SPAN_NAMES)}
        return by_name, dual_under_cache, transitions_in_track

    def write(self, path, op_kinds):
        """One CSV line per span, gzip-compressed; start and end in
        microseconds from the first span."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            handle.write("# span,name,parent,op,op_kind,start_us,end_us\n")
            t0 = self.start[0] if len(self.start) else 0.0
            for i in range(len(self.name)):
                op = self.op[i]
                handle.write(
                    f"{i},{SPAN_NAMES[self.name[i]]},{self.parent[i]},{op},{op_kinds[op]},"
                    f"{(self.start[i] - t0) * 1e6:.1f},{(self.end[i] - t0) * 1e6:.1f}\n")


def per_layer_metrics(tracer, untraced_s, traced_s):
    by_name, dual_under_cache, transitions_in_track = tracer.summary()
    c = tracer.counters
    metrics = {}
    for name, (calls, self_ms) in by_name.items():
        metrics[f"{name}.calls"] = calls
        metrics[f"{name}.self_ms"] = self_ms
    cache_calls = by_name["fan.Fan.chart_weights"][0]
    verify_calls = by_name["flow.verify_limit"][0]
    ratio = lambda a, b: a / b if b else 0.0  # noqa: E731
    metrics["fan.validate.pairs"] = c["pairs"]
    metrics["cone.intersect_generators.per_pair"] = ratio(
        by_name["cone.intersect_generators"][0], c["pairs"])
    metrics["fan.Fan.chart_weights.miss_ratio"] = ratio(dual_under_cache, cache_calls)
    metrics["flow.track.switches"] = c["switches"]
    metrics["toric.transition.per_switch"] = ratio(transitions_in_track, c["switches"])
    metrics["flow.verify_limit.converged_ratio"] = ratio(c["converged"], verify_calls)
    metrics["trace.overhead_ratio"] = ratio(traced_s, untraced_s)
    return metrics


def work_counters(tracer):
    """The deterministic part of a traced pass: call counts and the work
    counters.  Two passes over the same operations must agree exactly."""
    by_name, dual_under_cache, transitions_in_track = tracer.summary()
    out = {f"{name}.calls": calls for name, (calls, _) in by_name.items()}
    out.update(tracer.counters)
    out["dual_basis_under_chart_weights"] = dual_under_cache
    out["transitions_in_track"] = transitions_in_track
    return out
