"""Outside-in tracing: spans around calls into hcolor's public functions.

The tracer replaces chosen names in the hcolor module namespaces with
wrappers that record a span (name, start, end, parent) plus a few counts
read off the call's arguments and result.  Nothing inside the library
changes; `restore` puts every original back.

Only the functions below are wrapped.  Hot inner helpers (eval_term,
power_index, OperationTable.apply, ...) are left alone: wrapping them would
cost more than the work they do.
"""

from __future__ import annotations

import functools
import gzip
import resource
import time
from collections import defaultdict

LAYERS = ("classify", "polysearch", "homsolver", "algebra", "digraph")


def _indicator_counts(args, result):
    inst = result.instance
    return {"tuples": len(result.class_of), "classes": inst.variable_count,
            "constraints": len(inst.constraints)}


def _instance_counts(args, result):
    inst = args[0]
    return {"variables": inst.variable_count, "constraints": len(inst.constraints),
            "refuted": int(result is None)}


# (span name, layer whose code runs, function, namespaces to patch (None:
# every hcolor module holding it), counts from (args, result), track RSS)
TRACED = (
    ("classify.classify_special_tree", "classify", "classify_special_tree", None, None, False),
    ("classify.verify_lemma_suite", "classify", "verify_lemma_suite", None, None, False),
    ("classify.compute_core", "classify", "compute_core", None, None, False),
    ("polysearch.find_wnu", "polysearch", "find_wnu", None, None, False),
    ("polysearch.find_majority", "polysearch", "find_majority", None, None, False),
    ("polysearch.find_siggers", "polysearch", "find_siggers", None, None, False),
    ("polysearch.find_wnu_on_top_bottom", "polysearch", "find_wnu_on_top_bottom",
     None, None, False),
    ("polysearch.indicator", "polysearch", "indicator", None, _indicator_counts, True),
    ("polysearch.solve_indicator", "polysearch", "solve_indicator", None, None, False),
    # the re-checks of found tables, as polysearch calls them
    ("polysearch.verify", "algebra", "is_polymorphism", ("polysearch",), None, False),
    ("polysearch.verify", "algebra", "is_wnu", ("polysearch",), None, False),
    ("polysearch.verify", "algebra", "is_majority", ("polysearch",), None, False),
    ("polysearch.verify", "algebra", "is_siggers", ("polysearch",), None, False),
    ("polysearch.verify", "algebra", "is_tsi", ("polysearch",), None, False),
    ("homsolver.solve_instance", "homsolver", "solve_instance", None, _instance_counts, False),
    ("homsolver.solve_hom", "homsolver", "solve_hom", None, None, False),
    ("algebra.extend_wnu", "algebra", "extend_wnu", None, None, False),
    ("algebra.make_special", "algebra", "make_special", None, None, False),
    ("algebra.star_table", "algebra", "star_table", None, None, False),
    ("digraph.diagonal_component", "digraph", "diagonal_component", None, None, False),
)

# (metric, unit, better); the per_layer list of BENCHMARK.json, in order
PER_LAYER = (
    ("polysearch.indicator.s", "s", "lower"),
    ("polysearch.indicator.tuples", "count", "lower"),
    ("polysearch.indicator.classes", "count", "lower"),
    ("polysearch.indicator.constraints", "count", "lower"),
    ("polysearch.indicator.rss_growth_mb", "MB", "lower"),
    ("polysearch.split.s", "s", "lower"),
    ("polysearch.components_solved", "count", "lower"),
    ("polysearch.classes_solved", "count", "lower"),
    ("polysearch.explored_frac", "ratio", "lower"),
    ("polysearch.verify.s", "s", "lower"),
    ("homsolver.solve_instance.s", "s", "lower"),
    ("homsolver.solve_instance.calls", "count", "lower"),
    ("homsolver.solve_instance.variables", "count", "lower"),
    ("homsolver.solve_instance.constraints", "count", "lower"),
    ("homsolver.solve_instance.refuted", "count", "lower"),
    ("homsolver.solve_hom.s", "s", "lower"),
    ("homsolver.solve_hom.calls", "count", "lower"),
    ("classify.compute_core.s", "s", "lower"),
    ("classify.width_certificates.s", "s", "lower"),
    ("classify.siggers.s", "s", "lower"),
    ("algebra.extend_wnu.s", "s", "lower"),
    ("algebra.make_special.s", "s", "lower"),
    ("algebra.star_table.s", "s", "lower"),
    ("digraph.diagonal_component.s", "s", "lower"),
    ("digraph.diagonal_component.calls", "count", "lower"),
    *((f"layer.{layer}.self_s", "s", "lower") for layer in LAYERS),
    ("trace.spans", "count", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.untraced_wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

# span fields
NAME, LAYER, ITEM, PARENT, START, END, COUNTS = range(7)


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Spans kept in memory; `item` tags each span with the input it serves."""

    def __init__(self):
        self.spans: list[list] = []
        self.item = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name, layer, fn, count, track_rss):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, layer, self.item, stack[-1] if stack else -1, 0, 0, None]
            spans.append(span)
            stack.append(index)
            rss_before = _maxrss_mb() if track_rss else 0.0
            span[START] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter_ns()
                stack.pop()
            if count is not None:
                span[COUNTS] = count(args, result)
            if track_rss:
                span[COUNTS]["rss_growth_mb"] = _maxrss_mb() - rss_before
            return result

        traced.perfbench_traced = True
        return traced

    def install(self, modules: dict[str, object]) -> None:
        """Wrap every TRACED function in the given hcolor modules."""
        for name, layer, func, where, count, track_rss in TRACED:
            fn = getattr(modules[layer], func)
            wrapper = self._wrap(name, layer, fn, count, track_rss)
            for modname, mod in modules.items():
                if where is not None and modname not in where:
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._patched.append((mod, attr, fn))
                        setattr(mod, attr, wrapper)

    def restore(self) -> None:
        for mod, attr, fn in reversed(self._patched):
            setattr(mod, attr, fn)
        leftover = sorted({f"{mod.__name__}.{attr}" for mod, attr, _ in self._patched
                           if getattr(getattr(mod, attr), "perfbench_traced", False)})
        self._patched.clear()
        if leftover:
            raise RuntimeError(f"traced names not restored: {leftover}")

    def write(self, path) -> None:
        """Spans as gzipped TSV: id, parent, item, name, start_ns, end_ns, counts."""
        with gzip.open(path, "wt") as out:
            out.write("id\tparent\titem\tname\tstart_ns\tend_ns\tcounts\n")
            for i, s in enumerate(self.spans):
                counts = ",".join(f"{k}={v}" for k, v in (s[COUNTS] or {}).items())
                fields = (i, s[PARENT], s[ITEM], s[NAME], s[START], s[END], counts)
                out.write("\t".join(map(str, fields)) + "\n")

    def metrics(self) -> dict[str, float]:
        """Per-layer numbers from the spans (the trace.* and classify stage
        metrics are added by the caller)."""
        spans = self.spans
        dur = [(s[END] - s[START]) / 1e9 for s in spans]
        child = [0.0] * len(spans)
        for i, s in enumerate(spans):
            if s[PARENT] >= 0:
                child[s[PARENT]] += dur[i]
        total = defaultdict(float)
        self_time = defaultdict(float)
        calls = defaultdict(int)
        counts = defaultdict(int)
        layer_self = dict.fromkeys(LAYERS, 0.0)
        solved = {"components": 0, "classes": 0}
        for i, s in enumerate(spans):
            name = s[NAME]
            total[name] += dur[i]
            self_time[name] += dur[i] - child[i]
            calls[name] += 1
            layer_self[s[LAYER]] += dur[i] - child[i]
            for key, value in (s[COUNTS] or {}).items():
                counts[f"{name}.{key}"] += value
            if name == "homsolver.solve_instance" and s[PARENT] >= 0 \
                    and spans[s[PARENT]][NAME] == "polysearch.solve_indicator":
                solved["components"] += 1
                solved["classes"] += s[COUNTS]["variables"]
        classes = counts["polysearch.indicator.classes"]
        out = {
            "polysearch.indicator.s": total["polysearch.indicator"],
            "polysearch.split.s": self_time["polysearch.solve_indicator"],
            "polysearch.components_solved": solved["components"],
            "polysearch.classes_solved": solved["classes"],
            "polysearch.explored_frac": solved["classes"] / classes if classes else 0.0,
            "polysearch.verify.s": total["polysearch.verify"],
            "homsolver.solve_instance.s": total["homsolver.solve_instance"],
            "homsolver.solve_instance.calls": calls["homsolver.solve_instance"],
            "homsolver.solve_hom.s": total["homsolver.solve_hom"],
            "homsolver.solve_hom.calls": calls["homsolver.solve_hom"],
            "classify.compute_core.s": total["classify.compute_core"],
            "algebra.extend_wnu.s": total["algebra.extend_wnu"],
            "algebra.make_special.s": total["algebra.make_special"],
            "algebra.star_table.s": total["algebra.star_table"],
            "digraph.diagonal_component.s": total["digraph.diagonal_component"],
            "digraph.diagonal_component.calls": calls["digraph.diagonal_component"],
            "trace.spans": len(spans),
        }
        for key in ("tuples", "classes", "constraints", "rss_growth_mb"):
            out[f"polysearch.indicator.{key}"] = counts[f"polysearch.indicator.{key}"]
        for key in ("variables", "constraints", "refuted"):
            out[f"homsolver.solve_instance.{key}"] = counts[f"homsolver.solve_instance.{key}"]
        for layer, seconds in layer_self.items():
            out[f"layer.{layer}.self_s"] = seconds
        return out
