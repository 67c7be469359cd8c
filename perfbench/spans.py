"""Spans around calls into each zetasolve layer, recorded from outside it.

Every public function of a layer module is wrapped wherever it is bound in
a ``zetasolve`` module namespace (so a kernel added later is picked up
without a change here), and so are ``__init__`` and the public methods of
the layer's public classes.  A span records layer, name, start, end, parent
span and op id.  The special functions are per-point leaves called about
10^5 times per op; they get no span of their own but add a call count and
a busy time to the span that called them.

Self time is a span's duration minus its child spans and leaf busy time, so
the layer self times of an op add up to the op's top-level ``cli.main``
span.  Spans stay in memory and are written out by the caller at the end.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import weakref
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("cli", "solver", "zeta", "theta", "specfun", "spherequad", "quadforms")
LEAF_LAYERS = ("specfun",)
# evaluations of a continued zeta family at one s (lattice variants call these)
EVALUATORS = ("epstein_continued", "weighted_continued", "vector_zeta")

# span record fields
LAYER, NAME, START, END, PARENT, OP, LEAF_CALLS, LEAF_BUSY = range(8)
COLUMNS = ("layer", "name", "start", "end", "parent", "op", "leaf_calls", "leaf_busy_s")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op_id = None
        self.leaf = defaultdict(lambda: [0, 0.0])   # name -> [calls, busy seconds]
        self.counts = Counter()
        self._enums = weakref.WeakValueDictionary()  # id -> enumeration already returned
        self._dual_forms: set[int] = set()           # ids of forms built by inverse_form
        self._undo: list[tuple] = []
        self._observers = {
            "theta.enumerate_ellipsoid": self._on_enumerate,
            "zeta.residue_numeric": self._on_residue_numeric,
            "quadforms.SPDForm.__init__": self._on_form_built,
            "quadforms.SPDForm.inverse_form": self._on_inverse_form,
            "spherequad.sample_directions": self._on_sample,
            "spherequad.sphere_quadrature_nodes": self._on_nodes,
        }
        for name in EVALUATORS:
            self._observers[f"zeta.{name}"] = self._on_evaluation

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        mods = [m for name, m in sorted(sys.modules.items())
                if name == "zetasolve" or name.startswith("zetasolve.")]
        for layer in LAYERS:
            mod = sys.modules[f"zetasolve.{layer}"]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapper = self._wrap(layer, attr, obj)
                    for m in mods:
                        for key, val in list(vars(m).items()):
                            if val is obj:
                                setattr(m, key, wrapper)
                                self._undo.append((m, key, obj))
                elif inspect.isclass(obj):
                    for meth_name, meth in list(vars(obj).items()):
                        if inspect.isfunction(meth) and (
                                meth_name == "__init__" or not meth_name.startswith("_")):
                            setattr(obj, meth_name,
                                    self._wrap(layer, f"{attr}.{meth_name}", meth))
                            self._undo.append((obj, meth_name, meth))

    def uninstall(self) -> None:
        for target, key, original in reversed(self._undo):
            setattr(target, key, original)
        self._undo.clear()

    def _wrap(self, layer: str, name: str, fn):
        spans, stack = self.spans, self.stack
        if layer in LEAF_LAYERS:
            acc = self.leaf[name]

            @functools.wraps(fn)
            def leaf(*args, **kwargs):
                t0 = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = perf_counter() - t0
                    acc[0] += 1
                    acc[1] += dt
                    rec = spans[stack[-1]]
                    rec[LEAF_CALLS] += 1
                    rec[LEAF_BUSY] += dt
            return leaf

        observe = self._observers.get(f"{layer}.{name}")
        tracer = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            rec = [layer, name, 0.0, 0.0, stack[-1] if stack else -1, tracer.op_id, 0, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                stack.pop()
            if observe is not None:
                observe(args, kwargs, result, fn)
            return result
        return span

    # -- counters at layer boundaries ----------------------------------------

    def _caller_layer(self) -> str | None:
        return self.spans[self.stack[-1]][LAYER] if self.stack else None

    def _on_enumerate(self, args, kwargs, result, fn):
        c = self.counts
        c["enumerate.points"] += len(result)
        if self._enums.get(id(result)) is result:
            c["enumerate.hits"] += 1
        else:
            self._enums[id(result)] = result
        if self._caller_layer() == "zeta":
            form = args[0] if args else kwargs["Q"]
            side = "dual" if id(form) in self._dual_forms else "main"
            c[f"zeta.points.{side}"] += len(result)

    def _on_residue_numeric(self, args, kwargs, result, fn):
        bound = inspect.signature(fn).bind(*args, **kwargs)
        bound.apply_defaults()
        self.counts["zeta.contour_nodes"] += int(bound.arguments["m"])

    def _on_evaluation(self, args, kwargs, result, fn):
        self.counts["zeta.evals"] += 1

    def _on_form_built(self, args, kwargs, result, fn):
        self.counts["quadforms.forms_built"] += 1
        self._dual_forms.discard(id(args[0]))  # a new object may reuse an old id

    def _on_inverse_form(self, args, kwargs, result, fn):
        self._dual_forms.add(id(result))

    def _on_sample(self, args, kwargs, result, fn):
        self.counts["sample.directions"] += result.shape[0]
        self.counts["bytes"] += result.nbytes
        if self._caller_layer() == "solver":
            self.counts["solver.samples"] += result.shape[0]

    def _on_nodes(self, args, kwargs, result, fn):
        u, w = result
        self.counts["nodes.count"] += u.shape[0]
        self.counts["bytes"] += u.nbytes + w.nbytes
        if self._caller_layer() == "solver":
            self.counts["solver.samples"] += u.shape[0]

    # -- results --------------------------------------------------------------

    def _child_seconds(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[PARENT] >= 0:
                child[rec[PARENT]] += rec[END] - rec[START]
        return child

    def self_times(self):
        """(self time per layer, self time per span name, calls per span name)."""
        by_layer = defaultdict(float)
        by_name = defaultdict(float)
        calls = Counter()
        for rec, sub in zip(self.spans, self._child_seconds()):
            own = rec[END] - rec[START] - sub - rec[LEAF_BUSY]
            by_layer[rec[LAYER]] += own
            by_name[f"{rec[LAYER]}.{rec[NAME]}"] += own
            calls[f"{rec[LAYER]}.{rec[NAME]}"] += 1
        by_layer["specfun"] = sum(busy for _, busy in self.leaf.values())
        return by_layer, by_name, calls

    def by_group(self, group_of) -> dict:
        """Traced op seconds and self seconds per layer, per group of ops.

        ``group_of`` maps an op id to its group; the ``sample`` entry is the
        self time of ``sample_directions``.
        """
        out: dict = defaultdict(lambda: defaultdict(float))
        for rec, sub in zip(self.spans, self._child_seconds()):
            g = out[group_of(rec[OP])]
            dur = rec[END] - rec[START]
            if rec[PARENT] < 0:
                g["op"] += dur
            g[rec[LAYER]] += dur - sub - rec[LEAF_BUSY]
            g["specfun"] += rec[LEAF_BUSY]
            if rec[NAME] == "sample_directions":
                g["sample"] += dur - sub
        return out

    def metrics(self) -> dict:
        """Per-layer metrics; every ratio with a zero base reads 0."""
        by_layer, by_name, calls = self.self_times()
        c = self.counts

        def ratio(num, den):
            return num / den if den else 0.0

        ig_calls, ig_busy = self.leaf["upper_incomplete_gamma"]
        points = c["zeta.points.main"] + c["zeta.points.dual"]
        enum_calls = calls["theta.enumerate_ellipsoid"]
        sample_s = by_name["spherequad.sample_directions"]
        return {
            "cli.calls": calls["cli.main"],
            "cli.self_s": by_layer["cli"],
            "solver.calls": sum(v for k, v in calls.items() if k.startswith("solver.")),
            "solver.self_s": by_layer["solver"],
            "solver.samples": c["solver.samples"],
            "solver.ns_per_sample": 1e9 * ratio(by_layer["solver"], c["solver.samples"]),
            "zeta.evals": c["zeta.evals"],
            "zeta.self_s": by_layer["zeta"],
            "zeta.points_summed": points,
            "zeta.contour_nodes": c["zeta.contour_nodes"],
            "zeta.dual_to_main_points": ratio(c["zeta.points.dual"], c["zeta.points.main"]),
            "theta.self_s": by_layer["theta"],
            "theta.enumerate.calls": enum_calls,
            "theta.enumerate.points": c["enumerate.points"],
            "theta.enumerate.self_s": by_name["theta.enumerate_ellipsoid"],
            "theta.enumerate.hit_ratio": ratio(c["enumerate.hits"], enum_calls),
            "specfun.self_s": by_layer["specfun"],
            "specfun.igamma.calls": ig_calls,
            "specfun.igamma.self_s": ig_busy,
            "specfun.igamma.ns_per_call": 1e9 * ratio(ig_busy, ig_calls),
            "specfun.igamma.calls_per_point": ratio(ig_calls, points),
            "quadforms.forms_built": c["quadforms.forms_built"],
            "quadforms.self_s": by_layer["quadforms"],
            "spherequad.self_s": by_layer["spherequad"],
            "spherequad.sample.directions": c["sample.directions"],
            "spherequad.sample.self_s": sample_s,
            "spherequad.sample.ns_per_direction": 1e9 * ratio(sample_s, c["sample.directions"]),
            "spherequad.nodes.count": c["nodes.count"],
            "spherequad.nodes.self_s": by_name["spherequad.sphere_quadrature_nodes"],
            "spherequad.integrate.calls": calls["spherequad.sphere_integrate"],
            "spherequad.integrate.self_s": by_name["spherequad.sphere_integrate"],
            "spherequad.bytes_computed": c["bytes"],
        }

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"columns": COLUMNS, "spans": self.spans,
                       "leaf": {k: v for k, v in self.leaf.items()}}, fh)
