"""Spans around polyzeta's public functions, recorded from outside ``src/``.

``Tracer.installed()`` replaces every public function of the six layer
modules with a wrapper, in every polyzeta module that holds a reference to
it, so calls through any namespace are seen; leaving the block restores the
originals.  Each call becomes one span (function, start, end, parent span)
kept in flat arrays; ``layer_metrics`` turns a range of spans into the
per-layer numbers and ``dump`` writes the spans out.
"""

from __future__ import annotations

import contextlib
import gzip
import importlib
import inspect
import json
import statistics
import sys
import time
from array import array

LAYERS = ("evaluate", "precision", "model", "relations", "identities", "cli")
PACKAGE = "polyzeta"


def _public_functions(module):
    for name, obj in vars(module).items():
        if name.startswith("_") or inspect.isclass(obj) or not callable(obj):
            continue
        if getattr(obj, "__module__", None) == module.__name__:
            yield name, obj


class Tracer:
    def __init__(self):
        self.names: list[str] = []  # function id -> "layer.function"
        self.fid_layer: list[str] = []
        self._wrappers: dict[str, tuple] = {}  # "layer.function" -> (original, wrapper)
        self.span_fid = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_aux = array("d")  # per-function payload, see _AUX
        self.stack: list[int] = []
        self.formal_sums = 0

    # -- recording ----------------------------------------------------------

    def _wrap(self, layer: str, name: str, fn):
        fid = len(self.names)
        self.names.append(f"{layer}.{name}")
        self.fid_layer.append(layer)
        fids, parents = self.span_fid, self.span_parent
        starts, ends, auxs = self.span_start, self.span_end, self.span_aux
        stack, clock = self.stack, time.perf_counter
        aux = _AUX.get(f"{layer}.{name}")
        cache_info = getattr(fn, "cache_info", None)

        def wrapper(*args, **kwargs):
            i = len(fids)
            fids.append(fid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            auxs.append(0.0)
            stack.append(i)
            hits = cache_info().hits if cache_info else 0
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if cache_info:
                auxs[i] = float(cache_info().hits > hits)
            elif aux:
                auxs[i] = aux(result)
            return result

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        layers = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
        modules = [m for n, m in list(sys.modules.items())
                   if n == PACKAGE or n.startswith(PACKAGE + ".")]
        wrappers = {}
        for layer, module in layers.items():
            for name, fn in _public_functions(module):
                key = f"{layer}.{name}"
                if key not in self._wrappers or self._wrappers[key][0] is not fn:
                    self._wrappers[key] = (fn, self._wrap(layer, name, fn))
                wrappers[id(fn)] = self._wrappers[key]
        patches = []
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    patches.append((module, attr, value))
                    setattr(module, attr, hit[1])
        formal_sum = layers["identities"].FormalSum
        plain_init = formal_sum.__init__

        def counting_init(obj, *args, **kwargs):
            self.formal_sums += 1
            plain_init(obj, *args, **kwargs)

        formal_sum.__init__ = counting_init
        try:
            yield self
        finally:
            formal_sum.__init__ = plain_init
            for module, attr, value in reversed(patches):
                setattr(module, attr, value)

    # -- analysis -----------------------------------------------------------

    def _outermost(self, i: int) -> bool:
        fid = self.span_fid[i]
        p = self.span_parent[i]
        while p >= 0:
            if self.span_fid[p] == fid:
                return False
            p = self.span_parent[p]
        return True

    def layer_metrics(self, lo: int, hi: int) -> dict[str, float]:
        """Per-layer numbers of the spans lo..hi-1 (one traced round)."""
        fids, parents = self.span_fid, self.span_parent
        starts, ends, auxs = self.span_start, self.span_end, self.span_aux
        child = [0.0] * (hi - lo)
        children: dict[int, set[str]] = {}
        for i in range(lo, hi):
            p = parents[i]
            if p >= lo:
                child[p - lo] += ends[i] - starts[i]
                children.setdefault(p, set()).add(self.names[fids[i]])
        self_s = {layer: 0.0 for layer in LAYERS}
        calls: dict[str, list[int]] = {}
        for i in range(lo, hi):
            name = self.names[fids[i]]
            self_s[self.fid_layer[fids[i]]] += ends[i] - starts[i] - child[i - lo]
            calls.setdefault(name, []).append(i)

        def spans(name):
            return calls.get(name, [])

        def inclusive(name):
            return sum(ends[i] - starts[i] for i in spans(name) if self._outermost(i))

        lookups = spans("evaluate.evaluate_lambda")
        misses = [i for i in lookups if not auxs[i]]
        routes = {"split": 0, "dual": 0, "direct": 0}
        for i in misses:
            kids = children.get(i, set())
            if "evaluate.holder_split" in kids:
                routes["split"] += 1
            elif "model.dual_word" in kids:
                routes["dual"] += 1
            else:
                routes["direct"] += 1
        plans = spans("evaluate.plan_nested_sum")
        steps = sum(auxs[i] for i in plans)
        compute_s = sum(ends[i] - starts[i] for i in misses)
        dps = [auxs[i] for i in spans("evaluate.working_precision")]
        lindeps = spans("relations.lindep")
        lindep_ms = [1000 * (ends[i] - starts[i]) for i in lindeps]

        out = {
            "evaluate.kernel_passes": len(plans),
            "evaluate.passes_per_value": len(plans) / len(misses) if misses else 0.0,
            "evaluate.route_split": routes["split"],
            "evaluate.route_dual": routes["dual"],
            "evaluate.route_direct": routes["direct"],
            "evaluate.kernel_steps": steps,
            "evaluate.kernel_steps_per_s": steps / compute_s if compute_s else 0.0,
            "evaluate.working_dps_mean": statistics.fmean(dps) if dps else 0.0,
            "evaluate.values": len(lookups),
            "evaluate.cache_hit_ratio": (len(lookups) - len(misses)) / len(lookups) if lookups else 0.0,
            "relations.lindep_calls": len(lindeps),
            "relations.lindep_s": inclusive("relations.lindep"),
            "relations.lindep_p50_ms": statistics.median(lindep_ms) if lindep_ms else 0.0,
            "relations.accept_ratio": sum(auxs[i] for i in lindeps) / len(lindeps) if lindeps else 0.0,
            "identities.catalog_s": inclusive("identities.identity_catalog"),
            "identities.reversal_s": inclusive("identities.reversal_reduction"),
            "identities.formal_sum_eval_s": inclusive("identities.evaluate_formal_sum"),
            "identities.render_s": inclusive("identities.render_formal_sum"),
            "cli.parse_s": inclusive("cli.parse_expression"),
            "cli.eval_s": inclusive("cli.eval_expression"),
            "cli.format_s": inclusive("cli.format_result"),
            "precision.render_s": inclusive("precision.to_decimal_string"),
            "trace.spans": hi - lo,
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self_s[layer]
        return out

    def dump(self, path: str, facts: dict) -> None:
        """Write every span as one JSON document (gzip)."""
        payload = {
            "facts": facts,
            "functions": self.names,
            "columns": ["function", "parent", "start", "end", "aux"],
            "spans": [
                [self.span_fid[i], self.span_parent[i],
                 round(self.span_start[i], 7), round(self.span_end[i], 7), self.span_aux[i]]
                for i in range(len(self.span_fid))
            ],
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(payload, fh)


# payload recorded per span, by function
_AUX = {
    "evaluate.plan_nested_sum": lambda plan: float(plan.terms),
    "evaluate.working_precision": lambda prec: float(prec.working_dps),
    "relations.lindep": lambda result: float(result.found),
}
