"""In-memory span tracing of dbexp's layers, installed from the benchmark.

The tracer wraps the public functions of each ``dbexp`` module (and NumPy's
dense symmetric eigensolvers) for the duration of one traced pass, then
restores the originals.  A span records its name, start, end and parent; a
layer's self time is its span time minus the time of its child spans.
Name-imported copies (``dbexp.api.design_matrix``, ``dbexp.bounds.sym_eigvals``,
the package re-exports, ...) are patched too, since they are the same objects.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import weakref

# Layer -> (module, attribute selector).  A selector is a dotted attribute
# path, or a prefix ending in "*" that matches every public function of that
# module whose name starts with it and that the module itself defines.
LAYERS = {
    "design.build": [("dbexp.design", "make_*")],
    "design.matrix": [("dbexp.design", "design_matrix")],
    "bounds.build": [("dbexp.bounds", n) for n in ("as_bound", "iterative_bound", "cluster_bound")],
    "bounds.estimate": [("dbexp.bounds", "bound_estimate_*")],
    "estimators.coef": [("dbexp.estimators", "coef_*")],
    "estimators.cache_build": [("dbexp.estimators", "AdjustmentCache.build")],
    "estimators.point": [("dbexp.estimators", "greg"), ("dbexp.estimators", "ht_ate")],
    "covariates.spec": [("dbexp.covariates", "spec_*"), ("dbexp.covariates", "zero_center")],
    "api.fit": [("dbexp.api", "AteEstimator.fit")],
    "simulation.population": [("dbexp.simulation", "build_population")],
    "simulation.replicate": [("dbexp.simulation", "run_simulation")],
    "simulation.report": [("dbexp.simulation", "emit_report")],
    "cli.simulate": [("dbexp.cli", "simulate.callback")],
    "dataio.manifest": [("dbexp.dataio", "write_manifest")],
    # every dense symmetric eigendecomposition, whichever helper asks for it
    "linalg.eig": [("numpy.linalg", "eigvalsh"), ("numpy.linalg", "eigh")],
    "linalg.pinv": [("dbexp._linalg", "pinv"), ("dbexp._linalg", "pinv_solve")],
}

# Per-layer metric -> (layer, statistic).  Statistics: "self" (summed self
# time), "total" (summed span time), "calls", or a counter name.
METRICS = {
    "design.build_s": ("design.build", "self"),
    "design.build_calls": ("design.build", "calls"),
    "design.matrix_s": ("design.matrix", "self"),
    "design.matrix_calls": ("design.matrix", "calls"),
    "bounds.build_s": ("bounds.build", "self"),
    "bounds.build_calls": ("bounds.build", "calls"),
    "bounds.iterations": ("bounds.build", "iterations"),
    "bounds.identified_share": ("bounds.build", "identified_share"),
    "bounds.estimate_s": ("bounds.estimate", "self"),
    "bounds.estimate_calls": ("bounds.estimate", "calls"),
    "estimators.coef_s": ("estimators.coef", "self"),
    "estimators.coef_calls": ("estimators.coef", "calls"),
    "estimators.cache_build_s": ("estimators.cache_build", "self"),
    "estimators.point_s": ("estimators.point", "self"),
    "covariates.spec_s": ("covariates.spec", "self"),
    "api.fit_s": ("api.fit", "total"),
    "api.fit_self_s": ("api.fit", "self"),
    "api.fit_calls": ("api.fit", "calls"),
    "simulation.population_s": ("simulation.population", "self"),
    "simulation.replicate_self_s": ("simulation.replicate", "self"),
    "simulation.report_s": ("simulation.report", "self"),
    "simulation.failed_replications": ("simulation.replicate", "failed_replications"),
    "cli.simulate_self_s": ("cli.simulate", "self"),
    "dataio.manifest_s": ("dataio.manifest", "self"),
    "linalg.eig_calls": ("linalg.eig", "calls"),
    "linalg.eig_s": ("linalg.eig", "self"),
    "linalg.eig_max_order": ("linalg.eig", "max_order"),
    "linalg.eig_work_n3": ("linalg.eig", "work_n3"),
    "linalg.pinv_calls": ("linalg.pinv", "calls"),
    "linalg.pinv_s": ("linalg.pinv", "self"),
}


class Tracer:
    """Records spans in memory while installed; ``uninstall`` restores dbexp."""

    def __init__(self):
        # [name, start, end, parent index, child time, optional detail]
        self.spans: list[list] = []
        self.counters: dict[str, int] = {}
        self.resolved: set[str] = set()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._matrix_seen: dict[int, weakref.ref] = {}

    # -- spans -------------------------------------------------------------
    def _wrap(self, layer: str, fn, before=None, after=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            index = len(spans)
            record = [layer, time.perf_counter(), 0.0, stack[-1] if stack else -1, 0.0]
            spans.append(record)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
                if record[3] >= 0:
                    spans[record[3]][4] += record[2] - record[1]
            if after is not None:
                record.append(after(result))
            return result

        return traced

    def _count(self, name: str, value: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def _after_bound(self, bound) -> dict:
        detail = {"iterations": int(getattr(bound, "iterations", 0)),
                  "identified": bool(getattr(bound, "identified", False))}
        self._count("iterations", detail["iterations"])
        self._count("identified", int(detail["identified"]))
        return detail

    def _after_simulation(self, result) -> dict:
        detail = {"failed_replications": int(result.failures.sum())}
        self._count("failed_replications", detail["failed_replications"])
        return detail

    def _before_eig(self, args) -> None:
        order = int(args[0].shape[-1])
        self._count("work_n3", order**3)
        self.counters["max_order"] = max(self.counters.get("max_order", 0), order)

    def _first_matrix_only(self, fn, traced):
        """Trace the design_matrix call that builds a design's matrix, not cache hits."""
        seen = self._matrix_seen

        @functools.wraps(fn)
        def wrapper(design, *args, **kwargs):
            ref = seen.get(id(design))
            if ref is not None and ref() is design:
                return fn(design, *args, **kwargs)
            seen[id(design)] = weakref.ref(design)
            return traced(design, *args, **kwargs)

        return wrapper

    def wrap_op(self, name: str, fn):
        """Span around one benchmark operation, the parent of its layer spans."""
        return self._wrap("op:" + name, fn)

    def _make_wrapper(self, layer: str, fn):
        if layer == "bounds.build":
            return self._wrap(layer, fn, after=self._after_bound)
        if layer == "simulation.replicate":
            return self._wrap(layer, fn, after=self._after_simulation)
        if layer == "linalg.eig":
            return self._wrap(layer, fn, before=self._before_eig)
        if layer == "design.matrix":
            return self._first_matrix_only(fn, self._wrap(layer, fn))
        return self._wrap(layer, fn)

    # -- patching ----------------------------------------------------------
    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr) if not isinstance(owner, type)
                              else owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "dbexp" or name.startswith("dbexp."))]
        for layer, selectors in LAYERS.items():
            for module_name, selector in selectors:
                try:
                    module = importlib.import_module(module_name)
                except ImportError:
                    continue
                for owner, attr in _resolve(module, selector):
                    self.resolved.add(layer)
                    if isinstance(owner, type):
                        raw = owner.__dict__[attr]
                        if isinstance(raw, classmethod):
                            self._set(owner, attr, classmethod(self._make_wrapper(layer, raw.__func__)))
                        else:
                            self._set(owner, attr, self._make_wrapper(layer, raw))
                        continue
                    original = getattr(owner, attr)
                    wrapper = self._make_wrapper(layer, original)
                    self._set(owner, attr, wrapper)
                    # name-imported copies and aliases in every dbexp module
                    for mod in modules:
                        for name, value in list(vars(mod).items()):
                            if value is original and not (mod is owner and name == attr):
                                self._set(mod, name, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------
    def metrics(self, run_s_untraced: float, run_s_traced: float) -> tuple[dict, list[str]]:
        """Per-layer metrics of the recorded spans, and the names of absent ones."""
        stats: dict[str, dict[str, float]] = {}
        for name, start, end, _, child, *_ in self.spans:
            s = stats.setdefault(name, {"calls": 0, "self": 0.0, "total": 0.0})
            s["calls"] += 1
            s["self"] += end - start - child
            s["total"] += end - start
        counters = dict(self.counters)
        calls = stats.get("bounds.build", {}).get("calls", 0)
        counters["identified_share"] = counters.get("identified", 0) / calls if calls else 0.0
        out, absent = {}, []
        for metric, (layer, statistic) in METRICS.items():
            if layer not in self.resolved:
                absent.append(metric)
                continue
            if statistic in ("calls", "self", "total"):
                value = stats.get(layer, {}).get(statistic, 0)
            else:
                value = counters.get(statistic, 0)
            out[metric] = value
        out["trace.overhead_s"] = run_s_traced - run_s_untraced
        return out, absent

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "detail"],
                       "spans": [s[:4] + s[5:] for s in self.spans]}, fh)


def _resolve(module, selector: str) -> list[tuple[object, str]]:
    """(owner, attribute) pairs a selector names; empty when it names nothing."""
    if selector.endswith("*"):
        prefix = selector[:-1]
        return [(module, name) for name, value in sorted(vars(module).items())
                if name.startswith(prefix) and callable(value)
                and getattr(value, "__module__", None) == module.__name__
                and getattr(value, "__name__", None) == name]
    *path, attr = selector.split(".")
    owner = module
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return []
    present = attr in owner.__dict__ if isinstance(owner, type) else hasattr(owner, attr)
    return [(owner, attr)] if present else []
