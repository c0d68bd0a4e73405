"""Span recorder that traces resokit from the outside.

``Recorder.install()`` replaces every public function of the layer modules
(plus ``DesignCandidate.analyze`` and the cached disk characteristic root),
in every resokit module namespace that holds it, with a wrapper that
records a span: name, layer, stage, start, end, parent span and operation
id. ``uninstall()`` puts the originals back. Nothing inside the library is
changed.

A call nested in a span of the same layer passes straight through without
a span, unless it opens one of the named stages (FEM mesh, assemble, solve
and reduce; the transmission spectrum; the optimizer; the disk root). So a
span marks a boundary between layers or stages, and a layer's self time is
its span durations minus the time its child spans cover.

Hooks record counts at the same boundaries (dof, computed matrix bytes,
eigen-residual, mode-shape samples, root cache misses). A hook runs after
its span has ended; the time it takes is charged to neither the span nor
its parent, and shows up only as tracing overhead.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from time import perf_counter

LAYER_OF_MODULE = {
    "resokit.core": "core", "resokit.units": "core",
    "resokit.analytic": "analytic", "resokit.fem": "fem",
    "resokit.transduction": "transduction", "resokit.fab": "fab",
    "resokit.design": "design", "resokit.cli": "cli",
}

# functions that open a stage of their own inside a layer; the rest use the
# layer name as their stage
STAGES = {
    "fem.mesh_disk": "mesh",
    "fem.assemble_beam": "assemble", "fem.assemble_disk": "assemble",
    "fem.solve_modes": "solve",
    "fem.disk_modal_fem": "reduce", "fem.identify_angular_order": "reduce",
    "fem.export_mesh": "export", "fem.export_modes_csv": "export",
    "transduction.transmission_spectrum": "spectrum",
    "design.optimize": "optimize",
    "analytic._disk_dimensionless_root": "root",
}

# span tuple fields
NAME, LAYER, STAGE, START, END, COVER_END, PARENT, OP, COUNTS = range(9)


def _mode_hook(args, kwargs, result):
    return {"shape_samples": len(result.mode_shape), "mode_results": 1}


def _assemble_hook(args, kwargs, result):
    return {"dof": len(result.dof_map),
            "matrix_bytes": result.stiffness.nbytes + result.mass.nbytes}


def _solve_hook(args, kwargs, result):
    """Worst relative eigen-residual ||K v - lam M v|| / ||K v|| of the
    returned modes, skipping rigid-body ones (lam below 1e-6 of the largest,
    the library's rigid-mode ratio)."""
    import math

    import numpy as np

    system = args[0] if args else kwargs["sys"]
    k, m = system.stiffness, system.mass
    free = system.free_dofs()
    lams = [(2 * math.pi * freq) ** 2 for freq, _ in result]
    worst = 0.0
    for lam, (_, vec) in zip(lams, result):
        if lam <= 1e-6 * max(lams):
            continue
        kv = (k @ vec)[free]
        resid = float(np.linalg.norm(kv - lam * (m @ vec)[free])) / float(np.linalg.norm(kv))
        worst = max(worst, resid)
    return {"max_resid": worst}


HOOKS = {
    "analytic.beam_mode_result": _mode_hook,
    "analytic.disk_mode_result": _mode_hook,
    "fem.assemble_beam": _assemble_hook,
    "fem.assemble_disk": _assemble_hook,
    "fem.solve_modes": _solve_hook,
}


def _public_functions(module):
    for name, value in vars(module).items():
        if name.startswith("_"):
            continue
        if getattr(value, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(value) or isinstance(value, functools._lru_cache_wrapper):
            yield name, value


class Recorder:
    """In-memory span list; see the module docstring."""

    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.op = None
        self.paused = False
        self._patches: list = []   # (namespace dict, name, original)
        self._class_patches: list = []

    # -- installation -----------------------------------------------------

    def install(self):
        for mod_name in LAYER_OF_MODULE:
            importlib.import_module(mod_name)
        design = sys.modules["resokit.design"]
        resokit_mods = [m for n, m in sys.modules.items()
                        if n == "resokit" or n.startswith("resokit.")]
        replace = {}   # id(original) -> (original, wrapper)
        for mod_name, layer in LAYER_OF_MODULE.items():
            module = sys.modules[mod_name]
            targets = list(_public_functions(module))
            if mod_name == "resokit.analytic":
                targets.append(("_disk_dimensionless_root",
                                module._disk_dimensionless_root))
            short = mod_name.split(".")[1]
            for name, fn in targets:
                key = f"{short}.{name}"
                hook = HOOKS.get(key)
                if name == "_disk_dimensionless_root":
                    hook = self._root_hook(fn)
                replace[id(fn)] = (fn, self._wrap(fn, key, layer,
                                                  STAGES.get(key, layer), hook))
        for module in resokit_mods:
            ns = vars(module)
            for name, value in list(ns.items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((ns, name, value))
                    ns[name] = hit[1]

        cls = design.DesignCandidate
        original = cls.__dict__["analyze"]
        wrapped = self._wrap(original.__func__, "design.DesignCandidate.analyze",
                             "design", "design", None)
        self._class_patches.append((cls, "analyze", original))
        cls.analyze = classmethod(wrapped)

    def uninstall(self):
        for ns, name, original in reversed(self._patches):
            ns[name] = original
        for cls, name, original in reversed(self._class_patches):
            setattr(cls, name, original)
        self._patches.clear()
        self._class_patches.clear()

    def _root_hook(self, fn):
        last = [fn.cache_info().misses]

        def hook(args, kwargs, result):
            misses = fn.cache_info().misses
            new, last[0] = misses - last[0], misses
            return {"root_misses": new}
        return hook

    def _wrap(self, fn, name, layer, stage, hook):
        rec = self
        default_stage = stage == layer

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = rec.stack
            if rec.paused:
                return fn(*args, **kwargs)
            if stack:
                top = rec.spans[stack[-1]]
                if top[LAYER] == layer and (default_stage or top[STAGE] == stage):
                    return fn(*args, **kwargs)
            parent = stack[-1] if stack else -1
            idx = len(rec.spans)
            span = [name, layer, stage, 0.0, 0.0, 0.0, parent, rec.op, None]
            rec.spans.append(span)
            stack.append(idx)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = span[COVER_END] = perf_counter()
                stack.pop()
            if hook is not None:
                span[COUNTS] = hook(args, kwargs, result)
                span[COVER_END] = perf_counter()
            return result
        return wrapper

    # -- spans opened by the benchmark itself -------------------------------

    def open(self, name: str, layer: str = "bench") -> list:
        parent = self.stack[-1] if self.stack else -1
        span = [name, layer, layer, perf_counter(), 0.0, 0.0, parent, self.op, None]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: list):
        span[END] = span[COVER_END] = perf_counter()
        self.stack.pop()


class Totals:
    """Per-layer sums over the traced passes of one run."""

    def __init__(self):
        self.self_ms: dict = {}      # (layer, stage) -> ms
        self.counts: dict = {"shape_samples": 0, "analytic_calls": 0,
                             "mode_evals": 0, "root_misses": 0, "spans": 0}
        self.maxima: dict = {"dof": 0, "matrix_bytes": 0, "max_resid": 0.0}
        self.cold_root_ms = 0.0
        self.optimize_ms = 0.0

    def add(self, spans: list):
        n = len(spans)
        covered = [0.0] * n
        under_optimize = [False] * n
        for i, s in enumerate(spans):
            p = s[PARENT]
            if p >= 0:
                covered[p] += s[COVER_END] - s[START]
                under_optimize[i] = under_optimize[p]
            if s[NAME] == "design.optimize":
                under_optimize[i] = True
        c, mx = self.counts, self.maxima
        c["spans"] += n
        for i, s in enumerate(spans):
            dur = s[END] - s[START]
            key = (s[LAYER], s[STAGE])
            self.self_ms[key] = self.self_ms.get(key, 0.0) + (dur - covered[i]) * 1e3
            layer, p = s[LAYER], s[PARENT]
            if layer == "analytic" and (p < 0 or spans[p][LAYER] != "analytic"):
                c["analytic_calls"] += 1
            if s[NAME] == "design.optimize":
                self.optimize_ms += dur * 1e3
            counts = s[COUNTS]
            if not counts:
                continue
            if "shape_samples" in counts:
                c["shape_samples"] += counts["shape_samples"]
                if under_optimize[i]:
                    c["mode_evals"] += counts["mode_results"]
            if counts.get("root_misses"):
                c["root_misses"] += counts["root_misses"]
                self.cold_root_ms += dur * 1e3
            for k in ("dof", "matrix_bytes", "max_resid"):
                if k in counts:
                    mx[k] = max(mx[k], counts[k])

    def layer_ms(self, layer: str, stage: str | None = None) -> float:
        return sum(v for (lay, st), v in self.self_ms.items()
                   if lay == layer and (stage is None or st == stage))

    def to_dict(self) -> dict:
        return {"self_ms": {f"{lay}.{st}": v for (lay, st), v in sorted(self.self_ms.items())},
                "counts": dict(self.counts), "maxima": dict(self.maxima),
                "cold_root_ms": self.cold_root_ms, "optimize_ms": self.optimize_ms}
