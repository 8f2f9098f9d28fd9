"""Span tracer that measures fgtri's layers from outside the package.

``Tracer.install`` replaces every public function of each layer module, the
constructors of its public classes and their public methods with wrappers,
at every module attribute that binds them (so ``from .x import f`` copies are
covered too). ``Tracer.inject`` wraps a solver callable before the benchmark
hands it to a reduction. Nothing under ``src/`` changes; ``uninstall`` puts
the original objects back.

A wrapper always counts its call. It opens a span only where control crosses
from one layer into another, or for the few functions in ``SPLIT`` whose
self time is reported on its own; calls inside one layer stay inside the
caller's span. Spans live in flat arrays (site, parent, op, start, end) until
``save`` writes them out, and a span's self time is its duration minus the
durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from array import array
from time import perf_counter

import numpy as np

# Package modules that count as layers, in call-graph order.
LAYERS = ("instances", "rng", "generators", "oracles", "fast_solvers",
          "zero_triangle", "witness_listing", "monoeq", "products")

# Functions that open a span even when their caller is in the same layer,
# because their self time is reported apart from the rest of the layer.
SPLIT = {
    "zero_triangle": {"pick_prime", "reduce_mod_p", "draw_randomization",
                      "randomize_weights", "build_subinstance"},
    "monoeq": {"expand_values", "combine_sparse_into_mono"},
}

# Trivial accessors and a shared utility: left unwrapped so that their cost
# stays with the caller instead of adding a wrapper to every element access.
SKIP = {"at", "get", "edges", "ceil_log2"}


class Tracer:
    def __init__(self):
        self.active = False
        self.op = -1                      # current op id; -1 while generating
        self._cur = -1                    # index of the innermost open span
        self._cur_layer = None
        self.site_names: list[str] = []
        self.site_layer: list[str] = []
        self.calls: list[int] = []
        self.amount: list[int] = []       # per-site sums reported by hooks
        self._ids: dict[str, int] = {}
        self.span_site = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ sites

    def site(self, layer: str, name: str) -> int:
        key = f"{layer}.{name}"
        sid = self._ids.get(key)
        if sid is None:
            sid = self._ids[key] = len(self.site_names)
            self.site_names.append(key)
            self.site_layer.append(layer)
            self.calls.append(0)
            self.amount.append(0)
        return sid

    def _wrap(self, fn, layer: str, name: str, split: bool, hook=None):
        sid = self.site(layer, name)
        tracer = self
        calls, amount = self.calls, self.amount
        sites, parents, ops = self.span_site, self.span_parent, self.span_op
        starts, ends = self.span_start, self.span_end

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            calls[sid] += 1
            if tracer._cur_layer == layer and not split:
                result = fn(*args, **kwargs)
            else:
                parent, outer = tracer._cur, tracer._cur_layer
                idx = len(sites)
                sites.append(sid)
                parents.append(parent)
                ops.append(tracer.op)
                ends.append(0.0)
                tracer._cur, tracer._cur_layer = idx, layer
                starts.append(perf_counter())
                try:
                    result = fn(*args, **kwargs)
                finally:
                    ends[idx] = perf_counter()
                    tracer._cur, tracer._cur_layer = parent, outer
            if hook is not None:
                amount[sid] += hook(args, result)
            return result

        return functools.update_wrapper(traced, fn)

    # ------------------------------------------------------- patching

    def inject(self, fn, layer: str, name: str, hook=None):
        """Wrap a solver callable the benchmark passes into a reduction; it
        always opens a span.

        ``hook(args, result)`` returns an amount summed per site, such as
        the input's edge count; it may also keep a sample of the inputs.
        """
        return self._wrap(fn, layer, f"inject.{name}", True, hook)

    def install(self, hooks=None) -> None:
        """Wrap the public callables of every layer module.

        ``hooks`` maps a site name such as ``monoeq.combine_sparse_into_mono``
        to a ``hook(args, result)`` as in ``inject``.
        """
        hooks = hooks or {}
        modules = [m for name, m in sys.modules.items()
                   if name == "fgtri" or name.startswith("fgtri.")]
        for layer in LAYERS:
            mod = importlib.import_module(f"fgtri.{layer}")
            split = SPLIT.get(layer, set())
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or name in SKIP \
                        or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped = self._wrap(obj, layer, name, name in split,
                                         hooks.get(f"{layer}.{name}"))
                    for m in modules:
                        for attr, val in list(vars(m).items()):
                            if val is obj:
                                self._patch(m, attr, wrapped)
                elif inspect.isclass(obj):
                    self._install_class(obj, layer)

    def _install_class(self, cls, layer: str) -> None:
        for attr, val in list(vars(cls).items()):
            if attr in SKIP or (attr.startswith("_") and attr != "__init__"):
                continue
            name = f"{cls.__name__}.{attr}"
            if isinstance(val, staticmethod):
                self._patch(cls, attr, staticmethod(
                    self._wrap(val.__func__, layer, name, False)))
            elif inspect.isfunction(val):
                self._patch(cls, attr, self._wrap(val, layer, name, False))

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, old = self._patches.pop()
            setattr(owner, attr, old)

    # ------------------------------------------------------ analysis

    def self_times(self):
        """Per-span site, op and self seconds as numpy arrays."""
        site = np.frombuffer(self.span_site, dtype=np.intc).astype(np.intp)
        parent = np.frombuffer(self.span_parent, dtype=np.intc).astype(np.intp)
        op = np.frombuffer(self.span_op, dtype=np.intc)
        dur = (np.frombuffer(self.span_end, dtype=np.float64)
               - np.frombuffer(self.span_start, dtype=np.float64))
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested],
                            minlength=len(dur))
        return site, op, dur - child

    def self_by_site(self, in_ops: bool) -> dict[str, float]:
        """Summed self seconds per site, over op spans or set-up spans."""
        site, op, self_s = self.self_times()
        keep = op >= 0 if in_ops else op < 0
        sums = np.bincount(site[keep], weights=self_s[keep],
                           minlength=len(self.site_names))
        return {name: float(sums[i]) for i, name in enumerate(self.site_names)}

    def save(self, path) -> None:
        """Write every span, with the site name table, as one .npz file."""
        np.savez(path,
                 site_names=np.array(self.site_names),
                 site_layer=np.array(self.site_layer),
                 site=np.frombuffer(self.span_site, dtype=np.intc),
                 parent=np.frombuffer(self.span_parent, dtype=np.intc),
                 op=np.frombuffer(self.span_op, dtype=np.intc),
                 start=np.frombuffer(self.span_start, dtype=np.float64),
                 end=np.frombuffer(self.span_end, dtype=np.float64))
