"""Outside-in spans around the public functions of liechannel's modules.

Nothing in the package is edited.  `Tracer.install` rebinds every public
module-level function of each layer module, wherever a liechannel module
namespace holds it, to a wrapper that records a span; it also gives every
liechannel module a private `np` whose `linalg.{svd,eigvalsh,solve,inv}`
are wrapped the same way.  `Tracer.uninstall` puts the originals back.

Spans nest on one stack: a span's self time is its duration minus the
durations of the spans it directly encloses, so the self times of all
spans add up to the duration of the outermost one (`scene.run_scene`).
"""

from __future__ import annotations

import functools
import importlib
import math
import os
import sys
import types
from time import perf_counter

import numpy as np

LAYERS = ("core", "stencils", "legendre", "channel", "transforms",
          "conformal", "mesh", "scene")
KERNELS = ("svd", "eigvalsh", "solve", "inv")
# calls / distinct grids: how often the same grid's derived data is redone
PER_GRID = ("curvature_data", "validate_legendre", "lie_cyclide_split")


class Tracer:
    def __init__(self):
        self.spans = {}      # "module.fn" -> [calls, self_s]
        self.matrices = {}   # kernel -> small matrices factorised
        self.grids = {}      # per-grid fn -> {id(grid): grid}
        self.obj_bytes = 0
        self._stack = []
        self._undo = []

    # -- counters -------------------------------------------------------
    def reset(self):
        for entry in self.spans.values():
            entry[0], entry[1] = 0, 0.0
        self.matrices = dict.fromkeys(KERNELS, 0)
        self.grids = {fn: {} for fn in PER_GRID}
        self.obj_bytes = 0

    def _count_matrices(self, kernel, args, kwargs, result):
        shape = np.shape(args[0])
        self.matrices[kernel] += math.prod(shape[:-2])

    def _count_grid(self, fn, args, kwargs, result):
        grid = args[0] if args else kwargs["grid"]
        self.grids[fn][id(grid)] = grid   # held so ids stay distinct

    def _count_obj(self, fn, args, kwargs, result):
        path = os.fspath(args[1] if len(args) > 1 else kwargs["path"])
        self.obj_bytes += os.path.getsize(path)
        sidecar = (path[:-4] if path.endswith(".obj") else path) \
            + ".scalars.csv"
        if os.path.exists(sidecar):
            self.obj_bytes += os.path.getsize(sidecar)

    # -- spans ------------------------------------------------------------
    def _wrap(self, key, fn, hook=None):
        entry = self.spans.setdefault(key, [0, 0.0])
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                entry[0] += 1
                entry[1] += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
            if hook is not None:
                hook(key.rsplit(".", 1)[1], args, kwargs, result)
            return result

        return traced

    def _hook(self, layer, name):
        if layer == "legendre" and name in PER_GRID:
            return self._count_grid
        if layer == "mesh" and name == "export_obj":
            return self._count_obj
        return None

    def install(self):
        """Rebind the layer functions and numpy.linalg kernels."""
        if self._undo:
            raise RuntimeError("tracer is already installed")
        wrapped = {}
        for layer in LAYERS:
            module = importlib.import_module(f"liechannel.{layer}")
            for name, obj in vars(module).items():
                if (isinstance(obj, types.FunctionType)
                        and obj.__module__ == module.__name__
                        and not name.startswith("_")):
                    wrapped[obj] = self._wrap(f"{layer}.{name}", obj,
                                              self._hook(layer, name))

        linalg = types.ModuleType("numpy.linalg")
        linalg.__dict__.update(vars(np.linalg))
        for kernel in KERNELS:
            setattr(linalg, kernel,
                    self._wrap(f"linalg.{kernel}", getattr(np.linalg, kernel),
                               self._count_matrices))
        proxy = types.ModuleType("numpy")
        proxy.__dict__.update(vars(np))
        proxy.linalg = linalg

        for modname, module in list(sys.modules.items()):
            if modname != "liechannel" and not modname.startswith(
                    "liechannel."):
                continue
            for name, obj in list(vars(module).items()):
                if obj is np:
                    replacement = proxy
                elif isinstance(obj, types.FunctionType) and obj in wrapped:
                    replacement = wrapped[obj]
                else:
                    continue
                self._undo.append((module, name, obj))
                setattr(module, name, replacement)
        self.reset()

    def uninstall(self):
        while self._undo:
            module, name, obj = self._undo.pop()
            setattr(module, name, obj)

    # -- results ------------------------------------------------------------
    def snapshot(self) -> dict:
        """Counts and self times of the execution since the last reset."""
        out = {}
        rollup = dict.fromkeys(LAYERS + ("linalg",), 0.0)
        for key, (calls, self_s) in self.spans.items():
            out[f"{key}.calls"] = calls
            out[f"{key}.self_s"] = self_s
            rollup[key.split(".", 1)[0]] += self_s
        for layer, self_s in rollup.items():
            out[f"{layer}.self_s"] = self_s
        for kernel, count in self.matrices.items():
            out[f"linalg.{kernel}.matrices"] = count
        for fn, grids in self.grids.items():
            out[f"legendre.{fn}.per_grid"] = (
                self.spans[f"legendre.{fn}"][0] / len(grids) if grids
                else 0.0)
        out["mesh.export_obj.bytes"] = self.obj_bytes
        return out
