"""Outside-in tracer for the fracgeo package.

The package is not edited. Tracing replaces functions, methods and property
getters with timing wrappers from the benchmark's own process, and rebinds
every name that other fracgeo modules imported by value (for example
`nonlocal_ops.ray_exits`) and every module-level dict entry that holds a
target by reference (for example `suite._RUNNERS`).

Each target records calls, total time, self time (total time minus the time
covered by traced callees) and an optional work count taken from its
arguments or result. Targets that a later version of the package renamed or
removed are skipped; the report names them as missing.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

# Modules whose public functions are all wrapped, with the label prefix used
# in metric names. `fracgeo.flow` must be imported as a module: the package
# re-exports the function `flow` under that attribute name.
MODULES = {
    "fracgeo.geometry": "geometry",
    "fracgeo.icosphere": "icosphere",
    "fracgeo.quadrature": "quadrature",
    "fracgeo.nonlocal_ops": "nonlocal_ops",
    "fracgeo.flow": "flow",
    "fracgeo.inequalities.checks": "inequalities",
    "fracgeo.inequalities.corpus": "inequalities",
    "fracgeo.inequalities.reports": "inequalities",
    "fracgeo.inequalities.suite": "inequalities",
    "fracgeo.cli": "cli",
}


def _returned_cells(args, result):
    return len(result[2])


# Work counts taken from a traced call: label -> {count name: counter}, where
# a counter maps (positional args, result) to a whole number.
COUNTERS = {
    "geometry.ray_exits": {"rays": lambda args, result: len(args[2])},
    "geometry.refine_towards": {"cells": _returned_cells},
    "geometry.refine_node": {"cells": _returned_cells},
    "nonlocal_ops.interaction_matrix": {
        "pairs": lambda args, result: args[0].node_count ** 2,
    },
    "flow.evaluator": {"cells": lambda args, result: len(args[1]) * len(args[0].cells)},
    "flow.flow": {
        "steps": lambda args, result: len(result.states),
        "rehulls": lambda args, result: len(result.rehull_steps),
    },
    "cli.emit": {"records": lambda args, result: 1},
}

# Private functions, methods and properties traced in addition to the public
# functions: (module, dotted attribute, label).
EXTRA_TARGETS = [
    ("fracgeo.geometry", "Polygon2D.facet_normals", "geometry.facet_normals"),
    ("fracgeo.geometry", "Hull3D.facet_normals", "geometry.facet_normals"),
    ("fracgeo.geometry", "Polygon2D.facet_offsets", "geometry.facet_offsets"),
    ("fracgeo.geometry", "Hull3D.facet_offsets", "geometry.facet_offsets"),
    ("fracgeo.geometry", "SurfaceQuadrature.refine_towards", "geometry.refine_towards"),
    ("fracgeo.geometry", "SurfaceQuadrature.refine_node", "geometry.refine_node"),
    ("fracgeo.nonlocal_ops", "_own_cell_sum", "nonlocal_ops._own_cell_sum"),
    ("fracgeo.flow", "_MarkerEvaluator.__call__", "flow.evaluator"),
    ("fracgeo.flow", "_restore_convexity", "flow.restore_convexity"),
    ("fracgeo.cli", "_Emitter.emit", "cli.emit"),
]

# Public functions traced under a shorter label.
RENAMED = {"flow.resample_equal_arclength": "flow.resample"}

# Module-level dicts whose values are traced under their keys.
DICT_TARGETS = [("fracgeo.inequalities.suite", "_RUNNERS", "inequalities.section")]


class Stat:
    __slots__ = ("calls", "total_s", "self_s", "work", "active")

    def __init__(self, counters):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.work = dict.fromkeys(counters, 0)
        self.active = 0


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self._stack: list[list] = []  # [start, time covered by traced callees]
        self._wrapped: dict[int, tuple] = {}

    def _wrap(self, fn, label):
        counters = COUNTERS.get(label, {})
        stat = self.stats.setdefault(label, Stat(counters))
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stat.calls += 1
            stat.active += 1
            frame = [clock(), 0.0]
            stack.append(frame)
            result, returned = None, False
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                elapsed = clock() - frame[0]
                stack.pop()
                stat.active -= 1
                stat.self_s += elapsed - frame[1]
                if stat.active == 0:  # recursion: count the outermost call once
                    stat.total_s += elapsed
                if stack:
                    stack[-1][1] += elapsed
                if returned:
                    for name, counter in counters.items():
                        stat.work[name] += counter(args, result)

        self._wrapped[id(fn)] = (fn, traced)
        return traced

    def install(self):
        """Wrap every target and rebind every reference held by fracgeo."""
        for modname, prefix in MODULES.items():
            try:
                mod = importlib.import_module(modname)
            except ImportError:
                continue
            for name, obj in list(vars(mod).items()):
                if (
                    name.startswith("_")
                    or not inspect.isfunction(obj)
                    or obj.__module__ != modname
                    or inspect.isgeneratorfunction(obj)
                ):
                    continue
                label = f"{prefix}.{name}"
                setattr(mod, name, self._wrap(obj, RENAMED.get(label, label)))
        for modname, dotted, label in EXTRA_TARGETS:
            self._install_extra(modname, dotted, label)
        for modname, attr, prefix in DICT_TARGETS:
            table = getattr(sys.modules.get(modname), attr, None)
            if not isinstance(table, dict):
                continue
            for key, fn in list(table.items()):
                table[key] = self._wrap(fn, f"{prefix}.{key}")
        self._rebind()

    def _install_extra(self, modname, dotted, label):
        mod = sys.modules.get(modname)
        owner_name, _, attr = dotted.rpartition(".")
        owner = getattr(mod, owner_name, None) if owner_name else mod
        raw = inspect.getattr_static(owner, attr, None) if owner is not None else None
        if isinstance(raw, property) and raw.fget is not None:
            wrapped = self._wrap(raw.fget, label)
            setattr(owner, attr, property(wrapped, raw.fset, raw.fdel, raw.__doc__))
        elif inspect.isfunction(raw):
            setattr(owner, attr, self._wrap(raw, label))

    def _rebind(self):
        """Point names imported by value at the wrappers."""
        for name, mod in list(sys.modules.items()):
            if name != "fracgeo" and not name.startswith("fracgeo."):
                continue
            for attr, value in list(vars(mod).items()):
                entry = self._wrapped.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(mod, attr, entry[1])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        entry = self._wrapped.get(id(item))
                        if entry is not None and entry[0] is item:
                            value[key] = entry[1]
