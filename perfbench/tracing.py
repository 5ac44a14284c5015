"""Per-layer spans recorded from outside the library.

`Tracer.install()` replaces every public function of each layer module, and
a few named methods, by a timing wrapper.  A function is replaced under
every name that binds it in any `mvtk` module (`orbital` imports
`groebner`, `normal_form`, ... by name), and `uninstall()` puts the
originals back.

For each wrapped function the tracer records calls and inclusive time of
its outermost calls.  For each layer it records self time: the time inside
the layer's spans minus the time inside their child spans.  Spans not
nested in any other span are top-level; their total is the covered time.
"""

from __future__ import annotations

import functools
import sys
import time
import types
from collections import Counter, defaultdict

# layer name -> module holding it
LAYERS = {
    "groebner": "mvtk.exactalg.groebner",
    "mdeg": "mvtk.exactalg.mdeg",
    "orbital": "mvtk.orbital",
    "measures": "mvtk.measures",
    "centralizer": "mvtk.centralizer",
    "roota": "mvtk.roota",
    "preproj": "mvtk.preproj",
}

# (layer, class, method, key) timed like the public functions
METHODS = (
    ("measures", "RatFunc", "__add__", "ratfunc_add"),
    ("measures", "RatFunc", "__mul__", "ratfunc_mul"),
    ("preproj", "SubmoduleLattice", "__init__", "lattice"),
    ("preproj", "SubmoduleLattice", "composition_series_counts", "compseries"),
)

# (layer, class, method, key) only counted: too hot to time
COUNTED = (("measures", "RatFunc", "__init__", "ratfunc_new"),)


# function key -> the name its metrics use
ALIASES = {
    "mdeg.multigraded_hilbert": "mdeg.hilbert",
    "preproj.count_points": "preproj.peel",
    "preproj.euler_interpolate": "preproj.interpolate",
    "preproj.flag_function_from_chi": "preproj.flag_assemble",
}


def _lattice_sizes(lat):
    n = len(lat.subs)
    return {"preproj.lattice_nodes": n,
            "preproj.lattice_containments": sum(len(b) for b in lat.below) - n}


# key -> function(result, args) -> counts to add, read off a call's result
OBSERVERS = {
    "preproj.lattice": lambda res, args: _lattice_sizes(args[0]),
    "preproj.compseries": lambda res, args: {"preproj.sequences": len(res)},
    "preproj.flag_assemble": lambda res, args: {"measures.flag_num_terms": len(res.num.terms)},
    "orbital.plucker_sections": lambda res, args: {"orbital.sections_total": sum(res.values())},
}


class Tracer:
    def __init__(self):
        self.calls: Counter = Counter()
        self.incl: dict = defaultdict(float)   # key -> inclusive seconds of outermost calls
        self.self_s: dict = defaultdict(float)  # layer -> exclusive seconds
        self.counts: Counter = Counter()
        self.top_s = 0.0
        self._stack: list = []   # [layer, start, child seconds]
        self._depth: Counter = Counter()
        self._saved: list = []   # (namespace, attribute, original)

    def reset(self):
        self.calls.clear()
        self.incl.clear()
        self.self_s.clear()
        self.counts.clear()
        self.top_s = 0.0

    # -- wrappers

    def _timed(self, layer, key, fn):
        stack, depth, clock = self._stack, self._depth, time.perf_counter
        observe = OBSERVERS.get(key)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            depth[key] += 1
            frame = [layer, clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                d = clock() - frame[1]
                stack.pop()
                self.self_s[layer] += d - frame[2]
                if stack:
                    stack[-1][2] += d
                else:
                    self.top_s += d
                depth[key] -= 1
                if not depth[key]:
                    self.incl[key] += d
                self.calls[key] += 1
            if observe is not None:
                self.counts.update(observe(result, args))
            return result

        return wrapper

    def _counted(self, key, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        replace: dict = {}   # id(original) -> wrapper
        for layer, modname in LAYERS.items():
            mod = sys.modules[modname]
            for name, obj in vars(mod).items():
                if (isinstance(obj, types.FunctionType) and not name.startswith("_")
                        and obj.__module__ == modname):
                    key = f"{layer}.{name}"
                    replace[id(obj)] = self._timed(layer, ALIASES.get(key, key), obj)
        for mod in [m for n, m in sys.modules.items() if n == "mvtk" or n.startswith("mvtk.")]:
            for name, obj in list(vars(mod).items()):
                if id(obj) in replace:
                    self._set(mod, name, replace[id(obj)])
        for layer, cls_name, meth, key in METHODS:
            cls = getattr(sys.modules[LAYERS[layer]], cls_name)
            self._set(cls, meth, self._timed(layer, f"{layer}.{key}", vars(cls)[meth]))
        for layer, cls_name, meth, key in COUNTED:
            cls = getattr(sys.modules[LAYERS[layer]], cls_name)
            self._set(cls, meth, self._counted(f"{layer}.{key}", vars(cls)[meth]))

    def _set(self, namespace, name, value):
        self._saved.append((namespace, name, getattr(namespace, name)))
        setattr(namespace, name, value)

    def uninstall(self):
        while self._saved:
            namespace, name, original = self._saved.pop()
            setattr(namespace, name, original)
