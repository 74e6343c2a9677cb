"""Span recorder installed around the magbarrier layer functions.

The program has no tracing of its own, so the benchmark wraps, from the
outside, every public module-level function of the layer modules, the CLI
renderers, and the `eigh_tridiagonal` names that fiber, counting and
asymptotics import. A span is (id, name, start_ns, end_ns, parent_id,
op_id, attrs). Spans stay in memory and are written once, when the
operation ends.
"""

import functools
import importlib
import itertools
import threading
import time
import types

LAYERS = ("fiber", "bands", "asymptotics", "mourre", "localization",
          "counting", "tridiag")
LAPACK_IMPORTERS = ("fiber", "counting", "asymptotics")
CLI_RENDERERS = ("render_csv", "render_json")
# counting_curve_2d maps its rungs over a thread pool; spans that open on an
# empty worker-thread stack take the open call's span as their parent.
FORK_POINTS = ("counting.counting_curve_2d",)


def _rows(args, kwargs, result):
    return {"rows": len(args[0])}


def _k_points(args, kwargs, result):
    return {"k_points": len(result.ks)}


def _curve_2d(args, kwargs, result):
    curve, meta = result
    nx = int(round(meta["lx"] / meta["hx"]))
    ny = meta["unknowns"] // (2 * nx - 1)
    return {"slices": 2 * ny * len(curve.lambdas),
            "jobs": kwargs.get("jobs", 1)}


ATTRS = {
    "fiber.eigh_tridiagonal": _rows,
    "counting.eigh_tridiagonal": _rows,
    "asymptotics.eigh_tridiagonal": _rows,
    "counting.tridiagonal_inertia": _rows,
    "bands.trace": _k_points,
    "counting.counting_curve_2d": _curve_2d,
}


class Tracer:
    def __init__(self, op_id=0):
        self.op_id = op_id
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._fork_parent = None
        self._patched = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, func):
        attrs = ATTRS.get(name)
        fork = name in FORK_POINTS

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else self._fork_parent
            span_id = next(self._ids)
            if fork:
                outer, self._fork_parent = self._fork_parent, span_id
            stack.append(span_id)
            result, ok = None, False
            start = time.perf_counter_ns()
            try:
                result = func(*args, **kwargs)
                ok = True
                return result
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                if fork:
                    self._fork_parent = outer
                extra = attrs(args, kwargs, result) if ok and attrs else None
                self.spans.append((span_id, name, start, end, parent,
                                   self.op_id, extra))

        return wrapper

    def install(self, package):
        """Wrap the layer functions in every module namespace of `package`.

        One wrapper per name, shared by every namespace that imported the
        function, so a call is recorded once whichever module made it.
        """
        modules = {short: importlib.import_module(f"{package.__name__}.{short}")
                   for short in LAYERS + ("cli",)}
        wrappers = {}
        for short, module in modules.items():
            for attr, obj in list(vars(module).items()):
                name = self._name_for(short, attr, obj)
                if name is None:
                    continue
                if name not in wrappers:
                    wrappers[name] = self.wrap(name, obj)
                self._patched.append((module, attr, obj))
                setattr(module, attr, wrappers[name])

    @staticmethod
    def _name_for(short, attr, obj):
        if not isinstance(obj, types.FunctionType) or attr.startswith("_"):
            return None
        if attr == "eigh_tridiagonal":
            return f"{short}.eigh_tridiagonal" if short in LAPACK_IMPORTERS \
                else None
        if not obj.__module__.startswith("magbarrier."):
            return None
        origin = obj.__module__.rpartition(".")[2]
        if origin in LAYERS or (origin == "cli" and attr in CLI_RENDERERS):
            return f"{origin}.{obj.__name__}"
        return None

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()
