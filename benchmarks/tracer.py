"""Per-layer tracing of goppa-orbits, installed from outside the package.

`Tracer.install()` replaces the public functions of the traced modules,
and the public methods of their classes, with wrappers that count calls
and time them.  Every module-level binding of the same function object
is replaced, not only the defining one: `enumeration.act_poly` is the
same object as `action.act_poly`, and hot loops bind `mul = gf.mul`
after the class attribute has been swapped.

Every wrapped call adds to an aggregated counter (calls, total time, and
the time spent in wrapped callees, which gives self time).  Calls of the
L3-and-above functions in SPAN_FUNCTIONS also record one span each, with
the span that caused it and the op it belongs to.  Spans stay in memory;
the worker hands them to the harness, which writes them out at exit.

Generator functions are counted but not timed: their work runs while the
caller iterates, and is charged to the caller.
"""

from __future__ import annotations

import contextlib
import inspect
import sys
import time

PACKAGE = "goppa_orbits"
MODULES = ("gf2field", "polyq", "action", "enumeration", "intnt", "cli")
CLASSES = {"gf2field": ("GF2m", "Tower")}
# cli's public surface is its entry point; build_parser runs inside main and
# counts as main's own time, as does rendering.
ONLY = {"cli": ("main",)}
SPAN_FUNCTIONS = frozenset(
    {
        "cli.main",
        "enumeration.bound",
        "enumeration.make_table",
        "enumeration.brute_force_orbit_count",
        "enumeration.pgl_orbit_count_formula",
        "enumeration.fixed_orbit_count_formula",
        "action.pgl_orbit",
        "action.stabilizer",
        "action.is_orbit_sigma_r_fixed",
        "action.count_divisors_in_orbit",
        "action.pgl_element_orbit",
        "action.agl_decompose",
        "polyq.divisor_polynomials",
        "polyq.e_set_count",
        "gf2field.make_tower",
    }
)
ACT_POLY = "action.act_poly"


def _targets() -> dict[str, tuple[object, str, object]]:
    """name -> (owner, attribute, function) for every function to wrap."""
    found: dict[str, tuple[object, str, object]] = {}
    for modname in MODULES:
        mod = sys.modules[f"{PACKAGE}.{modname}"]
        names = ONLY.get(modname) or [n for n in vars(mod) if not n.startswith("_")]
        for attr in names:
            obj = vars(mod)[attr]
            if (inspect.isfunction(obj) or hasattr(obj, "cache_info")) and obj.__module__ == mod.__name__:
                found[f"{modname}.{attr}"] = (mod, attr, obj)
        for clsname in CLASSES.get(modname, ()):
            cls = vars(mod)[clsname]
            for attr, obj in vars(cls).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                name = f"{modname}.{attr}" if clsname == "GF2m" else f"{modname}.{clsname}.{attr}"
                if name in found:
                    raise RuntimeError(f"two traced callables are both named {name}")
                found[name] = (cls, attr, obj)
    return found


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, list[int]] = {}  # name -> [calls, total_ns, callee_ns]
        self.spans: list[list] = []  # [id, parent id, op, name, start_ns, end_ns]
        self.op = 0
        self.images: set = set()  # distinct act_poly results
        self.sweep_calls: dict[tuple, int] = {}  # (q, f, frob) -> act_poly calls
        self._frames: list[int] = [0]
        self._span_stack: list[int | None] = [None]
        self._bindings: list[tuple[object, str, object, object]] = []
        self._cache_start: dict[str, tuple[int, int]] = {}
        self.originals: dict[str, object] = {}

    @classmethod
    def install(cls) -> "Tracer":
        tracer = cls()
        modules = [m for k, m in list(sys.modules.items()) if k == PACKAGE or k.startswith(PACKAGE + ".")]
        targets = _targets()
        tracer.originals = {name: fn for name, (_, _, fn) in targets.items()}
        for name, (owner, attr, fn) in targets.items():
            wrapper = tracer._wrap(name, fn)
            if hasattr(fn, "cache_info"):
                info = fn.cache_info()
                tracer._cache_start[name] = (info.hits, info.misses)
            if isinstance(owner, type):
                tracer._bindings.append((owner, attr, fn, wrapper))
                continue
            for mod in modules:
                for key, value in vars(mod).items():
                    if value is fn:
                        tracer._bindings.append((mod, key, fn, wrapper))
        tracer._bind(wrapped=True)
        return tracer

    def _bind(self, wrapped: bool) -> None:
        for owner, attr, fn, wrapper in self._bindings:
            setattr(owner, attr, wrapper if wrapped else fn)

    @contextlib.contextmanager
    def suspended(self):
        """Run harness-side checks against the program without counting them."""
        self._bind(wrapped=False)
        try:
            yield
        finally:
            self._bind(wrapped=True)

    def _wrap(self, name: str, fn):
        stat = self.stats.setdefault(name, [0, 0, 0])
        if inspect.isgeneratorfunction(fn):
            def counted(*args, **kwargs):
                stat[0] += 1
                return fn(*args, **kwargs)
            return counted

        # frames holds, per active wrapped call, the time its wrapped callees
        # took so far; the bottom entry collects time outside any traced call.
        frames = self._frames
        push, pop = frames.append, frames.pop
        clock = time.perf_counter_ns

        def finish(t0: int) -> int:
            dt = clock() - t0
            stat[0] += 1
            stat[1] += dt
            stat[2] += pop()
            frames[-1] += dt
            return dt

        if name == ACT_POLY:
            images, sweeps = self.images, self.sweep_calls

            def act_poly(gf, mat, f, frob=0):
                push(0)
                t0 = clock()
                try:
                    res = fn(gf, mat, f, frob)
                finally:
                    finish(t0)
                images.add(res)
                key = (gf.order, f, frob)
                sweeps[key] = sweeps.get(key, 0) + 1
                return res
            return act_poly

        if name in SPAN_FUNCTIONS:
            spans, span_stack = self.spans, self._span_stack

            def spanned(*args, **kwargs):
                span = [len(spans), span_stack[-1], self.op, name, 0, 0]
                spans.append(span)
                span_stack.append(span[0])
                push(0)
                t0 = span[4] = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    span[5] = t0 + finish(t0)
                    span_stack.pop()
            return spanned

        def timed(*args, **kwargs):
            push(0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                finish(t0)
        return timed

    def report(self) -> dict:
        caches = {}
        for name, (hits0, misses0) in self._cache_start.items():
            info = self.originals[name].cache_info()
            caches[name] = [info.hits - hits0, info.misses - misses0]
        sweeps = sum(calls // (q**3 - q) for (q, _, _), calls in self.sweep_calls.items())
        return {
            "stats": self.stats,
            "caches": caches,
            "act_poly_distinct": len(self.images),
            "orbit_sweeps": sweeps,
            "spans": self.spans,
        }
