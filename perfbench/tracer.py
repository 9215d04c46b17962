"""Spans around the public functions of every ``cocyclelab`` layer, from
outside the program.

``Tracer.install`` replaces each public function of the listed modules,
and each public method of the classes they define, with a wrapper that
records one span per call: calls, inclusive seconds, and self seconds
(inclusive minus the time covered by child spans).  A function bound into
another module with ``from ... import ...`` is replaced there too, since
that is where the caller looks it up.  Spans are aggregated by name in
memory; ``uninstall`` puts every original back.

Span names are ``<module>.<function>``; methods drop their class, so the
``evaluate_batch`` of every cocycle kind adds up under
``cocycle.evaluate_batch``.  A call to a name that is already open on the
stack (recursion) is passed straight through.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

PACKAGE = "cocyclelab"
LAYERS = ("cli", "config", "cocycle", "linalg", "util", "avalanche", "ldt", "rates",
          "random_products")

#: private callables that carry a layer's work and get spans too
PRIVATE = {
    ("cocycle", "CocycleFamily", "_validate_invertibility"),
    ("random_products", None, "_batched_lognorms"),
}


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []  # [name, child seconds]
        self._open: set[str] = set()
        self._patches: list[tuple[object, str, object]] = []

    # -- span recording -------------------------------------------------------

    def span(self, name: str, fn, count=None):
        """Wrap ``fn``; ``count(args, kwargs, result)`` adds to ``counts``."""
        tracer = self

        def traced(*args, **kwargs):
            if name in tracer._open:
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            tracer._stack.append(frame)
            tracer._open.add(name)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                tracer._stack.pop()
                tracer._open.discard(name)
                if tracer._stack:
                    tracer._stack[-1][1] += dt
                tracer.calls[name] += 1
                tracer.total[name] += dt
                tracer.self_time[name] += dt - frame[1]
            if count is not None:
                count(args, kwargs, result)
            return result

        return functools.wraps(fn)(traced)

    def add(self, key: str, amount: float):
        self.counts[key] += amount

    # -- installing into the package ---------------------------------------------

    def _patch(self, owner, attr: str, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        mods = {name: sys.modules[f"{PACKAGE}.{name}"] for name in LAYERS}
        all_mods = [m for n, m in sys.modules.items() if n == PACKAGE or n.startswith(PACKAGE + ".")]
        counters = self._counters(mods)
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and (
                    not attr.startswith("_") or (short, None, attr) in PRIVATE
                ):
                    name = f"{short}.{attr.lstrip('_')}"
                    wrapped = self.span(name, obj, counters.get(name))
                    for other in all_mods:  # every module that bound this function
                        for oattr, oval in list(vars(other).items()):
                            if oval is obj:
                                self._patch(other, oattr, wrapped)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for mattr, meth in list(vars(obj).items()):
                        if inspect.isfunction(meth) and (
                            not mattr.startswith("_") or (short, attr, mattr) in PRIVATE
                        ):
                            name = f"{short}.{mattr.lstrip('_')}"
                            self._patch(obj, mattr, self.span(name, meth, counters.get(name)))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _counters(self, mods) -> dict:
        """Work counts recorded at the boundaries where the work happens."""
        orbit_sig = inspect.signature(mods["cocycle"].CocycleFamily.orbit_lognorms)
        batched_sig = inspect.signature(mods["random_products"]._batched_lognorms)

        def point_steps(args, kwargs, result):
            # result has shape (len(checkpoints), B)
            n = orbit_sig.bind(*args, **kwargs).arguments["n"]
            self.add("cocycle.point_steps", result.shape[1] * int(n))

        def trial_steps(args, kwargs, result):
            n = batched_sig.bind(*args, **kwargs).arguments["n"]
            self.add("random_products.trial_steps", result.shape[1] * int(n))

        def factors(args, kwargs, result):
            self.add("avalanche.factors", result.n)

        def demo_factors(args, kwargs, result):
            self.add("avalanche.factors", len(result.matrices))

        def bytes_written(args, kwargs, result):
            # data files only: the manifest's size moves with its wall times
            run = args[0]
            self.add("cli.bytes_written",
                     sum((run.out / n).stat().st_size for n in run.row_counts))

        return {
            "cocycle.orbit_lognorms": point_steps,
            "cocycle.evaluate_batch": lambda a, k, r: self.add(
                "cocycle.evaluate_batch.points", r.shape[0]),
            "random_products.batched_lognorms": trial_steps,
            "avalanche.verify": factors,
            "avalanche.projection_demo": demo_factors,
            "cli.finish": bytes_written,
        }
