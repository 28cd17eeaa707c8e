"""Per-layer tracing of ``constellation_lab``, installed from outside the package.

Every public function of every package module, and every public method of its
classes, is replaced by a timing wrapper, in its own module and in every
package module that imported it by name.  A generator function is timed per
resumption, and each value it yields counts as one item.  The tracer keeps a
stack of open spans, so a span's self time is its duration minus the time of
the spans it caused.  Spans (name, start, end, parent, case id) are kept in
memory, up to ``SPAN_LIMIT`` per pass, and written out by
:meth:`Tracer.write_spans`; spans past the limit are only counted.

Nothing here waits on another thread, so there is no wait metric.
"""
from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict
from math import factorial, prod

PACKAGE = "constellation_lab"
LAYERS = (
    "permutations", "constellations", "halfedges", "counting", "tree_rooted",
    "symmetry", "nebulas", "biddings", "puzzle", "cli",
)
SPAN_LIMIT = 50_000


class Stat:
    __slots__ = ("calls", "items", "total", "self")

    def __init__(self) -> None:
        self.calls = 0
        self.items = 0
        self.total = 0.0
        self.self = 0.0


def _transitive_tuples_tried(args, result, counters):
    counters["constellations.transitive_tuples.tried"] += factorial(args["n"]) ** args["k"]


def _arborescences_tried(args, result, counters):
    c, v0 = args["c"], args["v0"]
    counters["constellations.arborescences_toward.tried"] += prod(
        len(c.rotation[v - 1]) for v in range(1, c.num_vertices + 1) if v != v0
    )


def _sample_counts(args, result, counters):
    counters["puzzle.sample_puzzle.trials"] += result.trials
    counters["puzzle.sample_puzzle.accepted"] += result.accepted


# Extra counters taken from the bound arguments (generators, when created) or
# the result (functions) of a traced call.  A hook that no longer fits the
# library's signatures raises, so the traced case fails instead of reporting a
# ratio over part of the pass.
HOOKS = {
    "constellations.transitive_tuples": _transitive_tuples_tried,
    "constellations.arborescences_toward": _arborescences_tried,
    "puzzle.sample_puzzle": _sample_counts,
}


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, Stat] = defaultdict(Stat)
        self.counters: dict[str, float] = defaultdict(float)
        self.case_id = -1
        self.spans: list[tuple] = []
        self.spans_dropped = 0
        self._stack: list[list] = []  # [span id, name, start, child time]
        self._next_id = 0

    # -- span bookkeeping ---------------------------------------------------

    def _enter(self, name: str) -> list:
        frame = [self._next_id, name, time.perf_counter(), 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _leave(self, frame: list) -> None:
        end = time.perf_counter()
        self._stack.pop()
        span_id, name, start, child = frame
        duration = end - start
        stat = self.stats[name]
        stat.total += duration
        stat.self += duration - child
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        if len(self.spans) < SPAN_LIMIT:
            self.spans.append(
                (span_id, name, start, end, parent[0] if parent else None, self.case_id)
            )
        else:
            self.spans_dropped += 1

    # -- wrappers -----------------------------------------------------------

    def wrap(self, name: str, fn):
        tracer = self
        hook = HOOKS.get(name)
        signature = inspect.signature(fn) if hook else None

        def run_hook(args, kwargs, result) -> None:
            if hook:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(bound.arguments, result, tracer.counters)

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                stat = tracer.stats[name]
                stat.calls += 1
                run_hook(args, kwargs, None)
                it = fn(*args, **kwargs)
                while True:
                    frame = tracer._enter(name)
                    try:
                        value = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer._leave(frame)
                    stat.items += 1
                    yield value

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.stats[name].calls += 1
            frame = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._leave(frame)
            run_hook(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap the package's public functions and methods."""
        modules = {
            layer: sys.modules[f"{PACKAGE}.{layer}"]
            for layer in LAYERS
            if f"{PACKAGE}.{layer}" in sys.modules
        }
        namespaces = list(modules.values()) + [sys.modules[PACKAGE]]
        for layer, module in modules.items():
            for attr, value in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(value) and value.__module__ == module.__name__:
                    wrapper = self.wrap(f"{layer}.{attr}", value)
                    for ns in namespaces:
                        for other, same in list(vars(ns).items()):
                            if same is value:
                                setattr(ns, other, wrapper)
                elif inspect.isclass(value) and value.__module__ == module.__name__:
                    for meth, fn in list(vars(value).items()):
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            setattr(value, meth, self.wrap(f"{layer}.{attr}.{meth}", fn))

    # -- results ------------------------------------------------------------

    def snapshot(self) -> dict:
        return {
            "stats": {
                name: [s.calls, s.items, s.total, s.self] for name, s in self.stats.items()
            },
            "counters": dict(self.counters),
            "spans": len(self.spans),
            "spans_dropped": self.spans_dropped,
        }

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, name, start, end, parent, case in self.spans:
                handle.write(json.dumps(
                    {"id": span_id, "name": name, "start": start, "end": end,
                     "parent": parent, "case": case}
                ) + "\n")
