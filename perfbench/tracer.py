"""Per-layer tracing of the ``dicolor`` package from outside the program.

:class:`Tracer` replaces every public module-level function of
``dicolor.*`` with a timing wrapper.  ``from .graphs import is_acyclic``
copies a function into other modules, so the wrappers are installed by an
identity scan: every binding, in every ``dicolor`` module dict, that is
one of the package's public functions is patched, and every patch is
undone by :meth:`Tracer.uninstall`.  A generator returned by a wrapped
function is timed per ``next()``, so its work is charged to the function
that made it and not to the loop that consumes it.

Calls are aggregated per (query, function) as count, busy time and self
time (busy time minus the time of nested wrapped calls), so a kernel
called 10^6 times costs one dict entry, not 10^6 spans.  Spans are kept
only for each query and for each call into ``coloring`` or ``certify``
from another module.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import types
from collections import defaultdict

PACKAGE = "dicolor"
SPAN_LAYERS = ("coloring", "certify")
MARK = "__perfbench_wrapped__"
# bit-mask helpers cost ~0.1 us per call; a wrapper would multiply that and
# bill the difference to their callers, so their time stays with the caller
UNWRAPPED = frozenset({"graphs.iter_bits", "graphs.bit_list", "graphs.mask_of"})


def _bound(fn, args, kwargs, name):
    return inspect.signature(fn).bind(*args, **kwargs).arguments[name]


def _orientation_space(fn, args, kwargs, result, exc):
    return {"space": 2 ** len(_bound(fn, args, kwargs, "G").edges)}


def _acyclic_sets_returned(fn, args, kwargs, result, exc):
    return {"returned": len(result)} if exc is None else {}


def _simplex_rows(fn, args, kwargs, result, exc):
    return {"rows": len(_bound(fn, args, kwargs, "A"))}


def _tries(fn, args, kwargs, result, exc):
    if exc is None:
        return {"tries": result.tries, "certified": int(result.certified)}
    return {"tries": getattr(exc, "tries", 0) or 0}


def _exit_nonzero(fn, args, kwargs, result, exc):
    return {"exit_nonzero": int(exc is not None or result != 0)}


# extra counters read from a call's arguments, result or exception
COUNTERS = {
    "graphs.orientations": _orientation_space,
    "families.maximal_acyclic_sets": _acyclic_sets_returned,
    "simplex.simplex_max": _simplex_rows,
    "certify.find_good_orientation": _tries,
    "cli.main": _exit_nonzero,
}


class Stat:
    __slots__ = ("calls", "busy", "self", "yielded", "extra")

    def __init__(self):
        self.calls = 0
        self.busy = 0.0
        self.self = 0.0
        self.yielded = 0
        self.extra = defaultdict(int)


class _Frame:
    __slots__ = ("stat", "layer", "start", "child", "span")

    def __init__(self, stat, layer, start, span):
        self.stat = stat
        self.layer = layer
        self.start = start
        self.child = 0.0
        self.span = span


class Tracer:
    """Wraps the package's public functions while installed."""

    def __init__(self):
        self.stats: dict[tuple[str, str], Stat] = {}
        self.spans: list[tuple[int, int | None, str, str, float, float]] = []
        self._stack: list[_Frame] = []
        self._patches: list[tuple[types.ModuleType, str, object]] = []
        self._qid = ""
        self._root_span: int | None = None

    # -------------------------------------------------------- install

    def _modules(self) -> list[types.ModuleType]:
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = self._modules()
        wrappers: dict[int, object] = {}
        for mod in modules:
            for name, obj in vars(mod).items():
                if (isinstance(obj, types.FunctionType)
                        and obj.__module__.startswith(PACKAGE + ".")
                        and not obj.__name__.startswith("_")
                        and obj.__qualname__ == obj.__name__
                        and _name(obj) not in UNWRAPPED):
                    wrappers.setdefault(id(obj), (obj, None))
        for key, (fn, _) in list(wrappers.items()):
            wrappers[key] = (fn, self._wrap(fn))
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((mod, name, obj))
                    setattr(mod, name, hit[1])

    def uninstall(self) -> None:
        for mod, name, original in reversed(self._patches):
            setattr(mod, name, original)
        self._patches.clear()

    def leftover_wrappers(self) -> list[str]:
        """Bindings in the package that are still wrappers (should be none)."""
        return [f"{mod.__name__}.{name}" for mod in self._modules()
                for name, obj in vars(mod).items() if getattr(obj, MARK, False)]

    # -------------------------------------------------------- timing

    def begin_query(self, qid: str) -> None:
        self._qid = qid
        self._root_span = len(self.spans)
        self.spans.append((self._root_span, None, qid, "query", time.perf_counter(), 0.0))

    def end_query(self) -> None:
        sid, parent, qid, name, start, _ = self.spans[self._root_span]
        self.spans[sid] = (sid, parent, qid, name, start, time.perf_counter())
        self._root_span = None

    def _stat(self, fname: str) -> Stat:
        key = (self._qid, fname)
        stat = self.stats.get(key)
        if stat is None:
            stat = self.stats[key] = Stat()
        return stat

    def _enter(self, fname: str, layer: str) -> _Frame:
        span = None
        caller = self._stack[-1] if self._stack else None
        if layer in SPAN_LAYERS and (caller is None or caller.layer != layer):
            span = len(self.spans)
        frame = _Frame(self._stat(fname), layer, time.perf_counter(), span)
        if span is not None:
            parent = next((f.span for f in reversed(self._stack) if f.span is not None),
                          self._root_span)
            self.spans.append((span, parent, self._qid, fname, frame.start, 0.0))
        self._stack.append(frame)
        return frame

    def _exit(self, frame: _Frame) -> None:
        end = time.perf_counter()
        popped = self._stack.pop()
        if popped is not frame:
            raise RuntimeError("unbalanced tracer stack")
        elapsed = end - frame.start
        frame.stat.busy += elapsed
        frame.stat.self += elapsed - frame.child
        if self._stack:
            self._stack[-1].child += elapsed
        if frame.span is not None:
            sid, parent, qid, name, start, _ = self.spans[frame.span]
            self.spans[frame.span] = (sid, parent, qid, name, start, end)

    def _wrap(self, fn):
        tracer = self
        fname = _name(fn)
        layer = fname.split(".", 1)[0]
        counter = COUNTERS.get(fname)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer._enter(fname, layer)
            frame.stat.calls += 1
            result = exc = None
            try:
                result = fn(*args, **kwargs)
            except BaseException as e:
                exc = e
                raise
            finally:
                tracer._exit(frame)
                if counter is not None:
                    _add(frame.stat, counter(fn, args, kwargs, result, exc))
            if isinstance(result, types.GeneratorType):
                return tracer._timed_generator(fname, layer, result)
            return result

        setattr(wrapper, MARK, True)
        return wrapper

    def _timed_generator(self, fname: str, layer: str, gen):
        try:
            while True:
                frame = self._enter(fname, layer)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self._exit(frame)
                frame.stat.yielded += 1
                yield item
        finally:
            gen.close()

    # -------------------------------------------------------- results

    def totals(self) -> dict[str, Stat]:
        out: dict[str, Stat] = {}
        for (_, fname), s in self.stats.items():
            t = out.setdefault(fname, Stat())
            t.calls += s.calls
            t.busy += s.busy
            t.self += s.self
            t.yielded += s.yielded
            for k, v in s.extra.items():
                t.extra[k] += v
        return out

    def dump(self) -> dict:
        return {
            "aggregates": [
                {"query": qid, "function": fname, "calls": s.calls, "busy_s": s.busy,
                 "self_s": s.self, "yielded": s.yielded, **s.extra}
                for (qid, fname), s in self.stats.items()
            ],
            "spans": [
                {"id": sid, "parent": parent, "query": qid, "name": name,
                 "start": start, "end": end}
                for sid, parent, qid, name, start, end in self.spans
            ],
        }


def _name(fn) -> str:
    """``module.function`` with the package prefix dropped."""
    return f"{fn.__module__.split('.', 1)[1]}.{fn.__name__}"


def _add(stat: Stat, extra: dict) -> None:
    for k, v in extra.items():
        stat.extra[k] += v
