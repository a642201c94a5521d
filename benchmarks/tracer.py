"""Span recorder for the traced benchmark run.

The package binds names at import (``validation`` holds its own reference to
``optimizer.g_map_many``, ``quality`` to ``channel.check_physical``), so a
function is wrapped at every module attribute that binds it, not only where
it is defined.  Spans stay in memory until ``write`` is called; ``remove``
puts every original function back.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time


class Tracer:
    """Wraps the public functions of a package with span recorders.

    A span is (name id, start, end, parent span index, self time).  Self time
    is the span's duration minus the time covered by its child spans.

    ``counted``, if given, is (name, amount): ``amount(args, kwargs)`` is
    summed over the calls of the function named ``name`` into ``counted``.
    """

    def __init__(self, package: str, counted: tuple | None = None):
        self.package = package
        self._counted_name, self._amount = counted or (None, None)
        self.counted = 0
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name: list[int] = []
        self.span_start: list[float] = []
        self.span_end: list[float] = []
        self.span_parent: list[int] = []
        self.span_self: list[float] = []
        self._stack: list[int] = []
        self._child: list[float] = []
        self._patched: list[tuple[object, str, object]] = []

    def _qualname(self, fn) -> str:
        return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"

    def _wrap(self, fn):
        name = self._qualname(fn)
        fid = self.name_ids.setdefault(name, len(self.names))
        if fid == len(self.names):
            self.names.append(name)
        amount = self._amount if name == self._counted_name else None
        span_name, span_start, span_end = self.span_name, self.span_start, self.span_end
        span_parent, span_self = self.span_parent, self.span_self
        stack, child = self._stack, self._child
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(span_name)
            span_name.append(fid)
            span_parent.append(stack[-1] if stack else -1)
            span_start.append(0.0)
            span_end.append(0.0)
            span_self.append(0.0)
            if amount is not None:
                self.counted += amount(args, kwargs)
            stack.append(idx)
            child.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                covered = child.pop()
                span_start[idx] = t0
                span_end[idx] = t1
                span_self[idx] = (t1 - t0) - covered
                if child:
                    child[-1] += t1 - t0

        return traced

    def install(self) -> None:
        """Replace every public package function at every module that binds it."""
        wrappers: dict[int, object] = {}
        modules = [
            m for n, m in sorted(sys.modules.items())
            if m is not None and (n == self.package or n.startswith(self.package + "."))
        ]
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if not obj.__module__.startswith(self.package + "."):
                    continue
                if obj.__name__.startswith("_"):
                    continue
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = self._wrap(obj)
                self._patched.append((module, attr, obj))
                setattr(module, attr, wrappers[id(obj)])

    def remove(self) -> None:
        """Restore the original functions."""
        for module, attr, obj in reversed(self._patched):
            setattr(module, attr, obj)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()
        return False

    def totals(self) -> dict[str, dict[str, float]]:
        """Per function: calls and summed self time."""
        out = {name: {"calls": 0, "self_s": 0.0} for name in self.names}
        for fid, own in zip(self.span_name, self.span_self):
            entry = out[self.names[fid]]
            entry["calls"] += 1
            entry["self_s"] += own
        return out

    def top_level_s(self) -> float:
        """Summed duration of the spans that have no parent span."""
        return math.fsum(
            end - start for start, end, parent in zip(self.span_start, self.span_end, self.span_parent) if parent < 0
        )

    def child_calls(self, parent: str, child: str) -> int:
        """Number of spans named child whose direct parent span is named parent."""
        pid = self.name_ids.get(parent)
        cid = self.name_ids.get(child)
        if pid is None or cid is None:
            return 0
        names = self.span_name
        return sum(1 for fid, par in zip(names, self.span_parent) if fid == cid and par >= 0 and names[par] == pid)

    def write(self, path: str) -> None:
        """Write every span as one tab-separated line: name, start, end, parent, self."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tname\tstart\tend\tparent\tself\n")
            for i, (fid, start, end, parent, own) in enumerate(
                zip(self.span_name, self.span_start, self.span_end, self.span_parent, self.span_self)
            ):
                fh.write(f"{i}\t{self.names[fid]}\t{start!r}\t{end!r}\t{parent}\t{own!r}\n")
