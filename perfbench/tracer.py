"""Call tracing installed from outside the program.

The benchmark wraps the public functions of each qbern module at run
time.  Modules import names such as ``q_binomial`` or ``family_table``
directly, so a wrapper is useful only if it replaces *every* reference:
module globals, attributes of the classes a module defines, and values of
module-level dicts (the ``SUITES`` registry).  :meth:`Tracer.install` does
that and :meth:`Tracer.uninstall` puts every original back.

Two kinds of boundary are recorded:

* fine boundaries (millions of calls) keep only a call counter and add
  their self time to their layer's accumulator;
* coarse boundaries additionally keep a span ``(name, start, end,
  parent)``, where ``parent`` is the index of the enclosing coarse span.

Self time is a call's duration minus the time its traced children cover.
Everything stays in memory until the caller reads it at the end of a run.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from types import ModuleType
from typing import Callable, Iterable


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.calls: dict[str, int] = defaultdict(int)  # "layer.name" -> calls
        self.self_s: dict[str, float] = defaultdict(float)  # layer -> seconds
        # group -> inclusive seconds of its outermost calls
        self.group_s: dict[str, float] = defaultdict(float)
        self.spans: list[list] = []  # [name, start, end, parent index]
        self._children: list[list[float]] = []  # per open call: child seconds
        self._open_spans: list[int] = []
        self._group_depth: dict[str, int] = defaultdict(int)
        self._undo: list[Callable[[], None]] = []

    # -- wrappers -------------------------------------------------------

    def wrap(
        self,
        fn: Callable,
        layer: str,
        name: str,
        *,
        span: Callable[..., str] | None = None,
        group: str | None = None,
        before: Callable | None = None,
        after: Callable | None = None,
    ) -> Callable:
        """Return a counting, self-timing wrapper around ``fn``.

        ``span(*args, **kwargs)`` names a coarse span; ``group`` adds the
        call's inclusive time to ``group_s[group]`` unless an enclosing
        call of the same group is open.  ``before(*args, **kwargs)``
        returns a token handed to ``after(result, token, *args, **kwargs)``
        once the call has returned.
        """
        key = f"{layer}.{name}"
        calls, self_s, children, clock = self.calls, self.self_s, self._children, self.clock
        spans, open_spans = self.spans, self._open_spans
        group_s, depth = self.group_s, self._group_depth

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[key] += 1
            token = before(*args, **kwargs) if before else None
            if span:
                record = [span(*args, **kwargs), 0.0, 0.0,
                          open_spans[-1] if open_spans else None]
                open_spans.append(len(spans))
                spans.append(record)
            if group:
                depth[group] += 1
            frame = [0.0]
            children.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                dur = t1 - t0
                children.pop()
                self_s[layer] += dur - frame[0]
                if children:
                    children[-1][0] += dur
                if group:
                    depth[group] -= 1
                    if not depth[group]:
                        group_s[group] += dur
                if span:
                    open_spans.pop()
                    record[1], record[2] = t0, t1
            if after:
                after(result, token, *args, **kwargs)
            return result

        return traced

    # -- installation ---------------------------------------------------

    def install(self, modules: Iterable[ModuleType], wrappers: dict[int, Callable]) -> int:
        """Replace every reference to a wrapped function in ``modules``.

        ``wrappers`` maps ``id(original)`` to its wrapper.  Returns the
        number of references replaced.
        """
        replaced = 0
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers:
                    self._set(mod, attr, wrappers[id(value)])
                    replaced += 1
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if id(v) in wrappers:
                            self._setitem(value, k, wrappers[id(v)])
                            replaced += 1
                elif isinstance(value, type) and value.__module__ == mod.__name__:
                    for cattr, cvalue in list(vars(value).items()):
                        if isinstance(cvalue, (classmethod, staticmethod)):
                            if id(cvalue.__func__) in wrappers:
                                new = type(cvalue)(wrappers[id(cvalue.__func__)])
                                self._set(value, cattr, new)
                                replaced += 1
                        elif id(cvalue) in wrappers:
                            self._set(value, cattr, wrappers[id(cvalue)])
                            replaced += 1
        return replaced

    def uninstall(self) -> None:
        """Restore every reference :meth:`install` replaced."""
        while self._undo:
            self._undo.pop()()

    def _set(self, owner, attr: str, new) -> None:
        old = vars(owner)[attr]
        setattr(owner, attr, new)
        self._undo.append(lambda: setattr(owner, attr, old))

    def _setitem(self, mapping: dict, key, new) -> None:
        old = mapping[key]
        mapping[key] = new
        self._undo.append(lambda: mapping.__setitem__(key, old))

    # -- results --------------------------------------------------------

    def span_self_s(self) -> list[float]:
        """Self time of each coarse span: duration minus what its child
        spans cover."""
        out = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent is not None:
                out[parent] -= end - start
        return out
