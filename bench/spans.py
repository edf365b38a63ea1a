"""Spans recorded from outside the program, by wrapping its public functions.

A Tracer keeps every span (name, start, end, parent) in flat arrays while
the benchmark runs, and writes them out once at the end.  Wrappers replace
each target function in every ftrails module that binds it, so calls
between the layers go through them; uninstall() puts the originals back.
Work the benchmark does itself while tracing (counting, replays) is
recorded under names starting with "bench.", so no layer's self time
includes it.
"""

from __future__ import annotations

import gc
import gzip
import sys
import time
from array import array
from collections import defaultdict

clock = time.perf_counter


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: dict[str, float] = defaultdict(float)
        self._patches: list[tuple[object, str, object]] = []
        self._gc_start = 0.0
        self.paused = False

    # -- spans -----------------------------------------------------------

    def begin(self, name: str) -> int:
        nid = self._name_id.get(name)
        if nid is None:
            nid = self._name_id[name] = len(self.names)
            self.names.append(name)
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(clock())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = clock()
        self._stack.pop()

    def self_times(self, lo: int = 0, hi: int | None = None) -> tuple[dict[str, float], dict[str, int]]:
        """Self time and call count per span name, over spans lo..hi-1.

        A span's self time is its duration minus its direct children's.
        """
        hi = len(self.name) if hi is None else hi
        own = [self.end[i] - self.start[i] for i in range(lo, hi)]
        for i in range(lo, hi):
            p = self.parent[i]
            if p >= lo:
                own[p - lo] -= self.end[i] - self.start[i]
        total: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for i in range(lo, hi):
            name = self.names[self.name[i]]
            total[name] += own[i - lo]
            calls[name] += 1
        return total, calls

    def write(self, path) -> None:
        """Write every span as CSV: id, parent, name, start, end (seconds)."""
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as out:
            out.write("id,parent,name,start,end\n")
            names = self.names
            for i in range(len(self.name)):
                out.write(
                    f"{i},{self.parent[i]},{names[self.name[i]]},{self.start[i]:.9f},{self.end[i]:.9f}\n"
                )

    # -- wrapping --------------------------------------------------------

    def install(self, targets, after=None) -> None:
        """Wrap each (owner, attribute, span name) target.

        A function is replaced wherever an ftrails module binds it; a
        class's __init__ is replaced on the class.  after[name], if given,
        is called as after(result, args, kwargs, error) once the call has
        returned (error None) or raised (result None).
        """
        after = after or {}
        modules = [m for k, m in list(sys.modules.items()) if k == "ftrails" or k.startswith("ftrails.")]
        for owner, attr, name in targets:
            orig = getattr(owner, attr)
            wrapper = self._wrap(orig, name, after.get(name))
            if isinstance(owner, type):
                self._patches.append((owner, attr, orig))
                setattr(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._patches.append((mod, key, orig))
                        setattr(mod, key, wrapper)
        gc.callbacks.append(self._on_gc)

    @property
    def installed(self) -> bool:
        return bool(self._patches)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    def _wrap(self, fn, name, after):
        begin, finish = self.begin, self.finish

        def wrapper(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            idx = begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as ex:
                finish(idx)
                if after is not None:
                    self._inspect(after, None, args, kwargs, ex)
                raise
            finish(idx)
            if after is not None:
                self._inspect(after, result, args, kwargs, None)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _inspect(self, hook, result, args, kwargs, error) -> None:
        """Run a hook untraced, inside a span of its own."""
        idx = self.begin("bench.inspect")
        self.paused = True
        try:
            hook(result, args, kwargs, error)
        finally:
            self.paused = False
            self.finish(idx)

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = clock()
        elif not self.paused:
            self.counts["runtime.gc_s"] += clock() - self._gc_start
            self.counts["runtime.gc_collections"] += 1
