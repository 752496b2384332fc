"""Span recording around the public functions of ``speclp`` and the FFT entry points.

The tracer changes no library code.  ``install`` replaces every public
function of every ``speclp`` module at every module binding that holds it
(``gfunction`` imports ``forward_transform`` by name, so patching only
``spectral`` would miss those calls), and wraps the ``numpy.fft`` and
``scipy.fft`` transform entry points, which ``g_function``,
``_node_kernels`` and the fractional-Laplacian near range call directly.
``uninstall`` puts every original back.

A span records its name, start, end, parent span and op id; spans stay in
memory until ``spans`` is read.  FFT calls open no span: each call and its
point count (the input array's size, a computed figure) are charged to the
innermost open span of the calling thread.  A span opened on a thread with
no open span of its own (the workers of a thread pool) takes the main
thread's innermost open span as parent.
"""

from __future__ import annotations

import inspect
import sys
import threading
import time
from typing import Dict, List, Optional

FFT_ENTRY_POINTS = ("fft", "ifft", "fftn", "ifftn", "fft2", "ifft2",
                    "rfft", "irfft", "rfftn", "irfftn", "rfft2", "irfft2")

# functions whose span also records a work count taken from the arguments
_WORK_COUNTS = {
    "gfunction.g_function": lambda a: len(a["window"].nodes),
    "kernel_audit.hormander_report": lambda a: len(a["window"].nodes) * len(a["y_list"]),
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "fft", "work")

    def __init__(self, name: str, parent: Optional["Span"], op):
        self.name = name
        self.parent = parent
        self.op = op
        self.fft: Optional[Dict[str, List[int]]] = None  # entry point -> [calls, points]
        self.work = 0
        self.start = self.end = 0.0


class Tracer:
    def __init__(self):
        self.spans: List[Span] = []
        self.op = "setup"
        self._local = threading.local()
        self._main = self._stack()
        self._patches = []  # (owner, attribute, original)

    # --- span stack -----------------------------------------------------------

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else (self._main[-1] if self._main else None)
        span = Span(name, parent, self.op)
        stack.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    # --- wrappers ---------------------------------------------------------------

    def _wrap_function(self, fn, name: str):
        count = _WORK_COUNTS.get(name)
        signature = inspect.signature(fn) if count else None
        tracer = self

        def wrapper(*args, **kwargs):
            span = tracer._open(name)
            if count is not None:
                span.work = count(signature.bind(*args, **kwargs).arguments)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(span)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def _wrap_fft(self, fn, entry: str):
        local = self._local
        tracer = self

        def wrapper(a, *args, **kwargs):
            if getattr(local, "in_fft", False):  # an entry point calling another
                return fn(a, *args, **kwargs)
            stack = tracer._stack()
            span = stack[-1] if stack else (tracer._main[-1] if tracer._main else None)
            if span is not None:
                if span.fft is None:
                    span.fft = {}
                c = span.fft.setdefault(entry, [0, 0])
                c[0] += 1
                c[1] += int(getattr(a, "size", 0))
            local.in_fft = True
            try:
                return fn(a, *args, **kwargs)
            finally:
                local.in_fft = False

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        import numpy.fft
        import scipy.fft

        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "speclp" or name.startswith("speclp."))]
        wrapped = {}
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                home = value.__module__ or ""
                if not home.startswith("speclp.") or value.__name__.startswith("_"):
                    continue
                if value not in wrapped:
                    layer = home.split(".", 1)[1]
                    wrapped[value] = self._wrap_function(value, f"{layer}.{value.__name__}")
                self._patch(mod, attr, wrapped[value])
        for owner in (numpy.fft, scipy.fft):
            for entry in FFT_ENTRY_POINTS:
                if hasattr(owner, entry):
                    self._patch(owner, entry, self._wrap_fft(getattr(owner, entry), entry))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Self time of each span: its duration minus the part of its interval
    covered by its children (the union, so parallel children count once)."""
    children: Dict[int, List[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(id(s.parent), []).append(s)
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for c in sorted(children.get(id(s), ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[id(s)] = (s.end - s.start) - covered
    return out
