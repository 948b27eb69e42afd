"""Spans around the public functions of every chromlc module, recorded from
the benchmark's side: the package itself is not changed.

``Tracer.install`` rebinds each traced function in every ``chromlc`` module
that holds it (``level_decompose`` is bound in ``graphs``, ``hamiltonian``,
``compiler`` and the package namespace; ``hermitian_eig`` is also called
through the ``linalg`` module global), and ``uninstall`` puts the originals
back, so timed runs never see a wrapper.  Spans stay in memory until the
benchmark writes them out at the end.

Parents are tracked per thread.  A span opened on a thread with no open span
of its own (a worker of the ``analysis`` thread pool) takes as parent the
innermost open span of the thread that runs the command.

Self time shares each instant of a command among the innermost open spans of
all threads, skipping a span while one of its children on another thread is
open.  On one thread that is the usual duration minus the time covered by
child spans; with a pool it makes the self times of all spans add up to the
command's wall time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
import time

LAYERS = ("cli", "serialization", "compiler", "hamiltonian", "graphs", "linalg", "simulator", "analysis")
# Public callables that are not module-level functions listed in ``__all__``.
EXTRA = (("cli", "main"), ("compiler", "Gate.from_unitary"))


class Span:
    __slots__ = ("name", "layer", "thread", "parent", "start", "end", "info")

    def __init__(self, name, layer, thread, parent, start):
        self.name = name
        self.layer = layer
        self.thread = thread
        self.parent = parent
        self.start = start
        self.end = None
        self.info = None


def _public_functions():
    """[(layer, qualified name, owner, attribute, function)] for every traced callable."""
    out = []
    for layer in LAYERS:
        module = importlib.import_module(f"chromlc.{layer}")
        for name in getattr(module, "__all__", ()):
            obj = getattr(module, name, None)
            if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                out.append((layer, name, module, name, obj))
    for layer, qualname in EXTRA:
        owner = importlib.import_module(f"chromlc.{layer}")
        *path, attr = qualname.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        raw = owner.__dict__.get(attr) if owner is not None else None
        if isinstance(raw, classmethod) or inspect.isfunction(raw):
            out.append((layer, qualname, owner, attr, raw))
    return out


class Tracer:
    """Records spans while installed.

    ``hooks`` maps a traced name to f(result), stored as the span's ``info``;
    ``traced`` holds the (layer, name) of every function found to trace.
    """

    def __init__(self, hooks=None):
        self.hooks = hooks or {}
        self.spans = []
        self.traced = set()
        self._local = threading.local()
        self._root_stack = None
        self._patches = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, layer, name, fn):
        hook = self.hooks.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                root = self._root_stack
                parent = root[-1] if root and root is not stack else None
            span = Span(name, layer, threading.get_ident(), parent, clock())
            self.spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if hook is not None:
                span.info = hook(result)
            return result

        return traced

    def install(self):
        """Rebind every traced function in every loaded chromlc module."""
        modules = [m for n, m in list(sys.modules.items()) if n == "chromlc" or n.startswith("chromlc.")]
        for layer, name, owner, attr, fn in _public_functions():
            if isinstance(fn, classmethod):
                wrapped = classmethod(self._wrap(layer, name, fn.__func__))
                self._patches.append((owner, attr, fn))
                setattr(owner, attr, wrapped)
            else:
                wrapped = self._wrap(layer, name, fn)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is fn:
                            self._patches.append((module, key, fn))
                            setattr(module, key, wrapped)
            self.traced.add((layer, name))
        self._root_stack = self._stack()

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        self._root_stack = None

    def take(self):
        """Hand over the spans recorded so far and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans


def self_times(spans):
    """{span: self time}; the values add up to the wall time the spans cover."""
    events = []
    for span in spans:
        events.append((span.start, 1, span))
        events.append((span.end, 0, span))
    events.sort(key=lambda e: (e[0], e[1]))
    out = dict.fromkeys(spans, 0.0)
    stacks = {}
    cross_open = dict.fromkeys(spans, 0)
    prev = None
    for t, opening, span in events:
        if prev is not None and t > prev:
            leaves = [s[-1] for s in stacks.values() if s and not cross_open[s[-1]]]
            for leaf in leaves:
                out[leaf] += (t - prev) / len(leaves)
        prev = t
        parent = span.parent
        cross = parent is not None and parent.thread != span.thread
        stack = stacks.setdefault(span.thread, [])
        if opening:
            stack.append(span)
            if cross:
                cross_open[parent] += 1
        else:
            stack.remove(span)
            if cross:
                cross_open[parent] -= 1
    return out
