"""Span recorder for the traced benchmark run.

``SpanRecorder.install`` rebinds every public function of the ``miezesim``
modules (the names in each module's ``__all__``) to a wrapper that records a
span per call.  The rebinding is done in every ``miezesim`` module namespace
that holds the function, so calls from one public function to another --
within a module or across modules -- appear as child spans.  Nothing in the
package source is edited, and ``uninstall`` restores the original bindings.

A span is ``(name, start, end, parent, attrs)``; spans stay in memory until
the run ends.  Optional per-function annotators (benchmark code) turn call
arguments and results into counts such as points simulated or bytes written.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from dataclasses import dataclass, field

LAYERS = ("config", "cli", "synth", "analysis", "wavepacket", "beamline", "quantum")


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class SpanRecorder:
    """Records spans around calls into the package's public functions."""

    def __init__(self, annotators: dict | None = None) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._annotators = annotators or {}
        self._restore: list[tuple[object, str, object]] = []

    def span(self, name: str) -> "_SpanContext":
        """Context manager for a span opened by benchmark code."""
        return _SpanContext(self, name)

    def _open(self, name: str, attrs: dict) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent=parent, attrs=attrs))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, func):
        annotate = self._annotators.get(name)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = self._open(name, {})
            try:
                result = func(*args, **kwargs)
            except BaseException as exc:
                self.spans[index].attrs["error"] = type(exc).__name__
                raise
            finally:
                self._close(index)
            if annotate is not None:
                self.spans[index].attrs.update(annotate(args, kwargs, result))
            return result

        return traced

    def install(self, package) -> None:
        """Rebind the public functions of ``package``'s layer modules."""
        modules = [importlib.import_module(f"{package.__name__}.{layer}") for layer in LAYERS]
        namespaces = [package, *modules]
        for module in modules:
            layer = module.__name__.rsplit(".", 1)[-1]
            for attr in module.__all__:
                func = getattr(module, attr)
                if not inspect.isfunction(func) or func.__module__ != module.__name__:
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", func)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is func:
                            self._restore.append((ns, key, value))
                            setattr(ns, key, wrapper)

    def uninstall(self) -> None:
        for ns, key, value in reversed(self._restore):
            setattr(ns, key, value)
        self._restore.clear()

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.duration
        return [s.duration - c for s, c in zip(self.spans, child_time)]

    def to_records(self) -> list[dict]:
        return [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
             "self": self_time, "attrs": s.attrs}
            for s, self_time in zip(self.spans, self.self_times())
        ]


class _SpanContext:
    def __init__(self, recorder: SpanRecorder, name: str) -> None:
        self._recorder = recorder
        self._name = name
        self._index = -1

    def __enter__(self) -> Span:
        self._index = self._recorder._open(self._name, {})
        return self._recorder.spans[self._index]

    def __exit__(self, *exc) -> None:
        self._recorder._close(self._index)
