"""Spans around the public functions of the sun_gates layers, recorded from outside the library.

``Tracer.install`` wraps every public function defined in a ``sun_gates``
module and rebinds the wrapper in every ``sun_gates.*`` namespace holding the
original, so a call is seen whichever import path it takes. A span is named
``<defining module>.<function>``, so a function that moves to another module
keeps being traced, under its new layer. Spans stay in memory until the
caller takes them; ``uninstall`` restores the original bindings.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

PACKAGE = "sun_gates"
LAYERS = ("sun_algebra", "qudit_ops", "invariant_channels", "amplitude_model", "lcu_encoder", "cli")

# Span fields, stored as lists so the wrapper can close a span in place.
NAME, ITEM, START_NS, END_NS, PARENT, RAISED = range(6)


def package_modules():
    """The imported ``sun_gates`` package and its submodules."""
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def traceable(value) -> bool:
    """A public function defined in a ``sun_gates`` submodule."""
    return (inspect.isfunction(value) and not value.__name__.startswith("_")
            and getattr(value, "__module__", "").startswith(PACKAGE + "."))


class Tracer:
    """Records one span per call of a wrapped function; ``item`` tags the spans of the current item."""

    def __init__(self):
        self.spans: list[list] = []
        self.item: int | None = None
        self.wrappers: dict = {}  # original function -> wrapper
        self._stack: list[int] = []
        self._bindings: list[tuple] = []

    def install(self) -> None:
        for layer in LAYERS:
            importlib.import_module(f"{PACKAGE}.{layer}")
        for module in package_modules():
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not traceable(value):
                    continue
                if value not in self.wrappers:
                    self.wrappers[value] = self._wrap(value)
                setattr(module, attr, self.wrappers[value])
                self._bindings.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._bindings):
            setattr(module, attr, original)
        self._bindings.clear()
        self.wrappers.clear()

    def _wrap(self, fn):
        name = f"{fn.__module__.rpartition('.')[2]}.{fn.__qualname__}"
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, self.item, clock(), 0, stack[-1] if stack else -1, False]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            except Exception:
                span[RAISED] = True
                raise
            finally:
                span[END_NS] = clock()
                stack.pop()

        return wrapper


def summarize(spans: list[list]) -> dict[str, list[int]]:
    """{layer or layer.function: [calls, self_ns, errors]} over the given spans.

    A span's self time is its duration minus the durations of its direct
    children; a layer's figures are the sums over its functions.
    """
    child_ns = [0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child_ns[span[PARENT]] += span[END_NS] - span[START_NS]
    stats: dict[str, list[int]] = {}
    for span, children in zip(spans, child_ns):
        self_ns = span[END_NS] - span[START_NS] - children
        for key in (span[NAME].partition(".")[0], span[NAME]):
            entry = stats.setdefault(key, [0, 0, 0])
            entry[0] += 1
            entry[1] += self_ns
            entry[2] += bool(span[RAISED])
    return stats
