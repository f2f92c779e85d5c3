"""Spans recorded by the driver, around its calls into the top layer.

An untraced run uses :class:`Tracer`, whose ``wrap`` hands back the
object itself — no indirection is left on the timed path.  A traced run
uses :class:`SpanTracer`: every entry point the driver holds is wrapped
in a proxy that appends ``(unit, name, start, end)`` to an in-memory
list, written out once the run is over.  Spans inside the program are a
later change; below this boundary the traced run is profiled instead
(``perf.layers``).
"""

from __future__ import annotations

import json
from time import perf_counter

NO_UNIT = -1  # a call made for the whole client pool (e.g. ``poll``)


class Tracer:
    """Tracing off."""

    enabled = False
    unit = NO_UNIT

    def wrap(self, layer, target):
        """An object whose method calls are the driver's entry points."""
        return target

    def wrap_call(self, label, function):
        """A plain function the driver calls (a ``repro.models`` helper)."""
        return function


def _recording(tracer, label, function):
    """``function``, with a span appended to ``tracer.calls`` per call."""
    calls = tracer.calls

    def traced(*args, **kwargs):
        start = perf_counter()
        try:
            return function(*args, **kwargs)
        finally:
            calls.append((tracer.unit, label, start, perf_counter()))

    return traced


class _Proxy:
    """Records a span around every method call made through it."""

    def __init__(self, tracer, layer, target):
        self._tracer = tracer
        self._layer = layer
        self._target = target

    def __getattr__(self, name):
        value = getattr(self._target, name)
        if not callable(value):
            return value
        traced = _recording(self._tracer, f"{self._layer}.{name}", value)
        self.__dict__[name] = traced  # next lookup skips __getattr__
        return traced


class SpanTracer(Tracer):
    """Tracing on: unit spans come from the recorder, call spans from here."""

    enabled = True

    def __init__(self):
        self.calls = []
        self.unit = NO_UNIT

    def wrap(self, layer, target):
        return _Proxy(self, layer, target)

    def wrap_call(self, label, function):
        return _recording(self, label, function)

    def write(self, path, workload, seed, units):
        """One JSON document: unit spans, each with its child call spans."""
        children = {}
        for unit, label, start, end in self.calls:
            children.setdefault(unit, []).append(
                {"name": label, "start": start, "end": end}
            )
        document = {
            "workload": workload,
            "seed": seed,
            "clock": "time.perf_counter, seconds",
            "units": [
                {
                    "id": index,
                    "kind": kind,
                    "start": start,
                    "end": end,
                    "retries": retries,
                    "calls": children.get(index, []),
                }
                for index, (kind, start, end, retries) in enumerate(units)
            ],
            "pool_calls": children.get(NO_UNIT, []),
        }
        with open(path, "w", encoding="utf-8") as out:
            json.dump(document, out)
