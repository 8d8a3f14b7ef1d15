"""Span tracer for the traced run.

Every public function defined in one of the layer modules is replaced, at
every name a ``qeraser`` module binds it under, by one wrapper that records a
span: name, start, end and the span that was open when it was called.  The
binding points matter because ``events``, ``cli`` and ``analysis`` re-bind
functions from ``optics``, ``experiment`` and ``analysis`` with ``from ...
import``; patching only the defining module would miss those calls.

Spans are kept in memory, one column per field with the row index as the
span id, and written out once, when the run ends.  A span's self time is its
duration minus the time its child spans cover.  Counters at
the same boundaries are filled by observers, which run after the wrapped call
returns inside a ``trace.observe`` span of their own, so their cost never
lands in a qeraser layer's self time.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("cli", "experiment", "optics", "events", "analysis")


class Tracer:
    """Spans held as parallel columns; the span id is the row index.

    Plain int lists keep recording cheap and create no objects the garbage
    collector has to track, so the traced run stays close to the plain one.
    """

    def __init__(self):
        self.parent: list[int] = []  # -1 for a root span
        self.name: list[str] = []
        self.start_ns: list[int] = []
        self.end_ns: list[int] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.bindings: dict[str, list[str]] = {}
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def _open(self, name: str) -> int:
        span = len(self.start_ns)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.name.append(name)
        self.end_ns.append(0)
        self._stack.append(span)
        self.start_ns.append(time.perf_counter_ns())
        return span

    def _close(self, span: int) -> None:
        self.end_ns[span] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, name: str, fn, observe=None):
        signature = inspect.signature(fn) if observe else None
        parent, names, start_ns, end_ns, stack = (
            self.parent, self.name, self.start_ns, self.end_ns, self._stack
        )
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # _open/_close inlined: this runs once per call of a wrapped function
            span = len(start_ns)
            parent.append(stack[-1] if stack else -1)
            names.append(name)
            end_ns.append(0)
            stack.append(span)
            start_ns.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end_ns[span] = clock()
                stack.pop()
            if observe is not None:
                span = self._open("trace.observe")
                try:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    observe(self.counters, bound.arguments, result)
                finally:
                    self._close(span)
            return result

        return traced

    # -- wrapping ------------------------------------------------------------

    def install(self, observers: dict) -> None:
        """Wrap the layers' public functions at every qeraser binding."""
        modules = {
            name: module
            for name, module in sorted(sys.modules.items())
            if module is not None and (name == "qeraser" or name.startswith("qeraser."))
        }
        wrappers = {}
        for layer in LAYERS:
            module = modules[f"qeraser.{layer}"]
            for attr, obj in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                wrappers[id(obj)] = (name, self.wrap(name, obj, observers.get(name)))
        for mod_name, module in modules.items():
            for attr, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is None or not inspect.isfunction(obj):
                    continue
                name, wrapper = hit
                setattr(module, attr, wrapper)
                self._restore.append((module, attr, obj))
                self.bindings.setdefault(name, []).append(f"{mod_name}.{attr}")

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._restore):
            setattr(module, attr, obj)
        self._restore.clear()

    # -- results -------------------------------------------------------------

    def summary(self) -> dict:
        """Calls, total and self seconds per span name; self seconds per layer.

        A span's self time is its duration minus the time its children cover.
        A CLI command's self time also takes in the cli-layer functions it
        calls (``cmd_verify`` runs the property suite through
        ``run_property_suite``), so it is the command's time outside every
        other layer.
        """
        parent = np.asarray(self.parent, dtype=np.int64)
        duration = np.asarray(self.end_ns, dtype=np.int64) - np.asarray(self.start_ns, dtype=np.int64)
        child = parent >= 0
        covered = np.bincount(parent[child], weights=duration[child], minlength=len(parent))
        own = (duration - covered) / 1e9
        labels, index = np.unique(np.asarray(self.name, dtype=object), return_inverse=True)
        calls = np.bincount(index, minlength=len(labels))
        total = np.bincount(index, weights=duration / 1e9, minlength=len(labels))
        self_s = np.bincount(index, weights=own, minlength=len(labels))
        functions = {
            str(n): {"calls": int(c), "total_s": float(t), "self_s": float(s)}
            for n, c, t, s in zip(labels, calls, total, self_s)
        }
        layers: dict[str, float] = defaultdict(float)
        for n, s in zip(labels, self_s):
            layers[str(n).split(".", 1)[0]] += float(s)
        command = [-1] * len(parent)
        commands: dict[str, float] = defaultdict(float)
        for i, (p, n) in enumerate(zip(self.parent, self.name)):
            command[i] = i if n.startswith("cli.cmd_") else (command[p] if p >= 0 else -1)
            if command[i] >= 0 and n.startswith("cli."):
                commands[self.name[command[i]]] += float(own[i])
        return {"functions": functions, "layer_self_s": dict(layers), "command_self_s": dict(commands)}

    def write(self, path) -> None:
        labels = sorted(set(self.name))
        code = {n: i for i, n in enumerate(labels)}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "bindings": self.bindings,
                    "names": labels,
                    "spans": {
                        "name": [code[n] for n in self.name],
                        "parent": self.parent,
                        "start_ns": self.start_ns,
                        "end_ns": self.end_ns,
                    },
                },
                fh,
                separators=(",", ":"),
            )


# ---------------------------------------------------------------------------
# Counters recorded at the layer boundaries.
# ---------------------------------------------------------------------------


def _observe_background(counters, args, result):
    counters["events.background_events"] += len(result) - len(args["stream"])


def _observe_match(counters, args, result):
    stream = args["stream"]
    batch, orphans = result
    counters["events.matched_triples"] += len(batch)
    counters["events.orphans"] += orphans.total
    counters["events.d0_records"] += int(np.count_nonzero(stream.detector == 0))  # code 0 is D0


def _observe_bytes(key):
    def observe(counters, args, result):
        counters[key] += os.path.getsize(args["path"])

    return observe


def _observe_decode(counters, args, report):
    n = len(report.decoded_bits)
    counters["analysis.blocks_decoded"] += n
    counters["analysis.low_sample_blocks"] += n - round(report.confidence * n)


OBSERVERS = {
    "events.inject_background": _observe_background,
    "events.match_coincidences": _observe_match,
    "events.write_event_log": _observe_bytes("events.event_log_bytes"),
    "events.write_triples": _observe_bytes("events.triples_bytes"),
    "analysis.decode_omniscient": _observe_decode,
    "analysis.decode_alisha_only": _observe_decode,
}
