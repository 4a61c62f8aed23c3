"""Outside-in tracing of the retrobio modules.

`Tracer.install` wraps the public functions of each traced module, in every
retrobio namespace that bound them (``from .pattern import
enumerate_precursors`` binds a separate name in ``pipeline`` and
``dataset``). Each call then records one span::

    (span id, name, start, end, parent id, thread id, operation id, counts)

Times come from ``time.monotonic`` (CLOCK_MONOTONIC on Linux), so spans from a
child process line up with the parent's own clock. Counts are taken from the
wrapped call's arguments and return value only, never from program
internals. Spans stay in memory until `dump`.

The ``cli`` layer is traced only at its entry: the shim opens one
``cli.<command>`` span around ``retrobio.cli.main``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor

PACKAGE = "retrobio"
MODULES = ("molgraph", "pattern", "fingerprint", "neural", "dataset", "ranking", "pipeline")

# Per-atom helpers called tens of thousands of times per operation; a wrapper
# would cost more than the work it measures. Their time stays in the caller.
SKIP = {
    "molgraph": {"effective_valences", "lowest_feasible_valence", "implied_hydrogens"},
    "fingerprint": {"mix64", "hash_words"},
}

# Methods traced under their module's name, e.g. ``fingerprint.of_key``.
METHODS = {
    "fingerprint": (
        ("Fingerprinter", "of_key"),
        ("Fingerprint", "to_array"),
        ("ReactionFeature", "to_array"),
    ),
}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _graph_key(graph) -> str:
    return repr((graph.atoms, graph.bonds))


def _forward_rows(args, kwargs, result) -> dict:
    inputs = _arg(args, kwargs, 1, "inputs")
    return {"rows": 1 if getattr(inputs, "ndim", 1) == 1 else len(inputs)}


# name -> f(args, kwargs, result) -> dict of counts for the span.
COUNTS = {
    "molgraph.parse_smiles": lambda a, k, r: {"key": _arg(a, k, 0, "text")},
    "pattern.find_matches": lambda a, k, r: {"matches": len(r)},
    "pattern.apply_template": lambda a, k, r: {"outcomes": len(r)},
    "pattern.enumerate_precursors": lambda a, k, r: {
        "candidates": len(r),
        "key": _graph_key(_arg(a, k, 0, "target")),
    },
    "neural.forward": _forward_rows,
    "pipeline.expand_level": lambda a, k, r: {
        "generated": r[1]["generated"],
        "pruned": r[1]["pruned"],
        "cycle_dropped": r[1]["cycle_dropped"],
    },
    "pipeline.rank_level": lambda a, k, r: {"kept": len(r)},
}


class Tracer:
    def __init__(self, op: int = 0):
        self.op = op
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _call(self, name, fn, count, args, kwargs):
        stack = self._stack()
        parent = stack[-1] if stack else None
        span_id = next(self._ids)
        stack.append(span_id)
        returned = False
        start = time.monotonic()
        try:
            result = fn(*args, **kwargs)
            returned = True
        finally:
            end = time.monotonic()
            stack.pop()
            counts = count(args, kwargs, result) if returned and count else None
            self.spans.append(
                (span_id, name, start, end, parent, threading.get_ident(), self.op, counts)
            )
        return result

    def wrap(self, name: str, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._call(name, fn, count, args, kwargs)

        return traced

    def span(self, name: str, fn, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside one span called ``name``."""
        return self._call(name, fn, None, args, kwargs)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _executor(self, base):
        tracer = self

        class TracedExecutor(base):
            """Pool threads inherit the submitting call as their parent span."""

            def submit(self, fn, /, *args, **kwargs):
                stack = tracer._stack()
                parent = stack[-1] if stack else None

                def run(*a, **k):
                    own = tracer._stack()
                    own.append(parent)
                    try:
                        return fn(*a, **k)
                    finally:
                        own.pop()

                return super().submit(run, *args, **kwargs)

        return TracedExecutor

    def install(self) -> None:
        package = importlib.import_module(PACKAGE)
        modules = {
            name: importlib.import_module(f"{PACKAGE}.{name}") for name in MODULES
        }
        cli = importlib.import_module(f"{PACKAGE}.cli")
        namespaces = [package, cli, *modules.values()]
        for layer, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if (
                    attr.startswith("_")
                    or attr in SKIP.get(layer, ())
                    or not inspect.isfunction(obj)
                    or obj.__module__ != module.__name__
                ):
                    continue
                name = f"{layer}.{attr}"
                wrapped = self.wrap(name, obj, COUNTS.get(name))
                for ns in namespaces:
                    for bound, value in list(vars(ns).items()):
                        if value is obj:
                            self._patch(ns, bound, wrapped)
            for class_name, method in METHODS.get(layer, ()):
                cls = getattr(module, class_name)
                self._patch(cls, method, self.wrap(f"{layer}.{method}", vars(cls)[method]))
        for ns in namespaces:
            if vars(ns).get("ThreadPoolExecutor") is ThreadPoolExecutor:
                self._patch(ns, "ThreadPoolExecutor", self._executor(ThreadPoolExecutor))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def dump(self, path, **header) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"op": self.op, **header, "spans": self.spans}, fh)
