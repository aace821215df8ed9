"""Layer spans recorded from outside dyncut, by wrapping the names it calls.

dyncut binds ``min_cut``, ``contract``, ``complete`` and ``query_value`` by
name into the modules that call them, so each hook lists every namespace
that holds the name.  ``import dyncut.replay`` yields the ``replay``
function (the package re-exports it under the module's name), so modules
are looked up in ``sys.modules``.

A hook whose name is missing raises :class:`HookError` at install time; a
hook that a workload must reach and that recorded no call raises after the
run.  Neither case is ever reported as a zero.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from time import perf_counter_ns


class HookError(RuntimeError):
    """A wrapped name is missing, or a required layer recorded no calls."""


def _module(name: str):
    try:
        return sys.modules[name]
    except KeyError:
        raise HookError(f"module {name} is not loaded") from None


def _class(module: str, name: str):
    cls = getattr(_module(module), name, None)
    if cls is None:
        raise HookError(f"{module}.{name} is missing")
    return cls


def _quotient_edges(args, result):
    return args[0].edge_count


def _contract_shrink(args, result):
    return result[0].vertex_count / args[0].vertex_count


def hook_table():
    """(span name, [(owner, attribute)], per-call value or None) per hook.

    Each owner is the module or class whose attribute the running code reads
    at call time, so replacing the attribute intercepts every call.
    """
    tree = _module("dyncut.tree")
    dynamic = _module("dyncut.dynamic")
    replay = _module("dyncut.replay")
    graph_cls = _class("dyncut.graph", "DynamicGraph")
    tree_cls = _class("dyncut.tree", "CutTree")
    work_cls = _class("dyncut.tree", "IntermediateTree")
    return [
        ("graph.apply_change", [(replay, "apply_change")], None),
        ("graph.copy", [(graph_cls, "copy")], None),
        ("graph.contract", [(tree, "contract"), (dynamic, "contract")], _contract_shrink),
        ("mincut.min_cut", [(tree, "min_cut"), (dynamic, "min_cut")], _quotient_edges),
        ("tree.copy", [(tree_cls, "copy")], None),
        ("tree.path_vertices", [(tree_cls, "path_vertices"), (work_cls, "path_vertices")], None),
        ("tree.subtree", [(work_cls, "subtree")], None),
        ("tree.thin_edges", [(work_cls, "thin_edges")], None),
        ("tree.complete", [(tree, "complete"), (dynamic, "complete")], None),
        ("tree.query_value", [(tree, "query_value"), (dynamic, "query_value")], None),
        ("dynamic.update_add_vertex", [(replay, "update_add_vertex")], None),
        ("dynamic.update_remove_vertex", [(replay, "update_remove_vertex")], None),
        ("dynamic.update_increase", [(replay, "update_increase")], None),
        ("dynamic.update_decrease", [(replay, "update_decrease")], None),
    ]


class Span:
    """Totals for one span name: calls, durations, self time, values."""

    __slots__ = ("calls", "total_ns", "self_ns", "durations", "values")

    def __init__(self):
        self.calls = 0
        self.total_ns = 0
        self.self_ns = 0
        self.durations: list[int] = []
        self.values: list[float] = []


class Tracer:
    """Span recorder; wrap the hooks with ``with tracer.installed(table):``.

    A span's self time is its duration minus the time spent inside spans of
    other layers (the layer is the name's first dotted part).  Nested spans of
    the same layer count as self time of the outer one, and the time they
    spend in other layers passes up to it.
    """

    def __init__(self):
        self.spans: dict[str, Span] = {}
        self._stack: list[list] = []  # [layer, foreign_ns] per open span

    def span(self, name: str) -> Span:
        return self.spans.setdefault(name, Span())

    def call(self, name: str, fn, args=(), kwargs=None, value=None):
        """Run ``fn`` inside a span called ``name``."""
        layer = name.split(".", 1)[0]
        frame = [layer, 0]
        self._stack.append(frame)
        t0 = perf_counter_ns()
        try:
            result = fn(*args, **(kwargs or {}))
        finally:
            dur = perf_counter_ns() - t0
            self._stack.pop()
            rec = self.span(name)
            rec.calls += 1
            rec.total_ns += dur
            rec.self_ns += dur - frame[1]
            rec.durations.append(dur)
            if self._stack:
                parent = self._stack[-1]
                parent[1] += dur if parent[0] != layer else frame[1]
        if value is not None:
            rec.values.append(value(args, result))
        return result

    def _wrap(self, name: str, fn, value):
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, value)

        return wrapper

    @contextmanager
    def installed(self, table):
        """Wrap every hook of ``table`` for the duration of the block."""
        with patched(
            (owner, attr, lambda fn, name=name, value=value: self._wrap(name, fn, value))
            for name, owners, value in table
            for owner, attr in owners
        ):
            yield self

    def require_calls(self, names) -> None:
        """Fail loudly when a span the workload must reach recorded nothing."""
        silent = [n for n in names if self.span(n).calls == 0]
        if silent:
            raise HookError(f"no calls recorded for {', '.join(silent)}")


@contextmanager
def patched(targets):
    """Replace ``owner.attr`` by ``make(original)`` for each target, then restore.

    Raises :class:`HookError` before patching anything if an attribute is
    missing from its owner.
    """
    targets = list(targets)
    originals = []
    for owner, attr, _ in targets:
        fn = owner.__dict__.get(attr)
        if not callable(fn):
            raise HookError(f"{owner.__name__}.{attr} is missing")
        originals.append(fn)
    try:
        for (owner, attr, make), fn in zip(targets, originals):
            setattr(owner, attr, make(fn))
        yield
    finally:
        for (owner, attr, _), fn in zip(targets, originals):
            setattr(owner, attr, fn)


@contextmanager
def probe_clock(owner, attr: str, probe):
    """Run ``probe`` before every call of ``owner.attr``; yields ``(starts, stamps, probes)``.

    Before call ``i`` the wrapper runs ``probe`` (which returns its own
    duration) between ``starts[i]`` and ``stamps[i]``, so the code between
    calls ``i`` and ``i + 1`` runs from ``stamps[i]`` to ``starts[i + 1]`` and
    the probe's time falls in no such interval.
    """
    starts: list[int] = []
    stamps: list[int] = []
    probes: list[int] = []

    def make(fn):
        def wrapper(*args):
            starts.append(perf_counter_ns())
            probes.append(probe())
            stamps.append(perf_counter_ns())
            return fn(*args)

        return wrapper

    with patched([(owner, attr, make)]):
        yield starts, stamps, probes


def event_clock(probe):
    """:func:`probe_clock` at every replayed event.

    ``replay()`` calls ``apply_change`` exactly once per event, so event
    ``i`` runs from ``stamps[i]`` to ``starts[i + 1]``.  This and the probes
    between ``min_cut`` calls of a static rebuild are the only hooks an
    untraced run installs.
    """
    return probe_clock(_module("dyncut.replay"), "apply_change", probe)
