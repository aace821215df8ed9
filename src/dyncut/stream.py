"""Event-stream text format, validation, and seeded random generation.

Grammar: one event per line, ``#`` starts a comment, blank lines skipped.

    av v | rv v | ae u v w | re u v | iw u v D | dw u v D

All numbers are non-negative decimal integers; weights and deltas are
positive.  A stream is valid when every event is applicable to the graph
state produced by its prefix; :func:`parse_stream` checks both, always.
:func:`parse_mix` reads the ``--mix`` text that the generator's callers take.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Iterator, Mapping

from .errors import (
    DynCutError,
    InvalidGenParams,
    InvalidMix,
    StreamSyntaxError,
    StreamValidationError,
)
from .graph import (
    ADD_EDGE,
    ADD_VERTEX,
    DECREASE_WEIGHT,
    EVENT_KINDS,
    INCREASE_WEIGHT,
    REMOVE_EDGE,
    REMOVE_VERTEX,
    ChangeEvent,
    DynamicGraph,
    apply_change,
)

CODE_OF_KIND = {
    ADD_VERTEX: "av",
    REMOVE_VERTEX: "rv",
    ADD_EDGE: "ae",
    REMOVE_EDGE: "re",
    INCREASE_WEIGHT: "iw",
    DECREASE_WEIGHT: "dw",
}
KIND_OF_CODE = {code: kind for kind, code in CODE_OF_KIND.items()}

# read only by perfbench/run.py:119, which zips each workload's mix with it
MIX_ORDER = EVENT_KINDS

_ARITY = {"av": 1, "rv": 1, "ae": 3, "re": 2, "iw": 3, "dw": 3}

#: equal shares of the four edge event kinds, no vertex churn
BALANCED_EDGE_MIX: Mapping[str, float] = {
    ADD_EDGE: 0.25,
    REMOVE_EDGE: 0.25,
    INCREASE_WEIGHT: 0.25,
    DECREASE_WEIGHT: 0.25,
}


@dataclass(frozen=True)
class EventStream:
    """Ordered change events."""

    events: tuple[ChangeEvent, ...]

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[ChangeEvent]:
        return iter(self.events)


def format_event(event: ChangeEvent) -> str:
    code = CODE_OF_KIND[event.kind]
    if event.v is None:
        return f"{code} {event.u}"
    if event.delta is None:
        return f"{code} {event.u} {event.v}"
    return f"{code} {event.u} {event.v} {event.delta}"


def format_stream(stream: EventStream) -> str:
    return "".join(format_event(ev) + "\n" for ev in stream.events)


def parse_stream(text: str) -> EventStream:
    """Parse the line format and check that every event applies to its prefix."""
    events: list[ChangeEvent] = []
    lines: list[int] = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if not body:
            continue
        tokens = body.split()
        code = tokens[0]
        if code not in _ARITY:
            raise StreamSyntaxError(ln, f"unknown event code {code!r}")
        args = tokens[1:]
        if len(args) != _ARITY[code]:
            raise StreamSyntaxError(
                ln, f"{code} takes {_ARITY[code]} arguments, got {len(args)}"
            )
        # str.isdigit alone also accepts non-ASCII digits, e.g. U+0663 and U+00B2
        if not all(a.isascii() and a.isdigit() for a in args):
            raise StreamSyntaxError(ln, f"non-integer argument in {body!r}")
        try:
            # int() refuses strings of more than 4300 digits with a ValueError
            nums = [int(a) for a in args]
            if code in ("av", "rv"):
                ev = ChangeEvent(KIND_OF_CODE[code], nums[0])
            elif code == "re":
                ev = ChangeEvent.remove_edge(nums[0], nums[1])
            else:
                ev = ChangeEvent(KIND_OF_CODE[code], nums[0], nums[1], nums[2])
        except (DynCutError, ValueError) as exc:
            raise StreamSyntaxError(ln, str(exc)) from None
        events.append(ev)
        lines.append(ln)
    g = DynamicGraph()
    for ev, ln in zip(events, lines):
        try:
            apply_change(g, ev)
        except DynCutError as exc:
            raise StreamValidationError(ln, str(exc)) from None
    return EventStream(tuple(events))


@dataclass(frozen=True)
class GenParams:
    """Knobs for the random stream generator."""

    n_vertices: int
    n_events: int
    weight_max: int = 8
    mix: Mapping[str, float] = field(default_factory=lambda: dict(BALANCED_EDGE_MIX))


def parse_mix(text: str) -> dict[str, float]:
    """Read comma-separated fractions, one per kind in ``EVENT_KINDS``, as a checked mix."""
    fractions = text.split(",")
    if len(fractions) != len(EVENT_KINDS):
        raise InvalidMix(f"--mix needs {len(EVENT_KINDS)} fractions, got {len(fractions)}")
    try:
        mix = {kind: float(f) for kind, f in zip(EVENT_KINDS, fractions)}
    except ValueError:
        raise InvalidMix(f"non-numeric fraction in {text!r}") from None
    return _normalized_mix(mix)


def _normalized_mix(mix: Mapping[str, float]) -> dict[str, float]:
    out = {}
    for kind, frac in mix.items():
        if kind not in EVENT_KINDS:
            raise InvalidMix(f"unknown event kind {kind!r}")
        if not math.isfinite(frac) or frac < 0:
            raise InvalidMix(f"fraction for {kind} must be finite and non-negative, got {frac}")
        out[kind] = float(frac)
    total = sum(out.values())
    if abs(total - 1.0) > 1e-9:
        raise InvalidMix(f"fractions sum to {total}, expected 1")
    return out


def _applicable(kind: str, g: DynamicGraph) -> bool:
    if kind == ADD_VERTEX:
        return True
    if kind == REMOVE_VERTEX:
        return any(g.degree(v) == 0 for v in g.vertices)
    n = g.vertex_count
    if kind == ADD_EDGE:
        return n >= 2 and g.edge_count < n * (n - 1) // 2
    if kind in (REMOVE_EDGE, INCREASE_WEIGHT):
        return g.edge_count > 0
    if kind == DECREASE_WEIGHT:
        return any(w >= 2 for _, _, w in g.edges())
    raise ValueError(f"unknown event kind {kind!r}")


def _fresh_vertex(g: DynamicGraph) -> int:
    return max(g.vertices) + 1 if g.vertex_count else 1


def _draw(kind: str, g: DynamicGraph, rng: random.Random, weight_max: int) -> ChangeEvent:
    if kind == ADD_VERTEX:
        return ChangeEvent.add_vertex(_fresh_vertex(g))
    if kind == REMOVE_VERTEX:
        isolated = sorted(v for v in g.vertices if g.degree(v) == 0)
        return ChangeEvent.remove_vertex(rng.choice(isolated))
    if kind == ADD_EDGE:
        verts = sorted(g.vertices)
        for _ in range(64):
            u, v = rng.choice(verts), rng.choice(verts)
            if u != v and not g.has_edge(u, v):
                return ChangeEvent.add_edge(u, v, rng.randint(1, weight_max))
        missing = [
            (u, v)
            for i, u in enumerate(verts)
            for v in verts[i + 1 :]
            if not g.has_edge(u, v)
        ]
        u, v = rng.choice(missing)
        return ChangeEvent.add_edge(u, v, rng.randint(1, weight_max))
    edges = sorted(g.edges())
    if kind == REMOVE_EDGE:
        u, v, _ = rng.choice(edges)
        return ChangeEvent.remove_edge(u, v)
    if kind == INCREASE_WEIGHT:
        u, v, _ = rng.choice(edges)
        return ChangeEvent.increase_weight(u, v, rng.randint(1, weight_max))
    if kind == DECREASE_WEIGHT:
        u, v, w = rng.choice([e for e in edges if e[2] >= 2])
        return ChangeEvent.decrease_weight(u, v, rng.randint(1, w - 1))
    raise ValueError(f"unknown event kind {kind!r}")


def _quota_schedule(mix: dict[str, float], m: int, rng: random.Random) -> list[str]:
    """Kind multiset matching the mix up to rounding, in seeded order."""
    base = {k: int(m * mix.get(k, 0.0)) for k in EVENT_KINDS}
    remainder = {k: m * mix.get(k, 0.0) - base[k] for k in EVENT_KINDS}
    short = m - sum(base.values())
    for k in sorted(EVENT_KINDS, key=lambda k: (-remainder[k], EVENT_KINDS.index(k)))[:short]:
        base[k] += 1
    schedule = [k for k in EVENT_KINDS for _ in range(base[k])]
    rng.shuffle(schedule)
    return schedule


def generate(params: GenParams, seed: int) -> EventStream:
    """Deterministic random stream: all vertices first, then mixed events.

    Kind counts follow the mix up to integer rounding.  A scheduled kind
    that is inapplicable at its slot swaps places with the next applicable
    scheduled kind; if none remains, an add-edge (or add-vertex) stands in.
    """
    mix = _normalized_mix(params.mix)
    if params.n_vertices < 0 or params.n_events < 0:
        raise InvalidGenParams("sizes must be non-negative")
    if params.weight_max < 1:
        raise InvalidGenParams("weight_max must be at least 1")
    rng = random.Random(seed)
    g = DynamicGraph()
    events: list[ChangeEvent] = []
    for i in range(1, params.n_vertices + 1):
        ev = ChangeEvent.add_vertex(i)
        apply_change(g, ev)
        events.append(ev)
    schedule = _quota_schedule(mix, params.n_events, rng)
    for i in range(len(schedule)):
        if not _applicable(schedule[i], g):
            for j in range(i + 1, len(schedule)):
                if _applicable(schedule[j], g):
                    schedule[i], schedule[j] = schedule[j], schedule[i]
                    break
            else:
                schedule[i] = ADD_EDGE if _applicable(ADD_EDGE, g) else ADD_VERTEX
        ev = _draw(schedule[i], g, rng, params.weight_max)
        apply_change(g, ev)
        events.append(ev)
    return EventStream(tuple(events))

