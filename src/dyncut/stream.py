"""Event-stream text format, validation, and seeded random generation.

Grammar: one event per line, ``#`` starts a comment, blank lines skipped.

    av v | rv v | ae u v w | re u v | iw u v D | dw u v D

All numbers are non-negative decimal integers; weights and deltas are
positive.  A stream is valid when every event is applicable to the graph
state produced by its prefix; :func:`parse_stream` checks both, always.
:func:`parse_mix` reads the ``--mix`` text that the generator's callers take.
A load costs one split, one digit test and one ``ChangeEvent`` per line, then
one :func:`apply_change` per event.  :func:`generate` draws each event from
sorted lists that it updates with ``bisect``: a few binary searches and list
inserts per event, not a sort of the whole graph.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left, insort
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
    pair_key,
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
    # splitlines would also end a line, and a comment, at a form feed or U+2028
    for ln, raw in enumerate(text.split("\n"), start=1):
        if "#" in raw:
            raw = raw.split("#", 1)[0]
        tokens = raw.split()
        if not tokens:
            continue
        code = tokens[0]
        arity = _ARITY.get(code)
        if arity is None:
            raise StreamSyntaxError(ln, f"unknown event code {code!r}")
        if len(tokens) != arity + 1:
            raise StreamSyntaxError(ln, f"{code} takes {arity} arguments, got {len(tokens) - 1}")
        # str.isdigit alone also accepts non-ASCII digits, e.g. U+0663 and U+00B2
        digits = "".join(tokens[1:])
        if not (digits.isascii() and digits.isdigit()):
            raise StreamSyntaxError(ln, f"non-integer argument in {raw.strip()!r}")
        kind = KIND_OF_CODE[code]
        try:
            # int() refuses strings of more than 4300 digits with a ValueError
            if arity == 3:
                ev = ChangeEvent(kind, int(tokens[1]), int(tokens[2]), int(tokens[3]))
            elif arity == 1:
                ev = ChangeEvent(kind, int(tokens[1]))
            else:
                ev = ChangeEvent(kind, int(tokens[1]), int(tokens[2]))
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


class _Sampler:
    """A graph and the sequences that :func:`generate` draws from, kept sorted by ``bisect``."""

    def __init__(self):
        self.g = DynamicGraph()
        self.verts: list[int] = []
        self.isolated: list[int] = []
        self.edges: list[tuple[int, int, int]] = []  # sorted(g.edges())
        self.heavy: list[tuple[int, int, int]] = []  # its edges of weight at least 2

    def applicable(self, kind: str) -> bool:
        if kind == ADD_VERTEX:
            return True
        if kind == REMOVE_VERTEX:
            return bool(self.isolated)
        if kind == ADD_EDGE:
            n = len(self.verts)
            return len(self.edges) < n * (n - 1) // 2
        return bool(self.heavy if kind == DECREASE_WEIGHT else self.edges)

    def draw(self, kind: str, rng: random.Random, weight_max: int) -> ChangeEvent:
        verts, g = self.verts, self.g
        if kind == ADD_VERTEX:
            return ChangeEvent.add_vertex(verts[-1] + 1 if verts else 1)
        if kind == REMOVE_VERTEX:
            return ChangeEvent.remove_vertex(rng.choice(self.isolated))
        if kind == ADD_EDGE:
            for _ in range(64):
                u, v = rng.choice(verts), rng.choice(verts)
                if u != v and not g.has_edge(u, v):
                    return ChangeEvent.add_edge(u, v, rng.randint(1, weight_max))
            pairs = ((u, v) for i, u in enumerate(verts) for v in verts[i + 1 :])
            u, v = rng.choice([(u, v) for u, v in pairs if not g.has_edge(u, v)])
            return ChangeEvent.add_edge(u, v, rng.randint(1, weight_max))
        if kind == DECREASE_WEIGHT:
            u, v, w = rng.choice(self.heavy)
            return ChangeEvent.decrease_weight(u, v, rng.randint(1, w - 1))
        u, v, _ = rng.choice(self.edges)
        if kind == REMOVE_EDGE:
            return ChangeEvent.remove_edge(u, v)
        return ChangeEvent.increase_weight(u, v, rng.randint(1, weight_max))

    def apply(self, ev: ChangeEvent) -> None:
        if ev.v is None:  # a drawn vertex is one above the largest; a removed one is isolated
            apply_change(self.g, ev)
            for seq in (self.verts, self.isolated):
                if ev.kind == ADD_VERTEX:
                    seq.append(ev.u)
                else:
                    del seq[bisect_left(seq, ev.u)]
            return
        g, (u, v) = self.g, pair_key(ev.u, ev.v)
        w0 = g.neighbors(u).get(v)
        apply_change(g, ev)
        w1 = g.neighbors(u).get(v)
        _resort(self.edges, w0 and (u, v, w0), w1 and (u, v, w1))
        _resort(self.heavy, w0 and w0 > 1 and (u, v, w0), w1 and w1 > 1 and (u, v, w1))
        for x in (u, v):  # only an edge that comes or goes changes who is isolated
            if w0 is None and g.degree(x) == 1:
                del self.isolated[bisect_left(self.isolated, x)]
            elif w1 is None and g.degree(x) == 0:
                insort(self.isolated, x)


def _resort(seq: list, was, now) -> None:
    """Swap entry ``was`` of sorted ``seq`` for ``now`` at its place; a falsy one is no entry."""
    if was and now:
        seq[bisect_left(seq, was)] = now
    elif was:
        del seq[bisect_left(seq, was)]
    elif now:
        insort(seq, now)


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
    sampler = _Sampler()
    events = [ChangeEvent.add_vertex(i) for i in range(1, params.n_vertices + 1)]
    for ev in events:
        sampler.apply(ev)
    schedule = _quota_schedule(mix, params.n_events, rng)
    for i in range(len(schedule)):
        if not sampler.applicable(schedule[i]):
            for j in range(i + 1, len(schedule)):
                if sampler.applicable(schedule[j]):
                    schedule[i], schedule[j] = schedule[j], schedule[i]
                    break
            else:
                schedule[i] = ADD_EDGE if sampler.applicable(ADD_EDGE) else ADD_VERTEX
        ev = sampler.draw(schedule[i], rng, params.weight_max)
        sampler.apply(ev)
        events.append(ev)
    return EventStream(tuple(events))

