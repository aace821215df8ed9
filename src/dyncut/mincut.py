"""Exact minimum s-t cut via max-flow, with a global invocation counter.

Every call to :func:`min_cut` is one "cut computation" - the unit of cost the
rest of the package accounts for.  The returned side is canonical: the set of
vertices reachable from ``s`` in the residual network of a maximum flow,
which is the same set for every maximum flow.  It is the smallest minimum
s-t cut side, and it depends neither on vertex or edge order nor on how the
flow is routed, so results are deterministic for a fixed graph.

The kernel is integer Dinic on a residual copy of the graph's adjacency
dicts, with no sorting or renumbering.  Flow is first pushed greedily along
the s-t edge and every two-edge path s-x-t; each phase then builds its
admissible-arc lists during the breadth-first layering, and the layering
that fails to reach t yields the side.
"""

from __future__ import annotations

import threading

from .errors import SameVertex, VertexMissing
from .graph import Cut, DynamicGraph


class CutCounter:
    """Thread-safe tally of min-cut invocations."""

    def __init__(self):
        self._lock = threading.Lock()
        self._count = 0

    def increment(self) -> None:
        with self._lock:
            self._count += 1

    @property
    def value(self) -> int:
        return self._count

    def reset(self) -> None:
        with self._lock:
            self._count = 0


counter = CutCounter()


def min_cut(graph: DynamicGraph, s: int, t: int) -> Cut:
    """Minimum s-t cut of an undirected weighted graph.

    The cost equals the s-t max-flow value; the stored side contains ``s``.
    Disconnected endpoints yield a zero-cost cut whose side is the connected
    component of ``s``; that still counts as one cut computation.
    """
    if s == t:
        raise SameVertex(f"s and t must differ, got {s}")
    if s not in graph.vertices or t not in graph.vertices:
        raise VertexMissing(f"missing endpoint in ({s}, {t})")
    counter.increment()

    # res[x][y] is the residual capacity of arc x->y; an undirected edge of
    # weight w is two arcs of capacity w, and pushing f along one adds f to
    # the other.
    res = {x: nbrs.copy() for x, nbrs in graph._adj.items()}
    flow = _prepush(res, s, t)
    while True:
        level, adm = _levels(res, s, t)
        if t not in level:
            return Cut(frozenset(level), flow)
        flow += _blocking_flow(res, adm, s, t)


def _prepush(res, s, t) -> int:
    """Saturate the s-t edge, then push greedily along every path s-x-t."""
    rs, rt = res[s], res[t]
    flow = rs.get(t, 0)
    if flow:
        rs[t] = 0
        rt[s] += flow
    for x, c in rs.items():
        d = res[x].get(t) if c else None
        if d:
            f = min(c, d)
            rs[x] = c - f
            res[x][s] += f
            res[x][t] = d - f
            rt[x] += f
            flow += f
    return flow


def _levels(res, s, t):
    """Breadth-first layers of the residual graph, up to t's layer.

    Returns the level of each vertex reached and, for each vertex below t's
    layer, the heads of its admissible arcs (residual, one level up).  When
    t is unreachable the levels hold exactly the vertices reachable from s.
    """
    level = {s: 0}
    adm: dict[int, list[int]] = {}
    layer = [s]
    last: list[int] = []
    while layer and t not in level:
        depth = level[layer[0]] + 1
        nxt = []
        for x in layer:
            ax = adm[x] = []
            for y, c in res[x].items():
                if c:
                    ly = level.get(y)
                    if ly is None:
                        level[y] = depth
                        nxt.append(y)
                        ax.append(y)
                    elif ly == depth:
                        ax.append(y)
        last, layer = layer, nxt
    if t in level:
        # t's layer is not scanned, so the layer before it keeps only arcs into t
        for x in last:
            adm[x] = [t] if res[x].get(t) else []
    return level, adm


def _blocking_flow(res, adm, s, t) -> int:
    """Augment along admissible s-t paths until none is left.

    ``adm[x]`` is consumed from its end: an arc is dropped once saturated or
    once its head turns out to be a dead end.
    """
    total = 0
    path = [s]
    while path:
        x = path[-1]
        if x == t:
            arcs = list(zip(path, path[1:]))
            f = min(res[a][b] for a, b in arcs)
            total += f
            first_full = None
            for i, (a, b) in enumerate(arcs):
                res[a][b] -= f
                res[b][a] += f
                if first_full is None and not res[a][b]:
                    first_full = i
            del path[first_full + 1 :]
            continue
        ax, rx = adm[x], res[x]
        while ax and not rx[ax[-1]]:
            ax.pop()
        if ax:
            path.append(ax[-1])
        else:
            path.pop()
            if path:
                adm[path[-1]].pop()
    return total
