"""Exact minimum s-t cut via max-flow, with a global invocation counter.

Every call to :func:`min_cut` is one "cut computation" - the unit of cost the
rest of the package accounts for.  The returned side is canonical: the
vertices reachable from ``s`` in the residual network of a maximum flow.
That is the smallest minimum s-t cut side, the same for every maximum flow
and every vertex or edge order, so results are deterministic.

The kernel pushes integer flow in residual rows: a
:class:`~dyncut.graph.Quotient`'s own, which the cut spends, or a copy of
any other graph's.  It pushes from whichever end has the smaller weighted
degree (s on a tie), since that end's arcs most often bound the flow:
greedily along the s-t edge, then in one pass over the source's
neighbours, for each neighbour x the path s-x-t and then every path
s-x-y-t.  If those paths saturate the source, the source alone is a cut
of the flow's value, so the flow is maximum.  Otherwise it follows
shortest paths steered by distance labels, until a gap in the labels
cuts the source off from the sink (Ahuja & Orlin 1991).
The labels come from one search back from the sink that stops as soon as
it labels the source.  Each vertex then reads its row through a current
arc (Goldberg & Tarjan 1988): a dict iterator that resumes where it
stopped and is made anew only when the vertex is relabelled.  Resuming is
sound for two reasons.  No row changes size inside :func:`min_cut`, since
the rows hold both arcs of every edge from the start.  And an arc passed
over at label d cannot turn admissible before its tail is relabelled:
labels only rise, and flow pushed back along it comes from a head one
label above the tail.
The side is read by one search from s: over residual arcs when the flow
left s, over reversed residual arcs (the vertices that can still send flow
to s) when it came from t.  Either way it is the same smallest side.  t
never joins it, so the search stops once it holds every vertex but t.
"""

from __future__ import annotations

import threading

from .errors import SameVertex, VertexMissing
from .graph import Cut, DynamicGraph, Quotient


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


# read only by perfbench/run.py:377, which checks its traced min_cut calls against it
counter = CutCounter()


def min_cut(graph: DynamicGraph, s: int, t: int) -> Cut:
    """Minimum s-t cut of an undirected weighted graph.

    The cost equals the s-t max-flow value; the stored side contains ``s``.
    The flow is pushed from the end of smaller weighted degree, so a light
    t is saturated from its own few arcs; the side is the same either way.
    Disconnected endpoints yield a zero-cost cut whose side is the connected
    component of ``s``; that still counts as one cut computation.  The flow
    spends a :class:`~dyncut.graph.Quotient`'s rows; any other graph is kept.
    """
    if s == t:
        raise SameVertex(f"s and t must differ, got {s}")
    if s not in graph.vertices or t not in graph.vertices:
        raise VertexMissing(f"missing endpoint in ({s}, {t})")
    counter.increment()
    # res[x][y] is the residual capacity of arc x->y; an edge is two arcs of its weight
    res = graph._adj
    if not isinstance(graph, Quotient):
        res = {x: nbrs.copy() for x, nbrs in res.items()}
    # t never joins the side, so the search stops once only t is left out
    side, todo, rest = {s}, [s], len(res) - 1
    ds, dt = sum(res[s].values()), sum(res[t].values())
    source, sink, out = (t, s, dt) if dt < ds else (s, t, ds)
    flow = _prepush(res, source, sink)
    if flow < out:
        flow += _augment(res, source, sink)
    if source == t:
        # s's side is what still reaches s over residual arcs
        while todo and len(side) < rest:
            x = todo.pop()
            for y in res[x]:
                if y not in side and res[y][x]:
                    side.add(y)
                    todo.append(y)
    else:
        while todo and len(side) < rest:
            for y, c in res[todo.pop()].items():
                if c and y not in side:
                    side.add(y)
                    todo.append(y)
    return Cut(frozenset(side), flow)


def _prepush(res, s, t) -> int:
    """Push greedily along the s-t edge, then from each neighbour x: s-x-t, then every s-x-y-t.

    ``s`` is the source the flow leaves and ``t`` the sink, whichever ends of
    the cut they are.  Each path takes the smallest of its residuals.  The
    pass reads each arc of the source's neighbours once, so it stays O(m).
    """
    rs, rt = res[s], res[t]
    flow = rs.get(t, 0)
    if flow:
        rs[t] = 0
        rt[s] += flow
    for x, c in rs.items():
        if not c:
            continue
        rx, left = res[x], c
        d = rx.get(t)
        if d:
            f = min(c, d)
            rx[t] = d - f
            rt[x] += f
            left -= f
        if left:
            for y, b in rx.items():
                d = res[y].get(t) if b and y != s else None
                if d:
                    f = min(left, b, d)
                    ry = res[y]
                    rx[y] = b - f
                    ry[x] += f
                    ry[t] = d - f
                    rt[y] += f
                    left -= f
                    if not left:
                        break
        if left != c:
            rs[x] = left
            rx[s] += c - left
            flow += c - left
    return flow


def _sink_labels(res, s, t) -> tuple[dict[int, int], int]:
    """Distances to t by a search back from t that stops once it labels s.

    Returns the labels and the label of every vertex left out: s's depth,
    or n when s cannot reach t.  The search has read the rows of every
    layer two or more below s's, so an unlabelled vertex has no residual arc
    into those layers, and giving it s's depth keeps the labelling valid.
    """
    dist, layer, depth = {t: 0}, [t], 0
    while layer:
        depth += 1
        nxt = []
        for y in layer:
            for x in res[y]:
                if x not in dist and res[x][y]:
                    dist[x] = depth
                    if x == s:
                        return dist, depth
                    nxt.append(x)
        layer = nxt
    return dist, len(res)


def _augment(res, s, t) -> int:
    """Push flow along shortest residual s-t paths until none is left.

    ``dist`` stays valid (``dist[x] <= dist[y] + 1`` on every residual arc
    x->y); flow follows admissible arcs, one label down.  Each vertex keeps a
    current arc, and a dict iterator over the rest of its row that resumes
    where it stopped, so a visit reads the row only up to its next
    admissible arc.  No row changes size here, so the iterators stay valid.
    An arc passed over cannot turn admissible before its tail is relabelled:
    labels only rise, and flow pushed back along it comes from a head one
    label above the tail.  A dead end is lifted above its lowest residual
    neighbours; the first of them becomes its current arc, and its iterator
    starts afresh.  A label left empty is a gap that no s-t path can cross.
    """
    dist, far = _sink_labels(res, s, t)
    n = len(res)
    count = [0] * (2 * n + 2)  # s is lifted to 2n + 1 once its arcs saturate
    for x in res:
        count[dist.setdefault(x, far)] += 1
    cur: dict[int, int] = {}  # current arc of each vertex visited
    rest: dict = {}  # iterator over the rest of its row
    total, path = 0, [s]
    while dist[s] < n:
        x = path[-1]
        if x == t:
            f, cut = res[s][path[1]], 1
            for i in range(2, len(path)):
                c = res[path[i - 1]][path[i]]
                if c < f:
                    f, cut = c, i
            for a, b in zip(path, path[1:]):
                res[a][b] -= f
                res[b][a] += f
            total += f
            del path[cut:]  # back to the first arc at the bottleneck
            continue
        rx, down = res[x], dist[x] - 1
        y = cur.get(x)
        if y is None:  # first visit
            it = rest[x] = iter(rx)
        elif rx[y] and dist[y] == down:
            path.append(y)
            continue
        else:
            it = rest[x]
        for y in it:
            if rx[y] and dist[y] == down:
                cur[x] = y
                path.append(y)
                break
        else:
            low = 2 * n
            for z, c in rx.items():
                if c:
                    d = dist[z]
                    if d < low:
                        low, y = d, z
            count[down + 1] -= 1
            if not count[down + 1]:
                break
            dist[x] = low + 1
            count[low + 1] += 1
            cur[x], rest[x] = y, iter(rx)
            if x != s:
                path.pop()
    return total
