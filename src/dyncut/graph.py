"""Undirected weighted graphs, atomic change events, contraction and cut costs.

Weights are exact positive integers of any size, so every cut-cost
comparison in the package is tolerance-free.  Vertex ids are caller-supplied
non-negative integers and are never renumbered, which keeps event streams
replayable.  :func:`check_weight` and :func:`check_vertex_id` enforce both
at every public entry point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from .errors import (
    EdgeExists,
    EdgeMissing,
    InvalidDelta,
    OverlappingGroups,
    VertexExists,
    VertexMissing,
    VertexNotIsolated,
)

VertexId = int
Pair = tuple[int, int]

ADD_VERTEX = "add-vertex"
REMOVE_VERTEX = "remove-vertex"
ADD_EDGE = "add-edge"
REMOVE_EDGE = "remove-edge"
INCREASE_WEIGHT = "increase-weight"
DECREASE_WEIGHT = "decrease-weight"

EVENT_KINDS = (
    ADD_VERTEX,
    REMOVE_VERTEX,
    ADD_EDGE,
    REMOVE_EDGE,
    INCREASE_WEIGHT,
    DECREASE_WEIGHT,
)

_VERTEX_KINDS = frozenset({ADD_VERTEX, REMOVE_VERTEX})
_DELTA_KINDS = frozenset({ADD_EDGE, INCREASE_WEIGHT, DECREASE_WEIGHT})


def check_vertex_id(v) -> None:
    """Reject anything but a non-negative ``int`` as a vertex id.

    The type must be ``int`` itself: ``True`` is not a vertex id.
    """
    if type(v) is not int or v < 0:
        raise ValueError(f"vertex ids must be non-negative integers, got {v!r}")


def check_weight(w) -> None:
    """Reject anything but a positive ``int`` as an edge weight or weight change.

    The type must be ``int`` itself: ``True`` is not a weight.
    """
    if type(w) is not int or w <= 0:
        raise InvalidDelta(f"weights must be positive integers, got {w!r}")


def pair_key(u: int, v: int) -> Pair:
    """Canonical unordered representation of an edge."""
    return (u, v) if u <= v else (v, u)


@dataclass(frozen=True)
class ChangeEvent:
    """One atomic change: a vertex insert/delete or an edge weight change.

    ``delta`` is the inserted weight for add-edge, the weight change for
    increase/decrease, and absent for vertex events and remove-edge (there
    the change is the full current cost).
    """

    kind: str
    u: int
    v: int | None = None
    delta: int | None = None

    def __post_init__(self):
        if self.kind not in EVENT_KINDS:
            raise ValueError(f"unknown event kind {self.kind!r}")
        check_vertex_id(self.u)
        if self.v is not None:
            check_vertex_id(self.v)
        if self.kind in _VERTEX_KINDS:
            if self.v is not None or self.delta is not None:
                raise ValueError(f"{self.kind} takes a single vertex")
        else:
            if self.v is None:
                raise ValueError(f"{self.kind} needs two endpoints")
            if self.u == self.v:
                raise ValueError("self-loops are not allowed")
        if self.kind in _DELTA_KINDS:
            if self.delta is None:
                raise InvalidDelta(f"{self.kind} needs a positive delta")
            check_weight(self.delta)
        elif self.kind == REMOVE_EDGE and self.delta is not None:
            raise ValueError("remove-edge carries no delta")

    @classmethod
    def add_vertex(cls, u: int) -> "ChangeEvent":
        return cls(ADD_VERTEX, u)

    @classmethod
    def remove_vertex(cls, u: int) -> "ChangeEvent":
        return cls(REMOVE_VERTEX, u)

    @classmethod
    def add_edge(cls, u: int, v: int, weight: int) -> "ChangeEvent":
        return cls(ADD_EDGE, u, v, weight)

    @classmethod
    def remove_edge(cls, u: int, v: int) -> "ChangeEvent":
        return cls(REMOVE_EDGE, u, v)

    @classmethod
    def increase_weight(cls, u: int, v: int, delta: int) -> "ChangeEvent":
        return cls(INCREASE_WEIGHT, u, v, delta)

    @classmethod
    def decrease_weight(cls, u: int, v: int, delta: int) -> "ChangeEvent":
        return cls(DECREASE_WEIGHT, u, v, delta)


@dataclass(frozen=True)
class Cut:
    """A bipartition of the vertex set, stored as one side plus its cost."""

    side: frozenset[int]
    cost: int


class Rows:
    """Symmetric weighted rows: ``_adj[u][v] == _adj[v][u]``, the weight of {u, v}.

    The reads and the vertex admission that graphs and cut trees share.
    """

    __slots__ = ("_adj",)

    @property
    def vertices(self):
        return self._adj.keys()

    @property
    def vertex_count(self) -> int:
        return len(self._adj)

    @property
    def edge_count(self) -> int:
        return sum(len(nbrs) for nbrs in self._adj.values()) // 2

    def has_edge(self, u: int, v: int) -> bool:
        return u in self._adj and v in self._adj[u]

    def neighbors(self, v: int) -> Mapping[int, int]:
        try:
            return self._adj[v]
        except KeyError:
            raise VertexMissing(f"no vertex {v}") from None

    def edges(self) -> Iterator[tuple[int, int, int]]:
        for u, nbrs in self._adj.items():
            for v, w in nbrs.items():
                if u < v:
                    yield u, v, w

    def add_vertex(self, v: int) -> None:
        check_vertex_id(v)
        if v in self._adj:
            raise VertexExists(f"vertex {v} already present")
        self._adj[v] = {}


class DynamicGraph(Rows):
    """Mutable undirected graph with positive integer edge weights.

    No self-loops and at most one edge per vertex pair; parallel edges given
    at construction are merged by summing their weights.
    """

    __slots__ = ()

    def __init__(
        self,
        vertices: Iterable[int] = (),
        edges: Iterable[tuple[int, int, int]] = (),
    ):
        self._adj: dict[int, dict[int, int]] = {}
        for v in vertices:
            check_vertex_id(v)
            self._adj.setdefault(v, {})
        for u, v, w in edges:
            check_vertex_id(u)
            check_vertex_id(v)
            if u == v:
                raise ValueError("self-loops are not allowed")
            check_weight(w)
            self._adj.setdefault(u, {})
            self._adj.setdefault(v, {})
            self._adj[u][v] = self._adj[u].get(v, 0) + w
            self._adj[v][u] = self._adj[u][v]

    # -- queries -----------------------------------------------------------

    def weight(self, u: int, v: int) -> int:
        try:
            return self._adj[u][v]
        except KeyError:
            raise EdgeMissing(f"no edge {{{u},{v}}}") from None

    def degree(self, v: int) -> int:
        return len(self.neighbors(v))

    def copy(self) -> "DynamicGraph":
        g = type(self)()
        g._adj = {v: dict(nbrs) for v, nbrs in self._adj.items()}
        return g

    def __eq__(self, other) -> bool:
        if not isinstance(other, DynamicGraph):
            return NotImplemented
        return self._adj == other._adj

    def __repr__(self) -> str:
        return f"DynamicGraph({self.vertex_count} vertices, {self.edge_count} edges)"

    # -- mutation ----------------------------------------------------------

    def remove_vertex(self, v: int) -> None:
        if v not in self._adj:
            raise VertexMissing(f"no vertex {v}")
        if self._adj[v]:
            raise VertexNotIsolated(f"vertex {v} still has incident edges")
        del self._adj[v]

    def add_edge(self, u: int, v: int, weight: int) -> None:
        if u == v:
            raise ValueError("self-loops are not allowed")
        if u not in self._adj or v not in self._adj:
            raise VertexMissing(f"endpoint of {{{u},{v}}} missing")
        if v in self._adj[u]:
            raise EdgeExists(f"edge {{{u},{v}}} already present")
        check_weight(weight)
        self._adj[u][v] = weight
        self._adj[v][u] = weight

    def remove_edge(self, u: int, v: int) -> None:
        self.weight(u, v)
        del self._adj[u][v]
        del self._adj[v][u]

    def increase_weight(self, u: int, v: int, delta: int) -> None:
        check_weight(delta)
        w = self.weight(u, v)
        self._adj[u][v] = w + delta
        self._adj[v][u] = w + delta

    def decrease_weight(self, u: int, v: int, delta: int) -> None:
        w = self.weight(u, v)
        check_weight(delta)
        if delta >= w:
            raise InvalidDelta(
                f"delta must be in [1, {w - 1}]; removing the edge expresses delta == cost"
            )
        self._adj[u][v] = w - delta
        self._adj[v][u] = w - delta


class Quotient(DynamicGraph):
    """A graph built for one cut: :func:`~dyncut.mincut.min_cut` spends its rows as its residual."""

    __slots__ = ()


def apply_change(graph: DynamicGraph, event: ChangeEvent) -> DynamicGraph:
    """Apply one change event in place and return the graph.

    Invalid events are rejected without mutating the graph.
    """
    k = event.kind
    if k == ADD_VERTEX:
        graph.add_vertex(event.u)
    elif k == REMOVE_VERTEX:
        graph.remove_vertex(event.u)
    elif k == ADD_EDGE:
        graph.add_edge(event.u, event.v, event.delta)
    elif k == REMOVE_EDGE:
        graph.remove_edge(event.u, event.v)
    elif k == INCREASE_WEIGHT:
        graph.increase_weight(event.u, event.v, event.delta)
    elif k == DECREASE_WEIGHT:
        graph.decrease_weight(event.u, event.v, event.delta)
    else:  # pragma: no cover - ChangeEvent rejects unknown kinds
        raise ValueError(f"unknown event kind {k!r}")
    return graph


def contract(
    graph: DynamicGraph, groups: Iterable[Iterable[int]]
) -> tuple[DynamicGraph, dict[int, int]]:
    """Contract each group to a single node named after its first member.

    Vertices outside every group become singleton nodes under their own id.
    Edge weights between nodes follow the sum rule; edges interior to a group
    vanish.  Returns the contracted graph and the total vertex-to-node map.
    """
    adj = graph._adj
    node_of: dict[int, int] = {}
    moved: list[int] = []
    for group in groups:
        members = dict.fromkeys(group)  # in order; a repeated member counts once
        if not members:
            raise ValueError("groups must be non-empty")
        rep, *rest = members
        for v in members:
            if v not in adj:
                raise VertexMissing(f"vertex {v} not in graph")
            if v in node_of:
                raise OverlappingGroups(f"vertex {v} appears in two groups")
            node_of[v] = rep
        moved += rest

    # Only a vertex that names its own node gets a row, copied from its own;
    # a vertex in no group is named here, as its row is copied.  Then every
    # arc of a moved vertex is re-keyed at both ends: its node's row gains
    # the weight, and a copied row at the far end trades the moved vertex's
    # entry for its node's.  Edges inside a node are dropped.
    qadj = {u: nbrs.copy() for u, nbrs in adj.items() if node_of.setdefault(u, u) == u}
    for u in moved:
        nu = node_of[u]
        row = qadj[nu]
        for v, w in adj[u].items():
            nv = node_of[v]
            if nv == v:
                far = qadj[v]
                del far[u]
                if v != nu:
                    far[nu] = far.get(nu, 0) + w
            if nv != nu:
                row[nv] = row.get(nv, 0) + w
    result = DynamicGraph()
    result._adj = qadj
    return result, node_of


def cut_cost(graph: DynamicGraph, side: Iterable[int]) -> int:
    """Exact total weight of the edges with exactly one endpoint in ``side``."""
    side = set(side)
    for v in side:
        if v not in graph.vertices:
            raise VertexMissing(f"vertex {v} not in graph")
    total = 0
    for u, v, w in graph.edges():
        if (u in side) != (v in side):
            total += w
    return total
