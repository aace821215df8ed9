"""Cut trees and the iterative construction that builds them.

A cut tree (Gomory-Hu tree) spans the graph's vertices; each tree edge, when
removed, induces a minimum cut between its endpoints, and the cheapest edge
on the tree path between any two vertices gives their connectivity.

Partially built trees are represented at the vertex level with two edge
kinds: *fat* edges stand for already-certified minimum separating cuts of
the current graph, *thin* edges only group vertices into compound nodes and
carry stale costs.  :func:`complete` unfolds such a tree node by node until
every edge is fat, spending one min-cut computation per thin edge.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import (
    EdgeExists,
    EdgeMissing,
    EmptyGraph,
    InvalidIntermediate,
    SameVertex,
    VertexExists,
    VertexMissing,
)
from .graph import Cut, DynamicGraph, Pair, contract, cut_cost
from .mincut import min_cut


def _path_in_adj(adj: dict, u: int, v: int) -> list[int]:
    """Unique u-v path in a tree given as an adjacency dict."""
    if u not in adj or v not in adj:
        raise VertexMissing(f"missing endpoint in ({u}, {v})")
    if u == v:
        raise SameVertex(f"endpoints must differ, got {u}")
    parent: dict[int, int] = {u: u}
    dq = deque([u])
    while dq:
        x = dq.popleft()
        if x == v:
            break
        for y in adj[x]:
            if y not in parent:
                parent[y] = x
                dq.append(y)
    if v not in parent:
        raise VertexMissing(f"no tree path between {u} and {v}")
    out = [v]
    while out[-1] != u:
        out.append(parent[out[-1]])
    out.reverse()
    return out


def _side_in_adj(adj: dict, root: int, banned: int) -> set[int]:
    """Component of ``root`` when the tree edge {root, banned} is ignored."""
    seen = {root}
    dq = deque([root])
    while dq:
        x = dq.popleft()
        for y in adj[x]:
            if y == banned and x == root:
                continue
            if y not in seen:
                seen.add(y)
                dq.append(y)
    return seen


class CutTree:
    """Weighted tree on the graph's vertices encoding all-pairs minimum cuts."""

    __slots__ = ("_adj",)

    def __init__(self, vertices: Iterable[int] = (), edges: Iterable[tuple[int, int, int]] = ()):
        self._adj: dict[int, dict[int, int]] = {}
        for v in vertices:
            self._adj.setdefault(v, {})
        for u, v, c in edges:
            self._adj.setdefault(u, {})
            self._adj.setdefault(v, {})
            self.add_edge(u, v, c)

    @property
    def vertices(self):
        return self._adj.keys()

    @property
    def vertex_count(self) -> int:
        return len(self._adj)

    def edges(self) -> Iterator[tuple[int, int, int]]:
        for u, nbrs in self._adj.items():
            for v, c in nbrs.items():
                if u < v:
                    yield u, v, c

    @property
    def edge_count(self) -> int:
        return sum(len(n) for n in self._adj.values()) // 2

    def has_edge(self, u: int, v: int) -> bool:
        return u in self._adj and v in self._adj[u]

    def cost(self, u: int, v: int) -> int:
        try:
            return self._adj[u][v]
        except KeyError:
            raise EdgeMissing(f"no tree edge {{{u},{v}}}") from None

    def neighbors(self, v: int) -> dict[int, int]:
        try:
            return self._adj[v]
        except KeyError:
            raise VertexMissing(f"no vertex {v}") from None

    def add_vertex(self, v: int) -> None:
        if v in self._adj:
            raise VertexExists(f"vertex {v} already present")
        self._adj[v] = {}

    def remove_vertex(self, v: int) -> None:
        if v not in self._adj:
            raise VertexMissing(f"no vertex {v}")
        for x in list(self._adj[v]):
            del self._adj[x][v]
        del self._adj[v]

    def add_edge(self, u: int, v: int, c: int) -> None:
        if u == v:
            raise SameVertex("tree edges need distinct endpoints")
        if u not in self._adj or v not in self._adj:
            raise VertexMissing(f"endpoint of {{{u},{v}}} missing")
        if v in self._adj[u]:
            raise EdgeExists(f"tree edge {{{u},{v}}} already present")
        if c < 0:
            raise ValueError("tree edge costs are non-negative")
        self._adj[u][v] = c
        self._adj[v][u] = c

    def remove_edge(self, u: int, v: int) -> None:
        self.cost(u, v)
        del self._adj[u][v]
        del self._adj[v][u]

    def set_cost(self, u: int, v: int, c: int) -> None:
        self.cost(u, v)
        if c < 0:
            raise ValueError("tree edge costs are non-negative")
        self._adj[u][v] = c
        self._adj[v][u] = c

    def path_vertices(self, u: int, v: int) -> list[int]:
        return _path_in_adj(self._adj, u, v)

    def cut_side(self, u: int, v: int) -> frozenset[int]:
        """Vertex set on u's side when tree edge {u, v} is removed."""
        self.cost(u, v)
        return frozenset(_side_in_adj(self._adj, u, v))

    def copy(self) -> "CutTree":
        t = CutTree()
        t._adj = {v: dict(n) for v, n in self._adj.items()}
        return t

    def __eq__(self, other) -> bool:
        if not isinstance(other, CutTree):
            return NotImplemented
        return self._adj == other._adj

    def __repr__(self) -> str:
        return f"CutTree({self.vertex_count} vertices)"

    def to_lines(self) -> list[str]:
        """One ``u v cost`` line per edge, sorted by endpoint pair."""
        return [f"{u} {v} {c}" for u, v, c in sorted(self.edges())]


def path(tree, u: int, v: int) -> list[Pair]:
    """Tree path from u to v as an ordered edge list."""
    verts = tree.path_vertices(u, v)
    return list(zip(verts, verts[1:]))


def query_value(tree: CutTree, u: int, v: int) -> int:
    """Connectivity of {u, v}: the cheapest edge cost on the tree path."""
    verts = tree.path_vertices(u, v)
    return min(tree.cost(a, b) for a, b in zip(verts, verts[1:]))


def query_cut(tree: CutTree, u: int, v: int) -> Cut:
    """Minimum u-v cut read off the tree.

    Removes the cheapest edge on the u-v path (ties: nearest to u) and
    returns the side containing u.
    """
    verts = tree.path_vertices(u, v)
    best = None
    for a, b in zip(verts, verts[1:]):
        c = tree.cost(a, b)
        if best is None or c < best[0]:
            best = (c, a, b)
    c, a, b = best
    return Cut(tree.cut_side(a, b), c)


@dataclass
class _EdgeRec:
    """Shared attribute record of one intermediate-tree edge.

    ``pair`` overrides the endpoints as the edge's certified cut pair; it is
    only needed while an edge is anchored at vertices other than the pair
    whose minimum cut it represents.
    """

    fat: bool
    cost: int
    pair: Pair | None = None


class IntermediateTree:
    """Spanning tree with fat/thin edge kinds used during construction."""

    __slots__ = ("_adj",)

    def __init__(self, vertices: Iterable[int] = ()):
        self._adj: dict[int, dict[int, _EdgeRec]] = {}
        for v in vertices:
            self._adj.setdefault(v, {})

    @classmethod
    def star(cls, vertices: Iterable[int]) -> "IntermediateTree":
        """All-thin star centered on the smallest vertex."""
        t = cls()
        verts = sorted(vertices)
        for v in verts:
            t._adj[v] = {}
        if verts:
            hub = verts[0]
            for v in verts[1:]:
                t._link(hub, v, _EdgeRec(fat=False, cost=0))
        return t

    @classmethod
    def from_cut_tree(cls, tree: CutTree) -> "IntermediateTree":
        """All-fat copy of a finished cut tree."""
        t = cls()
        for v in tree.vertices:
            t._adj[v] = {}
        for u, v, c in tree.edges():
            t._link(u, v, _EdgeRec(fat=True, cost=c))
        return t

    def _link(self, u: int, v: int, rec: _EdgeRec) -> None:
        self._adj[u][v] = rec
        self._adj[v][u] = rec

    @property
    def vertices(self):
        return self._adj.keys()

    def neighbors(self, v: int) -> dict[int, _EdgeRec]:
        try:
            return self._adj[v]
        except KeyError:
            raise VertexMissing(f"no vertex {v}") from None

    def edge(self, u: int, v: int) -> _EdgeRec:
        try:
            return self._adj[u][v]
        except KeyError:
            raise EdgeMissing(f"no tree edge {{{u},{v}}}") from None

    def has_edge(self, u: int, v: int) -> bool:
        return u in self._adj and v in self._adj[u]

    def edges(self) -> Iterator[tuple[int, int, _EdgeRec]]:
        for u, nbrs in self._adj.items():
            for v, rec in nbrs.items():
                if u < v:
                    yield u, v, rec

    def thin_edges(self) -> list[tuple[int, int, int]]:
        return [(u, v, rec.cost) for u, v, rec in self.edges() if not rec.fat]

    def has_thin_edges(self) -> bool:
        return any(not rec.fat for _, _, rec in self.edges())

    def add_edge(self, u: int, v: int, *, fat: bool, cost: int, pair: Pair | None = None) -> None:
        if u == v:
            raise SameVertex("tree edges need distinct endpoints")
        if v in self._adj[u]:
            raise EdgeExists(f"tree edge {{{u},{v}}} already present")
        self._link(u, v, _EdgeRec(fat=fat, cost=cost, pair=pair))

    def remove_edge(self, u: int, v: int) -> None:
        self.edge(u, v)
        del self._adj[u][v]
        del self._adj[v][u]

    def mark_fat(self, u: int, v: int, cost: int | None = None) -> None:
        rec = self.edge(u, v)
        rec.fat = True
        if cost is not None:
            rec.cost = cost

    def mark_thin(self, u: int, v: int) -> None:
        self.edge(u, v).fat = False

    def set_cost(self, u: int, v: int, cost: int) -> None:
        self.edge(u, v).cost = cost

    def move_endpoint(self, far: int, old_near: int, new_near: int) -> None:
        """Reconnect edge {far, old_near} as {far, new_near}, keeping its record."""
        rec = self.edge(far, old_near)
        if far == new_near or self.has_edge(far, new_near):
            raise EdgeExists(f"cannot move edge onto {{{far},{new_near}}}")
        del self._adj[far][old_near]
        del self._adj[old_near][far]
        self._link(far, new_near, rec)

    def thin_component(self, v: int) -> set[int]:
        """The compound node containing v: vertices connected by thin edges."""
        if v not in self._adj:
            raise VertexMissing(f"no vertex {v}")
        seen = {v}
        dq = deque([v])
        while dq:
            x = dq.popleft()
            for y, rec in self._adj[x].items():
                if not rec.fat and y not in seen:
                    seen.add(y)
                    dq.append(y)
        return seen

    def next_multi_node(self) -> set[int] | None:
        """Compound node to process next: the one holding the smallest vertex."""
        for v in sorted(self._adj):
            if any(not rec.fat for rec in self._adj[v].values()):
                return self.thin_component(v)
        return None

    def subtree(self, root: int, banned: int) -> set[int]:
        """Vertices on root's side when tree edge {root, banned} is ignored."""
        self.edge(root, banned)
        return _side_in_adj(self._adj, root, banned)

    def path_vertices(self, u: int, v: int) -> list[int]:
        return _path_in_adj(self._adj, u, v)

    def cut_side(self, u: int, v: int) -> frozenset[int]:
        self.edge(u, v)
        return frozenset(_side_in_adj(self._adj, u, v))

    def copy(self) -> "IntermediateTree":
        t = IntermediateTree()
        for v in self._adj:
            t._adj[v] = {}
        for u, v, rec in self.edges():
            t._link(u, v, _EdgeRec(rec.fat, rec.cost, rec.pair))
        return t

    def to_cut_tree(self) -> CutTree:
        """Strip edge kinds; requires every edge to be fat."""
        out = CutTree(vertices=self._adj.keys())
        for u, v, rec in self.edges():
            if not rec.fat:
                raise InvalidIntermediate(f"thin edge {{{u},{v}}} remains")
            out.add_edge(u, v, rec.cost)
        return out


def _check_induced_costs(tree: IntermediateTree, graph: DynamicGraph) -> None:
    for u, v, rec in tree.edges():
        if not rec.fat:
            continue
        side = tree.cut_side(u, v)
        actual = cut_cost(graph, side)
        if actual != rec.cost:
            raise InvalidIntermediate(
                f"fat edge {{{u},{v}}} labelled {rec.cost} but induces a cut of cost {actual}"
            )


def _relink_thin(tree: IntermediateTree, part: set[int], kept: list[tuple[int, int, int]]) -> None:
    """Rebuild a thin spanning forest on ``part`` and join its pieces."""
    for a, b, c in kept:
        tree.add_edge(a, b, fat=False, cost=c)
    # union pieces: walk thin-reachability inside part
    base = min(part)
    assigned: set[int] = set()
    pieces: list[set[int]] = []
    for v in sorted(part):
        if v in assigned:
            continue
        piece = {v}
        dq = deque([v])
        while dq:
            x = dq.popleft()
            for y, rec in tree.neighbors(x).items():
                if not rec.fat and y in part and y not in piece:
                    piece.add(y)
                    dq.append(y)
        assigned |= piece
        pieces.append(piece)
    for piece in pieces[1:]:
        tree.add_edge(base, min(piece), fat=False, cost=0)


def _split_node(tree: IntermediateTree, graph: DynamicGraph, node: set[int]) -> None:
    """One construction step: split a compound node along a minimum cut."""
    members = sorted(node)
    u, v = members[0], members[1]

    # fat edges leaving the node, each with the whole subtree hanging off it
    links: list[tuple[int, int, _EdgeRec, set[int]]] = []
    for near in members:
        for far in sorted(tree.neighbors(near)):
            if far in node:
                continue
            rec = tree.edge(near, far)
            links.append((far, near, rec, tree.subtree(far, near)))

    quotient, node_of = contract(graph, [sub for *_, sub in links])
    cut = min_cut(quotient, u, v)
    side_u = {w for w in node if w in cut.side}
    side_v = node - side_u

    # The node's thin edges, read from its members' adjacency in the order
    # tree.edges() would yield them, which fixes the order they are relinked.
    old_thin = [
        (a, b, rec.cost)
        for a in tree.vertices
        if a in node
        for b, rec in tree.neighbors(a).items()
        if a < b and not rec.fat and b in node
    ]
    for a, b, _ in old_thin:
        tree.remove_edge(a, b)
    tree.add_edge(u, v, fat=True, cost=cut.cost)
    for part in (side_u, side_v):
        if len(part) > 1:
            kept = [(a, b, c) for a, b, c in old_thin if a in part and b in part]
            _relink_thin(tree, part, kept)

    # Reconnect each hanging subtree to the side its contracted node landed
    # on; the certified cut pair follows the split (if the near pair vertex
    # fell on the wrong side, the step vertex replaces it).
    for far, near, rec, _sub in links:
        target, step = (side_u, u) if node_of[far] in cut.side else (side_v, v)
        p, q = rec.pair if rec.pair is not None else (near, far)
        if p not in node:
            p, q = q, p
        new_p = p if p in target else step
        new_near = near if near in target else new_p
        if new_near != near:
            tree.move_endpoint(far, near, new_near)
        rec.pair = None if {new_p, q} == {new_near, far} else (new_p, q)


def complete(tree: IntermediateTree, graph: DynamicGraph, verify: bool = False) -> CutTree:
    """Unfold an intermediate tree into a proper cut tree of ``graph``.

    Spends exactly one min-cut computation per thin edge of the input.  With
    ``verify`` on, every fat edge's induced-cut cost is checked against its
    label before and after each split.
    """
    work = tree.copy()
    if verify:
        _check_induced_costs(work, graph)
    while True:
        node = work.next_multi_node()
        if node is None:
            break
        _split_node(work, graph, node)
        if verify:
            _check_induced_costs(work, graph)
    return work.to_cut_tree()


def static_build(graph: DynamicGraph) -> CutTree:
    """Build a cut tree from scratch with n-1 min-cut computations."""
    if graph.vertex_count == 0:
        raise EmptyGraph("cannot build a cut tree of an empty graph")
    return complete(IntermediateTree.star(graph.vertices), graph)
