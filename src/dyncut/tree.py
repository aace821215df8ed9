"""Cut trees and the iterative construction that builds them.

A cut tree (Gomory-Hu tree) spans the graph's vertices; each tree edge, when
removed, induces a minimum cut between its endpoints, and the cheapest edge
on the tree path between any two vertices gives their connectivity.

One tree type serves finished and partially built trees.  Its edges come
in two kinds: *fat* edges stand for already-certified minimum separating
cuts of the current graph, *thin* edges only group vertices into compound
nodes and carry stale costs.  A finished cut tree has only fat edges.
:func:`complete` unfolds a partial tree node by node, in place, until
every edge is fat, spending one min-cut computation per thin edge.

Costs live in plain adjacency rows (``dict[int, dict[int, int]]``).  Beside
them a tree keeps the set of its thin edges' pair keys and a small map of
certified cut pairs that differ from an edge's endpoints.  Finding the next
compound node and its thin edges reads only that set; each split walks the
rest of the tree once, to gather the subtrees it contracts.
"""

from __future__ import annotations

from collections import deque
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
from .graph import Cut, DynamicGraph, Pair, contract, cut_cost, pair_key
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


def _reach(nbrs: dict, start: int, seen: set[int]) -> list[int]:
    """Vertices reachable from ``start`` without entering ``seen``; marks them seen.

    In a tree, ``seen = {banned}`` gives start's side of the edge {start, banned}.
    """
    seen.add(start)
    found = [start]
    for x in found:
        for y in nbrs.get(x, ()):
            if y not in seen:
                seen.add(y)
                found.append(y)
    return found


class CutTree:
    """Weighted tree on the graph's vertices encoding all-pairs minimum cuts.

    ``_adj[u][v]`` is the cost of tree edge {u, v}.  ``_thin`` holds the pair
    keys of the thin edges; every other edge is fat, and a finished tree has
    none.  ``_pair`` maps the pair key of a fat edge to its certified cut
    pair, only while that pair is not the edge's own endpoints.
    """

    __slots__ = ("_adj", "_thin", "_pair")

    def __init__(self, vertices: Iterable[int] = (), edges: Iterable[tuple[int, int, int]] = ()):
        self._adj: dict[int, dict[int, int]] = {}
        self._thin: set[Pair] = set()
        self._pair: dict[Pair, Pair] = {}
        for v in vertices:
            self._adj.setdefault(v, {})
        for u, v, c in edges:
            self._adj.setdefault(u, {})
            self._adj.setdefault(v, {})
            self.add_edge(u, v, c)

    @classmethod
    def star(cls, vertices: Iterable[int]) -> "CutTree":
        """All-thin star centered on the smallest vertex."""
        verts = sorted(vertices)
        t = cls(verts)
        for v in verts[1:]:
            t.add_edge(verts[0], v, 0, thin=True)
        return t

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

    def set_cost(self, u: int, v: int, c: int) -> None:
        self.cost(u, v)
        if c < 0:
            raise ValueError("tree edge costs are non-negative")
        self._adj[u][v] = c
        self._adj[v][u] = c

    def cut_side(self, u: int, v: int) -> frozenset[int]:
        """Vertex set on u's side when tree edge {u, v} is removed."""
        self.cost(u, v)
        return frozenset(_reach(self._adj, u, {v}))

    def add_vertex(self, v: int) -> None:
        if v in self._adj:
            raise VertexExists(f"vertex {v} already present")
        self._adj[v] = {}

    def remove_vertex(self, v: int) -> None:
        if v not in self._adj:
            raise VertexMissing(f"no vertex {v}")
        for x in list(self._adj[v]):
            self.remove_edge(v, x)
        del self._adj[v]

    def add_edge(self, u: int, v: int, c: int, thin: bool = False) -> None:
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
        if thin:
            self._thin.add(pair_key(u, v))

    def remove_edge(self, u: int, v: int) -> None:
        self.cost(u, v)
        del self._adj[u][v]
        del self._adj[v][u]
        key = pair_key(u, v)
        self._thin.discard(key)
        self._pair.pop(key, None)

    def is_thin(self, u: int, v: int) -> bool:
        self.cost(u, v)
        return pair_key(u, v) in self._thin

    def thin_edges(self) -> list[tuple[int, int, int]]:
        """Every thin edge as ``(u, v, cost)`` with u < v, in no fixed order."""
        adj = self._adj
        return [(u, v, adj[u][v]) for u, v in self._thin]

    def mark_fat(self, u: int, v: int, cost: int | None = None) -> None:
        self.cost(u, v)
        self._thin.discard(pair_key(u, v))
        if cost is not None:
            self.set_cost(u, v, cost)

    def mark_thin(self, u: int, v: int) -> None:
        self.cost(u, v)
        self._thin.add(pair_key(u, v))

    def set_cut_pair(self, u: int, v: int, pair: Pair) -> None:
        """Record ``pair`` as the pair whose minimum cut fat edge {u, v} certifies."""
        self.cost(u, v)
        key = pair_key(u, v)
        if pair_key(*pair) == key:
            self._pair.pop(key, None)
        else:
            self._pair[key] = pair

    def move_endpoint(self, far: int, old_near: int, new_near: int) -> None:
        """Reconnect edge {far, old_near} as {far, new_near}, keeping its cost and kind."""
        c = self.cost(far, old_near)
        if far == new_near or self.has_edge(far, new_near):
            raise EdgeExists(f"cannot move edge onto {{{far},{new_near}}}")
        del self._adj[far][old_near]
        del self._adj[old_near][far]
        self._adj[far][new_near] = c
        self._adj[new_near][far] = c
        old, new = pair_key(far, old_near), pair_key(far, new_near)
        if old in self._thin:
            self._thin.remove(old)
            self._thin.add(new)
        if old in self._pair:
            self._pair[new] = self._pair.pop(old)

    def thin_component(self, v: int) -> set[int]:
        """The compound node containing v: vertices connected by thin edges."""
        if v not in self._adj:
            raise VertexMissing(f"no vertex {v}")
        thin_nbrs: dict[int, list[int]] = {}
        for a, b in self._thin:
            thin_nbrs.setdefault(a, []).append(b)
            thin_nbrs.setdefault(b, []).append(a)
        return set(_reach(thin_nbrs, v, set()))

    def next_multi_node(self) -> set[int] | None:
        """Compound node to process next: the one holding the smallest vertex."""
        if not self._thin:
            return None
        return self.thin_component(min(self._thin)[0])

    def subtree(self, root: int, banned: int) -> set[int]:
        """Vertices on root's side when tree edge {root, banned} is ignored."""
        self.cost(root, banned)
        return set(_reach(self._adj, root, {banned}))

    def path_vertices(self, u: int, v: int) -> list[int]:
        return _path_in_adj(self._adj, u, v)

    def copy(self) -> "CutTree":
        """Independent copy; its rows drop the space that removed entries left."""
        t = CutTree()
        t._adj = {v: dict(nbrs) for v, nbrs in self._adj.items()}
        t._thin = self._thin.copy()
        t._pair = self._pair.copy()
        return t

    def __eq__(self, other) -> bool:
        if not isinstance(other, CutTree):
            return NotImplemented
        return (self._adj, self._thin, self._pair) == (other._adj, other._thin, other._pair)

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


# Partial trees were once a type of their own; perfbench/tracer.py still
# looks this name up.
IntermediateTree = CutTree


def _check_induced_costs(tree: CutTree, graph: DynamicGraph) -> None:
    for u, v, c in tree.edges():
        if tree.is_thin(u, v):
            continue
        actual = cut_cost(graph, tree.cut_side(u, v))
        if actual != c:
            raise InvalidIntermediate(
                f"fat edge {{{u},{v}}} labelled {c} but induces a cut of cost {actual}"
            )


def _relink_thin(tree: CutTree, part: set[int], kept: list[tuple[int, int, int]]) -> None:
    """Rebuild a thin spanning forest on ``part`` and join its pieces."""
    thin_nbrs: dict[int, list[int]] = {w: [] for w in part}
    for a, b, c in kept:
        tree.add_edge(a, b, c, thin=True)
        thin_nbrs[a].append(b)
        thin_nbrs[b].append(a)
    order = sorted(part)
    seen: set[int] = set()
    for w in order:
        if w in seen:
            continue
        if seen:
            tree.add_edge(order[0], w, 0, thin=True)
        _reach(thin_nbrs, w, seen)


def _split_node(tree: CutTree, graph: DynamicGraph, node: set[int]) -> None:
    """One construction step: split a compound node along a minimum cut."""
    members = sorted(node)
    u, v = members[0], members[1]

    # Fat edges leaving the node, each with the whole subtree hanging off it.
    # The node is connected, so each subtree meets it by one edge only and a
    # single traversal with a shared ``seen`` set gathers them all.
    adj = tree._adj
    links = [(far, near) for near in members for far in adj[near] if far not in node]
    seen = set(node)
    subtrees = [_reach(adj, far, seen) for far, _ in links]

    quotient, node_of = contract(graph, [sub for sub in subtrees if len(sub) > 1])
    cut = min_cut(quotient, u, v)
    side_u = {w for w in node if w in cut.side}
    side_v = node - side_u

    # Every thin edge touching the node lies inside it.
    old_thin = [(a, b, adj[a][b]) for a, b in sorted(k for k in tree._thin if k[0] in node)]
    for a, b, _ in old_thin:
        tree.remove_edge(a, b)
    tree.add_edge(u, v, cut.cost)
    for part in (side_u, side_v):
        kept = [(a, b, c) for a, b, c in old_thin if a in part and b in part]
        _relink_thin(tree, part, kept)

    # Reconnect each hanging subtree to the side its contracted node landed
    # on; the certified cut pair follows the split (if the near pair vertex
    # fell on the wrong side, the step vertex replaces it).
    pairs = tree._pair
    for far, near in links:
        target, step = (side_u, u) if node_of[far] in cut.side else (side_v, v)
        p, q = pairs.get((near, far) if near < far else (far, near), (near, far))
        if p not in node:
            p, q = q, p
        new_p = p if p in target else step
        new_near = near if near in target else new_p
        if new_near != near:
            tree.move_endpoint(far, near, new_near)
        if (new_p, new_near) != (p, near):  # else the recorded pair still holds
            tree.set_cut_pair(far, new_near, (new_p, q))


def complete(tree: CutTree, graph: DynamicGraph, verify: bool = False) -> None:
    """Unfold a partial tree, in place, into a finished cut tree of ``graph``.

    Spends exactly one min-cut computation per thin edge of the input.  With
    ``verify`` on, every fat edge's induced-cut cost is checked against its
    label before and after each split.
    """
    if verify:
        _check_induced_costs(tree, graph)
    while True:
        node = tree.next_multi_node()
        if node is None:
            break
        _split_node(tree, graph, node)
        if verify:
            _check_induced_costs(tree, graph)
    # a leftover cut pair would steer later splits of this tree
    tree._pair.clear()


def static_build(graph: DynamicGraph) -> CutTree:
    """Build a cut tree from scratch with n-1 min-cut computations."""
    if graph.vertex_count == 0:
        raise EmptyGraph("cannot build a cut tree of an empty graph")
    tree = CutTree.star(graph.vertices)
    complete(tree, graph)
    return tree
