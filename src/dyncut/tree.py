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

A tree is plain cost rows (``dict[int, dict[int, int]]``), the set of its
thin edges' pair keys, and a parent map.  ``remove_edge`` makes the child a
root, and ``add_edge`` is the one edit that re-roots: it everts the
shallower end's path, hangs it below the other end, and refuses an edge
that would close a cycle.  So a tree path is two walks up to the lowest
common ancestor, O(depth).  Link-cut trees (Sleator and Tarjan, "A data
structure for dynamic trees", JCSS 1983) would bound that by O(log n); at
the depths met here they cost more.

:func:`cut_step` is the one Gomory-Hu step that reshapes a tree, for
:func:`complete` and the decrease walk in :mod:`dyncut.dynamic` alike.
Where it re-hangs a subtree, the cut alone decides (Gomory and Hu's
node-level rule), so neither the member a fat edge touches nor the shape
and costs of the thin edges inside a node affect the finished tree.
"""

from __future__ import annotations

from math import inf
from typing import Iterable, Iterator

from .errors import (
    EdgeExists,
    EdgeMissing,
    EmptyGraph,
    SameVertex,
    VertexExists,
    VertexMissing,
)
from .graph import Cut, DynamicGraph, Pair, contract, pair_key
from .mincut import min_cut


def _check_ends(up: dict, u: int, v: int) -> None:
    if u not in up or v not in up:
        raise VertexMissing(f"missing endpoint in ({u}, {v})")
    if u == v:
        raise SameVertex(f"endpoints must differ, got {u}")


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
    none.  ``_up[x]`` is x's parent, or ``None`` at a root; the cost to it is
    in the rows.  The root depends on the edit history, so equality ignores it.
    """

    __slots__ = ("_adj", "_thin", "_up")

    def __init__(self, vertices: Iterable[int] = (), edges: Iterable[tuple[int, int, int]] = ()):
        self._adj: dict[int, dict[int, int]] = {}
        self._thin: set[Pair] = set()
        self._up: dict[int, int | None] = {}
        edges = list(edges)
        for v in (*vertices, *(x for u, v, _ in edges for x in (u, v))):
            if v not in self._adj:
                self.add_vertex(v)
        for u, v, c in edges:
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

    def add_vertex(self, v: int) -> None:
        if v in self._adj:
            raise VertexExists(f"vertex {v} already present")
        self._adj[v] = {}
        self._up[v] = None

    def remove_vertex(self, v: int) -> None:
        if v not in self._adj:
            raise VertexMissing(f"no vertex {v}")
        for x in list(self._adj[v]):
            self.remove_edge(v, x)
        del self._adj[v]
        del self._up[v]

    def _evert(self, x: int) -> None:
        """Make x the root of its component by reversing its path to the old root."""
        up, prev = self._up, None
        while x is not None:
            up[x], prev, x = prev, x, up[x]

    def add_edge(self, u: int, v: int, c: int, thin: bool = False) -> None:
        """Join two components by edge {u, v}, re-rooting the shallower end below the other."""
        adj, up = self._adj, self._up
        if u == v:
            raise SameVertex("tree edges need distinct endpoints")
        if u not in adj or v not in adj:
            raise VertexMissing(f"endpoint of {{{u},{v}}} missing")
        if c < 0:
            raise ValueError("tree edge costs are non-negative")
        ru, du = u, 0
        while (p := up[ru]) is not None:
            ru, du = p, du + 1
        rv, dv = v, 0
        while (p := up[rv]) is not None:
            rv, dv = p, dv + 1
        if ru == rv:
            raise EdgeExists(f"tree edge {{{u},{v}}} is present or would close a cycle")
        # on equal depths hang the end with the smaller row, e.g. a new vertex
        if du > dv or du == dv and len(adj[u]) > len(adj[v]):
            u, v = v, u
        if up[u] is not None:
            self._evert(u)
        up[u] = v
        adj[u][v] = c
        adj[v][u] = c
        if thin:
            self._thin.add(pair_key(u, v))

    def remove_edge(self, u: int, v: int) -> None:
        self.cost(u, v)
        del self._adj[u][v]
        del self._adj[v][u]
        self._thin.discard(pair_key(u, v))
        self._up[u if self._up[u] == v else v] = None

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

    def thin_component(self, v: int) -> set[int]:
        """The compound node containing v: vertices connected by thin edges."""
        if v not in self._adj:
            raise VertexMissing(f"no vertex {v}")
        adj, thin = self._adj, self._thin
        seen, found = {v}, [v]
        for x in found:
            for y in adj[x]:
                if y not in seen and pair_key(x, y) in thin:
                    seen.add(y)
                    found.append(y)
        return seen

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
        """The u-v tree path from u to v: two walks up that meet at the lowest common ancestor."""
        up = self._up
        _check_ends(up, u, v)
        pos, x = {}, u
        while x is not None:
            pos[x], x = len(pos), up[x]
        tail, x = [], v
        while x not in pos:
            if x is None:
                raise VertexMissing(f"no tree path between {u} and {v}")
            tail.append(x)
            x = up[x]
        return list(pos)[: pos[x] + 1] + tail[::-1]

    def copy(self) -> "CutTree":
        """Independent copy; its rows drop the space that removed entries left."""
        t = CutTree()
        t._adj = {v: dict(nbrs) for v, nbrs in self._adj.items()}
        t._thin = self._thin.copy()
        t._up = dict(self._up)
        return t

    def __eq__(self, other) -> bool:
        if not isinstance(other, CutTree):
            return NotImplemented
        return (self._adj, self._thin) == (other._adj, other._thin)

    def __repr__(self) -> str:
        return f"CutTree({self.vertex_count} vertices)"

    def to_lines(self) -> list[str]:
        """One ``u v cost`` line per edge, sorted by endpoint pair."""
        return [f"{u} {v} {c}" for u, v, c in sorted(self.edges())]


def query_value(tree: CutTree, u: int, v: int) -> int:
    """Connectivity of {u, v}: the cheapest edge cost on the tree path, in O(depth)."""
    up, adj = tree._up, tree._adj
    _check_ends(up, u, v)
    low, best, x = {u: inf}, inf, u  # cheapest cost from u up to each ancestor
    while (p := up[x]) is not None:
        c = adj[x][p]
        if c < best:
            best = c
        low[p], x = best, p
    c, x = inf, v
    while x not in low:
        if (p := up[x]) is None:
            raise VertexMissing(f"no tree path between {u} and {v}")
        if adj[x][p] < c:
            c = adj[x][p]
        x = p
    best = low[x]
    return c if c < best else best


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
    return Cut(frozenset(tree.subtree(a, b)), c)


# Partial trees were once a type of their own; perfbench/tracer.py still
# looks this name up.
IntermediateTree = CutTree


def cut_step(
    tree: CutTree, graph: DynamicGraph, links: list[tuple[int, int]], u: int, v: int
) -> tuple[Cut, list[int]]:
    """One Gomory-Hu step: cut u from v, then re-hang the node's subtrees by side.

    ``links`` are the tree edges ``(far, near)`` that leave a node holding u
    and v, ``near`` inside it.  The subtree beyond each ``far`` is contracted
    for the cut; one that lands on the other side from its ``near`` moves,
    with its cost and kind, to u or v, whichever shares its side.  No move
    can close a cycle: far's subtree is cut off first, and u and v lie in
    the other part.
    Returns the cut and the far ends that moved.
    """
    adj = tree._adj
    # a leaf is a one-vertex subtree, which contract would leave as it is
    groups = [_reach(adj, far, {near}) for far, near in links if len(adj[far]) > 1]
    quotient, node_of = contract(graph, groups)
    cut = min_cut(quotient, u, v)
    moved = []
    for far, near in links:
        to_u = node_of[far] in cut.side
        if (near in cut.side) != to_u:
            c, thin = adj[far][near], pair_key(far, near) in tree._thin
            tree.remove_edge(far, near)
            tree.add_edge(far, u if to_u else v, c, thin)
            moved.append(far)
    return cut, moved


def _split_node(tree: CutTree, graph: DynamicGraph, node: set[int]) -> None:
    """Split a compound node along a minimum cut of its two smallest members."""
    members = sorted(node)
    u, v = members[0], members[1]
    links = [(far, near) for near in members for far in tree._adj[near] if far not in node]
    cut, _ = cut_step(tree, graph, links, u, v)

    # Every thin edge touching the node lies inside it, and every edge inside
    # it is thin: a member's edge to a parent in the node.  Each side becomes
    # a thin star on its smallest member; no split reads a thin edge's cost.
    up = tree._up
    for w in members:
        if up[w] in node:
            tree.remove_edge(w, up[w])
    tree.add_edge(u, v, cut.cost)
    for w in members[2:]:
        tree.add_edge(u if w in cut.side else v, w, 0, thin=True)


def complete(tree: CutTree, graph: DynamicGraph) -> int:
    """Unfold a partial tree, in place, into a finished cut tree of ``graph``.

    Every fat edge of the input must already be a minimum cut of ``graph``
    between its endpoints, labelled with its cost; each split keeps that so.
    Spends exactly one min-cut computation per thin edge of the input and
    returns their number.
    """
    splits = 0
    while (node := tree.next_multi_node()) is not None:
        _split_node(tree, graph, node)
        splits += 1
    return splits


def static_build(graph: DynamicGraph) -> CutTree:
    """Build a cut tree from scratch with n-1 min-cut computations."""
    if graph.vertex_count == 0:
        raise EmptyGraph("cannot build a cut tree of an empty graph")
    tree = CutTree.star(graph.vertices)
    complete(tree, graph)
    return tree
