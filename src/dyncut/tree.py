"""Cut trees and the iterative construction that builds them.

A cut tree (Gomory-Hu tree) spans the graph's vertices; each tree edge, when
removed, induces a minimum cut between its endpoints, and the cheapest edge
on the tree path between any two vertices gives their connectivity.

A partial tree is a tree of *compound nodes*: disjoint vertex sets, each
joined by tree edges among its own members.  Those inner edges, the
paper's *thin* edges, carry no cut.  Every other edge stands for a minimum
cut of the current graph between the nodes at its two ends.
:func:`complete` takes a partial tree and its nodes, and splits the nodes
one by one, in place, spending one min-cut computation per split, until
every node is a single vertex.  Nodes live only inside that call, so the
tree itself marks no edge, and a tree at rest is always finished.

A tree is plain cost rows (``dict[int, dict[int, int]]``) and a parent
map.  ``remove_edge`` makes the child a root, and ``add_edge`` is the one
edit that re-roots: it everts the shallower end's path, hangs it below the
other end, and refuses an edge that would close a cycle.  So a tree path
is two walks up to the lowest common ancestor, O(depth).  Link-cut trees
(Sleator and Tarjan, "A data structure for dynamic trees", JCSS 1983)
would bound that by O(log n); at the depths met here they cost more.

:func:`cut_step` is the one Gomory-Hu step that reshapes a tree, for
:func:`complete` and the decrease walk in :mod:`dyncut.dynamic` alike.
Its quotient makes each subtree off the node one of its nodes, named
after its link's far end; a split lists them in its one scan of the
node's links, the walk through :func:`contract_links`.  Both callers
fold by one rule: a link whose cost is the connectivity of its own ends
and above a bound on lambda(u, v) merges its subtree into its near end,
since no minimum u-v cut parts them.  :func:`complete` tells such links
by the nodes it was given and merges through the builder; the walk tells
them by the order it pops them and merges through :func:`fold_links`.
Where the step re-hangs a subtree, the cut alone decides (Gomory and Hu's
node-level rule), so neither the member an outer edge touches nor the
shape and costs of the edges inside a node affect the finished tree.  So
a split stars each side on its largest member, and one side keeps its star.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from math import inf
from typing import Callable, Iterable

from .errors import (
    EdgeExists,
    EdgeMissing,
    EmptyGraph,
    SameVertex,
    VertexMissing,
)
from .graph import Cut, DynamicGraph, Quotient, Rows, contract
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


class CutTree(Rows):
    """Weighted tree on the graph's vertices encoding all-pairs minimum cuts.

    ``_adj`` holds the :class:`~dyncut.graph.Rows`: ``_adj[u][v]`` is the
    cost of tree edge {u, v}.  ``_up[x]`` is x's parent, or ``None`` at a
    root; the cost to it is in the rows.  The root depends on the edit
    history, so equality ignores it.  ``_least`` is the smallest vertex id,
    or ``None`` for an empty tree.
    """

    __slots__ = ("_up", "_least")

    def __init__(self, vertices: Iterable[int] = (), edges: Iterable[tuple[int, int, int]] = ()):
        self._adj: dict[int, dict[int, int]] = {}
        self._up: dict[int, int | None] = {}
        self._least: int | None = None
        edges = list(edges)
        for v in (*vertices, *(x for u, v, _ in edges for x in (u, v))):
            if v not in self._adj:
                self.add_vertex(v)
        for u, v, c in edges:
            self.add_edge(u, v, c)

    def cost(self, u: int, v: int) -> int:
        try:
            return self._adj[u][v]
        except KeyError:
            raise EdgeMissing(f"no tree edge {{{u},{v}}}") from None

    def set_cost(self, u: int, v: int, c: int) -> None:
        self.cost(u, v)
        if c < 0:
            raise ValueError("tree edge costs are non-negative")
        self._adj[u][v] = c
        self._adj[v][u] = c

    @property
    def least_vertex(self) -> int | None:
        """The smallest vertex id, or ``None`` for an empty tree, in O(1)."""
        return self._least

    def add_vertex(self, v: int) -> None:
        super().add_vertex(v)
        self._up[v] = None
        if self._least is None or v < self._least:
            self._least = v

    def remove_vertex(self, v: int) -> None:
        if v not in self._adj:
            raise VertexMissing(f"no vertex {v}")
        for x in list(self._adj[v]):
            self.remove_edge(v, x)
        del self._adj[v]
        del self._up[v]
        if v == self._least:
            self._least = min(self._adj, default=None)

    def _evert(self, x: int) -> None:
        """Make x the root of its component by reversing its path to the old root."""
        up, prev = self._up, None
        while x is not None:
            up[x], prev, x = prev, x, up[x]

    def add_edge(self, u: int, v: int, c: int) -> None:
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

    def remove_edge(self, u: int, v: int) -> None:
        self.cost(u, v)
        del self._adj[u][v]
        del self._adj[v][u]
        self._up[u if self._up[u] == v else v] = None

    # perfbench/tracer.py:67 wraps this name, and will not install without
    # it; no tree holds a thin edge
    def thin_edges(self) -> list:
        return []

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
        t._up = dict(self._up)
        t._least = self._least
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


def contract_links(tree: CutTree, graph: DynamicGraph, links: list[tuple[int, int]]) -> Quotient:
    """A Gomory-Hu step's quotient: ``graph`` with the subtree beyond each link ``(far, near)``
    a node named far.  The decrease walk folds into it with :func:`fold_links`;
    a split of :func:`complete` lists and folds its groups in its own scan.
    """
    adj = tree._adj
    # a leaf is a one-vertex subtree, which contract would leave as it is;
    # _reach lists far first, so far names its node
    groups = [_reach(adj, far, {near}) for far, near in links if len(adj[far]) > 1]

    def named() -> list[int]:
        # the node's own vertices lie within reach of a near end short of every far end
        return [*_reach(adj, links[0][1], {far for far, _ in links}), *dict(links)]

    return _contract_groups(graph, groups, named)


def _contract_groups(graph: DynamicGraph, groups: list, named: Callable[[], list]) -> Quotient:
    """``graph`` with each group one node named after its first member: a
    :class:`~dyncut.graph.Quotient` of its own, which :func:`fold_links` may
    edit and its cut spends.  One with a node of more than half the vertices
    comes from :func:`_quotient`, which reads none of that node's rows, and
    ``named()`` lists the step's node and its links' far ends for it; every
    other, one with nothing to merge too, from :func:`~dyncut.graph.contract`.
    """
    big = max(groups, key=len, default=())
    if 2 * len(big) <= len(graph._adj):
        quotient = Quotient()
        quotient._adj = contract(graph, groups)[0]._adj
        return quotient
    node_of = {w: w for w in named()}
    for group in groups:
        if group is not big:
            node_of.update(dict.fromkeys(group, group[0]))
    # the one vertex of the big node named so far: its far or its near end
    del node_of[big[0]]
    return _quotient(graph, node_of, big[0])


def _quotient(graph: DynamicGraph, node_of: dict[int, int], big: int) -> Quotient:
    """``graph`` contracted by ``node_of``, every vertex it does not name in one node ``big``.

    Reads only the rows of the vertices ``node_of`` names.  An arc between two
    of them is summed from both ends; an arc into ``big`` is read once, from
    its named end, and mirrored into ``big``'s row.
    """
    rows, qadj = graph._adj, {x: {} for x in node_of.values()}
    into = qadj[big] = {}
    name = node_of.get
    for x, nx in node_of.items():
        row = qadj[nx]
        for y, w in rows[x].items():
            ny = name(y, big)
            if ny != nx:
                row[ny] = row.get(ny, 0) + w
                if ny == big:
                    into[nx] = into.get(nx, 0) + w
    quotient = Quotient()
    quotient._adj = qadj
    return quotient


def fold_links(quotient: DynamicGraph, v: int, folds: list[int]) -> None:
    """Merge into node v, in place, the node that each far end in ``folds`` names in ``quotient``.

    Weights follow the sum rule, and v keeps its name.  A far end no longer
    in the quotient was merged already, and is skipped.
    """
    adj = quotient._adj
    into = adj[v]
    for w in folds:
        if w in adj:
            row = adj.pop(w)
            row.pop(v, None)
            into.pop(w, None)
            for y, c in row.items():
                far = adj[y]
                del far[w]
                far[v] = into[y] = into.get(y, 0) + c


def cut_step(
    tree: CutTree, quotient: DynamicGraph, links: list[tuple[int, int]], u: int, v: int
) -> tuple[Cut, list[int]]:
    """One Gomory-Hu step: cut u from v, then re-hang the node's subtrees by side.

    ``links`` are the tree edges ``(far, near)`` that leave a node holding u
    and v, ``near`` inside it.  ``quotient`` is what :func:`contract_links`
    builds for them, so each ``far`` names its subtree's node; the cut
    spends it, so a caller that keeps a quotient passes a copy.  A far end
    folded into v is in no side, so it never moves; a link folded into
    another near end must be left out of ``links``.  A subtree that lands
    on the other side from its ``near`` moves, with its cost, to u or v,
    whichever shares its side; a link leaves its node, so it is never thin.
    No move can close a cycle: far's subtree is cut off first, and u and v
    lie in the other part.  Returns the cut and the far ends that moved.
    """
    cut = min_cut(quotient, u, v)
    side = cut.side
    moved = []
    for far, near in links:
        if (near in side) != (far in side):
            c = tree.cost(far, near)
            tree.remove_edge(far, near)
            tree.add_edge(far, u if far in side else v, c)
            moved.append(far)
    return cut, moved


def _split_node(
    tree: CutTree, graph: DynamicGraph, members: list[int], origin: dict[int, int]
) -> tuple[list[int], list[int]]:
    """Split a compound node along a minimum cut of its two smallest members.

    ``members`` lists the node in increasing order.  ``origin`` maps each
    vertex of the nodes :func:`complete` was given to its node's index.
    Returns the two sides, u's and then v's, in the same order.
    """
    node = set(members)
    u, v = members[0], members[1]
    adj, rows = tree._adj, graph._adj
    bound = min(sum(rows[u].values()), sum(rows[v].values()))
    here = origin[u]
    # one scan of the links that leave the node lists and folds the quotient's
    # groups, a leaf's with no walk; a folded link never moves, so cut_step gets the others
    links, groups, folded = [], [], []
    for near in members:
        into = [near]
        for far, c in adj[near].items():
            if far not in node:
                if c > bound and origin.get(far, here) == here:
                    into += [far] if len(adj[far]) == 1 else _reach(adj, far, {near})
                else:
                    links.append((far, near))
                    if len(adj[far]) > 1:
                        groups.append(_reach(adj, far, {near}))
        if len(into) > 1:
            folded.append(into)
    quotient = _contract_groups(graph, groups + folded, lambda: [*members, *dict(links)])
    cut, moved = cut_step(tree, quotient, links, u, v)

    # Every edge inside the node is a member's edge to a parent in the node.
    # Each side becomes a zero-cost star on its largest member.  An edge from
    # a side's centre to a member of that side stays, so the side with the
    # old centre keeps its star; the others go, their members re-join their
    # centre, and {u, v} comes back at the cut's cost.
    side, up = cut.side, tree._up
    ours = [w for w in members if w in side]
    theirs = [w for w in members if w not in side]
    hubs = ours[-1], theirs[-1]
    for w in members:
        p = up[w]
        if p in node and (w not in hubs and p not in hubs or (w in side) != (p in side)):
            tree.remove_edge(w, p)
    tree.add_edge(u, v, cut.cost)
    for part, hub in zip((ours, theirs), hubs):
        for w in part[:-1]:
            if hub not in adj[w]:
                tree.add_edge(hub, w, 0)
    return ours, theirs


def complete(tree: CutTree, graph: DynamicGraph, nodes: Iterable[Iterable[int]]) -> int:
    """Split a partial tree's compound ``nodes``, in place, until it is a cut tree of ``graph``.

    The nodes must be disjoint, and each must be joined by tree edges among
    its own members; a vertex in no node is a node of its own.  Every edge
    between two nodes must already hold Gomory and Hu's node-level
    property: its two sides form a minimum cut of ``graph``, at its cost,
    between some member of the node at one end and some member of the node
    at the other.  Each split keeps that so, and once every node is a
    single vertex the cut separates the edge's own ends.  The node with
    the smallest member is split first, and each side of two or more
    members waits as a node of its own; where minimum cuts tie, that order
    fixes the finished tree.  Spends one min-cut computation per split,
    ``len(node) - 1`` per node, and returns their number.

    An edge is *exact* when its cost c is lambda of its own two ends in
    ``graph``.  Every edge from a node to a vertex in none must be exact.
    An increase gives the two parts of the b-d path, joined by the raised
    path edge: a minimum b-d cut, not always a minimum cut of its own ends.

    The split of u from v folds each link (far, near), near in the node,
    whose cost c is above U, the smaller weighted degree of u and v, and
    whose far end lies in no given node or in near's: far's subtree merges
    into near's node of the quotient.  Either vertex alone is a u-v cut, so
    lambda(u, v) <= U.  For an exact link, a cut that parts far's subtree
    from near costs at least c > U, and no minimum u-v cut does that.  The
    merge keeps every minimum cut, and so the cut's cost and the smallest
    side that ``min_cut`` returns.  A link at exactly U stays apart.

    Every link that folds is exact.  A link within one given node is the
    edge {u, v} of an earlier split, exact at the cut's cost, or a moved
    one.  A move keeps far, and puts near in the same given node, so a link
    between two given nodes never folds.  A link that a split moves stays
    exact.  Say the cut S holds far and u, and near and v, so the link
    moves to (far, u).  S separates far from near, so lambda(u, v) >= c.
    By Gomory and Hu's lemma some minimum far-u cut does not split the
    complement of S, so lambda(far, u) may be taken in ``graph`` with that
    complement shrunk to one vertex s.  There lambda(far, u) >=
    min(lambda(far, s), lambda(s, u)) >= min(c, lambda(u, v)) = c: a far-s
    cut parts far from near, and an s-u cut parts v from u.  Far's subtree
    costs c and does not hold u, so lambda(far, u) = c.  The case of far
    with v is the mirror image.
    """
    nodes = list(map(sorted, nodes))
    origin = {x: i for i, members in enumerate(nodes) for x in members}
    # disjoint sorted lists compare by their first, smallest members
    heap = [members for members in nodes if len(members) > 1]
    heapify(heap)
    splits = 0
    while heap:
        for side in _split_node(tree, graph, heappop(heap), origin):
            if len(side) > 1:
                heappush(heap, side)
        splits += 1
    return splits


def static_build(graph: DynamicGraph) -> CutTree:
    """Build a cut tree from scratch with n-1 min-cut computations."""
    if graph.vertex_count == 0:
        raise EmptyGraph("cannot build a cut tree of an empty graph")
    # one node of every vertex, joined by a zero-cost star on the largest,
    # the centre that the split off each node's smallest members keeps
    verts = sorted(graph.vertices)
    tree = CutTree(verts, [(verts[-1], v, 0) for v in verts[:-1]])
    complete(tree, graph, [verts])
    return tree
