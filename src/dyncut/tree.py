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
:func:`contract_links` builds the quotient for both: each subtree off the
node is one of its nodes, named after its link's far end.  Both callers
merge into a node's member the subtrees that no minimum cut of the step
parts from it: :func:`complete` through the builder, the walk afterwards
through :func:`fold_links`.
Where the step re-hangs a subtree, the cut alone decides (Gomory and Hu's
node-level rule), so neither the member an outer edge touches nor the
shape and costs of the edges inside a node affect the finished tree.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from math import inf
from typing import Iterable

from .errors import (
    EdgeExists,
    EdgeMissing,
    EmptyGraph,
    SameVertex,
    VertexMissing,
)
from .graph import Cut, DynamicGraph, Rows, contract, pair_key
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


def contract_links(
    tree: CutTree,
    graph: DynamicGraph,
    links: list[tuple[int, int]],
    folds: list[tuple[int, int]],
) -> DynamicGraph:
    """A Gomory-Hu step's quotient: ``graph`` with the subtree beyond each link ``(far, near)``
    a node named far, and beyond each link of ``folds`` merged into near's node, named near.

    With nothing to merge it is ``graph`` itself, which :func:`fold_links`
    copies before an edit.  A quotient with a node of more than half the
    vertices comes from :func:`_quotient`, which reads none of that node's
    rows; every other from :func:`~dyncut.graph.contract`.
    """
    adj = tree._adj
    # a leaf is a one-vertex subtree, which contract would leave as it is;
    # _reach lists far first, so far names its node
    groups = [_reach(adj, far, {near}) for far, near in links if len(adj[far]) > 1]
    into: dict[int, list[int]] = {}
    for far, near in folds:
        into.setdefault(near, [near]).extend(_reach(adj, far, {near}))
    groups += into.values()
    if not groups:
        return graph
    big = max(groups, key=len)
    if 2 * len(big) <= len(graph._adj):
        return contract(graph, groups)[0]
    # the node's own vertices lie within reach of a near end short of every far end
    ends = [*links, *folds]
    node_of = {w: w for w in _reach(adj, ends[0][1], {far for far, _ in ends})}
    node_of.update((far, far) for far, _ in links)
    for group in groups:
        if group is not big:
            node_of.update(dict.fromkeys(group, group[0]))
    # the one vertex of the big node named so far: its far or its near end
    del node_of[big[0]]
    return _quotient(graph, node_of, big[0])


def _quotient(graph: DynamicGraph, node_of: dict[int, int], big: int) -> DynamicGraph:
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
    quotient = DynamicGraph()
    quotient._adj = qadj
    return quotient


def fold_links(
    quotient: DynamicGraph, graph: DynamicGraph, v: int, folds: list[int]
) -> DynamicGraph:
    """Merge into v the node that each far end in ``folds`` names in ``quotient``; return it.

    A far end no longer in the quotient was merged already, and is skipped.
    A quotient is edited in place; ``graph`` itself is copied before the first merge.
    """
    for x in folds:
        if x in quotient._adj:
            if quotient is graph:
                quotient = graph.copy()
            _fold(quotient._adj, v, x)
    return quotient


def _fold(adj: dict[int, dict[int, int]], v: int, w: int) -> None:
    """Merge node w into node v of the rows ``adj`` by the sum rule; v keeps its name."""
    row, into = adj.pop(w), adj[v]
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
    builds for them, so each ``far`` names its subtree's node.  A far end
    folded into v is in no side, so it never moves; a link folded into
    another near end must be left out of ``links``.  A subtree that lands
    on the other side from its ``near`` moves, with its cost, to u or v,
    whichever shares its side; a link leaves its node, so it is never thin.
    No move can close a cycle: far's subtree is cut off first, and u and v
    lie in the other part.  Returns the cut and the far ends that moved.
    """
    cut = min_cut(quotient, u, v)
    moved = []
    for far, near in links:
        if (near in cut.side) != (far in cut.side):
            c = tree.cost(far, near)
            tree.remove_edge(far, near)
            tree.add_edge(far, u if far in cut.side else v, c)
            moved.append(far)
    return cut, moved


def _split_node(
    tree: CutTree, graph: DynamicGraph, members: list[int], inexact: set[tuple[int, int]]
) -> tuple[list[int], list[int]]:
    """Split a compound node along a minimum cut of its two smallest members.

    ``members`` lists the node in increasing order.  ``inexact`` holds the
    pairs of the links not known to be exact; one that the step moves is
    replaced by its new pair.  Returns the two sides, u's and then v's, in
    the same order.
    """
    node = set(members)
    u, v = members[0], members[1]
    adj = tree._adj
    links = [(far, near) for near in members for far in adj[near] if far not in node]
    quotient = graph
    # Fold only where the step contracts anyway: a step whose far ends are
    # all leaves cuts graph itself.  A folded link never moves, so cut_step
    # gets only the others.  The scan yields only at a far end that is not
    # a leaf, so a step that cannot fold pays no generator switch per link.
    if any(True for far, _ in links if len(adj[far]) > 1):
        rows = graph._adj
        bound = min(sum(rows[u].values()), sum(rows[v].values()))
        kept, folds = [], []
        for far, near in links:
            if adj[far][near] > bound and pair_key(far, near) not in inexact:
                folds.append((far, near))
            else:
                kept.append((far, near))
        links = kept
        quotient = contract_links(tree, graph, links, folds)
    cut, moved = cut_step(tree, quotient, links, u, v)
    if inexact and moved:
        for far, near in links:
            if far in moved and (pair := pair_key(far, near)) in inexact:
                inexact.remove(pair)
                inexact.add(pair_key(far, u if far in cut.side else v))

    # Every edge inside the node is a member's edge to a parent in the node.
    # Each side becomes a zero-cost star on its smallest member, u or v.  An
    # inside edge that already belongs to a star stays; the others go, and
    # only the members they left re-join their centre.  {u, v} goes too and
    # comes back at the cut's cost, so add_edge hangs one side below the
    # other as a full rebuild would, which keeps tree paths as short.  No
    # split reads the cost of an edge inside its node.
    up, adj = tree._up, tree._adj
    hub = {w: u if w in cut.side else v for w in members[2:]}
    for w in members:
        p = up[w]
        if p in node and hub.get(w) != p and hub.get(p) != w:
            tree.remove_edge(w, p)
    tree.add_edge(u, v, cut.cost)
    for w, h in hub.items():
        if h not in adj[w]:
            tree.add_edge(h, w, 0)
    return [w for w in members if w in cut.side], [w for w in members if w not in cut.side]


def complete(
    tree: CutTree,
    graph: DynamicGraph,
    nodes: Iterable[Iterable[int]],
    inexact: Iterable[tuple[int, int]],
) -> int:
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

    An edge between two nodes is *exact* when its cost c is lambda of its own
    two ends in ``graph``.  ``inexact`` lists, as vertex pairs, the edges
    between two nodes not known to be exact; every other one must be exact.
    A static build has no such edge.  An increase hands over the path edge
    it raises: a minimum b-d cut, not always a minimum cut of its own ends.

    The split of u from v folds each exact link (far, near), near in the
    node, whose cost c is above U, the smaller weighted degree of u and v:
    far's subtree merges into near's node of the quotient.  Either vertex
    alone is a u-v cut, so lambda(u, v) <= U.  A cut that parts far's
    subtree from near separates far from near, so it costs at least c > U,
    and no minimum u-v cut does that.  The merge keeps every minimum cut,
    and so the cut's cost and the smallest side that ``min_cut`` returns.
    A link at exactly U stays apart, and a link in ``inexact`` never folds.

    A link that a split moves stays exact.  Say the cut S holds far and u,
    and near and v, so the link moves to (far, u).  S separates far from
    near, so lambda(u, v) >= c.  By Gomory and Hu's lemma some minimum far-u
    cut does not split the complement of S, so lambda(far, u) may be taken
    in ``graph`` with that complement shrunk to one vertex s.  There
    lambda(far, u) >= min(lambda(far, s), lambda(s, u)) >= min(c, lambda(u,
    v)) = c: a far-s cut parts far from near, and an s-u cut parts v from u.
    Far's subtree costs c and does not hold u, so lambda(far, u) = c.  The
    case of far with v is the mirror image.  The edge {u, v} is exact at the
    cut's cost.  A moved link of ``inexact`` stays in it under its new pair.
    """
    # disjoint sorted lists compare by their first, smallest members
    heap = [members for members in map(sorted, nodes) if len(members) > 1]
    heapify(heap)
    inexact = {pair_key(x, y) for x, y in inexact}
    splits = 0
    while heap:
        for side in _split_node(tree, graph, heappop(heap), inexact):
            if len(side) > 1:
                heappush(heap, side)
        splits += 1
    return splits


def static_build(graph: DynamicGraph) -> CutTree:
    """Build a cut tree from scratch with n-1 min-cut computations."""
    if graph.vertex_count == 0:
        raise EmptyGraph("cannot build a cut tree of an empty graph")
    # one node of every vertex, joined by a zero-cost star on the smallest
    verts = sorted(graph.vertices)
    tree = CutTree(verts, [(verts[0], v, 0) for v in verts[1:]])
    complete(tree, graph, [verts], ())
    return tree
