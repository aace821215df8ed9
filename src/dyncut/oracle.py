"""Ground truth for cut trees: the Gomory-Hu certificate on a kernel of its own.

Gomory and Hu (1961): a spanning tree on the graph's vertices is a cut tree
iff, for every tree edge {u, v}, the bipartition it induces costs exactly its
label and the label equals the connectivity of u and v.  Path minima then
give every pair's connectivity, so n-1 flows check the whole tree.

Those connectivities come from :func:`max_flow_value`, a plain Edmonds-Karp
(shortest augmenting paths found by breadth-first search) on a residual copy
of the adjacency rows.  It shares no code with the kernel that builds the
trees, so a fault there cannot vouch for itself.  The structure check walks
the tree with ``tree._reach``, which :meth:`CutTree.subtree` runs for it too.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import SameVertex, VertexSetMismatch
from .graph import DynamicGraph, Pair, cut_cost, pair_key
from .tree import CutTree, _reach


def max_flow_value(graph: DynamicGraph, s: int, t: int) -> int:
    """Connectivity of s and t: the value of a maximum s-t flow, by Edmonds-Karp.

    Each undirected edge is a pair of opposite arcs of its weight; pushing f
    along one arc lowers its residual by f and raises its twin's by f.
    """
    if s == t:
        raise SameVertex(f"endpoints must differ, got {s}")
    graph.neighbors(s), graph.neighbors(t)  # raise for a missing vertex
    residual = {x: dict(graph.neighbors(x)) for x in graph.vertices}
    flow = 0
    while True:
        parent = {s: s}
        queue = [s]
        for x in queue:
            for y, r in residual[x].items():
                if r and y not in parent:
                    parent[y] = x
                    queue.append(y)
            if t in parent:
                break
        else:
            return flow
        path, y = [], t
        while y != s:
            path.append((parent[y], y))
            y = parent[y]
        push = min(residual[x][y] for x, y in path)
        for x, y in path:
            residual[x][y] -= push
            residual[y][x] += push
        flow += push


@dataclass(frozen=True)
class Violation:
    kind: str  # "structure" | "induced-cost" | "edge-connectivity"
    pair: Pair
    expected: int
    actual: int

    def __str__(self) -> str:
        return f"{self.kind} at {self.pair}: expected {self.expected}, got {self.actual}"


@dataclass(frozen=True)
class VerifyReport:
    ok: bool
    violations: tuple[Violation, ...]

    def __str__(self) -> str:
        if self.ok:
            return "pass"
        return "; ".join(str(v) for v in self.violations)


def verify_cut_tree(
    tree: CutTree, graph: DynamicGraph, lam: dict[Pair, int] | None = None
) -> VerifyReport:
    """Check a tree against the graph it claims to encode, by the Gomory-Hu certificate.

    Verifies that the tree spans the vertex set, that every edge's induced
    bipartition costs exactly its label, and that the label is the endpoints'
    connectivity.  Connectivities are read from ``lam`` when given (only the
    tree edges' pairs are looked up), otherwise one flow per tree edge.
    """
    if set(tree.vertices) != set(graph.vertices):
        raise VertexSetMismatch("tree and graph have different vertex sets")
    n = tree.vertex_count
    reached = _reach(tree._adj, tree.least_vertex, set()) if n else ()
    if tree.edge_count != max(n - 1, 0) or len(reached) != n:
        return VerifyReport(
            False, (Violation("structure", (0, 0), max(n - 1, 0), tree.edge_count),)
        )

    violations: list[Violation] = []
    for u, v, c in sorted(tree.edges()):
        induced = cut_cost(graph, tree.subtree(u, v))
        if induced != c:
            violations.append(Violation("induced-cost", (u, v), c, induced))
        expected = max_flow_value(graph, u, v) if lam is None else lam[pair_key(u, v)]
        if c != expected:
            violations.append(Violation("edge-connectivity", (u, v), expected, c))
    return VerifyReport(not violations, tuple(violations))
