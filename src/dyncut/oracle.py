"""Ground truth for cut trees: the Gomory-Hu certificate on a kernel of its own.

Gomory and Hu (1961): a spanning tree on the graph's vertices is a cut tree
iff, for every tree edge {u, v}, the bipartition it induces costs exactly its
label and the label equals the connectivity of u and v.  Path minima then
give every pair's connectivity, so n-1 flows check the whole tree.

Those connectivities come from :func:`max_flow_value`, a plain Edmonds-Karp
(shortest augmenting paths found by breadth-first search) on a residual copy
of the adjacency rows.  It shares no code with the kernel that builds the
trees, so a fault there cannot vouch for itself.  :func:`all_pairs_connectivity`
instead inspects all 2^(n-1) bipartitions: independent of any flow code, and
capped at 12 vertices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyGraph, EnumerationTooLarge, SameVertex, VertexSetMismatch
from .graph import DynamicGraph, Pair, cut_cost, pair_key
from .tree import CutTree

MAX_ENUMERATION_VERTICES = 12


def _bits(n: int) -> np.ndarray:
    """Membership table of all bipartitions with vertex 0 pinned to one side."""
    masks = np.arange(1 << (n - 1), dtype=np.int32)
    bits = np.zeros((n, len(masks)), dtype=bool)
    bits[1:] = (masks >> np.arange(n - 1, dtype=np.int32)[:, None]) & 1
    return bits


def all_pairs_connectivity(graph: DynamicGraph) -> dict[Pair, int]:
    """Minimum cut cost for every vertex pair, by checking every bipartition."""
    verts = sorted(graph.vertices)
    n = len(verts)
    if n == 0:
        raise EmptyGraph("graph has no vertices")
    if n > MAX_ENUMERATION_VERTICES:
        raise EnumerationTooLarge(
            f"{n} vertices exceed the enumeration cap of {MAX_ENUMERATION_VERTICES}"
        )
    if n == 1:
        return {}
    index = {v: i for i, v in enumerate(verts)}
    bits = _bits(n)
    # no cut costs more than the total weight, so int64 sums are exact below
    # 2**63; heavier graphs add Python integers instead
    dtype = np.int64 if sum(w for _, _, w in graph.edges()) < 2**63 else object
    costs = np.zeros(bits.shape[1], dtype=dtype)
    for u, v, w in graph.edges():
        costs += np.multiply(bits[index[u]] ^ bits[index[v]], w, dtype=dtype)
    lam: dict[Pair, int] = {}
    for i in range(n):
        bi = bits[i]
        for j in range(i + 1, n):
            sep = bi ^ bits[j]
            lam[(verts[i], verts[j])] = int(costs[sep].min())
    return lam


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
    if tree.edge_count != max(n - 1, 0) or n and len(_component(tree)) != n:
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


def _component(tree: CutTree) -> set[int]:
    start = next(iter(tree.vertices))
    seen = {start}
    stack = [start]
    while stack:
        x = stack.pop()
        for y in tree.neighbors(x):
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return seen
