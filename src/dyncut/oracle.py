"""Brute-force ground truth for connectivities, trees, and cut reshaping.

Everything here exists for correctness checking, not speed.  The
enumeration path inspects all 2^(n-1) bipartitions and is therefore capped
at small vertex counts.  The flow path calls the min-cut kernel under test
(and bumps its invocation counter), so it checks the tree against that
kernel but cannot catch a fault in the kernel itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyGraph, EnumerationTooLarge, UnknownVertex, VertexSetMismatch
from .graph import Cut, DynamicGraph, Pair, cut_cost, pair_key
from .mincut import min_cut
from .tree import CutTree

MAX_ENUMERATION_VERTICES = 12

_bits_cache: dict[int, np.ndarray] = {}


def _bits(n: int) -> np.ndarray:
    """Membership table of all bipartitions with vertex 0 pinned to one side."""
    arr = _bits_cache.get(n)
    if arr is None:
        masks = np.arange(1 << (n - 1), dtype=np.int64)
        rows = [np.zeros(len(masks), dtype=bool)]
        for i in range(1, n):
            rows.append(((masks >> (i - 1)) & 1).astype(bool))
        arr = np.vstack(rows)
        _bits_cache[n] = arr
    return arr


def all_pairs_connectivity(graph: DynamicGraph, method: str = "auto") -> dict[Pair, int]:
    """Minimum cut cost for every vertex pair.

    ``enumerate`` checks every bipartition (exact, independent of the flow
    kernel, n <= 12); ``flow`` runs one min-cut per pair and counts against
    the global cut counter; ``auto`` picks by size.
    """
    n = graph.vertex_count
    if n == 0:
        raise EmptyGraph("graph has no vertices")
    if method == "auto":
        method = "enumerate" if n <= MAX_ENUMERATION_VERTICES else "flow"
    if method == "enumerate":
        return _enumerated(graph)
    if method == "flow":
        verts = sorted(graph.vertices)
        return {
            (u, v): min_cut(graph, u, v).cost
            for i, u in enumerate(verts)
            for v in verts[i + 1 :]
        }
    raise ValueError(f"unknown method {method!r}")


def _enumerated(graph: DynamicGraph) -> dict[Pair, int]:
    verts = sorted(graph.vertices)
    n = len(verts)
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


@dataclass(frozen=True)
class Violation:
    kind: str  # "structure" | "induced-cost" | "edge-connectivity" | "query-value"
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
    tree: CutTree,
    graph: DynamicGraph,
    lam: dict[Pair, int] | None = None,
    method: str = "auto",
) -> VerifyReport:
    """Check a tree against the graph it claims to encode.

    Verifies that the tree spans the vertex set, that every edge's induced
    bipartition costs exactly its label, that the label is the endpoints'
    connectivity, and that path minima reproduce all-pairs connectivities.
    A precomputed connectivity map may be passed to avoid recomputation.
    """
    if set(tree.vertices) != set(graph.vertices):
        raise VertexSetMismatch("tree and graph have different vertex sets")
    n = tree.vertex_count
    if n <= 1:
        if tree.edge_count:
            return VerifyReport(
                False, (Violation("structure", (0, 0), 0, tree.edge_count),)
            )
        return VerifyReport(True, ())

    if tree.edge_count != n - 1 or len(_component(tree)) != n:
        return VerifyReport(
            False, (Violation("structure", (0, 0), n - 1, tree.edge_count),)
        )

    if lam is None:
        lam = all_pairs_connectivity(graph, method=method)

    violations: list[Violation] = []
    for u, v, c in sorted(tree.edges()):
        induced = cut_cost(graph, tree.subtree(u, v))
        if induced != c:
            violations.append(Violation("induced-cost", (u, v), c, induced))
        expected = lam[pair_key(u, v)]
        if c != expected:
            violations.append(Violation("edge-connectivity", (u, v), expected, c))
    for key, got in sorted(_all_query_values(tree).items()):
        if got != lam[key]:
            violations.append(Violation("query-value", key, lam[key], got))
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


def _all_query_values(tree: CutTree) -> dict[Pair, int]:
    """Path-minimum edge costs for all pairs, one traversal per root."""
    out: dict[Pair, int] = {}
    for root in tree.vertices:
        best = {root: None}
        stack = [root]
        while stack:
            x = stack.pop()
            for y, c in tree.neighbors(x).items():
                if y not in best:
                    here = c if best[x] is None else min(best[x], c)
                    best[y] = here
                    if root < y:
                        out[(root, y)] = here
                    stack.append(y)
    return out


def bend_cut(graph: DynamicGraph, moving: Cut, shelter: Cut, mode: str) -> Cut:
    """Reshape ``moving`` along a shelter side without splitting it.

    ``absorb`` adds the shelter side to the stored side, ``evict`` removes
    it; the returned cut carries its exact recomputed cost.  Pure helper for
    property checks - the tree updates realize these bends implicitly by
    reconnecting subtrees.
    """
    for x in moving.side | shelter.side:
        if x not in graph.vertices:
            raise UnknownVertex(f"vertex {x} not in graph")
    if mode == "absorb":
        side = moving.side | shelter.side
    elif mode == "evict":
        side = moving.side - shelter.side
    else:
        raise ValueError(f"mode must be 'absorb' or 'evict', got {mode!r}")
    if not side or len(side) == graph.vertex_count:
        raise ValueError("bend would empty one cut side")
    return Cut(frozenset(side), cut_cost(graph, side))
