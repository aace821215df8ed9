"""Output check that shares no code with dyncut.

The graph is rebuilt from the stream text by its own reader, and every
connectivity comes from networkx ``preflow_push``.  A spanning tree is a
Gomory-Hu tree of a graph iff, for every tree edge {u, v} with label c, the
vertex set on u's side costs exactly c in the graph and c equals the u-v
connectivity.  So n - 1 independent max-flows certify the whole tree.
"""

from __future__ import annotations

from collections import deque

import networkx as nx
import numpy as np
from networkx.algorithms.flow import build_residual_network, preflow_push


def reference_graph(stream_text: str) -> nx.Graph:
    """Apply the stream text to an empty networkx graph."""
    g = nx.Graph()
    for raw in stream_text.splitlines():
        body = raw.split("#", 1)[0].split()
        if not body:
            continue
        code, nums = body[0], [int(x) for x in body[1:]]
        if code == "av":
            g.add_node(nums[0])
        elif code == "rv":
            g.remove_node(nums[0])
        elif code == "ae":
            g.add_edge(nums[0], nums[1], weight=nums[2])
        elif code == "re":
            g.remove_edge(nums[0], nums[1])
        elif code == "iw":
            g[nums[0]][nums[1]]["weight"] += nums[2]
        elif code == "dw":
            g[nums[0]][nums[1]]["weight"] -= nums[2]
        else:
            raise ValueError(f"unknown event code {code!r}")
    return g


def same_graph(g: nx.Graph, vertices, edges) -> bool:
    """Whether ``vertices`` and ``(u, v, w)`` ``edges`` describe ``g`` exactly."""
    mine = {(min(u, v), max(u, v)): w for u, v, w in g.edges(data="weight")}
    theirs = {(min(u, v), max(u, v)): w for u, v, w in edges}
    return set(g.nodes) == set(vertices) and mine == theirs


def tree_problems(g: nx.Graph, tree_edges) -> list[str]:
    """Every way in which ``tree_edges`` ``(u, v, c)`` is not a Gomory-Hu tree of ``g``."""
    tree_edges = list(tree_edges)
    adj: dict[int, list[int]] = {v: [] for v in g.nodes}
    for u, v, _ in tree_edges:
        if u not in adj or v not in adj:
            return [f"tree edge {{{u},{v}}} leaves the graph's vertex set"]
        adj[u].append(v)
        adj[v].append(u)
    n = g.number_of_nodes()
    if len(tree_edges) != max(0, n - 1):
        return [f"{len(tree_edges)} tree edges on {n} vertices"]
    if n == 0:
        return []

    # Preorder numbering: the subtree below each vertex is one index range.
    root = next(iter(adj))
    order, parent = [], {root: None}
    stack = [root]
    while stack:
        x = stack.pop()
        order.append(x)
        for y in adj[x]:
            if y not in parent:
                parent[y] = x
                stack.append(y)
    if len(order) != n:
        return ["the tree is not connected"]
    pos = {v: i for i, v in enumerate(order)}
    size = dict.fromkeys(order, 1)
    for x in reversed(order[1:]):
        size[parent[x]] += size[x]
    edges = list(g.edges(data="weight"))
    ends = np.array([(pos[a], pos[b]) for a, b, _ in edges], dtype=np.int64).reshape(-1, 2)
    weights = np.array([w for _, _, w in edges], dtype=np.int64)

    component = {}
    for comp in nx.connected_components(g):
        sub = g.subgraph(comp)
        residual = build_residual_network(sub, "weight")
        for v in comp:
            component[v] = (sub, residual)

    problems = []
    for u, v, c in tree_edges:
        child = u if parent.get(u) == v else v
        lo, hi = pos[child], pos[child] + size[child]
        inside = (ends >= lo) & (ends < hi)
        induced = int(weights[inside[:, 0] != inside[:, 1]].sum())
        if induced != c:
            problems.append(f"tree edge {{{u},{v}}}: label {c}, side costs {induced}")
            continue
        sub, residual = component[u]
        if v not in sub:
            lam = 0
        else:
            preflow_push(sub, u, v, capacity="weight", residual=residual, value_only=True)
            lam = residual.graph["flow_value"]
        if lam != c:
            problems.append(f"tree edge {{{u},{v}}}: label {c}, connectivity {lam}")
    return problems


def tree_path_min(tree_edges, pairs) -> list[int]:
    """Cheapest edge on the tree path of each pair, by this module's own walk."""
    adj: dict[int, list[tuple[int, int]]] = {}
    for u, v, c in tree_edges:
        adj.setdefault(u, []).append((v, c))
        adj.setdefault(v, []).append((u, c))
    root = next(iter(adj))
    up = {root: (None, None)}  # vertex -> (parent, cost of the edge to it)
    depth = {root: 0}
    dq = deque([root])
    while dq:
        x = dq.popleft()
        for y, c in adj[x]:
            if y not in up:
                up[y] = (x, c)
                depth[y] = depth[x] + 1
                dq.append(y)
    out = []
    for s, t in pairs:
        best = None
        while s != t:
            if depth[s] < depth[t]:
                s, t = t, s
            s, c = up[s]
            best = c if best is None else min(best, c)
        out.append(best)
    return out
