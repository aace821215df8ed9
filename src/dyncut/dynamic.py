"""Update routines that carry a cut tree across one atomic graph change.

Vertex inserts/deletes and bridge edges are handled by pure tree surgery
with zero cut computations.  A non-bridge weight increase reuses every cut
off the tree path between the changed endpoints plus one cut on it, then
rebuilds the rest.  A weight decrease or deletion pops the stale cuts that
touch the changed path from a heap, most expensive first, and re-certifies
each by a cost threshold, a bridge/zero-cost rule, or (only when those
fail) the Gomory-Hu step of ``complete``, :func:`dyncut.tree.cut_step`: a
fresh min-cut that reshapes the tree only when it finds a cheaper cut.
Every cut of a leaf u at the same path vertex v contracts the same graph,
the subtrees beyond v's other neighbours, so the walk builds that quotient
once per v and drops every kept one when a cut moves a subtree.

Every routine edits the tree it is given.  The vertex routines return
nothing; the increase and decrease routines return the event's
:class:`UpdateStats`.  Invalid input raises before the first tree write,
so a rejected call leaves the tree as it was.  The increase and decrease
routines take the graph after the change.  The old weight of the changed
edge follows from the change itself, and no other weight differs, so
neither routine needs the graph from before.  An old weight above the
tree's connectivity of the endpoints is such invalid input.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heappop, heappush

from .errors import (
    InternalInvariantViolation,
    InvalidDelta,
    VertexExists,
    VertexMissing,
    VertexNotIsolated,
)
# contract and min_cut are unused here; perfbench/tracer.py wraps both names
from .graph import (
    DynamicGraph,
    Pair,
    check_weight,
    contract,
    pair_key,
)
from .mincut import min_cut
from .tree import CutTree, complete, contract_links, cut_step, query_value

EXISTING_BRIDGE = "existing-bridge"
NEW_BRIDGE = "new-bridge"
NON_BRIDGE = "non-bridge"

RULE_BRIDGE = "bridge"
RULE_NEW_BRIDGE = "new-bridge"
RULE_THRESHOLD = "threshold"
RULE_ZERO_OR_BRIDGE = "zero-or-bridge-edge"
RULE_REVALIDATED = "revalidated"
RULE_RECOMPUTED = "recomputed"

UNFOLD_TAG = "unfold"


@dataclass(frozen=True)
class UpdateStats:
    """What one update decided: its cut computations and reuse rules.

    The event itself and its static-equivalent cost are the caller's to
    record; :func:`dyncut.replay.replay` writes both into its row.

    ``reuse_breakdown`` counts, per rule, the former tree edges the routine
    actually processed; edges re-certified inside a retained subtree inherit
    the rule of the edge that triggered the retention.  ``accepted_stale``
    lists every edge that was accepted without a fresh cut computation,
    with its (stale) cost and the rule that accepted it - audit data for
    reuse-soundness checks.
    """

    cuts_used: int = 0
    reuse_breakdown: dict[str, int] = field(default_factory=dict)
    accepted_stale: tuple[tuple[Pair, int, str], ...] = ()


def detect_bridge(tree: CutTree, graph: DynamicGraph, b: int, d: int) -> str:
    """Classify {b, d} with tree lookups only (no cut computation).

    An existing edge is a bridge iff its weight equals the connectivity of
    its endpoints; {b, d} is a new bridge iff the endpoints are currently
    disconnected (connectivity zero).
    """
    w = graph.weight(b, d) if graph.has_edge(b, d) else 0
    return _bridge_kind(w, query_value(tree, b, d))


def _bridge_kind(w_before: int, lam: int) -> str:
    """Classify {b, d} from its weight before the change (0 if absent)."""
    if w_before > lam:
        raise InvalidDelta(f"weight {w_before} before the change exceeds connectivity {lam}")
    if w_before == lam and lam > 0:
        return EXISTING_BRIDGE
    if lam == 0:
        return NEW_BRIDGE
    return NON_BRIDGE


def update_add_vertex(tree: CutTree, vertex: int) -> None:
    """Insert an isolated vertex, attached by a zero-cost edge."""
    if vertex in tree.vertices:
        raise VertexExists(f"vertex {vertex} already present")
    anchor = min(tree.vertices) if tree.vertex_count else None
    tree.add_vertex(vertex)
    if anchor is not None:
        tree.add_edge(vertex, anchor, 0)


def update_remove_vertex(tree: CutTree, vertex: int) -> None:
    """Delete an isolated vertex, starring orphaned subtrees back together.

    All tree edges at the vertex must carry cost zero (the tree-side
    consequence of graph isolation); orphans reconnect to the smallest-id
    former neighbor by zero-cost edges.
    """
    if vertex not in tree.vertices:
        raise VertexMissing(f"no vertex {vertex}")
    nbrs = sorted(tree.neighbors(vertex))
    for x in nbrs:
        if tree.cost(vertex, x) != 0:
            raise VertexNotIsolated(
                f"tree edge {{{vertex},{x}}} has nonzero cost {tree.cost(vertex, x)}"
            )
    tree.remove_vertex(vertex)
    for x in nbrs[1:]:
        tree.add_edge(nbrs[0], x, 0)


def update_increase(
    tree: CutTree,
    graph: DynamicGraph,
    b: int,
    d: int,
    delta: int,
) -> UpdateStats:
    """Carry the tree across an edge insertion or weight increase by delta.

    ``graph`` is the graph after the change; {b, d} weighed ``weight - delta``
    before it, and was absent if that is zero.
    """
    check_weight(delta)
    new_w = graph.weight(b, d)
    if new_w < delta:
        raise InvalidDelta(f"weight {new_w} of {{{b},{d}}} is below delta {delta}")
    old_w = new_w - delta
    # one path search serves the bridge test and the rebuild
    verts = tree.path_vertices(b, d)
    pedges = list(zip(verts, verts[1:]))
    costs = [tree.cost(x, y) for x, y in pedges]
    lam = min(costs)
    kind = _bridge_kind(old_w, lam)

    if kind == EXISTING_BRIDGE:
        if not tree.has_edge(b, d):
            raise InternalInvariantViolation("a bridge must appear as a tree edge")
        tree.set_cost(b, d, tree.cost(b, d) + delta)
        return UpdateStats(0, {RULE_BRIDGE: 1})

    if kind == NEW_BRIDGE:
        x, y = pedges[costs.index(0)]
        tree.remove_edge(x, y)
        tree.add_edge(b, d, new_w)
        return UpdateStats(0, {RULE_NEW_BRIDGE: 1})

    # General route: every edge off the b-d path keeps its cut; the cheapest
    # path edge (nearest to b on ties) is a minimum b-d cut, so it stays
    # valid with cost +delta and stays fat.  The other path edges turn thin,
    # and complete rebuilds them with one cut each.
    chosen = pedges[costs.index(lam)]
    for x, y in pedges:
        if (x, y) != chosen:
            tree.mark_thin(x, y)
    tree.set_cost(*chosen, lam + delta)
    cuts = complete(tree, graph)
    if cuts != len(pedges) - 1:
        raise InternalInvariantViolation(
            f"rebuild used {cuts} cuts, expected {len(pedges) - 1}"
        )
    breakdown = {RULE_RECOMPUTED: cuts} if cuts else {}
    return UpdateStats(cuts, breakdown)


def update_decrease(
    tree: CutTree,
    graph: DynamicGraph,
    b: int,
    d: int,
    delta: int,
) -> UpdateStats:
    """Carry the tree across a weight decrease by delta or an edge deletion.

    ``graph`` is the graph after the change; {b, d} weighed ``weight + delta``
    before it.  An edge missing from ``graph`` was deleted, and ``delta`` is
    its old weight.  During the walk every fat edge is a minimum cut of the
    graph after the change and every thin edge one of the graph before.
    """
    check_weight(delta)
    old_w = graph.weight(b, d) + delta if graph.has_edge(b, d) else delta

    # one path search serves the bridge test and the whole stale-cost walk
    pverts = tree.path_vertices(b, d)
    pedges = list(zip(pverts, pverts[1:]))
    lam = min(tree.cost(x, y) for x, y in pedges)
    if _bridge_kind(old_w, lam) == EXISTING_BRIDGE:
        for x, y in pedges:
            tree.set_cost(x, y, tree.cost(x, y) - delta)
        accepted = tuple(
            (pair_key(x, y), c, RULE_BRIDGE) for x, y, c in sorted(tree.edges())
        )
        return UpdateStats(0, {RULE_BRIDGE: len(pedges)}, accepted)

    # Stale-cost walk: path edges stay valid at cost -delta; everything else
    # turns thin and is re-certified most-expensive-first.
    path_pairs = {pair_key(x, y) for x, y in pedges}
    for x, y, c in tree.edges():
        if (x, y) in path_pairs:
            tree.set_cost(x, y, c - delta)
        else:
            tree.mark_thin(x, y)
    initial_thin = (tree.vertex_count - 1) - len(path_pairs)

    # Frontier heap: thin edges (u, v) with v on the path, most expensive first.
    # A reshape can move an edge away or re-create its pair as a fat path edge.
    pset, frontier = set(pverts), []

    def push_frontier(v: int) -> None:
        for u, c in tree.neighbors(v).items():
            if tree.is_thin(u, v):
                heappush(frontier, (-c, *pair_key(u, v), u, v))

    for v in pverts:
        push_frontier(v)
    # path vertex v -> the quotient and node map that every cut of a leaf at v uses
    leaf_quotients: dict[int, tuple[DynamicGraph, dict[int, int]]] = {}
    cuts = 0
    breakdown: dict[str, int] = {}
    accepted: list[tuple[Pair, int, str]] = []
    while frontier:
        neg_stale, _, _, u, v = heappop(frontier)
        if not (tree.has_edge(u, v) and tree.is_thin(u, v)):
            continue
        if u in pset:
            raise InternalInvariantViolation(
                f"thin edge {{{u},{v}}} has both endpoints on the path"
            )
        stale = -neg_stale
        # path vertices adjacent in the tree are adjacent on the path
        flanks = [x for x in tree.neighbors(v) if x in pset]
        threshold = min(tree.cost(x, v) for x in flanks)
        rule = None
        if stale == 0:
            rule = RULE_ZERO_OR_BRIDGE
        # u is off the b-d path and b, d are on it, so {u, v} is not the
        # changed edge and its weight is the same before and after
        elif graph.has_edge(u, v) and graph.weight(u, v) == stale:
            rule = RULE_ZERO_OR_BRIDGE
        elif threshold >= stale:
            rule = RULE_THRESHOLD

        if rule is not None:
            accepted.append((pair_key(u, v), stale, rule))
        else:
            # the node is v plus u's subtree; v's other subtrees hang off it
            links = [(x, v) for x in tree.neighbors(v) if x != u]
            contraction = None
            if len(tree.neighbors(u)) == 1:
                # a leaf u stays a singleton, so every leaf at v shares v's quotient
                contraction = leaf_quotients.get(v)
                if contraction is None:
                    contraction = leaf_quotients[v] = contract_links(tree, graph, links)
            cut, moved = cut_step(tree, graph, links, u, v, contraction)
            if moved:
                # a moved subtree changes the groups of the quotients around it
                leaf_quotients.clear()
            cuts += 1
            if cut.cost > stale:
                raise InternalInvariantViolation(
                    f"recomputed cut {cut.cost} exceeds the stale bound {stale}"
                )
            if cut.cost < stale:
                tree.mark_fat(u, v, cut.cost)
                breakdown[RULE_RECOMPUTED] = breakdown.get(RULE_RECOMPUTED, 0) + 1
                if sum(x in flanks for x in moved) != 1:
                    raise InternalInvariantViolation(
                        "reshaped cut must pull exactly one path neighbor across"
                    )
                # u now sits on the path between the moved flank and v
                pset.add(u)
                push_frontier(u)
                continue
            # an equal cost makes u's subtree a minimum cut too, and min_cut
            # returns the smallest minimum side, which lies inside it
            if moved:
                raise InternalInvariantViolation(
                    f"revalidated cut {{{u},{v}}} moved subtrees at {moved}"
                )
            rule = RULE_REVALIDATED
        inherited = _fatten_subtree(tree, u, v)
        breakdown[rule] = breakdown.get(rule, 0) + 1 + len(inherited)
        accepted.extend((p, c, UNFOLD_TAG) for p, c in inherited)

    if tree.thin_edges():
        raise InternalInvariantViolation("thin edges remain but none touches the path")
    if cuts > initial_thin:
        raise InternalInvariantViolation(
            f"{cuts} cuts used, more than the {initial_thin} stale edges"
        )
    return UpdateStats(cuts, breakdown, tuple(accepted))


def _fatten_subtree(tree: CutTree, u: int, v: int) -> list[tuple[Pair, int]]:
    """Certify {u, v} and every stale edge of the subtree hanging at u."""
    tree.mark_fat(u, v)
    inherited = sorted(
        ((x, y), c)
        for x in tree.subtree(u, v)
        for y, c in tree.neighbors(x).items()
        if x < y and tree.is_thin(x, y)
    )
    for (x, y), _ in inherited:
        tree.mark_fat(x, y)
    return inherited
