"""Update routines that carry a cut tree across one atomic graph change.

Vertex inserts/deletes and bridge edges are handled by pure tree surgery
with zero cut computations.  A non-bridge weight increase reuses every cut
off the tree path between the changed endpoints plus one cut on it, then
rebuilds the rest.  A weight decrease or deletion pops the stale cuts that
touch the changed path from a heap, most expensive first, and re-certifies
each by a cost threshold, a bridge/zero-cost rule, or (only when those
fail) the Gomory-Hu step of ``complete``, :func:`dyncut.tree.cut_step`: a
fresh min-cut that reshapes the tree only when it finds a cheaper cut.
:func:`dyncut.tree.contract_links`, which shares ``complete``'s quotient
builder, builds its quotient, and each cut spends the quotient it is
given.  Every cut of a leaf u at the same path vertex v cuts the same
quotient, the subtrees beyond v's other neighbours, so the walk builds it
once per v, cuts a copy of it, and drops every kept one when a cut moves
a subtree.  Then, before a cut of stale cost c,
:func:`dyncut.tree.fold_links` merges into v each of v's neighbour
subtrees whose edge costs more than c.  Such an edge was popped first, so
it is settled, a path edge or one the walk certified: splitting it from v
costs more than c, and the stale side at most c, so no minimum cut does.
``complete`` folds the same way, with the smaller weighted degree of the
two vertices it cuts apart in place of c, but only exact links, whose
cost is the connectivity of their own ends: those that leave the nodes it
is given or stay within one.  Every edge off an increase's b-d path is
exact: its cut does not separate b and d, so it keeps its cost while
connectivity only grows.  The raised path edge joins the path's two parts.

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
    VertexMissing,
    VertexNotIsolated,
)
# contract, min_cut and query_value are unused here; perfbench/tracer.py
# wraps all three names
from .graph import (
    DynamicGraph,
    Pair,
    check_weight,
    contract,
    pair_key,
)
from .mincut import min_cut
from .tree import CutTree, _reach, complete, contract_links, cut_step, fold_links, query_value

EXISTING_BRIDGE = "existing-bridge"
NEW_BRIDGE = "new-bridge"
NON_BRIDGE = "non-bridge"

RULE_BRIDGE = "bridge"
RULE_NEW_BRIDGE = "new-bridge"
RULE_THRESHOLD = "threshold"
RULE_ZERO_OR_BRIDGE = "zero-or-bridge-edge"
RULE_REVALIDATED = "revalidated"
RULE_RECOMPUTED = "recomputed"


@dataclass(frozen=True)
class UpdateStats:
    """What one update decided: its cut computations and reuse rules.

    The event itself and its static-equivalent cost are the caller's to
    record; :func:`dyncut.replay.replay` writes both into its row.

    ``reuse_breakdown`` counts, per rule, the former tree edges the routine
    actually processed; edges re-certified inside a retained subtree inherit
    the rule of the edge that triggered the retention.  ``accepted_stale``
    lists each edge the decrease walk certified by the threshold or
    zero-or-bridge rule, with its stale cost and that rule: audit data for
    reuse-soundness checks.  Edges inside a certified subtree and bridges
    get no row; each keeps its final cost in the tree.
    """

    cuts_used: int = 0
    reuse_breakdown: dict[str, int] = field(default_factory=dict)
    accepted_stale: tuple[tuple[Pair, int, str], ...] = ()


def _bridge_kind(w_before: int, lam: int) -> str:
    """Classify {b, d} from its weight before the change (0 if absent) and lambda(b, d).

    An existing edge is a bridge iff its weight equals the connectivity of
    its endpoints; {b, d} is a new bridge iff they are disconnected.
    """
    if w_before > lam:
        raise InvalidDelta(f"weight {w_before} before the change exceeds connectivity {lam}")
    if w_before == lam and lam > 0:
        return EXISTING_BRIDGE
    if lam == 0:
        return NEW_BRIDGE
    return NON_BRIDGE


def update_add_vertex(tree: CutTree, vertex: int) -> None:
    """Insert an isolated vertex, attached by a zero-cost edge."""
    anchor = tree.least_vertex
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
    # valid with cost +delta.  The path's two parts on either side of it are
    # complete's nodes: one cut per other edge, and the raised one never folds.
    i = costs.index(lam)
    tree.set_cost(*pedges[i], lam + delta)
    cuts = complete(tree, graph, [verts[: i + 1], verts[i + 1 :]])
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
    its old weight.  An edge off the b-d path is stale until the walk reaches
    it.  During the walk every path edge and every certified edge is a
    minimum cut of the graph after the change, and every stale edge one of
    the graph before.
    """
    check_weight(delta)
    old_w = graph.weight(b, d) + delta if graph.has_edge(b, d) else delta

    # one path search serves the bridge test and the whole stale-cost walk
    pverts = tree.path_vertices(b, d)
    pedges = list(zip(pverts, pverts[1:]))
    lam = min(tree.cost(x, y) for x, y in pedges)
    if _bridge_kind(old_w, lam) == EXISTING_BRIDGE:
        # The b-d path is the one edge {b, d}.  Before the change w(b,d) =
        # lam > 0, so the vertices split into B holding b and D holding d,
        # joined by {b, d} alone.  Let x be b's path neighbour and S b's side
        # of {b, x}, at cost c >= lam; {b, d} crosses S, so S | D costs at
        # most c - lam.  If x were in B, S | D would cut b from x below c.  If
        # x were in D but not d, (B, D) would make c = lam, and S | D would
        # cut b at cost 0 from d's path neighbour y, which the mirror argument
        # puts in B: below lambda(b, y) >= lam.
        if not tree.has_edge(b, d):
            raise InternalInvariantViolation("a bridge must appear as a tree edge")
        tree.set_cost(b, d, lam - delta)
        return UpdateStats(0, {RULE_BRIDGE: 1})

    # Stale-cost walk: path edges stay valid at cost -delta.  Every other edge
    # is stale until the walk reaches it, most expensive first.  A certified
    # {x, v} never moves: a later cut at v that reshapes costs less than its
    # own stale cost, at most lambda(x, v), so it cannot separate x from v.
    for x, y in pedges:
        tree.set_cost(x, y, tree.cost(x, y) - delta)
    initial_stale = (tree.vertex_count - 1) - len(pedges)

    # Frontier heap: edges (u, v) with v on the path and u off it, most
    # expensive first.  A reshape can move an edge away or re-create its pair
    # as a path edge.
    pset, frontier = set(pverts), []

    def push_frontier(v: int) -> None:
        for u, c in tree.neighbors(v).items():
            if u not in pset:
                heappush(frontier, (-c, *pair_key(u, v), u, v))

    for v in pverts:
        push_frontier(v)
    # path vertex v -> the quotient that every cut of a leaf at v uses
    leaf_quotients: dict[int, DynamicGraph] = {}
    cuts = 0
    breakdown: dict[str, int] = {}
    accepted: list[tuple[Pair, int, str]] = []
    while frontier:
        neg_stale, _, _, u, v = heappop(frontier)
        nbrs = tree.neighbors(v)
        if u in pset or u not in nbrs:
            continue
        stale = -neg_stale
        rule = None
        # u is off the b-d path and b, d are on it, so {u, v} is not the
        # changed edge and its weight is the same before and after
        if stale == 0 or graph.neighbors(u).get(v) == stale:
            rule = RULE_ZERO_OR_BRIDGE
        else:
            # path vertices adjacent in the tree are adjacent on the path
            flanks = [x for x in nbrs if x in pset]
            if min(nbrs[x] for x in flanks) >= stale:
                rule = RULE_THRESHOLD

        if rule is not None:
            accepted.append((pair_key(u, v), stale, rule))
        else:
            # the node is v plus u's subtree; v's other subtrees hang off it
            links = [(x, v) for x in nbrs if x != u]
            # Each {x, v} above stale is settled, so it costs lambda(x, v):
            # v's off-path edges were pushed when v joined the path, keep
            # their costs until they join it, and move only away from v, to
            # u, so {x, v} was popped first.  u's subtree is a u-v cut of cost
            # at most stale, so no minimum u-v cut splits x's node from v:
            # merged into v, it leaves the cut as it was.  An edge tied at
            # stale may be stale, and stays apart.
            folds = [x for x, c in nbrs.items() if c > stale]
            # A leaf u stays a singleton, so every leaf at v shares v's
            # quotient, merges and all: until a cut moves a subtree no edge
            # is pushed, so the stale costs at v only fall.
            leaf = len(tree.neighbors(u)) == 1
            quotient = leaf and leaf_quotients.get(v) or contract_links(tree, graph, links)
            fold_links(quotient, v, folds)
            if leaf:
                leaf_quotients[v] = quotient
            cut, moved = cut_step(tree, quotient.copy() if leaf else quotient, links, u, v)
            if moved:
                # a moved subtree changes the groups of the quotients around it
                leaf_quotients.clear()
            cuts += 1
            if cut.cost > stale:
                raise InternalInvariantViolation(
                    f"recomputed cut {cut.cost} exceeds the stale bound {stale}"
                )
            if cut.cost < stale:
                tree.set_cost(u, v, cut.cost)
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
        breakdown[rule] = breakdown.get(rule, 0) + _stale_subtree(tree, u, v)

    # each stale edge is certified once, or recomputed and so on the path
    if sum(breakdown.values()) != initial_stale:
        raise InternalInvariantViolation(
            f"the walk settled {sum(breakdown.values())} of {initial_stale} stale edges"
        )
    return UpdateStats(cuts, breakdown, tuple(accepted))


def _stale_subtree(tree: CutTree, u: int, v: int) -> int:
    """How many stale edges {u, v}'s certificate covers: it and the subtree hanging at u."""
    return len(_reach(tree._adj, u, {v}))
