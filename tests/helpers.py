"""Shared strategies, scenario drivers and test-only helpers for the test suite."""

import random
from contextlib import contextmanager
from typing import NamedTuple

import hypothesis.strategies as st
import numpy as np
import pytest
import networkx as nx
from networkx.algorithms.flow import boykov_kolmogorov

import dyncut.dynamic
import dyncut.mincut
import dyncut.tree
from dyncut import (
    ADD_EDGE,
    ADD_VERTEX,
    DECREASE_WEIGHT,
    INCREASE_WEIGHT,
    REMOVE_EDGE,
    REMOVE_VERTEX,
    Cut,
    DynamicGraph,
    cut_cost,
    verify_cut_tree,
)
from dyncut.errors import EmptyGraph, VertexMissing
from dyncut.graph import EVENT_KINDS, contract, pair_key
from dyncut.stream import _applicable, _draw

SCENARIO_MIX = {
    ADD_VERTEX: 0.05,
    REMOVE_VERTEX: 0.05,
    ADD_EDGE: 0.25,
    REMOVE_EDGE: 0.20,
    INCREASE_WEIGHT: 0.25,
    DECREASE_WEIGHT: 0.20,
}

ALL_KINDS_MIX = {k: 1 / 6 for k in SCENARIO_MIX}


@st.composite
def graphs(draw, min_vertices=2, max_vertices=7, max_weight=9):
    n = draw(st.integers(min_vertices, max_vertices))
    verts = list(range(1, n + 1))
    pairs = [(u, v) for i, u in enumerate(verts) for v in verts[i + 1 :]]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    weights = draw(
        st.lists(st.integers(1, max_weight), min_size=len(pairs), max_size=len(pairs))
    )
    edges = [(u, v, w) for (u, v), k, w in zip(pairs, keep, weights) if k]
    return DynamicGraph(vertices=verts, edges=edges)


MAX_ENUMERATION_VERTICES = 12


class EnumerationTooLarge(Exception):
    pass


def _bits(n: int) -> np.ndarray:
    """Membership table of all bipartitions with vertex 0 pinned to one side."""
    masks = np.arange(1 << (n - 1), dtype=np.int32)
    bits = np.zeros((n, len(masks)), dtype=bool)
    bits[1:] = (masks >> np.arange(n - 1, dtype=np.int32)[:, None]) & 1
    return bits


def all_pairs_connectivity(graph):
    """Minimum cut cost for every vertex pair, by checking all 2^(n-1) bipartitions.

    Independent of any flow code, so it can judge both the kernel under test
    and the certificate's own Edmonds-Karp; capped at 12 vertices.
    """
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
    lam = {}
    for i in range(n):
        bi = bits[i]
        for j in range(i + 1, n):
            sep = bi ^ bits[j]
            lam[(verts[i], verts[j])] = int(costs[sep].min())
    return lam


def random_graph(rng: random.Random, n_min=4, n_max=10, edge_prob=0.5, max_weight=8):
    n = rng.randint(n_min, n_max)
    g = DynamicGraph(vertices=range(1, n + 1))
    for u in range(1, n + 1):
        for v in range(u + 1, n + 1):
            if rng.random() < edge_prob:
                g.add_edge(u, v, rng.randint(1, max_weight))
    return g


def nx_min_cut(g, s, t):
    """Max-flow value and residual-reachable side of s, from networkx alone."""
    h = nx.Graph()
    h.add_nodes_from(g.vertices)
    h.add_weighted_edges_from(g.edges(), weight="capacity")
    r = boykov_kolmogorov(h, s, t)
    side, stack = {s}, [s]
    while stack:
        x = stack.pop()
        for y, arc in r[x].items():
            if arc["capacity"] - arc["flow"] > 0 and y not in side:
                side.add(y)
                stack.append(y)
    return r.graph["flow_value"], frozenset(side)


def sparse_graph(rng, n, big):
    """About 3n random edges on n vertices; ``big`` lifts every weight past 2^70."""
    g = DynamicGraph(vertices=range(n))
    for _ in range(3 * n):
        u, v = rng.sample(range(n), 2)
        if v not in g._adj[u]:
            w = rng.randint(1, 8)
            g.add_edge(u, v, w * 2**70 + rng.randint(0, 3) if big else w)
    return g


def inverse_event(graph, event):
    """The event undoing ``event`` on the state before it was applied."""
    from dyncut import ChangeEvent

    if event.kind == ADD_VERTEX:
        return ChangeEvent.remove_vertex(event.u)
    if event.kind == REMOVE_VERTEX:
        return ChangeEvent.add_vertex(event.u)
    if event.kind == ADD_EDGE:
        return ChangeEvent.remove_edge(event.u, event.v)
    if event.kind == REMOVE_EDGE:
        return ChangeEvent.add_edge(event.u, event.v, graph.weight(event.u, event.v))
    if event.kind == INCREASE_WEIGHT:
        return ChangeEvent.decrease_weight(event.u, event.v, event.delta)
    return ChangeEvent.increase_weight(event.u, event.v, event.delta)


def random_event(graph, rng, mix, weight_max=8, max_vertices=None):
    """One applicable event drawn by mix weight from the current state.

    Unlike ``dyncut.stream.generate`` this draws against a live graph, for
    harnesses that interleave their own checks.  ``max_vertices`` suppresses
    vertex growth (useful when a brute-force oracle caps the size).
    """
    kinds: list[str] = []
    weights: list[float] = []
    for kind in EVENT_KINDS:
        frac = mix.get(kind, 0.0)
        if frac <= 0:
            continue
        if (
            kind == ADD_VERTEX
            and max_vertices is not None
            and graph.vertex_count >= max_vertices
        ):
            continue
        if _applicable(kind, graph):
            kinds.append(kind)
            weights.append(frac)
    if kinds:
        kind = rng.choices(kinds, weights)[0]
    elif _applicable(ADD_EDGE, graph):
        kind = ADD_EDGE
    elif max_vertices is None or graph.vertex_count < max_vertices:
        kind = ADD_VERTEX
    else:
        return None
    return _draw(kind, graph, rng, weight_max)


def bend_cut(graph, moving, shelter, mode):
    """Reshape ``moving`` along a shelter side without splitting it.

    ``absorb`` adds the shelter side to the stored side, ``evict`` removes
    it; the returned cut carries its exact recomputed cost.  The tree updates
    realize these bends implicitly by reconnecting subtrees; property checks
    bend explicitly.
    """
    for x in moving.side | shelter.side:
        if x not in graph.vertices:
            raise VertexMissing(f"vertex {x} not in graph")
    if mode == "absorb":
        side = moving.side | shelter.side
    elif mode == "evict":
        side = moving.side - shelter.side
    else:
        raise ValueError(f"mode must be 'absorb' or 'evict', got {mode!r}")
    if not side or len(side) == graph.vertex_count:
        raise ValueError("bend would empty one cut side")
    return Cut(frozenset(side), cut_cost(graph, side))


def path(tree, u, v):
    """Tree path from u to v as an ordered edge list."""
    verts = tree.path_vertices(u, v)
    return list(zip(verts, verts[1:]))


def _connectivity(graph):
    """λ for every pair by enumeration where it is cheap, else None (flows per edge)."""
    if 1 < graph.vertex_count <= MAX_ENUMERATION_VERTICES:
        return all_pairs_connectivity(graph)
    return None


def _assert_partial_tree(tree, graph, lam, judged, kind):
    """Run the Gomory-Hu certificate on a partial tree against ``graph``.

    ``lam`` holds the connectivities of ``graph`` or is None (flows per
    edge).  The structure and every edge whose pair ``judged`` accepts must
    pass; the other edges are not checked.  ``kind`` names the judged edges
    in the failure message.
    """
    report = verify_cut_tree(tree, graph, lam)
    bad = [str(x) for x in report.violations if x.kind == "structure" or judged(x.pair)]
    assert not bad, f"{kind} edges fail: {'; '.join(bad)}"


@contextmanager
def count_cuts():
    """Collect every cut that ``min_cut`` returns inside the block.

    ``dyncut.tree`` holds the package's only call of the kernel, so the
    length of the yielded list is the block's count of cut computations.
    """
    cuts, min_cut = [], dyncut.tree.min_cut

    def counted(graph, s, t):
        cuts.append(min_cut(graph, s, t))
        return cuts[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dyncut.tree, "min_cut", counted)
        yield cuts


@contextmanager
def checked_complete(graph):
    """Yield ``complete``, checked on ``graph``; ``static_build`` and
    ``update_increase`` call the checked one too inside the block.

    The nodes handed to ``complete`` must be disjoint.  Before each split,
    the node's members must be joined by tree edges among themselves.
    Before and after each split, every edge that does not lie inside a
    pending node, one that ``complete`` has yet to split, is certified.

    ``complete`` needs only Gomory and Hu's node-level property: each edge
    between two nodes has sides that form a minimum cut, at its cost,
    between some member of each end's node.  This check asks more, a
    minimum cut between the edge's own ends, so it suits inputs whose edges
    between nodes already hold that.  The path edge that
    ``update_increase`` keeps is a minimum cut of the changed pair and can
    fail it until the splits re-hang it.

    Each split must fold the links this check derives itself.  Where some
    link's far end is not a leaf, they are the links whose cost is above U,
    the smaller weighted degree of the two members cut apart, less those
    not known to be exact: the pairs ``complete`` was handed as such, each
    following its link when a split moves it.  A folded link's cost must be
    lambda of its ends in ``graph``.  ``min_cut`` must receive ``contract``
    of the subtrees beyond the other links, each named after its far end,
    with each folded subtree merged into its near end.  Its cut must have
    the cost and, on the members and the far ends left apart, the side that
    the kernel gives on the unfolded quotient, ``contract`` of the subtree
    beyond every link.
    """
    lam = _connectivity(graph)
    complete, split = dyncut.tree.complete, dyncut.tree._split_node
    min_cut, kernel = dyncut.tree.min_cut, dyncut.mincut.min_cut
    pending = []  # the member sets of the nodes complete has yet to split
    inexact = set()  # the pairs of the links not known to be exact
    fresh, cuts = [], []  # the quotient the pending cut must receive, and the cuts made

    def check(tree, g):
        def outer(pair):
            return not any(pair[0] in node and pair[1] in node for node in pending)

        _assert_partial_tree(tree, g, lam, outer, "fat")

    def lam_of(x, y):
        return nx_min_cut(graph, x, y)[0] if lam is None else lam[pair_key(x, y)]

    def checked(tree, g, nodes, loose):
        nodes = [set(node) for node in nodes]
        assert sum(map(len, nodes)) == len(set().union(*nodes)), f"nodes overlap: {nodes}"
        pending[:] = [node for node in nodes if len(node) > 1]
        inexact.clear()
        inexact.update(pair_key(x, y) for x, y in loose)
        return complete(tree, g, nodes, loose)

    def checked_split(tree, g, members, loose):
        node = set(members)
        assert node in pending, f"split of a node complete was not given: {members}"
        reached = [members[0]]
        for x in reached:
            reached += [y for y in tree.neighbors(x) if y in node and y not in reached]
        assert len(reached) == len(node), f"node {members} is not joined by its own edges"
        assert loose == inexact, f"inexact links {loose}, expected {inexact}"
        check(tree, g)

        u, v = members[0], members[1]
        links = [(far, near) for near in members for far in tree.neighbors(near) if far not in node]
        bound = min(sum(g.neighbors(u).values()), sum(g.neighbors(v).values()))
        contracts = any(len(tree.neighbors(far)) > 1 for far, _ in links)
        folds = [
            (far, near)
            for far, near in links
            if contracts and tree.cost(far, near) > bound and pair_key(far, near) not in inexact
        ]
        for far, near in folds:
            c = tree.cost(far, near)
            assert c > bound and c == lam_of(far, near), f"folded link {{{far},{near}}} at {c}"
        kept = [link for link in links if link not in folds]
        beyond = {far: [far, *tree.subtree(far, near) - {far}] for far, near in links}
        into = {}
        for far, near in folds:
            into.setdefault(near, [near]).extend(beyond[far])
        fresh.append(contract(g, [*(beyond[far] for far, _ in kept), *into.values()])[0])
        reference = kernel(contract(g, beyond.values())[0], u, v)
        sides = split(tree, g, members, loose)
        assert not fresh, f"the split of {members} reached no min_cut"
        seen = node | {far for far, _ in kept}
        assert cuts[-1].cost == reference.cost, f"folding changed the cut of {u} from {v}"
        assert cuts[-1].side & seen == reference.side & seen, f"folding moved the side of {u}"

        for pair in [pair for pair in inexact if len(node.intersection(pair)) == 1]:
            far = pair[0] if pair[1] in node else pair[1]
            (near,) = [w for w in tree.neighbors(far) if w in node]
            inexact.remove(pair)
            inexact.add(pair_key(far, near))
        pending.remove(node)
        pending.extend(set(side) for side in sides if len(side) > 1)
        check(tree, g)
        return sides

    def checked_min_cut(quotient, s, t):
        if fresh:
            assert quotient == fresh.pop(), f"wrong quotient for the cut of {s} from {t}"
        cuts.append(min_cut(quotient, s, t))
        return cuts[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dyncut.tree, "_split_node", checked_split)
        mp.setattr(dyncut.tree, "complete", checked)
        mp.setattr(dyncut.tree, "min_cut", checked_min_cut)
        mp.setattr(dyncut.dynamic, "complete", checked)
        yield checked


def merged_into(graph, v, groups, merged):
    """``contract(graph, groups + [[v, *merged]])``: the quotient the decrease
    walk should hand ``min_cut``.

    Each list in ``groups`` becomes one node named after its first member,
    and v and the vertices in ``merged`` one node named v.
    """
    return contract(graph, [*groups, [v, *merged]])[0]


class WalkCut(NamedTuple):
    """One cut of the decrease walk, as ``checked_decrease_walk`` logs it."""

    moved: list  # the far ends the cut moved
    held: list  # the far ends of its links that were certified
    folded: list  # the far ends whose node was merged into v before the cut
    tied: list  # the far ends of settled links at exactly the stale cost
    edges: tuple  # edges of the quotient min_cut received, and of the unmerged one


@contextmanager
def checked_decrease_walk(graph, b, d, delta):
    """Certify the decrease walk's tree before every cut it spends and after
    every subtree it certifies; yield a log of the cuts.

    ``graph`` is the graph after {b, d} lost ``delta``.  The walk marks no
    edge: an edge is stale until the walk reaches it.  So an edge counts as
    settled when both ends lie on the current b-d path, or when an end was
    certified, that is, is the ``u`` of a certified {u, v} or lies in the
    subtree hanging at it.  Settled edges must be minimum cuts of the graph
    after the change, every other edge one of the graph before.  No cut may
    move a certified vertex.  At each cut, the near end v must lie on the
    current b-d path and the far end u off it.  The quotient that
    ``min_cut`` receives must be a fresh contraction of the subtrees beyond
    v's other links in the current tree, each named after its far end, with
    exactly these subtrees merged into v: each link {x, v} settled at a tree
    cost strictly above the stale cost of {u, v}, and each such cost must be
    lambda(x, v) after the change.  The cut must be the one ``min_cut``
    returns on the unmerged contraction.  A quotient the walk reused after a
    reshape changed those subtrees fails here, even where the cut it yields
    happens to be right.

    The log gets one :class:`WalkCut` per cut.
    """
    before = graph.copy()
    if before.has_edge(b, d):
        before.increase_weight(b, d, delta)
    else:
        before.add_edge(b, d, delta)
    lam_before, lam_after = _connectivity(before), _connectivity(graph)
    cut_step, stale_subtree = dyncut.dynamic.cut_step, dyncut.dynamic._stale_subtree
    min_cut = dyncut.tree.min_cut
    fresh = []  # the quotient the pending cut must receive, and the unmerged one
    certified: set[int] = set()
    log = []

    def check(tree):
        on_path = set(tree.path_vertices(b, d))

        def settled(pair):
            return on_path.issuperset(pair) or not certified.isdisjoint(pair)

        _assert_partial_tree(tree, graph, lam_after, settled, "settled")
        _assert_partial_tree(tree, before, lam_before, lambda p: not settled(p), "stale")

    def lam(x, y):
        return nx_min_cut(graph, x, y)[0] if lam_after is None else lam_after[pair_key(x, y)]

    def checked_cut_step(tree, quotient, links, u, v):
        on_path = tree.path_vertices(b, d)
        assert v in on_path and u not in on_path, (u, v, on_path)
        check(tree)
        groups = [[far, *tree.subtree(far, near) - {far}] for far, near in links]
        unmerged = contract(graph, groups)[0]
        stale = tree.cost(u, v)
        settled = {far: tree.cost(far, v) for far, _ in links if far in on_path or far in certified}
        folded = [far for far, c in settled.items() if c > stale]
        for far in folded:
            assert settled[far] == lam(far, v), f"merged link {{{far},{v}}} is not lambda"
        merged = [group for (far, _), group in zip(links, groups) if far in folded]
        kept = [group for (far, _), group in zip(links, groups) if far not in folded]
        expected = merged_into(graph, v, kept, set().union(*merged))
        fresh.append((expected, unmerged))
        held = [far for far, _ in links if far in certified]
        cut, moved = cut_step(tree, quotient, links, u, v)
        assert not fresh, f"the cut of {u} from {v} reached no min_cut"
        assert certified.isdisjoint(moved), f"the cut of {u} from {v} moved certified {moved}"
        tied = [far for far, c in settled.items() if c == stale]
        log.append(
            WalkCut(moved, held, folded, tied, (expected.edge_count, unmerged.edge_count))
        )
        return cut, moved

    def checked_min_cut(quotient, s, t):
        expected, unmerged = fresh.pop()
        assert quotient == expected, f"stale quotient for the cut of {s} from {t}"
        cut = min_cut(quotient, s, t)
        assert cut == min_cut(unmerged, s, t), f"merging changed the cut of {s} from {t}"
        return cut

    def checked_stale_subtree(tree, u, v):
        certified.update(tree.subtree(u, v))
        check(tree)
        return stale_subtree(tree, u, v)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dyncut.dynamic, "cut_step", checked_cut_step)
        mp.setattr(dyncut.dynamic, "_stale_subtree", checked_stale_subtree)
        mp.setattr(dyncut.tree, "min_cut", checked_min_cut)
        yield log
