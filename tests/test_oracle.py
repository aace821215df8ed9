import random

import networkx as nx
import pytest
from hypothesis import given

from dyncut import (
    Cut,
    CutTree,
    DynamicGraph,
    cut_cost,
    min_cut,
    verify_cut_tree,
)
from dyncut.errors import (
    EmptyGraph,
    SameVertex,
    VertexMissing,
    VertexSetMismatch,
)
from dyncut.graph import pair_key
from dyncut.oracle import max_flow_value
from dyncut.tree import static_build
from helpers import (
    EnumerationTooLarge,
    _bits,
    all_pairs_connectivity,
    bend_cut,
    graphs,
    nx_min_cut,
    random_graph,
    sparse_graph,
)


class TestAllPairs:
    def test_t3(self, t3):
        assert all_pairs_connectivity(t3) == {(1, 2): 3, (2, 3): 3, (1, 3): 4}

    def test_p3(self, p3):
        assert all_pairs_connectivity(p3) == {(1, 2): 3, (2, 3): 2, (1, 3): 2}

    def test_two_isolated(self):
        g = DynamicGraph(vertices=[1, 2])
        assert all_pairs_connectivity(g) == {(1, 2): 0}

    def test_empty_graph(self):
        with pytest.raises(EmptyGraph):
            all_pairs_connectivity(DynamicGraph())

    def test_enumeration_cap(self):
        g = DynamicGraph(vertices=range(13))
        with pytest.raises(EnumerationTooLarge):
            all_pairs_connectivity(g)

    @pytest.mark.parametrize("source", ["enumerate", "auto"])
    def test_exact_beyond_int64(self, source):
        # cut costs up to 2**63 + 1 must not wrap around, whether the verifier
        # reads connectivities from enumeration or runs its own flows
        heavy = DynamicGraph(edges=[(1, 2, 2**62), (1, 3, 2**62), (2, 3, 1)])
        lam = all_pairs_connectivity(heavy)
        assert lam == dict.fromkeys([(1, 2), (1, 3), (2, 3)], 2**62 + 1)
        given_lam = lam if source == "enumerate" else None
        assert verify_cut_tree(static_build(heavy), heavy, given_lam).ok
        single = DynamicGraph(edges=[(1, 2, 2**63)])
        assert all_pairs_connectivity(single) == {(1, 2): 2**63}
        assert max_flow_value(single, 1, 2) == 2**63

    @pytest.mark.parametrize("n", [2, 7, 12])
    def test_bipartition_table_lists_every_mask(self, n):
        # column j puts vertex i + 1 on the far side iff bit i of j is set
        bits = _bits(n)
        assert bits.shape == (n, 1 << (n - 1))
        for j in range(1 << (n - 1)):
            assert bits[:, j].tolist() == [False] + [bool(j >> i & 1) for i in range(n - 1)]


class TestMaxFlowValue:
    @given(graphs(max_vertices=7))
    def test_agrees_with_enumeration(self, g):
        for (u, v), expected in all_pairs_connectivity(g).items():
            assert max_flow_value(g, u, v) == expected
            assert max_flow_value(g, v, u) == expected

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_networkx_beyond_enumeration(self, seed):
        rng = random.Random(seed)
        g = sparse_graph(rng, rng.randint(15, 120), big=seed % 2 == 1)
        for _ in range(3):
            s, t = rng.sample(sorted(g.vertices), 2)
            assert max_flow_value(g, s, t) == nx_min_cut(g, s, t)[0]

    def test_disconnected_and_bad_endpoints(self):
        g = DynamicGraph(vertices=[1, 2, 3], edges=[(1, 3, 5)])
        assert max_flow_value(g, 1, 2) == 0
        with pytest.raises(SameVertex):
            max_flow_value(g, 1, 1)
        for s, t in [(1, 9), (9, 1)]:
            with pytest.raises(VertexMissing):
                max_flow_value(g, s, t)

    def test_input_graph_unchanged(self):
        g = sparse_graph(random.Random(7), 60, big=False)
        before = g.copy()
        for s, t in [(0, 59), (3, 17), (59, 0)]:
            max_flow_value(g, s, t)
        assert g == before


def _networkx_cut_tree(g):
    """A Gomory-Hu tree from networkx alone, as a CutTree."""
    h = nx.Graph()
    h.add_nodes_from(g.vertices)
    h.add_weighted_edges_from(g.edges(), weight="capacity")
    gh = nx.gomory_hu_tree(h)
    return CutTree(edges=[(u, v, c) for u, v, c in gh.edges(data="weight")])


class TestVerifyCutTree:
    def test_valid_tree_passes(self, t3, t3_tree):
        report = verify_cut_tree(t3_tree, t3)
        assert report.ok
        assert report.violations == ()

    def test_tampered_label_reported_with_both_values(self, t3):
        report = verify_cut_tree(CutTree(edges=[(1, 3, 5), (2, 3, 3)]), t3)
        assert not report.ok
        kinds = {(v.kind, v.pair) for v in report.violations}
        assert ("induced-cost", (1, 3)) in kinds
        induced = next(v for v in report.violations if v.kind == "induced-cost")
        assert (induced.expected, induced.actual) == (5, 4)

    def test_wrong_shape_fails_induced_cost(self, t3):
        # labels match connectivities but the {1,3} split is {3} vs {1,2},
        # which costs 5 in the triangle, not 4
        report = verify_cut_tree(CutTree(edges=[(1, 2, 3), (1, 3, 4)]), t3)
        assert not report.ok
        assert [(v.kind, v.pair, v.expected, v.actual) for v in report.violations] == [
            ("induced-cost", (1, 3), 4, 5)
        ]

    def test_vertex_set_mismatch(self, t3):
        with pytest.raises(VertexSetMismatch):
            verify_cut_tree(CutTree(edges=[(1, 2, 3)]), t3)

    def test_non_spanning_structure_flagged(self, t3):
        tree = CutTree(vertices=[1, 2, 3], edges=[(1, 2, 3)])
        report = verify_cut_tree(tree, t3)
        assert not report.ok
        assert report.violations[0].kind == "structure"

    def test_a_cycle_with_a_vertex_apart_is_flagged(self, t3):
        # three edges on four vertices pass the edge count, but they close the
        # triangle 1-2-3 and leave 4 apart; add_edge refuses a cycle, so the
        # rows are written directly
        graph = t3.copy()
        graph.add_vertex(4)
        graph.add_edge(3, 4, 1)
        tree = CutTree(vertices=[1, 2, 3, 4])
        for u, v, c in [(1, 2, 3), (2, 3, 3), (1, 3, 4)]:
            tree._adj[u][v] = tree._adj[v][u] = c
        report = verify_cut_tree(tree, graph)
        assert [v.kind for v in report.violations] == ["structure"]
        # the report names the condition that failed and the vertex left out
        assert report.violations[0].pair == (1, 4)
        assert str(report) == "structure: 3 of 4 vertices reached from 1, 4 left out"

    @pytest.mark.parametrize("seed", range(20))
    def test_networkx_gomory_hu_tree_certified_and_tampering_caught(self, seed):
        rng = random.Random(seed)
        g = sparse_graph(rng, rng.randint(55, 65), big=seed % 2 == 1)
        tree = _networkx_cut_tree(g)
        assert verify_cut_tree(tree, g).ok

        # one label raised by 1: its cut now costs less than the label claims
        u, v, c = rng.choice(sorted(tree.edges()))
        tree.set_cost(u, v, c + 1)
        report = verify_cut_tree(tree, g)
        assert {(x.kind, x.pair) for x in report.violations} == {
            ("induced-cost", (u, v)),
            ("edge-connectivity", (u, v)),
        }
        tree.set_cost(u, v, c)

        # one leaf moved to a vertex it is less connected to than its label says
        x, p, q = next(
            (x, p, q)
            for x in sorted(tree.vertices)
            if len(tree.neighbors(x)) == 1
            for p in tree.neighbors(x)
            for q in sorted(tree.vertices)
            if q not in (x, p) and nx_min_cut(g, x, q)[0] < tree.cost(x, p)
        )
        c = tree.cost(x, p)
        tree.remove_edge(x, p)
        tree.add_edge(x, q, c)
        report = verify_cut_tree(tree, g)
        assert ("edge-connectivity", pair_key(x, q)) in {
            (y.kind, y.pair) for y in report.violations
        }


class TestBendCut:
    def test_absorb_contained_shelter_is_identity(self, c4):
        moving = Cut(frozenset({1, 2}), cut_cost(c4, {1, 2}))
        shelter = Cut(frozenset({1}), cut_cost(c4, {1}))
        assert bend_cut(c4, moving, shelter, "absorb").side == moving.side

    def test_evict_disjoint_shelter_is_identity(self, c4):
        moving = Cut(frozenset({1, 2}), cut_cost(c4, {1, 2}))
        shelter = Cut(frozenset({3}), cut_cost(c4, {3}))
        assert bend_cut(c4, moving, shelter, "evict").side == moving.side

    def test_c4_absorb_keeps_min_cost(self, c4):
        moving = Cut(frozenset({1, 4}), 2)  # a minimum 3-4 cut
        shelter = Cut(frozenset({1, 2}), 2)  # a minimum 1-3 cut
        bent = bend_cut(c4, moving, shelter, "absorb")
        assert bent.side == frozenset({1, 2, 4})
        assert bent.cost == 2

    def test_unknown_vertex(self, c4):
        with pytest.raises(VertexMissing):
            bend_cut(c4, Cut(frozenset({9}), 0), Cut(frozenset({1}), 2), "absorb")

    def test_degenerate_bend_rejected(self, c4):
        whole = Cut(frozenset({1, 2, 3}), cut_cost(c4, {1, 2, 3}))
        rest = Cut(frozenset({4}), cut_cost(c4, {4}))
        with pytest.raises(ValueError):
            bend_cut(c4, whole, rest, "absorb")

    def test_bad_mode(self, c4):
        with pytest.raises(ValueError):
            bend_cut(c4, Cut(frozenset({1}), 2), Cut(frozenset({2}), 2), "fold")


def test_sheltering_preserves_min_cut_cost():
    # bending a minimum u-v cut along a minimum separating cut that avoids
    # u and v never changes its cost and never merges u with v
    rng = random.Random(1)
    done = 0
    while done < 60:
        g = random_graph(rng, n_min=4, n_max=8, edge_prob=0.6)
        verts = sorted(g.vertices)
        x, y = rng.sample(verts, 2)
        shelter = min_cut(g, x, y)
        outside = [v for v in verts if v not in shelter.side]
        if len(outside) < 2:
            continue
        u, v = rng.sample(outside, 2)
        cut = min_cut(g, u, v)
        side = cut.side if x in cut.side else frozenset(verts) - cut.side
        bent = bend_cut(g, Cut(side, cut.cost), shelter, "absorb")
        assert bent.cost == cut.cost
        assert (u in bent.side) != (v in bent.side)
        done += 1


def _decrease_setup(rng):
    """Random graph, a decreased edge, and a shelter side avoiding it."""
    g = random_graph(rng, n_min=5, n_max=8, edge_prob=0.6)
    if g.edge_count == 0:
        return None
    edges = sorted(g.edges())
    b, d, w = edges[rng.randrange(len(edges))]
    delta = rng.randint(1, w)
    new = g.copy()
    if delta == w:
        new.remove_edge(b, d)
    else:
        new.decrease_weight(b, d, delta)
    verts = sorted(g.vertices)
    x, y = rng.sample(verts, 2)
    shelter = min_cut(g, x, y)
    side = shelter.side
    if b in side or d in side:
        side = frozenset(verts) - side
        x, y = y, x
    if b in side or d in side:
        return None
    return g, new, b, d, x, y, Cut(side, shelter.cost)


def test_bending_across_decrease_never_raises_cost():
    rng = random.Random(2)
    done_i = done_ii = 0
    while done_i < 40 or done_ii < 40:
        setup = _decrease_setup(rng)
        if setup is None:
            continue
        g, new, b, d, x, y, shelter = setup
        verts = set(g.vertices)
        raw = {v for v in verts if rng.random() < 0.5}
        raw.add(b)
        raw.discard(d)
        u_side = frozenset(raw)
        sep_xy = (x in u_side) != (y in u_side)
        cost = cut_cost(new, u_side)
        if sep_xy and done_i < 40:
            if x not in u_side:
                u_side = frozenset(verts) - u_side
            bent = bend_cut(new, Cut(u_side, cost), shelter, "absorb")
            assert bent.cost <= cost
            done_i += 1
        elif not sep_xy and done_ii < 40:
            if x in u_side:
                u_side = frozenset(verts) - u_side
            bent = bend_cut(new, Cut(u_side, cost), shelter, "evict")
            assert bent.cost <= cost
            done_ii += 1
