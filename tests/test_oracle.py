import random

import pytest
from hypothesis import given

from dyncut import (
    Cut,
    CutTree,
    DynamicGraph,
    all_pairs_connectivity,
    cut_cost,
    min_cut,
    verify_cut_tree,
)
from dyncut.errors import EmptyGraph, EnumerationTooLarge, UnknownVertex, VertexSetMismatch
from dyncut.oracle import bend_cut
from helpers import graphs, random_graph


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
            all_pairs_connectivity(g, method="enumerate")

    @given(graphs(max_vertices=6))
    def test_enumeration_agrees_with_flow(self, g):
        assert all_pairs_connectivity(g, "enumerate") == all_pairs_connectivity(g, "flow")


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
        with pytest.raises(UnknownVertex):
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
