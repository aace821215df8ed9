import random

import hypothesis.strategies as st
import pytest
from hypothesis import given

import dyncut.dynamic
from dyncut import (
    ChangeEvent,
    CutTree,
    DynamicCutTree,
    DynamicGraph,
    cut_cost,
    verify_cut_tree,
)
from dyncut.dynamic import (
    EXISTING_BRIDGE,
    NEW_BRIDGE,
    NON_BRIDGE,
    RULE_BRIDGE,
    RULE_NEW_BRIDGE,
    RULE_RECOMPUTED,
    RULE_REVALIDATED,
    RULE_THRESHOLD,
    RULE_ZERO_OR_BRIDGE,
    UpdateStats,
    _bridge_kind,
    update_add_vertex,
    update_decrease,
    update_increase,
    update_remove_vertex,
)
from dyncut.errors import (
    DynCutError,
    EdgeExists,
    EdgeMissing,
    InvalidDelta,
    VertexExists,
    VertexMissing,
    VertexNotIsolated,
)
from dyncut.graph import (
    ADD_EDGE,
    ADD_VERTEX,
    INCREASE_WEIGHT,
    REMOVE_VERTEX,
    pair_key,
)
from dyncut.tree import _fold, complete, query_value, static_build
from helpers import (
    SCENARIO_MIX,
    all_pairs_connectivity,
    checked_decrease_walk,
    count_cuts,
    graphs,
    merged_into,
    random_event,
    random_graph,
    sparse_graph,
)


class TestVertexUpdates:
    def test_add_to_empty_tree(self):
        tree = CutTree()
        update_add_vertex(tree, 1)
        assert set(tree.vertices) == {1}
        assert tree.edge_count == 0

    def test_add_attaches_zero_edge_to_smallest(self, t3_tree):
        update_add_vertex(t3_tree, 4)
        assert t3_tree.cost(4, 1) == 0
        assert query_value(t3_tree, 4, 2) == 0

    def test_add_existing_rejected(self, t3_tree):
        before = t3_tree.copy()
        with pytest.raises(VertexExists):
            update_add_vertex(t3_tree, 2)
        assert t3_tree == before

    def test_add_bad_id_rejected(self, t3_tree):
        # a tree admits the ids a graph admits, and no others
        before = t3_tree.copy()
        for v in (2.5, -1, "a"):
            with pytest.raises(ValueError):
                update_add_vertex(t3_tree, v)
            assert t3_tree == before and set(t3_tree._up) == {1, 2, 3}

    def test_remove_leaf_with_zero_edge(self):
        tree = CutTree(edges=[(1, 2, 3), (2, 3, 0)])
        update_remove_vertex(tree, 3)
        assert tree == CutTree(edges=[(1, 2, 3)])

    def test_remove_interior_rejoins_subtrees(self):
        tree = CutTree(edges=[(1, 5, 0), (5, 3, 0), (1, 2, 4), (3, 4, 6)])
        update_remove_vertex(tree, 5)
        assert tree.has_edge(1, 3)
        assert tree.cost(1, 3) == 0
        assert tree.edge_count == 3

    def test_remove_last_vertex(self):
        tree = CutTree(vertices=[9])
        update_remove_vertex(tree, 9)
        assert tree.vertex_count == 0

    def test_remove_with_nonzero_edge_rejected(self, t3_tree):
        before = t3_tree.copy()
        with pytest.raises(VertexNotIsolated):
            update_remove_vertex(t3_tree, 2)
        assert t3_tree == before

    def test_remove_missing_rejected(self, t3_tree):
        before = t3_tree.copy()
        with pytest.raises(VertexMissing):
            update_remove_vertex(t3_tree, 9)
        assert t3_tree == before

    def test_anchor_tracks_the_smallest_vertex(self):
        # a seeded mix of vertex inserts and deletes, some of them of the
        # smallest vertex: the anchor a new vertex hangs on stays the
        # smallest id, in the tree and in its copies
        rng = random.Random(25)
        cut_tree, smallest_removed = DynamicCutTree(), 0
        for _ in range(400):
            verts = sorted(cut_tree.graph.vertices)
            if len(verts) == 30 or verts and rng.random() < 0.45:
                v = rng.choice(verts)
                smallest_removed += v == verts[0]
                cut_tree.apply(ChangeEvent.remove_vertex(v))
            else:
                v = rng.choice([x for x in range(30) if x not in verts])
                cut_tree.apply(ChangeEvent.add_vertex(v))
            tree = cut_tree.tree
            assert tree.least_vertex == min(tree.vertices, default=None)
            assert tree.copy().least_vertex == tree.least_vertex
        assert smallest_removed
        assert CutTree().least_vertex is None


class TestDetectBridge:
    def test_existing_bridge(self, p3, p3_tree):
        assert _bridge_kind(p3.weight(1, 2), query_value(p3_tree, 1, 2)) == EXISTING_BRIDGE

    def test_new_bridge_across_components(self):
        g = DynamicGraph(vertices=[1, 2, 3], edges=[(1, 2, 5)])
        tree = CutTree(edges=[(1, 2, 5), (1, 3, 0)])
        assert _bridge_kind(0, query_value(tree, 1, 3)) == NEW_BRIDGE
        assert _bridge_kind(0, query_value(tree, 2, 3)) == NEW_BRIDGE

    def test_non_bridge(self, t3, t3_tree):
        assert _bridge_kind(t3.weight(1, 2), query_value(t3_tree, 1, 2)) == NON_BRIDGE

    def test_costs_no_cuts(self, t3, t3_tree):
        with count_cuts() as cuts:
            _bridge_kind(t3.weight(1, 2), query_value(t3_tree, 1, 2))
        assert cuts == []


class TestIncrease:
    def test_existing_bridge_only_bumps_the_edge(self, p3, p3_tree):
        new = p3.copy()
        new.increase_weight(2, 3, 5)
        stats = update_increase(p3_tree, new, 2, 3, 5)
        assert p3_tree == CutTree(edges=[(1, 2, 3), (2, 3, 7)])
        assert stats.cuts_used == 0
        assert stats.reuse_breakdown == {RULE_BRIDGE: 1}

    def test_new_bridge_replaces_zero_edge(self):
        old = DynamicGraph(vertices=[1, 2])
        tree = CutTree(edges=[(1, 2, 0)])
        new = old.copy()
        new.add_edge(1, 2, 4)
        stats = update_increase(tree, new, 1, 2, 4)
        assert tree == CutTree(edges=[(1, 2, 4)])
        assert stats.cuts_used == 0
        assert stats.reuse_breakdown == {RULE_NEW_BRIDGE: 1}

    def test_non_bridge_uses_path_minus_one_cuts(self, t3, t3_tree):
        new = t3.copy()
        new.increase_weight(1, 2, 2)
        stats = update_increase(t3_tree, new, 1, 2, 2)
        assert stats.cuts_used == 1
        assert verify_cut_tree(t3_tree, new).ok
        for a, b in ((1, 2), (1, 3), (2, 3)):
            assert query_value(t3_tree, a, b) == 5
        assert t3_tree == CutTree(edges=[(1, 3, 5), (1, 2, 5)])

    def test_the_raised_path_edge_is_not_folded(self):
        # Adding {3, 4} at 8 raises the path edge {2, 3} from 2 to 10: a
        # minimum 3-4 cut, but lambda(2, 3) is 5.  The split of {2, 4} has
        # U = 5, the weighted degree of 2, so taken as exact the raised edge
        # would fold 3's subtree {1, 3} into 2 and cut 2 from 4 at 11.
        g = DynamicGraph(vertices=[1], edges=[(2, 3, 2), (2, 4, 3)])
        tree = static_build(g)
        assert tree == CutTree(edges=[(1, 3, 0), (2, 3, 2), (2, 4, 3)])
        g.add_edge(3, 4, 8)
        assert update_increase(tree, g, 3, 4, 8).cuts_used == 1
        assert tree == CutTree(edges=[(1, 3, 0), (2, 4, 5), (3, 4, 10)])
        assert verify_cut_tree(tree, g).ok
        # the same partial tree, with the raised edge left out of inexact
        wrong = CutTree(edges=[(1, 3, 0), (2, 3, 10), (2, 4, 3)])
        complete(wrong, g, [[3], [2, 4]], ())
        assert wrong.cost(2, 4) == 11
        assert not verify_cut_tree(wrong, g).ok

    def test_a_moved_raised_edge_stays_inexact(self):
        # Adding {1, 3} at 6 raises the path edge {2, 4} from 1 to 7.  The
        # split of 1 from 4 moves it to {1, 2}, yet lambda(1, 2) is 2.  Taken
        # as exact there, it would fold {1, 4} into 2 in the split of 2
        # from 3 (U = 2) and cut 2 from 3 at 7.
        g = DynamicGraph(edges=[(1, 4, 2), (2, 3, 1), (2, 4, 1)])
        tree = static_build(g)
        assert tree == CutTree(edges=[(1, 4, 2), (2, 3, 1), (2, 4, 1)])
        g.add_edge(1, 3, 6)
        assert update_increase(tree, g, 1, 3, 6).cuts_used == 2
        assert tree == CutTree(edges=[(1, 3, 7), (1, 4, 3), (2, 3, 2)])
        assert verify_cut_tree(tree, g).ok


class TestDecrease:
    def test_threshold_reuse(self, t3, t3_tree):
        new = t3.copy()
        new.decrease_weight(1, 3, 1)
        with checked_decrease_walk(new, 1, 3, 1):
            stats = update_decrease(t3_tree, new, 1, 3, 1)
        assert t3_tree == CutTree(edges=[(1, 3, 3), (2, 3, 3)])
        assert stats.cuts_used == 0
        assert stats.reuse_breakdown == {RULE_THRESHOLD: 1}
        assert stats.accepted_stale == (((2, 3), 3, RULE_THRESHOLD),)

    def test_revalidation_keeps_structure(self, t3, t3_tree):
        new = t3.copy()
        new.decrease_weight(2, 3, 1)
        with checked_decrease_walk(new, 2, 3, 1):
            stats = update_decrease(t3_tree, new, 2, 3, 1)
        assert t3_tree == CutTree(edges=[(1, 3, 4), (2, 3, 2)])
        assert stats.cuts_used == 1
        assert stats.reuse_breakdown == {RULE_REVALIDATED: 1}

    def test_bridge_deletion(self, p3, p3_tree):
        new = p3.copy()
        new.remove_edge(2, 3)
        stats = update_decrease(p3_tree, new, 2, 3, 2)
        assert p3_tree == CutTree(edges=[(1, 2, 3), (2, 3, 0)])
        assert stats.cuts_used == 0
        assert stats.reuse_breakdown == {RULE_BRIDGE: 1}

    def test_reshape_recreates_a_queued_pair_as_a_fat_path_edge(self):
        # Deleting {5,6}: the cut at {3,5} moves {2,5} onto 3 and flank 6 onto
        # 3; the cut at {2,3} then pulls flank 5 onto 2, so the pair {2,5} is
        # back as a fat path edge while its stale cost 14 is still queued.
        g = DynamicGraph(
            vertices=range(1, 7),
            edges=[(1, 3, 8), (2, 3, 6), (2, 5, 6), (2, 6, 2), (3, 4, 5), (3, 6, 4),
                   (4, 5, 5), (5, 6, 6)],
        )
        tree = static_build(g)
        assert tree.to_lines() == ["1 3 8", "2 5 14", "3 5 15", "4 5 10", "5 6 12"]
        g.remove_edge(5, 6)
        with checked_decrease_walk(g, 5, 6, 6):
            stats = update_decrease(tree, g, 5, 6, 6)
        assert tree.to_lines() == ["1 3 8", "2 3 13", "2 5 11", "3 6 6", "4 5 10"]
        assert verify_cut_tree(tree, g).ok
        assert stats.cuts_used == 2
        assert stats.reuse_breakdown == {
            RULE_RECOMPUTED: 2,
            RULE_THRESHOLD: 1,
            RULE_ZERO_OR_BRIDGE: 1,
        }
        assert stats.accepted_stale == (
            ((4, 5), 10, RULE_THRESHOLD),
            ((1, 3), 8, RULE_ZERO_OR_BRIDGE),
        )

    def test_leaf_cut_after_a_reshape_at_the_same_vertex(self):
        # Lowering {1,3} to 1: the cut of leaf 2 from 3 pulls flank 1 onto 2,
        # so the next leaf cut at 3, of 4, must see {1, 2} as one node.  A
        # quotient of 3's leaves kept from before the reshape fails the check.
        g = DynamicGraph(edges=[(1, 2, 6), (1, 3, 6), (2, 3, 3), (2, 4, 4), (3, 4, 7)])
        tree = static_build(g)
        assert tree.to_lines() == ["1 3 12", "2 3 13", "3 4 11"]
        g.decrease_weight(1, 3, 5)
        with checked_decrease_walk(g, 1, 3, 5):
            stats = update_decrease(tree, g, 1, 3, 5)
        assert tree.to_lines() == ["1 2 7", "2 3 8", "3 4 11"]
        assert verify_cut_tree(tree, g).ok
        assert stats.cuts_used == 2
        assert stats.reuse_breakdown == {RULE_RECOMPUTED: 1, RULE_REVALIDATED: 1}

    def test_walk_check_refuses_a_leaf_quotient_kept_past_a_reshape(self, monkeypatch):
        # The case above, with every quotient at a path vertex kept for good:
        # the cut of leaf 4 from 3 then gets the quotient from before flank 1
        # moved onto 2, and the walk's check must refuse it.
        kept, contract_links = {}, dyncut.dynamic.contract_links

        def keep_forever(tree, graph, links, folds):
            return kept.setdefault(links[0][1], contract_links(tree, graph, links, folds))

        monkeypatch.setattr(dyncut.dynamic, "contract_links", keep_forever)
        g = DynamicGraph(edges=[(1, 2, 6), (1, 3, 6), (2, 3, 3), (2, 4, 4), (3, 4, 7)])
        tree = static_build(g)
        g.decrease_weight(1, 3, 5)
        with pytest.raises(AssertionError, match="stale quotient"):
            with checked_decrease_walk(g, 1, 3, 5):
                update_decrease(tree, g, 1, 3, 5)

    @pytest.mark.parametrize(
        "edges, change, folded",
        [
            # path edge {3,4} at 14 - 2 = 12 lies above the stale cost 11 of
            # {1,4}, a cut of the non-leaf 1 whose links are both leaves
            (
                [(1, 2, 6), (1, 4, 7), (2, 3, 3), (2, 5, 1), (3, 4, 8), (3, 5, 3), (4, 5, 7)],
                (3, 5, 2),
                [[3]],
            ),
            # {2,3}, revalidated at 14 by the first cut, lies above the stale
            # cost 13 of the next leaf at 2, which shares the first's quotient
            ([(1, 2, 8), (1, 3, 5), (2, 3, 5), (2, 4, 6), (3, 4, 4)], (2, 4, 1), [[], [3]]),
        ],
    )
    def test_settled_links_above_the_stale_cost_merge_into_the_path_vertex(
        self, edges, change, folded
    ):
        g = DynamicGraph(edges=edges)
        tree = static_build(g)
        b, d, delta = change
        g.decrease_weight(b, d, delta)
        with checked_decrease_walk(g, b, d, delta) as log:
            update_decrease(tree, g, b, d, delta)
        assert [cut.folded for cut in log] == folded
        assert all(cut.edges[0] < cut.edges[1] for cut in log if cut.folded)
        assert verify_cut_tree(tree, g).ok

    def test_a_link_settled_at_the_stale_cost_is_not_merged(self):
        # Lowering {3,4} by 1: the cut of 1 from 3 certifies {1,3} at 5.  The
        # cut of 2 from 3 has stale cost 5 as well, so {1,3} is settled at
        # exactly that cost, and 1 stays a node of its own.
        g = DynamicGraph(edges=[(1, 2, 1), (1, 3, 4), (2, 3, 2), (2, 4, 2), (3, 4, 2)])
        tree = static_build(g)
        assert tree.to_lines() == ["1 3 5", "2 3 5", "3 4 4"]
        g.decrease_weight(3, 4, 1)
        with checked_decrease_walk(g, 3, 4, 1) as log:
            update_decrease(tree, g, 3, 4, 1)
        assert [(cut.folded, cut.tied) for cut in log] == [([], []), ([], [1])]
        assert verify_cut_tree(tree, g).ok


def test_bridges_are_tree_edges_that_decrease_alone():
    # An edge whose weight is its endpoints' connectivity is a tree edge, and
    # decreasing or deleting it lowers that one tree edge and nothing else.
    rng = random.Random(24)
    bridges = 0
    for _ in range(400):
        g = random_graph(rng, edge_prob=0.3)
        tree = static_build(g)
        lam = all_pairs_connectivity(g)
        for b, d, w in sorted(g.edges()):
            if w != lam[pair_key(b, d)]:
                continue
            assert tree.has_edge(b, d)
            new, updated, expected = g.copy(), tree.copy(), tree.copy()
            delta = rng.randint(1, w)
            if delta == w:
                new.remove_edge(b, d)
            else:
                new.decrease_weight(b, d, delta)
            stats = update_decrease(updated, new, b, d, delta)
            expected.set_cost(b, d, w - delta)
            assert updated == expected
            assert stats == UpdateStats(0, {RULE_BRIDGE: 1})
            assert verify_cut_tree(updated, new, lam=all_pairs_connectivity(new)).ok
            bridges += 1
    assert bridges >= 800


def test_bridge_decrease_makes_no_whole_tree_pass(monkeypatch):
    # A graph that is a tree is its own cut tree, and each of its edges is a
    # bridge.  Lowering one reads its path and sets its cost; no pass lists
    # the tree's edges or a subtree.
    rng = random.Random(3)
    edges = [(v, rng.randrange(v), rng.randint(2, 9)) for v in range(1, 2000)]
    g = DynamicGraph(vertices=range(2000), edges=edges)
    tree = CutTree(edges=edges)
    b, d, _ = edges[1000]
    g.decrease_weight(b, d, 1)
    calls = []
    for name in ("edges", "subtree"):
        real = getattr(CutTree, name)

        def spy(*args, name=name, real=real):
            calls.append(name)
            return real(*args)

        monkeypatch.setattr(CutTree, name, spy)
    stats = update_decrease(tree, g, b, d, 1)
    monkeypatch.undo()
    assert calls == []
    assert stats.accepted_stale == ()
    assert stats.reuse_breakdown == {RULE_BRIDGE: 1}
    assert tree == CutTree(edges=g.edges())


class TestDeltaChecks:
    def test_increase_rejects_the_graph_before_the_change(self, p3, p3_tree):
        # {2,3} weighs 2, so it cannot already hold an increase by 5
        before = p3_tree.copy()
        with pytest.raises(InvalidDelta):
            update_increase(p3_tree, p3, 2, 3, 5)
        assert p3_tree == before

    @pytest.mark.parametrize("update, raise_by, delta", [
        (update_increase, 7, 1),
        (update_decrease, 0, 5),
    ])
    def test_old_weight_above_connectivity_rejected(self, p3, p3_tree, update, raise_by, delta):
        # {2,3} would have weighed 8 or 7 before the change, above lambda(2,3) = 2
        if raise_by:
            p3.increase_weight(2, 3, raise_by)
        before = p3_tree.copy()
        with pytest.raises(InvalidDelta):
            update(p3_tree, p3, 2, 3, delta)
        assert p3_tree == before

    @pytest.mark.parametrize("delta", [0, -1, 0.5])
    @pytest.mark.parametrize(
        "update, deleted",
        [(update_increase, False), (update_decrease, False), (update_decrease, True)],
    )
    def test_non_positive_delta_rejected(self, p3, p3_tree, update, deleted, delta):
        if deleted:
            p3.remove_edge(2, 3)
        before = p3_tree.copy()
        with pytest.raises(InvalidDelta):
            update(p3_tree, p3, 2, 3, delta)
        assert p3_tree == before


# on t3 with an isolated vertex 4 added
INVALID_EVENTS = {
    "av-existing": (ChangeEvent.add_vertex(2), VertexExists),
    "rv-missing": (ChangeEvent.remove_vertex(9), VertexMissing),
    "rv-not-isolated": (ChangeEvent.remove_vertex(1), VertexNotIsolated),
    "ae-existing": (ChangeEvent.add_edge(1, 2, 4), EdgeExists),
    "ae-missing-endpoint": (ChangeEvent.add_edge(1, 9, 4), VertexMissing),
    "re-missing": (ChangeEvent.remove_edge(1, 4), EdgeMissing),
    "iw-missing": (ChangeEvent.increase_weight(1, 4, 2), EdgeMissing),
    "dw-equal-weight": (ChangeEvent.decrease_weight(1, 3, 3), InvalidDelta),
    "dw-above-weight": (ChangeEvent.decrease_weight(1, 3, 5), InvalidDelta),
}


@pytest.mark.parametrize("ev, error", INVALID_EVENTS.values(), ids=INVALID_EVENTS.keys())
def test_apply_event_rejects_invalid_event_unchanged(t3, ev, error):
    assert issubclass(error, DynCutError)
    cut_tree = DynamicCutTree(t3)
    cut_tree.apply(ChangeEvent.add_vertex(4))
    graph_before, tree_before = t3.copy(), cut_tree.tree.copy()
    with pytest.raises(error):
        cut_tree.apply(ev)
    assert t3 == graph_before
    assert cut_tree.tree == tree_before


def _run_scenario(seed, events=15, check_contracts=True):
    rng = random.Random(seed)
    g = random_graph(rng)
    cut_tree = DynamicCutTree(g)
    tree = cut_tree.tree
    assert verify_cut_tree(tree, g).ok
    for _ in range(events):
        ev = random_event(g, rng, SCENARIO_MIX, weight_max=8, max_vertices=12)
        if check_contracts and ev.kind not in (ADD_VERTEX, REMOVE_VERTEX):
            plen = len(tree.path_vertices(ev.u, ev.v)) - 1
            w_before = g.neighbors(ev.u).get(ev.v, 0)
            kind = _bridge_kind(w_before, query_value(tree, ev.u, ev.v))
            n_before = g.vertex_count
        with count_cuts() as cuts:
            stats = cut_tree.apply(ev)
        used = len(cuts)
        assert stats.cuts_used == used
        assert stats.cuts_used <= g.vertex_count - 1
        assert sum(stats.reuse_breakdown.values()) >= stats.cuts_used
        if check_contracts:
            if ev.kind in (ADD_VERTEX, REMOVE_VERTEX):
                assert used == 0
            elif ev.kind in (ADD_EDGE, INCREASE_WEIGHT):
                expected = plen - 1 if kind == NON_BRIDGE else 0
                assert used == expected, (ev, kind)
            else:
                assert used <= n_before - 1 - plen
                if kind == EXISTING_BRIDGE:
                    assert used == 0
        lam = all_pairs_connectivity(g) if g.vertex_count > 1 else {}
        report = verify_cut_tree(tree, g, lam=lam)
        assert report.ok, (seed, ev, str(report))
        for pair, stale, rule in stats.accepted_stale:
            assert lam[pair] == stale, (seed, ev, pair, rule)


@pytest.mark.parametrize("seed", range(12))
def test_random_scenarios_stay_valid(seed):
    _run_scenario(seed)


@given(graphs(max_vertices=6), st.data())
def test_fold_merges_a_node_by_the_sum_rule(g, data):
    v, w = data.draw(st.lists(st.sampled_from(sorted(g.vertices)), min_size=2, max_size=2, unique=True))
    folded = g.copy()
    _fold(folded._adj, v, w)
    assert folded == merged_into(g, v, [], {w})
    rest = [x for x in g.vertices if x not in (v, w)]
    for mask in range(1 << len(rest)):
        side = {x for i, x in enumerate(rest) if mask >> i & 1}
        assert cut_cost(folded, side | {v}) == cut_cost(g, side | {v, w})


def test_decrease_verify_mode_on_random_cases():
    rng = random.Random(99)
    done = merged = 0
    while done < 60:
        g = random_graph(rng, n_min=4, n_max=9)
        if g.edge_count == 0:
            continue
        tree = static_build(g)
        u, v, w = sorted(g.edges())[rng.randrange(g.edge_count)]
        delta = rng.randint(1, w)
        new = g.copy()
        if delta == w:
            new.remove_edge(u, v)
        else:
            new.decrease_weight(u, v, delta)
        with checked_decrease_walk(new, u, v, delta) as log:
            update_decrease(tree, new, u, v, delta)
        assert verify_cut_tree(tree, new).ok
        merged += sum(1 for cut in log if cut.folded and cut.edges[0] < cut.edges[1])
        done += 1
    # some cut gets a quotient that merging settled links made smaller
    assert merged


def test_decrease_walk_checked_beyond_the_enumeration_cap():
    # 16-24 vertices, past the enumeration cap, so the walk's helper checks
    # every edge by its own flows at each step
    rng = random.Random(0)
    past_certified = 0
    for _ in range(6):
        g = sparse_graph(rng, rng.randint(16, 24), big=False)
        tree = static_build(g)
        u, v, w = sorted(g.edges())[rng.randrange(g.edge_count)]
        delta = rng.randint(1, w)
        if delta == w:
            g.remove_edge(u, v)
        else:
            g.decrease_weight(u, v, delta)
        with checked_decrease_walk(g, u, v, delta) as log:
            update_decrease(tree, g, u, v, delta)
        assert verify_cut_tree(tree, g).ok
        past_certified += sum(1 for cut in log if cut.moved and cut.held)
    # a reshape beside a certified edge, which must stay where it is
    assert past_certified


def test_increase_keeps_off_path_cuts():
    # after an increase, every former tree edge off the changed path must
    # still induce a minimum cut of unchanged cost in the new graph
    rng = random.Random(5)
    done = 0
    while done < 10:
        g = random_graph(rng, n_min=5, n_max=9)
        tree = static_build(g)
        verts = sorted(g.vertices)
        b, d = rng.sample(verts, 2)
        if _bridge_kind(g.neighbors(b).get(d, 0), query_value(tree, b, d)) != NON_BRIDGE:
            continue
        new = g.copy()
        delta = rng.randint(1, 8)
        if new.has_edge(b, d):
            new.increase_weight(b, d, delta)
        else:
            new.add_edge(b, d, delta)
        pverts = tree.path_vertices(b, d)
        on_path = {pair_key(x, y) for x, y in zip(pverts, pverts[1:])}
        lam_new = all_pairs_connectivity(new)
        for u, v, c in tree.edges():
            if pair_key(u, v) in on_path:
                continue
            side = tree.subtree(u, v)
            assert cut_cost(new, side) == c
            assert lam_new[pair_key(u, v)] == c
        update_increase(tree, new, b, d, delta)
        assert verify_cut_tree(tree, new, lam=lam_new).ok
        done += 1


def test_decrease_lowers_all_path_cuts():
    # every former path edge keeps its cut, at cost lowered by delta
    rng = random.Random(11)
    done = 0
    while done < 10:
        g = random_graph(rng, n_min=5, n_max=9)
        if g.edge_count == 0:
            continue
        tree = static_build(g)
        u0, v0, w = sorted(g.edges())[rng.randrange(g.edge_count)]
        delta = rng.randint(1, w)
        new = g.copy()
        if delta == w:
            new.remove_edge(u0, v0)
        else:
            new.decrease_weight(u0, v0, delta)
        lam_new = all_pairs_connectivity(new)
        pverts = tree.path_vertices(u0, v0)
        for x, y in zip(pverts, pverts[1:]):
            side = tree.subtree(x, y)
            assert cut_cost(new, side) == tree.cost(x, y) - delta
            assert lam_new[pair_key(x, y)] == tree.cost(x, y) - delta
        done += 1
