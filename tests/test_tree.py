import pytest
from hypothesis import given, settings

from dyncut import (
    CutTree,
    DynamicGraph,
    all_pairs_connectivity,
    complete,
    cut_cost,
    path,
    query_cut,
    query_value,
    static_build,
    verify_cut_tree,
)
from dyncut.errors import (
    EmptyGraph,
    InvalidIntermediate,
    SameVertex,
    VertexMissing,
)
from dyncut.mincut import counter
from helpers import graphs


class TestStaticBuild:
    def test_p3_bridges(self, p3):
        before = counter.value
        tree = static_build(p3)
        assert counter.value - before == 2
        assert tree == CutTree(edges=[(1, 2, 3), (2, 3, 2)])

    def test_t3(self, t3):
        before = counter.value
        tree = static_build(t3)
        assert counter.value - before == 2
        assert query_value(tree, 1, 2) == 3
        assert query_value(tree, 2, 3) == 3
        assert query_value(tree, 1, 3) == 4
        assert tree == CutTree(edges=[(1, 3, 4), (2, 3, 3)])

    def test_single_vertex(self):
        tree = static_build(DynamicGraph(vertices=[5]))
        assert set(tree.vertices) == {5}
        assert tree.edge_count == 0

    def test_empty_graph(self):
        with pytest.raises(EmptyGraph):
            static_build(DynamicGraph())

    def test_disconnected_graph_gets_zero_edges(self):
        g = DynamicGraph(vertices=[1, 2, 3, 4], edges=[(1, 2, 5)])
        tree = static_build(g)
        assert verify_cut_tree(tree, g).ok
        assert sorted(c for _, _, c in tree.edges()) == [0, 0, 5]

    @given(graphs())
    def test_valid_and_uses_n_minus_1_cuts(self, g):
        before = counter.value
        tree = static_build(g)
        assert counter.value - before == g.vertex_count - 1
        assert verify_cut_tree(tree, g).ok


class TestComplete:
    def test_all_fat_tree_is_fixed_point(self, t3, t3_tree):
        work = t3_tree.copy()
        work.set_cut_pair(2, 3, (2, 1))  # also a minimum 1-2 cut; not kept
        before = counter.value
        complete(work, t3, verify=True)
        assert work == t3_tree
        assert counter.value == before

    def test_all_thin_star_equals_static_build(self, p3):
        star = CutTree.star(p3.vertices)
        before = counter.value
        complete(star, p3)
        assert counter.value - before == 2
        assert star == static_build(p3)

    def test_partial_tree_after_increase(self, t3):
        # triangle with {1,2} raised to 3: one certified cut, one stale edge
        raised = t3.copy()
        raised.increase_weight(1, 2, 2)
        work = CutTree(vertices=(1, 2, 3))
        work.add_edge(2, 3, 5)
        work.add_edge(1, 3, 4, thin=True)
        before = counter.value
        complete(work, raised, verify=True)
        assert counter.value - before == 1
        assert verify_cut_tree(work, raised).ok
        for a, b in ((1, 2), (1, 3), (2, 3)):
            assert query_value(work, a, b) == 5

    def test_lying_fat_label_caught_in_verify_mode(self, t3):
        work = CutTree(edges=[(1, 3, 9), (2, 3, 3)])
        with pytest.raises(InvalidIntermediate):
            complete(work, t3, verify=True)

    @given(graphs(min_vertices=3))
    @settings(max_examples=40)
    def test_never_recuts_existing_fat_edges(self, g):
        # thin out the path between the two smallest vertices of a finished
        # tree; the remaining fat cuts must survive completion unchanged
        tree = static_build(g)
        a, b = sorted(g.vertices)[:2]
        verts = tree.path_vertices(a, b)
        on_path = {frozenset(e) for e in zip(verts, verts[1:])}
        work = tree.copy()
        for u, v, _ in work.edges():
            if {u, v} in on_path:
                work.mark_thin(u, v)
        anchor = min(g.vertices)
        fat_before = {
            (frozenset(work.cut_side(u, v) if anchor not in work.cut_side(u, v)
                       else set(g.vertices) - work.cut_side(u, v)), c)
            for u, v, c in work.edges()
            if not work.is_thin(u, v)
        }
        complete(work, g)
        fat_after = {
            (frozenset(work.cut_side(u, v) if anchor not in work.cut_side(u, v)
                       else set(g.vertices) - work.cut_side(u, v)), c)
            for u, v, c in work.edges()
        }
        assert fat_before <= fat_after


class TestQueries:
    def test_query_value_examples(self, t3_tree):
        assert query_value(t3_tree, 1, 2) == 3
        assert query_value(t3_tree, 1, 3) == 4

    def test_query_value_disconnected(self):
        tree = CutTree(edges=[(1, 2, 4), (2, 3, 0), (3, 4, 7)])
        assert query_value(tree, 1, 4) == 0

    def test_query_cut_removes_cheapest_edge(self, t3_tree):
        cut = query_cut(t3_tree, 1, 2)
        assert cut.side == frozenset({1, 3})
        assert cut.cost == 3

    def test_query_cut_p3(self, p3_tree):
        cut = query_cut(p3_tree, 1, 3)
        assert cut.side == frozenset({1, 2})
        assert cut.cost == 2

    def test_query_cut_side_contains_first_argument(self, t3_tree):
        cut = query_cut(t3_tree, 2, 1)
        assert cut.side == frozenset({2})
        assert cut.cost == 3

    def test_query_cut_tie_breaks_nearest_first_endpoint(self):
        tree = CutTree(edges=[(1, 2, 5), (2, 3, 5)])
        assert query_cut(tree, 1, 3).side == frozenset({1})
        assert query_cut(tree, 3, 1).side == frozenset({3})

    def test_errors(self, t3_tree):
        with pytest.raises(SameVertex):
            query_value(t3_tree, 2, 2)
        with pytest.raises(VertexMissing):
            query_value(t3_tree, 1, 9)


class TestPath:
    def test_p3(self, p3_tree):
        assert path(p3_tree, 1, 3) == [(1, 2), (2, 3)]

    def test_t3(self, t3_tree):
        assert path(t3_tree, 1, 2) == [(1, 3), (3, 2)]

    def test_adjacent(self, t3_tree):
        assert path(t3_tree, 2, 3) == [(2, 3)]

    def test_works_on_intermediate_trees(self, t3_tree):
        work = t3_tree.copy()
        work.mark_thin(2, 3)
        assert work != t3_tree
        assert path(work, 1, 2) == [(1, 3), (3, 2)]


class TestSerialization:
    def test_lines_sorted_by_pair(self, t3_tree):
        assert t3_tree.to_lines() == ["1 3 4", "2 3 3"]

    def test_roundtrip_via_constructor(self, t3_tree):
        edges = [tuple(int(x) for x in line.split()) for line in t3_tree.to_lines()]
        assert CutTree(edges=edges) == t3_tree


class TestIntermediateTree:
    def test_thin_component_and_subtree(self, t3_tree):
        work = t3_tree.copy()
        work.mark_thin(2, 3)
        assert work.thin_component(2) == {2, 3}
        assert work.thin_component(1) == {1}
        assert work.subtree(1, 3) == {1}
        assert work.subtree(3, 1) == {2, 3}

    def test_move_endpoint(self, t3_tree):
        work = t3_tree.copy()
        work.move_endpoint(2, 3, 1)
        assert work.has_edge(1, 2)
        assert not work.has_edge(2, 3)
        assert work.cost(1, 2) == 3
