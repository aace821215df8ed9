import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import dyncut.tree as tree_mod
from dyncut import (
    CutTree,
    DynamicGraph,
    verify_cut_tree,
)
from dyncut.errors import (
    EdgeExists,
    EmptyGraph,
    SameVertex,
    VertexMissing,
)
from dyncut.graph import EVENT_KINDS, apply_change, contract
from dyncut.stream import GenParams, generate
from dyncut.tree import complete, contract_links, query_cut, query_value, static_build
from helpers import checked_complete, count_cuts, graphs, path


def _side_without(tree, u, v, anchor):
    """The side of tree edge {u, v} that does not hold ``anchor``."""
    side = tree.subtree(u, v)
    return frozenset(tree.subtree(v, u) if anchor in side else side)


class TestStaticBuild:
    def test_p3_bridges(self, p3):
        with count_cuts() as cuts:
            tree = static_build(p3)
        assert len(cuts) == 2
        assert tree == CutTree(edges=[(1, 2, 3), (2, 3, 2)])

    def test_t3(self, t3):
        with count_cuts() as cuts:
            tree = static_build(t3)
        assert len(cuts) == 2
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
        with count_cuts() as cuts:
            tree = static_build(g)
        assert len(cuts) == g.vertex_count - 1
        assert verify_cut_tree(tree, g).ok

    @pytest.mark.parametrize("seed", [5, 5 + 1_000_003])
    def test_certified_at_benchmark_scale(self, seed):
        # the final graphs of the grow_increase benchmark workload at seed 5;
        # far past the enumeration cap, so the certificate's flows run on
        # the oracle's own Edmonds-Karp, not on the kernel under test
        params = GenParams(100, 1500, 8, dict(zip(EVENT_KINDS, (0, 0, 0.6, 0, 0.4, 0))))
        g = DynamicGraph()
        for event in generate(params, seed).events:
            apply_change(g, event)
        assert (g.vertex_count, g.edge_count) == (100, 900)
        report = verify_cut_tree(static_build(g), g)
        assert report.ok, report.violations[:3]


class TestComplete:
    def test_all_fat_tree_is_fixed_point(self, t3, t3_tree):
        work = t3_tree.copy()
        with count_cuts() as cuts:
            assert complete(work, t3, [{1}, {2}, {3}], ()) == 0
        assert work == t3_tree
        assert cuts == []
        assert verify_cut_tree(work, t3).ok

    def test_all_thin_star_equals_static_build(self, p3):
        star = CutTree(edges=[(1, 2, 0), (1, 3, 0)])
        with count_cuts() as cuts:
            complete(star, p3, [p3.vertices], ())
        assert len(cuts) == 2
        assert star == static_build(p3)

    def test_partial_tree_after_increase(self, t3):
        # triangle with {1,2} raised to 3: one certified cut, one stale edge
        raised = t3.copy()
        raised.increase_weight(1, 2, 2)
        work = CutTree(vertices=(1, 2, 3))
        work.add_edge(2, 3, 5)
        work.add_edge(1, 3, 4)
        with count_cuts() as cuts, checked_complete(raised) as checked:
            checked(work, raised, [{1, 3}], [(2, 3)])
        assert len(cuts) == 1
        assert verify_cut_tree(work, raised).ok
        for a, b in ((1, 2), (1, 3), (2, 3)):
            assert query_value(work, a, b) == 5

    @pytest.mark.parametrize("seed", range(3))
    def test_checked_from_a_thin_path(self, seed):
        # the shape update_increase hands over: a tree path as compound nodes
        # between finished subtrees.  The whole path is one node here, since
        # the path edge that update_increase keeps is a minimum cut of the
        # path's ends, not always of its own, until the splits re-hang it.
        rng = random.Random(seed)
        # a weighted path with light chords has a deep cut tree
        g = DynamicGraph(edges=[(i, i + 1, rng.randint(3, 8)) for i in range(23)])
        for _ in range(8):
            u, v = rng.sample(range(24), 2)
            if not g.has_edge(u, v):
                g.add_edge(u, v, rng.randint(1, 2))
        work = static_build(g)

        def farthest(x):
            return max(g.vertices - {x}, key=lambda y: len(work.path_vertices(x, y)))

        a = farthest(0)
        verts = work.path_vertices(a, farthest(a))
        assert len(verts) > 10
        with checked_complete(g) as checked:
            assert checked(work, g, [verts], ()) == len(verts) - 1
        assert verify_cut_tree(work, g).ok

    def test_lying_fat_label_caught_in_verify_mode(self, t3):
        # the node {2, 3} makes complete split once, so the check runs
        work = CutTree(vertices=(1, 2, 3))
        work.add_edge(1, 3, 9)
        work.add_edge(2, 3, 3)
        with pytest.raises(AssertionError, match=r"fat edges fail: induced-cost at \(1, 3\)"):
            with checked_complete(t3) as checked:
                checked(work, t3, [{2, 3}], ())

    def test_a_link_at_exactly_the_degree_bound_is_not_folded(self):
        # The split of 3 from 5 has U = 2, the weighted degree of 3.  The
        # link (1, 5) at 3 folds.  The link (2, 3) at exactly 2 stays apart:
        # {3} and {2, 3} are both minimum 3-5 cuts, and the smallest side
        # {3} parts 2 from 3, so 2 moves to 5.
        g = DynamicGraph(edges=[(1, 4, 2), (1, 5, 3), (2, 3, 1), (2, 5, 1), (3, 5, 1)])
        work = CutTree(edges=[(1, 4, 2), (1, 5, 3), (2, 3, 2), (3, 5, 2)])
        with checked_complete(g) as checked:
            assert checked(work, g, [[3, 5]], ()) == 1
        assert work == CutTree(edges=[(1, 4, 2), (1, 5, 3), (2, 5, 2), (3, 5, 2)])

    @given(graphs(min_vertices=3))
    @settings(max_examples=40)
    def test_never_recuts_existing_fat_edges(self, g):
        # make the path between the two smallest vertices of a finished tree
        # one node; the cuts off the path must survive completion unchanged
        work = static_build(g)
        a, b = sorted(g.vertices)[:2]
        verts = work.path_vertices(a, b)
        on_path = {frozenset(e) for e in zip(verts, verts[1:])}
        anchor = min(g.vertices)
        fat_before = {
            (_side_without(work, u, v, anchor), c)
            for u, v, c in work.edges()
            if {u, v} not in on_path
        }
        complete(work, g, [verts], ())
        fat_after = {(_side_without(work, u, v, anchor), c) for u, v, c in work.edges()}
        assert fat_before <= fat_after

    @given(graphs(min_vertices=3, max_vertices=10), st.integers(0, 10**6))
    @settings(max_examples=40)
    def test_split_ignores_where_fat_edges_meet_a_node(self, g, seed):
        # Gomory-Hu's node-level rule: the finished tree depends neither on
        # the member of a compound node an outer edge touches nor on the
        # costs of the edges inside the node.  A re-hung edge need not be a
        # minimum cut of its new ends, so complete is told it is not exact.
        rng = random.Random(seed)
        work = static_build(g)
        nodes, node_of = _random_nodes(work, rng)
        moved, rehung = work.copy(), []
        for u, v, _ in list(work.edges()):
            if node_of[u] is node_of[v]:
                moved.set_cost(u, v, rng.randint(0, 9))
                continue
            far, near = rng.sample((u, v), 2)
            others = sorted(node_of[near] - {near})
            if others:
                moved.remove_edge(far, near)
                rehung.append((far, rng.choice(others)))
                moved.add_edge(*rehung[-1], work.cost(u, v))
        assert complete(work, g, nodes, ()) == complete(moved, g, nodes, rehung)
        assert work.to_lines() == moved.to_lines()
        assert verify_cut_tree(work, g).ok
        assert verify_cut_tree(moved, g).ok

    @given(graphs(min_vertices=2, max_vertices=10), st.integers(0, 10**6))
    @settings(max_examples=40)
    def test_any_order_of_the_nodes_gives_one_tree(self, g, seed):
        # complete picks the node with the smallest member first, whatever
        # order the nodes and their members come in
        rng = random.Random(seed)
        work = static_build(g)
        nodes, _ = _random_nodes(work, rng)
        shuffled = [rng.sample(sorted(node), len(node)) for node in nodes]
        rng.shuffle(shuffled)
        other = work.copy()
        splits = sum(len(node) - 1 for node in nodes)
        assert complete(work, g, nodes, ()) == splits
        assert complete(other, g, shuffled[::-1], ()) == splits
        assert work.to_lines() == other.to_lines()
        assert verify_cut_tree(work, g).ok
        assert verify_cut_tree(other, g).ok


def _random_nodes(tree, rng):
    """The compound nodes that a random half of ``tree``'s edges join, and each vertex's node."""
    inner: dict[int, set[int]] = {}
    for u, v, _ in tree.edges():
        if rng.random() < 0.5:
            inner.setdefault(u, set()).add(v)
            inner.setdefault(v, set()).add(u)
    nodes, node_of = [], {}
    for x in sorted(tree.vertices):
        if x not in node_of:
            nodes.append(_component(inner, x))
            node_of.update(dict.fromkeys(nodes[-1], nodes[-1]))
    return nodes, node_of


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
        # the cost of an edge inside a compound node means nothing
        work = t3_tree.copy()
        work.set_cost(2, 3, 0)
        assert work != t3_tree
        assert path(work, 1, 2) == [(1, 3), (3, 2)]


class TestSerialization:
    def test_lines_sorted_by_pair(self, t3_tree):
        assert t3_tree.to_lines() == ["1 3 4", "2 3 3"]

    def test_roundtrip_via_constructor(self, t3_tree):
        edges = [tuple(int(x) for x in line.split()) for line in t3_tree.to_lines()]
        assert CutTree(edges=edges) == t3_tree


def _component(nbrs, start):
    seen, todo = {start}, [start]
    while todo:
        for y in nbrs.get(todo.pop(), ()):
            if y not in seen:
                seen.add(y)
                todo.append(y)
    return seen


class TestContractLinks:
    def test_all_leaf_links_contract_nothing(self, c4):
        tree = CutTree(edges=[(1, 2, 2), (1, 3, 2), (1, 4, 2)])
        assert contract_links(tree, c4, [(2, 1), (3, 1), (4, 1)], []) is c4

    def test_multi_vertex_subtree_contracts_a_fresh_graph(self, c4):
        tree = CutTree(edges=[(1, 2, 2), (2, 3, 2), (1, 4, 2)])
        before = c4.copy()
        quotient = contract_links(tree, c4, [(2, 1), (4, 1)], [])
        assert quotient is not c4 and c4 == before
        assert quotient == DynamicGraph(edges=[(1, 2, 1), (2, 4, 1), (1, 4, 1)])

    def test_a_subtree_node_is_named_after_its_far_end(self, c4):
        # the subtree {2, 3} beyond link (3, 1) is node 3, not its smallest member 2
        tree = CutTree(edges=[(1, 3, 2), (3, 2, 2), (1, 4, 2)])
        quotient = contract_links(tree, c4, [(3, 1), (4, 1)], [])
        assert quotient == DynamicGraph(edges=[(1, 3, 1), (1, 4, 1), (3, 4, 1)])

    def test_a_node_of_more_than_half_the_vertices_is_not_read(self, monkeypatch):
        # beyond (3, 2) lie exactly half the vertices, so contract builds
        # that quotient; a node of three of the four is built by _quotient.
        # The decrease walk's node, v plus u's subtree with every link at v,
        # takes the same path.
        built = []
        for name in ("contract", "_quotient"):
            real = getattr(tree_mod, name)

            def spy(*args, name=name, real=real):
                built.append(name)
                return real(*args)

            monkeypatch.setattr(tree_mod, name, spy)
        g = DynamicGraph(edges=[(1, 2, 3), (2, 3, 1), (3, 4, 2), (1, 4, 5), (1, 3, 4)])
        tree = CutTree(edges=[(1, 2, 0), (2, 3, 0), (3, 4, 0)])
        assert contract_links(tree, g, [(1, 2), (3, 2)], []) == contract(g, [[3, 4]])[0]
        assert contract_links(tree, g, [(2, 1)], []) == contract(g, [[2, 3, 4]])[0]
        assert contract_links(tree, g, [(1, 2)], [(3, 2)]) == contract(g, [[2, 3, 4]])[0]
        # the walk cuts u = 1, whose subtree is {1, 6}, from v = 2
        edges = [(1, 2, 3), (2, 3, 1), (3, 4, 2), (4, 5, 5), (5, 7, 1), (1, 6, 4), (6, 7, 2)]
        g = DynamicGraph(edges=[*edges, (2, 5, 3)])
        tree = CutTree(edges=[(6, 1, 0), (1, 2, 0), (2, 3, 0), (3, 4, 0), (4, 5, 0), (5, 7, 0)])
        assert contract_links(tree, g, [(3, 2)], []) == contract(g, [[3, 4, 5, 7]])[0]
        assert built == ["contract", "_quotient", "_quotient", "_quotient"]

    @given(graphs(min_vertices=2, max_vertices=10), st.integers(0, 10**6), st.booleans())
    @settings(max_examples=60)
    def test_the_quotient_of_a_node_equals_contract(self, g, seed, walk):
        # whichever links fold and whichever node of the quotient is the
        # largest, the quotient is contract's: a subtree named after its far
        # end, a folded one merged into its near end.  A split's node is a
        # random compound node; the decrease walk's is v plus u's subtree,
        # with every link at v.
        rng = random.Random(seed)
        tree = static_build(g)
        if walk:
            u, v, _ = rng.choice(list(tree.edges()))
            links = [(far, v) for far in tree.neighbors(v) if far != u]
        else:
            node = rng.choice(_random_nodes(tree, rng)[0])
            links = [
                (far, near) for near in node for far in tree.neighbors(near) if far not in node
            ]
        folds = [link for link in links if rng.random() < 0.5]
        kept = [link for link in links if link not in folds]
        beyond = {far: [far, *tree.subtree(far, near) - {far}] for far, near in links}
        into = {}
        for far, near in folds:
            into.setdefault(near, [near]).extend(beyond[far])
        groups = [beyond[far] for far, _ in kept if len(beyond[far]) > 1] + list(into.values())
        quotient = contract_links(tree, g, kept, folds)
        if groups:
            assert quotient == contract(g, groups)[0]
        else:  # nothing to merge: the step cuts the graph itself
            assert quotient is g

    def test_static_build_of_unit_complete_graph_never_contracts(self, monkeypatch):
        # every minimum cut of a unit complete graph is a one-vertex degree
        # cut, so each split peels off its smallest member and every
        # subtree beyond the remaining node is a leaf
        calls = []
        real = tree_mod.contract

        def spy(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(tree_mod, "contract", spy)
        n = 9
        g = DynamicGraph(edges=[(u, v, 1) for u in range(n) for v in range(u + 1, n)])
        tree = static_build(g)
        assert calls == []
        assert verify_cut_tree(tree, g).ok
        assert sorted(c for _, _, c in tree.edges()) == [n - 1] * (n - 1)


def _bfs_path(tree, u, v):
    """The u-v path found by breadth-first search over the rows, or None."""
    parent = {u: None}
    found = [u]
    for x in found:
        for y in tree.neighbors(x):
            if y not in parent:
                parent[y] = x
                found.append(y)
    if v not in parent:
        return None
    out = [v]
    while out[-1] != u:
        out.append(parent[out[-1]])
    return out[::-1]


def _root_of(tree, x):
    while tree._up[x] is not None:
        x = tree._up[x]
    return x


def _check_parent_map(tree, rng):
    up = tree._up
    assert set(up) == set(tree.vertices)
    for x, p in up.items():
        assert p is None or p in tree.neighbors(x)
        y, steps = x, 0
        while up[y] is not None:
            y, steps = up[y], steps + 1
            assert steps <= tree.vertex_count
    assert sum(p is not None for p in up.values()) == tree.edge_count
    verts = sorted(tree.vertices)
    # ancestor/descendant pairs both ways, then random pairs, which may lie
    # in different components
    pairs = [(x, _root_of(tree, x)) for x in verts if up[x] is not None]
    pairs += [(b, a) for a, b in pairs]
    if len(verts) > 1:
        pairs += [tuple(rng.sample(verts, 2)) for _ in range(6)]
    for u, v in pairs:
        expected = _bfs_path(tree, u, v)
        if expected is None:
            with pytest.raises(VertexMissing):
                tree.path_vertices(u, v)
            with pytest.raises(VertexMissing):
                query_value(tree, u, v)
        else:
            assert tree.path_vertices(u, v) == expected
            costs = [tree.cost(a, b) for a, b in zip(expected, expected[1:])]
            assert query_value(tree, u, v) == min(costs)


def _refused(tree, edit):
    """``edit`` must raise EdgeExists and leave the tree and its roots as they were."""
    before, up_before = tree.copy(), dict(tree._up)
    with pytest.raises(EdgeExists):
        edit()
    assert tree == before
    assert tree._up == up_before


class TestParentMap:
    @given(st.integers(2, 12), st.integers(0, 10**6))
    def test_random_edits_keep_parent_map(self, n, seed):
        rng = random.Random(seed)
        tree = CutTree(vertices=range(n))
        ops = ["av", "rv", "ae", "ae", "ae", "re", "mv", "mv", "mv"]
        for _ in range(80):
            op = rng.choice(ops)
            verts = sorted(tree.vertices)
            edges = sorted((u, v) for u, v, _ in tree.edges())
            if op == "av":
                v = rng.randrange(2 * n)
                if v not in tree.vertices:
                    tree.add_vertex(v)
            elif op == "rv" and len(verts) > 2:
                tree.remove_vertex(rng.choice(verts))
            elif op == "ae" and len(verts) > 1:
                u, v = rng.sample(verts, 2)
                if _bfs_path(tree, u, v) is None:
                    tree.add_edge(u, v, rng.randint(0, 9))
                else:
                    _refused(tree, lambda: tree.add_edge(u, v, 1))
            elif op == "re" and edges:
                tree.remove_edge(*rng.sample(rng.choice(edges), 2))
            elif op == "mv" and edges:
                # re-hang far's side of an edge elsewhere, or back if that is refused
                far, near = rng.sample(rng.choice(edges), 2)
                new = rng.choice(verts)
                c = tree.cost(far, near)
                side = tree.subtree(far, near)
                tree.remove_edge(far, near)
                _check_parent_map(tree, rng)
                if new in side:
                    if new != far:
                        _refused(tree, lambda: tree.add_edge(far, new, c))
                    new = near
                tree.add_edge(far, new, c)
            _check_parent_map(tree, rng)

    def test_cycle_edits_raise_and_change_nothing(self):
        # path 1-2-3-4-5, rooted by its edit history somewhere inside
        tree = CutTree(edges=[(1, 2, 4), (2, 3, 1), (3, 4, 6), (4, 5, 2)])
        for u, v in [(1, 3), (1, 5), (5, 2), (3, 4)]:
            _refused(tree, lambda: tree.add_edge(u, v, 1))
        # re-hang {2,3} and {3,4} at their far ends; onto far's own side is refused
        tree.remove_edge(3, 2)
        _refused(tree, lambda: tree.add_edge(3, 5, 1))
        tree.add_edge(3, 1, 1)
        tree.remove_edge(3, 4)
        _refused(tree, lambda: tree.add_edge(3, 2, 6))
        tree.add_edge(3, 5, 6)
        assert tree == CutTree(edges=[(1, 2, 4), (1, 3, 1), (3, 5, 6), (4, 5, 2)])
        assert tree.path_vertices(2, 4) == [2, 1, 3, 5, 4]
        assert query_value(tree, 4, 2) == 1
