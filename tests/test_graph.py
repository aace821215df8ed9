import random

import pytest
from hypothesis import given
import hypothesis.strategies as st

from dyncut import (
    ChangeEvent,
    CutTree,
    DynamicGraph,
    apply_change,
    cut_cost,
)
from dyncut.errors import (
    EdgeExists,
    EdgeMissing,
    InvalidDelta,
    OverlappingGroups,
    VertexExists,
    VertexMissing,
    VertexNotIsolated,
)
from dyncut.graph import Quotient, contract, pair_key
from helpers import ALL_KINDS_MIX, graphs, inverse_event, random_event


class TestConstruction:
    def test_parallel_edges_merge_by_sum(self):
        g = DynamicGraph(edges=[(1, 2, 2), (2, 1, 3)])
        assert g.weight(1, 2) == 5
        assert g.edge_count == 1

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            DynamicGraph(edges=[(1, 1, 2)])

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ValueError):
            DynamicGraph(edges=[(1, 2, 0)])
        for weight in (0.5, 2.0, "3", True, False):
            with pytest.raises(InvalidDelta):
                DynamicGraph(edges=[(1, 2, weight)])

    def test_negative_vertex_id_rejected(self):
        for make in (
            lambda: DynamicGraph(vertices=[-1]),
            lambda: DynamicGraph(edges=[(-1, 2, 1)]),
            lambda: DynamicGraph(vertices=[1.5]),
            lambda: DynamicGraph(vertices=[False, True]),
            lambda: DynamicGraph(edges=[(True, 2, 1)]),
            lambda: DynamicGraph().add_vertex(-1),
            lambda: CutTree(vertices=[-1]),
            lambda: CutTree(vertices=["a"]),
            lambda: CutTree(edges=[(1, 2.5, 0)]),
            lambda: ChangeEvent.add_vertex(-1),
            lambda: ChangeEvent.add_vertex(True),
            lambda: ChangeEvent.add_edge(1, -2, 1),
        ):
            with pytest.raises(ValueError):
                make()

    def test_endpoints_in_vertex_set(self):
        g = DynamicGraph(edges=[(1, 2, 3)])
        assert set(g.vertices) == {1, 2}


@pytest.mark.parametrize("kind", [DynamicGraph, CutTree])
@pytest.mark.parametrize("bad", [True, 1.0])
def test_add_vertex_checks_the_id_before_presence(kind, bad):
    # True == 1.0 == 1, so a presence test first would answer VertexExists
    rows = kind(vertices=[1])
    with pytest.raises(ValueError):
        rows.add_vertex(bad)
    assert list(rows.vertices) == [1]


@pytest.mark.parametrize("kind", [DynamicGraph, CutTree])
@given(st.integers(2, 10), st.integers(0, 10**6))
def test_shared_reads_match_a_pair_key_model(kind, n, seed):
    # graphs and cut trees read the same rows; the edits keep a forest so
    # that each is legal on both
    rng = random.Random(seed)
    rows = kind(vertices=range(n))
    verts, weight = set(range(n)), {}  # the reference: vertex set, pair key -> weight

    def reached(x):
        seen = [x]
        for y in seen:
            seen += [a + b - y for a, b in weight if y in (a, b) and a + b - y not in seen]
        return seen

    for _ in range(60):
        op = rng.choice(["ae", "ae", "re", "av", "rv"])
        if op == "ae" and len(verts) > 1:
            u, v = rng.sample(sorted(verts), 2)
            if v not in reached(u):
                w = rng.randint(1, 9)
                rows.add_edge(u, v, w)
                weight[pair_key(u, v)] = w
        elif op == "re" and weight:
            u, v = rng.sample(rng.choice(sorted(weight)), 2)
            rows.remove_edge(u, v)
            del weight[pair_key(u, v)]
        elif op == "av":
            x = rng.randrange(2 * n)
            if x not in verts:
                rows.add_vertex(x)
                verts.add(x)
        elif op == "rv" and verts:
            x = rng.choice(sorted(verts))
            if all(x not in p for p in weight):
                rows.remove_vertex(x)
                verts.discard(x)
        assert sorted(rows.edges()) == sorted((u, v, w) for (u, v), w in weight.items())
        assert rows.edge_count == len(weight)
        assert rows.vertex_count == len(verts) and set(rows.vertices) == verts
        for u in range(2 * n):
            for v in range(2 * n):
                assert rows.has_edge(u, v) == (pair_key(u, v) in weight)
            if u in verts:
                want = {b if a == u else a: w for (a, b), w in weight.items() if u in (a, b)}
                assert rows.neighbors(u) == want
            else:
                with pytest.raises(VertexMissing):
                    rows.neighbors(u)


def test_rows_compare_only_within_their_kind():
    # a path is a graph and a tree on the same rows; a quotient is a graph
    edges = [(1, 2, 3), (2, 3, 5)]
    graph, tree = DynamicGraph(edges=edges), CutTree(edges=edges)
    quotient = contract(graph, [])[0]
    assert graph._adj == tree._adj == quotient._adj
    assert graph != tree and tree != graph
    assert quotient == graph and graph == quotient
    assert quotient != tree and tree != quotient
    assert tree == CutTree(edges=edges[::-1])


class TestApplyChange:
    def test_increase_weight(self, t3):
        apply_change(t3, ChangeEvent.increase_weight(1, 2, 2))
        assert t3.weight(1, 2) == 3

    def test_remove_vertex_needs_degree_zero(self, t3):
        with pytest.raises(VertexNotIsolated):
            apply_change(t3, ChangeEvent.remove_vertex(1))
        assert t3.has_edge(1, 2)

    def test_decrease_by_full_cost_rejected(self, t3):
        with pytest.raises(InvalidDelta):
            apply_change(t3, ChangeEvent.decrease_weight(1, 3, 3))
        assert t3.weight(1, 3) == 3

    def test_add_existing_vertex(self, t3):
        with pytest.raises(VertexExists):
            apply_change(t3, ChangeEvent.add_vertex(2))

    def test_add_existing_edge(self, t3):
        with pytest.raises(EdgeExists):
            apply_change(t3, ChangeEvent.add_edge(1, 2, 4))

    def test_add_edge_missing_endpoint(self, t3):
        with pytest.raises(VertexMissing):
            apply_change(t3, ChangeEvent.add_edge(1, 9, 4))

    def test_remove_missing_edge(self, t3):
        with pytest.raises(EdgeMissing):
            apply_change(t3, ChangeEvent.remove_edge(1, 9))

    def test_event_delta_must_be_positive(self, t3):
        with pytest.raises(InvalidDelta):
            ChangeEvent.increase_weight(1, 2, 0)
        # a fractional weight would make cut costs inexact
        t3.add_vertex(4)
        before = t3.copy()
        for reject in (
            lambda: ChangeEvent.add_edge(1, 2, 0.5),
            lambda: ChangeEvent.increase_weight(1, 2, 1.0),
            lambda: ChangeEvent.decrease_weight(1, 3, 0.5),
            lambda: ChangeEvent.add_edge(1, 2, True),
            lambda: ChangeEvent.increase_weight(1, 2, False),
            lambda: t3.add_edge(1, 4, 0.5),
            lambda: t3.increase_weight(1, 2, 0.5),
            lambda: t3.decrease_weight(1, 3, 0.5),
            lambda: t3.add_edge(1, 4, True),
            lambda: t3.increase_weight(1, 2, True),
        ):
            with pytest.raises(InvalidDelta):
                reject()
        assert t3 == before

    @given(graphs(), st.integers(0, 10**6))
    def test_apply_then_inverse_restores(self, g, seed):
        rng = random.Random(seed)
        ev = random_event(g, rng, ALL_KINDS_MIX)
        if ev is None:
            return
        before = g.copy()
        inv = inverse_event(g, ev)
        apply_change(g, ev)
        apply_change(g, inv)
        assert g == before


class TestContract:
    def test_sum_rule(self, t3):
        q, node_of = contract(t3, [[2, 3]])
        assert type(q) is Quotient
        assert set(q.vertices) == {1, 2}
        assert q.weight(1, 2) == 4
        assert node_of == {1: 1, 2: 2, 3: 2}

    def test_a_node_is_named_after_its_first_member(self, t3):
        q, node_of = contract(t3, [[3, 2]])
        assert q == DynamicGraph(edges=[(1, 3, 4)])
        assert node_of == {1: 1, 2: 3, 3: 3}

    def test_a_repeated_member_counts_once(self, t3):
        assert contract(t3, [[2, 2, 3]]) == contract(t3, [{2, 3}])

    def test_singleton_groups_identity(self, t3):
        q, _ = contract(t3, [{1}, {2}, {3}])
        assert q == t3

    def test_c4_two_groups(self, c4):
        q, _ = contract(c4, [[1, 2], [3, 4]])
        assert set(q.vertices) == {1, 3}
        assert q.weight(1, 3) == 2

    def test_overlapping_groups(self, t3):
        with pytest.raises(OverlappingGroups):
            contract(t3, [{1, 2}, {2, 3}])

    def test_unknown_vertex(self, t3):
        with pytest.raises(VertexMissing):
            contract(t3, [{1, 9}])

    @given(graphs(min_vertices=4), st.integers(0, 10**6))
    def test_contraction_preserves_group_union_cuts(self, g, seed):
        rng = random.Random(seed)
        verts = sorted(g.vertices)
        rng.shuffle(verts)
        k = rng.randint(1, len(verts) // 2)
        groups = [verts[2 * i : 2 * i + 2] for i in range(k)]
        q, node_of = contract(g, groups)
        chosen = [grp for grp in groups if rng.random() < 0.5]
        node_side = {grp[0] for grp in chosen}
        vertex_side = set().union(*chosen) if chosen else set()
        assert cut_cost(q, node_side) == cut_cost(g, vertex_side)

    @given(graphs(), st.integers(0, 10**6))
    def test_matches_reference_contraction(self, g, seed):
        groups = _random_groups(g, random.Random(seed))
        before = g.copy()
        q, node_of = contract(g, groups)
        assert g == before
        ref, ref_node_of = _reference_contract(g, groups)
        assert node_of == ref_node_of
        assert q == ref

    @given(graphs(), st.integers(0, 10**6))
    def test_singleton_groups_change_nothing(self, g, seed):
        rng = random.Random(seed)
        groups = _random_groups(g, rng)
        grouped = set().union(*groups)
        groups += [[v] for v in g.vertices if v not in grouped and rng.random() < 0.5]
        rng.shuffle(groups)
        multi = [grp for grp in groups if len(grp) > 1]
        assert contract(g, groups) == contract(g, multi)

    @given(graphs(), st.integers(0, 10**6))
    def test_invalid_groups_raise_and_leave_graph_unchanged(self, g, seed):
        rng = random.Random(seed)
        groups = _random_groups(g, rng) or [[min(g.vertices)]]
        before = g.copy()
        bad = groups + [[max(g.vertices) + 1]]
        with pytest.raises(VertexMissing):
            contract(g, bad)
        taken = rng.choice(sorted(set().union(*groups)))
        with pytest.raises(OverlappingGroups):
            contract(g, groups + [[taken]])
        with pytest.raises(ValueError):
            contract(g, groups + [[]])
        assert g == before


def _random_groups(g, rng):
    """Disjoint groups over a random subset of the vertices, each in random order."""
    verts = sorted(g.vertices)
    rng.shuffle(verts)
    chosen = verts[: rng.randint(0, len(verts))]
    groups: list[list[int]] = []
    for v in chosen:
        if groups and rng.random() < 0.6:
            rng.choice(groups).append(v)
        else:
            groups.append([v])
    return groups


def _reference_contract(g, groups):
    """Contraction by the sum rule, one edge at a time through the public API.

    Each group's node is named after its first member.
    """
    node_of = {v: v for v in g.vertices}
    for grp in groups:
        for v in grp:
            node_of[v] = grp[0]
    q = DynamicGraph(vertices=node_of.values())
    for u, v, w in g.edges():
        a, b = node_of[u], node_of[v]
        if a == b:
            continue
        if q.has_edge(a, b):
            q.increase_weight(a, b, w)
        else:
            q.add_edge(a, b, w)
    return q, node_of


class TestCutCost:
    def test_t3_values(self, t3):
        assert cut_cost(t3, {1}) == 4
        assert cut_cost(t3, {2}) == 3
        assert cut_cost(t3, {1, 2, 3}) == 0

    def test_unknown_vertex(self, t3):
        with pytest.raises(VertexMissing):
            cut_cost(t3, {1, 9})

    @given(graphs(), st.integers(0, 10**6))
    def test_complement_symmetry(self, g, seed):
        rng = random.Random(seed)
        side = {v for v in g.vertices if rng.random() < 0.5}
        rest = set(g.vertices) - side
        assert cut_cost(g, side) == cut_cost(g, rest)
