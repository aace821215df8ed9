import itertools
import random

import hypothesis.strategies as st
import pytest
from hypothesis import given

from dyncut import Cut, DynamicGraph, all_pairs_connectivity, cut_cost, min_cut
from dyncut.errors import SameVertex, VertexMissing
from dyncut.mincut import counter
from helpers import graphs, nx_min_cut, sparse_graph


def test_t3_cut(t3):
    cut = min_cut(t3, 1, 3)
    assert cut.cost == 4
    assert cut.side == frozenset({1})


def test_p3_bridge(p3):
    cut = min_cut(p3, 1, 3)
    assert cut.cost == 2
    assert cut.side == frozenset({1, 2})


def test_disconnected_endpoints():
    g = DynamicGraph(vertices=[1, 2, 3], edges=[(1, 3, 5)])
    cut = min_cut(g, 1, 2)
    assert cut.cost == 0
    assert cut.side == frozenset({1, 3})


def test_counter_increments_once_per_call(t3):
    before = counter.value
    min_cut(t3, 1, 2)
    min_cut(t3, 1, 2)
    assert counter.value == before + 2


def test_counter_counts_disconnected_calls():
    g = DynamicGraph(vertices=[1, 2])
    before = counter.value
    min_cut(g, 1, 2)
    assert counter.value == before + 1


def test_same_vertex_rejected(t3):
    with pytest.raises(SameVertex):
        min_cut(t3, 2, 2)


def test_missing_vertex_rejected(t3):
    with pytest.raises(VertexMissing):
        min_cut(t3, 1, 9)


def test_deterministic_side(t3):
    assert min_cut(t3, 1, 3) == min_cut(t3, 1, 3)


@given(graphs(max_vertices=6))
def test_matches_exhaustive_enumeration(g):
    lam = all_pairs_connectivity(g)
    for (u, v), expected in lam.items():
        assert min_cut(g, u, v).cost == expected


@given(graphs())
def test_symmetry_and_self_consistency(g):
    verts = sorted(g.vertices)
    for u, v in itertools.combinations(verts, 2):
        cut = min_cut(g, u, v)
        assert cut.cost == min_cut(g, v, u).cost
        assert u in cut.side and v not in cut.side
        assert cut_cost(g, cut.side) == cut.cost


@given(graphs(max_vertices=6))
def test_connectivity_triangle_inequality(g):
    lam = all_pairs_connectivity(g)

    def get(a, b):
        return lam[(a, b) if a < b else (b, a)]

    for u, v, w in itertools.combinations(sorted(g.vertices), 3):
        assert get(u, w) >= min(get(u, v), get(v, w))
        assert get(u, v) >= min(get(u, w), get(w, v))
        assert get(v, w) >= min(get(v, u), get(u, w))


def _smallest_min_cut_side(g, u, v):
    """Cost and intersection of every minimum u-v cut side holding u, by enumeration."""
    others = sorted(set(g.vertices) - {u, v})
    best, common = None, None
    for k in range(len(others) + 1):
        for extra in itertools.combinations(others, k):
            side = frozenset((u, *extra))
            cost = cut_cost(g, side)
            if best is None or cost < best:
                best, common = cost, side
            elif cost == best:
                common &= side
    return best, common


@given(graphs(max_vertices=7))
def test_side_is_the_smallest_minimum_cut_side(g):
    for u, v in itertools.permutations(sorted(g.vertices), 2):
        cost, side = _smallest_min_cut_side(g, u, v)
        assert min_cut(g, u, v) == Cut(side, cost)


@given(graphs(max_vertices=7), st.integers(0, 10**6))
def test_cut_ignores_vertex_and_edge_order(g, seed):
    rng = random.Random(seed)
    verts = list(g.vertices)
    edges = [(v, u, w) if rng.random() < 0.5 else (u, v, w) for u, v, w in g.edges()]
    rng.shuffle(verts)
    rng.shuffle(edges)
    shuffled = DynamicGraph(vertices=verts, edges=edges)
    assert shuffled == g
    for u, v in itertools.permutations(sorted(g.vertices), 2):
        assert min_cut(shuffled, u, v) == min_cut(g, u, v)


@pytest.mark.parametrize("seed", range(40))
def test_matches_networkx_beyond_enumeration(seed):
    rng = random.Random(seed)
    g = sparse_graph(rng, rng.randint(15, 120), big=seed % 2 == 1)
    for _ in range(3):
        s, t = rng.sample(sorted(g.vertices), 2)
        cost, side = nx_min_cut(g, s, t)
        assert min_cut(g, s, t) == Cut(side, cost)


def test_isolated_source():
    g = DynamicGraph(vertices=[1, 2, 3], edges=[(2, 3, 4)])
    assert min_cut(g, 1, 3) == Cut(frozenset({1}), 0)


def test_long_path():
    # distances to t climb to n - 1 along the path; the side stops at its
    # first cheapest edge
    n = 300
    edges = [(i, i + 1, 5 if i in (120, 200) else 7) for i in range(n - 1)]
    g = DynamicGraph(vertices=range(n), edges=edges)
    assert min_cut(g, 0, n - 1) == Cut(frozenset(range(121)), 5)


def test_source_saturated_beside_a_vertex_of_its_distance():
    # s = 1 and 5 are both 3 arcs from t = 4, so saturating s's only edge
    # leaves no empty distance and s is lifted past n
    g = DynamicGraph(edges=[(1, 2, 1), (2, 3, 5), (3, 4, 5), (5, 2, 1)])
    assert min_cut(g, 1, 4) == Cut(frozenset({1}), 1)


def test_input_graph_unchanged():
    g = sparse_graph(random.Random(7), 60, big=False)
    adj = {x: dict(nbrs) for x, nbrs in g._adj.items()}
    for s, t in [(0, 59), (3, 17), (59, 0)]:
        min_cut(g, s, t)
    assert g._adj == adj
