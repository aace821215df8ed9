import itertools
import random

import hypothesis.strategies as st
import pytest
from hypothesis import given

from dyncut import Cut, DynamicGraph, cut_cost, min_cut
from dyncut.errors import SameVertex, VertexMissing
from dyncut.mincut import _augment, _prepush, _sink_labels, counter
from helpers import all_pairs_connectivity, graphs, nx_min_cut, sparse_graph


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


# the counter's only reader is perfbench/run.py:377
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


def _weighted_degree(g, v):
    return sum(g.neighbors(v).values())


def test_input_graph_unchanged():
    g = sparse_graph(random.Random(7), 60, big=False)
    adj = {x: dict(nbrs) for x, nbrs in g._adj.items()}
    heavy = max(g.vertices, key=lambda v: (_weighted_degree(g, v), v))
    light = min(g.vertices, key=lambda v: (_weighted_degree(g, v), v))
    assert _weighted_degree(g, light) < _weighted_degree(g, heavy)
    for s, t in [(0, 59), (3, 17), (59, 0), (heavy, light)]:
        min_cut(g, s, t)
    assert g._adj == adj


# In the cases below t is the lighter end, so the flow runs from t and
# s's side is read by a search over reversed residual arcs.


def test_lighter_sink_degree_cut_is_the_only_minimum():
    # s = 0 in a triangle of weight 3, then a chain 2-3-4 of weight 4;
    # t = 9 hangs off 3 and 4 by weight 1 each, so every other cut costs
    # more than 2.  The search meets 4 last, alone, and stops there.
    edges = [(0, 1, 3), (0, 2, 3), (1, 2, 3), (2, 3, 4), (3, 4, 4), (3, 9, 1), (4, 9, 1)]
    g = DynamicGraph(edges=edges)
    assert _weighted_degree(g, 9) < _weighted_degree(g, 0)
    assert min_cut(g, 0, 9) == Cut(frozenset(range(5)), 2)


def test_lighter_sink_smallest_side_inside_the_rest():
    # s = 0 in a 5-clique of weight 4; the clique reaches t = 9 only
    # through x = 5, by weight 2 on both sides, so the clique alone and
    # everything but t are both minimum sides; the smallest is the clique
    edges = [(a, b, 4) for a, b in itertools.combinations(range(5), 2)]
    g = DynamicGraph(edges=edges + [(3, 5, 1), (4, 5, 1), (5, 9, 2)])
    assert _weighted_degree(g, 9) < _weighted_degree(g, 0)
    assert min_cut(g, 0, 9) == Cut(frozenset(range(5)), 2)


def test_lighter_sink_isolated():
    # t = 9 has no edges; s's component is larger than t's, and a third
    # component stays off the side
    g = DynamicGraph(vertices=[9], edges=[(1, 2, 2), (2, 3, 1), (3, 1, 5), (7, 8, 4)])
    assert min_cut(g, 1, 9) == Cut(frozenset({1, 2, 3}), 0)


def test_equal_degree_ends():
    # deg(s) = deg(t) = 5, so neither end is the lighter; the smallest
    # minimum side is {s}, though t's degree cut costs 5 as well
    g = DynamicGraph(edges=[(1, 2, 3), (1, 3, 2), (2, 3, 9), (2, 4, 3), (3, 4, 2)])
    assert _weighted_degree(g, 1) == _weighted_degree(g, 4)
    assert min_cut(g, 1, 4) == Cut(frozenset({1}), 5)
    assert min_cut(g, 4, 1) == Cut(frozenset({4}), 5)


def _three_hop_graph(seed):
    """A graph and its s, t: joined directly, through x's and through x-y pairs.

    x's and y's are shared between s-x-y-t paths (so is each y-t arc),
    some x's also reach t directly, and a few edges join x's and y's among
    themselves.  Built on ids 0 (s), 1 (t), 2-4 (x), 5-7 (y) and 8-9, then
    relabelled at random.
    """
    rng = random.Random(seed)
    xs, ys = [2, 3, 4], [5, 6, 7]
    edges = {(0, 1): rng.randint(1, 4)}
    for x in xs:
        edges[0, x] = rng.randint(3, 9)
        if rng.random() < 0.5:
            edges[x, 1] = rng.randint(1, 3)
        for y in rng.sample(ys, 2):
            edges[x, y] = rng.randint(1, 6)
    for y in ys:
        edges[y, 1] = rng.randint(1, 6)
    for a, b in (rng.sample(xs, 2), rng.sample(ys, 2), (rng.choice(ys), 8), (8, 9)):
        edges[min(a, b), max(a, b)] = rng.randint(1, 4)
    # so that row order does not follow the construction
    ids = list(range(10))
    rng.shuffle(ids)
    g = DynamicGraph(vertices=ids, edges=[(ids[a], ids[b], w) for (a, b), w in edges.items()])
    return g, ids[0], ids[1]


@pytest.mark.parametrize("seed", range(30))
def test_prepush_leaves_a_feasible_flow(seed):
    g, s, t = _three_hop_graph(seed)
    res = {x: nbrs.copy() for x, nbrs in g._adj.items()}
    pushed = _prepush(res, s, t)
    net = dict.fromkeys(g.vertices, 0)  # flow out minus flow in
    for x, nbrs in g._adj.items():
        assert res[x].keys() == nbrs.keys()
        for y, w in nbrs.items():
            assert 0 <= res[x][y] <= 2 * w
            assert res[x][y] + res[y][x] == 2 * w
            net[x] += w - res[x][y]
    assert net.pop(s) == pushed == -net.pop(t)
    assert set(net.values()) == {0}
    cost, side = _smallest_min_cut_side(g, s, t)
    assert pushed <= cost
    assert min_cut(g, s, t) == Cut(side, cost)


def test_prepush_fills_three_edge_paths():
    # no s-t edge and no path s-x-t: the three-edge pass alone pushes the flow
    g = DynamicGraph(edges=[(1, 2, 3), (2, 3, 5), (3, 4, 4), (2, 5, 2), (5, 4, 1)])
    res = {x: nbrs.copy() for x, nbrs in g._adj.items()}
    assert _prepush(res, 1, 4) == 3
    assert min_cut(g, 1, 4) == Cut(frozenset({1}), 3)


def test_source_labelled_part_way_through_its_layer():
    # Two paths from s = 0 to t = 9, s-5-4-1-t and s-7-6-2-3-t, too long for
    # the prepush.  The search back from t meets s in 5's row, before 5's
    # other neighbour 8 and before 6's row, so it stops with 7 and 8, as
    # near t as s, unlabelled.  Once the first path is full, all that is
    # left runs through 7.
    edges = [(1, 9, 3), (3, 9, 3), (1, 4, 2), (3, 2, 2), (4, 5, 2), (2, 6, 2),
             (5, 0, 2), (5, 8, 1), (6, 7, 1), (0, 7, 2)]
    g = DynamicGraph(edges=edges)
    res = {x: nbrs.copy() for x, nbrs in g._adj.items()}
    assert _prepush(res, 0, 9) == 0
    dist, far = _sink_labels(res, 0, 9)
    assert dist == {9: 0, 1: 1, 3: 1, 4: 2, 2: 2, 5: 3, 6: 3, 0: 4} and far == 4
    cost, side = nx_min_cut(g, 0, 9)
    assert (cost, side) == (3, frozenset({0, 7}))
    assert _augment(res, 0, 9) == cost
    assert min_cut(g, 0, 9) == Cut(side, cost)


class _CountingRow(dict):
    """A residual row that counts the arcs its iterators yield."""

    reads = 0

    def __iter__(self):
        for y in super().__iter__():
            self.reads += 1
            yield y

    def items(self):
        for item in super().items():
            self.reads += 1
            yield item


def test_augment_reads_a_hub_row_only_to_its_admissible_arc():
    # hub 1 leads on to t = 99 through its first arc, to 2, which carries
    # all the flow s = 0 can send, so 1 is never relabelled; its 60 other
    # arcs go to leaves.  Only the search back from t may read past the
    # first arc, and it reads the row at most once.
    edges = [(1, 2, 9), (0, 1, 5), (2, 99, 9)] + [(1, x, 1) for x in range(100, 160)]
    g = DynamicGraph(edges=edges)
    res = {x: _CountingRow(nbrs) for x, nbrs in g._adj.items()}
    assert _augment(res, 0, 99) == 5
    assert res[1].reads <= len(res[1]) + 1
    assert min_cut(g, 0, 99) == Cut(frozenset({0}), 5)
