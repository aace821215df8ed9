"""Shared strategies and scenario drivers for the test suite."""

import random

import hypothesis.strategies as st

from dyncut import (
    ADD_EDGE,
    ADD_VERTEX,
    DECREASE_WEIGHT,
    INCREASE_WEIGHT,
    REMOVE_EDGE,
    REMOVE_VERTEX,
    DynamicGraph,
)

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


def random_graph(rng: random.Random, n_min=4, n_max=10, edge_prob=0.5, max_weight=8):
    n = rng.randint(n_min, n_max)
    g = DynamicGraph(vertices=range(1, n + 1))
    for u in range(1, n + 1):
        for v in range(u + 1, n + 1):
            if rng.random() < edge_prob:
                g.add_edge(u, v, rng.randint(1, max_weight))
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
