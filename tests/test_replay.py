import itertools
import random
from hashlib import sha256

import hypothesis.strategies as st
import pytest
from hypothesis.stateful import RuleBasedStateMachine, initialize, rule

import dyncut.tree as tree_mod
from dyncut import (
    ADD_EDGE,
    ADD_VERTEX,
    DECREASE_WEIGHT,
    REMOVE_EDGE,
    REMOVE_VERTEX,
    ChangeEvent,
    Cut,
    CutTree,
    DynamicCutTree,
    DynamicGraph,
    GenParams,
    apply_change,
    cut_cost,
    generate,
    parse_stream,
    replay,
    verify_cut_tree,
)
from dyncut.dynamic import NON_BRIDGE, _bridge_kind, update_increase
from dyncut.errors import DynCutError, VerificationFailed
from dyncut.graph import EVENT_KINDS
from dyncut.replay import CSV_HEADER
from dyncut.stream import BALANCED_EDGE_MIX
from dyncut.tree import complete, query_cut, query_value, static_build
from helpers import ALL_KINDS_MIX, path, random_event, random_graph

P3_BUILD = "av 1\nav 2\nav 3\nae 1 2 3\nae 2 3 2\n"
T3_BUILD = "av 1\nav 2\nav 3\nae 1 2 1\nae 2 3 2\nae 1 3 3\n"


def test_build_from_fresh_vertices_costs_nothing():
    report = replay(parse_stream(P3_BUILD))
    assert report.cum_dynamic == 0
    assert report.final_tree == CutTree(edges=[(1, 2, 3), (2, 3, 2)])


def test_t3_then_increase_matches_update_contract():
    report = replay(parse_stream(T3_BUILD + "iw 1 2 2\n"), verify=True)
    last = report.rows[-1]
    assert last.cuts_used == 1
    assert last.static_equiv == 2
    assert report.final_tree == CutTree(edges=[(1, 3, 5), (1, 2, 5)])


def test_rows_cumulate_consistently():
    stream = generate(GenParams(n_vertices=10, n_events=200), seed=5)
    report = replay(stream)
    cum_d = cum_s = 0
    prev_ratio = 0.0
    for row in report.rows:
        cum_d += row.cuts_used
        cum_s += row.static_equiv
        assert row.cum_dynamic == cum_d
        assert row.cum_static == cum_s
        assert 0.0 <= row.cum_ratio <= 1.0
        assert row.cuts_used <= row.static_equiv
        if row.cuts_used == 0:
            assert row.cum_ratio <= prev_ratio + 1e-12
        prev_ratio = row.cum_ratio
    assert report.cum_dynamic == cum_d
    assert report.cum_static == cum_s


def test_rows_count_the_graph_after_each_event():
    stream = generate(GenParams(n_vertices=12, n_events=400, mix=ALL_KINDS_MIX), seed=8)
    assert {ev.kind for ev in stream.events} == set(ALL_KINDS_MIX)
    g = DynamicGraph()
    for ev, row in zip(stream.events, replay(stream).rows, strict=True):
        apply_change(g, ev)
        assert (row.n, row.m) == (g.vertex_count, g.edge_count)


def test_replay_is_deterministic_to_the_byte():
    stream = generate(
        GenParams(n_vertices=14, n_events=250, mix=BALANCED_EDGE_MIX), seed=21
    )
    a = replay(stream).csv_text()
    b = replay(stream).csv_text()
    assert a == b
    assert a.splitlines()[0] == CSV_HEADER


def test_verified_replays_of_small_streams():
    for seed in range(3):
        stream = generate(GenParams(n_vertices=7, n_events=80), seed=seed)
        replay(stream, verify=True)  # raises VerificationFailed on any defect


def test_verification_failure_surfaces_step(monkeypatch):
    import sys

    replay_mod = sys.modules["dyncut.replay"]

    class FakeReport:
        ok = False

        def __str__(self):
            return "forced"

    monkeypatch.setattr(replay_mod, "verify_cut_tree", lambda *a, **k: FakeReport())
    with pytest.raises(VerificationFailed) as err:
        replay(parse_stream("av 1\n"), verify=True)
    assert err.value.step == 1


def test_csv_written_to_disk(tmp_path):
    stream = parse_stream(P3_BUILD)
    out = tmp_path / "rows.csv"
    report = replay(stream, csv_out=out)
    assert out.read_text() == report.csv_text()
    assert len(out.read_text().splitlines()) == len(stream) + 1


def test_per_kind_totals():
    # the per-kind cuts 1 + 0 + 1 + 1 add up to the 3 dynamic cuts
    report = replay(parse_stream(T3_BUILD + "iw 1 2 2\nre 1 3\n"))
    assert report.summary_text().splitlines() == [
        "events 8  dynamic_cuts 3  static_cuts 13  ratio 0.230769",
        "  ae: events 3  cuts 1  static 6  ratio 0.166667",
        "  av: events 3  cuts 0  static 3  ratio 0.000000",
        "  iw: events 1  cuts 1  static 2  ratio 0.500000",
        "  re: events 1  cuts 1  static 2  ratio 0.500000",
    ]


# fractions of av, rv, ae, re, iw, dw, as for ``dyncut gen --mix``
GROW_MIX = dict(zip(EVENT_KINDS, (0, 0, 0.6, 0, 0.4, 0)))
CHURN_MIX = dict(zip(EVENT_KINDS, (0, 0, 0.5, 0.1, 0.2, 0.2)))


def _digest(text):
    return sha256(text.encode()).hexdigest()


@pytest.mark.parametrize(
    "mix, seed, csv_digest, tree_digest",
    [
        (
            GROW_MIX,
            5,
            "ff96ff8f6ec824e4ad7226700c128f68b29849daaaa511f7b1bb367f5fe882b8",
            "327cd1dce2c7f0170c3944028b91cbd11930a90768e3a53f8b796f26aea6300a",
        ),
        (
            CHURN_MIX,
            1,
            "9c0ac9f5d23fd6a6bfab21e333262ac34c220b4b294074d0e6346efdab1da80e",
            "d57692bec72f46f6a3dc402b12f4c9c64b01321c4c6753c7a6f450e107c5dbd1",
        ),
    ],
    ids=["grow_increase", "dense_churn"],
)
def test_golden_replay_digests(mix, seed, csv_digest, tree_digest):
    # pinned digests: any change to a cut side, a cost or the tree shape shows here
    stream = generate(GenParams(n_vertices=40, n_events=400, mix=mix), seed=seed)
    report = replay(stream)
    assert _digest(report.csv_text()) == csv_digest
    assert _digest("\n".join(report.final_tree.to_lines())) == tree_digest


@pytest.mark.parametrize(
    "mix, seed, audit_digest",
    [
        (GROW_MIX, 5, "39a909f9d97d91024a9faf6c442ec981b2ce8dd0ef9ee9c76d59f283d3c00890"),
        (CHURN_MIX, 1, "93b20d502d027b43da3df2269a3d715ddfde6c75058332b1e3c69f90f55402d3"),
    ],
    ids=["grow_increase", "dense_churn"],
)
def test_golden_per_event_audit(mix, seed, audit_digest):
    # pinned digest of every event's accounting and of the tree after it:
    # which rule certified each stale edge, which edges the walk accepted
    # without a fresh cut, and every cost and shape along the way
    stream = generate(GenParams(n_vertices=40, n_events=400, mix=mix), seed=seed)
    cut_tree = DynamicCutTree()
    text = ""
    for ev in stream.events:
        st = cut_tree.apply(ev)
        text += repr((
            st.cuts_used,
            sorted(st.reuse_breakdown.items()),
            st.accepted_stale,
            cut_tree.tree.to_lines(),
        )) + "\n"
    assert _digest(text) == audit_digest


@pytest.mark.parametrize(
    "weight_max, seed, tree_digest",
    [
        (1, 2, "724130033090b4f561b999ef2c3e441348d93c591536118c0f74f1fda046ef4e"),
        (2, 1, "366d8e56bd20db7b44ca0ad7657ad345ef6178a32c71d6b9d22ac2acb4ecdb5e"),
    ],
    ids=["weight_max1-seed2", "weight_max2-seed1"],
)
def test_golden_static_build_digests(weight_max, seed, tree_digest):
    # On the golden streams static_build gives the replay's own tree, so
    # those digests cannot tell a change of split order.  With light
    # weights ties abound, and the tree depends on which node is split first.
    params = GenParams(n_vertices=40, n_events=400, weight_max=weight_max, mix=CHURN_MIX)
    graph = replay(generate(params, seed=seed)).final_graph.copy()
    assert _digest("\n".join(static_build(graph).to_lines())) == tree_digest


def test_leaf_cuts_share_a_quotient(monkeypatch):
    # The stream of the dense_churn digests above.  Every cut of a leaf at
    # the same path vertex reuses one contraction until a reshape, and a
    # step whose links are all leaves does not contract at all, so the
    # replay builds fewer quotients than it cuts.  A quotient whose largest
    # node holds more than half the vertices is built by _quotient, in a
    # split and in the walk alike, the others by contract.
    calls = {"contract": 0, "_quotient": 0, "min_cut": 0}
    for name in calls:
        real = getattr(tree_mod, name)

        def counted(*args, name=name, real=real):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(tree_mod, name, counted)
    replay(generate(GenParams(n_vertices=40, n_events=400, mix=CHURN_MIX), seed=1))
    assert calls == {"contract": 470, "_quotient": 199, "min_cut": 1561}
    assert calls["contract"] + calls["_quotient"] == 669


def test_splits_cut_folded_quotients(monkeypatch):
    # The stream of the grow_increase digest above.  Each split folds its
    # exact links above the degree bound into their near ends, so its cut
    # reads fewer edges than the unfolded quotient holds.
    edges = {"folded": 0, "unfolded": 0}
    min_cut, split = tree_mod.min_cut, tree_mod._split_node

    def counted_cut(quotient, s, t):
        edges["folded"] += quotient.edge_count
        return min_cut(quotient, s, t)

    def counted_split(tree, graph, members, inexact):
        node = set(members)
        links = [(far, near) for near in members for far in tree.neighbors(near) if far not in node]
        edges["unfolded"] += tree_mod.contract_links(tree, graph, links, []).edge_count
        return split(tree, graph, members, inexact)

    monkeypatch.setattr(tree_mod, "min_cut", counted_cut)
    monkeypatch.setattr(tree_mod, "_split_node", counted_split)
    replay(generate(GenParams(n_vertices=40, n_events=400, mix=GROW_MIX), seed=5))
    assert edges == {"folded": 33799, "unfolded": 45736}
    assert edges["folded"] < edges["unfolded"]


def test_update_increase_edits_tree_as_complete_does():
    report = replay(generate(GenParams(n_vertices=40, n_events=400, mix=GROW_MIX), seed=5))
    final, graph = report.final_tree, report.final_graph
    rebuilt = 0
    for b, d, _ in sorted(graph.edges())[::7]:
        raised = graph.copy()
        raised.increase_weight(b, d, 3)
        before = raised.copy()
        tree = final.copy()
        update_increase(tree, raised, b, d, 3)
        assert raised == before

        # the partial tree and compound nodes update_increase hands to complete
        verts = final.path_vertices(b, d)
        costs = [final.cost(*e) for e in path(final, b, d)]
        i = costs.index(min(costs))
        work = final.copy()
        work.set_cost(verts[i], verts[i + 1], costs[i] + 3)
        complete(work, raised, [verts[: i + 1], verts[i + 1 :]], [(verts[i], verts[i + 1])])
        if _bridge_kind(graph.weight(b, d), min(costs)) == NON_BRIDGE:
            assert work == tree
            rebuilt += 1
    assert rebuilt >= 5


def _certified_replay(stream, every=25):
    """Apply the stream event by event; certify every ``every`` events and after the last."""
    cut_tree = DynamicCutTree()
    graph, tree = cut_tree.graph, cut_tree.tree
    last = len(stream.events)
    for step, ev in enumerate(stream.events, start=1):
        cut_tree.apply(ev)
        if step % every == 0 or step == last:
            report = verify_cut_tree(tree, graph)
            if not report.ok:
                raise VerificationFailed(step, report)
    return graph


def _n100_stream():
    return generate(GenParams(n_vertices=100, n_events=1000, mix=CHURN_MIX), seed=7)


def test_certified_replay_beyond_enumeration():
    # 1,000 edge events on 100 vertices, far past the 12-vertex enumeration
    # cap; every certificate runs its flows on the oracle's own kernel
    graph = _certified_replay(_n100_stream())
    assert graph.vertex_count == 100 and graph.edge_count > 300


def test_certified_replay_catches_a_faulty_kernel(monkeypatch):
    # every 20th cut returns the source alone when that is not a minimum
    # side: a plausible kernel bug that keeps cost and side consistent
    real, calls = tree_mod.min_cut, itertools.count(1)

    def faulty(graph, s, t):
        cut = real(graph, s, t)
        if next(calls) % 20:
            return cut
        alone = Cut(frozenset({s}), cut_cost(graph, {s}))
        return alone if alone.cost > cut.cost else cut

    monkeypatch.setattr(tree_mod, "min_cut", faulty)
    with pytest.raises(VerificationFailed) as err:
        _certified_replay(_n100_stream(), every=5)
    assert any(v.kind == "edge-connectivity" for v in err.value.report.violations)


def test_owner_takes_its_graph_and_builds_the_static_tree():
    for seed in range(10):
        g = random_graph(random.Random(seed))
        want = static_build(g.copy())
        cut_tree = DynamicCutTree(g)
        assert cut_tree.graph is g
        assert cut_tree.tree == want
    for cut_tree in (DynamicCutTree(), DynamicCutTree(DynamicGraph())):
        assert cut_tree.graph == DynamicGraph() and cut_tree.tree == CutTree()
        cut_tree.apply(ChangeEvent.add_vertex(3))
        assert cut_tree.tree == CutTree(vertices=[3])


def test_owner_queries_answer_as_the_tree_routines():
    stream = generate(GenParams(n_vertices=15, n_events=300, mix=ALL_KINDS_MIX), seed=4)
    rng, cut_tree, asked = random.Random(4), DynamicCutTree(), 0
    for ev in stream.events:
        cut_tree.apply(ev)
        if cut_tree.graph.vertex_count < 2:
            continue
        u, v = rng.sample(sorted(cut_tree.graph.vertices), 2)
        value, cut = cut_tree.query(u, v), cut_tree.cut(u, v)
        assert value == query_value(cut_tree.tree, u, v)
        assert cut == query_cut(cut_tree.tree, u, v)
        assert cut.cost == value == cut_cost(cut_tree.graph, cut.side)
        assert u in cut.side and v not in cut.side
        asked += 1
    assert asked > 250


VERTEX_IDS = st.integers(0, 7)
# inserts outnumber removals, so the graphs fill up
FILLING_MIX = dict(zip(EVENT_KINDS, (0.1, 0.02, 0.4, 0.08, 0.2, 0.2)))


@st.composite
def change_events(draw):
    """Well-formed events over ids 0..7, whether or not they apply."""
    kind = draw(st.sampled_from(EVENT_KINDS))
    u = draw(VERTEX_IDS)
    if kind in (ADD_VERTEX, REMOVE_VERTEX):
        return ChangeEvent(kind, u)
    v = draw(VERTEX_IDS.filter(lambda v: v != u))
    if kind == REMOVE_EDGE:
        return ChangeEvent(kind, u, v)
    return ChangeEvent(kind, u, v, draw(st.integers(1, 9)))


def _applies(graph, ev):
    """Whether ``ev`` applies to ``graph``, by the stream grammar's rules."""
    u, v = ev.u, ev.v
    if ev.kind == ADD_VERTEX:
        return u not in graph.vertices
    if ev.kind == REMOVE_VERTEX:
        return u in graph.vertices and not graph.neighbors(u)
    if ev.kind == ADD_EDGE:
        return u in graph.vertices and v in graph.vertices and not graph.has_edge(u, v)
    if not graph.has_edge(u, v):
        return False
    return ev.kind != DECREASE_WEIGHT or ev.delta < graph.weight(u, v)


class EventGrammar(RuleBasedStateMachine):
    """Valid events keep a certified tree; invalid ones change nothing."""

    def __init__(self):
        super().__init__()
        self.cut_tree = DynamicCutTree()
        self.graph, self.tree = self.cut_tree.graph, self.cut_tree.tree

    @initialize(rng=st.randoms(use_true_random=False), n=st.integers(0, 8), m=st.integers(0, 16))
    def fill(self, rng, n, m):
        for v in range(n):
            self._apply(ChangeEvent.add_vertex(v))
        for _ in range(m):
            if ev := random_event(self.graph, rng, {ADD_EDGE: 1.0}, max_vertices=8):
                self._apply(ev)

    def _apply(self, ev):
        if _applies(self.graph, ev):
            self.cut_tree.apply(ev)
            report = verify_cut_tree(self.tree, self.graph)
            assert report.ok, (ev, str(report))
        else:
            graph, tree = self.graph.copy(), self.tree.copy()
            with pytest.raises(DynCutError):
                self.cut_tree.apply(ev)
            assert self.graph == graph and self.tree == tree

    @rule(ev=change_events())
    def any_event(self, ev):
        self._apply(ev)

    @rule(rng=st.randoms(use_true_random=False))
    def applicable_event(self, rng):
        ev = random_event(self.graph, rng, FILLING_MIX, max_vertices=8)
        if ev is not None:
            assert _applies(self.graph, ev)
            self._apply(ev)


TestEventGrammar = EventGrammar.TestCase
