"""End-to-end acceptance gates.

Each criterion runs at its stated size and tolerance (all comparisons are
exact integer equality unless noted) and prints one PASS/FAIL line.  Run
with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import random

import pytest

from dyncut import (
    Cut,
    DynamicCutTree,
    DynamicGraph,
    GenParams,
    cut_cost,
    generate,
    min_cut,
    replay,
    verify_cut_tree,
)
from dyncut.dynamic import (
    EXISTING_BRIDGE,
    NON_BRIDGE,
    _bridge_kind,
    update_decrease,
    update_increase,
)
from dyncut.stream import BALANCED_EDGE_MIX, MIX_ORDER
from dyncut.tree import query_value, static_build
from helpers import (
    SCENARIO_MIX,
    all_pairs_connectivity,
    bend_cut,
    count_cuts,
    random_event,
    random_graph,
)

SUITE1_SCENARIOS = 1000
SUITE1_EVENTS = 40


def _report(num, name, ok, detail=""):
    print(f"\nACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def suite1():
    """Random scenarios, each verified after every event.

    Collects verification failures and the reuse-soundness audit (every edge
    accepted without a cut computation, compared with ground truth on the
    changed graph) for criteria 1 and 8.
    """
    failures = []
    audit_failures = []
    events_checked = 0
    stale_checked = 0
    for seed in range(SUITE1_SCENARIOS):
        rng = random.Random(seed)
        g = random_graph(rng, n_min=4, n_max=10, edge_prob=0.5, max_weight=8)
        cut_tree = DynamicCutTree(g)
        tree = cut_tree.tree
        report = verify_cut_tree(tree, g)
        if not report.ok:
            failures.append((seed, "static", str(report)))
            continue
        for step in range(SUITE1_EVENTS):
            ev = random_event(g, rng, SCENARIO_MIX, weight_max=8, max_vertices=12)
            stats = cut_tree.apply(ev)
            lam = all_pairs_connectivity(g) if g.vertex_count > 1 else {}
            report = verify_cut_tree(tree, g, lam=lam)
            events_checked += 1
            if not report.ok:
                failures.append((seed, step, ev, str(report)))
                break
            for pair, stale, rule in stats.accepted_stale:
                stale_checked += 1
                if lam[pair] != stale:
                    audit_failures.append((seed, step, ev, pair, stale, lam[pair], rule))
    return {
        "failures": failures,
        "audit_failures": audit_failures,
        "events": events_checked,
        "stale_checked": stale_checked,
    }


def test_criterion_1_oracle_equivalence(suite1):
    ok = not suite1["failures"]
    _report(
        1,
        "oracle equivalence",
        ok,
        f"{SUITE1_SCENARIOS} scenarios, {suite1['events']} verified events"
        + (f"; first failure: {suite1['failures'][0]}" if not ok else ""),
    )


def test_criterion_2_static_cut_count():
    bad = []
    for seed in range(2000, 2100):
        rng = random.Random(seed)
        g = random_graph(rng, n_min=2, n_max=12, edge_prob=0.5)
        with count_cuts() as cuts:
            static_build(g)
        used = len(cuts)
        if used != g.vertex_count - 1:
            bad.append((seed, used, g.vertex_count))
    _report(2, "static build uses n-1 cuts", not bad, f"100 graphs{bad[:3] or ''}")


def test_criterion_3_increase_contract():
    rng = random.Random(3000)
    non_bridge = bridge_like = 0
    bad = []
    while non_bridge < 200:
        g = random_graph(rng, n_min=5, n_max=10, edge_prob=0.6)
        tree = static_build(g)
        for _ in range(4):
            u, v = rng.sample(sorted(g.vertices), 2)
            delta = rng.randint(1, 8)
            new = g.copy()
            if new.has_edge(u, v):
                new.increase_weight(u, v, delta)
            else:
                new.add_edge(u, v, delta)
            kind = _bridge_kind(g.neighbors(u).get(v, 0), query_value(tree, u, v))
            plen = len(tree.path_vertices(u, v)) - 1
            stats = update_increase(tree, new, u, v, delta)
            if kind == NON_BRIDGE:
                non_bridge += 1
                if stats.cuts_used != plen - 1:
                    bad.append((u, v, stats.cuts_used, plen))
            else:
                bridge_like += 1
                if stats.cuts_used != 0:
                    bad.append((u, v, kind, stats.cuts_used))
            g = new
    _report(
        3,
        "increase uses |path|-1 cuts, bridges 0",
        not bad,
        f"{non_bridge} non-bridge, {bridge_like} bridge events{bad[:3] or ''}",
    )


def test_criterion_4_decrease_contract():
    rng = random.Random(4000)
    checked = bridges = 0
    bad = []
    while checked < 200:
        g = random_graph(rng, n_min=5, n_max=10, edge_prob=0.6)
        if g.edge_count == 0:
            continue
        tree = static_build(g)
        for _ in range(4):
            edges = sorted(g.edges())
            if not edges:
                break
            u, v, w = edges[rng.randrange(len(edges))]
            delta = rng.randint(1, w)
            new = g.copy()
            if delta == w:
                new.remove_edge(u, v)
            else:
                new.decrease_weight(u, v, delta)
            kind = _bridge_kind(g.neighbors(u).get(v, 0), query_value(tree, u, v))
            plen = len(tree.path_vertices(u, v)) - 1
            n = g.vertex_count
            stats = update_decrease(tree, new, u, v, delta)
            checked += 1
            if stats.cuts_used > n - 1 - plen:
                bad.append((u, v, stats.cuts_used, n, plen))
            if kind == EXISTING_BRIDGE:
                bridges += 1
                if stats.cuts_used != 0:
                    bad.append((u, v, "bridge", stats.cuts_used))
            g = new
    _report(
        4,
        "decrease bounded by n-1-|path|, bridges 0",
        not bad,
        f"{checked} events, {bridges} bridges{bad[:3] or ''}",
    )


def test_criterion_5_savings_on_generated_stream():
    params = GenParams(
        n_vertices=150, n_events=2000, weight_max=8, mix=BALANCED_EDGE_MIX
    )
    report = replay(generate(params, seed=42))
    ratio = report.ratio
    ok = ratio < 0.5
    _report(
        5,
        "savings demonstration",
        ok,
        f"dynamic {report.cum_dynamic} / static {report.cum_static} cuts, "
        f"ratio {ratio:.6f} < 0.5",
    )


def test_savings_gate_spends_cuts():
    # Criterion 5's stream never holds more than 14 edges and spends no cut,
    # so its ratio bound cannot fail; this dense stream spends thousands.
    mix = dict(zip(MIX_ORDER, (0, 0, 0.5, 0.1, 0.2, 0.2)))
    params = GenParams(n_vertices=30, n_events=600, weight_max=8, mix=mix)
    report = replay(generate(params, seed=1))
    ratio = report.ratio
    ok = report.cum_dynamic >= 1000 and ratio < 0.5
    _report(
        "5b",
        "savings with cuts spent",
        ok,
        f"dynamic {report.cum_dynamic} >= 1000 / static {report.cum_static} cuts, "
        f"ratio {ratio:.6f} < 0.5",
    )


def test_criterion_6_shelter_bending_suite():
    rng = random.Random(6000)
    done = 0
    bad = []
    while done < 500:
        g = random_graph(rng, n_min=4, n_max=9, edge_prob=0.6)
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
        if bent.cost != cut.cost or (u in bent.side) == (v in bent.side):
            bad.append((done, x, y, u, v))
        done += 1
    _report(6, "absorbed cuts keep min cost", not bad, f"500 configurations{bad[:3] or ''}")


def _decrease_shelter_setup(rng):
    g = random_graph(rng, n_min=5, n_max=9, edge_prob=0.6)
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


def _random_bd_cut(rng, g, new, b, d):
    """A b-d-separating side: random, or a min b-d cut of a perturbed graph."""
    if rng.random() < 0.5:
        raw = {v for v in g.vertices if rng.random() < 0.5}
        raw.add(b)
        raw.discard(d)
        return frozenset(raw)
    perturbed = DynamicGraph(
        vertices=g.vertices,
        edges=[(u, v, rng.randint(1, 9)) for u, v, _ in g.edges()],
    )
    return min_cut(perturbed, b, d).side


def test_criterion_7_bending_across_decrease_suite():
    rng = random.Random(7000)
    done_i = done_ii = 0
    bad = []
    while done_i < 500 or done_ii < 500:
        setup = _decrease_shelter_setup(rng)
        if setup is None:
            continue
        g, new, b, d, x, y, shelter = setup
        verts = set(g.vertices)
        u_side = _random_bd_cut(rng, g, new, b, d)
        cost = cut_cost(new, u_side)
        separates = (x in u_side) != (y in u_side)
        if separates and done_i < 500:
            if x not in u_side:
                u_side = frozenset(verts) - u_side
                cost = cut_cost(new, u_side)
            bent = bend_cut(new, Cut(u_side, cost), shelter, "absorb")
            if bent.cost > cost:
                bad.append(("i", b, d, x, y))
            done_i += 1
        elif not separates and done_ii < 500:
            if x in u_side:
                u_side = frozenset(verts) - u_side
                cost = cut_cost(new, u_side)
            bent = bend_cut(new, Cut(u_side, cost), shelter, "evict")
            if bent.cost > cost:
                bad.append(("ii", b, d, x, y))
            done_ii += 1
    _report(
        7,
        "bent cuts never get costlier after a decrease",
        not bad,
        f"500 configurations per case{bad[:3] or ''}",
    )


def test_criterion_8_reuse_soundness_audit(suite1):
    ok = not suite1["audit_failures"]
    _report(
        8,
        "stale-cut acceptances match ground truth",
        ok,
        f"{suite1['stale_checked']} accepted edges audited"
        + (f"; first mismatch: {suite1['audit_failures'][0]}" if not ok else ""),
    )


def test_criterion_9_replay_determinism():
    params = GenParams(n_vertices=30, n_events=500, weight_max=8, mix=BALANCED_EDGE_MIX)
    stream_a = generate(params, seed=99)
    stream_b = generate(params, seed=99)
    csv_a = replay(stream_a).csv_text()
    csv_b = replay(stream_b).csv_text()
    ok = csv_a == csv_b and len(csv_a.splitlines()) == 531
    _report(9, "byte-identical replays", ok, f"{len(csv_a.splitlines()) - 1} rows")
