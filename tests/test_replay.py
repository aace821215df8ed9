from hashlib import sha256

import pytest

from dyncut import (
    NON_BRIDGE,
    CutTree,
    GenParams,
    complete,
    detect_bridge,
    generate,
    parse_stream,
    path,
    replay,
    update_increase,
)
from dyncut.errors import VerificationFailed
from dyncut.replay import CSV_HEADER
from dyncut.stream import BALANCED_EDGE_MIX, MIX_ORDER

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
    report = replay(parse_stream(T3_BUILD + "iw 1 2 2\nre 1 3\n"))
    assert report.per_kind["av"].count == 3
    assert report.per_kind["ae"].count == 3
    assert report.per_kind["iw"].count == 1
    assert report.per_kind["re"].count == 1
    total = sum(t.cuts for t in report.per_kind.values())
    assert total == report.cum_dynamic


# fractions of av, rv, ae, re, iw, dw, as for ``dyncut gen --mix``
GROW_MIX = dict(zip(MIX_ORDER, (0, 0, 0.6, 0, 0.4, 0)))
CHURN_MIX = dict(zip(MIX_ORDER, (0, 0, 0.5, 0.1, 0.2, 0.2)))


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
        (GROW_MIX, 5, "011f61f38780d69103f7b912e59b1c315e9b22a88119eb8383e67b1f86ef24a9"),
        (CHURN_MIX, 1, "206425ddd8fd6ee6d943098274b696c604c00fafc586ddd8fbda0992e0ddba65"),
    ],
    ids=["grow_increase", "dense_churn"],
)
def test_golden_per_event_audit(mix, seed, audit_digest):
    # pinned digest of every event's accounting: which rule certified each
    # stale edge and which edges were accepted without a fresh cut
    stream = generate(GenParams(n_vertices=40, n_events=400, mix=mix), seed=seed)
    report = replay(stream)
    text = "".join(
        repr((st.cuts_used, sorted(st.reuse_breakdown.items()), st.accepted_stale)) + "\n"
        for st in report.stats
    )
    assert _digest(text) == audit_digest


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

        # the partial tree update_increase hands to complete
        pedges = path(final, b, d)
        chosen = min(pedges, key=lambda e: final.cost(*e))
        work = final.copy()
        for e in pedges:
            if e != chosen:
                work.mark_thin(*e)
        work.set_cost(*chosen, final.cost(*chosen) + 3)
        complete(work, raised)
        if detect_bridge(final, graph, b, d) == NON_BRIDGE:
            assert work == tree
            rebuilt += 1
    assert rebuilt >= 5
