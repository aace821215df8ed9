"""Self-tests of the benchmark: its output check, hooks and declared metrics.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import check  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402

dc = run.load_dyncut()

DENSE_MIX = [0, 0, 0.5, 0.1, 0.2, 0.2]
TINY = {
    "vertices": 12,
    "events": 200,
    "streams": 2,
    "mix": DENSE_MIX,
    "weight_max": 8,
    "seed": 1,
    "must_call": ["mincut.min_cut", "graph.contract", "dynamic.update_decrease"],
}


@pytest.fixture(scope="module")
def small_dense():
    """A small dense_churn-shaped replay: its stream text and report."""
    inputs = run.prepare(dc, TINY, 1)
    return inputs.texts[0], dc.replay(inputs.streams[0])


def test_small_dense_stream_spends_cuts(small_dense):
    _, report = small_dense
    assert report.cum_dynamic > 0


def test_check_accepts_the_replayed_tree(small_dense):
    text, report = small_dense
    assert check.tree_problems(check.reference_graph(text), report.final_tree.edges()) == []


@pytest.mark.parametrize("delta", [1, -1])
def test_check_rejects_an_altered_label(small_dense, delta):
    text, report = small_dense
    edges = sorted(report.final_tree.edges())
    i = next(i for i, (_, _, c) in enumerate(edges) if c + delta >= 0)
    u, v, c = edges[i]
    edges[i] = (u, v, c + delta)
    assert check.tree_problems(check.reference_graph(text), edges)


def test_check_rejects_a_rehung_edge(small_dense):
    # Hang leaf x from z instead of y, where the tree edge {y, z} is cheaper
    # than {x, y}: the new edge {x, z} claims lambda(x, z) = c, but the tree
    # itself says lambda(x, z) <= cost(y, z) < c.
    text, report = small_dense
    tree = report.final_tree
    leaf = next(
        (x, y, z)
        for x in sorted(tree.vertices)
        if len(tree.neighbors(x)) == 1
        for y in tree.neighbors(x)
        for z in sorted(tree.neighbors(y))
        if tree.cost(y, z) < tree.cost(x, y)
    )
    x, y, z = leaf
    c = tree.cost(x, y)
    edges = [e for e in tree.edges() if set(e[:2]) != {x, y}] + [(x, z, c)]
    assert check.tree_problems(check.reference_graph(text), edges)


def test_query_reference_is_the_path_minimum():
    edges = [(1, 2, 5), (2, 3, 1), (3, 4, 7)]
    assert check.tree_path_min(edges, [(1, 2), (1, 4), (4, 3), (2, 2)]) == [5, 1, 7, None]


def test_missing_hook_fails_loudly(monkeypatch):
    monkeypatch.delattr(sys.modules["dyncut.dynamic"], "min_cut")
    with pytest.raises(tracer.HookError, match="min_cut"):
        with tracer.Tracer().installed(tracer.hook_table()):
            pass
    assert "min_cut" in vars(sys.modules["dyncut.tree"])
    assert sys.modules["dyncut.tree"].min_cut is sys.modules["dyncut.mincut"].min_cut


def test_silent_hook_fails_loudly():
    with pytest.raises(tracer.HookError, match="tree.thin_edges"):
        tracer.Tracer().require_calls(["tree.thin_edges"])


def test_hooks_are_restored_after_a_traced_run(small_dense):
    names = [(owner, attr) for _, owners, _ in tracer.hook_table() for owner, attr in owners]
    before = [owner.__dict__[attr] for owner, attr in names]
    with tracer.Tracer().installed(tracer.hook_table()):
        assert [owner.__dict__[attr] for owner, attr in names] != before
    assert [owner.__dict__[attr] for owner, attr in names] == before


@pytest.mark.parametrize("trace", [False, True])
def test_printed_metrics_are_declared(trace):
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    group = declared["per_layer" if trace else "end_to_end"]
    result, _ = run.run("tiny", 2, 0.0, trace, spec=TINY)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in group}
    assert all(m["better"] in ("higher", "lower") for m in group)
    if trace:
        counted = result["metrics"]["mincut.calls"]["value"]
        assert counted > 0


def test_default_streams_match_their_pins():
    for name, w in run.SPEC["workloads"].items():
        inputs = run.prepare(dc, w, w["seed"])
        assert inputs.digests == w["stream_sha256"], name


def test_changed_stream_is_refused():
    w = run.SPEC["workloads"]["grow_increase"]
    w = dict(w, stream_sha256=["0" * 64] + w["stream_sha256"][1:])
    with pytest.raises(SystemExit, match="sha256"):
        run.prepare(dc, w, w["seed"])


def test_seeds_never_share_a_stream():
    w = {"streams": 6}
    seen = [s for seed in range(1, 200) for s in run.stream_seeds(w, seed)]
    assert len(seen) == len(set(seen))


def test_dense_churn_spends_its_pinned_cuts():
    w = run.SPEC["workloads"]["dense_churn"]
    inputs = run.prepare(dc, w, w["seed"])
    assert sum(dc.replay(s).cum_dynamic for s in inputs.streams) == w["cuts"]


def test_scaling_cancels_host_speed():
    # An interval measured while the reference loop ran twice as slow counts half.
    ref = speed.REF_NS
    assert speed.scale([1000, 1000, 1000], [ref, ref, ref], window=1) == [1000, 1000, 1000]
    assert speed.scale([2000, 2000, 2000], [2 * ref] * 3, window=3) == [1000, 1000, 1000]
    # The window's median ignores one disturbed probe.
    assert speed.scale([1000] * 3, [ref, 5 * ref, ref], window=3)[1] == 1000
