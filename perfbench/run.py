"""dyncut benchmark: replay seeded event streams through the public API.

Run from the root of a dyncut checkout (no install needed)::

    python3 perfbench/run.py --workload dense_churn --seed 1 --seconds 40 --trace 0

Each run is one process and one thread driving a closed loop.  It generates
the workload's streams from ``--seed`` with ``dyncut.stream.generate`` (a
workload is several streams, to even out how much one random stream happens
to cost) and then works in rounds until ``--seconds`` have passed, and for
at least ``min_replays`` rounds.  Each round:

1. Writes: ``replay()`` applies every event of every stream back to back.
2. Rebuilds: ``static_build`` makes each final graph's tree from scratch.
3. Reads, for ``read_round_s``: passes of back-to-back ``query_value``
   calls on the final trees, one per pair of a seeded set of vertex pairs,
   each pass after one set-up load (strict ``parse_stream`` of every
   stream text, what ``dyncut replay`` pays before its first event).

Every interval is scaled for the host's speed at the time (``speed.py``),
so that other tenants' load on a shared machine cancels out; the raw
wall-clock medians are printed too.  Each event, rebuild and query is then
taken at its median over the rounds (or passes), and set-up at the median
of all its loads.  A round always runs to completion, so a run measures for
at least ``--seconds``.  Outside the timed region the final graphs and trees
are checked by ``check.py``, which shares no code with dyncut; every query
answer is compared with the checked tree, and every rebuilt tree must give
the same answers.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` replays once
untraced and once more with every layer hook of ``tracer.py`` wrapped, runs
one traced pass of queries, and prints the per-layer metrics.

The last line of standard output is one JSON object; the lines before it are
a readable account with sample counts and output digests.  The exit code is
0 only when every check passed.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import random
import resource
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter_ns

sys.dont_write_bytecode = True  # a run writes no files, bytecode caches included

import speed  # noqa: E402
import tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((HERE / "workloads.json").read_text())
EDGE_CODES = ("ae", "re", "iw", "dw")
DECREASE_CODES = ("re", "dw")
SEED_STRIDE = 1_000_003  # no two seeds below this share a generator seed
RULES = {
    "threshold": "threshold",
    "zero_or_bridge": "zero-or-bridge-edge",
    "revalidated": "revalidated",
    "recomputed": "recomputed",
    "bridge": "bridge",
    "new_bridge": "new-bridge",
}


def load_dyncut():
    """Import dyncut from this checkout's ``src``, and from nowhere else."""
    init = ROOT / "src" / "dyncut" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: {init} not found; run from the root of a dyncut checkout")
    sys.path.insert(0, str(ROOT / "src"))
    import dyncut

    if Path(dyncut.__file__).resolve() != init.resolve():
        raise SystemExit(f"error: imported dyncut from {dyncut.__file__}, not {init}")
    return dyncut


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def pct(values, q: float) -> float:
    """Nearest-rank percentile ``q`` (0 < q <= 1) of a non-empty sequence."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


@dataclass
class Inputs:
    """A workload's streams at one seed, with their texts and digests."""

    seeds: list[int]
    texts: list[str]
    digests: list[str]
    streams: list


def stream_seeds(w: dict, seed: int) -> list[int]:
    """Generator seeds of the workload's streams: ``seed`` itself, then far from it."""
    return [seed + SEED_STRIDE * i for i in range(w["streams"])]


def prepare(dc, w: dict, seed: int) -> Inputs:
    """Generate the streams, pin them, and check that each loads back unchanged."""
    mix = dict(zip(sys.modules["dyncut.stream"].MIX_ORDER, w["mix"]))
    params = dc.GenParams(w["vertices"], w["events"], w["weight_max"], mix)
    inputs = Inputs(stream_seeds(w, seed), [], [], [])
    for s in inputs.seeds:
        generated = dc.generate(params, s)
        text = dc.format_stream(generated)
        stream = dc.parse_stream(text)
        if stream.events != generated.events:
            raise SystemExit("error: parse_stream(format_stream(s)) differs from s")
        inputs.texts.append(text)
        inputs.digests.append(sha256(text))
        inputs.streams.append(stream)
    if seed == w["seed"] and w.get("stream_sha256") not in (None, inputs.digests):
        raise SystemExit(
            f"error: streams for seed {seed} have sha256 {inputs.digests}, pinned "
            f"{w['stream_sha256']}; stream.generate changed the workload"
        )
    return inputs


def load_streams(dc, texts) -> None:
    """The set-up a replay pays: a strict load of every stream text."""
    for text in texts:
        dc.parse_stream(text)


def timed_replay(stream):
    """Untraced replay; returns the report and each event's raw and scaled ns."""
    replay = sys.modules["dyncut.replay"].replay
    gc.collect()
    with tracer.event_clock(speed.probe) as (starts, stamps, probes):
        report = replay(stream)
        end = perf_counter_ns()
    if len(stamps) != len(stream.events):
        raise tracer.HookError(f"{len(stamps)} event stamps for {len(stream.events)} events")
    raw = speed.split(stamps[0], starts[1:], stamps[1:], end)
    return report, raw, speed.scale(raw, probes)


def timed_rebuild(graph):
    """Untraced ``static_build``; returns the tree, raw ns and scaled ns.

    The reference runs before the rebuild and before each of its
    ``min_cut`` calls, so each stretch between two is scaled on its own.
    """
    tree_module = sys.modules["dyncut.tree"]
    gc.collect()
    with tracer.probe_clock(tree_module, "min_cut", speed.probe) as (starts, stamps, probes):
        first = speed.probe()
        t0 = perf_counter_ns()
        tree = tree_module.static_build(graph)
        end = perf_counter_ns()
    raw = speed.split(t0, starts, stamps, end)
    return tree, sum(raw), sum(speed.scale(raw, [first, *probes]))


def replay_all(streams):
    """Untraced replays of every stream; final states, raw and scaled ns per event."""
    finals, raw, scaled = [], [], []
    for stream in streams:
        report, r, s = timed_replay(stream)
        finals.append(summarize(report))
        raw += r
        scaled += s
    return finals, raw, scaled


def query_pairs(finals, seed: int):
    """Seeded vertex pairs, an equal share per stream, and the stream of each."""
    pairs, owners = [], []
    for i, final in enumerate(finals):
        rng = random.Random(f"queries-{seed}-{i}")
        verts = sorted(final["graph"].vertices)
        for _ in range(SPEC["query_pairs"] // len(finals)):
            pairs.append(tuple(rng.sample(verts, 2)))
            owners.append(i)
    return pairs, owners


def query_pass(pairs, owners, trees):
    """One back-to-back ``query_value`` call per pair on its stream's tree."""
    query = sys.modules["dyncut.tree"].query_value
    answers, latencies = [], []
    for (u, v), i in zip(pairs, owners):
        tree = trees[i]
        t0 = perf_counter_ns()
        answers.append(query(tree, u, v))
        latencies.append(perf_counter_ns() - t0)
    return answers, latencies


def summarize(report) -> dict:
    """What the checks and the account need from a report, without its audit rows."""
    return {
        "graph": report.final_graph,
        "tree": report.final_tree,
        "events": len(report.rows),
        "cuts": report.cum_dynamic,
        "static_cuts": report.cum_static,
        "digests": (sha256(report.csv_text()), sha256("\n".join(report.final_tree.to_lines()))),
    }


def check_outputs(texts, finals, pairs, owners, answers, static_trees=None):
    """Failed operations (events plus queries) and the problems found.

    ``answers`` holds one answer per pair; ``static_trees``, when given, one
    rebuilt tree per stream, which must answer every pair the same way.
    """
    import check

    failed, problems, expected = 0, [], [None] * len(pairs)
    for i, (text, final) in enumerate(zip(texts, finals)):
        ref = check.reference_graph(text)
        graph, tree = final["graph"], final["tree"]
        if not check.same_graph(ref, graph.vertices, graph.edges()):
            found = ["the replay's final graph differs from the stream's"]
        else:
            found = check.tree_problems(ref, tree.edges())
        if found:
            failed += final["events"]
            problems += [f"stream {i}: {p}" for p in found]
            continue
        mine = [j for j, owner in enumerate(owners) if owner == i]
        for j, value in zip(mine, check.tree_path_min(tree.edges(), [pairs[j] for j in mine])):
            expected[j] = value
    if problems:
        return failed + len(answers), problems
    bad = sum(a != e for a, e in zip(answers, expected))
    if bad:
        problems.append(f"{bad} query answers differ from the checked trees")
    if static_trees is not None:
        query = sys.modules["dyncut.tree"].query_value
        differ = sum(
            query(static_trees[i], u, v) != e for (u, v), i, e in zip(pairs, owners, expected)
        )
        if differ:
            problems.append(f"static and dynamic trees answer {differ} sampled pairs differently")
            bad += differ
    return bad, problems


def median_of_rounds(rounds):
    """Element-wise median over rounds of equally long lists."""
    return [statistics.median(xs) for xs in zip(*rounds)]


def run_untraced(dc, seed, seconds, inputs):
    """Writes, rebuilds, set-ups and reads in rounds until ``seconds`` have passed.

    Every interval is scaled for host speed (``speed.py``); each event,
    rebuild and query is then taken at its median over the rounds, and
    set-up at the median of all its loads.
    """
    deadline = perf_counter_ns() + int(seconds * 1e9)
    event_rounds, build_rounds, query_rounds, setups = [], [], [], []
    raw_walls, raw_build_rounds, raw_setups, outputs = [], [], [], set()
    passes = queries = unstable = 0
    while len(raw_walls) < SPEC["min_replays"] or perf_counter_ns() < deadline:
        finals, raw, scaled = replay_all(inputs.streams)
        raw_walls.append(sum(raw) / 1e9)
        event_rounds.append(scaled)

        gc.collect()
        static_trees, builds, raw_builds = [], [], []
        for final in finals:
            tree, raw_ns, scaled_ns = timed_rebuild(final["graph"])
            static_trees.append(tree)
            builds.append(scaled_ns)
            raw_builds.append(raw_ns)
        build_rounds.append(builds)
        raw_build_rounds.append(raw_builds)
        outputs.add(
            tuple(f["digests"] for f in finals)
            + tuple(sha256("\n".join(t.to_lines())) for t in static_trees)
        )

        # Reads, with a set-up load of the stream texts before each pass.
        if not passes:
            pairs, owners = query_pairs(finals, seed)
        trees = [f["tree"] for f in finals]
        round_passes = []
        gc.collect()
        start = perf_counter_ns()
        while not round_passes or perf_counter_ns() - start < SPEC["read_round_s"] * 1e9:
            _, raw_ns, scaled_ns = speed.timed(load_streams, dc, inputs.texts)
            setups.append(scaled_ns)
            raw_setups.append(raw_ns)
            (got, latencies), raw_ns, scaled_ns = speed.timed(query_pass, pairs, owners, trees)
            round_passes.append([ns * scaled_ns / raw_ns for ns in latencies])
            if not passes:
                answers = got
            else:
                unstable += sum(a != b for a, b in zip(got, answers))
            passes += 1
            queries += len(got)
        query_rounds.append(median_of_rounds(round_passes))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    event_ns = median_of_rounds(event_rounds)
    build_ns = median_of_rounds(build_rounds)
    query_ns = median_of_rounds(query_rounds)
    code_of = sys.modules["dyncut.stream"].CODE_OF_KIND
    codes = [code_of[ev.kind] for stream in inputs.streams for ev in stream.events]
    updates = [ns for code, ns in zip(codes, event_ns) if code in EDGE_CODES]
    failed, problems = check_outputs(inputs.texts, finals, pairs, owners, answers, static_trees)
    if unstable:
        problems.append(f"{unstable} query answers changed between passes")
        failed += unstable
    rounds = len(raw_walls)
    if len(outputs) != 1:
        problems.append("rounds on the same streams gave different outputs")
        failed += sum(f["events"] for f in finals) * rounds
    events = len(event_ns)
    events_per_s = events / (sum(event_ns) / 1e9)
    raw_eps = events / statistics.median(raw_walls)
    info = [
        f"rounds: {rounds}; raw replay wall s " + ", ".join(f"{w:.3f}" for w in raw_walls),
        f"writes: {events} events a round, {len(updates)} of them edge events; "
        "each event's scaled time is its median over the rounds",
        f"rebuilds: {len(build_ns)} final graphs rebuilt once a round, each at its median",
        f"reads: {passes} passes of {len(pairs)} queries; each query at its median over the passes",
        f"set-up: {len(setups)} strict parse_stream loads of {sum(map(len, inputs.texts))} bytes "
        f"in {len(inputs.texts)} streams, one before each pass; the median is reported",
        "raw wall-clock medians: "
        + json.dumps(
            {
                "events_per_s": raw_eps,
                "static_build_s": sum(median_of_rounds(raw_build_rounds)) / 1e9,
                "setup_s": statistics.median(raw_setups) / 1e9,
                "host_speed": raw_eps / events_per_s,
            }
        ),
    ]
    metrics = {
        "events_per_s": metric(events_per_s, "1/s"),
        "update_us_p50": metric(pct(updates, 0.50) / 1e3, "us"),
        "update_us_p99": metric(pct(updates, 0.99) / 1e3, "us"),
        "query_us_p50": metric(pct(query_ns, 0.50) / 1e3, "us"),
        "query_us_p99": metric(pct(query_ns, 0.99) / 1e3, "us"),
        "static_build_s": metric(sum(build_ns) / 1e9, "s"),
        "peak_rss_mb": metric(rss_mb, "MB"),
        "setup_s": metric(statistics.median(setups) / 1e9, "s"),
    }
    attempted = (events + len(build_ns)) * rounds + queries
    return finals, attempted, failed, problems, metrics, info


def run_traced(w, seed, inputs):
    """One untraced and one traced replay of every stream, then one traced query pass.

    Span times are raw wall-clock: they are shares of one run, not compared
    across runs.
    """
    untraced, raw, _ = replay_all(inputs.streams)
    reference = [f["digests"] for f in untraced]
    wall_untraced = sum(raw) / 1e9
    untraced = raw = None
    counter = getattr(sys.modules["dyncut.mincut"], "counter", None)
    if counter is None:
        raise tracer.HookError("dyncut.mincut.counter is missing")
    replay = sys.modules["dyncut.replay"].replay
    tr = tracer.Tracer()
    before = counter.value
    gc.collect()
    with tr.installed(tracer.hook_table()):
        t0 = perf_counter_ns()
        reports = [tr.call("replay", replay, (stream,)) for stream in inputs.streams]
        wall = (perf_counter_ns() - t0) / 1e9
        shares = {
            name: round(span.total_ns / 1e9 / wall, 4)
            for name, span in sorted(tr.spans.items())
            if name != "replay" and span.calls
        }
        in_replay_ns = tr.span("tree.query_value").total_ns
        finals = [summarize(r) for r in reports]
        pairs, owners = query_pairs(finals, seed)
        answers, _ = query_pass(pairs, owners, [f["tree"] for f in finals])
    query_s = (tr.span("tree.query_value").total_ns - in_replay_ns) / 1e9
    cuts_counted = counter.value - before
    if tr.span("mincut.min_cut").calls != cuts_counted:
        raise tracer.HookError(
            f"traced {tr.span('mincut.min_cut').calls} min_cut calls, counter moved {cuts_counted}"
        )
    tr.require_calls(w["must_call"])

    failed, problems = check_outputs(inputs.texts, finals, pairs, owners, answers)
    events = sum(f["events"] for f in finals)
    if [f["digests"] for f in finals] != reference:
        problems.append("the traced replays' outputs differ from the untraced replays'")
        failed += events

    def s(name):
        return tr.span(name).total_ns / 1e9

    def self_s(name):
        return tr.span(name).self_ns / 1e9

    def us(name, q):
        d = tr.span(name).durations
        return pct(d, q) / 1e3 if d else 0.0

    def p50_value(name):
        v = tr.span(name).values
        return pct(v, 0.5) if v else 0.0

    rules = {key: 0 for key in RULES}
    decrease_cuts = decrease_recomputed = accepted_stale = 0
    for report in reports:
        for row, st in zip(report.rows, report.stats):
            for key, rule in RULES.items():
                rules[key] += st.reuse_breakdown.get(rule, 0)
            accepted_stale += len(st.accepted_stale)
            if row.kind in DECREASE_CODES:
                decrease_cuts += st.cuts_used
                decrease_recomputed += st.reuse_breakdown.get("recomputed", 0)

    metrics = {
        "mincut.calls": metric(tr.span("mincut.min_cut").calls, "count"),
        "mincut.s": metric(s("mincut.min_cut"), "s"),
        "mincut.us_p50": metric(us("mincut.min_cut", 0.50), "us"),
        "mincut.us_p99": metric(us("mincut.min_cut", 0.99), "us"),
        "mincut.quotient_m_p50": metric(p50_value("mincut.min_cut"), "count"),
        "graph.contract.calls": metric(tr.span("graph.contract").calls, "count"),
        "graph.contract.s": metric(s("graph.contract"), "s"),
        "graph.contract.shrink_p50": metric(p50_value("graph.contract"), "ratio"),
        "graph.copy.calls": metric(tr.span("graph.copy").calls, "count"),
        "graph.copy.s": metric(s("graph.copy"), "s"),
        "tree.copy.calls": metric(tr.span("tree.copy").calls, "count"),
        "tree.copy.s": metric(s("tree.copy"), "s"),
        "tree.path_vertices.calls": metric(tr.span("tree.path_vertices").calls, "count"),
        "tree.path_vertices.s": metric(s("tree.path_vertices"), "s"),
        "replay.self_s": metric(self_s("replay"), "s"),
        "replay.accepted_stale": metric(accepted_stale, "count"),
        "tree.complete.calls": metric(tr.span("tree.complete").calls, "count"),
        "tree.complete.self_s": metric(self_s("tree.complete"), "s"),
        "tree.subtree.calls": metric(tr.span("tree.subtree").calls, "count"),
        "tree.subtree.s": metric(s("tree.subtree"), "s"),
        "tree.thin_edges.calls": metric(tr.span("tree.thin_edges").calls, "count"),
        "tree.thin_edges.s": metric(s("tree.thin_edges"), "s"),
        "tree.query_value.s": metric(query_s, "s"),
    }
    for kind in ("decrease", "increase"):
        name = f"dynamic.update_{kind}"
        metrics[f"{name}.calls"] = metric(tr.span(name).calls, "count")
        metrics[f"{name}.us_p50"] = metric(us(name, 0.50), "us")
        metrics[f"{name}.us_p99"] = metric(us(name, 0.99), "us")
        metrics[f"{name}.self_s"] = metric(self_s(name), "s")
    for key, count in rules.items():
        metrics[f"dynamic.rule.{key}"] = metric(count, "count")
    metrics["dynamic.cut_yield"] = metric(
        decrease_recomputed / decrease_cuts if decrease_cuts else 0.0, "ratio"
    )
    cuts = sum(f["cuts"] for f in finals)
    static_cuts = sum(f["static_cuts"] for f in finals)
    metrics["cut_ratio"] = metric(cuts / static_cuts if static_cuts else 0.0, "ratio")
    metrics["trace.overhead"] = metric(wall / wall_untraced, "ratio")

    info = [
        f"replay: {events} events in {len(finals)} streams, untraced {wall_untraced:.3f} s, "
        f"traced {wall:.3f} s",
        f"queries: one traced pass over {len(pairs)} pairs, {query_s:.3f} s in query_value",
        f"min_cut calls {cuts_counted} = dyncut.mincut.counter delta",
        "traced shares of replay wall time: " + json.dumps(shares),
    ]
    attempted = 2 * events + len(answers)
    return finals, attempted, failed, problems, metrics, info


def run(workload: str, seed: int, seconds: float, trace: bool, spec: dict | None = None) -> tuple[dict, list[str]]:
    """One benchmark run; returns the result object and the readable lines."""
    dc = load_dyncut()
    w = spec if spec is not None else SPEC["workloads"][workload]
    inputs = prepare(dc, w, seed)
    at_pin = seed == w["seed"] and "stream_sha256" in w
    lines = [
        f"workload {workload} seed {seed}: {w['streams']} streams (generator seeds "
        f"{', '.join(map(str, inputs.seeds))}) of {w['vertices']} vertices and {w['events']} events, "
        f"mix {SPEC['mix_order']} = {','.join(str(x) for x in w['mix'])}, weight_max {w['weight_max']}",
        f"stream sha256 {', '.join(inputs.digests)}" + (" (matches pin)" if at_pin else ""),
    ]
    if trace:
        finals, attempted, failed, problems, metrics, info = run_traced(w, seed, inputs)
    else:
        finals, attempted, failed, problems, metrics, info = run_untraced(dc, seed, seconds, inputs)
    cuts = sum(f["cuts"] for f in finals)
    pinned = ""
    if seed == w["seed"] and "cuts" in w:
        pinned = f" ({'matches' if cuts == w['cuts'] else 'DIFFERS FROM'} pinned {w['cuts']})"
    lines += info + [
        f"cuts {cuts} of {sum(f['static_cuts'] for f in finals)} static-equivalent{pinned}",
        f"replay csv sha256 {', '.join(f['digests'][0] for f in finals)}",
        f"final tree sha256 {', '.join(f['digests'][1] for f in finals)}",
        f"output check: {'passed' if not problems else 'FAILED'}; failed {failed} of {attempted} operations",
    ] + [f"  problem: {p}" for p in problems[:20]]
    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(SPEC["workloads"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result, lines = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
