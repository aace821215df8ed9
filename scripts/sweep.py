#!/usr/bin/env python3
"""Time the zero-cut events of the ``sparse_large`` mix as the graph grows.

Usage, from anywhere inside a dyncut checkout::

    python3 scripts/sweep.py --sizes 1000,2000,4000

For each n in ``--sizes`` the script generates one stream of the
``sparse_large`` workload's mix and weights (``perfbench/workloads.json``)
with n vertices and 1.5 n mixed events at seed 3, as ``dyncut gen`` would,
and replays it through one ``DynamicCutTree``.  Each event is timed alone
with ``time.perf_counter``, and the previous event's stats are freed
outside the timing.  One line per n gives the seconds ``generate`` took
and the mean µs per event, with the number of events averaged, of the
vertex inserts (``av``) and of the decreases (``dw`` and ``re``) that
spent no cut.  ``generate`` is timed apart from the replay; it keeps its
draws in sorted lists, so it costs a few binary searches and list inserts
per event, not a sort of the whole graph.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from dyncut import DynamicCutTree, GenParams, generate  # noqa: E402
from dyncut.graph import ADD_VERTEX, DECREASE_WEIGHT, EVENT_KINDS, REMOVE_EDGE  # noqa: E402

SEED = 3
DECREASES = (DECREASE_WEIGHT, REMOVE_EDGE)


def sizes(text: str) -> list[int]:
    values = [int(x) for x in text.split(",")]
    if not values or min(values) < 2:
        raise argparse.ArgumentTypeError("sizes are comma-separated integers of at least 2")
    return values


def sweep(n: int, workload: dict) -> tuple[float, dict[str, list[float]]]:
    """Generate and replay one stream of n vertices; generate's seconds and µs per zero-cut event."""
    mix = dict(zip(EVENT_KINDS, workload["mix"]))
    params = GenParams(n, n * 3 // 2, workload["weight_max"], mix)
    start = time.perf_counter()
    stream = generate(params, SEED)
    generate_s = time.perf_counter() - start
    times: dict[str, list[float]] = {"av": [], "decrease": []}
    cut_tree = DynamicCutTree()
    clock = time.perf_counter
    for ev in stream.events:
        start = clock()
        stats = cut_tree.apply(ev)
        took = clock() - start
        if stats.cuts_used == 0:
            if ev.kind == ADD_VERTEX:
                times["av"].append(took)
            elif ev.kind in DECREASES:
                times["decrease"].append(took)
        del stats
    return generate_s, times


def mean_us(values: list[float]) -> str:
    return f"{1e6 * sum(values) / len(values):.1f}" if values else "-"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=sizes, default=[1000, 2000, 4000],
                        help="comma-separated vertex counts (default 1000,2000,4000)")
    args = parser.parse_args(argv)
    workloads = json.loads((ROOT / "perfbench" / "workloads.json").read_text())["workloads"]
    workload = workloads["sparse_large"]
    print(f"{'n':>6} {'generate s':>10} {'decrease us':>11} {'count':>6} {'av us':>7} {'count':>6}")
    for n in args.sizes:
        generate_s, times = sweep(n, workload)
        dec, av = times["decrease"], times["av"]
        print(f"{n:>6} {generate_s:>10.2f} {mean_us(dec):>11} {len(dec):>6} {mean_us(av):>7} {len(av):>6}",
              flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
