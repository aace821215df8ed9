#!/usr/bin/env python3
"""Measure cut computations saved by dynamic tree maintenance.

Generates a random change stream, replays it through the updater, and
prints the cumulative dynamic/static ratio in total and per event kind.
The default configuration (150 vertices, 2000 edge events, balanced mix)
keeps the graph very sparse, so almost every event hits a zero-cut rule;
lower --vertices or raise the add-edge share to exercise the recomputing
paths on denser graphs.
"""

import argparse

from dyncut import GenParams, generate, replay
from dyncut.errors import InvalidMix
from dyncut.stream import parse_mix


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--vertices", type=int, default=150)
    parser.add_argument("--events", type=int, default=2000)
    parser.add_argument("--weight-max", type=int, default=8)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--mix",
        default="0,0,0.25,0.25,0.25,0.25",
        help="fractions for av,rv,ae,re,iw,dw (sum to 1)",
    )
    parser.add_argument("--csv", metavar="OUT", help="write per-event rows")
    args = parser.parse_args()

    try:
        mix = parse_mix(args.mix)
    except InvalidMix as exc:
        parser.error(str(exc))
    params = GenParams(
        n_vertices=args.vertices,
        n_events=args.events,
        weight_max=args.weight_max,
        mix=mix,
    )
    stream = generate(params, args.seed)
    report = replay(stream, csv_out=args.csv)
    print(report.summary_text())
    print(
        f"final graph: {report.final_graph.vertex_count} vertices, "
        f"{report.final_graph.edge_count} edges"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
