"""Command-line front end: build, replay, gen, query."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import DynCutError
from .replay import replay
from .stream import GenParams, format_stream, generate, parse_mix, parse_stream
from .tree import query_value

_MIX_HELP = "comma-separated fractions for av,rv,ae,re,iw,dw (must sum to 1)"


def _read_stream(path: str):
    return parse_stream(Path(path).read_text())


def _cmd_build(args) -> int:
    report = replay(_read_stream(args.file))
    for line in report.final_tree.to_lines():
        print(line)
    return 0


def _cmd_replay(args) -> int:
    report = replay(_read_stream(args.file), verify=args.verify, csv_out=args.csv)
    print(report.summary_text())
    return 0


def _cmd_gen(args) -> int:
    params = GenParams(
        n_vertices=args.vertices,
        n_events=args.events,
        weight_max=args.weight_max,
        mix=parse_mix(args.mix),
    )
    sys.stdout.write(format_stream(generate(params, args.seed)))
    return 0


def _cmd_query(args) -> int:
    report = replay(_read_stream(args.file))
    print(query_value(report.final_tree, args.u, args.v))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dyncut",
        description="Maintain a Gomory-Hu cut tree across a stream of graph changes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="replay a stream and print the final tree")
    p_build.add_argument("file")
    p_build.set_defaults(func=_cmd_build)

    p_replay = sub.add_parser("replay", help="replay a stream with cut accounting")
    p_replay.add_argument("file")
    p_replay.add_argument("--verify", action="store_true", help="check the tree after every event")
    p_replay.add_argument("--csv", metavar="OUT", help="write per-event accounting rows")
    p_replay.set_defaults(func=_cmd_replay)

    p_gen = sub.add_parser("gen", help="generate a random event stream")
    p_gen.add_argument("--vertices", type=int, required=True)
    p_gen.add_argument("--events", type=int, required=True)
    p_gen.add_argument("--mix", default="0,0,0.25,0.25,0.25,0.25", help=_MIX_HELP)
    p_gen.add_argument("--weight-max", type=int, default=8)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.set_defaults(func=_cmd_gen)

    p_query = sub.add_parser("query", help="connectivity of a vertex pair after a stream")
    p_query.add_argument("file")
    p_query.add_argument("u", type=int)
    p_query.add_argument("v", type=int)
    p_query.set_defaults(func=_cmd_query)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DynCutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
