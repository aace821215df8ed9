#!/usr/bin/env python3
"""Compare a change with a parent revision on one benchmark workload, in pairs of runs.

Usage, from anywhere inside a dyncut checkout::

    python3 scripts/bench_pairs.py --parent REV --workload W --seed S \\
        --pairs N --seconds T --label L

The parent side is REV's committed files, exported with ``git archive``
into a temporary directory.  The change side is this checkout's working
tree.  Each pair runs ``perfbench/run.py --trace 0`` once from each side
with the same workload, seed and seconds, one after the other; the side
that goes first alternates from pair to pair, so a slow stretch of the
host falls on both sides alike.

The result goes to ``BENCH_<L>.json`` in the current directory.  For each
end-to-end metric of ``BENCHMARK.json`` it gives both sides' median and
quartiles over the pairs, ``change_better``, the number of pairs in
which the change read better, and two verdicts.  ``gain`` is true when
the change read better in at least 9 pairs of 10 and its median is better
than the parent's by more than the parent's quartile spread.
``within_bound`` is true when the change's median is no worse than the
parent's by more than the metric's ``bound``, a fraction of the parent's
median.  ``failed`` sums each side's failed operations, and ``parent``
is the full commit id the change was compared against.  ``change`` says what the change side was: ``base``, the commit
the working tree sits on, and ``modified``, the tracked files that differ
from it (``git diff --name-only HEAD``), empty when the change side is
exactly ``base``.  An existing file keeps its other workloads, each with
its own parent, so one file can hold several.  A run that exits non-zero, or whose output check fails,
stops the script.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def export(rev: str, dest: Path) -> str:
    """Write rev's committed files under dest; return the full commit id."""
    sha = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "--verify", f"{rev}^{{commit}}"],
        check=True, capture_output=True, text=True,
    ).stdout.strip()
    tar = subprocess.run(
        ["git", "-C", str(ROOT), "archive", sha], check=True, capture_output=True
    ).stdout
    dest.mkdir()
    subprocess.run(["tar", "-x", "-C", str(dest)], input=tar, check=True)
    return sha


def working_tree() -> dict:
    """The commit this checkout sits on and the tracked files that differ from it."""
    def git(*args):
        return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                              capture_output=True, text=True).stdout
    return {"base": git("rev-parse", "HEAD").strip(),
            "modified": git("diff", "--name-only", "HEAD").splitlines()}


def run_side(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run from root; its result object."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"error: run from {root} exited {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.stderr.write(proc.stdout)
        raise SystemExit(f"error: run from {root} failed its output check")
    return result


def spread(values: list[float]) -> dict:
    if len(values) < 2:
        values = values * 2
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def summarize(metrics: list[dict], parent: list[dict], change: list[dict]) -> dict:
    out = {}
    for m in metrics:
        name = m["name"]
        old = [r["metrics"][name]["value"] for r in parent]
        new = [r["metrics"][name]["value"] for r in change]
        sign = 1 if m["better"] == "higher" else -1  # gains read positive
        better = sum(sign * (b - a) > 0 for a, b in zip(old, new))
        was, now = spread(old), spread(new)
        ahead = sign * (statistics.median(new) - statistics.median(old))
        out[name] = {
            "unit": m["unit"],
            "parent": was,
            "change": now,
            "change_better": better,
            "gain": 10 * better >= 9 * len(old) and ahead > was["q3"] - was["q1"],
            "within_bound": ahead >= -m["bound"] * statistics.median(old),
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]

    change = working_tree()
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory() as tmp:
        parent_root = Path(tmp) / "parent"
        sha = export(args.parent, parent_root)
        roots = {"parent": parent_root, "change": ROOT}
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                result = run_side(roots[side], args.workload, args.seed, args.seconds)
                runs[side].append(result)
                print(f"pair {i + 1}/{args.pairs} {side}: "
                      + json.dumps({k: v["value"] for k, v in result["metrics"].items()}),
                      flush=True)

    out = Path(f"BENCH_{args.label}.json")
    workloads = json.loads(out.read_text())["workloads"] if out.exists() else {}
    workloads[args.workload] = {
        "parent": sha,
        "change": change,
        "seed": args.seed,
        "seconds": args.seconds,
        "pairs": args.pairs,
        "failed": {side: sum(r["failed"] for r in rs) for side, rs in runs.items()},
        "metrics": summarize(metrics, runs["parent"], runs["change"]),
    }
    about = (
        "End-to-end metrics of 'perfbench/run.py --trace 0' over alternating pairs of "
        "runs of each workload's parent commit and the change, same seed and --seconds, "
        "made by scripts/bench_pairs.py. Each metric gives both sides' median and "
        "quartiles over the pairs, the number of pairs the change read better, 'gain' "
        "(better in at least 9 of 10 pairs, medians further apart than the parent's "
        "quartile spread) and 'within_bound' (the change's median no worse than the "
        "parent's by more than the metric's bound in BENCHMARK.json)."
    )
    out.write_text(json.dumps({"about": about, "workloads": workloads}, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
