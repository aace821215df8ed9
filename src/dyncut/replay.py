"""Replay change streams through the tree updater, accounting every cut.

Each event's cut computations are compared against the static baseline of
rebuilding the tree from scratch (n-1 computations at the current vertex
count).  The cumulative ratio of the two is the headline savings number.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .dynamic import (
    UpdateStats,
    update_add_vertex,
    update_decrease,
    update_increase,
    update_remove_vertex,
)
from .errors import VerificationFailed
from .graph import (
    ADD_EDGE,
    ADD_VERTEX,
    DECREASE_WEIGHT,
    INCREASE_WEIGHT,
    REMOVE_EDGE,
    REMOVE_VERTEX,
    ChangeEvent,
    DynamicGraph,
    apply_change,
)
from .oracle import verify_cut_tree
from .stream import CODE_OF_KIND, EventStream
from .tree import CutTree

CSV_HEADER = "step,kind,n,m,cuts_used,static_equiv,cum_dynamic,cum_static,cum_ratio"


@dataclass(frozen=True)
class ReplayRow:
    step: int
    kind: str
    n: int
    m: int
    cuts_used: int
    static_equiv: int
    cum_dynamic: int
    cum_static: int
    cum_ratio: float

    def csv(self) -> str:
        return (
            f"{self.step},{self.kind},{self.n},{self.m},{self.cuts_used},"
            f"{self.static_equiv},{self.cum_dynamic},{self.cum_static},"
            f"{self.cum_ratio:.6f}"
        )


@dataclass
class KindTotals:
    count: int = 0
    cuts: int = 0
    static: int = 0

    @property
    def ratio(self) -> float:
        return self.cuts / self.static if self.static else 0.0


@dataclass
class ReplayReport:
    rows: list[ReplayRow] = field(default_factory=list)
    stats: list[UpdateStats] = field(default_factory=list)
    cum_dynamic: int = 0
    cum_static: int = 0
    per_kind: dict[str, KindTotals] = field(default_factory=dict)
    final_graph: DynamicGraph = field(default_factory=DynamicGraph)
    final_tree: CutTree = field(default_factory=CutTree)

    @property
    def ratio(self) -> float:
        return self.cum_dynamic / self.cum_static if self.cum_static else 0.0

    def csv_text(self) -> str:
        return "".join([CSV_HEADER + "\n"] + [r.csv() + "\n" for r in self.rows])

    def summary_text(self) -> str:
        lines = [
            f"events {len(self.rows)}  dynamic_cuts {self.cum_dynamic}  "
            f"static_cuts {self.cum_static}  ratio {self.ratio:.6f}"
        ]
        for kind in sorted(self.per_kind):
            t = self.per_kind[kind]
            lines.append(
                f"  {kind}: events {t.count}  cuts {t.cuts}  "
                f"static {t.static}  ratio {t.ratio:.6f}"
            )
        return "\n".join(lines)


def apply_event(
    tree: CutTree, graph: DynamicGraph, ev: ChangeEvent
) -> tuple[CutTree, UpdateStats]:
    """Apply one event to ``graph`` in place and carry ``tree`` across it.

    Returns the new tree and the event's accounting; ``tree`` is left as it
    was.  An invalid event raises before either is changed.
    """
    removed_w = graph.weight(ev.u, ev.v) if ev.kind == REMOVE_EDGE else 0
    apply_change(graph, ev)
    if ev.kind == ADD_VERTEX:
        tree = update_add_vertex(tree, ev.u)
    elif ev.kind == REMOVE_VERTEX:
        tree = update_remove_vertex(tree, ev.u)
    elif ev.kind in (ADD_EDGE, INCREASE_WEIGHT):
        return update_increase(tree, graph, ev.u, ev.v, ev.delta)
    else:
        delta = ev.delta if ev.kind == DECREASE_WEIGHT else removed_w
        return update_decrease(tree, graph, ev.u, ev.v, delta)
    return tree, UpdateStats(ev, 0, max(0, graph.vertex_count - 1))


def replay(
    stream: EventStream,
    *,
    verify: bool = False,
    csv_out: str | Path | None = None,
) -> ReplayReport:
    """Apply every event, maintaining graph and tree together.

    With ``verify`` on, the tree is checked against brute-force ground truth
    after every event and the first violation aborts the replay.  ``csv_out``
    writes one accounting row per event.
    """
    graph = DynamicGraph()
    tree = CutTree()
    report = ReplayReport()
    for step, ev in enumerate(stream.events, start=1):
        tree, st = apply_event(tree, graph, ev)
        if verify:
            check = verify_cut_tree(tree, graph)
            if not check.ok:
                raise VerificationFailed(step, check)
        report.stats.append(st)
        report.cum_dynamic += st.cuts_used
        report.cum_static += st.static_equivalent
        ratio = report.cum_dynamic / report.cum_static if report.cum_static else 0.0
        report.rows.append(
            ReplayRow(
                step,
                CODE_OF_KIND[ev.kind],
                graph.vertex_count,
                graph.edge_count,
                st.cuts_used,
                st.static_equivalent,
                report.cum_dynamic,
                report.cum_static,
                ratio,
            )
        )
        totals = report.per_kind.setdefault(CODE_OF_KIND[ev.kind], KindTotals())
        totals.count += 1
        totals.cuts += st.cuts_used
        totals.static += st.static_equivalent
    report.final_graph = graph
    report.final_tree = tree
    if csv_out is not None:
        Path(csv_out).write_text(report.csv_text())
    return report
