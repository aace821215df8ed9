"""The owner of a graph and its cut tree, and stream replay with cut accounting.

``DynamicCutTree`` holds a graph and its finished cut tree and carries both
across one event at a time; ``replay`` feeds it a stream.  Each event's cut
computations are compared against the static baseline of rebuilding the
tree from scratch (n-1 computations at the current vertex count).  The
cumulative ratio of the two is the headline savings number.
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
    Cut,
    DynamicGraph,
    apply_change,
)
from .oracle import verify_cut_tree
from .stream import CODE_OF_KIND, EventStream
from .tree import CutTree, query_cut, query_value, static_build

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
class ReplayReport:
    rows: list[ReplayRow] = field(default_factory=list)
    stats: list[UpdateStats] = field(default_factory=list)
    cum_dynamic: int = 0
    cum_static: int = 0
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
        for kind in sorted({r.kind for r in self.rows}):
            rows = [r for r in self.rows if r.kind == kind]
            cuts = sum(r.cuts_used for r in rows)
            static = sum(r.static_equiv for r in rows)
            lines.append(
                f"  {kind}: events {len(rows)}  cuts {cuts}  "
                f"static {static}  ratio {cuts / static if static else 0.0:.6f}"
            )
        return "\n".join(lines)


class DynamicCutTree:
    """A graph and its cut tree, kept valid together one event at a time.

    ``graph`` and ``tree`` are live, for reading only; the tree is never partial.
    """

    __slots__ = ("_graph", "_tree")

    def __init__(self, graph: DynamicGraph | None = None):
        """Take ``graph`` as its own, without a copy, and build its tree; or start empty."""
        self._graph = DynamicGraph() if graph is None else graph
        self._tree = static_build(self._graph) if self._graph.vertex_count else CutTree()

    @property
    def graph(self) -> DynamicGraph:
        return self._graph

    @property
    def tree(self) -> CutTree:
        return self._tree

    def apply(self, ev: ChangeEvent) -> UpdateStats:
        """Apply one event to the graph and carry the tree across it, both in place.

        Returns the event's accounting.  An invalid event raises before either
        is changed.
        """
        graph, tree = self._graph, self._tree
        removed_w = graph.weight(ev.u, ev.v) if ev.kind == REMOVE_EDGE else 0
        apply_change(graph, ev)
        if ev.kind == ADD_VERTEX:
            update_add_vertex(tree, ev.u)
        elif ev.kind == REMOVE_VERTEX:
            update_remove_vertex(tree, ev.u)
        elif ev.kind in (ADD_EDGE, INCREASE_WEIGHT):
            return update_increase(tree, graph, ev.u, ev.v, ev.delta)
        else:
            delta = ev.delta if ev.kind == DECREASE_WEIGHT else removed_w
            return update_decrease(tree, graph, ev.u, ev.v, delta)
        return UpdateStats()

    def query(self, u: int, v: int) -> int:
        """Connectivity of {u, v}: the cheapest edge cost on their tree path."""
        return query_value(self._tree, u, v)

    def cut(self, u: int, v: int) -> Cut:
        """A minimum u-v cut of the graph, read off the tree; its side holds u."""
        return query_cut(self._tree, u, v)


def replay(
    stream: EventStream,
    *,
    verify: bool = False,
    csv_out: str | Path | None = None,
) -> ReplayReport:
    """Apply every event through one ``DynamicCutTree``, starting empty.

    With ``verify`` on, the tree is checked by the Gomory-Hu certificate
    after every event and the first violation aborts the replay.  ``csv_out``
    writes one accounting row per event.
    """
    cut_tree = DynamicCutTree()
    graph = cut_tree.graph
    report = ReplayReport(final_graph=graph, final_tree=cut_tree.tree)
    m = 0  # graph.edge_count sums every row; a vertex leaves only once isolated
    for step, ev in enumerate(stream.events, start=1):
        st = cut_tree.apply(ev)
        if ev.kind == ADD_EDGE:
            m += 1
        elif ev.kind == REMOVE_EDGE:
            m -= 1
        if verify:
            check = verify_cut_tree(cut_tree.tree, graph)
            if not check.ok:
                raise VerificationFailed(step, check)
        static = max(0, graph.vertex_count - 1)
        report.stats.append(st)
        report.cum_dynamic += st.cuts_used
        report.cum_static += static
        report.rows.append(
            ReplayRow(
                step,
                CODE_OF_KIND[ev.kind],
                graph.vertex_count,
                m,
                st.cuts_used,
                static,
                report.cum_dynamic,
                report.cum_static,
                report.ratio,
            )
        )
    if csv_out is not None:
        Path(csv_out).write_text(report.csv_text())
    return report
