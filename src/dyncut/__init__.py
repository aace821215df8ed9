"""Dynamic Gomory-Hu cut trees.

Maintains a cut tree of an undirected weighted graph across arbitrary
atomic changes (vertex/edge insertion and deletion, weight increases and
decreases), reusing previously computed minimum cuts wherever the change
provably leaves them valid, and accounts every min-cut computation against
the static rebuild baseline.
"""

from .dynamic import (
    EXISTING_BRIDGE,
    NEW_BRIDGE,
    NON_BRIDGE,
    UpdateStats,
    detect_bridge,
    update_add_vertex,
    update_decrease,
    update_increase,
    update_remove_vertex,
)
from .errors import DynCutError
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
    contract,
    cut_cost,
)
from .mincut import CutCounter, counter, min_cut
from .oracle import VerifyReport, Violation, verify_cut_tree
from .replay import ReplayReport, ReplayRow, apply_event, replay
from .stream import (
    BALANCED_EDGE_MIX,
    EventStream,
    GenParams,
    format_stream,
    generate,
    parse_stream,
)
from .tree import (
    CutTree,
    complete,
    query_cut,
    query_value,
    static_build,
)

__all__ = [
    "ADD_EDGE",
    "ADD_VERTEX",
    "BALANCED_EDGE_MIX",
    "ChangeEvent",
    "Cut",
    "CutCounter",
    "CutTree",
    "DECREASE_WEIGHT",
    "DynCutError",
    "DynamicGraph",
    "EventStream",
    "EXISTING_BRIDGE",
    "GenParams",
    "INCREASE_WEIGHT",
    "NEW_BRIDGE",
    "NON_BRIDGE",
    "REMOVE_EDGE",
    "REMOVE_VERTEX",
    "ReplayReport",
    "ReplayRow",
    "UpdateStats",
    "VerifyReport",
    "Violation",
    "apply_change",
    "apply_event",
    "complete",
    "contract",
    "counter",
    "cut_cost",
    "detect_bridge",
    "format_stream",
    "generate",
    "min_cut",
    "parse_stream",
    "query_cut",
    "query_value",
    "replay",
    "static_build",
    "update_add_vertex",
    "update_decrease",
    "update_increase",
    "update_remove_vertex",
    "verify_cut_tree",
]
