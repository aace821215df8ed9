"""Dynamic Gomory-Hu cut trees.

``DynamicCutTree`` owns an undirected weighted graph and its cut tree, and
keeps the tree valid across arbitrary atomic changes (vertex/edge insertion
and deletion, weight increases and decreases), reusing previously computed
minimum cuts wherever the change provably leaves them valid.  ``replay``
accounts every min-cut computation against the static rebuild baseline.
"""

from .dynamic import UpdateStats
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
    cut_cost,
)
from .mincut import min_cut
from .oracle import VerifyReport, Violation, verify_cut_tree
from .replay import DynamicCutTree, ReplayReport, ReplayRow, replay
from .stream import (
    BALANCED_EDGE_MIX,
    EventStream,
    GenParams,
    format_stream,
    generate,
    parse_stream,
)
from .tree import CutTree

__all__ = [
    "ADD_EDGE",
    "ADD_VERTEX",
    "BALANCED_EDGE_MIX",
    "ChangeEvent",
    "Cut",
    "CutTree",
    "DECREASE_WEIGHT",
    "DynCutError",
    "DynamicCutTree",
    "DynamicGraph",
    "EventStream",
    "GenParams",
    "INCREASE_WEIGHT",
    "REMOVE_EDGE",
    "REMOVE_VERTEX",
    "ReplayReport",
    "ReplayRow",
    "UpdateStats",
    "VerifyReport",
    "Violation",
    "apply_change",
    "cut_cost",
    "format_stream",
    "generate",
    "min_cut",
    "parse_stream",
    "replay",
    "verify_cut_tree",
]
