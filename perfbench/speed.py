"""Host-speed correction for timings taken on a shared machine.

On a shared host, other tenants' load on the same physical cores can make
the same Python code run twice as slow, in episodes that last from
milliseconds to minutes.  No choice of repeats inside one run removes an
episode that lasts the whole run.  So every interval the benchmark reports
is timed next to a fixed reference workload, a small pure-Python max-flow
that shares no code with dyncut, and scaled by ``REF_NS`` over the
reference's time there: a timing reads as it would on the host when the
reference takes ``REF_NS``.  A change to dyncut moves the interval but not
the reference, so it shows in full; a change of host speed moves both and
cancels.  The reference's own time falls in no interval.

How well it cancels was measured on a 2-vCPU Intel Xeon VM: regressing the
log of each replayed event's time on the log of the reference's time next
to it, over repeated replays, gave a slope of 0.92 (a plain dict walk gave
0.79).  Over ten runs per workload whose host speed varied by 19%
(interquartile spread over median), the scaled figures spread under 7%
where the raw ones spread 20 to 40%.  The raw wall-clock figures are
printed beside the scaled ones.
"""

from __future__ import annotations

from collections import deque
from statistics import median
from time import perf_counter_ns

# The reference's time on an uncontended core of the 2-vCPU Intel Xeon VM the
# benchmark was sized on; scaled figures are seconds at that speed.
REF_NS = 48_000

# A fixed directed capacity graph, stored as dicts of dicts like dyncut's own.
_SINK = 8
_CAPACITY = {
    u: {v: 1 + (5 * u + 3 * v) % 7 for v in range(_SINK + 1) if v != u and (u + v) % 3}
    for u in range(_SINK + 1)
}


def probe() -> int:
    """Nanoseconds of one augmenting-path max-flow on the fixed graph.

    The same kind of work as dyncut's hot path (pure-Python max-flow over
    dicts), so a slower host slows both alike, but none of dyncut's code.
    """
    t0 = perf_counter_ns()
    residual = {u: dict(arcs) for u, arcs in _CAPACITY.items()}
    while True:
        parent = {0: None}
        queue = deque([0])
        while queue and _SINK not in parent:
            x = queue.popleft()
            for y, c in residual[x].items():
                if c > 0 and y not in parent:
                    parent[y] = x
                    queue.append(y)
        if _SINK not in parent:
            break
        path, y = [], _SINK
        while parent[y] is not None:
            path.append((parent[y], y))
            y = parent[y]
        push = min(residual[x][y] for x, y in path)
        for x, y in path:
            residual[x][y] -= push
            residual[y][x] = residual[y].get(x, 0) + push
    return perf_counter_ns() - t0


def sample(k: int = 5) -> float:
    """The reference's current time: the median of ``k`` back-to-back runs."""
    return median(probe() for _ in range(k))


def timed(fn, *args):
    """Run ``fn(*args)``; return its result, raw ns and scaled ns.

    The scale uses the reference sampled just before and just after.
    """
    before = sample()
    t0 = perf_counter_ns()
    result = fn(*args)
    raw = perf_counter_ns() - t0
    after = sample()
    return result, raw, raw * 2 * REF_NS / (before + after)


def split(t0: int, starts, stamps, end: int) -> list[int]:
    """The intervals from ``t0`` to ``end`` around the probes ``starts[i]..stamps[i]``.

    Interval ``i`` ends where probe ``i`` starts; the last one ends at ``end``.
    """
    return [b - a for a, b in zip([t0, *stamps], [*starts, end])]


def scale(intervals, probes, window: int = 9) -> list[float]:
    """Scale each interval by the median of the ``window`` probes around it.

    ``probes[i]`` is the reference's time taken just before ``intervals[i]``.
    """
    half = window // 2
    return [
        ns * REF_NS / median(probes[max(0, i - half) : i + half + 1])
        for i, ns in enumerate(intervals)
    ]
