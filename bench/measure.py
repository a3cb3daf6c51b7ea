"""Measurement helpers shared by the benchmark's processes.

Nothing here imports the package under test: these are the rules the
benchmark applies to what it observes (tail percentile, span self time,
per-layer totals and operation outcomes).
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable

# The tail is the latency with MIN_BEYOND samples above it: the highest
# percentile the sample count supports. It never goes below the median.
MIN_BEYOND = 10

LAYERS = ("words", "bases", "expansions", "matching", "spectrum", "geometry", "cli")


def nearest_rank(sorted_values: list, p: float):
    """The p-th percentile by the nearest-rank rule (p in (0, 100])."""
    k = max(1, math.ceil(p / 100 * len(sorted_values)))
    return sorted_values[k - 1]


def tail(values) -> tuple[float, float, int]:
    """(percentile, value, samples strictly above it) for the highest
    percentile that has at least MIN_BEYOND samples above it.

    With fewer than 2 * MIN_BEYOND samples no such percentile reaches the
    median, and the median is returned with however many samples lie above it.
    """
    s = sorted(values)
    if not s:
        raise ValueError("no samples")
    n = len(s)
    k = max(n - 1 - MIN_BEYOND, math.ceil(n / 2) - 1)
    v = s[k]
    return 100 * (k + 1) / n, v, sum(1 for x in s if x > v)


@dataclass
class Span:
    """One timed call: name is '<layer>.<function>'."""
    id: int
    name: str
    start: float
    end: float
    parent: int | None = None
    op: int | None = None
    error: bool = False
    work: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


def self_times(spans) -> dict[int, float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        edge = s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, edge), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                edge = hi
        out[s.id] = (s.end - s.start) - covered
    return out


def layer_totals(spans) -> dict[str, dict]:
    """Per layer: calls and busy time of its entry spans (spans whose parent is
    in another layer, or absent), self time of all its spans, errors, and the
    sums of the work counters its spans carry."""
    by_id = {s.id: s for s in spans}
    own = self_times(spans)
    def blank() -> dict:
        return {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "errors": 0, "work": {}, "by_name": {}}

    totals = {name: blank() for name in LAYERS}
    for s in spans:
        t = totals.setdefault(s.layer, blank())
        t["self_s"] += own[s.id]
        t["errors"] += int(s.error)
        t["by_name"][s.name] = t["by_name"].get(s.name, 0.0) + (s.end - s.start)
        for k, v in s.work.items():
            t["work"][k] = t["work"].get(k, 0) + v
        parent = by_id.get(s.parent) if s.parent is not None else None
        if parent is None or parent.layer != s.layer:
            t["calls"] += 1
            t["busy_s"] += s.end - s.start
    return totals


def work_rate(spans, name_prefix: str, key: str) -> float:
    """Sum of a work counter over the spans whose name starts with name_prefix,
    divided by their total duration (0 when there are none)."""
    amount = 0
    seconds = 0.0
    for s in spans:
        if s.name.startswith(name_prefix) and key in s.work:
            amount += s.work[key]
            seconds += s.end - s.start
    return amount / seconds if seconds > 0 else 0.0


class Tracer:
    """Spans kept in memory and written out when the run ends."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: list[Span] = []

    def record(self, name: str, start: float, end: float, parent: int | None = None,
               op: int | None = None, error: bool = False, work: dict | None = None) -> Span:
        span = Span(len(self.spans), name, start, end, parent, op, error, work or {})
        self.spans.append(span)
        return span

    def call(self, name: str, fn: Callable, *args):
        """fn(*args), recorded as a span when tracing is on."""
        if not self.enabled:
            return fn(*args)
        start = time.perf_counter()
        error = True
        try:
            result = fn(*args)
            error = False
            return result
        finally:
            self.record(name, start, time.perf_counter(), error=error)


@dataclass
class Outcome:
    start: float
    end: float
    result: Any = None
    problem: str | None = None   # None when the operation succeeded
    raised: bool = False         # the call raised, listed for its input or not

    @property
    def seconds(self) -> float:
        return self.end - self.start


def attempt(call: Callable[[], Any], check: Callable[[Any], str | None],
            expected: tuple = ()) -> Outcome:
    """Run one operation and judge it.

    An exception listed in `expected` is a correct outcome for this input and
    is handed to `check`; any other exception fails the operation, as does a
    check that returns a problem description.
    """
    start = time.perf_counter()
    raised = False
    try:
        result = call()
    except expected as exc:
        result, raised = exc, True
    except Exception as exc:  # the benchmark must keep running and count it
        return Outcome(start, time.perf_counter(), None,
                       f"raised {type(exc).__name__}: {exc}", raised=True)
    end = time.perf_counter()
    try:
        problem = check(result)
    except Exception as exc:  # a malformed result can break the checker itself
        problem = f"check raised {type(exc).__name__}: {exc}"
    return Outcome(start, end, result, problem, raised)


@dataclass
class Tally:
    """Latencies of successful operations, descriptions of failed ones, and
    the time the operations of each complete cycle took."""
    latencies: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    busy_s: float = 0.0
    cycles: list = field(default_factory=list)

    def add(self, label: str, outcome: Outcome) -> None:
        self.busy_s += outcome.seconds
        if outcome.problem is None:
            self.latencies.append(outcome.seconds)
        else:
            self.failures.append(f"{label}: {outcome.problem}")

    def end_cycle(self) -> None:
        self.cycles.append(self.busy_s - sum(self.cycles))

    def ops_per_s(self) -> float:
        """Successful operations per cycle over the median cycle's time: a
        median, so a few seconds of a slower host move it less than a mean."""
        return len(self.latencies) / len(self.cycles) / statistics.median(self.cycles)

    @property
    def attempted(self) -> int:
        return len(self.latencies) + len(self.failures)

    @property
    def fail_ratio(self) -> float:
        return len(self.failures) / self.attempted if self.attempted else 0.0


def closed_loop(cycles, run: Callable[[Any, int], tuple[str, Outcome]], seconds: float,
                max_ops: int | None = None, clock: Callable[[], float] = time.perf_counter) -> Tally:
    """One client: each operation starts when the previous one has ended.

    `cycles` yields iterables of operations; `run(op, op_id)` performs one and
    returns (label, outcome). The loop stops at the cycle boundary nearest to
    `seconds` of wall time (judged by the median cycle so far), or right after
    `max_ops` operations, so a timed run always holds whole cycles and lasts
    about `seconds` however long a cycle is. Wall time, not operation time,
    so that what `run` does between operations counts too.
    """
    tally = Tally()
    start = clock()
    walls = []
    for cycle in cycles:
        cycle_start = clock()
        for op in cycle:
            tally.add(*run(op, tally.attempted + 1))
            if max_ops is not None and tally.attempted >= max_ops:
                return tally
        tally.end_cycle()
        walls.append(clock() - cycle_start)
        if max_ops is None and clock() - start + statistics.median(walls) / 2 >= seconds:
            return tally
    return tally
