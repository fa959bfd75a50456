"""Partitioned matching: split by pattern or by input segment.

A plan is a strategy and a worker count; each run makes its own split.

Every strategy produces exactly the match set of a single-worker run.
Workers share only the immutable machine generation (and, for data
partitioning, the read-only input); the only inter-worker traffic is
carried active sets (chained mode) and match batches to the collector.
Workers run one after another, in worker order, so the output is
deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

from .engine import ActiveSet, Match, find_matches, run_segment
from .union import Pfsm, build_pfsm, extract_pattern


class PlanError(ValueError):
    pass


@dataclass(frozen=True)
class PartitionPlan:
    """How one scan is split among `workers`: by label (`groups`) or by
    input segment (`segments`), each split made when the plan runs."""
    strategy: str                          # "regex" | "lazy" | "chained"
    workers: int

    def __post_init__(self):
        if self.strategy not in ("regex", "lazy", "chained"):
            raise PlanError(f"unknown strategy {self.strategy!r}")
        _check_workers(self.workers)


def _check_workers(workers: int) -> None:
    if workers < 1:
        raise PlanError(f"need at least one worker, got {workers}")


def regex_plan(p: Pfsm, workers: int) -> PartitionPlan:
    """At most one worker per live label."""
    return PartitionPlan("regex", min(workers, max(len(p.live_labels()), 1)))


def data_plan(strategy: str, n: int, workers: int) -> PartitionPlan:
    """At most one worker per byte of an n-byte input."""
    if strategy not in ("lazy", "chained"):
        raise PlanError(f"not a data strategy: {strategy!r}")
    return PartitionPlan(strategy, min(workers, max(n, 1)))


def groups(p: Pfsm, workers: int) -> list[tuple[int, ...]]:
    """The live labels dealt round-robin; no group is left empty."""
    _check_workers(workers)
    labels = p.live_labels()
    return [tuple(labels[k::workers])
            for k in range(min(workers, len(labels)))]


def segments(n: int, workers: int) -> list[tuple[int, int]]:
    """Inclusive (lo, hi) bounds of min(n, workers) even segments that tile
    [0, n)."""
    _check_workers(workers)
    workers = min(workers, n)
    return [(n * k // workers, n * (k + 1) // workers - 1)
            for k in range(workers)]


def run_regex_partitioned(p: Pfsm, data: bytes, workers: int) -> list[Match]:
    """Each worker scans the full input with only its assigned patterns."""

    def scan(ids: tuple[int, ...]) -> list[Match]:
        sub = build_pfsm([(p.label_text(lid), extract_pattern(p, lid))
                          for lid in ids])
        # Sub-machine label k is the worker's k-th label.
        return [Match(ids[m.label], m.start, m.end)
                for m in find_matches(sub, data)]

    return _merge([scan(ids) for ids in groups(p, workers)])


def run_lazy_partitioned(p: Pfsm, data: bytes, workers: int) -> list[Match]:
    """Each worker starts matches only inside its segment but keeps
    consuming input until the end or until nothing is active."""
    out: list[Match] = []
    with memoryview(data) as view:
        for lo, hi in segments(len(data), workers):
            run_segment(p, view[lo:], (lo, hi), None, out.append, base=lo,
                        carry_out=False)
    return _merge([out])


def run_chained_partitioned(p: Pfsm, data: bytes, workers: int) -> list[Match]:
    """Each worker matches within its segment; active states at the segment
    boundary are carried to the next worker until the chain drains."""
    # Seeding a segment pass with the carried set is equivalent to running
    # the reinitialization pass and the carried continuation passes
    # separately and uniting their outputs.
    out: list[Match] = []
    carry: ActiveSet | None = None
    with memoryview(data) as view:
        for lo, hi in segments(len(data), workers):
            _, carry = run_segment(p, view[lo:hi + 1], (lo, hi), carry,
                                   out.append, base=lo)
    return _merge([out])


def run_partitioned(p: Pfsm, data: bytes, plan: PartitionPlan) -> list[Match]:
    runner = {"regex": run_regex_partitioned,
              "lazy": run_lazy_partitioned,
              "chained": run_chained_partitioned}[plan.strategy]
    return runner(p, data, plan.workers)


def _merge(batches: list[list[Match]]) -> list[Match]:
    """One sorted stream. Each match comes from exactly one worker: regex
    workers hold disjoint labels, lazy workers disjoint starts and chained
    workers disjoint ends."""
    return sorted((m for batch in batches for m in batch),
                  key=itemgetter(2, 1, 0))
