"""Partitioned matching: split by pattern or by input segment.

Every strategy produces exactly the match set of a single-worker run.
Workers share only the immutable machine generation (and, for data
partitioning, the read-only input); the only inter-worker traffic is
carried active sets (chained mode) and match batches to the collector.
Workers run one after another, in worker order, so the output is
deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

from .engine import ActiveSet, Match, find_matches, run_segment
from .union import Pfsm, build_pfsm, extract_pattern


class PlanError(ValueError):
    pass


@dataclass(frozen=True)
class PartitionPlan:
    strategy: str                          # "regex" | "lazy" | "chained"
    workers: int
    assignment: tuple[tuple[int, int], ...] | None = None  # (label id, worker)
    cuts: tuple[int, ...] | None = None    # ascending interior cut points

    def assignment_map(self) -> dict[int, int]:
        return dict(self.assignment or ())


def regex_plan(p: Pfsm, workers: int) -> PartitionPlan:
    """Round-robin assignment of the live labels."""
    if workers < 1:
        raise PlanError(f"need at least one worker, got {workers}")
    labels = p.live_labels()
    return PartitionPlan("regex", workers,
                         assignment=tuple((lid, i % workers)
                                          for i, lid in enumerate(labels)))


def data_plan(strategy: str, n: int, workers: int) -> PartitionPlan:
    """Evenly cut [0, n) into `workers` contiguous segments."""
    if strategy not in ("lazy", "chained"):
        raise PlanError(f"not a data strategy: {strategy!r}")
    if workers < 1:
        raise PlanError(f"need at least one worker, got {workers}")
    workers = min(workers, n) if n else 1
    cuts = tuple(n * k // workers for k in range(1, workers))
    return PartitionPlan(strategy, workers, cuts=cuts)


def segments(plan: PartitionPlan, n: int) -> list[tuple[int, int]]:
    """Inclusive (lo, hi) bounds of each worker's segment."""
    cuts = plan.cuts or ()
    if any(not 0 < c < n for c in cuts) or list(cuts) != sorted(set(cuts)):
        raise PlanError(f"malformed cuts {cuts} for input of length {n}")
    bounds = [0, *cuts, n]
    return [(bounds[k], bounds[k + 1] - 1) for k in range(len(bounds) - 1)]


def _check_assignment(p: Pfsm, plan: PartitionPlan) -> dict[int, list[int]]:
    amap = plan.assignment_map()
    missing = [lid for lid in p.live_labels() if lid not in amap]
    if missing:
        names = ", ".join(p.label_text(lid) for lid in missing)
        raise PlanError(f"unassigned labels: {names}")
    by_worker: dict[int, list[int]] = {}
    for lid, w in amap.items():
        if not 0 <= w < plan.workers:
            raise PlanError(f"worker {w} out of range")
        by_worker.setdefault(w, []).append(lid)
    return by_worker


def run_regex_partitioned(p: Pfsm, data: bytes,
                          plan: PartitionPlan) -> list[Match]:
    """Each worker scans the full input with only its assigned patterns."""
    if plan.strategy != "regex":
        raise PlanError(f"plan strategy is {plan.strategy!r}, expected 'regex'")
    by_worker = _check_assignment(p, plan)

    def scan(label_ids: list[int]) -> list[Match]:
        sub = build_pfsm([(p.label_text(lid), extract_pattern(p, lid))
                          for lid in sorted(label_ids)])
        found = find_matches(sub, data)
        # Sub-machine label ids are local; map back through the label text.
        return [Match(p.labels.id_of(sub.label_text(m.label)), m.start, m.end)
                for m in found]

    return _merge([scan(ids) for _, ids in sorted(by_worker.items())])


def run_lazy_partitioned(p: Pfsm, data: bytes,
                         plan: PartitionPlan) -> list[Match]:
    """Each worker starts matches only inside its segment but keeps
    consuming input until the end or until nothing is active."""
    if plan.strategy != "lazy":
        raise PlanError(f"plan strategy is {plan.strategy!r}, expected 'lazy'")
    if not data:
        return []
    out: list[Match] = []
    for lo, hi in segments(plan, len(data)):
        run_segment(p, data[lo:], (lo, hi), None, out.append, base=lo)
    return _merge([out])


def run_chained_partitioned(p: Pfsm, data: bytes,
                            plan: PartitionPlan) -> list[Match]:
    """Each worker matches within its segment; active states at the segment
    boundary are carried to the next worker until the chain drains."""
    if plan.strategy != "chained":
        raise PlanError(f"plan strategy is {plan.strategy!r}, expected 'chained'")
    if not data:
        return []
    # Seeding a segment pass with the carried set is equivalent to running
    # the reinitialization pass and the carried continuation passes
    # separately and uniting their outputs.
    out: list[Match] = []
    carry: ActiveSet | None = None
    for lo, hi in segments(plan, len(data)):
        _, carry = run_segment(p, data[lo:hi + 1], (lo, hi), carry,
                               out.append, base=lo)
    return _merge([out])


def run_partitioned(p: Pfsm, data: bytes, plan: PartitionPlan) -> list[Match]:
    runner = {"regex": run_regex_partitioned,
              "lazy": run_lazy_partitioned,
              "chained": run_chained_partitioned}[plan.strategy]
    return runner(p, data, plan)


def _merge(batches: list[list[Match]]) -> list[Match]:
    merged = set()
    for batch in batches:
        merged.update(batch)
    return sorted(merged, key=lambda m: (m.end, m.start, m.label))
