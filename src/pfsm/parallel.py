"""Partitioned matching: split by pattern or by input segment.

Every strategy produces exactly the match set of a single-worker run.
Workers share only the immutable machine generation (and, for data
partitioning, the read-only input); the only inter-worker traffic is
carried active sets (chained mode) and match batches to the collector.
Workers run one after another, in worker order, so the output is
deterministic.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from operator import itemgetter

from .engine import ActiveSet, Match, find_matches, run_segment
from .union import Pfsm, build_pfsm, extract_pattern


class PlanError(ValueError):
    pass


@dataclass(frozen=True)
class PartitionPlan:
    """How one scan is split; the worker count follows from it.

    A regex plan lists `groups`, one tuple of label ids per worker, and every
    live label sits in exactly one group. A lazy or chained plan lists
    `cuts`, the ascending interior cut points of the input, and runs
    len(cuts) + 1 workers, one per segment.
    """
    strategy: str                          # "regex" | "lazy" | "chained"
    groups: tuple[tuple[int, ...], ...] = ()
    cuts: tuple[int, ...] = ()

    def __post_init__(self):
        if self.strategy not in ("regex", "lazy", "chained"):
            raise PlanError(f"unknown strategy {self.strategy!r}")
        unused = "cuts" if self.strategy == "regex" else "groups"
        if getattr(self, unused):
            raise PlanError(f"a {self.strategy} plan takes no {unused}")


def regex_plan(p: Pfsm, workers: int) -> PartitionPlan:
    """Deal the live labels round-robin; no group is left empty."""
    if workers < 1:
        raise PlanError(f"need at least one worker, got {workers}")
    labels = p.live_labels()
    groups = (tuple(labels[k::workers]) for k in range(workers))
    return PartitionPlan("regex", groups=tuple(g for g in groups if g))


def data_plan(strategy: str, n: int, workers: int) -> PartitionPlan:
    """Evenly cut [0, n) into `workers` contiguous segments."""
    if strategy not in ("lazy", "chained"):
        raise PlanError(f"not a data strategy: {strategy!r}")
    if workers < 1:
        raise PlanError(f"need at least one worker, got {workers}")
    workers = min(workers, n) if n else 1
    cuts = tuple(n * k // workers for k in range(1, workers))
    return PartitionPlan(strategy, cuts=cuts)


def segments(plan: PartitionPlan, n: int) -> list[tuple[int, int]]:
    """Inclusive (lo, hi) bounds of each worker's segment."""
    cuts = plan.cuts
    if any(not 0 < c < n for c in cuts) or list(cuts) != sorted(set(cuts)):
        raise PlanError(f"malformed cuts {cuts} for input of length {n}")
    bounds = [0, *cuts, n]
    return [(bounds[k], bounds[k + 1] - 1) for k in range(len(bounds) - 1)]


def _check_groups(p: Pfsm, plan: PartitionPlan) -> None:
    listed = Counter(lid for group in plan.groups for lid in group)
    unknown = sorted(lid for lid in listed if lid not in p.directory)
    if unknown:
        raise PlanError(f"assigned labels not in the machine: "
                        f"{', '.join(map(str, unknown))}")
    repeated = sorted(lid for lid, k in listed.items() if k > 1)
    if repeated:
        raise PlanError(f"labels listed more than once: "
                        f"{', '.join(map(str, repeated))}")
    missing = [lid for lid in p.live_labels() if lid not in listed]
    if missing:
        names = ", ".join(p.label_text(lid) for lid in missing)
        raise PlanError(f"unassigned labels: {names}")


def run_regex_partitioned(p: Pfsm, data: bytes,
                          plan: PartitionPlan) -> list[Match]:
    """Each worker scans the full input with only its assigned patterns."""
    if plan.strategy != "regex":
        raise PlanError(f"plan strategy is {plan.strategy!r}, expected 'regex'")
    _check_groups(p, plan)

    def scan(group: tuple[int, ...]) -> list[Match]:
        ids = sorted(group)
        sub = build_pfsm([(p.label_text(lid), extract_pattern(p, lid))
                          for lid in ids])
        # Sub-machine label k is the worker's k-th label.
        return [Match(ids[m.label], m.start, m.end)
                for m in find_matches(sub, data)]

    return _merge([scan(group) for group in plan.groups])


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
        run_segment(p, data[lo:], (lo, hi), None, out.append, base=lo,
                    carry_out=False)
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
    """One sorted stream. Each match comes from exactly one worker: regex
    workers hold disjoint labels, lazy workers disjoint starts and chained
    workers disjoint ends."""
    return sorted((m for batch in batches for m in batch),
                  key=itemgetter(2, 1, 0))
