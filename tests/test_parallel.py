"""Partitioned runs must reproduce the single-worker match set exactly,
for every strategy and plan."""

import random

import pytest
from helpers import (FIG1_INPUT, FIG2_MATCHES, build_fig1, gen_instance,
                     match_texts)

from pfsm import build_pfsm, find_matches
from pfsm.compile import compile_pattern
from pfsm.parallel import (PartitionPlan, PlanError, data_plan, regex_plan,
                           run_chained_partitioned, run_lazy_partitioned,
                           run_partitioned, run_regex_partitioned, segments)

# Workers run serially; this single-valued parametrization keeps the
# "[serial]" suffix in these tests' ids.
serial = pytest.mark.parametrize("executor", ["serial"])


def test_data_plan_segments_cover_and_partition():
    plan = data_plan("chained", 10, 3)
    segs = segments(plan, 10)
    assert segs[0][0] == 0 and segs[-1][1] == 9
    for (_, hi), (lo, _) in zip(segs, segs[1:]):
        assert lo == hi + 1


def test_malformed_plans_rejected():
    with pytest.raises(PlanError):
        segments(PartitionPlan("chained", 3, cuts=(5, 2)), 10)
    with pytest.raises(PlanError):
        segments(PartitionPlan("lazy", 2, cuts=(12,)), 10)
    with pytest.raises(PlanError):
        data_plan("regex", 10, 2)
    p = build_fig1("dfa")
    with pytest.raises(PlanError, match="at least one worker"):
        data_plan("chained", 10, 0)
    with pytest.raises(PlanError, match="at least one worker"):
        regex_plan(p, 0)
    with pytest.raises(PlanError, match="unassigned"):
        run_regex_partitioned(p, b"a", PartitionPlan("regex", 2, assignment=()))
    with pytest.raises(PlanError, match="expected 'regex'"):
        run_regex_partitioned(p, b"a", data_plan("lazy", 1, 1))


@serial
def test_fig2_regex_partitioned_one_pattern_per_worker(executor):
    p = build_fig1("dfa")
    got = run_regex_partitioned(p, FIG1_INPUT, regex_plan(p, 3))
    assert match_texts(got, p) == FIG2_MATCHES


def test_regex_partitioned_single_worker_is_identity():
    p = build_fig1("dfa")
    assert run_regex_partitioned(p, FIG1_INPUT, regex_plan(p, 1)) \
        == find_matches(p, FIG1_INPUT)


@serial
def test_fig2_lazy_partitioned(executor):
    p = build_fig1("dfa")
    plan = PartitionPlan("lazy", 2, cuts=(4,))  # segments [0,3] and [4,6]
    got = run_lazy_partitioned(p, FIG1_INPUT, plan)
    assert match_texts(got, p) == FIG2_MATCHES


def test_lazy_worker_scope():
    # Worker 1 of the [0,3]/[4,6] split reports every match starting at
    # positions 0..3 (8 of the 10, two of them ending past its segment);
    # worker 2 reports the two starting at 4..6. Union is all of Fig. 2.
    p = build_fig1("dfa")
    from pfsm.engine import run_segment
    out1, out2 = [], []
    run_segment(p, FIG1_INPUT, (0, 3), None, out1.append)
    run_segment(p, FIG1_INPUT[4:], (4, 6), None, out2.append, base=4)
    assert match_texts(out1, p) == {m for m in FIG2_MATCHES if m[1] <= 3}
    assert len(out1) == 8
    assert match_texts(out2, p) == {("a*c", 4, 4), ("a(ca)*b", 5, 6)}
    assert match_texts(out1 + out2, p) == FIG2_MATCHES


def test_lazy_single_segment_is_identity():
    p = build_fig1("dfa")
    got = run_lazy_partitioned(p, FIG1_INPUT, PartitionPlan("lazy", 1, cuts=()))
    assert got == find_matches(p, FIG1_INPUT)


@serial
def test_fig2_chained_partitioned(executor):
    p = build_fig1("dfa")
    for cuts in [(4,), (2, 5)]:
        plan = PartitionPlan("chained", len(cuts) + 1, cuts=cuts)
        got = run_chained_partitioned(p, FIG1_INPUT, plan)
        assert match_texts(got, p) == FIG2_MATCHES


@serial
def test_chained_frontier_hops_across_every_segment(executor):
    # A match spanning all four single-byte segments must ride a 3-hop
    # frontier chain into the last worker.
    p = build_pfsm([("aaaa", compile_pattern("aaaa", "dfa"))])
    plan = PartitionPlan("chained", 4, cuts=(1, 2, 3))
    got = run_chained_partitioned(p, b"aaaa", plan)
    assert match_texts(got, p) == {("aaaa", 0, 3)}
    assert got == find_matches(p, b"aaaa")


def test_chained_single_segment_is_identity():
    p = build_fig1("dfa")
    got = run_chained_partitioned(p, FIG1_INPUT,
                                  PartitionPlan("chained", 1, cuts=()))
    assert got == find_matches(p, FIG1_INPUT)


@pytest.mark.parametrize("strategy", ["regex", "lazy", "chained"])
@serial
def test_randomized_equivalence_with_single_run(strategy, executor):
    rng = random.Random(strategy)  # str seeds do not depend on PYTHONHASHSEED
    for _ in range(25):
        p, _, data, _ = gen_instance(rng, max_input=40)
        if not data:
            continue
        workers = rng.randint(2, 4)
        plan = (regex_plan(p, workers) if strategy == "regex"
                else data_plan(strategy, len(data), workers))
        got = run_partitioned(p, data, plan)
        assert got == find_matches(p, data), (strategy, workers, data)


def test_regex_partitioning_shrinks_resident_machine():
    p = build_fig1("dfa")
    total = sum(e.n_states for e in p.directory.values())
    plan = regex_plan(p, 3)
    amap = plan.assignment_map()
    per_worker = {}
    for lid, w in amap.items():
        per_worker[w] = per_worker.get(w, 0) + p.directory[lid].n_states
    assert max(per_worker.values()) < total


def test_empty_input_all_strategies():
    p = build_fig1("dfa")
    for strategy in ("lazy", "chained"):
        assert run_partitioned(p, b"", data_plan(strategy, 0, 2)) == []
    assert run_partitioned(p, b"", regex_plan(p, 2)) == []
