"""Partitioned runs must reproduce the single-worker match set exactly,
for every strategy and plan."""

import random

import pytest
from helpers import (FIG1_INPUT, FIG2_MATCHES, PLAIN_TWO_LABEL_DUMP,
                     build_fig1, gen_instance, gen_literal_instance,
                     match_texts, random_text, traced_peak)

from pfsm import build_pfsm, find_matches
from pfsm.compile import compile_pattern
from pfsm.oracle import all_matches
from pfsm.parallel import (PartitionPlan, PlanError, data_plan, groups,
                           regex_plan, run_chained_partitioned,
                           run_lazy_partitioned, run_partitioned,
                           run_regex_partitioned, segments)
from pfsm.wire import load_pfsm


def test_segments_cover_and_partition():
    for n in range(12):
        for workers in range(1, 6):
            segs = segments(n, workers)
            assert len(segs) == min(n, workers), (n, workers)
            assert [pos for lo, hi in segs for pos in range(lo, hi + 1)] \
                == list(range(n)), (n, workers)
            sizes = [hi - lo + 1 for lo, hi in segs]
            assert max(sizes, default=0) - min(sizes, default=0) <= 1


def test_malformed_plans_rejected():
    with pytest.raises(PlanError):
        data_plan("regex", 10, 2)
    p = build_fig1("dfa")
    with pytest.raises(PlanError, match="at least one worker"):
        data_plan("chained", 10, 0)
    with pytest.raises(PlanError, match="at least one worker"):
        regex_plan(p, 0)
    with pytest.raises(PlanError, match="unknown strategy 'bogus'"):
        PartitionPlan("bogus", 1)
    # A runner given no worker refuses rather than scan nothing.
    for runner in (run_regex_partitioned, run_lazy_partitioned,
                   run_chained_partitioned):
        with pytest.raises(PlanError, match="at least one worker, got 0"):
            runner(p, b"a", 0)


@pytest.mark.parametrize("strategy", ["lazy", "chained"])
def test_a_plan_fits_any_input_length(strategy):
    # The split is made from the input the run is given, so a plan made
    # for 7 bytes also runs a longer and a shorter input.
    p = build_fig1("dfa")
    plan = data_plan(strategy, 7, 3)
    for data in (b"aacacab" * 3, b"aaca"):
        assert run_partitioned(p, data, plan) == find_matches(p, data), data


def test_fig2_regex_partitioned_one_pattern_per_worker():
    p = build_fig1("dfa")
    got = run_regex_partitioned(p, FIG1_INPUT, 3)
    assert match_texts(got, p) == FIG2_MATCHES


def test_regex_partitioned_single_worker_is_identity():
    p = build_fig1("dfa")
    assert run_regex_partitioned(p, FIG1_INPUT, 1) \
        == find_matches(p, FIG1_INPUT)


def test_fig2_lazy_partitioned():
    p = build_fig1("dfa")
    for workers in range(2, 8):   # 2 workers: segments [0,2] and [3,6]
        got = run_lazy_partitioned(p, FIG1_INPUT, workers)
        assert match_texts(got, p) == FIG2_MATCHES, workers


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
    got = run_lazy_partitioned(p, FIG1_INPUT, 1)
    assert got == find_matches(p, FIG1_INPUT)


def test_fig2_chained_partitioned():
    p = build_fig1("dfa")
    for workers in range(2, 8):
        got = run_chained_partitioned(p, FIG1_INPUT, workers)
        assert match_texts(got, p) == FIG2_MATCHES, workers


def test_chained_frontier_hops_across_every_segment():
    # A match spanning all four single-byte segments must ride a 3-hop
    # frontier chain into the last worker.
    p = build_pfsm([("aaaa", compile_pattern("aaaa", "dfa"))])
    got = run_chained_partitioned(p, b"aaaa", 4)
    assert match_texts(got, p) == {("aaaa", 0, 3)}
    assert got == find_matches(p, b"aaaa")


def test_chained_single_segment_is_identity():
    p = build_fig1("dfa")
    got = run_chained_partitioned(p, FIG1_INPUT, 1)
    assert got == find_matches(p, FIG1_INPUT)


@pytest.mark.parametrize("strategy", ["regex", "lazy", "chained"])
def test_randomized_equivalence_with_single_run(strategy):
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


@pytest.mark.parametrize("strategy", ["regex", "lazy", "chained"])
def test_labels_sharing_a_machine_equal_single_run(strategy):
    # Both labels of a plain dump share one machine, so each regex worker
    # runs the part of it that its label owns.
    p = load_pfsm(PLAIN_TWO_LABEL_DUMP)
    data = b"abba"
    plan = (regex_plan(p, 2) if strategy == "regex"
            else data_plan(strategy, len(data), 2))
    single = find_matches(p, data)
    assert match_texts(single, p) == {("a", 0, 0), ("b", 1, 1), ("b", 2, 2),
                                      ("a", 3, 3)}
    assert run_partitioned(p, data, plan) == single


def test_regex_plan_deals_labels_round_robin():
    # One group per worker, never an empty one, and a regex plan asks for
    # no more workers than there are labels.
    p = build_fig1("dfa")
    assert groups(p, 2) == [(0, 2), (1,)]
    assert groups(p, 9) == [(0,), (1,), (2,)]
    assert regex_plan(p, 9).workers == 3


def test_regex_partitioning_shrinks_resident_machine():
    p = build_fig1("dfa")
    total = sum(e.n_states for e in p.directory.values())
    per_worker = [sum(p.directory[lid].n_states for lid in group)
                  for group in groups(p, 3)]
    assert max(per_worker) < total


def test_empty_input_all_strategies():
    p = build_fig1("dfa")
    for strategy in ("lazy", "chained"):
        assert run_partitioned(p, b"", data_plan(strategy, 0, 2)) == []
    assert run_partitioned(p, b"", regex_plan(p, 2)) == []


def test_literal_sets_equal_oracle_under_every_strategy():
    # Literal sets share one prefix trie; regex workers rebuild a trie
    # from their own words' chains.
    rng = random.Random("literal-strategies")
    for trial in range(60):
        p, labeled, data, _ = gen_literal_instance(rng, max_input=40)
        assert p.trie is not None
        want = {(p.label_text(lid), i, j)
                for lid, i, j in all_matches(labeled, data)}
        single = find_matches(p, data)
        assert match_texts(single, p) == want, trial
        if not data:
            continue
        for workers in (2, 3):
            for plan in (regex_plan(p, workers),
                         data_plan("lazy", len(data), workers),
                         data_plan("chained", len(data), workers)):
                assert run_partitioned(p, data, plan) == single, \
                    (trial, plan.strategy, workers)


@pytest.mark.parametrize("strategy", ["lazy", "chained"])
def test_segments_are_not_copied(strategy):
    # Workers scan slices of one view of the input, not copies: over
    # `acx` text, which matches nothing, a 2-worker run's peak stays flat
    # from 4 to 32 KiB. Copied segments grew it about 7x.
    p = build_pfsm([(x, compile_pattern(x)) for x in ("a[^x]*b", "abc")])
    small, large = (random_text(f"acx/{kib}", b"acx", kib * 1024)
                    for kib in (4, 32))

    def scan(data):
        assert run_partitioned(p, data, data_plan(strategy, len(data), 2)) == []

    traced_peak(lambda: scan(small))        # first-use allocations
    peaks = [traced_peak(lambda: scan(data)) for data in (small, large)]
    assert peaks[1] < 2 * peaks[0], peaks
