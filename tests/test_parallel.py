"""Partitioned runs must reproduce the single-worker match set exactly,
for every strategy and plan, and the worker processes behind them must
fail loudly and never outlive their caller."""

import os
import random
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import pytest
from helpers import (FIG1_INPUT, FIG2_MATCHES, PLAIN_TWO_LABEL_DUMP,
                     build_fig1, gen_instance, gen_literal_instance,
                     match_texts, random_text, traced_peak)

from pfsm import build_pfsm, find_matches
from pfsm.compile import compile_pattern
from pfsm.oracle import all_matches
from pfsm import parallel
from pfsm.parallel import (PartitionPlan, PlanError, WorkerError,
                           close_workers, data_plan, groups, regex_plan,
                           run_chained_partitioned, run_lazy_partitioned,
                           run_partitioned, run_regex_partitioned, segments)
from pfsm.wire import load_pfsm

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
import workloads as wl  # noqa: E402  (the benchmark's seeded workloads)


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


# ---------------------------------------------------------------------------
# Worker processes


def _carry_machine():
    return build_pfsm([(x, compile_pattern(x)) for x in ("a[^x]*b", "ca")])


# `a[^x]*b` matches stay open across many cuts; the x's close some of them.
CARRY_TEXT = (b"a" + b"cc" * 20 + b"b" + b"ca" + b"c" * 30 + b"bxa" +
              b"c" * 9 + b"b") * 3


@pytest.mark.parametrize("cpus", [1, 2, 4])
def test_every_split_equals_single_run_on_any_cpu_count(monkeypatch, cpus):
    # With the CPU count patched, up to three children scan segments even
    # on a two-core machine, and with one CPU the caller scans them all.
    monkeypatch.setattr(parallel, "_cpus", lambda: cpus)
    machines = [(_carry_machine(), CARRY_TEXT)]
    for name in wl.NAMES:
        for seed in (1, 2):
            w = wl.build(name, seed, wl.TOY)
            machines.append((build_pfsm([(x, compile_pattern(x))
                                         for x in w.patterns]), w.data))
    for p, data in machines:
        for text in (data, data[:100], data[:9], data[:1]):
            want = find_matches(p, text)
            for strategy in ("lazy", "chained"):
                for workers in range(1, 10):
                    got = run_partitioned(p, text, PartitionPlan(strategy,
                                                                 workers))
                    assert got == want, (cpus, strategy, workers, len(text))
    # Cut 9 ways, the carry text's 100-byte prefix carries (0, 74) across
    # six cuts.
    assert match_texts(find_matches(*machines[0]), machines[0][0]) \
        >= {("a[^x]*b", 0, 41), ("a[^x]*b", 0, 74), ("a[^x]*b", 43, 74)}


@pytest.mark.parametrize("strategy", ["lazy", "chained"])
def test_a_killed_worker_fails_the_next_run_loudly(monkeypatch, strategy):
    monkeypatch.setattr(parallel, "_cpus", lambda: 2)
    p = _carry_machine()
    plan = PartitionPlan(strategy, 2)
    want = find_matches(p, CARRY_TEXT)
    assert run_partitioned(p, CARRY_TEXT, plan) == want
    [pid] = [child.pid for child in parallel._pool.children]
    os.kill(pid, signal.SIGKILL)
    with pytest.raises(WorkerError, match=f"worker {pid}"):
        run_partitioned(p, CARRY_TEXT, plan)
    # The failed run closed the pool; the next one forks a fresh worker.
    assert parallel._pool is None
    assert run_partitioned(p, CARRY_TEXT, plan) == want
    assert [child.pid for child in parallel._pool.children] != [pid]


def test_the_caller_carries_into_a_segment_before_reading_its_reply(
        monkeypatch):
    # The carry from segment 0 runs through segment 1 while the child may
    # still scan it; the child's matches are read only after that.
    caller = os.getpid()
    events = []
    real_segment, real_reply = parallel.run_segment, parallel._Child.reply

    def logged_segment(p, text, window, *args, **kwargs):
        if os.getpid() == caller:
            events.append("own" if window is not None else "carry")
        return real_segment(p, text, window, *args, **kwargs)

    def logged_reply(child):
        events.append("reply")
        return real_reply(child)

    monkeypatch.setattr(parallel, "run_segment", logged_segment)
    monkeypatch.setattr(parallel._Child, "reply", logged_reply)
    monkeypatch.setattr(parallel, "_cpus", lambda: 2)
    close_workers()
    p = _carry_machine()
    assert run_partitioned(p, CARRY_TEXT, PartitionPlan("chained", 2)) \
        == find_matches(p, CARRY_TEXT)
    assert events == ["own", "carry", "reply"]


@pytest.mark.parametrize("error, reply", [
    (RuntimeError("boom"), "failed: RuntimeError: boom"),
    (SystemExit(3), "died before it replied")])
def test_a_worker_exception_never_unwinds_into_the_caller(
        monkeypatch, tmp_path, error, reply):
    # A child that raises replies with the error, or, for what is not an
    # Exception, exits. Either way it never runs on in the code that
    # forked it: the `finally` below runs in this process only.
    caller = os.getpid()
    real = parallel.run_segment

    def failing(*args, **kwargs):
        if os.getpid() != caller:
            raise error
        return real(*args, **kwargs)

    monkeypatch.setattr(parallel, "run_segment", failing)
    monkeypatch.setattr(parallel, "_cpus", lambda: 2)
    close_workers()
    ran = tmp_path / "ran"
    try:
        with pytest.raises(WorkerError, match=reply):
            run_partitioned(_carry_machine(), CARRY_TEXT,
                            PartitionPlan("lazy", 2))
    finally:
        with open(ran, "a") as f:
            f.write(f"{os.getpid()}\n")
    assert ran.read_text().split() == [str(caller)]
    assert parallel._pool is None


def test_close_workers_reaps_every_child(monkeypatch):
    monkeypatch.setattr(parallel, "_cpus", lambda: 4)
    p = _carry_machine()
    assert run_partitioned(p, CARRY_TEXT, PartitionPlan("chained", 4)) \
        == find_matches(p, CARRY_TEXT)
    assert len(parallel._pool.children) == 3
    close_workers()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                    reason="needs /proc/self/fd")
def test_close_workers_releases_every_descriptor(monkeypatch):
    monkeypatch.setattr(parallel, "_cpus", lambda: 4)
    close_workers()
    before = sorted(os.listdir("/proc/self/fd"))
    p = _carry_machine()
    assert run_partitioned(p, CARRY_TEXT, PartitionPlan("chained", 4)) \
        == find_matches(p, CARRY_TEXT)
    assert len(parallel._pool.children) == 3
    close_workers()
    assert sorted(os.listdir("/proc/self/fd")) == before


def test_a_new_generation_replaces_the_pool(monkeypatch):
    monkeypatch.setattr(parallel, "_cpus", lambda: 2)
    p = _carry_machine()
    run_partitioned(p, CARRY_TEXT, PartitionPlan("lazy", 2))
    [old] = [child.pid for child in parallel._pool.children]
    q = build_pfsm([("c+b", compile_pattern("c+b"))])
    assert run_partitioned(q, CARRY_TEXT, PartitionPlan("lazy", 2)) \
        == find_matches(q, CARRY_TEXT)
    assert parallel._pool.machine() is q
    assert [child.pid for child in parallel._pool.children] != [old]
    # The old worker was reaped when its pool closed.
    with pytest.raises(ChildProcessError):
        os.waitpid(old, os.WNOHANG)


def test_without_fork_the_caller_scans_every_segment(monkeypatch):
    monkeypatch.setattr(parallel, "_cpus", lambda: 4)
    monkeypatch.delattr(os, "fork")
    close_workers()
    p = _carry_machine()
    for strategy in ("lazy", "chained"):
        assert run_partitioned(p, CARRY_TEXT, PartitionPlan(strategy, 4)) \
            == find_matches(p, CARRY_TEXT)
    assert parallel._pool is None


def test_a_caller_with_threads_forks_no_worker(monkeypatch):
    monkeypatch.setattr(parallel, "_cpus", lambda: 4)
    close_workers()
    p = _carry_machine()
    done = threading.Event()
    thread = threading.Thread(target=done.wait, args=(10,))
    thread.start()
    try:
        assert run_partitioned(p, CARRY_TEXT, PartitionPlan("chained", 4)) \
            == find_matches(p, CARRY_TEXT)
        assert parallel._pool is None
    finally:
        done.set()
        thread.join(10)
    assert not thread.is_alive()


def test_a_worker_forked_under_tracemalloc_does_not_trace(monkeypatch,
                                                          tmp_path):
    # A tracing child would scan many times slower; each pass logs its
    # process and whether that process traces.
    log = tmp_path / "tracing"
    real = parallel.run_segment

    def logged(*args, **kwargs):
        with open(log, "a") as f:
            f.write(f"{os.getpid()} {tracemalloc.is_tracing()}\n")
        return real(*args, **kwargs)

    monkeypatch.setattr(parallel, "run_segment", logged)
    monkeypatch.setattr(parallel, "_cpus", lambda: 2)
    close_workers()
    p = _carry_machine()
    tracemalloc.start()
    try:
        got = run_partitioned(p, CARRY_TEXT, PartitionPlan("lazy", 2))
    finally:
        tracemalloc.stop()
    close_workers()
    assert got == find_matches(p, CARRY_TEXT)
    passes = {(pid == str(os.getpid()), tracing)
              for pid, tracing in map(str.split, log.read_text().splitlines())}
    assert passes == {(True, "True"), (False, "False")}


WORKER_PIDS = """
from pfsm import parallel, build_pfsm, compile_pattern
parallel._cpus = lambda: 3
p = build_pfsm([("a[^x]*b", compile_pattern("a[^x]*b"))])
parallel.run_partitioned(p, b"acb" * 100, parallel.PartitionPlan("lazy", 3))
print(*(child.pid for child in parallel._pool.children))
"""


def test_workers_do_not_outlive_their_process():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    got = subprocess.run([sys.executable, "-c", WORKER_PIDS], env=env,
                         capture_output=True, text=True, timeout=60)
    assert got.returncode == 0, got.stderr
    pids = [int(pid) for pid in got.stdout.split()]
    assert len(pids) == 2
    deadline = time.monotonic() + 2
    for pid in pids:
        while True:
            try:
                os.kill(pid, 0)
            except ProcessLookupError:
                break
            assert time.monotonic() < deadline, f"worker {pid} outlived it"
            time.sleep(0.01)
