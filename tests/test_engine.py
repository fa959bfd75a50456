"""Scan semantics: golden matches, the two-cycle trace, segment runs,
snapshot/restore, and randomized equivalence with the brute-force oracle."""

import random
import time
from collections import Counter, deque
from dataclasses import replace

import pytest
from helpers import (FIG1_INPUT, FIG2_MATCHES, best_scan_seconds, build_fig1,
                     build_fig1_mixed, engine_matches, engine_segment,
                     fast_cycle_pairs, gen_instance, gen_literal_instance,
                     loglog_slope, match_texts, peel_tags, random_text,
                     stepped, traced_peak, with_epsilon)

import pfsm.engine
from pfsm import build_pfsm, compile_pattern, epsilon_closure
from pfsm.engine import (ActiveSet, Engine, EngineStats,
                         GenerationMismatchError, Match, _anchor,
                         _build_seed_tables, _scan, _tags, find_matches,
                         format_match_jsonl, format_match_tsv, run,
                         run_segment)
from pfsm.oracle import all_matches
from pfsm.parallel import PartitionPlan, run_partitioned
from pfsm.union import remove_pattern
from pfsm.wire import dump_pfsm, load_pfsm

@pytest.mark.parametrize("build", [lambda: build_fig1("dfa"),
                                   lambda: build_fig1("nfa"),
                                   build_fig1_mixed],
                         ids=["dfa", "nfa", "mixed"])
def test_fig2_golden(build):
    p = build()
    got = find_matches(p, FIG1_INPUT)
    assert match_texts(got, p) == FIG2_MATCHES
    assert len(got) == 10


def test_empty_input():
    p = build_fig1("dfa")
    stats = run(p, b"")
    assert stats.n == 0 and stats.matches_emitted == 0


def test_two_cycle_trace_on_ac():
    # All-DFA machine consuming "ac": after cycle 0 exactly the three
    # 'a'-successors of the pattern entries are active, tagged 0; after
    # cycle 1 the expected states carry the expected tag sets and exactly
    # three matches ending at index 1 have been reported.
    p = build_fig1("dfa")
    a = p.automaton
    matches = []
    eng = Engine(p, matches.append)

    entry = {e.label: e.entry for e in p.directory.values()}
    succ = lambda s, byte: next(iter(a.byte_transitions[s][ord(byte)]))

    eng.feed(ord("a"), 0)
    expected_after_a = {succ(entry[lab], "a"): {0}
                        for lab in ("a*c", "ac", "a(ca)*b")}
    assert eng.active == expected_after_a
    assert matches == []

    eng.feed(ord("c"), 1)
    star_final = succ(succ(entry["a*c"], "a"), "c")
    assert star_final == succ(entry["a*c"], "c")
    expected_after_c = {
        star_final: {0, 1},                      # "a*c" matched from 0 and 1
        succ(succ(entry["ac"], "a"), "c"): {0},  # "ac" matched from 0
        succ(succ(entry["a(ca)*b"], "a"), "c"): {0},
    }
    assert eng.active == expected_after_c
    assert match_texts(matches, p) == {("a*c", 0, 1), ("a*c", 1, 1),
                                       ("ac", 0, 1)}
    assert all(m.end == 1 for m in matches) and len(matches) == 3


def test_online_emission_order():
    # Every match arrives during its own cycle, and within a cycle sorted
    # by (start, label).
    p = build_fig1("dfa")
    eng_cycle = {"i": -1}
    seen = []

    def sink(m):
        assert m.end == eng_cycle["i"]
        seen.append(m)

    eng = Engine(p, sink)
    for i, byte in enumerate(FIG1_INPUT):
        eng_cycle["i"] = i
        eng.feed(byte, i)
    assert seen == sorted(seen, key=lambda m: (m.end, m.start, m.label))
    assert match_texts(seen, p) == FIG2_MATCHES


def test_nfa_duplicate_final_states_dedupe():
    # Two distinct final states with the same label reached on one span
    # give one (label, start, end) report.
    from pfsm.automaton import Automaton
    from pfsm.union import build_pfsm
    machine = Automaton(set(range(3)), 0, {0: {ord("a"): {1, 2}}}, {},
                        {1: frozenset({0}), 2: frozenset({0})})
    p = build_pfsm([("dup", machine)])
    deduped = find_matches(p, b"xax")
    assert [(m.start, m.end) for m in deduped] == [(1, 1)]


def test_randomized_oracle_equivalence():
    rng = random.Random(4242)
    for _ in range(120):
        p, labeled, data, _ = gen_instance(rng, max_input=48)
        got = {(m.label, m.start, m.end)
               for m in find_matches(p, data)}
        assert got == all_matches(labeled, data), (labeled, data)


def test_deterministic_output():
    p = build_fig1_mixed()
    first = find_matches(p, FIG1_INPUT)
    for _ in range(3):
        assert find_matches(p, FIG1_INPUT) == first


def test_tag_budget():
    rng = random.Random(13)
    for _ in range(60):
        p, _, data, form = gen_instance(rng, max_input=48, forms=("dfa", "nfa"))
        counts = fast_cycle_pairs(p, data)
        assert len(counts) == len(data) == run(p, data).cycles
        r = len(p.directory)
        total_m = sum(e.n_states for e in p.directory.values())
        per_tag = r if form == "dfa" else total_m
        for i, pairs in enumerate(counts):
            assert 0 < pairs <= per_tag * (i + 1) + 1, (form, i, pairs)


def test_scan_memory_does_not_grow_with_the_input():
    # The scan keeps its pair counts as counters, not one per byte: over
    # random `abcx` text, whose peak pair count is 28 at both sizes, its
    # memory peak stays flat from 4 to 32 KiB. A count per byte grew it
    # about 8x.
    p = build_pfsm([(x, compile_pattern(x)) for x in ("a[^x]*b", "abc")])
    small, large = (random_text(f"abcx/{kib}", b"abcx", kib * 1024)
                    for kib in (4, 32))
    traced_peak(lambda: run(p, small))      # first-use allocations
    peaks = [traced_peak(lambda: run(p, data)) for data in (small, large)]
    assert peaks[1] < 2 * peaks[0], peaks


def test_run_segment_degenerate_window_equals_run():
    rng = random.Random(3)
    for _ in range(30):
        p, _, data, _ = gen_instance(rng, max_input=32)
        if not data:
            continue
        full = find_matches(p, data)
        seg_out = []
        stats, carry = run_segment(p, data, (0, len(data) - 1), None,
                                   seg_out.append)
        assert seg_out == full
        assert carry.generation == p.generation


def test_run_segment_chained_split():
    p = build_fig1("dfa")
    out1, out2 = [], []
    _, carry = run_segment(p, b"aaca", (0, 3), None, out1.append)
    run_segment(p, b"cab", (4, 6), carry, out2.append, base=4)
    assert all(m.start <= 3 and m.end <= 3 for m in out1)
    assert match_texts(out1, p) | match_texts(out2, p) == FIG2_MATCHES


def test_run_segment_empty_window_continuations_only():
    # Seeding a no-reinit run with the carried set reports exactly the
    # continuations a full run would report past the boundary.
    p = build_fig1("dfa")
    boundary = 4
    full = [m for m in find_matches(p, FIG1_INPUT)
            if m.start < boundary and m.end >= boundary]
    _, carry = run_segment(p, FIG1_INPUT[:boundary], (0, boundary - 1), None)
    out = []
    run_segment(p, FIG1_INPUT[boundary:], None, carry, out.append,
                base=boundary)
    assert out == full


def _random_window(rng, base, n):
    if n == 0 or rng.random() < 0.25:
        return None
    lo = rng.randrange(base, base + n)
    return lo, rng.randrange(lo, base + n)


def _random_carry(rng, p, carry, base):
    """`carry` with tags in [0, base) added on random non-initial states."""
    tags = {s: set(_tags(tagged)) for s, tagged in carry.masks.items()}
    states = sorted(p.automaton.states - {p.initial})
    for s in rng.sample(states, rng.randint(0, min(3, len(states)))):
        tags.setdefault(s, set()).update(
            rng.sample(range(base), rng.randint(1, min(4, base))))
    return ActiveSet(carry.generation,
                     {s: _anchor(t) for s, t in tags.items()})


@pytest.mark.parametrize("form", ["dfa", "nfa", "mixed", "eps", "eps2",
                                  "literal"])
def test_fast_path_equals_engine(form):
    # Two-segment run_segment against the reference Engine: the same
    # matches in the same order, the same cycle count, peak and summed
    # pair counts and match count, and the same carried set, on random
    # windows and on carries the first segment left, sometimes with
    # random extra tags. Engine's counters agree with its per-cycle list,
    # which the fast path leaves empty.
    # The literal sets share one prefix trie; only the eps forms put
    # epsilon edges behind the initial state, eps2 in chains of two.
    rng = random.Random(f"fast-vs-engine/{form}")
    for trial in range(200):
        p, data = _random_pfsm(rng, form)
        cut = rng.randint(0, len(data))
        carry = None
        for base, seg in ((0, data[:cut]), (cut, data[cut:])):
            if carry is not None and base and rng.random() < 0.5:
                carry = _random_carry(rng, p, carry, base)
            window = _random_window(rng, base, len(seg))
            want, want_stats, want_snap = engine_segment(p, seg, window,
                                                         carry, base)
            got = []
            stats, snap = run_segment(p, seg, window, carry, got.append,
                                      base=base)
            assert got == want, (trial, base)
            assert _counters(stats) == _counters(want_stats), (trial, base)
            assert stats.matches_emitted == want_stats.matches_emitted
            assert stats.per_cycle_pairs == []
            assert _counters(want_stats) == (
                len(want_stats.per_cycle_pairs),
                max(want_stats.per_cycle_pairs, default=0),
                sum(want_stats.per_cycle_pairs))
            assert snap == want_snap, (trial, base)
            carry = snap


def _counters(stats):
    return stats.cycles, stats.peak_pairs, stats.sum_pairs


def _random_pfsm(rng, form):
    """A random instance of `form`, as test_fast_path_equals_engine draws
    them: (pfsm, input)."""
    if form == "literal":
        p, _, data, _ = gen_literal_instance(rng, max_input=40)
    else:
        p, _, data, _ = gen_instance(rng, max_input=40, forms=(form,))
    return p, data


@pytest.mark.parametrize("form", ["dfa", "nfa", "mixed", "eps", "eps2",
                                  "literal"])
def test_scan_carries_each_mask_count(form):
    # Every live value the scan leaves is (lo, mask, count) with count the
    # mask's set bits, on random windows over random prefixes of the
    # input, with and without carried tags.
    rng = random.Random(f"counted-masks/{form}")
    for trial in range(200):
        p, data = _random_pfsm(rng, form)
        base = rng.randint(0, 4)
        carry = _random_carry(rng, p, ActiveSet(p.generation, {}), base) \
            if base else ActiveSet(p.generation, {})
        seg = data[:rng.randint(0, len(data))]
        active = _scan(p, seg, _random_window(rng, base, len(seg)),
                       dict(carry.masks), None, base, EngineStats())
        for s, (lo, mask, count) in active.items():
            assert count == mask.bit_count(), (trial, s)


@pytest.mark.parametrize("form", ["dfa", "nfa", "mixed", "eps", "literal"])
def test_seed_rows_are_the_closed_start_steps(form):
    # The rows built in one pass over the start region's tables hold, for
    # every byte, exactly the epsilon-closed byte targets of the start
    # region; a byte without a row seeds nothing. Each entry carries the
    # state's own byte table, or one that holds every byte for a final.
    # The tables also hold the start region's size and the closing states.
    # The eps form is checked also as loaded back from its dump.
    rng = random.Random(f"seed-rows/{form}")
    for trial in range(50):
        p = _random_pfsm(rng, form)[0]
        machines = [p.automaton]
        if form == "eps":
            machines.append(load_pfsm(dump_pfsm(p)).automaton)
        for a in machines:
            start = epsilon_closure(a, {a.initial})
            closing, n_start, rows = _build_seed_tables(a)
            assert n_start == len(start)
            assert closing == {s for s in a.states - {a.initial}
                               if a.epsilon_transitions.get(s)}
            for byte in range(256):
                want = epsilon_closure(a, stepped(a, start, byte))
                row = rows.get(byte, ())
                assert {t for t, _ in row} == want, (trial, byte)
                for t, table in row:
                    steps = set(range(256)) if t in a.final_labels else \
                        set(a.byte_transitions.get(t, ()))
                    assert set(table) == steps, (trial, byte, t)


class _CountingRows(dict):
    """A `byte_transitions` mapping that counts its `get` calls per state."""

    def __init__(self, rows):
        super().__init__(rows)
        self.reads = Counter()

    def get(self, s, default=None):
        self.reads[s] += 1
        return super().get(s, default)


@pytest.mark.parametrize("form", ["nfa", "dfa"])
def test_seed_that_cannot_step_on_the_next_byte_is_never_stored(form):
    # Over "ac" * 1000 every 'a' seeds the `a` state of `ab`, which is not
    # final and has no edge on the 'c' after it. Stored, it would be looked
    # up on that 'c' and die: so it is never stored, and its table is read
    # once, by the seed rows. The pair counts still count it.
    p = build_pfsm([("ab", compile_pattern("ab", form))])
    a = p.automaton
    (a_state,) = stepped(a, epsilon_closure(a, {a.initial}), ord("a"))
    rows = _CountingRows(a.byte_transitions)
    data = b"ac" * 1000
    window = (0, len(data) - 1)
    stats = EngineStats()
    _scan(replace(p, automaton=replace(a, byte_transitions=rows)), data,
          window, {}, None, 0, stats)
    assert rows.reads[a_state] <= 1
    want = engine_segment(p, data, window, None)[1]
    assert _counters(stats) == _counters(want)


def _in_form(form, patterns):
    """`patterns`, each its own label, in one form; "eps" puts every state
    but the initial one behind an epsilon edge."""
    machines = []
    for pattern in patterns:
        m = compile_pattern(pattern, "nfa" if form == "eps" else form)
        if form == "eps":
            m = with_epsilon(m, m.states - {m.initial})
        machines.append((pattern, m))
    return build_pfsm(machines)


def _alone(form, pattern="ab"):
    """`pattern` alone, in one form, as `_in_form` builds it."""
    return _in_form(form, [pattern])


# The last seeded position stores its whole row, next byte or not: a window
# or a segment that ends on the 'a' of "ab" must keep the 'a' for the 'b'.
edge_forms = pytest.mark.parametrize("form", ["nfa", "dfa", "eps"])


@edge_forms
def test_lazy_window_ending_on_a_reports_the_match(form):
    p = _alone(form)
    assert run_partitioned(p, b"xab", PartitionPlan("lazy", 3)) \
        == find_matches(p, b"xab") == [(0, 1, 2)]


@edge_forms
def test_chained_cut_between_a_and_b_equals_single(form):
    p = _alone(form)
    data = b"xabab"
    assert run_partitioned(p, data, PartitionPlan("chained", 5)) \
        == find_matches(p, data) == [(0, 1, 2), (0, 3, 4)]


@edge_forms
def test_segment_ending_on_a_carries_the_a_state(form):
    p = _alone(form)
    a = p.automaton
    seeded = epsilon_closure(a, stepped(a, epsilon_closure(a, {a.initial}),
                                        ord("a")))
    _, carry = run_segment(p, b"xa", (0, 1), None)
    assert carry.masks == {s: (1, 1, 1) for s in seeded}
    assert carry == engine_segment(p, b"xa", (0, 1), None)[2]


@edge_forms
@pytest.mark.parametrize("data, base, window, cycles, matches", [
    # No window and nothing active: one cycle, then stop.
    (b"cacb", 0, None, 1, []),
    # Seeding starts after base: the empty active set does not stop the
    # scan before the window, and the 'a' before it seeds nothing.
    (b"abcab", 10, (12, 14), 5, [(0, 13, 14)]),
    # The last seeded position empties the active set: stop on it.
    (b"xaxab", 0, (0, 2), 3, []),
    # A match live at the last seeded position runs past it: stop on the
    # first cycle after it that leaves nothing active.
    (b"cacccbxc", 0, (0, 1), 7, [(0, 1, 5)]),
])
def test_scan_stops_where_the_reference_does(form, data, base, window,
                                             cycles, matches):
    # The stop point at each edge of the scan's seeding phases, pinned and
    # against the reference Engine: a scan that stops one cycle late or
    # early can report the same matches, so the counters are checked too.
    p = _alone(form, "a[^x]*b")
    want, want_stats, want_snap = engine_segment(p, data, window, None, base)
    got = []
    stats, snap = run_segment(p, data, window, None, got.append, base=base)
    assert got == want == matches
    assert stats.cycles == cycles
    assert _counters(stats) == _counters(want_stats)
    assert stats.matches_emitted == want_stats.matches_emitted
    assert snap == want_snap


def _four_counters(stats):
    return _counters(stats) + (stats.matches_emitted,)


# Each route by which a final enters the scan's next set: a one-byte
# pattern's seeds are finals, found only as they are stored, and at a
# window's last position too, where the whole row is stored; in the eps
# form, "ab"'s final is reached only through the closure of a step; "a+"'s
# final is reached by a step and then has the byte's seed merged into it.
FINAL_ROUTES = ["[ab]", "ab", "a+"]


@edge_forms
@pytest.mark.parametrize("patterns", [[pat] for pat in FINAL_ROUTES]
                         + [FINAL_ROUTES], ids=FINAL_ROUTES + ["all"])
def test_every_route_into_a_final_reports_as_engine_does(form, patterns):
    _check_windows_and_cuts(_in_form(form, patterns), b"abx",
                            f"final-routes/{form}/{patterns}")


# Seed rows that mix, in one cycle, fresh seeds ("ab"'s first state), loop
# states that held one mask object and so share one grown mask ("a*b" and
# "a*c"), and a loop state whose mask is its own ("[ab]*c", also seeded on
# 'b'). In the second set, on "abc", both 'a' seeds share one fresh mask;
# "a?bc" grows it on the 'b' while "(ab)?c" carries it unseeded to the 'c',
# where its final is seeded: a grown mask reused across cycles would give
# that final the 'b''s tag, not the 'c''s.
SHARED_GROWTH = [["a*b", "a*c", "ab", "[ab]*c"], ["a?bc", "(ab)?c"]]


@edge_forms
@pytest.mark.parametrize("patterns", SHARED_GROWTH, ids=["mixed", "stale"])
def test_shared_growth_reports_as_engine_does(form, patterns):
    _check_windows_and_cuts(_in_form(form, patterns), b"abc",
                            f"shared-growth/{form}/{patterns}")


@edge_forms
def test_loop_states_share_one_grown_mask(form):
    # The four a* loop states are seeded at the same positions: after the
    # first byte they hold one mask object, grown once per byte, not four
    # equal ones.
    p = _in_form(form, ["a*b", "a*c", "a*d", "a*e"])
    data = b"a" * 64
    _, carry = run_segment(p, data, (0, 63), None)
    assert len({id(v) for v in carry.masks.values()}) == 1
    assert carry == engine_segment(p, data, (0, 63), None)[2]


def _check_windows_and_cuts(p, alphabet, seed):
    """On every window of random short inputs over `alphabet`, and on every
    cut of them into two segments with the first's carry passed on, as a
    chained run makes it: the matches, in order, and all four counters are
    the reference's. A chained run through the partitioned path agrees
    too."""
    rng = random.Random(seed)
    for trial in range(40):
        data = bytes(rng.choice(alphabet) for _ in range(rng.randint(1, 7)))
        n = len(data)
        for window in [(lo, hi) for lo in range(n) for hi in range(lo, n)]:
            want, want_stats, want_snap = engine_segment(p, data, window,
                                                         None)
            got = []
            stats, snap = run_segment(p, data, window, None, got.append)
            assert got == want, (trial, data, window)
            assert _four_counters(stats) == _four_counters(want_stats)
            assert snap == want_snap
        for cut in range(1, n):
            got, want = [], []
            carry = want_carry = None
            for base, seg in ((0, data[:cut]), (cut, data[cut:])):
                window = (base, base + len(seg) - 1)
                out, want_stats, want_carry = engine_segment(
                    p, seg, window, want_carry, base)
                want += out
                stats, carry = run_segment(p, seg, window, carry,
                                           got.append, base=base)
                assert _four_counters(stats) == \
                    _four_counters(want_stats), (trial, data, cut)
                assert carry == want_carry
            assert got == want == engine_matches(p, data), (trial, data, cut)
    data = bytes(alphabet[i] for i in (0, 1, 0, 0, 1, 2, 1, 0, 1))
    assert run_partitioned(p, data, PartitionPlan("chained", 4)) \
        == find_matches(p, data) == engine_matches(p, data)


@pytest.mark.parametrize("form", ["nfa", "dfa"])
def test_lone_tag_never_widens(form):
    # The one tag seeded at the 'a' stays anchored at its start with a
    # one-bit mask, however long it lives: checked on the scan's own
    # values, not through its running time.
    p = build_pfsm([("gap", compile_pattern("a[^x]*b", form))])
    active = _scan(p, b"a" + b"c" * 5000, (0, 0), {}, None, 0,
                   EngineStats())
    assert list(active.values()) == [(0, 1, 1)]


@pytest.mark.slow
def test_lone_long_lived_tag_scans_in_linear_time():
    # One tag lives from the 'a' to the 'b' and no other start survives:
    # its mask must not widen with its age, or the scan turns quadratic.
    p = build_pfsm([("gap", compile_pattern("a[^x]*b"))])
    ns = [8192, 16384, 32768, 65536]
    times = [best_scan_seconds(p, b"a" + b"c" * n + b"b") for n in ns]
    slope = loglog_slope(ns, times)
    assert slope <= 1.4, (slope, times)


def test_tags_equal_the_bit_peeling_reference():
    # Widths from 1 to 70k bits: full, half, a few tags, and 1/64 dense.
    rng = random.Random(22)
    masks = []
    for w in (1, 2, 3, 7, 8, 9, 63, 64, 65, 255, 256, 257, 2047, 2048, 2049,
              4096, 70_000):
        top = 1 << (w - 1)
        masks += [(1 << w) - 1, top | rng.getrandbits(w), top | 1,
                  top | sum(1 << rng.randrange(w)
                            for _ in range(rng.randint(0, 20))),
                  top | sum(1 << rng.randrange(w) for _ in range(w // 64))]
    for mask in masks:
        lo = rng.choice([0, rng.randrange(10**6), 10**6])
        assert list(_tags((lo, mask, mask.bit_count()))) == \
            peel_tags(lo, mask), (lo, mask.bit_length(), mask.bit_count())


@pytest.mark.slow
def test_dense_tag_extraction_is_linear_in_width():
    # Peeling one bit at a time costs O(width) per tag, so a dense mask
    # would read a slope near 1.7 here. The tags are consumed one at a
    # time, as a sink takes them, so no list of 64k ints is timed.
    ws = [8192, 16384, 32768, 65536]

    def seconds(w):
        tagged = (0, (1 << w) - 1, w)
        best = float("inf")
        for _ in range(7):
            t0 = time.perf_counter()
            deque(_tags(tagged), maxlen=0)
            best = min(best, time.perf_counter() - t0)
        return best

    times = [seconds(w) for w in ws]
    slope = loglog_slope(ws, times)
    assert slope <= 1.2, (slope, times)


def test_far_carry_keeps_its_absolute_tag():
    # A tag carried a million positions keeps its start, and its one-bit
    # mask does not widen over the hop. The DFA keeps one state live after
    # the b, where the NFA keeps two.
    p = build_pfsm([("gap", compile_pattern("a[^x]*b", "dfa"))])
    _, carry = run_segment(p, b"a", (0, 0), None)
    assert list(carry.masks.values()) == [(0, 1, 1)]
    out = []
    _, snap = run_segment(p, b"ccb", None, carry, out.append, base=10**6)
    assert out == [Match(p.label_ids["gap"], 0, 10**6 + 2)]
    assert list(snap.masks.values()) == [(0, 1, 1)]


def _refused_by_both(p, carry, base, error, message):
    """`carry` is refused, with `message`, by `run_segment` and by
    `Engine.restore` at `base`."""
    with pytest.raises(error, match=message):
        run_segment(p, b"b", None, carry, [].append, base=base)
    with pytest.raises(error, match=message):
        Engine(p).restore(carry, base)


@pytest.mark.parametrize("tag, base", [(-5, 0), (10**6, 0), (4, 4)])
def test_run_segment_rejects_carried_tag_outside_prefix(tag, base):
    # A carried tag is the start of a partial match begun before data[0],
    # so it must lie in [0, base); otherwise it would surface as a match
    # with a negative start or with start > end.
    p = build_fig1("dfa")
    state = min(e.entry for e in p.directory.values())
    carry = ActiveSet(p.generation, {state: _anchor({tag})})
    _refused_by_both(p, carry, base, ValueError,
                     f"state {state} carries tag {tag} ")


def test_run_segment_rejects_a_mask_whose_newest_tag_is_not_before_base():
    # Only the newest tag, lo + bit_length - 1, lies past the prefix.
    p = build_fig1("dfa")
    state = min(e.entry for e in p.directory.values())
    carry = ActiveSet(p.generation, {state: _anchor({1, 5})})
    _refused_by_both(p, carry, 5, ValueError,
                     f"^active state {state} carries tag 5 outside \\[0, 5\\)$")


def test_run_segment_rejects_carried_ancillary_state():
    # No edge enters q0, so a carried set naming it cannot come from a
    # scan; restoring it would report a 3-byte span for a 1-byte pattern.
    p = build_pfsm([("x", compile_pattern("x"))])
    carry = ActiveSet(p.generation, {p.initial: _anchor({3})})
    _refused_by_both(p, carry, 5, ValueError,
                     f"active state {p.initial} is the ancillary initial state")


@pytest.mark.parametrize("state, tagged, error, message", [
    (10**6, (0, 1, 1), GenerationMismatchError,
     "active state 1000000 not in machine"),
    (1, (0, 0b10, 1), ValueError,
     "active state 1 carries mask 0x2, not a positive mask with bit 0 set"),
    (1, (0, 0, 0), ValueError,
     "active state 1 carries mask 0x0, not a positive mask with bit 0 set"),
    (1, (0, 0b101, 1), ValueError, "active state 1 counts 1 tags, its mask "
                                   "holds 2"),
], ids=["state-outside-machine", "bit-0-clear", "state-without-tags",
        "count-not-popcount"])
def test_run_segment_rejects_carry_naming_a_bad_state(state, tagged, error,
                                                      message):
    # A carry of this generation that no scan of this machine could leave:
    # a state the machine lacks, or a mask no scan holds: one not anchored
    # at its oldest tag, mask 0 (a state with no tag), or one miscounted.
    p = build_fig1("dfa")
    assert 1 in p.automaton.states
    carry = ActiveSet(p.generation, {state: tagged})
    _refused_by_both(p, carry, 1, error, f"^{message}$")


def test_window_bounds_checked():
    p = build_fig1("dfa")
    with pytest.raises(ValueError, match="window"):
        run_segment(p, b"ab", (0, 5), None)
    with pytest.raises(ValueError, match="window"):
        run_segment(p, b"ab", (0, 1), None, base=3)


def test_snapshot_restore_roundtrip():
    p = build_fig1("dfa")
    eng = Engine(p)
    for i, byte in enumerate(FIG1_INPUT[:4]):
        eng.feed(byte, i)
    snap = eng.snapshot()
    other = Engine(p)
    other.restore(snap, 4)
    assert other.snapshot() == snap


def test_carried_pair_count_is_the_snapshots_tag_count():
    # `pair_count`, which the parallel benchmark reads as a carry's size,
    # counts the (state, tag) pairs of the reference Engine's snapshot at
    # every chained cut of Fig. 1.
    p = build_fig1("dfa")
    counts = []
    for cut in range(1, len(FIG1_INPUT)):
        window = (0, cut - 1)
        _, carry = run_segment(p, FIG1_INPUT[:cut], window, None)
        snap = engine_segment(p, FIG1_INPUT[:cut], window, None)[2]
        assert carry == snap
        assert carry.pair_count() == sum(len(list(_tags(tagged)))
                                         for tagged in snap.masks.values())
        counts.append(carry.pair_count())
    assert counts == [3, 4, 5, 4, 5, 5]


def test_snapshot_restore_mid_run_preserves_output():
    p = build_fig1("dfa")
    matches = []
    eng = Engine(p, matches.append)
    for i, byte in enumerate(FIG1_INPUT[:4]):
        eng.feed(byte, i)
    snap = eng.snapshot()
    resumed = Engine(p, matches.append)
    resumed.restore(snap, 4)
    for i in range(4, len(FIG1_INPUT)):
        resumed.feed(FIG1_INPUT[i], i)
    assert match_texts(matches, p) == FIG2_MATCHES


def test_restore_rejects_other_generation():
    p = build_fig1("dfa")
    eng = Engine(p)
    for i, byte in enumerate(FIG1_INPUT[:4]):
        eng.feed(byte, i)
    snap = eng.snapshot()
    shrunk = remove_pattern(p, "ac")
    with pytest.raises(GenerationMismatchError):
        Engine(shrunk).restore(snap, 4)
    with pytest.raises(GenerationMismatchError):
        run_segment(shrunk, b"ab", None, snap)


def test_match_output_formats():
    p = build_fig1("dfa")
    m = Match(p.label_ids["a*c"], 0, 2)
    assert format_match_tsv(m, p, FIG1_INPUT) == "a*c\t0\t2\taac"
    assert format_match_jsonl(m, p, FIG1_INPUT) == \
        '{"label": "a*c", "start": 0, "end": 2, "match": "aac"}'



def _no_sink_case(name):
    if name == "adversarial":
        pats = [("a*" + c, "a*" + c) for c in "bcde"]
        return build_pfsm([(label, compile_pattern(pat, "dfa"))
                           for label, pat in pats]), b"a" * 4095 + b"b"
    if name == "literals":
        # "twin" is a second label on the word "he": one final, two labels.
        pats = [("he", "he"), ("she", "she"), ("his", "his"),
                ("hers", "hers"), ("twin", "he")]
        return build_pfsm([(label, compile_pattern(pat))
                           for label, pat in pats]), b"ushers his shehers"
    return build_fig1("dfa"), FIG1_INPUT


@pytest.mark.parametrize("case", ["adversarial", "literals", "fig1"])
def test_run_without_sink_extracts_no_tags(case, monkeypatch):
    # Without a sink the count comes from the masks, and the carried set
    # is the scan's own masks: neither `run` nor a windowed `run_segment`
    # that returns its carry extracts the tags of the last live states.
    p, data = _no_sink_case(case)
    window = (0, len(data) - 1)
    want = len(find_matches(p, data))
    want_carry = engine_segment(p, data, window, None)[2]
    assert want > 0

    def refuse(tagged):
        raise AssertionError("tags extracted")

    monkeypatch.setattr(pfsm.engine, "_tags", refuse)
    assert run(p, data).matches_emitted == want
    stats, carry = run_segment(p, data, window, None)
    assert stats.matches_emitted == want
    assert carry == want_carry


@pytest.mark.parametrize("form", ["nfa", "dfa"])
@pytest.mark.parametrize("n", [4, 600])
def test_labels_ending_on_one_byte_sort_by_start_then_label(form, n):
    # Over a^n b the three labels end together with interleaved starts:
    # (aa)*b at every even start, a*b at every start, a(aa)*b at every
    # odd one. At n = 600 each label holds hundreds of tags.
    p = build_pfsm([(pat, compile_pattern(pat, form))
                    for pat in ("(aa)*b", "a*b", "a(aa)*b")])
    data = b"a" * n + b"b"
    got = find_matches(p, data)
    want = sorted([(1, s, n) for s in range(n + 1)]
                  + [(0, s, n) for s in range(0, n + 1, 2)]
                  + [(2, s, n) for s in range(1, n + 1, 2)],
                  key=lambda m: (m[1], m[0]))
    assert got == want
    assert got == engine_matches(p, data)


def test_match_sorts_compares_and_hashes_as_its_fields():
    ms = [Match(label, start, end) for label in (2, 0, 1)
          for start in (3, 0) for end in (5, 4)]
    assert sorted(ms) == sorted(ms, key=lambda m: (m.label, m.start, m.end))
    assert Match(1, 2, 3) < Match(1, 3, 0) < Match(2, 0, 0)
    assert Match(1, 2, 3) == Match(1, 2, 3) != Match(1, 2, 4)
    assert hash(Match(1, 2, 3)) == hash(Match(1, 2, 3))
    assert len(set(ms + ms)) == len(ms)
    # A Match is the plain tuple (label, start, end).
    assert Match(1, 2, 3) == (1, 2, 3)
    assert hash(Match(1, 2, 3)) == hash((1, 2, 3))
