"""Scan semantics: golden matches, the two-cycle trace, segment runs,
snapshot/restore, and randomized equivalence with the brute-force oracle."""

import random

import pytest
from helpers import (FIG1_INPUT, FIG2_MATCHES, build_fig1, build_fig1_mixed,
                     gen_instance, match_texts)

from pfsm import step
from pfsm.engine import (ActiveSet, Engine, GenerationMismatchError, Match,
                         dump_active_set, find_matches, format_match_jsonl,
                         format_match_tsv, load_active_set, run, run_segment)
from pfsm.oracle import all_matches
from pfsm.union import remove_pattern

# The pure-Python Engine is the one scan path; this single-valued
# parametrization keeps the "[python]" suffix in these tests' ids.
python_engine = pytest.mark.parametrize("engine", ["python"])


@python_engine
@pytest.mark.parametrize("build", [lambda: build_fig1("dfa"),
                                   lambda: build_fig1("nfa"),
                                   build_fig1_mixed],
                         ids=["dfa", "nfa", "mixed"])
def test_fig2_golden(build, engine):
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
    succ = lambda s, byte: next(iter(step(a, {s}, ord(byte))))

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


@python_engine
def test_nfa_duplicate_final_states_dedupe(engine):
    # Two distinct final states with the same label reached on one span:
    # one (label, start, end) report with dedupe, two raw events without.
    from pfsm.automaton import make_automaton
    from pfsm.union import build_pfsm
    machine = make_automaton(range(3), 0,
                             {0: {ord("a"): {1, 2}}}, {}, {1, 2},
                             {1: 0, 2: 0})
    p = build_pfsm([("dup", machine)])
    deduped = find_matches(p, b"xax")
    assert [(m.start, m.end) for m in deduped] == [(1, 1)]
    raw = find_matches(p, b"xax", dedupe=False)
    assert len(raw) == 2
    assert {(m.start, m.end) for m in raw} == {(1, 1)}


@python_engine
def test_randomized_oracle_equivalence(engine):
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


@python_engine
def test_tag_budget(engine):
    rng = random.Random(13)
    for _ in range(60):
        p, _, data, form = gen_instance(rng, max_input=48, forms=("dfa", "nfa"))
        stats = run(p, data)
        r = len(p.directory)
        total_m = sum(e.n_states for e in p.directory.values())
        per_tag = r if form == "dfa" else total_m
        for i, pairs in enumerate(stats.per_cycle_pairs):
            assert pairs <= per_tag * (i + 1) + 1, (form, i, pairs)


@python_engine
def test_run_segment_degenerate_window_equals_run(engine):
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


@python_engine
def test_run_segment_chained_split(engine):
    p = build_fig1("dfa")
    out1, out2 = [], []
    _, carry = run_segment(p, b"aaca", (0, 3), None, out1.append)
    run_segment(p, b"cab", (4, 6), carry, out2.append, base=4)
    assert all(m.start <= 3 and m.end <= 3 for m in out1)
    assert match_texts(out1, p) | match_texts(out2, p) == FIG2_MATCHES


@python_engine
def test_run_segment_empty_window_continuations_only(engine):
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


@pytest.mark.parametrize("tag, base", [(-5, 0), (10**6, 0), (4, 4)])
def test_run_segment_rejects_carried_tag_outside_prefix(tag, base):
    # A carried tag is the start of a partial match begun before data[0],
    # so it must lie in [0, base); otherwise it would surface as a match
    # with a negative start or with start > end.
    p = build_fig1("dfa")
    state = p.automaton.initial
    carry = ActiveSet(p.generation, {state: {tag}})
    with pytest.raises(ValueError, match=f"state {state} carries tag {tag} "):
        run_segment(p, b"b", (base, base), carry, base=base)


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
    other.restore(snap)
    assert other.snapshot() == snap


def test_snapshot_restore_mid_run_preserves_output():
    p = build_fig1("dfa")
    matches = []
    eng = Engine(p, matches.append)
    for i, byte in enumerate(FIG1_INPUT[:4]):
        eng.feed(byte, i)
    snap = eng.snapshot()
    resumed = Engine(p, matches.append)
    resumed.restore(snap)
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
        Engine(shrunk).restore(snap)
    with pytest.raises(GenerationMismatchError):
        run_segment(shrunk, b"ab", None, snap)


def test_active_set_wire_roundtrip():
    aset = ActiveSet(3, {5: {0, 2, 7}, 1: {4}})
    text = dump_active_set(aset)
    lines = text.splitlines()
    assert lines[0] == "PFSM-ACT v1"
    assert lines[1] == "gen 3"
    assert lines[2] == "active 1 4"
    assert lines[3] == "active 5 0,2,7"
    assert load_active_set(text) == aset


def test_active_set_wire_rejects_garbage():
    from pfsm.engine import ActiveSetFormatError
    with pytest.raises(ActiveSetFormatError):
        load_active_set("nope\n")
    with pytest.raises(ActiveSetFormatError):
        load_active_set("PFSM-ACT v1\ngen 1\nactive x 1\n")
    with pytest.raises(ActiveSetFormatError, match="state 2 .* tag -5"):
        load_active_set("PFSM-ACT v1\ngen 1\nactive 2 3,-5\n")
    with pytest.raises(ActiveSetFormatError, match="state 3 listed twice"):
        load_active_set("PFSM-ACT v1\ngen 1\nactive 3 0\nactive 3 1\n")


def test_match_output_formats():
    p = build_fig1("dfa")
    m = Match(p.labels.id_of("a*c"), 0, 2)
    assert format_match_tsv(m, p, FIG1_INPUT) == "a*c\t0\t2\taac"
    assert format_match_jsonl(m, p, FIG1_INPUT) == \
        '{"label": "a*c", "start": 0, "end": 2, "match": "aac"}'

