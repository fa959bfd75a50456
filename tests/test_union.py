"""Union machine assembly, live add/remove, and whole-machine dump/load."""

import random
import re

import pytest
from helpers import (BAD_PFSM_DUMPS, BAD_PFSM_DUMP_IDS, FIG1_INPUT,
                     FIG2_MATCHES, FIG1_PATTERNS, build_fig1, gen_instance,
                     match_texts)

from pfsm import (build_pfsm, add_pattern, remove_pattern, extract_pattern,
                  find_matches, dump_pfsm, load_pfsm, validate_pfsm,
                  epsilon_closure)
from pfsm.automaton import Automaton
from pfsm.compile import compile_pattern
from pfsm.union import DuplicateLabelError, UnknownLabelError
from pfsm.wire import AutomatonFormatError


def test_fig1_structure():
    p = build_fig1("dfa")
    a = p.automaton
    q0 = p.initial
    # Ancillary start: only epsilon edges, one per pattern, to its entry.
    assert not a.byte_transitions.get(q0)
    assert a.epsilon_transitions[q0] == {e.entry for e in p.directory.values()}
    assert len(p.directory) == 3
    # Labeled final regions, one label per pattern, disjoint ownership.
    owned = [e.owned for e in p.directory.values()]
    for i in range(3):
        for j in range(i + 1, 3):
            assert not owned[i] & owned[j]
    assert set().union(*owned) | {q0} == a.states
    for lid, entry in p.directory.items():
        finals = entry.owned & a.finals
        assert finals
        assert all(a.final_labels[f] == lid for f in finals)
    assert validate_pfsm(p) == []


def test_empty_union_matches_nothing():
    p = build_pfsm([])
    assert p.automaton.states == {p.initial}
    assert find_matches(p, b"abcabc") == []
    assert validate_pfsm(p) == []


def test_single_pattern_union_equals_pattern_language():
    machine = compile_pattern("a(ca)*b", "dfa")
    p = build_pfsm([("a(ca)*b", machine)])
    got = match_texts(find_matches(p, FIG1_INPUT), p)
    assert got == {m for m in FIG2_MATCHES if m[0] == "a(ca)*b"}


def test_duplicate_label_rejected():
    m = compile_pattern("ab", "dfa")
    with pytest.raises(DuplicateLabelError):
        build_pfsm([("x", m), ("x", m)])
    p = build_pfsm([("x", m)])
    with pytest.raises(DuplicateLabelError):
        add_pattern(p, "x", m)


@pytest.mark.parametrize("machine", [
    Automaton({0, 1}, 0, {0: {ord("a"): {5}}}, {}, {1: 0}),
    Automaton({0, 1}, 7, {0: {ord("a"): {1}}}, {}, {1: 0}),
], ids=["edge-to-undeclared-state", "initial-outside-states"])
def test_undeclared_state_names_the_pattern(machine):
    with pytest.raises(ValueError, match="pattern 'bad': state [57] "):
        build_pfsm([("bad", machine)])
    p = build_fig1("dfa")
    with pytest.raises(ValueError, match="pattern 'bad': state [57] "):
        add_pattern(p, "bad", machine)
    # The failed add leaves p as it was; the label can still be added.
    assert match_texts(find_matches(p, FIG1_INPUT), p) == FIG2_MATCHES
    fixed = add_pattern(p, "bad", compile_pattern("cab"))
    assert ("bad", 4, 6) in match_texts(find_matches(fixed, FIG1_INPUT), fixed)


def test_extract_unknown_id_names_the_id():
    p = build_fig1("dfa")
    with pytest.raises(UnknownLabelError) as exc:
        extract_pattern(p, -1)
    assert exc.value.args == (-1,)
    with pytest.raises(UnknownLabelError) as exc:
        extract_pattern(remove_pattern(p, "ac"), p.label_ids["ac"])
    assert exc.value.args == (p.label_ids["ac"],)


def test_add_to_empty_equals_build():
    m = compile_pattern("a*c", "dfa")
    built = build_pfsm([("a*c", m)])
    grown = add_pattern(build_pfsm([]), "a*c", m)
    data = b"aacacab"
    assert find_matches(built, data) == find_matches(grown, data)


def test_add_third_pattern_reaches_fig2():
    p = build_pfsm([(pat, compile_pattern(pat, "dfa"))
                    for pat in FIG1_PATTERNS[:2]])
    before_states = set(p.automaton.states)
    grown = add_pattern(p, "a(ca)*b", compile_pattern("a(ca)*b", "dfa"))
    assert grown.generation == p.generation + 1
    assert before_states <= grown.automaton.states
    assert match_texts(find_matches(grown, FIG1_INPUT), grown) == FIG2_MATCHES
    assert validate_pfsm(grown) == []


def test_remove_drops_only_that_patterns_matches():
    p = build_fig1("dfa")
    shrunk = remove_pattern(p, "ac")
    got = match_texts(find_matches(shrunk, FIG1_INPUT), shrunk)
    assert got == {m for m in FIG2_MATCHES if m[0] != "ac"}
    assert validate_pfsm(shrunk) == []
    # Surviving ids unchanged.
    survivors = set().union(*(e.owned for e in shrunk.directory.values()))
    assert survivors <= p.automaton.states


def test_remove_only_pattern():
    p = build_pfsm([("ab", compile_pattern("ab", "dfa"))])
    empty = remove_pattern(p, "ab")
    assert find_matches(empty, b"abababab") == []
    assert validate_pfsm(empty) == []


def test_remove_unknown_label():
    p = build_fig1("dfa")
    with pytest.raises(UnknownLabelError):
        remove_pattern(p, "nope")


def test_updates_leave_earlier_generations_intact():
    p = build_fig1("dfa")
    text, matches = dump_pfsm(p), find_matches(p, FIG1_INPUT)
    machine = compile_pattern("(a|c)b", "nfa")
    q = add_pattern(p, "extra", machine)
    r = remove_pattern(q, "ac")
    s = remove_pattern(r, "extra")
    assert dump_pfsm(p) == text
    assert find_matches(p, FIG1_INPUT) == matches
    assert validate_pfsm(q) == validate_pfsm(r) == validate_pfsm(s) == []
    # The union owns its copy of the grafted pattern: editing the source
    # machine afterwards changes nothing.
    before = find_matches(q, b"xcbab")
    assert any(q.label_text(m.label) == "extra" for m in before)
    for table in machine.byte_transitions.values():
        table.clear()
    machine.epsilon_transitions.clear()
    assert find_matches(q, b"xcbab") == before


def test_removed_label_leaves_later_generations():
    # A lineage under live updates holds the live labels only: 1,000
    # remove+add rounds leave one label, and the first generation still
    # formats its own.
    m = compile_pattern("ab")
    p = first = build_pfsm([("p0", m)])
    for k in range(1, 1001):
        p = add_pattern(remove_pattern(p, f"p{k - 1}"), f"p{k}", m)
    assert len(p.directory) == len(p.label_ids) == 1
    assert "p0" not in p.label_ids
    assert p.live_labels() == [1000]
    assert first.label_text(0) == "p0"
    assert match_texts(find_matches(first, b"xab"), first) == {("p0", 1, 2)}
    assert match_texts(find_matches(p, b"xab"), p) == {("p1000", 1, 2)}


def test_branches_keep_their_own_labels_and_matches():
    # Two branches of one parent add the same label with different
    # machines: each branch has its own directory, so each keeps its own
    # machine and text, and a later add on one branch stays there.
    p = build_fig1("dfa")
    left = add_pattern(p, "new", compile_pattern("cab"))
    right = add_pattern(remove_pattern(p, "ac"), "new", compile_pattern("ca"))
    left = add_pattern(left, "left", compile_pattern("b"))
    assert match_texts(find_matches(p, FIG1_INPUT), p) == FIG2_MATCHES
    assert match_texts(find_matches(left, FIG1_INPUT), left) \
        == FIG2_MATCHES | {("new", 4, 6), ("left", 6, 6)}
    assert match_texts(find_matches(right, FIG1_INPUT), right) \
        == {m for m in FIG2_MATCHES if m[0] != "ac"} | {("new", 2, 3),
                                                         ("new", 4, 5)}
    assert [right.label_text(lid) for lid in right.live_labels()] \
        == ["a*c", "a(ca)*b", "new"]


@pytest.mark.parametrize("label", ["", " x", "x ", "a  b", "a\tb", "a\nb"])
def test_dump_refuses_label_that_would_not_load_back(label):
    p = build_pfsm([(label, compile_pattern("ab", "dfa"))])
    with pytest.raises(ValueError, match=re.escape(f"label {label!r}")):
        dump_pfsm(p)


def test_dump_keeps_label_with_single_spaces():
    p = build_pfsm([("a b c", compile_pattern("ab", "dfa"))])
    assert load_pfsm(dump_pfsm(p)).label_text(0) == "a b c"


def test_add_remove_roundtrips_match_behavior():
    rng = random.Random(2024)
    p = build_fig1("dfa")
    m = compile_pattern("(a|c)b", "dfa")
    added = add_pattern(p, "extra", m)
    back = remove_pattern(added, "extra")
    readded = add_pattern(back, "extra", m)
    for _ in range(100):
        data = bytes(rng.choice(b"abc") for _ in range(rng.randint(0, 32)))
        base = match_texts(find_matches(p, data), p)
        assert match_texts(find_matches(back, data), back) == base
        assert (match_texts(find_matches(readded, data), readded)
                == match_texts(find_matches(added, data), added))


def test_build_equals_add_folding():
    rng = random.Random(99)
    for _ in range(20):
        p, _, data, _ = gen_instance(rng, max_patterns=4, max_input=32)
        labels = p.live_labels()
        folded = build_pfsm([])
        for lid in labels:
            folded = add_pattern(folded, p.label_text(lid),
                                 extract_pattern(p, lid))
        assert match_texts(find_matches(folded, data), folded) \
            == match_texts(find_matches(p, data), p)


def test_directory_partitions_states_after_mutations():
    rng = random.Random(7)
    p = build_fig1("dfa")
    pool = {"x0": "(a|b)c", "x1": "ab*", "x2": "c+"}
    present = set()
    for step_no in range(30):
        if present and rng.random() < 0.5:
            name = rng.choice(sorted(present))
            p = remove_pattern(p, name)
            present.discard(name)
        else:
            candidates = sorted(set(pool) - present)
            if not candidates:
                continue
            name = rng.choice(candidates)
            p = add_pattern(p, name, compile_pattern(pool[name], "dfa"))
            present.add(name)
        assert validate_pfsm(p) == [], step_no


def test_union_matches_are_union_of_single_pattern_matches():
    rng = random.Random(5)
    for _ in range(15):
        p, _, data, _ = gen_instance(rng, max_patterns=3, max_input=32)
        combined = match_texts(find_matches(p, data), p)
        singles = set()
        for lid in p.live_labels():
            single = build_pfsm([(p.label_text(lid), extract_pattern(p, lid))])
            singles |= match_texts(find_matches(single, data), single)
        assert combined == singles


def test_duplicate_pattern_text_under_distinct_labels():
    m = compile_pattern("ab", "dfa")
    p = build_pfsm([("first", m), ("second", m)])
    got = match_texts(find_matches(p, b"xabx"), p)
    assert got == {("first", 1, 2), ("second", 1, 2)}


def test_dump_load_roundtrip_behavior_and_bytes():
    for form in ("dfa", "nfa"):
        p = build_fig1(form)
        text = dump_pfsm(p)
        loaded = load_pfsm(text)
        assert validate_pfsm(loaded) == []
        assert match_texts(find_matches(loaded, FIG1_INPUT), loaded) == FIG2_MATCHES
        assert dump_pfsm(loaded) == text


def test_dump_load_roundtrip_after_live_updates():
    # A label removed and added again gets a new id, so "ac" is listed
    # after "z"; the dump keeps that order through a load.
    p = build_fig1("dfa")
    q = remove_pattern(p, "ac")
    q = add_pattern(q, "z", compile_pattern("z", "dfa"))
    q = add_pattern(q, "ac", compile_pattern("ac", "dfa"))
    assert [q.label_text(lid) for lid in q.live_labels()] \
        == ["a*c", "a(ca)*b", "z", "ac"]
    text = dump_pfsm(q)
    loaded = load_pfsm(text)
    assert validate_pfsm(loaded) == []
    assert dump_pfsm(loaded) == text
    data = FIG1_INPUT + b"zacz"
    got = match_texts(find_matches(q, data), q)
    assert match_texts(find_matches(loaded, data), loaded) == got
    assert {("z", 7, 7), ("ac", 8, 9)} <= got


def test_load_plain_automaton_without_directory():
    machine = compile_pattern("a*c", "dfa")
    single = build_pfsm([("a*c", machine)])
    text = ("PFSM-AUT v1\nstate 0 initial\nstate 1\nstate 2 final a*c\n"
            "trans 0 0x61 1\ntrans 0 0x63 2\ntrans 1 0x61 1\ntrans 1 0x63 2\n")
    loaded = load_pfsm(text)
    assert match_texts(find_matches(loaded, b"aac"), loaded) \
        == match_texts(find_matches(single, b"aac"), single)


@pytest.mark.parametrize("text, fragment", BAD_PFSM_DUMPS, ids=BAD_PFSM_DUMP_IDS)
def test_load_rejects_malformed_directory(text, fragment):
    with pytest.raises(AutomatonFormatError, match=re.escape(fragment)):
        load_pfsm(text)


def test_loaded_machine_entry_closure():
    p = build_fig1("dfa")
    loaded = load_pfsm(dump_pfsm(p))
    closure = epsilon_closure(loaded.automaton, {loaded.initial})
    assert closure == {loaded.initial} | {e.entry for e in loaded.directory.values()}
