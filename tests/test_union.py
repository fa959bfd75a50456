"""Union machine assembly, live add/remove, and whole-machine dump/load."""

import random
import re

import pytest
from helpers import (FIG1_INPUT, FIG2_MATCHES, FIG1_PATTERNS, build_fig1,
                     gen_instance, match_texts)

from pfsm import (build_pfsm, add_pattern, remove_pattern, extract_pattern,
                  find_matches, dump_pfsm, load_pfsm, validate_pfsm,
                  epsilon_closure)
from pfsm.compile import compile_pattern
from pfsm.union import DuplicateLabelError, UnknownLabelError


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
    for entry in p.directory.values():
        finals = entry.owned & a.finals
        assert finals
        assert all(a.final_labels[f] == entry.label_id for f in finals)
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


def test_load_plain_automaton_without_directory():
    machine = compile_pattern("a*c", "dfa")
    single = build_pfsm([("a*c", machine)])
    from pfsm.automaton import dump_lines
    text = "\n".join(dump_lines(machine, lambda _: "a*c")) + "\n"
    loaded = load_pfsm(text)
    assert match_texts(find_matches(loaded, b"aac"), loaded) \
        == match_texts(find_matches(single, b"aac"), single)


def test_loaded_machine_entry_closure():
    p = build_fig1("dfa")
    loaded = load_pfsm(dump_pfsm(p))
    closure = epsilon_closure(loaded.automaton, {loaded.initial})
    assert closure == {loaded.initial} | {e.entry for e in loaded.directory.values()}
