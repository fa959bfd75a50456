"""Union machine assembly, live add/remove, and whole-machine dump/load."""

import dataclasses
import random
import re

import pytest
from helpers import (BAD_PFSM_DUMPS, BAD_PFSM_DUMP_IDS, FIG1_INPUT,
                     FIG2_MATCHES, FIG1_PATTERNS, assert_rows_frozen_and_shared,
                     build_fig1, gen_alphabet, gen_ast, gen_instance,
                     gen_literal_set, joined_dfa, joined_nfa, literal_machine,
                     match_texts, plain_dump, random_hops, with_epsilon)

from pfsm import (build_pfsm, add_pattern, remove_pattern, extract_pattern,
                  find_matches, dump_pfsm, load_pfsm, validate_pfsm,
                  epsilon_closure)
from pfsm.automaton import Automaton
from pfsm.compile import compile_nfa, compile_pattern, nfa_to_dfa
from pfsm.oracle import all_matches
from pfsm.syntax import parse_regex
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
        assert all(a.final_labels[f] == {lid} for f in finals)
    assert validate_pfsm(p) == []


def _unown_entry(p):
    e = p.directory[0]
    p.directory[0] = dataclasses.replace(e, owned=e.owned - {e.entry})


@pytest.mark.parametrize("corrupt, fragment", [
    (_unown_entry, "pattern 'a*c' entry state not owned"),
    (lambda p: p.automaton.final_labels.update({6: frozenset({1, 2})}),
     "final 6 of pattern 'ac' is not among its states"),
    (lambda p: p.automaton.states.add(99),
     "pattern directory does not partition the non-initial states"),
    (lambda p: p.automaton.byte_transitions.update({0: {ord("a"): {1}}}),
     "ancillary initial state has byte transitions"),
    (lambda p: p.automaton.epsilon_transitions.update({0: {1}}),
     "ancillary epsilon edges do not match pattern entries"),
    (lambda p: setattr(p, "trie", 1), "trie entry 1 is not the lowest-numbered literal-trie machine"),
], ids=["entry-not-owned", "final-not-among-label-states",
        "directory-not-partitioning", "q0-byte-edges", "q0-eps-not-entries",
        "wrong-trie"])
def test_validate_pfsm_names_each_fault(corrupt, fragment):
    # a*c at entry 1; ab and ac share the literal trie at entry 4, where
    # ab's final is state 6 and ac's is state 7.
    p = build_pfsm([(pat, compile_pattern(pat)) for pat in ("a*c", "ab", "ac")])
    assert (p.trie, sorted(p.automaton.final_labels)) == (4, [3, 6, 7])
    assert validate_pfsm(p) == []
    corrupt(p)
    problems = validate_pfsm(p)
    assert any(fragment in problem for problem in problems), problems


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
    Automaton({0, 1}, 0, {0: {ord("a"): {5}}}, {}, {1: frozenset({0})}),
    Automaton({0, 1}, 7, {0: {ord("a"): {1}}}, {}, {1: frozenset({0})}),
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


A, B, C = ord("a"), ord("b"), ord("c")
FINAL = frozenset({0})
UNDECLARED = "pattern 'x': state 1 is used but not in the machine's state set"


# Chains one fault away from a literal. The first two use a state outside
# their state set and are refused; the rest are no literal and are grafted
# as machines of their own, beside a trie left as it was.
@pytest.mark.parametrize("machine, refused", [
    (Automaton({0}, 0, {0: {A: {1}}}, {}, {1: FINAL}), True),
    (Automaton({0, 2}, 0, {0: {A: {1}}, 1: {B: {2}}}, {}, {2: FINAL}), True),
    (Automaton({0, 1, 2, 3}, 0, {0: {A: {1}}, 1: {B: {2}}, 2: {C: {1}}}, {},
               {3: FINAL}), False),
    (Automaton({0, 1, 2}, 0, {0: {A: {1}}, 1: {B: {2}}}, {}, {1: FINAL}),
     False),
    (Automaton({0, 1, 2}, 0, {0: {A: {1}}}, {}, {1: FINAL}), False),
    (Automaton({0, 1, 2, 3}, 0, {0: {A: {1}}, 2: {B: {3}}}, {1: {2}},
               {3: FINAL}), False),
    (Automaton({0, 1, 2, 3}, 0, {0: {A: {1, 2}}, 1: {B: {3}}, 2: {B: {3}}},
               {}, {3: FINAL}), False),
], ids=["chain-to-undeclared-final", "chain-through-undeclared-state",
        "cycle-before-the-final", "final-with-an-out-edge",
        "unreachable-extra-state", "epsilon-edge-on-the-chain",
        "two-target-set"])
@pytest.mark.parametrize("words", [[], [b"ab", b"abc", b"b"]],
                         ids=["no-trie", "trie"])
def test_non_literal_chain_is_refused_or_grafted(machine, refused, words):
    p = build_pfsm([(w.decode(), literal_machine(w)) for w in words])
    before = dump_pfsm(p)
    if refused:
        with pytest.raises(ValueError, match=re.escape(UNDECLARED)):
            build_pfsm([(w.decode(), literal_machine(w)) for w in words]
                       + [("x", machine)])
        with pytest.raises(ValueError, match=re.escape(UNDECLARED)):
            add_pattern(p, "x", machine)
        assert dump_pfsm(p) == before
        return
    grown = add_pattern(p, "x", machine)
    assert dump_pfsm(p) == before
    assert grown.trie == p.trie
    entry = grown.directory[grown.label_ids["x"]]
    assert entry.entry != grown.trie and entry.n_states == len(machine.states)
    a, old = grown.automaton, p.automaton
    assert a.states == old.states | entry.owned
    assert entry.owned.isdisjoint(old.states)
    for s in old.states - {old.initial}:
        assert a.byte_transitions.get(s) == old.byte_transitions.get(s)
        assert a.final_labels.get(s) == old.final_labels.get(s)
    assert a.epsilon_transitions[a.initial] \
        == old.epsilon_transitions.get(old.initial, set()) | {entry.entry}


def test_machine_without_final_names_the_pattern():
    # A machine with no final could never match: build and add refuse it
    # by its label, and the failed add leaves p as it was.
    machine = Automaton({0, 1}, 0, {0: {ord("a"): {1}}}, {}, {})
    with pytest.raises(ValueError, match="pattern 'none' has no final state"):
        build_pfsm([("none", machine)])
    p = build_fig1("dfa")
    with pytest.raises(ValueError, match="pattern 'none' has no final state"):
        add_pattern(p, "none", machine)
    assert match_texts(find_matches(p, FIG1_INPUT), p) == FIG2_MATCHES


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


def test_dump_refuses_byte_that_would_not_load_back():
    # A hand-built machine may step on any int, but a dump writes a byte
    # as two hex digits: one outside 0-255 is refused, not written.
    machine = Automaton({0, 1}, 0, {0: {300: frozenset({1})}}, {},
                        {1: frozenset({0})})
    p = build_pfsm([("x", machine)])
    with pytest.raises(ValueError, match="state 1 has an edge on byte 300"):
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
    text = ("PFSM-AUT v2\nstate 0 initial\nstate 1\nstate 2\nfinal 2 a*c\n"
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


def _literal_pfsm(pairs):
    return build_pfsm([(label, literal_machine(w)) for label, w in pairs])


def test_literals_share_one_prefix_trie():
    # abc and abd branch at ab; ab ends on an inner node; the second
    # label of abc joins the first on abc's final. A machine of ab with
    # epsilon edges is no literal and is grafted as a machine of its own.
    pairs = [("abc", b"abc"), ("abd", b"abd"), ("ab", b"ab"),
             ("again", b"abc"), ("b", b"b")]
    p = build_pfsm([(label, literal_machine(w)) for label, w in pairs]
                   + [("eps", with_epsilon(literal_machine(b"ab"), [2]))])
    assert validate_pfsm(p) == []
    trie = p.trie
    assert [p.directory[lid].entry == trie for lid in p.live_labels()] \
        == [True, True, True, True, True, False]
    # q0; the trie's root, a, ab, abc, abd and b; ab's three states, a
    # fresh initial state and the hop before its final.
    assert len(p.automaton.states) == 1 + 6 + 5
    abc, again = (p.directory[p.label_ids[k]] for k in ("abc", "again"))
    assert abc.owned == again.owned
    assert {p.automaton.final_labels[s] for s in abc.owned
            if s in p.automaton.finals} == {frozenset({p.label_ids["ab"]}),
                                            frozenset({p.label_ids["abc"],
                                                       p.label_ids["again"]})}
    assert p.directory[p.label_ids["ab"]].owned < abc.owned
    got = match_texts(find_matches(p, b"abcabd"), p)
    assert got == {("abc", 0, 2), ("again", 0, 2), ("ab", 0, 1), ("eps", 0, 1),
                   ("b", 1, 1), ("ab", 3, 4), ("eps", 3, 4), ("b", 4, 4),
                   ("abd", 3, 5)}
    # A trie label's stand-alone machine is its own chain.
    extracted = extract_pattern(p, p.label_ids["abd"])
    assert len(extracted.states) == 4 and len(extracted.final_labels) == 1


@pytest.mark.parametrize("gone", ["prefix", "extension"])
def test_prefix_word_removal_equals_fresh_build(gone):
    # Remove a word while a word it is a prefix of stays, or the reverse:
    # the trie keeps what the live words use and drops the rest.
    rng = random.Random(f"trie-prefix/{gone}")
    for trial in range(100):
        alphabet = gen_alphabet(rng, 3)
        pairs = gen_literal_set(rng, alphabet)
        p = _literal_pfsm(pairs)
        prefix, ext = rng.choice([(x, y) for x in pairs for y in pairs
                                  if len(x[1]) < len(y[1])
                                  and y[1].startswith(x[1])])
        victim = prefix if gone == "prefix" else ext
        q = remove_pattern(p, victim[0])
        assert validate_pfsm(q) == []
        live = [x for x in pairs if x != victim]
        fresh = _literal_pfsm(live)
        data = bytes(rng.choice(alphabet) for _ in range(40))
        assert match_texts(find_matches(q, data), q) \
            == match_texts(find_matches(fresh, data), fresh), trial
        assert len(q.automaton.states) == len(fresh.automaton.states), trial
        # No node keeps an empty byte table.
        assert len(q.automaton.byte_transitions) \
            == len(fresh.automaton.byte_transitions), trial
        back = add_pattern(q, victim[0], literal_machine(victim[1]))
        assert match_texts(find_matches(back, data), back) \
            == match_texts(find_matches(p, data), p), trial


def test_trie_size_follows_the_live_words():
    # 1,000 rounds of removing one word and adding a new one leave the
    # machine as large as a fresh build of the live words. Words repeat:
    # a repeated word adds its label to the trie final its twin ends on,
    # and the final stays while either label is live.
    rng = random.Random("trie-rounds")
    alphabet = list(b"abc")
    live = dict(gen_literal_set(rng, alphabet, max_words=12))
    p = _literal_pfsm(live.items())
    twins = 0
    for k in range(1000):
        victim = rng.choice(sorted(live))
        p = remove_pattern(p, victim)
        del live[victim]
        w = bytes(rng.choice(alphabet) for _ in range(rng.randint(1, 3)))
        twins += w in live.values()
        live[f"n{k}"] = w
        p = add_pattern(p, f"n{k}", literal_machine(w))
        fresh = _literal_pfsm(live.items())
        assert len(p.automaton.states) == len(fresh.automaton.states), k
    assert twins > 100
    assert validate_pfsm(p) == []
    data = bytes(rng.choice(alphabet) for _ in range(200))
    assert match_texts(find_matches(p, data), p) \
        == match_texts(find_matches(fresh, data), fresh)


def test_trie_edits_leave_earlier_generations_intact():
    rng = random.Random("trie-generations")
    alphabet = list(b"abc")
    pairs = gen_literal_set(rng, alphabet, max_words=10)
    first = _literal_pfsm(pairs)
    data = bytes(rng.choice(alphabet) for _ in range(200))
    text, matches = dump_pfsm(first), find_matches(first, data)
    p, live = first, dict(pairs)
    for k in range(200):
        if live and rng.random() < 0.5:
            victim = rng.choice(sorted(live))
            p = remove_pattern(p, victim)
            del live[victim]
        else:
            w = bytes(rng.choice(alphabet) for _ in range(rng.randint(1, 5)))
            p = add_pattern(p, f"n{k}", literal_machine(w))
            live[f"n{k}"] = w
        assert validate_pfsm(p) == [], k
    assert dump_pfsm(first) == text
    assert find_matches(first, data) == matches


def test_trie_dump_roundtrip_and_add_after_load():
    # The loader finds the trie again: adding a word after a load gives
    # the dump that adding it before does.
    p = _literal_pfsm([("abc", b"abc"), ("abd", b"abd"), ("b", b"b"),
                       ("again", b"b")])
    text = dump_pfsm(p)
    assert text.count("pattern ") == 4
    loaded = load_pfsm(text)
    assert dump_pfsm(loaded) == text
    assert loaded.trie == p.trie
    for label, w in [("ab", b"ab"), ("ca", b"ca"), ("abcd", b"abcd")]:
        m = literal_machine(w)
        assert dump_pfsm(add_pattern(loaded, label, m)) \
            == dump_pfsm(add_pattern(p, label, m))


def test_add_after_load_of_a_trimmed_trie():
    # Removing abd frees the top state id 5, and removing b*c the top ids
    # 4-6: the machine's next free id falls back to one above its highest
    # state, as the loader derives it, so adding a pattern after a load
    # numbers its states as adding it before does.
    cases = [(_literal_pfsm([("abc", b"abc"), ("abd", b"abd")]), "abd",
              literal_machine(b"abe")),
             (build_pfsm([(pat, compile_pattern(pat)) for pat in ("a*c", "b*c")]),
              "b*c", compile_pattern("c*d"))]
    for p, gone, m in cases:
        q = remove_pattern(p, gone)
        loaded = load_pfsm(dump_pfsm(q))
        assert loaded.next_state_id == q.next_state_id
        assert dump_pfsm(add_pattern(loaded, "new", m)) \
            == dump_pfsm(add_pattern(q, "new", m))


def test_trie_goes_with_its_last_word():
    # Three labels of one word share its chain and its final; removing two
    # of them leaves the machine a fresh build of the third would be.
    # Removing every trie word removes the trie, and the next literal
    # starts a new one.
    p = _literal_pfsm([("x", b"ab"), ("y", b"ab"), ("z", b"ab")])
    assert validate_pfsm(p) == []
    assert len(p.automaton.states) == 1 + 3
    assert list(p.automaton.final_labels.values()) == [frozenset({0, 1, 2})]
    assert match_texts(find_matches(p, b"ab"), p) \
        == {("x", 0, 1), ("y", 0, 1), ("z", 0, 1)}
    q = remove_pattern(p, "x")
    assert validate_pfsm(q) == [] and q.trie == p.trie
    assert q.directory[q.label_ids["y"]].entry == q.trie
    assert len(q.automaton.states) == 1 + 3
    assert dump_pfsm(load_pfsm(dump_pfsm(q))) == dump_pfsm(q)
    q = remove_pattern(q, "z")
    assert dump_pfsm(q) == dump_pfsm(_literal_pfsm([("y", b"ab")]))
    q = add_pattern(q, "w", literal_machine(b"ac"))
    assert q.directory[q.label_ids["w"]].entry == q.trie
    empty = remove_pattern(remove_pattern(q, "y"), "w")
    assert empty.trie is None and empty.automaton.states == {empty.initial}
    again = add_pattern(empty, "v", literal_machine(b"c"))
    assert again.trie is not None and validate_pfsm(again) == []


def test_remove_label_of_shared_plain_machine():
    # A plain dump's DFA for a*b (label x) and a*c (label y) shares the
    # a-loop: removing x keeps y's states and drops x's final.
    text = ("PFSM-AUT v2\nstate 0 initial\nstate 1\nstate 2\nstate 3\n"
            "final 2 x\nfinal 3 y\ntrans 0 0x61 1\ntrans 0 0x62 2\n"
            "trans 0 0x63 3\ntrans 1 0x61 1\ntrans 1 0x62 2\n"
            "trans 1 0x63 3\n")
    p = load_pfsm(text)
    assert p.trie is None
    assert [p.label_text(lid) for lid in p.live_labels()] == ["x", "y"]
    q = remove_pattern(p, "x")
    assert validate_pfsm(q) == []
    assert match_texts(find_matches(q, b"aabac"), q) \
        == {("y", 3, 4), ("y", 4, 4)}
    assert dump_pfsm(load_pfsm(dump_pfsm(q))) == dump_pfsm(q)
    # With x gone, y's machine is a chain no longer: the a-loop stays.
    assert q.trie is None
    assert match_texts(find_matches(p, b"aabac"), p) \
        == {("x", 0, 2), ("x", 1, 2), ("x", 2, 2), ("y", 3, 4), ("y", 4, 4)}


def test_removal_drops_what_the_entry_no_longer_reaches():
    # State 2 leads to no final, so the loader drops it; removing x then
    # drops x's final, the one state y does not own.
    text = ("PFSM-AUT v2\nstate 0 initial\nstate 1\nstate 2\nstate 3\n"
            "final 1 x\nfinal 3 y\ntrans 0 0x61 1\ntrans 1 0x62 2\n"
            "trans 0 0x63 3\n")
    p = load_pfsm(text)
    assert dump_pfsm(load_pfsm(dump_pfsm(p))) == dump_pfsm(p)
    q = remove_pattern(p, "x")
    assert validate_pfsm(q) == []
    assert len(q.automaton.states) == 3
    assert q.directory[q.label_ids["y"]].owned == {1, 4}
    assert dump_pfsm(load_pfsm(dump_pfsm(q))) == dump_pfsm(q)
    assert match_texts(find_matches(q, b"abc"), q) == {("y", 2, 2)}


def test_shared_machine_left_as_a_trie_becomes_the_trie():
    # y is `a`, x is `b+`: removing x leaves a one-edge chain, which the
    # loader of its dump would take for the trie, so the removal does too.
    text = ("PFSM-AUT v2\nstate 0 initial\nstate 1\nstate 2\nfinal 1 y\n"
            "final 2 x\ntrans 0 0x61 1\ntrans 0 0x62 2\ntrans 2 0x62 2\n")
    p = load_pfsm(text)
    assert p.trie is None
    q = remove_pattern(p, "x")
    assert validate_pfsm(q) == []
    assert q.trie == q.directory[q.label_ids["y"]].entry
    assert load_pfsm(dump_pfsm(q)).trie == q.trie
    grown = add_pattern(q, "ab", literal_machine(b"ab"))
    assert grown.directory[grown.label_ids["ab"]].entry == q.trie


@pytest.mark.parametrize("seed", range(8))
def test_random_removals_from_a_shared_dfa(seed):
    # The DFA of 2-4 random patterns, loaded from a plain dump, is one
    # machine whose states its labels share. Each removal leaves a valid
    # machine that reports the oracle's matches of the live labels and
    # holds no state that leads to no final: its dump loads back as is.
    rng = random.Random(seed)
    for _ in range(25):
        alphabet = gen_alphabet(rng, 3)
        asts = [gen_ast(rng, alphabet, 3) for _ in range(rng.randint(2, 4))]
        texts = [f"p{k}" for k in range(len(asts))]
        p = load_pfsm(plain_dump(joined_dfa(asts), texts))
        assert len({e.entry for e in p.directory.values()}) == 1
        data = bytes(rng.choice(alphabet) for _ in range(rng.randint(0, 24)))
        order = sorted(p.label_ids)
        rng.shuffle(order)
        for label in order:
            p = remove_pattern(p, label)
            assert validate_pfsm(p) == []
            live = [(texts.index(x), asts[texts.index(x)]) for x in p.label_ids]
            assert match_texts(find_matches(p, data), p) \
                == {(texts[k], i, j) for k, i, j in all_matches(live, data)}
            text = dump_pfsm(p)
            assert dump_pfsm(load_pfsm(text)) == text


@pytest.mark.parametrize("seed", range(4))
def test_remove_each_label_of_a_shared_epsilon_machine(seed):
    # Two patterns' NFAs joined under one state by epsilon edges, with
    # more epsilon hops inside, loaded from a plain dump: one machine that
    # both labels share. Removing a label keeps the joining state, which
    # leaves the label's states by its epsilon edge into the other NFA,
    # and cuts its epsilon edge into the removed label's NFA.
    rng = random.Random(f"eps-removal/{seed}")
    texts = ["p0", "p1"]
    for _ in range(25):
        alphabet = gen_alphabet(rng, 3)
        asts = [gen_ast(rng, alphabet, 3) for _ in texts]
        p = load_pfsm(plain_dump(random_hops(rng, joined_nfa(asts)), texts))
        assert len({e.entry for e in p.directory.values()}) == 1
        data = bytes(rng.choice(alphabet) for _ in range(rng.randint(0, 24)))
        for gone, kept in ((0, 1), (1, 0)):
            q = remove_pattern(p, texts[gone])
            assert validate_pfsm(q) == []
            assert match_texts(find_matches(q, data), q) \
                == {(texts[kept], i, j)
                    for _, i, j in all_matches([(kept, asts[kept])], data)}
            text = dump_pfsm(q)
            assert dump_pfsm(load_pfsm(text)) == text


GAPPED = ["ab[^c]*de", "a[^x]*b", "[^a]+b", "abc", "abd", "x(y|[^z])*z"]


@pytest.mark.parametrize("form", ["nfa", "dfa", "eps"])
def test_successor_sets_stay_frozen_and_shared(form):
    # After a build, each add, a load and each removal, every byte
    # successor set of the union is a frozenset, and in each row the bytes
    # with equal successors share one object.
    machines = [(pat, compile_pattern(pat, "dfa" if form == "dfa" else "nfa"))
                for pat in GAPPED]
    if form == "eps":
        machines = [(pat, with_epsilon(m, m.states - {m.initial}))
                    for pat, m in machines]
    p = build_pfsm(machines[:3])
    assert_rows_frozen_and_shared(p.automaton)
    for label, m in machines[3:]:
        p = add_pattern(p, label, m)
        assert_rows_frozen_and_shared(p.automaton)
    loaded = load_pfsm(dump_pfsm(p))
    for q in (p, loaded):
        for label in GAPPED:
            q = remove_pattern(q, label)
            assert_rows_frozen_and_shared(q.automaton)
    assert_rows_frozen_and_shared(loaded.automaton)


def test_removal_from_a_shared_dfa_keeps_rows_shared():
    # One DFA for three gapped patterns, loaded from a plain dump, shares
    # its states among the labels; each removal cuts a `[^x]` row once per
    # successor set, so the row keeps one object per distinct set.
    asts = [parse_regex(pat) for pat in ("a[^x]*b", "a[^x]*c", "[^a]b")]
    texts = ["p0", "p1", "p2"]
    p = load_pfsm(plain_dump(joined_dfa(asts), texts))
    assert len({e.entry for e in p.directory.values()}) == 1
    data = b"axbacb" + bytes(range(40, 120))
    for label in ["p1", "p0", "p2"]:
        assert_rows_frozen_and_shared(p.automaton)
        assert max(len({id(succ) for succ in row.values()})
                   for row in p.automaton.byte_transitions.values()) <= 4
        live = [(texts.index(x), asts[texts.index(x)]) for x in p.label_ids]
        assert match_texts(find_matches(p, data), p) \
            == {(texts[k], i, j) for k, i, j in all_matches(live, data)}
        p = remove_pattern(p, label)
    assert p.automaton.states == {p.initial}


def test_removal_shares_the_equal_rests_of_a_row():
    # x and y share one loaded machine whose entry reads `a` into x's and
    # y's finals and `b` into x's. Removing y drops y's final, and both
    # bytes then hold one set.
    p = load_pfsm("PFSM-AUT v2\nstate 0 initial\nstate 1\nstate 2\n"
                  "final 1 x\nfinal 2 y\ntrans 0 0x61 1\ntrans 0 0x61 2\n"
                  "trans 0 0x62 1\n")
    q = remove_pattern(p, "y")
    (entry,) = q.automaton.epsilon_transitions[q.initial]
    row = q.automaton.byte_transitions[entry]
    assert row.keys() == {0x61, 0x62} and row[0x61] is row[0x62]
    assert row[0x61] == q.automaton.finals
    assert match_texts(find_matches(q, b"ab"), q) == {("x", 0, 0), ("x", 1, 1)}


def _plain_sets(machine: Automaton) -> Automaton:
    """The machine with one plain `set` per (state, byte)."""
    return Automaton(set(machine.states), machine.initial,
                     {s: {b: set(succ) for b, succ in row.items()}
                      for s, row in machine.byte_transitions.items()},
                     {s: set(succ) for s, succ
                      in machine.epsilon_transitions.items()},
                     dict(machine.final_labels))


@pytest.mark.parametrize("seed", range(4))
def test_hand_built_machine_with_plain_sets_matches_the_oracle(seed):
    # A machine built by hand may hold a plain `set` per byte; it builds,
    # its grafted rows are frozen and shared, and it matches as the
    # oracle does, alone, added, and with another pattern removed.
    rng = random.Random(seed)
    for _ in range(10):
        alphabet = gen_alphabet(rng)
        asts = [parse_regex("a[^b]*c")]
        asts += [gen_ast(rng, alphabet, 4) for _ in range(rng.randint(1, 3))]
        machines = []
        for k, ast in enumerate(asts):
            nfa = compile_nfa(ast)
            machine = rng.choice([nfa, nfa_to_dfa(nfa), with_epsilon(
                nfa, [s for s in nfa.states if s != nfa.initial])])
            machines.append((f"p{k}", _plain_sets(machine)))
        data = bytes(rng.choice(alphabet + [ord("c")])
                     for _ in range(rng.randint(0, 32)))
        p = build_pfsm(machines[:-1])
        p = add_pattern(p, *machines[-1])
        for gone in (None, "p0"):
            if gone:
                p = remove_pattern(p, gone)
            assert validate_pfsm(p) == []
            assert_rows_frozen_and_shared(p.automaton)
            live = [(f"p{k}", ast) for k, ast in enumerate(asts)
                    if f"p{k}" != gone]
            assert match_texts(find_matches(p, data), p) \
                == set(all_matches(live, data))
