"""Primitive automaton operations: closure, step, validation, interchange
format. Properties are checked with hypothesis against graph oracles."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pfsm.automaton import Automaton, epsilon_closure, step, validate
from pfsm.compile import compile_pattern
from pfsm.union import build_pfsm
from pfsm.wire import AutomatonFormatError, dump_pfsm, load_pfsm


def small_automaton(rng: random.Random, n: int = 6):
    """Random machine with epsilon cycles allowed."""
    byte_transitions = {}
    epsilon = {}
    for s in range(n):
        for byte in (ord("a"), ord("b")):
            if rng.random() < 0.5:
                byte_transitions.setdefault(s, {})[byte] = {
                    rng.randrange(n) for _ in range(rng.randint(1, 2))}
        if rng.random() < 0.4:
            epsilon[s] = {rng.randrange(n) for _ in range(rng.randint(1, 2))}
    finals = {s for s in range(n) if rng.random() < 0.3}
    return Automaton(set(range(n)), 0, byte_transitions, epsilon,
                     dict.fromkeys(finals, frozenset({0})))


def bfs_epsilon_reach(a, seeds):
    """Independent reachability oracle over the epsilon edges."""
    seen = set(seeds)
    frontier = list(seeds)
    while frontier:
        nxt = []
        for s in frontier:
            for t in a.epsilon_transitions.get(s, ()):
                if t not in seen:
                    seen.add(t)
                    nxt.append(t)
        frontier = nxt
    return seen


def test_closure_of_isolated_state():
    a = Automaton(set(range(2)), 0, {}, {}, {})
    assert epsilon_closure(a, {1}) == {1}


def test_closure_fans_out_from_ancillary_state():
    from helpers import build_fig1
    p = build_fig1("dfa")
    closure = epsilon_closure(p.automaton, {p.initial})
    entries = {e.entry for e in p.directory.values()}
    assert closure == {p.initial} | entries
    assert len(entries) == 3


@given(st.integers(0, 10_000), st.sets(st.integers(0, 5)))
@settings(max_examples=200)
def test_closure_matches_bfs_oracle(seed, seeds):
    a = small_automaton(random.Random(seed))
    assert epsilon_closure(a, seeds) == bfs_epsilon_reach(a, seeds)


@given(st.integers(0, 10_000), st.sets(st.integers(0, 5)),
       st.sets(st.integers(0, 5)))
@settings(max_examples=200)
def test_closure_monotone_idempotent_extensive(seed, seeds, more):
    a = small_automaton(random.Random(seed))
    closure = epsilon_closure(a, seeds)
    assert seeds <= closure
    assert epsilon_closure(a, closure) == closure
    assert closure <= epsilon_closure(a, seeds | more)


def test_step_empty_sources():
    a = small_automaton(random.Random(1))
    assert step(a, set(), ord("a")) == set()


@given(st.integers(0, 10_000), st.sets(st.integers(0, 5)),
       st.sets(st.integers(0, 5)), st.sampled_from([ord("a"), ord("b")]))
@settings(max_examples=200)
def test_step_is_per_source_union(seed, xs, ys, byte):
    a = small_automaton(random.Random(seed))
    naive = set()
    for s in xs | ys:
        naive |= a.byte_transitions.get(s, {}).get(byte, set())
    assert step(a, xs | ys, byte) == naive
    assert step(a, xs | ys, byte) == step(a, xs, byte) | step(a, ys, byte)


def test_deterministic_step_is_singleton():
    dfa = compile_pattern("(a|b)*abb", "dfa")
    assert dfa.deterministic
    for s in dfa.states:
        for byte in (ord("a"), ord("b")):
            assert len(step(dfa, {s}, byte)) <= 1


def test_validate_fresh_machine():
    assert validate(compile_pattern("a*c", "nfa")) == []


def test_validate_dangling_endpoint():
    a = Automaton(set(range(2)), 0, {0: {ord("a"): {5}}}, {}, {})
    assert any("dangling endpoint" in p for p in validate(a))


@pytest.mark.parametrize("a, fragment", [
    (Automaton({0, 1}, 2, {}, {}, {}), "initial state 2 not in state set"),
    (Automaton({0, 1}, 0, {3: {ord("a"): {1}}}, {}, {}),
     "transition source 3 not in state set"),
    (Automaton({0, 1}, 0, {0: {300: {1}}}, {}, {}),
     "transition byte 300 out of range"),
    (Automaton({0, 1}, 0, {}, {3: {1}}, {}), "epsilon source 3 not in state set"),
    (Automaton({0, 1}, 0, {}, {0: {4}}, {}), "dangling epsilon endpoint 4 (from 0)"),
], ids=["initial-not-a-state", "source-not-a-state", "byte-out-of-range",
        "epsilon-source-not-a-state", "dangling-epsilon-endpoint"])
def test_validate_names_each_fault(a, fragment):
    problems = validate(a)
    assert len(problems) == 1 and fragment in problems[0], problems


def test_determinism_is_derived_not_stored():
    a = Automaton(set(range(2)), 0, {0: {ord("a"): {1}}}, {}, {})
    assert a.deterministic
    a.epsilon_transitions[0] = {1}
    assert not a.deterministic
    with pytest.raises(AttributeError):
        a.deterministic = True


def test_dump_parse_roundtrip():
    nfa = compile_pattern("a(ca)*b", "nfa")
    p = build_pfsm([("a(ca)*b", nfa)])
    text = dump_pfsm(p)
    loaded = load_pfsm(text)
    parsed = loaded.automaton
    assert parsed.states == p.automaton.states
    assert parsed.initial == p.initial
    assert parsed.byte_transitions == p.automaton.byte_transitions
    assert parsed.epsilon_transitions == p.automaton.epsilon_transitions
    assert parsed.final_labels == p.automaton.final_labels
    assert [loaded.label_text(lid) for lid in loaded.live_labels()] \
        == ["a(ca)*b"]
    assert dump_pfsm(loaded) == text


@pytest.mark.parametrize("text, fragment", [
    ("", "empty"),
    ("WRONG v9\nstate 0 initial", "header"),
    pytest.param("PFSM-AUT v2\nstate 0", "no initial state",
                 id="no-initial-state"),
    pytest.param("PFSM-AUT v2\nstate 0 initial\ntrans 0 zz 0", "line 3",
                 id="bad-byte-line-3"),
    pytest.param("PFSM-AUT v2\nstate 0 initial\nstate 1\nfinal 1",
                 "final without label", id="final-without-label"),
    pytest.param("PFSM-AUT v2\nstate 0 initial\nstate 1 final x",
                 "unknown marker 'final'", id="final-on-state-line"),
])
def test_parse_rejects_malformed(text, fragment):
    with pytest.raises(AutomatonFormatError, match=fragment):
        load_pfsm(text)
