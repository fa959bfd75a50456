"""Primitive automaton operations: closure, step, validation, interchange
format. Properties are checked with hypothesis against graph oracles."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pfsm.automaton import (AutomatonFormatError, dump_lines, epsilon_closure,
                            make_automaton, parse_lines, step, validate)
from pfsm.compile import compile_pattern


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
    return make_automaton(range(n), 0, byte_transitions, epsilon, finals,
                          {f: 0 for f in finals})


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
    a = make_automaton(range(2), 0, {}, {}, set(), {})
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


def test_validate_unlabeled_final():
    a = make_automaton(range(2), 0, {0: {ord("a"): {1}}}, {}, {1}, {})
    assert any("unlabeled final" in p for p in validate(a))


def test_validate_dangling_endpoint():
    a = make_automaton(range(2), 0, {0: {ord("a"): {5}}}, {}, set(), {})
    assert any("dangling endpoint" in p for p in validate(a))


def test_determinism_is_derived_not_stored():
    a = make_automaton(range(2), 0, {0: {ord("a"): {1}}}, {}, set(), {})
    assert a.deterministic
    a.epsilon_transitions[0] = {1}
    assert not a.deterministic
    with pytest.raises(AttributeError):
        a.deterministic = True


def test_dump_parse_roundtrip():
    nfa = compile_pattern("a(ca)*b", "nfa")
    lines = dump_lines(nfa, lambda lid: "a(ca)*b")
    parsed, final_texts, extra = parse_lines(lines)
    assert extra == []
    assert parsed.states == nfa.states
    assert parsed.initial == nfa.initial
    assert parsed.byte_transitions == nfa.byte_transitions
    assert parsed.epsilon_transitions == nfa.epsilon_transitions
    assert parsed.finals == nfa.finals
    assert final_texts == {f: "a(ca)*b" for f in nfa.finals}
    assert dump_lines(parsed, lambda lid: "a(ca)*b") == lines


@pytest.mark.parametrize("text, fragment", [
    ("", "empty"),
    ("WRONG v9\nstate 0 initial", "header"),
    ("PFSM-AUT v1\nstate 0", "no initial state"),
    ("PFSM-AUT v1\nstate 0 initial\ntrans 0 zz 0", "line 3"),
    ("PFSM-AUT v1\nstate 0 initial\nstate 1 final", "final without label"),
])
def test_parse_rejects_malformed(text, fragment):
    with pytest.raises(AutomatonFormatError, match=fragment):
        parse_lines(text.splitlines())
