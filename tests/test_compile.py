"""NFA construction and subset conversion, validated by language-membership
oracles over enumerated strings."""

import random
import warnings

import pytest
from helpers import all_strings, gen_ast, nfa_accepts

from pfsm.compile import (NullablePatternWarning, StateCeilingExceeded,
                          compile_nfa, compile_pattern, nfa_to_dfa,
                          read_pattern_file)
from pfsm.oracle import accepts
from pfsm.syntax import parse_regex

AB = [ord("a"), ord("b")]
AC = [ord("a"), ord("c")]


def test_minimal_literal_nfa():
    nfa = compile_nfa(parse_regex("a"))
    assert len(nfa.states) == 2
    assert nfa.finals == {1} and nfa.initial == 0
    assert nfa.byte_transitions == {0: {ord("a"): {1}}}
    assert nfa.epsilon_transitions == {}


def test_nfa_shape_single_final_no_exits():
    for pattern in ["a*c", "a(ca)*b", "(a|b)+", "x?y"]:
        nfa = compile_nfa(parse_regex(pattern))
        assert len(nfa.finals) == 1
        (final,) = nfa.finals
        assert not nfa.byte_transitions.get(final)
        assert not nfa.epsilon_transitions.get(final)


def test_star_language_by_enumeration():
    nfa = compile_nfa(parse_regex("a*c"))
    for s in all_strings(AC, 5):
        expected = s.endswith(b"c") and s[:-1] == b"a" * (len(s) - 1)
        assert nfa_accepts(nfa, s) == expected, s


def test_grouped_star_language():
    nfa = compile_nfa(parse_regex("a(ca)*b"))
    assert nfa_accepts(nfa, b"ab")
    assert nfa_accepts(nfa, b"acab")
    assert nfa_accepts(nfa, b"acacab")
    assert not nfa_accepts(nfa, b"acb")
    assert not nfa_accepts(nfa, b"")


def test_dfa_passthrough_is_structurally_equal():
    dfa = compile_pattern("(a|b)*abb", "dfa")
    again = nfa_to_dfa(dfa)
    assert again.states == dfa.states
    assert again.byte_transitions == dfa.byte_transitions
    assert again.finals == dfa.finals
    assert again.epsilon_transitions == {}


@pytest.mark.parametrize("pattern, alphabet", [
    ("a*c", AC), ("(a|b)*abb", AB), ("a(ca)*b", AC + [ord("b")]),
])
def test_subset_construction_preserves_language(pattern, alphabet):
    nfa = compile_nfa(parse_regex(pattern))
    dfa = nfa_to_dfa(nfa)
    assert dfa.deterministic
    assert dfa.epsilon_transitions == {}
    for state, table in dfa.byte_transitions.items():
        for succ in table.values():
            assert len(succ) == 1
    for s in all_strings(alphabet, 6):
        assert nfa_accepts(nfa, s) == nfa_accepts(dfa, s), s


def test_subset_construction_state_bound():
    for seed in range(50):
        rng = random.Random(seed)
        nfa = compile_nfa(gen_ast(rng, AB, 4))
        dfa = nfa_to_dfa(nfa)
        assert len(dfa.states) <= 2 ** len(nfa.states)


def test_state_ceiling_trips(monkeypatch):
    monkeypatch.setattr("pfsm.compile.DEFAULT_STATE_CEILING", 16)
    nfa = compile_nfa(parse_regex("(a|b)*a(a|b)(a|b)(a|b)(a|b)(a|b)(a|b)"))
    with pytest.raises(StateCeilingExceeded):
        nfa_to_dfa(nfa)


def test_auto_form_falls_back_to_nfa(monkeypatch):
    monkeypatch.setattr("pfsm.compile.DEFAULT_STATE_CEILING", 16)
    pattern = "(a|b)*a(a|b)(a|b)(a|b)(a|b)(a|b)(a|b)"
    machine = compile_pattern(pattern, "auto")
    assert not machine.deterministic
    with pytest.raises(StateCeilingExceeded):
        compile_pattern(pattern, "dfa")


def test_triple_oracle_agreement_on_random_trees():
    # NFA, DFA, and the independent tree interpreter agree on every short
    # string over a 2-byte alphabet.
    for seed in range(60):
        rng = random.Random(seed)
        ast = gen_ast(rng, AB, 3)
        nfa = compile_nfa(ast)
        dfa = nfa_to_dfa(nfa)
        for s in all_strings(AB, 6):
            want = accepts(ast, s)
            assert nfa_accepts(nfa, s) == want, (seed, s)
            assert nfa_accepts(dfa, s) == want, (seed, s)


def test_nullable_pattern_warns():
    with pytest.warns(NullablePatternWarning):
        compile_pattern("a*")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        compile_pattern("a+")


def test_read_pattern_file():
    lines = [
        "# comment",
        "",
        "a*c",
        "name\ta(ca)*b",
        "  # indented comment",
    ]
    assert read_pattern_file(lines) == [("a*c", "a*c"), ("name", "a(ca)*b")]
