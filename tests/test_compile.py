"""NFA construction and subset conversion, validated by language-membership
oracles over enumerated strings."""

import random
import warnings

import pytest
from helpers import (all_strings, assert_rows_frozen_and_shared, gen_ast,
                     gen_literal_set, nfa_accepts, plain_dump, random_hops)

from pfsm import build_pfsm, find_matches
from pfsm.automaton import Automaton
from pfsm.compile import (DEFAULT_STATE_CEILING, NullablePatternWarning,
                          StateCeilingExceeded, compile_nfa, compile_pattern,
                          nfa_to_dfa, read_pattern_file)
from pfsm.oracle import accepts
from pfsm.syntax import METACHARS, parse_regex
from pfsm.wire import dump_pfsm, load_pfsm

AB = [ord("a"), ord("b")]
AC = [ord("a"), ord("c")]
# Every byte a literal may hold: NUL, the high half, `-`, `^`, `{` and
# space included.
LITERAL_BYTES = [b for b in range(256) if b not in METACHARS]


def parsed(pattern, form):
    """The machine the parser path gives: parse, Glushkov, and for the dfa
    form the subset construction."""
    nfa = compile_nfa(parse_regex(pattern))
    return nfa if form == "nfa" else nfa_to_dfa(nfa)


def test_minimal_literal_nfa():
    nfa = compile_nfa(parse_regex("a"))
    assert len(nfa.states) == 2
    assert nfa.finals == {1} and nfa.initial == 0
    assert nfa.byte_transitions == {0: {ord("a"): {1}}}
    assert nfa.epsilon_transitions == {}


def test_nfa_shape_position_automaton():
    # One state per byte position plus the initial state, no epsilon
    # edges, nothing entering the initial state, every edge into a
    # position reading that position's bytes, and the initial state final
    # iff the pattern is nullable.
    for pattern, positions in [("a*c", 2), ("a(ca)*b", 4), ("(a|b)+", 2),
                               ("x?y", 2), ("a[^x]*b", 3), ("(ab)*", 2)]:
        ast = parse_regex(pattern)
        nfa = compile_nfa(ast)
        assert nfa.epsilon_transitions == {}
        assert nfa.initial == 0 and nfa.states == set(range(1 + positions))
        reads: dict[int, set[int]] = {}
        for s, table in nfa.byte_transitions.items():
            into: dict[int, set[int]] = {}
            for byte, succ in table.items():
                assert 0 not in succ
                for t in succ:
                    into.setdefault(t, set()).add(byte)
            for t, read in into.items():
                assert reads.setdefault(t, read) == read, (pattern, s, t)
        assert (0 in nfa.finals) == accepts(ast, b"")


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
    assert dfa.epsilon_transitions == {}
    for state, table in dfa.byte_transitions.items():
        for succ in table.values():
            assert len(succ) == 1
    for s in all_strings(alphabet, 6):
        assert nfa_accepts(nfa, s) == nfa_accepts(dfa, s), s


def test_subset_keeps_every_label_of_its_members():
    # Both NFA states reached on `a` are final, for labels 0 and 1: their
    # DFA state accepts both, so the DFA, loaded from its plain dump,
    # reports both labels at `a`.
    nfa = Automaton({0, 1, 2}, 0, {0: {0x61: {1, 2}}}, {},
                    {1: frozenset({0}), 2: frozenset({1})})
    dfa = nfa_to_dfa(nfa)
    assert dfa.final_labels == {1: frozenset({0, 1})}
    p = load_pfsm(plain_dump(dfa, ["x", "y"]))
    assert [(p.label_text(m.label), m.start, m.end)
            for m in find_matches(p, b"a")] == [("x", 0, 0), ("y", 0, 0)]


@pytest.mark.parametrize("pattern", ["[^x]*", "a[^x]*b", "a[^x]*x",
                                     "ab[^c]*de", "a[^x]*[^y]*b"])
def test_negated_class_row_shares_its_successor_sets(pattern):
    # A `[^x]*` gap's rows read 255 bytes or more, and bytes with equal
    # successors share one frozenset: the gap's own set, and the set with
    # the next position on the bytes that also leave the gap.
    nfa = compile_nfa(parse_regex(pattern))
    assert_rows_frozen_and_shared(nfa)
    rows = nfa.byte_transitions.values()
    assert max(map(len, rows)) >= 255
    if "[^y]" not in pattern:
        assert all(len({id(succ) for succ in row.values()}) <= 2
                   for row in rows)


@pytest.mark.parametrize("pattern", ["a[^x]*b", "(a|[^b])*c", "x[^y][^z]*y"])
def test_subset_construction_shares_one_set_per_target(pattern):
    # Every edge into one DFA state holds the same frozenset, so a state
    # whose 255 edges enter one state holds one set, not 255.
    dfa = nfa_to_dfa(compile_nfa(parse_regex(pattern)))
    sets = [succ for row in dfa.byte_transitions.values()
            for succ in row.values()]
    assert all(type(succ) is frozenset for succ in sets)
    assert len({id(succ) for succ in sets}) == len(set(sets))


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


def test_triple_oracle_agreement_on_random_trees():
    # NFA, DFA, and the independent tree interpreter agree on every short
    # string over a 2-byte alphabet; so do the NFA with epsilon hops and
    # its subset construction.
    for seed in range(60):
        rng = random.Random(seed)
        ast = gen_ast(rng, AB, 3)
        nfa = compile_nfa(ast)
        eps = random_hops(rng, nfa)
        machines = [nfa, nfa_to_dfa(nfa), eps, nfa_to_dfa(eps)]
        for s in all_strings(AB, 6):
            want = accepts(ast, s)
            for k, machine in enumerate(machines):
                assert nfa_accepts(machine, s) == want, (seed, k, s)


def test_nullable_pattern_warns():
    # The warning is the only nullability test: it reads the Glushkov
    # machine's initial state.
    for pattern in ("a*", "a?b?", "(a|)", ""):
        with pytest.warns(NullablePatternWarning):
            compile_pattern(pattern)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for pattern in ("a+", "a*c", "(a|)b"):
            compile_pattern(pattern)


def test_unknown_form_is_refused():
    # The form is checked first: a nullable pattern gives no warning and a
    # malformed one no syntax error.
    for pattern in ("ab", "a*", "("):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match="unknown form 'bogus'"):
                compile_pattern(pattern, "bogus")
        assert caught == [], pattern


def random_literal(rng: random.Random):
    """A literal of 1-12 bytes outside METACHARS, or multi-byte UTF-8 text."""
    if rng.random() < 0.25:
        return "".join(rng.choice("aé€𝄞-^{ ") for _ in range(rng.randint(1, 4)))
    return bytes(rng.choice(LITERAL_BYTES) for _ in range(rng.randint(1, 12)))


@pytest.mark.parametrize("form", ["nfa", "dfa"])
def test_literal_machine_equals_the_parsed_one(form):
    # A literal is built as its chain with no parse; it must be the
    # machine the parser path gives, in both forms.
    rng = random.Random(f"literal-chain/{form}")
    fixed = [b"\x00", b"\x80\xff", b"-^{ ", b"a", "\u00e9t\u00e9"]
    for pattern in fixed + [random_literal(rng) for _ in range(300)]:
        got = compile_pattern(pattern, form)
        assert got == parsed(pattern, form), pattern
        assert_rows_frozen_and_shared(got)


@pytest.mark.parametrize("form", ["nfa", "dfa"])
def test_literal_set_builds_the_parsed_union(form):
    # Shared prefixes, a word that is a prefix of another and one word
    # under two labels: the union and its dump are the parser path's.
    rng = random.Random(f"literal-union/{form}")
    for trial in range(60):
        alphabet = rng.sample(LITERAL_BYTES, rng.randint(1, 4))
        pairs = gen_literal_set(rng, alphabet)
        got = build_pfsm([(label, compile_pattern(w, form)) for label, w in pairs])
        want = build_pfsm([(label, parsed(w, form)) for label, w in pairs])
        assert got == want, trial
        assert dump_pfsm(got) == dump_pfsm(want), trial


def test_only_literals_skip_the_parser(monkeypatch):
    # With the parser and the Glushkov pass refusing every call, literals
    # still compile; a pattern with a metacharacter, an escape or nothing
    # in it still reaches the parser.
    def refuse(*args):
        raise AssertionError("parser path")

    for name in ("parse_regex", "compile_nfa"):
        monkeypatch.setattr(f"pfsm.compile.{name}", refuse)
    for form in ("nfa", "dfa"):
        for pattern, n in (("ab", 2), (b"\x00-^{ ", 5), ("caf\u00e9", 5)):
            assert compile_pattern(pattern, form).finals == {n}
        for pattern in ("a.b", "a]b", "a\\.b", ""):
            with pytest.raises(AssertionError, match="parser path"):
                compile_pattern(pattern, form)
    # The dfa form of a literal still passes the subset construction and
    # its state ceiling.
    with pytest.raises(StateCeilingExceeded):
        compile_pattern("a" * (DEFAULT_STATE_CEILING + 1), "dfa")
    monkeypatch.undo()
    with pytest.warns(NullablePatternWarning):
        compile_pattern("")


def test_read_pattern_file():
    lines = [
        "# comment",
        "",
        "a*c",
        "name\ta(ca)*b",
        "  # indented comment",
    ]
    assert read_pattern_file(lines) == [("a*c", "a*c"), ("name", "a(ca)*b")]
