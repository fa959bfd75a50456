"""The PFSM-AUT text format: a dump loads back to the same bytes, and
every integer has one spelling."""

import random
import re

import pytest
from helpers import (PLAIN_TWO_LABEL_DUMP, gen_alphabet, gen_ast,
                     gen_instance, plain_dump)
from hypothesis import given, settings
from hypothesis import strategies as st

from pfsm import (add_pattern, build_pfsm, compile_pattern, find_matches,
                  remove_pattern, validate_pfsm)
from pfsm.automaton import Automaton
from pfsm.compile import compile_nfa
from pfsm.engine import run
from pfsm.oracle import all_matches
from pfsm.syntax import parse_regex
from pfsm.wire import AutomatonFormatError, dump_pfsm, load_pfsm

AUT = ("PFSM-AUT v2\nstate 0 initial\nstate 1\nstate 2\nfinal 2 x\n"
       "trans 1 0x61 2\neps 0 1\npattern x 1\n")


def machines(seed: int):
    """A random machine; the same machine after one pattern is removed and
    a new one added; and the load of a plain dump of a random machine with
    a final that accepts two labels."""
    rng = random.Random(seed)
    p = gen_instance(rng, max_patterns=3, depth=4, max_input=0)[0]
    q = remove_pattern(p, rng.choice(sorted(p.label_ids)))
    added = compile_nfa(gen_ast(rng, gen_alphabet(rng), 3))
    plain = compile_nfa(gen_ast(rng, gen_alphabet(rng), 3))
    both = rng.choice(sorted(plain.finals))
    plain.final_labels = {f: frozenset({0, 1}) if f == both
                          else frozenset({rng.randrange(2)})
                          for f in plain.finals}
    return (p, add_pattern(q, "added", added),
            load_pfsm(plain_dump(plain, ["x", "y z"])))


def integer_spans(line: str) -> list[tuple[int, int, bool]]:
    """(start, end, is_byte) of each integer token on a directive line."""
    tokens = list(re.finditer(r"\S+", line))
    kind = tokens[0].group()
    if kind == "trans":
        return [(t.start(), t.end(), k == 2) for k, t in enumerate(tokens)
                if k > 0]
    picks = {"state": [1], "final": [1], "eps": [1, 2], "pattern": [-1]}[kind]
    return [(tokens[k].start(), tokens[k].end(), False) for k in picks]


def respell(token: str, how: str) -> str:
    """A respelling of the integer `token`: a sign, an `_`, an
    Arabic-Indic digit or, for a byte, no `0x`."""
    if how == "plus":
        return "+" + token
    if how == "underscore":
        k = 3 if token.startswith("0x") else 1
        return token[:k] + "_" + token[k:] if len(token) > k else "0_" + token
    if how == "arabic-indic":
        k = max(i for i, c in enumerate(token) if c.isdigit())
        return token[:k] + chr(0x660 + int(token[k])) + token[k + 1:]
    return token[2:]                       # "no-0x": the bare hex digits


def assert_respellings_refused(text: str, data) -> None:
    """Respell one integer token of a valid dump; loading it must raise
    AutomatonFormatError naming that token's line."""
    lines = text.splitlines()
    spots = [(i, span) for i, line in enumerate(lines) if i > 0
             for span in integer_spans(line)]
    i, (lo, hi, is_byte) = data.draw(st.sampled_from(spots))
    hows = ["plus", "underscore", "arabic-indic"] + ["no-0x"] * is_byte
    how = data.draw(st.sampled_from(hows))
    lines[i] = lines[i][:lo] + respell(lines[i][lo:hi], how) + lines[i][hi:]
    with pytest.raises(AutomatonFormatError, match=f"^line {i + 1}: "):
        load_pfsm("\n".join(lines) + "\n")


@given(st.integers(0, 10**6))
@settings(max_examples=100, derandomize=True, deadline=None)
def test_pfsm_dump_load_dump_is_byte_identical(seed):
    for p in machines(seed):
        text = dump_pfsm(p)
        assert dump_pfsm(load_pfsm(text)) == text


@given(st.integers(0, 10**6), st.data())
@settings(max_examples=100, derandomize=True, deadline=None)
def test_pfsm_respelled_integer_is_refused(seed, data):
    text = dump_pfsm(machines(seed)[1])
    assert_respellings_refused(text, data)


DECIMAL = "does not match 0|[1-9][0-9]*"
BYTE = "does not match 0x[0-9A-F]{2}"


@pytest.mark.parametrize("line, bad, message", [
    ("trans 1 0x61 2", "trans 1 0x61 0_2", f"transition target 0_2 {DECIMAL}"),
    ("trans 1 0x61 2", "trans +1 0x61 2", f"transition source +1 {DECIMAL}"),
    ("trans 1 0x61 2", "trans 1 61 2", f"byte 61 {BYTE}"),
    ("trans 1 0x61 2", "trans 1 0x6_1 2", f"byte 0x6_1 {BYTE}"),
    ("trans 1 0x61 2", "trans 1 0x61 02", f"transition target 02 {DECIMAL}"),
    ("trans 1 0x61 2", "trans 1 0x6a 2", f"byte 0x6a {BYTE}"),
    ("pattern x 1", "pattern x ١",
     f"malformed pattern line 'pattern x ١': entry state ١ {DECIMAL}"),
    ("trans 1 0x61 2", "trans 1 0x61", "malformed trans line 'trans 1 0x61'"),
    ("trans 1 0x61 2", "trans 1 0x61 2 2",
     "malformed trans line 'trans 1 0x61 2 2'"),
    ("eps 0 1", "eps 0", "malformed eps line 'eps 0'"),
    ("eps 0 1", "eps 0 1 1", "malformed eps line 'eps 0 1 1'"),
    ("state 1", "state", "malformed state line 'state'"),
], ids=["underscore", "plus", "byte-without-0x", "byte-underscore",
        "leading-zero", "lower-case-hex", "arabic-indic", "trans-field-missing",
        "trans-field-extra", "eps-field-missing", "eps-field-extra",
        "state-without-id"])
def test_one_line_respelled_is_refused(line, bad, message):
    # Each bad line, put in place of a good one, is the only fault, and the
    # error names its line.
    assert load_pfsm(AUT) is not None
    lineno = AUT.splitlines().index(line) + 1
    with pytest.raises(AutomatonFormatError,
                       match=f"^line {lineno}: {re.escape(message)}$"):
        load_pfsm(AUT.replace(line, bad))


def test_state_declared_twice_is_refused():
    with pytest.raises(AutomatonFormatError,
                       match="^line 4: state 1 declared twice$"):
        load_pfsm(AUT.replace("state 1\n", "state 1\nstate 1\n"))


def test_plain_dump_keeps_each_final_label():
    p = load_pfsm(PLAIN_TWO_LABEL_DUMP)
    assert validate_pfsm(p) == []
    assert [p.label_text(lid) for lid in p.live_labels()] == ["a", "b"]
    assert [(p.label_text(m.label), m.start, m.end)
            for m in find_matches(p, b"ab")] == [("a", 0, 0), ("b", 1, 1)]
    # One machine behind q0, both labels at its entry.
    assert len({e.entry for e in p.directory.values()}) == 1
    text = dump_pfsm(p)
    assert text.count("pattern ") == 2
    assert dump_pfsm(load_pfsm(text)) == text
    # A state the initial state does not reach is left out.
    stray = load_pfsm(PLAIN_TWO_LABEL_DUMP + "state 3\ntrans 3 0x61 1\n")
    assert dump_pfsm(stray) == text


def test_loader_drops_a_state_on_no_path_to_a_final():
    # build_pfsm grafts the machine's unreachable state 2 as union state 3;
    # the loader drops it, so the dump loads and scans as the built machine.
    m = Automaton({0, 1, 2}, 0, {0: {0x61: {1}}}, {}, {1: frozenset({0})})
    p = build_pfsm([("x", m)])
    assert validate_pfsm(p) == [] and p.automaton.states == {0, 1, 2, 3}
    q = load_pfsm(dump_pfsm(p))
    assert validate_pfsm(q) == [] and q.automaton.states == {0, 1, 2}
    assert find_matches(q, b"aba") == find_matches(p, b"aba")
    assert dump_pfsm(load_pfsm(dump_pfsm(q))) == dump_pfsm(q)


def test_dump_refuses_a_label_that_reaches_none_of_its_finals():
    # Only the unreachable state 2 is final, so the loader would refuse the
    # dump; dump_pfsm refuses it first, in the loader's words.
    m = Automaton({0, 1, 2}, 0, {0: {0x61: {1}}}, {}, {2: frozenset({0})})
    p = build_pfsm([("x", m)])
    with pytest.raises(ValueError, match="^pattern 'x' reaches none of its "
                                         "finals$"):
        dump_pfsm(p)


def complete_dfa_dump(word: bytes) -> str:
    """A plain dump of the complete DFA of `word`: every state has an
    edge on every byte, and a sink state takes each byte that leaves it."""
    sink = len(word) + 1
    trans = {s: {b: {s + 1 if s < len(word) and b == word[s] else sink}
                 for b in range(256)} for s in range(sink + 1)}
    dfa = Automaton(set(trans), 0, trans, {},
                    {len(word): frozenset({0})})
    return plain_dump(dfa, [word.decode()])


def test_complete_dfa_loads_without_its_sink():
    # A tag that entered the sink would stay live to the end of the input:
    # one more live pair per byte.
    p = load_pfsm(complete_dfa_dump(b"ab"))
    assert len(p.automaton.states) == 4
    data = b"xab" * 50
    want = {(p.label_ids["ab"], i, j)
            for _, i, j in all_matches([(0, parse_regex("ab"))], data)}
    assert {(m.label, m.start, m.end) for m in find_matches(p, data)} == want
    for k in (50, 500):
        stats = run(p, b"xab" * k)
        assert 0 < stats.peak_pairs <= 3


def test_empty_machine_roundtrips():
    # A dump with no pattern line and no final state is the empty union.
    empty = remove_pattern(build_pfsm([("x", compile_pattern("x"))]), "x")
    text = dump_pfsm(empty)
    assert text == "PFSM-AUT v2\nstate 0 initial\n"
    loaded = load_pfsm(text)
    assert loaded.directory == {} and loaded.automaton.states == {0}
    assert dump_pfsm(loaded) == text
    assert find_matches(loaded, b"xx") == []
    with pytest.raises(AutomatonFormatError, match="is the empty union"):
        load_pfsm(text + "state 1\ntrans 0 0x61 1\n")


def random_dump(rng: random.Random) -> str:
    """A small dump of 1-6 states with random final, trans and eps lines
    over the bytes a and b. About half have `pattern` lines; their initial
    state has just the epsilon edges to the entries, which the labels
    often share, so that some of them load as well as plain dumps."""
    n = rng.randint(1, 6)
    initial = rng.randrange(n)
    labels = ["x", "y", "z"][:rng.randint(1, 3)]
    lines = [f"state {s} initial" if s == initial else f"state {s}"
             for s in range(n)]
    others = [s for s in range(n) if s != initial]
    if others and rng.random() < 0.5:
        shared = rng.choice(others)
        entries = {label: shared if rng.random() < 0.5 else rng.choice(others)
                   for label in labels}
        lines += (f"pattern {label} {entry}" for label, entry in entries.items())
        lines += (f"eps {initial} {entry}" for entry in set(entries.values()))
        sources, targets = others, others
    else:
        sources, targets = range(n), range(n)
    for s in sources:
        lines += {f"final {s} {rng.choice(labels)}"
                  for _ in range(rng.choice((0, 0, 1, 2)))}
        lines += (f"trans {s} 0x{byte:02X} {rng.choice(targets)}"
                  for byte in (0x61, 0x62) for _ in range(rng.choice((0, 1, 1, 2))))
        lines += (f"eps {s} {rng.choice(targets)}"
                  for _ in range(rng.choice((0, 0, 0, 1))))
    rng.shuffle(lines)
    return "\n".join(["PFSM-AUT v2", *lines]) + "\n"


def test_loader_refuses_or_loads_a_sound_union():
    # Whatever a small random dump holds, the loader either refuses it with
    # an AutomatonFormatError or returns a valid union that dumps back byte
    # for byte, scans as its reload does, and stays valid, losing no other
    # label's match, as each label is removed and a pattern added.
    rng = random.Random(28)
    loads = {False: 0, True: 0}             # with pattern lines -> loads
    for _ in range(2000):
        text = random_dump(rng)
        try:
            p = load_pfsm(text)
        except AutomatonFormatError:
            continue
        loads["pattern" in text] += 1
        assert validate_pfsm(p) == [], text
        dumped = dump_pfsm(p)
        reload = load_pfsm(dumped)
        assert dump_pfsm(reload) == dumped, text
        data = bytes(rng.choice(b"ab") for _ in range(8))
        found = find_matches(p, data)
        assert find_matches(reload, data) == found, text
        for label, lid in sorted(p.label_ids.items()):
            p = remove_pattern(p, label)
            assert validate_pfsm(p) == [], (text, label)
            found = [m for m in found if m.label != lid]
            assert find_matches(p, data) == found, (text, label)
            grown = add_pattern(p, "ab", compile_pattern("ab"))
            assert validate_pfsm(grown) == [], (text, label)
    assert min(loads.values()) > 100, loads
