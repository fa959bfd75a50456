"""The brute-force reference matcher: known values and agreement between
its two independent methods."""

import random

from helpers import all_strings, gen_alphabet, gen_ast
from hypothesis import given, settings
from hypothesis import strategies as st

from pfsm.oracle import accepts, all_matches, match_ends
from pfsm.syntax import parse_regex

FIG1_ASTS = [(name, parse_regex(name)) for name in ("a*c", "ac", "a(ca)*b")]


def test_known_memberships():
    star = parse_regex("a*c")
    assert accepts(star, b"aac")
    assert accepts(star, b"c")
    assert not accepts(star, b"aa")
    grouped = parse_regex("a(ca)*b")
    assert accepts(grouped, b"ab")
    assert accepts(grouped, b"acacab")
    assert not accepts(grouped, b"acb")


def test_empty_string_is_nullability():
    for pattern, null in [("a*", True), ("a+", False), ("a?", True),
                          ("ab", False), ("", True), ("(a|)b*", True)]:
        assert accepts(parse_regex(pattern), b"") == null, pattern


def test_fig2_triples():
    labeled = [(name, ast) for name, ast in FIG1_ASTS]
    got = all_matches(labeled, b"aacacab")
    assert got == {
        ("a*c", 0, 2), ("a*c", 1, 2), ("ac", 1, 2), ("a*c", 2, 2),
        ("a*c", 3, 4), ("ac", 3, 4), ("a*c", 4, 4),
        ("a(ca)*b", 1, 6), ("a(ca)*b", 3, 6), ("a(ca)*b", 5, 6),
    }


def test_no_patterns():
    assert all_matches([], b"abc") == set()


def test_match_ends():
    ast = parse_regex("a*c")
    assert match_ends(ast, b"aacac", 0) == {3}
    assert match_ends(ast, b"aacac", 2) == {3}
    assert match_ends(parse_regex("a*"), b"aab", 0) == {0, 1, 2}


@given(st.integers(0, 100_000))
@settings(max_examples=150, deadline=None)
def test_dual_method_agreement(seed):
    # The recursive interpreter and the position-set simulation agree on
    # every span of a random input.
    rng = random.Random(seed)
    alphabet = gen_alphabet(rng, 3)
    ast = gen_ast(rng, alphabet, 4)
    data = bytes(rng.choice(alphabet) for _ in range(rng.randint(0, 16)))
    via_sets = all_matches([(0, ast)], data)
    via_interp = {(0, i, j) for i in range(len(data))
                  for j in range(i, len(data))
                  if accepts(ast, data[i:j + 1])}
    assert via_sets == via_interp


def test_dual_method_agreement_exhaustive_small():
    rng = random.Random(12)
    alphabet = [ord("a"), ord("b")]
    for _ in range(40):
        ast = gen_ast(rng, alphabet, 3)
        for s in all_strings(alphabet, 5):
            want = accepts(ast, s)
            got = len(s) in match_ends(ast, s, 0) if s else want
            if s:
                assert got == want, s
