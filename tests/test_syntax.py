"""Parser unit tests: shapes of known patterns and error reporting."""

import pytest

from pfsm.compile import compile_nfa, compile_pattern
from pfsm.oracle import accepts
from pfsm.syntax import (Alt, ByteClass, Concat, Empty, Literal, Opt, Plus,
                         RegexSyntaxError, Star, parse_regex, pattern_bytes)


def test_single_literal():
    assert parse_regex("a") == Literal(ord("a"))


def test_star_concat():
    assert parse_regex("a*c") == Concat((Star(Literal(ord("a"))),
                                         Literal(ord("c"))))


def test_grouped_star():
    got = parse_regex("a(ca)*b")
    assert got == Concat((
        Literal(ord("a")),
        Star(Concat((Literal(ord("c")), Literal(ord("a"))))),
        Literal(ord("b")),
    ))


def test_alternation_and_quantifiers():
    got = parse_regex("(a|b)+c?")
    assert got == Concat((
        Plus(Alt((Literal(ord("a")), Literal(ord("b"))))),
        Opt(Literal(ord("c"))),
    ))


@pytest.mark.parametrize("pattern, tree", [
    ("a*+?", Opt(Plus(Star(Literal(97))))),
    ("a?*", Star(Opt(Literal(97)))),
    ("(ab)+*", Star(Plus(Concat((Literal(97), Literal(98)))))),
])
def test_stacked_quantifiers_wrap_inside_out(pattern, tree):
    assert parse_regex(pattern) == tree


@pytest.mark.parametrize("make, message", [
    (lambda: ByteClass(frozenset()), "byte-class must be non-empty"),
    (lambda: Concat((Literal(97),)), "concat needs at least 2 children"),
    (lambda: Alt((Literal(97),)), "alternation needs at least 2 children"),
], ids=["empty-byte-class", "one-part-concat", "one-choice-alt"])
def test_node_invariants_raise(make, message):
    with pytest.raises(ValueError, match=message):
        make()


def test_empty_pattern():
    assert parse_regex("") == Empty()


def test_dot_is_any_byte():
    got = parse_regex(".")
    assert isinstance(got, ByteClass) and len(got.bytes_) == 256


def test_escaped_metacharacter():
    assert parse_regex(r"\*") == Literal(ord("*"))
    assert parse_regex(r"a\.b") == Concat((Literal(ord("a")),
                                           Literal(ord(".")),
                                           Literal(ord("b"))))


def test_class_with_range_and_negation():
    got = parse_regex("[a-c]")
    assert got == ByteClass(frozenset({ord("a"), ord("b"), ord("c")}))
    neg = parse_regex("[^a]")
    assert isinstance(neg, ByteClass)
    assert ord("a") not in neg.bytes_ and len(neg.bytes_) == 255


def test_class_literal_dash():
    got = parse_regex("[a-]")
    assert got == ByteClass(frozenset({ord("a"), ord("-")}))


def test_stray_close_bracket_is_literal():
    assert parse_regex("]") == Literal(ord("]"))


@pytest.mark.parametrize("pattern, offset, fragment", [
    ("(ab", 0, "parenthesis"),
    ("ab)", 2, "parenthesis"),
    ("*a", 0, "quantifier"),
    ("a|*b", 2, "quantifier"),
    ("[]", 0, "class"),
    ("[ab", 0, "bracket"),
    ("a\\", 2, "escape"),
    (r"\q", 1, "escape"),
    ("[b-a]", 4, "range"),
])
def test_syntax_errors_carry_offset(pattern, offset, fragment):
    with pytest.raises(RegexSyntaxError) as exc:
        parse_regex(pattern)
    assert exc.value.offset == offset
    assert fragment in exc.value.reason


def test_nullable():
    # A parsed tree is nullable iff its Glushkov machine's state 0 is final;
    # the oracle's verdict on the empty string is the reference.
    def nullable(pattern):
        ast = parse_regex(pattern)
        initial_final = 0 in compile_nfa(ast).final_labels
        assert initial_final == accepts(ast, b""), pattern
        return initial_final

    assert nullable("a*")
    assert nullable("a?b?")
    assert nullable("(a|)")
    assert not nullable("a*c")
    assert not nullable("a+")


def test_pattern_as_bytes():
    assert parse_regex(b"ab") == Concat((Literal(ord("a")), Literal(ord("b"))))


def test_pattern_bytes_takes_text_and_bytes_like():
    for pattern in ("ab", b"ab", bytearray(b"ab"), memoryview(b"xaby")[1:3]):
        assert pattern_bytes(pattern) == b"ab"
    assert pattern_bytes("\u00e9") == b"\xc3\xa9"


@pytest.mark.parametrize("pattern", [3, [97, 98], None, 2.0],
                         ids=["int", "list", "none", "float"])
def test_pattern_that_is_not_text_or_bytes_is_refused(pattern):
    # bytes(3) would be three NULs and bytes([97, 98]) would be `ab`.
    for call in (pattern_bytes, parse_regex, compile_pattern):
        with pytest.raises(TypeError, match="text or bytes-like"):
            call(pattern)


@pytest.mark.parametrize("pattern, offset", [
    ("\udcff", 0), ("a\udcffb", 1), ("\u00e9\ud800", 2), ("ab\udc80", 2),
], ids=["alone", "inside", "after-two-byte-char", "at-end"])
def test_text_with_no_utf8_encoding_is_a_syntax_error(pattern, offset):
    # A lone surrogate, as an invalid byte on a command line arrives, is
    # refused at the byte offset where it would start, by the parser and
    # by the literal path alike.
    for call in (parse_regex, compile_pattern):
        with pytest.raises(RegexSyntaxError) as exc:
            call(pattern)
        assert exc.value.offset == offset
        assert "not valid UTF-8" in exc.value.reason
