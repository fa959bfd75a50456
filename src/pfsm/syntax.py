"""Regex syntax trees and the pattern parser.

Patterns operate on raw bytes: the alphabet is the 256 byte values and a
pattern given as text is interpreted as its UTF-8 encoding. The supported
grammar is deliberately regular-only:

    literals, ``.`` (any byte), ``\\x`` escapes for metacharacters,
    ``[...]`` / ``[^...]`` byte classes with ranges, ``(...)`` grouping,
    ``|`` alternation, and the ``*`` ``+`` ``?`` quantifiers.

No anchors, backreferences, capture groups, or bounded repetition.
"""

from __future__ import annotations

from dataclasses import dataclass


class RegexSyntaxError(ValueError):
    """Pattern rejected by the parser; carries the byte offset of the fault."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"at byte {offset}: {message}")
        self.offset = offset
        self.reason = message


@dataclass(frozen=True)
class Empty:
    """Matches the empty string."""


@dataclass(frozen=True)
class Literal:
    byte: int


@dataclass(frozen=True)
class ByteClass:
    bytes_: frozenset[int]

    def __post_init__(self):
        if not self.bytes_:
            raise ValueError("byte-class must be non-empty")


@dataclass(frozen=True)
class Concat:
    parts: tuple

    def __post_init__(self):
        if len(self.parts) < 2:
            raise ValueError("concat needs at least 2 children")


@dataclass(frozen=True)
class Alt:
    choices: tuple

    def __post_init__(self):
        if len(self.choices) < 2:
            raise ValueError("alternation needs at least 2 children")


@dataclass(frozen=True)
class Star:
    child: "Node"


@dataclass(frozen=True)
class Plus:
    child: "Node"


@dataclass(frozen=True)
class Opt:
    child: "Node"


Node = Empty | Literal | ByteClass | Concat | Alt | Star | Plus | Opt

# quantifier byte -> the node that wraps the atom before it
QUANTIFIERS = {ord("*"): Star, ord("+"): Plus, ord("?"): Opt}
METACHARS = set(b".()[]|\\") | QUANTIFIERS.keys()

ANY_BYTE = frozenset(range(256))


def concat(parts: list) -> Node:
    if not parts:
        return Empty()
    if len(parts) == 1:
        return parts[0]
    return Concat(tuple(parts))


def alternation(choices: list) -> Node:
    if len(choices) == 1:
        return choices[0]
    return Alt(tuple(choices))


class _Parser:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def error(self, message: str):
        raise RegexSyntaxError(message, self.pos)

    def peek(self) -> int | None:
        return self.data[self.pos] if self.pos < len(self.data) else None

    def take(self) -> int:
        b = self.data[self.pos]
        self.pos += 1
        return b

    def parse(self) -> Node:
        node = self.alt()
        if self.peek() is not None:
            self.error("unbalanced parenthesis")
        return node

    def alt(self) -> Node:
        choices = [self.seq()]
        while self.peek() == ord("|"):
            self.take()
            choices.append(self.seq())
        return alternation(choices)

    def seq(self) -> Node:
        parts = []
        while True:
            b = self.peek()
            if b is None or b in (ord("|"), ord(")")):
                break
            parts.append(self.repeat())
        return concat(parts)

    def repeat(self) -> Node:
        node = self.atom()
        while self.peek() in QUANTIFIERS:
            node = QUANTIFIERS[self.take()](node)
        return node

    def atom(self) -> Node:
        b = self.peek()
        if b in QUANTIFIERS:
            self.error("dangling quantifier")
        if b == ord("("):
            open_at = self.pos
            self.take()
            node = self.alt()
            if self.peek() != ord(")"):
                self.pos = open_at
                self.error("unbalanced parenthesis")
            self.take()
            return node
        if b == ord("."):
            self.take()
            return ByteClass(ANY_BYTE)
        if b == ord("["):
            return self.byte_class()
        if b == ord("\\"):
            return Literal(self.escape())
        return Literal(self.take())

    def escape(self) -> int:
        self.take()
        b = self.peek()
        if b is None:
            self.error("bad escape: pattern ends after backslash")
        if b not in METACHARS and b not in (ord("-"), ord("^")):
            self.error(f"bad escape: \\{chr(b)!s} is not a metacharacter")
        return self.take()

    def byte_class(self) -> Node:
        open_at = self.pos
        self.take()
        negate = False
        if self.peek() == ord("^"):
            negate = True
            self.take()
        members: set[int] = set()
        while True:
            b = self.peek()
            if b is None:
                self.pos = open_at
                self.error("unbalanced bracket in byte-class")
            if b == ord("]"):
                self.take()
                break
            lo = self.escape() if b == ord("\\") else self.take()
            if self.peek() == ord("-") and self.pos + 1 < len(self.data) \
                    and self.data[self.pos + 1] != ord("]"):
                self.take()
                nb = self.peek()
                hi = self.escape() if nb == ord("\\") else self.take()
                if hi < lo:
                    self.error(f"reversed range {chr(lo)}-{chr(hi)} in byte-class")
                members.update(range(lo, hi + 1))
            else:
                members.add(lo)
        if negate:
            members = set(range(256)) - members
        if not members:
            self.pos = open_at
            self.error("empty byte-class")
        return ByteClass(frozenset(members))


def pattern_bytes(pattern: str | bytes) -> bytes:
    """The bytes a pattern stands for: text as its UTF-8 encoding, a
    bytes-like object as its bytes. Text with no UTF-8 encoding, such as a
    lone surrogate, raises RegexSyntaxError at the byte offset where it
    would start; anything else, an int or a list included, raises
    TypeError."""
    if isinstance(pattern, bytes):
        return pattern
    if isinstance(pattern, str):
        try:
            return pattern.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise RegexSyntaxError(
                f"not valid UTF-8: {pattern[exc.start]!r} has no encoding",
                len(pattern[:exc.start].encode("utf-8"))) from None
    try:
        return bytes(memoryview(pattern))
    except TypeError:
        raise TypeError("pattern must be text or bytes-like, not "
                        f"{type(pattern).__name__}") from None


def parse_regex(pattern: str | bytes) -> Node:
    """Parse a pattern into its syntax tree.

    Raises RegexSyntaxError with the byte offset of the first fault.
    """
    return _Parser(pattern_bytes(pattern)).parse()
