"""Compile patterns into automata.

compile_nfa is the Glushkov (position) construction: one pass over the
tree gives a machine without epsilon edges whose state 0 is initial, with
no edge entering it, and whose state i > 0 is the i-th byte position (a
Literal or ByteClass leaf), every edge into it reading one of that leaf's
bytes. A literal's machine is a one-path chain, so compile_pattern builds
a literal pattern, one whose bytes hold no metacharacter, as that chain
straight from its bytes, with no parse and no Glushkov pass.

nfa_to_dfa is epsilon-closure subset construction under the fixed state
ceiling DEFAULT_STATE_CEILING (10,000 states); overflow raises
StateCeilingExceeded.

Both constructions give every byte successor set as a frozenset, shared by
the bytes of a row that have equal successors; nfa_to_dfa shares one set
per target state across the whole machine, and closes each distinct
outgoing set once.
"""

from __future__ import annotations

import warnings

from .automaton import Automaton, epsilon_closure
from .syntax import (METACHARS, Alt, ByteClass, Concat, Empty, Literal, Node,
                     Opt, Plus, Star, parse_regex, pattern_bytes)

DEFAULT_STATE_CEILING = 10_000
_EMPTY: frozenset[int] = frozenset()


class StateCeilingExceeded(RuntimeError):
    """Subset construction would exceed the configured state budget."""

    def __init__(self, ceiling: int):
        super().__init__(f"subset construction exceeded {ceiling} states")
        self.ceiling = ceiling


class NullablePatternWarning(UserWarning):
    """Pattern matches the empty string; zero-length matches are never reported."""


def compile_nfa(ast: Node) -> Automaton:
    """Glushkov construction: state 0 initial, one state per byte position,
    edges from the first, last and follow sets of the positions, and state
    0 final iff the pattern is nullable."""
    reads: list[list[int]] = [[]]           # position -> bytes that enter it
    follow: dict[int, set[int]] = {}

    def positions(node: Node) -> tuple[set[int], set[int], bool]:
        """(first, last, nullable) of node; records its follow pairs."""
        if isinstance(node, (Literal, ByteClass)):
            reads.append([node.byte] if isinstance(node, Literal)
                         else sorted(node.bytes_))
            return {len(reads) - 1}, {len(reads) - 1}, False
        if isinstance(node, Empty):
            return set(), set(), True
        if isinstance(node, Concat):
            first, last, null = positions(node.parts[0])
            for part in node.parts[1:]:
                pf, pl, pn = positions(part)
                for p in last:
                    follow.setdefault(p, set()).update(pf)
                first = first | pf if null else first
                last = last | pl if pn else pl
                null = null and pn
            return first, last, null
        if isinstance(node, Alt):
            parts = [positions(c) for c in node.choices]
            return (set().union(*(pf for pf, _, _ in parts)),
                    set().union(*(pl for _, pl, _ in parts)),
                    any(pn for _, _, pn in parts))
        if isinstance(node, (Star, Plus, Opt)):
            first, last, null = positions(node.child)
            if not isinstance(node, Opt):
                for p in last:
                    follow.setdefault(p, set()).update(first)
            return first, last, null or not isinstance(node, Plus)
        raise TypeError(f"unknown node {node!r}")

    first, last, null = positions(ast)
    # Bytes with the same successors share one frozenset in a row. A row
    # with one target, as every row of a literal, is one call. In a wider
    # row a target that reads one byte grows that byte's set, the first
    # that reads several gives them one set, and a later one grows each
    # set of the row once.
    byte_transitions: dict[int, dict[int, frozenset[int]]] = {}
    for q, targets in [(0, first), *follow.items()]:
        if len(targets) == 1:
            (p,) = targets
            row = dict.fromkeys(reads[p], frozenset(targets))
        else:
            row = {}
            for p in sorted(targets):
                into = reads[p]
                if len(into) == 1:
                    row[into[0]] = row.get(into[0], _EMPTY) | {p}
                elif not row:
                    row = dict.fromkeys(into, frozenset((p,)))
                else:
                    grown: dict[frozenset[int], frozenset[int]] = {}
                    for byte in into:
                        old = row.get(byte, _EMPTY)
                        new = grown.get(old)
                        if new is None:
                            new = grown[old] = old | {p}
                        row[byte] = new
        if row:
            byte_transitions[q] = row
    finals = dict.fromkeys(last | {0} if null else last, frozenset({0}))
    return Automaton(set(range(len(reads))), 0, byte_transitions, {}, finals)


def nfa_to_dfa(nfa: Automaton) -> Automaton:
    """Subset construction. Language-preserving; output has no epsilon edges
    and at most one successor per (state, byte), and a subset accepts the
    labels of all its final members.

    Raises StateCeilingExceeded when more than DEFAULT_STATE_CEILING subset
    states would be created.
    """
    ceiling = DEFAULT_STATE_CEILING
    start = frozenset(epsilon_closure(nfa, {nfa.initial}))
    ids: dict[frozenset[int], int] = {start: 0}
    worklist = [start]
    byte_transitions: dict[int, dict[int, frozenset[int]]] = {}
    single: dict[int, frozenset[int]] = {}      # subset id -> {id}, shared

    closed: dict[frozenset[int], frozenset[int]] = {}  # outgoing -> {tid}
    while worklist:
        subset = worklist.pop()
        sid = ids[subset]
        outgoing: dict[int, set[int]] = {}
        for s in subset:
            for byte, succ in nfa.byte_transitions.get(s, {}).items():
                outgoing.setdefault(byte, set()).update(succ)
        for byte, succ in outgoing.items():
            key = frozenset(succ)
            hit = closed.get(key)
            if hit is None:
                target = frozenset(epsilon_closure(nfa, succ))
                if target not in ids:
                    if len(ids) >= ceiling:
                        raise StateCeilingExceeded(ceiling)
                    ids[target] = len(ids)
                    worklist.append(target)
                tid = ids[target]
                if tid not in single:
                    single[tid] = frozenset((tid,))
                hit = closed[key] = single[tid]
            byte_transitions.setdefault(sid, {})[byte] = hit

    finals = nfa.final_labels
    final_labels = {sid: labels for subset, sid in ids.items()
                    if (labels := frozenset().union(
                        *(finals[s] for s in subset if s in finals)))}
    return Automaton(set(range(len(ids))), 0, byte_transitions, {},
                     final_labels)


def _chain(data: bytes) -> Automaton:
    """The Glushkov machine of the literal `data`: state i reads data[i]
    into state i + 1, and the last state is final."""
    n = len(data)
    return Automaton(set(range(n + 1)), 0,
                     {i: {byte: frozenset((i + 1,))}
                      for i, byte in enumerate(data)},
                     {}, {n: frozenset((0,))})


def compile_pattern(pattern: str | bytes, form: str = "nfa") -> Automaton:
    """Compile one pattern, text (as its UTF-8 bytes) or bytes-like.

    form: "nfa", the Glushkov machine, or "dfa", its subset construction
    (over the state ceiling raises StateCeilingExceeded). A non-empty
    pattern with no metacharacter is a literal, and its Glushkov machine,
    a chain, is built from its bytes; every other pattern goes through
    parse_regex and compile_nfa. A pattern that matches the empty string,
    which is when the Glushkov machine's initial state is final, gives a
    NullablePatternWarning.
    """
    if form not in ("nfa", "dfa"):
        raise ValueError(f"unknown form {form!r}")
    data = pattern_bytes(pattern)
    if data and METACHARS.isdisjoint(data):
        nfa = _chain(data)
    else:
        nfa = compile_nfa(parse_regex(data))
        if 0 in nfa.final_labels:
            warnings.warn(
                f"pattern {pattern!r} matches the empty string; "
                "zero-length matches are never reported",
                NullablePatternWarning, stacklevel=2)
    return nfa if form == "nfa" else nfa_to_dfa(nfa)


def read_pattern_file(lines) -> list[tuple[str, str]]:
    """Parse a pattern file into (label, pattern) pairs.

    One pattern per line; `#` lines are comments; an optional
    `label<TAB>pattern` form, otherwise the pattern text is its own label.
    """
    out = []
    for raw in lines:
        line = raw.rstrip("\n")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        if "\t" in line:
            label, pattern = line.split("\t", 1)
        else:
            label = pattern = line
        out.append((label, pattern))
    return out
