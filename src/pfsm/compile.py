"""Compile syntax trees into automata.

compile_nfa is a Thompson-style construction: every machine it produces has
exactly one initial state and exactly one final state with no outgoing
edges, which is the shape the union-machine builder relies on.

nfa_to_dfa is epsilon-closure subset construction under the fixed state
ceiling DEFAULT_STATE_CEILING (10,000 states); overflow raises
StateCeilingExceeded so the caller can keep the NFA form instead.
"""

from __future__ import annotations

import warnings

from .automaton import Automaton, epsilon_closure
from .syntax import (Alt, ByteClass, Concat, Empty, Literal, Node, Opt, Plus,
                     Star, nullable, parse_regex)

DEFAULT_STATE_CEILING = 10_000


class StateCeilingExceeded(RuntimeError):
    """Subset construction would exceed the configured state budget."""

    def __init__(self, ceiling: int):
        super().__init__(f"subset construction exceeded {ceiling} states")
        self.ceiling = ceiling


class NullablePatternWarning(UserWarning):
    """Pattern matches the empty string; zero-length matches are never reported."""


class _Builder:
    def __init__(self):
        self.n = 0
        self.byte_transitions: dict[int, dict[int, set[int]]] = {}
        self.epsilon: dict[int, set[int]] = {}

    def fresh(self) -> int:
        s = self.n
        self.n += 1
        return s

    def edge(self, frm: int, byte: int, to: int):
        self.byte_transitions.setdefault(frm, {}).setdefault(byte, set()).add(to)

    def eps(self, frm: int, to: int):
        self.epsilon.setdefault(frm, set()).add(to)

    def fragment(self, node: Node) -> tuple[int, int]:
        """Build the machine for node; returns (entry, exit)."""
        if isinstance(node, Empty):
            i, f = self.fresh(), self.fresh()
            self.eps(i, f)
            return i, f
        if isinstance(node, Literal):
            i, f = self.fresh(), self.fresh()
            self.edge(i, node.byte, f)
            return i, f
        if isinstance(node, ByteClass):
            i, f = self.fresh(), self.fresh()
            for b in node.bytes_:
                self.edge(i, b, f)
            return i, f
        if isinstance(node, Concat):
            entry, cur = self.fragment(node.parts[0])
            for part in node.parts[1:]:
                i, f = self.fragment(part)
                self.eps(cur, i)
                cur = f
            return entry, cur
        if isinstance(node, Alt):
            i, f = self.fresh(), self.fresh()
            for choice in node.choices:
                ci, cf = self.fragment(choice)
                self.eps(i, ci)
                self.eps(cf, f)
            return i, f
        if isinstance(node, Star):
            i, f = self.fresh(), self.fresh()
            ci, cf = self.fragment(node.child)
            self.eps(i, ci)
            self.eps(i, f)
            self.eps(cf, ci)
            self.eps(cf, f)
            return i, f
        if isinstance(node, Plus):
            i, f = self.fresh(), self.fresh()
            ci, cf = self.fragment(node.child)
            self.eps(i, ci)
            self.eps(cf, ci)
            self.eps(cf, f)
            return i, f
        if isinstance(node, Opt):
            i, f = self.fresh(), self.fresh()
            ci, cf = self.fragment(node.child)
            self.eps(i, ci)
            self.eps(i, f)
            self.eps(cf, f)
            return i, f
        raise TypeError(f"unknown node {node!r}")


def compile_nfa(ast: Node) -> Automaton:
    """Thompson construction: single initial state, single edge-free final state."""
    b = _Builder()
    entry, exit_ = b.fragment(ast)
    return Automaton(set(range(b.n)), entry, b.byte_transitions, b.epsilon,
                     {exit_: 0})


def nfa_to_dfa(nfa: Automaton) -> Automaton:
    """Subset construction. Language-preserving; output has no epsilon edges
    and at most one successor per (state, byte).

    Raises StateCeilingExceeded when more than DEFAULT_STATE_CEILING subset
    states would be created.
    """
    ceiling = DEFAULT_STATE_CEILING
    start = frozenset(epsilon_closure(nfa, {nfa.initial}))
    ids: dict[frozenset[int], int] = {start: 0}
    worklist = [start]
    byte_transitions: dict[int, dict[int, set[int]]] = {}
    final_labels: dict[int, int] = {}

    def label_of(subset: frozenset[int]) -> int | None:
        labs = sorted(nfa.final_labels[s] for s in subset if s in nfa.final_labels)
        return labs[0] if labs else None

    lab = label_of(start)
    if lab is not None:
        final_labels[0] = lab

    while worklist:
        subset = worklist.pop()
        sid = ids[subset]
        outgoing: dict[int, set[int]] = {}
        for s in subset:
            for byte, succ in nfa.byte_transitions.get(s, {}).items():
                outgoing.setdefault(byte, set()).update(succ)
        for byte, succ in outgoing.items():
            target = frozenset(epsilon_closure(nfa, succ))
            if target not in ids:
                if len(ids) >= ceiling:
                    raise StateCeilingExceeded(ceiling)
                ids[target] = len(ids)
                worklist.append(target)
                lab = label_of(target)
                if lab is not None:
                    final_labels[ids[target]] = lab
            byte_transitions.setdefault(sid, {}).setdefault(byte, set()).add(ids[target])

    return Automaton(set(range(len(ids))), 0, byte_transitions, {},
                     final_labels)


def compile_pattern(pattern: str | bytes, form: str = "auto") -> Automaton:
    """Parse and compile one pattern.

    form: "nfa", "dfa" (overflow is a hard error), or "auto" (DFA unless the
    state ceiling trips, then the NFA is kept).
    """
    ast = parse_regex(pattern)
    if nullable(ast):
        warnings.warn(
            f"pattern {pattern!r} matches the empty string; "
            "zero-length matches are never reported",
            NullablePatternWarning, stacklevel=2)
    nfa = compile_nfa(ast)
    if form == "nfa":
        return nfa
    if form == "dfa":
        return nfa_to_dfa(nfa)
    if form == "auto":
        try:
            return nfa_to_dfa(nfa)
        except StateCeilingExceeded:
            return nfa
    raise ValueError(f"unknown form {form!r}")


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
