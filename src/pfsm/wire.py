"""The `PFSM-AUT` text format of machine dumps.

A dump is a header line, then one directive per line, split on
whitespace; blank lines and lines starting with `#` are skipped:

    PFSM-AUT v2
    state <id> [initial]
    final <state> <label>
    trans <from> 0x<HH> <to>
    eps <from> <to>
    pattern <label> <entry state>

Every integer has one spelling: ASCII decimal digits with no sign, `_` or
leading zero; a byte is `0x` and two upper-case hex digits. A state is
declared once and a (state, label) pair is listed once. An error about a
line names it (`line N:`).

A `final` line makes a state accept a label, the rest of the line; a
state accepts each label it is listed with, so one DFA state may end
several patterns.

A `pattern` line names a label and its machine's entry state. Lines that
name one entry share that machine (the literal trie is one): its states
are the entry and those on a path from the entry to a final, and each
label owns the states on its paths from the entry to its finals. Every
other state but the initial one is dropped at load, with the edges into
it, so a sink state costs no live tags. Machines may not share states, an
edge may not leave its machine, and a final must carry a label of its own
machine. A dump without `pattern` lines is a plain machine; its initial
state and the states on its paths to a final load as one machine that
keeps the labels of its finals, or, with no final state, the dump is the
empty union. It is checked as a dump with a `pattern` line for each label
at that machine's entry would be, so a label whose finals the initial
state never reaches is refused.
"""

from __future__ import annotations

import re

from .automaton import Automaton, reachable, validate
from .union import Pfsm, assemble, validate_pfsm, wrap_machine

AUTOMATON_HEADER = "PFSM-AUT v2"

_DECIMAL = re.compile(r"0|[1-9][0-9]*")
_BYTE = re.compile(r"0x[0-9A-F]{2}")


class AutomatonFormatError(ValueError):
    """Malformed `PFSM-AUT` dump."""


def _int(token: str, what: str, spelling: re.Pattern = _DECIMAL) -> int:
    """The value of `token`, which must be in its one spelling."""
    if not spelling.fullmatch(token):
        raise ValueError(f"{what} {token} does not match {spelling.pattern}")
    return int(token, 0)


def _malformed(tokens: list[str]) -> ValueError:
    """The error for a directive line with too few or too many fields."""
    return ValueError(f"malformed {tokens[0]} line {' '.join(tokens)!r}")


def _read(text: str, directive) -> None:
    """Check the header of `text`, then pass each directive line's tokens
    to `directive`; a ValueError it raises becomes an
    AutomatonFormatError, prefixed with the line number."""
    lines = text.splitlines()
    if not lines:
        raise AutomatonFormatError(f"line 1: empty file, expected header "
                                   f"{AUTOMATON_HEADER!r}")
    if lines[0].strip() != AUTOMATON_HEADER:
        raise AutomatonFormatError(f"line 1: bad header {lines[0].strip()!r}, "
                                   f"expected {AUTOMATON_HEADER!r}")
    for lineno, line in enumerate(lines[1:], start=2):
        tokens = line.split()
        if tokens and not tokens[0].startswith("#"):
            try:
                directive(tokens)
            except ValueError as exc:
                raise AutomatonFormatError(f"line {lineno}: {exc}") from None


def dump_pfsm(p: Pfsm) -> str:
    """The machine's dump, states and edges in sorted order. Raises
    ValueError for what the loader would not read back unchanged: a label
    (lines are split on whitespace runs), an edge byte outside 0-255 or a
    label whose entry reaches none of its finals."""
    machines: dict[int, list[int]] = {}   # entry state -> its label ids
    for lid, entry in p.directory.items():
        if not entry.label or " ".join(entry.label.split()) != entry.label:
            raise ValueError(f"label {entry.label!r} cannot be dumped: it is "
                             f"empty or has irregular whitespace")
        machines.setdefault(entry.entry, []).append(lid)
    a = p.automaton
    for start, lids in machines.items():
        accepted = set().union(*(a.final_labels.get(s, ())
                                 for s in reachable(a, start)))
        for lid in lids:
            if lid not in accepted:
                raise ValueError(f"pattern {p.label_text(lid)!r} reaches "
                                 f"none of its finals")
    lines = [AUTOMATON_HEADER]
    lines += (f"state {s} initial" if s == a.initial else f"state {s}"
              for s in sorted(a.states))
    lines += (f"final {s} {p.label_text(lid)}"
              for s, labels in sorted(a.final_labels.items())
              for lid in sorted(labels))
    for s, table in sorted(a.byte_transitions.items()):
        for byte in sorted(table):
            if not 0 <= byte <= 255:
                raise ValueError(f"state {s} has an edge on byte {byte}, "
                                 f"outside 0-255: it cannot be dumped")
            lines += (f"trans {s} 0x{byte:02X} {t}" for t in sorted(table[byte]))
    for s, succ in sorted(a.epsilon_transitions.items()):
        lines += (f"eps {s} {t}" for t in sorted(succ))
    lines += (f"pattern {p.directory[lid].label} {p.directory[lid].entry}"
              for lid in sorted(p.directory))
    return "\n".join(lines) + "\n"


def load_pfsm(text: str) -> Pfsm:
    """Load a union machine from its dump.

    Label ids follow the order of the `pattern` lines. Lines that name one
    entry state share its machine: each of their labels owns the states
    on its paths from the entry to its finals. A state on no path from an
    entry to a final is dropped, with the edges into it. The literal trie
    is the lowest-numbered machine shaped as one. A pattern that could
    never match, because no `final` line names its label or its entry
    reaches none of its finals, is refused.

    A plain automaton dump without `pattern` lines (an externally produced
    machine) is wrapped as one machine, of its initial state and the
    states on its paths to a final, that keeps the labels of its finals,
    numbered in the order they first appear, and then loads as if each
    label had a `pattern` line naming the machine's entry. A dump with no
    `pattern` line and no final state is the empty union.
    """
    a = Automaton(set(), None, {}, {}, {})   # no initial state yet
    finals: dict[tuple[int, str], None] = {}  # (state, label) in line order
    entries: dict[str, int] = {}              # pattern label -> entry state

    def directive(tokens: list[str]) -> None:
        kind = tokens[0]
        if kind == "state":
            if len(tokens) < 2:
                raise _malformed(tokens)
            sid, *rest = tokens[1:]
            s = _int(sid, "state")
            if s in a.states:
                raise ValueError(f"state {s} declared twice")
            a.states.add(s)
            if rest[:1] == ["initial"]:
                if a.initial is not None:
                    raise ValueError("second initial state")
                a.initial, rest = s, rest[1:]
            if rest:
                raise ValueError(f"unknown marker {rest[0]!r}")
        elif kind == "final":
            if len(tokens) < 3:
                raise ValueError("final without label")
            pair = (_int(tokens[1], "final state"), " ".join(tokens[2:]))
            if pair in finals:
                raise ValueError(f"final {pair[0]} {pair[1]!r} listed twice")
            finals[pair] = None
        elif kind == "trans":
            if len(tokens) != 4:
                raise _malformed(tokens)
            frm, byte, to = tokens[1:]
            table = a.byte_transitions.setdefault(_int(frm, "transition source"), {})
            table.setdefault(_int(byte, "byte", _BYTE), set()).add(
                _int(to, "transition target"))
        elif kind == "eps":
            if len(tokens) != 3:
                raise _malformed(tokens)
            frm, to = tokens[1:]
            a.epsilon_transitions.setdefault(_int(frm, "epsilon source"),
                                             set()).add(_int(to, "epsilon target"))
        elif kind == "pattern":
            line = " ".join(tokens)
            if len(tokens) < 3:
                raise _malformed(tokens)
            label = " ".join(tokens[1:-1])
            if label in entries:
                raise ValueError(f"duplicate pattern label {label!r}")
            entries[label] = _int(tokens[-1], f"malformed pattern line "
                                              f"{line!r}: entry state")
        else:
            raise ValueError(f"unknown directive {kind!r}")

    _read(text, directive)
    if a.initial is None:
        raise AutomatonFormatError("no initial state declared")
    labels = list(entries or dict.fromkeys(label for _, label in finals))
    label_ids = {label: lid for lid, label in enumerate(labels)}
    for f, label in finals:
        if label not in label_ids:
            raise AutomatonFormatError(f"final {f} labeled {label!r} which has "
                                       f"no pattern line")
        a.final_labels[f] = a.final_labels.get(f, frozenset()) | {label_ids[label]}
    _check(validate(a))
    if not entries:
        if labels:
            a, entry = wrap_machine(a)
            entries = dict.fromkeys(labels, entry)
        elif a.states != {a.initial}:
            raise AutomatonFormatError("a dump with no pattern line and no "
                                       "final state is the empty union: it "
                                       "has no state but the initial one")
    for label, entry in entries.items():
        if entry not in a.states:
            raise AutomatonFormatError(f"pattern {label!r} entry state {entry} "
                                       f"is not a state of the machine")
    p = assemble(a, list(entries.items()))
    _check(validate_pfsm(p))
    named = {label for _, label in finals}
    accepted = set().union(*p.automaton.final_labels.values())
    for label, lid in p.label_ids.items():
        if lid not in accepted:
            raise AutomatonFormatError(
                f"pattern {label!r} has no final line" if label not in named
                else f"pattern {label!r} reaches none of its finals")
    return p


def _check(problems: list[str]) -> None:
    if problems:
        raise AutomatonFormatError("; ".join(problems))

