"""Shared finite-state-machine representation and its primitive algorithms.

One Automaton type covers NFAs, DFAs, and the multi-pattern union machine;
the derived `deterministic` property tells which discipline an instance obeys.
State ids are small ints, dense for freshly built machines; the union
machine may develop holes after live pattern removal (ids of surviving
states never change).
"""

from __future__ import annotations

from dataclasses import dataclass

FORMAT_HEADER = "PFSM-AUT v1"


class AutomatonFormatError(ValueError):
    """Malformed automaton file."""


@dataclass
class Automaton:
    states: set[int]
    initial: int
    # state -> byte -> successor set
    byte_transitions: dict[int, dict[int, set[int]]]
    # state -> successor set
    epsilon_transitions: dict[int, set[int]]
    finals: set[int]
    final_labels: dict[int, int]

    @property
    def deterministic(self) -> bool:
        """True iff no epsilon edges and at most one successor per (state, byte)."""
        if any(self.epsilon_transitions.get(s) for s in self.states):
            return False
        for s in self.states:
            for succ in self.byte_transitions.get(s, {}).values():
                if len(succ) > 1:
                    return False
        return True


def make_automaton(states, initial, byte_transitions, epsilon_transitions,
                   finals, final_labels) -> Automaton:
    return Automaton(set(states), initial, byte_transitions, epsilon_transitions,
                     set(finals), dict(final_labels))


def epsilon_closure(a: Automaton, seeds: set[int]) -> set[int]:
    """Least set containing the seeds and closed under epsilon edges."""
    closure = set(seeds)
    stack = list(seeds)
    while stack:
        s = stack.pop()
        for t in a.epsilon_transitions.get(s, ()):
            if t not in closure:
                closure.add(t)
                stack.append(t)
    return closure


def step(a: Automaton, sources: set[int], byte: int) -> set[int]:
    """Union of byte successors over the sources. No closure is applied."""
    out: set[int] = set()
    for s in sources:
        out |= a.byte_transitions.get(s, {}).get(byte, set())
    return out


def validate(a: Automaton) -> list[str]:
    """Check structural invariants; returns one message per violation."""
    problems = []
    if a.initial not in a.states:
        problems.append(f"initial state {a.initial} not in state set")
    for f in a.finals:
        if f not in a.states:
            problems.append(f"final state {f} not in state set")
        if f not in a.final_labels:
            problems.append(f"unlabeled final {f}")
    for f in a.final_labels:
        if f not in a.finals:
            problems.append(f"label on non-final state {f}")
    for s, table in a.byte_transitions.items():
        if s not in a.states:
            problems.append(f"transition source {s} not in state set")
        for byte, succ in table.items():
            if not 0 <= byte <= 255:
                problems.append(f"transition byte {byte} out of range")
            for t in succ:
                if t not in a.states:
                    problems.append(f"dangling endpoint {t} (from {s} on {byte:#04x})")
    for s, succ in a.epsilon_transitions.items():
        if s not in a.states:
            problems.append(f"epsilon source {s} not in state set")
        for t in succ:
            if t not in a.states:
                problems.append(f"dangling epsilon endpoint {t} (from {s})")
    return problems


def dump_lines(a: Automaton, label_text) -> list[str]:
    """Serialize to the line-oriented interchange format.

    label_text maps a label id to its text (e.g. LabelRegistry.text).
    Deterministic output: states and transitions in sorted order.
    """
    lines = [FORMAT_HEADER]
    for s in sorted(a.states):
        parts = [f"state {s}"]
        if s == a.initial:
            parts.append("initial")
        if s in a.finals:
            parts.append(f"final {label_text(a.final_labels[s])}")
        lines.append(" ".join(parts))
    for s in sorted(a.byte_transitions):
        for byte in sorted(a.byte_transitions[s]):
            for t in sorted(a.byte_transitions[s][byte]):
                lines.append(f"trans {s} 0x{byte:02X} {t}")
    for s in sorted(a.epsilon_transitions):
        for t in sorted(a.epsilon_transitions[s]):
            lines.append(f"eps {s} {t}")
    return lines


def parse_lines(lines) -> tuple[Automaton, dict[int, str], list[str]]:
    """Parse the interchange format.

    Returns (automaton, final state id -> label text, extra lines).
    Extra lines are the ones with directives this layer does not know
    (the union-machine loader consumes `pattern` lines from them).
    Raises AutomatonFormatError on malformed input; the caller should run
    validate() on the result.
    """
    it = iter(lines)
    try:
        header = next(it).strip()
    except StopIteration:
        raise AutomatonFormatError("empty automaton file") from None
    if header != FORMAT_HEADER:
        raise AutomatonFormatError(f"bad header {header!r}, expected {FORMAT_HEADER!r}")

    states: set[int] = set()
    initial: int | None = None
    byte_transitions: dict[int, dict[int, set[int]]] = {}
    epsilon_transitions: dict[int, set[int]] = {}
    finals: set[int] = set()
    final_texts: dict[int, str] = {}
    extra: list[str] = []

    for lineno, raw in enumerate(it, start=2):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        kind = tokens[0]
        try:
            if kind == "state":
                sid = int(tokens[1])
                states.add(sid)
                rest = tokens[2:]
                if rest and rest[0] == "initial":
                    if initial is not None:
                        raise AutomatonFormatError(f"line {lineno}: second initial state")
                    initial = sid
                    rest = rest[1:]
                if rest:
                    if rest[0] != "final":
                        raise AutomatonFormatError(f"line {lineno}: unknown marker {rest[0]!r}")
                    if len(rest) < 2:
                        raise AutomatonFormatError(f"line {lineno}: final without label")
                    finals.add(sid)
                    final_texts[sid] = " ".join(rest[1:])
            elif kind == "trans":
                frm, byte, to = int(tokens[1]), int(tokens[2], 16), int(tokens[3])
                byte_transitions.setdefault(frm, {}).setdefault(byte, set()).add(to)
            elif kind == "eps":
                frm, to = int(tokens[1]), int(tokens[2])
                epsilon_transitions.setdefault(frm, set()).add(to)
            else:
                extra.append(line)
        except AutomatonFormatError:
            raise
        except (IndexError, ValueError) as exc:
            raise AutomatonFormatError(f"line {lineno}: {exc}") from exc

    if initial is None:
        raise AutomatonFormatError("no initial state declared")

    # Label ids are assigned by the caller; use a placeholder numbering here.
    texts = sorted(set(final_texts.values()))
    text_id = {t: i for i, t in enumerate(texts)}
    final_labels = {s: text_id[t] for s, t in final_texts.items()}
    a = make_automaton(states, initial, byte_transitions, epsilon_transitions,
                       finals, final_labels)
    return a, final_texts, extra


class LabelRegistry:
    """Bijection between label ids and label texts. Append-only."""

    def __init__(self):
        self._texts: list[str] = []
        self._ids: dict[str, int] = {}

    def intern(self, text: str) -> int:
        """Return the id for text, allocating one if unseen."""
        if text in self._ids:
            return self._ids[text]
        lid = len(self._texts)
        self._texts.append(text)
        self._ids[text] = lid
        return lid

    def id_of(self, text: str) -> int:
        return self._ids[text]

    def text(self, label_id: int) -> str:
        return self._texts[label_id]

    def __contains__(self, text: str) -> bool:
        return text in self._ids

    def __len__(self) -> int:
        return len(self._texts)

    def copy(self) -> "LabelRegistry":
        r = LabelRegistry()
        r._texts = list(self._texts)
        r._ids = dict(self._ids)
        return r
