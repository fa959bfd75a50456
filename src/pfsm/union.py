"""The union machine: many labeled pattern automata behind one ancillary
initial state, with live add/remove.

The ancillary initial state has one epsilon edge per registered pattern,
each to that pattern's entry state. Every structural change bumps the
generation counter and produces a new Pfsm value; state ids of surviving
patterns never change, so a scanner holding an active set across an update
can reconcile cheaply (or detect the mismatch and abort).

Generations share structure. Once grafted, a state's byte table and
epsilon set are never mutated, so an update copies only the top-level
containers (state set, finals, final labels, the two transition dicts)
and the ancillary state's epsilon set, the one set an update edits. Old
generations therefore stay valid, and an update costs O(states) pointer
copies rather than a copy of every edge.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .automaton import (Automaton, AutomatonFormatError, LabelRegistry,
                        dump_lines, make_automaton, parse_lines, validate)


class DuplicateLabelError(ValueError):
    pass


class UnknownLabelError(KeyError):
    pass


@dataclass(frozen=True)
class PatternEntry:
    label_id: int
    label: str
    entry: int
    owned: frozenset[int]

    @property
    def n_states(self) -> int:
        return len(self.owned)


@dataclass
class Pfsm:
    automaton: Automaton
    labels: LabelRegistry
    directory: dict[int, PatternEntry]
    generation: int = 0
    next_state_id: int = field(default=0)

    @property
    def initial(self) -> int:
        return self.automaton.initial

    def label_text(self, label_id: int) -> str:
        return self.labels.text(label_id)

    def live_labels(self) -> list[int]:
        return sorted(self.directory)


def _graft(dst: Automaton, src: Automaton, states, base: int,
           label_id: int) -> dict[int, int]:
    """Copy `states` of src, with their edges, into dst, renumbered as
    base, base+1, ... in sorted order; finals are relabeled label_id.
    Every edge must stay inside `states`. Returns the renumbering."""
    remap = {s: base + i for i, s in enumerate(sorted(states))}
    for s, t in remap.items():
        dst.states.add(t)
        table = src.byte_transitions.get(s)
        if table:
            dst.byte_transitions[t] = {b: {remap[u] for u in succ}
                                       for b, succ in table.items()}
        succ = src.epsilon_transitions.get(s)
        if succ:
            dst.epsilon_transitions[t] = {remap[u] for u in succ}
        if s in src.finals:
            dst.finals.add(t)
            dst.final_labels[t] = label_id
    return remap


def _append(union: Automaton, labels: LabelRegistry,
            directory: dict[int, PatternEntry], base: int, label: str,
            machine: Automaton) -> int:
    """Graft machine into union at state id base, behind a new q0 edge.
    Returns the next free state id."""
    if label in labels and labels.id_of(label) in directory:
        raise DuplicateLabelError(f"duplicate label {label!r}")
    lid = labels.intern(label)
    remap = _graft(union, machine, machine.states, base, lid)
    entry = remap[machine.initial]
    union.epsilon_transitions.setdefault(union.initial, set()).add(entry)
    directory[lid] = PatternEntry(lid, label, entry, frozenset(remap.values()))
    return base + len(remap)


def _next_generation(a: Automaton) -> Automaton:
    """Copy of the top-level containers, sharing every per-state table
    except the ancillary epsilon set, which an update edits."""
    eps = dict(a.epsilon_transitions)
    eps[a.initial] = set(eps.get(a.initial, ()))
    return Automaton(set(a.states), a.initial, dict(a.byte_transitions), eps,
                     set(a.finals), dict(a.final_labels))


def build_pfsm(patterns: list[tuple[str, Automaton]]) -> Pfsm:
    """Assemble labeled pattern machines into a union machine."""
    union = Automaton({0}, 0, {}, {}, set(), {})
    labels = LabelRegistry()
    directory: dict[int, PatternEntry] = {}
    next_id = 1
    for label, machine in patterns:
        next_id = _append(union, labels, directory, next_id, label, machine)
    return Pfsm(union, labels, directory, generation=0, next_state_id=next_id)


def add_pattern(p: Pfsm, label: str, machine: Automaton) -> Pfsm:
    """New generation with the pattern appended. Existing state ids unchanged."""
    union = _next_generation(p.automaton)
    labels = p.labels.copy()
    directory = dict(p.directory)
    next_id = _append(union, labels, directory, p.next_state_id, label, machine)
    return Pfsm(union, labels, directory, p.generation + 1, next_id)


def remove_pattern(p: Pfsm, label: str) -> Pfsm:
    """New generation with the pattern's states and edges removed.
    Surviving state ids are unchanged; removed ids are never reused."""
    if label not in p.labels or p.labels.id_of(label) not in p.directory:
        raise UnknownLabelError(label)
    lid = p.labels.id_of(label)
    entry = p.directory[lid]
    union = _next_generation(p.automaton)
    for s in entry.owned:
        union.states.discard(s)
        union.byte_transitions.pop(s, None)
        union.epsilon_transitions.pop(s, None)
        union.finals.discard(s)
        union.final_labels.pop(s, None)
    union.epsilon_transitions[union.initial].discard(entry.entry)
    directory = dict(p.directory)
    del directory[lid]
    # Shared registry: it is append-only and add_pattern copies it first.
    return Pfsm(union, p.labels, directory, p.generation + 1, p.next_state_id)


def extract_pattern(p: Pfsm, label_id: int) -> Automaton:
    """The stand-alone machine of one pattern, renumbered to dense ids.
    Finals carry label 0 (single-pattern convention)."""
    if label_id not in p.directory:
        raise UnknownLabelError(p.labels.text(label_id)
                                if label_id < len(p.labels) else label_id)
    entry = p.directory[label_id]
    out = Automaton(set(), 0, {}, {}, set(), {})
    out.initial = _graft(out, p.automaton, entry.owned, 0, 0)[entry.entry]
    return out


def validate_pfsm(p: Pfsm) -> list[str]:
    """Automaton invariants plus union-machine bookkeeping invariants."""
    problems = validate(p.automaton)
    a = p.automaton
    seen: set[int] = set()
    for lid, entry in p.directory.items():
        if entry.owned & seen:
            problems.append(f"pattern {entry.label!r} shares states with another pattern")
        seen |= entry.owned
        if entry.entry not in entry.owned:
            problems.append(f"pattern {entry.label!r} entry state not owned")
        for f in entry.owned & a.finals:
            if a.final_labels.get(f) != lid:
                problems.append(f"final {f} labeled {a.final_labels.get(f)}, owner is {lid}")
    if seen | {a.initial} != a.states:
        problems.append("pattern directory does not partition the non-initial states")
    if a.byte_transitions.get(a.initial):
        problems.append("ancillary initial state has byte transitions")
    q0_eps = a.epsilon_transitions.get(a.initial, set())
    entries = {e.entry for e in p.directory.values()}
    if q0_eps != entries:
        problems.append("ancillary epsilon edges do not match pattern entries")
    return problems


def dump_pfsm_lines(p: Pfsm) -> list[str]:
    """Raises ValueError for a label the loader would not read back
    unchanged: the format splits lines on whitespace runs."""
    for entry in p.directory.values():
        if not entry.label or " ".join(entry.label.split()) != entry.label:
            raise ValueError(f"label {entry.label!r} cannot be dumped: it is "
                             f"empty or has irregular whitespace")
    lines = dump_lines(p.automaton, p.labels.text)
    for lid in sorted(p.directory):
        entry = p.directory[lid]
        lines.append(f"pattern {entry.label} {entry.entry}")
    return lines


def load_pfsm_lines(lines) -> Pfsm:
    """Load a union machine from its interchange dump.

    Also accepts a plain single-automaton dump without `pattern` lines
    (externally produced machines): the whole automaton is wrapped as a
    single pattern.
    """
    a, final_texts, extra = parse_lines(lines)
    problems = validate(a)
    if problems:
        raise AutomatonFormatError("; ".join(problems))

    declared: list[tuple[str, int]] = []
    for line in extra:
        tokens = line.split()
        if tokens[0] != "pattern":
            raise AutomatonFormatError(f"unknown directive {tokens[0]!r}")
        if len(tokens) < 3:
            raise AutomatonFormatError(f"malformed pattern line {line!r}")
        declared.append((" ".join(tokens[1:-1]), int(tokens[-1])))

    if declared:
        return _assemble_from_directory(a, final_texts, declared)
    # No directory: wrap the automaton as one pattern under label "m0"
    # (or its sole final label text when unambiguous).
    texts = sorted(set(final_texts.values()))
    label = texts[0] if len(texts) == 1 else "m0"
    return build_pfsm([(label, a)])


def _assemble_from_directory(a: Automaton, final_texts: dict[int, str],
                             declared: list[tuple[str, int]]) -> Pfsm:
    q0 = a.initial
    labels = LabelRegistry()
    directory: dict[int, PatternEntry] = {}
    # Ownership is reachability from the entry state, excluding q0.
    for label, entry_state in declared:
        if label in labels:
            raise AutomatonFormatError(f"duplicate pattern label {label!r}")
        lid = labels.intern(label)
        owned = _reachable(a, entry_state) - {q0}
        directory[lid] = PatternEntry(lid, label, entry_state, frozenset(owned))
    # Re-key final labels onto registry ids.
    final_labels = {}
    for f, text in final_texts.items():
        if text not in labels:
            raise AutomatonFormatError(f"final {f} labeled {text!r} which has no pattern line")
        final_labels[f] = labels.id_of(text)
    a = make_automaton(a.states, a.initial, a.byte_transitions,
                       a.epsilon_transitions, a.finals, final_labels)
    p = Pfsm(a, labels, directory, generation=0,
             next_state_id=max(a.states) + 1 if a.states else 1)
    problems = validate_pfsm(p)
    if problems:
        raise AutomatonFormatError("; ".join(problems))
    return p


def _reachable(a: Automaton, start: int) -> set[int]:
    seen = {start}
    stack = [start]
    while stack:
        s = stack.pop()
        succ: set[int] = set(a.epsilon_transitions.get(s, ()))
        for targets in a.byte_transitions.get(s, {}).values():
            succ |= targets
        for t in succ:
            if t not in seen:
                seen.add(t)
                stack.append(t)
    return seen


def dump_pfsm(p: Pfsm) -> str:
    return "\n".join(dump_pfsm_lines(p)) + "\n"


def load_pfsm(text: str) -> Pfsm:
    return load_pfsm_lines(text.splitlines())
