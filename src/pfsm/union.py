"""The union machine: many labeled pattern automata behind one ancillary
initial state, with live add/remove.

The ancillary initial state has one epsilon edge per registered pattern,
each to that pattern's entry state. Every structural change bumps the
generation counter and produces a new Pfsm value; state ids of surviving
patterns never change, so a scanner holding an active set across an update
can reconcile cheaply (or detect the mismatch and abort).

Generations share structure. Once grafted, a state's byte table and
epsilon set are never mutated, so an update copies only the top-level
containers (state set, final labels, the two transition dicts) and the
ancillary state's epsilon set, the one set an update edits. Old
generations therefore stay valid, and an update costs O(states) pointer
copies rather than a copy of every edge. The directory is the only home
of label text and, with its text index `label_ids`, is copied the same
way: a removed label drops out of every later generation. Label ids are
never reused; a label removed and added again gets a new one.
"""

from __future__ import annotations

from dataclasses import dataclass

from .automaton import Automaton, successors, validate


class DuplicateLabelError(ValueError):
    pass


class UnknownLabelError(KeyError):
    pass


@dataclass(frozen=True)
class PatternEntry:
    label: str
    entry: int
    owned: frozenset[int]

    @property
    def n_states(self) -> int:
        return len(self.owned)


@dataclass
class Pfsm:
    automaton: Automaton
    directory: dict[int, PatternEntry]    # label id -> pattern
    label_ids: dict[str, int]             # label text -> label id
    generation: int
    next_state_id: int
    next_label_id: int

    @property
    def initial(self) -> int:
        return self.automaton.initial

    def label_text(self, label_id: int) -> str:
        return self.directory[label_id].label

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
        if s in src.final_labels:
            dst.final_labels[t] = label_id
    return remap


def _append(union: Automaton, directory: dict[int, PatternEntry],
            label_ids: dict[str, int], base: int, lid: int, label: str,
            machine: Automaton) -> int:
    """Graft machine into union at state id base, behind a new q0 edge,
    as label id lid. Returns the next free state id."""
    if label in label_ids:
        raise DuplicateLabelError(f"duplicate label {label!r}")
    try:
        remap = _graft(union, machine, machine.states, base, lid)
        entry = remap[machine.initial]
    except KeyError as exc:
        raise ValueError(f"pattern {label!r}: state {exc.args[0]} is used "
                         f"but not in the machine's state set") from None
    union.epsilon_transitions.setdefault(union.initial, set()).add(entry)
    directory[lid] = PatternEntry(label, entry, frozenset(remap.values()))
    label_ids[label] = lid
    return base + len(remap)


def _next_generation(a: Automaton) -> Automaton:
    """Copy of the top-level containers, sharing every per-state table
    except the ancillary epsilon set, which an update edits."""
    eps = dict(a.epsilon_transitions)
    eps[a.initial] = set(eps.get(a.initial, ()))
    return Automaton(set(a.states), a.initial, dict(a.byte_transitions), eps,
                     dict(a.final_labels))


def build_pfsm(patterns: list[tuple[str, Automaton]]) -> Pfsm:
    """Assemble labeled pattern machines into a union machine."""
    union = Automaton({0}, 0, {}, {}, {})
    directory: dict[int, PatternEntry] = {}
    label_ids: dict[str, int] = {}
    next_id = 1
    for lid, (label, machine) in enumerate(patterns):
        next_id = _append(union, directory, label_ids, next_id, lid, label,
                          machine)
    return Pfsm(union, directory, label_ids, 0, next_id, len(patterns))


def add_pattern(p: Pfsm, label: str, machine: Automaton) -> Pfsm:
    """New generation with the pattern appended. Existing state ids unchanged."""
    union = _next_generation(p.automaton)
    directory, label_ids = dict(p.directory), dict(p.label_ids)
    next_id = _append(union, directory, label_ids, p.next_state_id,
                      p.next_label_id, label, machine)
    return Pfsm(union, directory, label_ids, p.generation + 1, next_id,
                p.next_label_id + 1)


def remove_pattern(p: Pfsm, label: str) -> Pfsm:
    """New generation with the pattern's states and edges removed.
    Surviving state ids are unchanged; removed ids are never reused."""
    if label not in p.label_ids:
        raise UnknownLabelError(label)
    lid = p.label_ids[label]
    entry = p.directory[lid]
    union = _next_generation(p.automaton)
    for s in entry.owned:
        union.states.discard(s)
        union.byte_transitions.pop(s, None)
        union.epsilon_transitions.pop(s, None)
        union.final_labels.pop(s, None)
    union.epsilon_transitions[union.initial].discard(entry.entry)
    directory, label_ids = dict(p.directory), dict(p.label_ids)
    del directory[lid], label_ids[label]
    return Pfsm(union, directory, label_ids, p.generation + 1,
                p.next_state_id, p.next_label_id)


def extract_pattern(p: Pfsm, label_id: int) -> Automaton:
    """The stand-alone machine of one pattern, renumbered to dense ids.
    Finals carry label 0 (single-pattern convention)."""
    if label_id not in p.directory:
        raise UnknownLabelError(label_id)
    entry = p.directory[label_id]
    out = Automaton(set(), 0, {}, {}, {})
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
        for s in sorted(entry.owned):
            outside = successors(a, s) - entry.owned
            if outside:
                problems.append(f"pattern {entry.label!r} state {s} has edges "
                                f"leaving the pattern, to {sorted(outside)}")
        for f in sorted(entry.owned & a.finals):
            if a.final_labels[f] != lid:
                other = p.directory.get(a.final_labels[f])
                text = other.label if other else a.final_labels[f]
                problems.append(f"final {f} is labeled {text!r} but owned by "
                                f"pattern {entry.label!r}")
    if seen | {a.initial} != a.states:
        problems.append("pattern directory does not partition the non-initial states")
    if a.byte_transitions.get(a.initial):
        problems.append("ancillary initial state has byte transitions")
    if a.initial in a.final_labels:
        problems.append("ancillary initial state is final")
    q0_eps = a.epsilon_transitions.get(a.initial, set())
    entries = {e.entry for e in p.directory.values()}
    if q0_eps != entries:
        problems.append("ancillary epsilon edges do not match pattern entries")
    return problems
