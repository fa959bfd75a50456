"""Shared finite-state-machine representation and its primitive algorithms.

One Automaton type covers NFAs, DFAs, and the multi-pattern union machine.
State ids are small ints, dense for freshly built machines; the union
machine may develop holes after live pattern removal (ids of surviving
states never change).

Epsilon closure, forward reachability and the backward walk to a final
are one graph search, `_search`, each over its own edge relation.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class Automaton:
    states: set[int]
    initial: int
    # state -> byte -> successor set; the builders freeze every set and
    # share one object among the bytes of a row that have equal successors
    byte_transitions: dict[int, dict[int, frozenset[int]]]
    # state -> epsilon successor set; the builders freeze every set
    epsilon_transitions: dict[int, frozenset[int]]
    # final state -> the non-empty set of label ids it accepts; the only
    # record of which states are final
    final_labels: dict[int, frozenset[int]]

    @property
    def finals(self):
        """The final states: a read-only view of final_labels' keys."""
        return self.final_labels.keys()


def _search(seeds, step) -> set[int]:
    """The seeds and every state reached from one by repeated `step`, a
    function from a state to the states one edge away."""
    seen = set(seeds)
    stack = list(seeds)
    while stack:
        for t in step(stack.pop()):
            if t not in seen:
                seen.add(t)
                stack.append(t)
    return seen


def epsilon_closure(a: Automaton, seeds: set[int]) -> set[int]:
    """Least set containing the seeds and closed under epsilon edges."""
    return _search(seeds, lambda s: a.epsilon_transitions.get(s, ()))


def validate(a: Automaton) -> list[str]:
    """Check structural invariants; returns one message per violation."""
    problems = []
    if a.initial not in a.states:
        problems.append(f"initial state {a.initial} not in state set")
    for f in a.finals:
        if f not in a.states:
            problems.append(f"final state {f} not in state set")
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


def _target_sets(a: Automaton, s: int) -> tuple:
    """s's successor sets: its epsilon set, then its row's, one per byte."""
    return (a.epsilon_transitions.get(s, ()),
            *a.byte_transitions.get(s, {}).values())


def successors(a: Automaton, s: int) -> set[int]:
    """Targets of every byte and epsilon edge leaving s."""
    return set().union(*_target_sets(a, s))


def reachable(a: Automaton, start: int) -> set[int]:
    """Every state reachable from start by byte and epsilon edges, start
    included."""
    return _search((start,), lambda s: successors(a, s))


def predecessors(a: Automaton,
                 states) -> tuple[dict[int, list[int]], set[int]]:
    """The byte and epsilon edges between `states`, as each target's list
    of sources, and the states with an edge leaving `states`; each row is
    read once."""
    preds: dict[int, list[int]] = {}
    exits: set[int] = set()
    for s in states:
        for succ in _target_sets(a, s):
            for t in succ:
                if t in states:
                    preds.setdefault(t, []).append(s)
                else:
                    exits.add(s)
    return preds, exits


def walk_back(preds: dict[int, list[int]], seeds) -> set[int]:
    """The seeds and every state with a path to one, over the edges that
    `preds` (target -> sources) records."""
    return _search(seeds, lambda t: preds.get(t, ()))


def useful(a: Automaton, start: int) -> set[int]:
    """The states on a path from start to a final state, by byte and
    epsilon edges, and start itself."""
    seen = reachable(a, start)
    return walk_back(predecessors(a, seen)[0], seen & a.finals) | {start}
