"""The union machine: labeled pattern machines behind one ancillary
initial state, with live add/remove.

The ancillary initial state has one epsilon edge per machine, to the
machine's entry state. A machine usually holds one pattern; labels that
share an entry share its machine. Literal patterns share one such machine,
a prefix trie. A literal joins it in one walk that reads the literal's
chain, proving it one, and descends the trie while the bytes match; the
rest of the word branches off with fresh states, its last node final for
its label. The first literal does the same from a fresh root. A final
state carries a set of labels, so a literal whose last node is already
final adds its label to that node. A label owns the states on its paths
from its machine's entry to its finals (a trie label, its path from the
entry to its final), and only labels of one machine share states.

Every structural change bumps the generation counter and produces a new
Pfsm value; surviving state ids never change, so a scanner holding an
active set across an update can reconcile cheaply (or detect the mismatch
and abort).

Generations share structure. Once grafted, a state's byte table and
epsilon set are never mutated, trie tables included: an update copies the
top-level containers (state set, final labels, the two transition dicts),
and then replaces only the tables and sets it changes: the table of the
trie node a word branches from, the ancillary state's epsilon set, and
those with edges into the states a remove drops. Old generations
therefore stay valid, and an update costs O(states) pointer copies rather
than a copy of every edge. A final's label set is a frozenset, replaced
rather than edited, and so is every successor set, byte or epsilon: the
type enforces the rule for them. Within a row, the bytes with equal
successors share one frozenset, so a `[^x]` row holds one or two sets
rather than 255. A graft remaps each source set once, a removal cuts each
set once, and `assemble` freezes the sets of a loaded machine.

Generations also share the scan's seed tables (`engine.SeedTables`), which
a generation builds on its first windowed scan and keeps. An update does
no table work: it gives its child an O(1) record of its one edit, the
entry row it grafted or the states of the machine it removed, linked to
the tables its parent holds or to the parent's own record, so that the
child's first scan patches only the rows those edits touch. A trie or
other shared-machine edit replaces tables that seed rows point at, so it
records nothing and the child builds its tables from scratch, as it does
after more than `_MAX_PENDING` edits that no scan applied. A record holds
rows and state sets, never an automaton or a `Pfsm`.

One rule removes a label from any machine, trie or not, reading only the
label's own states: the label leaves its finals (a final left with no
label stops being final), and of its states only those still final or
leading, inside its own states, to a final or to another label's states
stay, with the entry while another label shares the machine. Edges into
a dropped state come only from the label's own states, since whatever
leads to a state of a label's path lies on that path too. This needs each
state of a shared machine to lie on a path to a final: only the trie and
loaded machines are shared, and the loader keeps only such states. So
memory follows the live patterns. The directory is the only home of label
text and, with its text index `label_ids`, is copied the same way: a
removed label drops out of every later generation. Label ids are never
reused; a label removed and added again gets a new one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .automaton import (Automaton, predecessors, reachable, successors,
                        useful, validate, walk_back)


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
    trie: int | None = None               # entry of the literal trie
    # The scan's seed tables, or a `_pending` record to patch them from.
    _seed: object = field(default=None, init=False, compare=False,
                          repr=False)

    @property
    def initial(self) -> int:
        return self.automaton.initial

    def label_text(self, label_id: int) -> str:
        return self.directory[label_id].label

    def live_labels(self) -> list[int]:
        return sorted(self.directory)


_MAX_PENDING = 8


def _pending(seed, row, gone) -> tuple | None:
    """The seed record of the child, by one edit, of a generation whose
    `_seed` is `seed`: `(seed, row, gone, depth)`. The edit is `row`, the
    byte row of the entry of the machine it added, with `gone` None, or of
    the machine it removed, with that machine's states as `gone`; `depth`
    counts the edits back to the tables. None, so the child builds its
    tables from scratch, past `_MAX_PENDING` edits that no scan applied.
    A plain tuple, since an update builds one on every edit."""
    depth = seed[3] + 1 if type(seed) is tuple else 1
    return (seed, row, gone, depth) if depth <= _MAX_PENDING else None


def _share_row(table: dict, image, memo=None) -> dict[int, frozenset[int]]:
    """`table` with each successor set object replaced by its `image`,
    computed once per object; equal images share one frozenset and empty
    ones are dropped. `memo`, a pair of dicts (id of a successor set -> its
    image, image -> its shared frozenset), carries this across rows; it
    may span rows only while every source set stays alive, since an id
    names an object only during its lifetime."""
    images, shared = memo or ({}, {})
    row = {}
    for b, succ in table.items():
        key = id(succ)
        new = images.get(key)
        if new is None:
            new = image(succ)
            new = images[key] = shared.setdefault(new, new)
        if new:
            row[b] = new
    return row


def _graft(dst: Automaton, src: Automaton, states, base: int,
           labels: dict[int, frozenset[int]],
           clip: bool = False) -> dict[int, int]:
    """Copy `states` of src, with their edges, into dst, renumbered as
    base, base+1, ... in sorted order. `labels` maps each state of src to
    be final in dst to its labels there; no other state is final. An edge
    leaving `states` is dropped when `clip` is set and raises KeyError
    otherwise. Every successor set of src, byte or epsilon, frozen or not,
    is remapped by one `image` into a frozenset; each byte set object is
    remapped once, into a frozenset that every equal image shares.
    Returns the renumbering."""
    remap = {s: base + i for i, s in enumerate(sorted(states))}
    new_id, keys, memo = remap.__getitem__, remap.keys(), ({}, {})

    def image(succ) -> frozenset[int]:
        return frozenset(map(new_id, succ & keys if clip else succ))

    for s, t in remap.items():
        dst.states.add(t)
        table = src.byte_transitions.get(s)
        if table:
            row = _share_row(table, image, memo)
            if row:
                dst.byte_transitions[t] = row
        succ = src.epsilon_transitions.get(s)
        if succ and (succ := image(succ)):
            dst.epsilon_transitions[t] = succ
        if s in labels:
            dst.final_labels[t] = labels[s]
    return remap


def _join_trie(a: Automaton, machine: Automaton, trie: int | None,
               base: int, lid: int) -> tuple[list[int], int] | None:
    """Add `machine` to the trie at `trie` as label lid, if it is a literal:
    no epsilon edges and one final, its states one acyclic path of one-byte
    edges from the initial state to that final, as both forms of a literal
    pattern are. One walk reads the chain and descends the trie while the
    bytes match; the rest of the word branches off with fresh states base,
    base+1, ..., and lid joins the last node's labels. With no trie yet, a
    fresh root at base starts one. Returns the path from the root and the
    next free state id, or None, touching nothing, for any other machine.
    A chain has one (state, byte) edge per state but its final, so any
    other count is refused before the walk; once the walk has met every
    state, each with one edge, that count leaves the final none."""
    trans, s = machine.byte_transitions, machine.initial
    if len(machine.final_labels) != 1 or len(trans.get(s, ())) != 1 \
            or sum(map(len, trans.values())) != len(machine.states) - 1 \
            or any(machine.epsilon_transitions.values()):
        return None
    (final,) = machine.final_labels
    rows = a.byte_transitions
    if trie is None:
        trie, base = base, base + 1
    path, seen, rest = [trie], {s}, []
    while s != final:
        row = trans.get(s)
        if not row or len(row) != 1:
            return None
        ((byte, succ),) = row.items()
        if len(succ) != 1:
            return None
        (s,) = succ
        if s in seen:
            return None
        seen.add(s)
        node = None if rest else rows.get(path[-1], {}).get(byte)
        if node:
            path.extend(node)               # a trie row has one successor
        else:
            rest.append(byte)
    if seen != machine.states:
        return None
    if rest:
        fresh = range(base, base + len(rest))
        rows[path[-1]] = {**rows.get(path[-1], {}), rest[0]: frozenset((base,))}
        for t, byte in zip(fresh, rest[1:]):
            rows[t] = {byte: frozenset((t + 1,))}
        path.extend(fresh)
        base = fresh.stop
    a.states.update(path)
    end = path[-1]
    a.final_labels[end] = a.final_labels.get(end, frozenset()) | {lid}
    return path, base


def _append(union: Automaton, directory: dict[int, PatternEntry],
            label_ids: dict[str, int], base: int, lid: int, label: str,
            machine: Automaton, trie: int | None) -> tuple[int, int | None]:
    """Put machine into union as label id lid, for `_enter` to put behind a
    q0 edge: a literal joins the trie at `trie` (the first literal starts
    it), anything else is grafted at state id base. A machine with no
    final could never match and is refused. Returns the next free state id
    and the trie's entry."""
    if label in label_ids:
        raise DuplicateLabelError(f"duplicate label {label!r}")
    if not machine.final_labels:
        raise ValueError(f"pattern {label!r} has no final state")
    joined = _join_trie(union, machine, trie, base, lid)
    if joined:
        owned, base = joined
        entry = trie = owned[0]
    else:
        try:
            remap = _graft(union, machine, machine.states, base,
                           dict.fromkeys(machine.final_labels, frozenset({lid})))
            entry = remap[machine.initial]
        except KeyError as exc:
            raise ValueError(f"pattern {label!r}: state {exc.args[0]} is used "
                             f"but not in the machine's state set") from None
        owned, base = remap.values(), base + len(remap)
    directory[lid] = PatternEntry(label, entry, frozenset(owned))
    label_ids[label] = lid
    return base, trie


def _enter(a: Automaton, entries: list[int]) -> None:
    """Give q0 an epsilon edge to each of `entries`, replacing its set only
    if one is new; a build enters all its machines at once, in one copy."""
    heads = a.epsilon_transitions.get(a.initial, frozenset())
    if not heads.issuperset(entries):
        a.epsilon_transitions[a.initial] = heads.union(entries)


def _next_generation(a: Automaton) -> Automaton:
    """Copy of the top-level containers, sharing every per-state table and
    successor set."""
    return Automaton(set(a.states), a.initial, dict(a.byte_transitions),
                     dict(a.epsilon_transitions), dict(a.final_labels))


def build_pfsm(patterns: list[tuple[str, Automaton]]) -> Pfsm:
    """Assemble labeled pattern machines into a union machine."""
    union = Automaton({0}, 0, {}, {}, {})
    directory: dict[int, PatternEntry] = {}
    label_ids: dict[str, int] = {}
    next_id, trie = 1, None
    for lid, (label, machine) in enumerate(patterns):
        next_id, trie = _append(union, directory, label_ids, next_id, lid,
                                label, machine, trie)
    _enter(union, [e.entry for e in directory.values()])
    return Pfsm(union, directory, label_ids, 0, next_id, len(patterns), trie)


def add_pattern(p: Pfsm, label: str, machine: Automaton) -> Pfsm:
    """New generation with the pattern added. Existing state ids unchanged."""
    union = _next_generation(p.automaton)
    directory, label_ids = dict(p.directory), dict(p.label_ids)
    next_id, trie = _append(union, directory, label_ids, p.next_state_id,
                            p.next_label_id, label, machine, p.trie)
    entry = directory[p.next_label_id].entry
    _enter(union, [entry])
    q = Pfsm(union, directory, label_ids, p.generation + 1, next_id,
             p.next_label_id + 1, trie)
    # A literal that joins or starts the trie edits a shared machine.
    if p._seed is not None and entry != trie:
        q._seed = _pending(p._seed, union.byte_transitions.get(entry), None)
    return q


def _cut(a: Automaton, doomed, sources) -> None:
    """Delete the `doomed` states from `a` with their own edges, and the
    edges into them from `sources`, cutting each byte successor set object
    of a row once and each epsilon set by the same `cut`."""
    def cut(succ: frozenset[int]) -> frozenset[int]:
        return succ if doomed.isdisjoint(succ) else succ - doomed

    a.states -= doomed
    for s in doomed:
        a.byte_transitions.pop(s, None)
        a.epsilon_transitions.pop(s, None)
        a.final_labels.pop(s, None)
    for s in sources:
        table = a.byte_transitions.get(s)
        if table and not all(map(doomed.isdisjoint, table.values())):
            row = _share_row(table, cut)
            if row:
                a.byte_transitions[s] = row
            else:
                del a.byte_transitions[s]
        succ = a.epsilon_transitions.get(s)
        if succ:
            a.epsilon_transitions[s] = cut(succ)


def _drop(a: Automaton, gone: PatternEntry, lid: int, shared: bool) -> None:
    """Remove label lid by the module's one rule, reading only the states
    of `gone`: its finals lose lid, and a state of `gone` stays if it is
    still final or leads, inside `gone`, to a final or out of `gone`. The
    entry stays while another label `shared` the machine; otherwise the
    machine and its q0 edge go."""
    finals, owned = a.final_labels, gone.owned
    if not shared:
        _cut(a, owned, (a.initial,))
        return
    preds, seeds = predecessors(a, owned)   # seeds: the exits of `gone`
    for s in owned & finals.keys():
        rest = finals[s] - {lid}
        if rest:
            finals[s] = rest
            seeds.add(s)
        else:
            del finals[s]
    kept = walk_back(preds, seeds) | {gone.entry}
    _cut(a, owned - kept, kept)


def remove_pattern(p: Pfsm, label: str) -> Pfsm:
    """New generation without the pattern: its label leaves its finals, and
    its states that lie on no other label's path go. Surviving state ids
    are unchanged. The next free state id is one above the highest state,
    as the loader derives it, so ids removed from the top are given out
    again; a scan cannot confuse them, since it refuses a carry of another
    generation."""
    if label not in p.label_ids:
        raise UnknownLabelError(label)
    lid = p.label_ids[label]
    gone = p.directory[lid]
    union = _next_generation(p.automaton)
    directory, label_ids = dict(p.directory), dict(p.label_ids)
    del directory[lid], label_ids[label]
    entry = gone.entry
    shared = any(True for e in directory.values() if e.entry == entry)
    _drop(union, gone, lid, shared)
    trie = p.trie
    # Look again when the trie went, or what is left may be a lower one.
    if (trie is None or entry < trie) if shared else entry == trie:
        trie = _find_trie(union, directory)
    next_id = p.next_state_id
    if next_id - 1 not in union.states:
        next_id = max(union.states) + 1
    q = Pfsm(union, directory, label_ids, p.generation + 1, next_id,
             p.next_label_id, trie)
    if p._seed is not None and not shared:
        q._seed = _pending(p._seed, p.automaton.byte_transitions.get(entry),
                           gone.owned)
    return q


def extract_pattern(p: Pfsm, label_id: int) -> Automaton:
    """The stand-alone machine of one pattern: its own states, the edges
    between them and its own finals, renumbered to dense ids. Finals
    accept label 0 alone (single-pattern convention)."""
    if label_id not in p.directory:
        raise UnknownLabelError(label_id)
    entry, finals = p.directory[label_id], p.automaton.final_labels
    ends = {s: frozenset({0}) for s in entry.owned & finals.keys()
            if label_id in finals[s]}
    out = Automaton(set(), 0, {}, {}, {})
    remap = _graft(out, p.automaton, entry.owned, 0, ends, clip=True)
    out.initial = remap[entry.entry]
    return out


def _machines(directory: dict[int, PatternEntry]) -> dict[int, dict[int, PatternEntry]]:
    """The directory grouped by entry state: one group per machine."""
    out: dict[int, dict[int, PatternEntry]] = {}
    for lid, e in directory.items():
        out.setdefault(e.entry, {})[lid] = e
    return out


def _is_trie(a: Automaton, entry: int, labels: dict[int, PatternEntry]) -> bool:
    """Whether the machine at `entry` holding `labels` is a literal trie:
    a tree of one-byte edges from a non-final entry, without epsilon
    edges, whose leaves are final and whose labels have one final each."""
    states = frozenset().union(*(e.owned for e in labels.values()))
    if entry in a.final_labels:
        return False
    seen, stack, ends = {entry}, [entry], []
    while stack:
        s = stack.pop()
        row = a.byte_transitions.get(s)
        if a.epsilon_transitions.get(s) or not (row or s in a.final_labels):
            return False
        ends.extend(a.final_labels.get(s, ()))
        for succ in (row or {}).values():
            if len(succ) != 1 or succ & seen:
                return False
            seen |= succ
            stack.extend(succ)
    return seen == states and sorted(ends) == sorted(labels)


def _find_trie(a: Automaton, directory: dict[int, PatternEntry]) -> int | None:
    """The entry of the lowest-numbered machine that is a literal trie."""
    machines = _machines(directory)
    return next((entry for entry in sorted(machines)
                 if _is_trie(a, entry, machines[entry])), None)


def _owners(a: Automaton, entry: int, labels: list[tuple[int, str]],
            states: set[int]) -> dict[int, PatternEntry]:
    """Directory entries of the machine at `entry` over `states`, for
    `labels`, (id, text) pairs in id order: each label owns the entry and
    the states on its paths to its finals. States on no label's path go
    with the last label; they lead only to finals of other machines, which
    `validate_pfsm` refuses."""
    preds, _ = predecessors(a, states)
    ends: dict[int, list[int]] = {lid: [] for lid, _ in labels}
    for f in states & a.finals:
        for lid in a.final_labels[f]:
            ends.get(lid, []).append(f)
    owned = {lid: walk_back(preds, fs) | {entry} for lid, fs in ends.items()}
    owned[labels[-1][0]] |= states - set().union(*owned.values())
    return {lid: PatternEntry(text, entry, frozenset(owned[lid]))
            for lid, text in labels}


def assemble(a: Automaton, patterns: list[tuple[str, int]]) -> Pfsm:
    """The union machine `a` with its directory read off `patterns`, the
    (label, entry state) pairs in label-id order: labels that name one
    entry share the machine of the states on a path from that entry to a
    final, and the entry. Every other state but the initial one is
    dropped from `a`, with the edges into it, so no state leads nowhere.
    Each set of `a` is frozen first, a row's equal byte sets shared."""
    for s, table in a.byte_transitions.items():
        a.byte_transitions[s] = _share_row(table, frozenset)
    for s, succ in a.epsilon_transitions.items():
        a.epsilon_transitions[s] = frozenset(succ)
    machines: dict[int, list[tuple[int, str]]] = {}
    for lid, (label, entry) in enumerate(patterns):
        machines.setdefault(entry, []).append((lid, label))
    states = {entry: useful(a, entry) - {a.initial} for entry in machines}
    _cut(a, a.states - {a.initial} - set().union(*states.values()), a.states)
    directory: dict[int, PatternEntry] = {}
    for entry, labels in machines.items():
        directory.update(_owners(a, entry, labels, states[entry]))
    directory = dict(sorted(directory.items()))
    label_ids = {label: lid for lid, (label, _) in enumerate(patterns)}
    return Pfsm(a, directory, label_ids, 0, max(a.states) + 1, len(patterns),
                _find_trie(a, directory))


def wrap_machine(machine: Automaton) -> tuple[Automaton, int]:
    """`machine`'s initial state and the states it reaches, renumbered from
    1 in sorted order behind a fresh ancillary state 0 whose one epsilon
    edge enters the machine; finals keep their labels. Returns the union
    automaton and the machine's entry."""
    union = Automaton({0}, 0, {}, {}, {})
    remap = _graft(union, machine, reachable(machine, machine.initial), 1,
                   machine.final_labels)
    entry = remap[machine.initial]
    _enter(union, [entry])
    return union, entry


def validate_pfsm(p: Pfsm) -> list[str]:
    """Automaton invariants plus union-machine bookkeeping invariants:
    machines partition the non-initial states, no edge leaves its machine,
    every label of a final is one of its machine's and owns the final,
    and `trie` is the lowest-numbered literal-trie machine."""
    problems = validate(p.automaton)
    a = p.automaton
    machines = _machines(p.directory)
    seen: dict[int, str] = {}                # state -> a label owning it
    for entry, labels in machines.items():
        owner: dict[int, str] = {}
        for e in labels.values():
            if entry not in e.owned:
                problems.append(f"pattern {e.label!r} entry state not owned")
            for s in e.owned:
                owner.setdefault(s, e.label)
        for s in sorted(owner.keys() & seen.keys()):
            problems.append(f"patterns {seen[s]!r} and {owner[s]!r} of "
                            f"different machines share state {s}")
        seen |= owner
        for s in sorted(owner):
            outside = successors(a, s).difference(owner)
            if outside:
                problems.append(f"pattern {owner[s]!r} state {s} has edges "
                                f"leaving the pattern, to {sorted(outside)}")
        for f in sorted(owner.keys() & a.finals):
            for lid in sorted(a.final_labels[f]):
                if lid not in labels:
                    other = p.directory.get(lid)
                    text = other.label if other else lid
                    problems.append(f"final {f} is labeled {text!r} but owned "
                                    f"by pattern {owner[f]!r}")
                elif f not in labels[lid].owned:
                    problems.append(f"final {f} of pattern "
                                    f"{labels[lid].label!r} is not among its "
                                    f"states")
    if seen.keys() | {a.initial} != a.states:
        problems.append("pattern directory does not partition the non-initial states")
    if a.byte_transitions.get(a.initial):
        problems.append("ancillary initial state has byte transitions")
    if a.initial in a.final_labels:
        problems.append("ancillary initial state is final")
    q0_eps = a.epsilon_transitions.get(a.initial, set())
    if q0_eps != machines.keys():
        problems.append("ancillary epsilon edges do not match pattern entries")
    if not problems and p.trie != _find_trie(a, p.directory):
        problems.append(f"trie entry {p.trie} is not the lowest-numbered "
                        f"literal-trie machine")
    return problems
