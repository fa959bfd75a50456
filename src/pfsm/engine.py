"""Online scan of a union machine over a byte string.

Each input position runs one cycle of four steps: (1) re-activate the
initial state tagged with the current position, keeping existing active
states; (2) epsilon-close the freshly activated start region, propagating
the new tag; (3) keep only the transitions matching the current byte;
(4) apply them, tag the targets, and epsilon-close the newly reached
states. A final state holding tag t at the end of step 4 reports a match
of each of its labels spanning [t, current position], emitted before the
next byte is read.

Tags travel unmodified, so every active state carries the set of start
positions of the partial matches currently sitting in it. Zero-length
matches (a final state reached purely by the step-2 closure) are never
reported; the span format is inclusive on both ends and cannot express
them.

`Engine` runs those four steps literally, with a `set` of tags per state;
it is the readable reference the scan routine behind `run`, `run_segment`
and `find_matches` is tested against. That routine computes the same
cycle with three changes:

- Seed rows. Steps 1-3 for the start region depend only on the byte, so
  `seed_row[byte]`, the epsilon-closed byte-`byte` targets of the start
  region, is built on first use (at most 256 per scan). Only starts that
  survive their first byte are seeded.
- Anchored masks. A live state holds `(lo, mask)`: bit i of `mask` is the
  tag `lo + i`, and `lo` is the state's oldest tag. A value is passed on
  by reference; merging two shifts the younger mask onto the older
  anchor, and a label's final masks are ORed, which reports each
  (label, start) once. A lone tag never widens however long it lives.
- Rows from the machine's own tables. A state's successors are read from
  `byte_transitions`; only targets that have epsilon edges are closed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from operator import itemgetter

from .automaton import Automaton, epsilon_closure, step
from .union import Pfsm


class GenerationMismatchError(ValueError):
    """Active set refers to a different structural generation of the machine."""


@dataclass(frozen=True, order=True)
class Match:
    label: int
    start: int
    end: int


@dataclass
class ActiveSet:
    generation: int
    tags: dict[int, set[int]]

    def pair_count(self) -> int:
        return sum(len(t) for t in self.tags.values())


@dataclass
class EngineStats:
    """What a scan measured: active (state, tag) pairs per cycle, matches."""
    per_cycle_pairs: list[int] = field(default_factory=list)
    matches_emitted: int = 0

    @property
    def n(self) -> int:
        """Cycles run."""
        return len(self.per_cycle_pairs)


def _close_tagged(a: Automaton, active: dict[int, set[int]]):
    """Epsilon-close `active` in place: every state reachable by epsilon
    edges from an active state gets that state's tags too."""
    work = list(active)
    while work:
        s = work.pop()
        tags = active[s]
        for t in a.epsilon_transitions.get(s, ()):
            bucket = active.get(t)
            if bucket is None:
                active[t] = set(tags)
                work.append(t)
            elif not tags <= bucket:
                bucket |= tags
                work.append(t)


class Engine:
    """Single-owner scanner over one machine generation.

    feed() runs one cycle. The sink receives Match values online, sorted
    within each cycle by (start, label); ends are the cycle position, so
    the overall stream is sorted by (end, start, label).
    """

    def __init__(self, pfsm: Pfsm, sink=None):
        self.pfsm = pfsm
        self.sink = sink
        a = pfsm.automaton
        self._start = sorted(epsilon_closure(a, {a.initial}))
        self.active: dict[int, set[int]] = {}
        self.stats = EngineStats()

    def feed(self, byte: int, pos: int, reinit: bool = True):
        a = self.pfsm.automaton
        active = self.active
        if reinit:
            # Steps 1+2: activate and tag q0, close its epsilon region.
            # The rest of the active set is already epsilon-closed (it is
            # the closed output of the previous cycle or of restore()).
            for s in self._start:
                active.setdefault(s, set()).add(pos)
        pairs_after_init = sum(len(t) for t in active.values())

        # Step 3+4: traverse matching transitions, tagging targets.
        nxt: dict[int, set[int]] = {}
        for s, tags in active.items():
            table = a.byte_transitions.get(s)
            if not table:
                continue
            for t in table.get(byte, ()):
                bucket = nxt.get(t)
                if bucket is None:
                    nxt[t] = set(tags)
                else:
                    bucket |= tags
        _close_tagged(a, nxt)

        # Match detection on the closed step-4 set. Every match of this
        # cycle ends at `pos`; merging the tags of all final states of a
        # label reports each (label, start) once.
        final_tags: dict[int, set[int]] = {}
        for s, tags in nxt.items():
            for label in a.final_labels.get(s, ()):
                final_tags.setdefault(label, set()).update(tags)
        emitted = sorted((Match(label, t, pos)
                          for label, tags in final_tags.items() for t in tags),
                         key=lambda m: (m.start, m.label))
        if self.sink is not None:
            for m in emitted:
                self.sink(m)
        self.stats.matches_emitted += len(emitted)
        self.active = nxt
        self.stats.per_cycle_pairs.append(
            max(pairs_after_init, sum(len(t) for t in nxt.values())))

    def snapshot(self) -> ActiveSet:
        return ActiveSet(self.pfsm.generation,
                         {s: set(t) for s, t in self.active.items()})

    def restore(self, carried: ActiveSet):
        """Seed the scanner from a carried active set (epsilon-closing it)."""
        active = {s: set(tags)
                  for s, tags in _check_carry(self.pfsm, carried).items()}
        _close_tagged(self.pfsm.automaton, active)
        self.active = active


def _check_carry(pfsm: Pfsm, carried: ActiveSet,
                 base: int | None = None) -> dict[int, set[int]]:
    """Validate a carried active set against `pfsm`; returns its tags.

    The set must be of this generation and name only states of the
    machine other than the ancillary initial state (no edge enters q0, so
    a scan never leaves it active), each with at least one tag. A carried
    tag is the start of a partial match begun before the input, so with
    `base` given every tag must lie in [0, base).
    """
    if carried.generation != pfsm.generation:
        raise GenerationMismatchError(
            f"active set is generation {carried.generation}, "
            f"machine is generation {pfsm.generation}")
    a = pfsm.automaton
    for s, tags in carried.tags.items():
        if s not in a.states:
            raise GenerationMismatchError(f"active state {s} not in machine")
        if s == a.initial:
            raise ValueError(f"active state {s} is the ancillary "
                             f"initial state")
        if not tags:
            raise ValueError(f"active state {s} carries no tags")
        if base is not None:
            for t in (min(tags), max(tags)):
                if not 0 <= t < base:
                    raise ValueError(f"active state {s} carries tag {t} "
                                     f"outside [0, {base})")
    return carried.tags


def run(pfsm: Pfsm, data: bytes, sink=None) -> EngineStats:
    """Scan the whole input, reinitializing at every position."""
    stats, _ = run_segment(pfsm, data, (0, len(data) - 1) if data else None,
                           None, sink)
    return stats


def run_segment(pfsm: Pfsm, data: bytes, window: tuple[int, int] | None,
                carry_in: ActiveSet | None, sink=None, *,
                base: int = 0) -> tuple[EngineStats, ActiveSet]:
    """Scan `data` reinitializing only at positions inside `window`.

    Positions are absolute: data[0] sits at position `base`, and window
    bounds and carried tags use the same coordinate system, so every
    carried tag must be a start position before the input: in [0, base).
    Processing stops early once the window is exhausted and no states
    remain active (nothing further can be activated). Returns the stats and
    the carried active set at the stop point.
    """
    if window is not None:
        lo, hi = window
        if not (base <= lo <= hi < base + len(data)):
            raise ValueError(f"window {window} outside input bounds "
                             f"[{base}, {base + len(data)})")
    active = {}
    if carry_in is not None:
        active = {s: _anchor(tags) for s, tags
                  in _check_carry(pfsm, carry_in, base).items()}
    stats = EngineStats()
    active = _scan(pfsm.automaton, data, window, active, sink, base, stats)
    return stats, ActiveSet(pfsm.generation,
                            {s: set(_tags(*v)) for s, v in active.items()})


_mask = itemgetter(1)


def _anchor(tags) -> tuple[int, int]:
    """The anchored mask of a non-empty set of absolute tags."""
    lo = min(tags)
    mask = 0
    for t in tags:
        mask |= 1 << (t - lo)
    return lo, mask


def _tags(lo: int, mask: int) -> list[int]:
    """The absolute tags of an anchored mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(lo + low.bit_length() - 1)
        mask ^= low
    return out


def _merge(x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
    """Union of two anchored masks: the younger is shifted onto the older
    anchor, so the result is anchored at the oldest tag."""
    (xlo, xm), (ylo, ym) = x, y
    if xlo <= ylo:
        return xlo, xm | ym << (ylo - xlo)
    return ylo, ym | xm << (xlo - ylo)


def _close_masked(a: Automaton, active: dict[int, tuple[int, int]],
                  work: list[int]):
    """Epsilon-close `active` in place from the states in `work`: every
    state reachable by epsilon edges from one gets its tags too."""
    eps = a.epsilon_transitions
    while work:
        s = work.pop()
        tagged = active[s]
        for t in eps[s]:
            cur = active.get(t)
            merged = tagged if cur is None else _merge(cur, tagged)
            if merged != cur:
                active[t] = merged
                if t in eps:
                    work.append(t)


def _scan(a: Automaton, data: bytes, window, active, sink, base,
          stats) -> dict[int, tuple[int, int]]:
    """Run `Engine.feed`'s cycle over `data` on anchored masks, starting
    from the epsilon closure of `active`; returns the active set at the
    stop point."""
    # q0's epsilon edges close only the start region, which the seed rows
    # cover: no edge enters q0 (validate_pfsm) and no carry names it
    # (_check_carry), so an epsilon-free union closes nothing per cycle.
    closing = {s for s, succ in a.epsilon_transitions.items()
               if succ and s != a.initial}
    _close_masked(a, active, [s for s in active if s in closing])
    trans = a.byte_transitions
    finals = a.final_labels
    start = epsilon_closure(a, {a.initial})
    n_start = len(start)
    seed_rows: dict[int, tuple[int, ...]] = {}
    seeded = range(window[0], window[1] + 1) if window is not None else ()
    last = window[1] if window is not None else base
    per_cycle = stats.per_cycle_pairs
    pairs = sum(map(int.bit_count, map(_mask, active.values())))
    for pos, byte in enumerate(data, base):
        nxt: dict[int, tuple[int, int]] = {}
        for s, tagged in active.items():
            table = trans.get(s)
            if table:
                for t in table.get(byte, ()):
                    cur = nxt.get(t)
                    nxt[t] = tagged if cur is None else _merge(cur, tagged)
        if closing:
            _close_masked(a, nxt, [t for t in nxt if t in closing])
        if pos in seeded:
            # The start region, tagged pos, joins the active set (steps
            # 1+2) and steps on the byte (3+4): its closed targets are the
            # byte's seed row. Every other tag is older than pos.
            pairs += n_start
            row = seed_rows.get(byte)
            if row is None:
                row = seed_rows[byte] = tuple(
                    epsilon_closure(a, step(a, start, byte)))
            fresh = (pos, 1)
            for t in row:
                cur = nxt.get(t)
                if cur is None:
                    nxt[t] = fresh
                else:
                    lo, m = cur
                    nxt[t] = lo, m | 1 << (pos - lo)

        hit = finals.keys() & nxt.keys()
        if hit:
            by_label: dict[int, tuple[int, int]] = {}
            for t in hit:
                for label in finals[t]:
                    cur = by_label.get(label)
                    by_label[label] = nxt[t] if cur is None else _merge(cur, nxt[t])
            found = sorted((start_tag, label)
                           for label, tagged in by_label.items()
                           for start_tag in _tags(*tagged))
            stats.matches_emitted += len(found)
            if sink is not None:
                for start_tag, label in found:
                    sink(Match(label, start_tag, pos))
        now = sum(map(int.bit_count, map(_mask, nxt.values())))
        per_cycle.append(max(pairs, now))
        pairs = now
        active = nxt
        if not active and pos >= last:
            break
    return active


def find_matches(pfsm: Pfsm, data: bytes) -> list[Match]:
    out: list[Match] = []
    run(pfsm, data, out.append)
    return out


def format_match_tsv(m: Match, pfsm: Pfsm, data: bytes) -> str:
    text = data[m.start:m.end + 1].decode("latin-1")
    return f"{pfsm.label_text(m.label)}\t{m.start}\t{m.end}\t{text}"


def format_match_jsonl(m: Match, pfsm: Pfsm, data: bytes) -> str:
    return json.dumps({
        "label": pfsm.label_text(m.label),
        "start": m.start,
        "end": m.end,
        "match": data[m.start:m.end + 1].decode("latin-1"),
    })
