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
cycle with six changes:

- Seed rows. Steps 1-3 for the start region depend only on the byte, so
  each scan first builds every byte's seed row, the epsilon-closed byte
  targets of the start region, in one pass over the start region's byte
  tables. Only starts that survive their first byte are seeded, and each
  target comes with the byte table the next cycle would read it by.
- Next-byte seeding. A seeded target that is not final and has no edge
  on the next byte would die on it unread, so it is not stored: one
  membership test in its table. The last seeded position stores its
  whole row, so the stop point and the carried set are the reference's,
  and the pair counts count every target, stored or not.
- Counted anchored masks. A live state holds `(lo, mask, count)`: bit i
  of `mask` is the tag `lo + i`, `lo` is the state's oldest tag and
  `count` is the number of set bits. A value is passed on by reference;
  merging two shifts the younger mask onto the older anchor and counts
  the result once, and a label's final masks are ORed, which reports
  each (label, start) once. The cycle's pair total moves with each edit,
  so no cycle counts its masks. A lone tag never widens however long it
  lives.
- Rows from the machine's own tables. A state's successors are read from
  `byte_transitions`; only targets that have epsilon edges are closed.
- Output linear in the matches reported. A cycle counts its matches from
  the merged masks' counts and extracts tags only for a sink. A mask is
  read in one pass over `bin(mask)`, not peeled a bit at a time; one
  label's tags come out in order, so only several labels ending on one
  byte are sorted. `run` asks for no carried set, so the last byte's
  masks are never turned into tag sets that nobody reads.
- Counters, not a list. The scan keeps the peak and the running sum of
  the cycles' pair counts in two locals and takes the cycle count from
  the last position, so its memory is bounded by the live (state, tag)
  pairs, not by the input's length. Only `Engine` also keeps each
  cycle's count.
"""

from __future__ import annotations

import json
from collections.abc import Container, Iterable
from dataclasses import dataclass, field
from itertools import chain, compress, count, islice
from operator import itemgetter
from typing import NamedTuple

from .automaton import Automaton, epsilon_closure
from .union import Pfsm


class GenerationMismatchError(ValueError):
    """Active set refers to a different structural generation of the machine."""


class Match(NamedTuple):
    """Pattern `label` matched bytes `start` to `end`, both inclusive.

    A `Match` is a tuple: it equals, sorts and hashes as the plain tuple
    `(label, start, end)`.
    """
    label: int
    start: int
    end: int


_by_start_label = itemgetter(1, 0)


@dataclass
class ActiveSet:
    generation: int
    tags: dict[int, set[int]]

    def pair_count(self) -> int:
        return sum(len(t) for t in self.tags.values())


@dataclass
class EngineStats:
    """What a scan measured: cycles run, the peak and the sum over cycles
    of active (state, tag) pairs, and matches.

    The pairs are the reference `Engine`'s, so they include the seeds that
    the fast scan drops because they cannot step on the next byte. The
    fast scan keeps only these counters, so its memory does not grow with
    the input; `per_cycle_pairs`, one count per cycle, is filled only by
    `Engine`."""
    cycles: int = 0
    peak_pairs: int = 0
    sum_pairs: int = 0
    matches_emitted: int = 0
    per_cycle_pairs: list[int] = field(default_factory=list)

    @property
    def n(self) -> int:
        """Cycles run."""
        return self.cycles


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
                         key=_by_start_label)
        if self.sink is not None:
            for m in emitted:
                self.sink(m)
        self.stats.matches_emitted += len(emitted)
        self.active = nxt
        stats = self.stats
        pairs = max(pairs_after_init, sum(len(t) for t in nxt.values()))
        stats.per_cycle_pairs.append(pairs)
        stats.cycles += 1
        stats.peak_pairs = max(stats.peak_pairs, pairs)
        stats.sum_pairs += pairs

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
                           None, sink, carry_out=False)
    return stats


def run_segment(pfsm: Pfsm, data: bytes, window: tuple[int, int] | None,
                carry_in: ActiveSet | None, sink=None, *, base: int = 0,
                carry_out: bool = True
                ) -> tuple[EngineStats, ActiveSet | None]:
    """Scan `data` reinitializing only at positions inside `window`.

    `data` may be any bytes-like object, such as a `memoryview` slice of
    a larger input, so a segment need not be copied. Positions are
    absolute: data[0] sits at position `base`, and window bounds and
    carried tags use the same coordinate system, so every carried tag
    must be a start position before the input: in [0, base).
    Processing stops early once the window is exhausted and no states
    remain active (nothing further can be activated). Returns the stats and
    the carried active set at the stop point, or None in its place when
    `carry_out` is false.
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
    if not carry_out:
        return stats, None
    return stats, ActiveSet(pfsm.generation,
                            {s: set(_tags(v)) for s, v in active.items()})


_count = itemgetter(2)


def _anchor(tags) -> tuple[int, int, int]:
    """The counted anchored mask of a non-empty set of absolute tags."""
    lo = min(tags)
    mask = 0
    for t in tags:
        mask |= 1 << (t - lo)
    return lo, mask, mask.bit_count()


_BITS = bytes.maketrans(b"01", b"\0\1")


def _tags(tagged: tuple[int, int, int]) -> Iterable[int]:
    """The absolute tags of a counted anchored mask, ascending.

    One pass over the mask's width: `bin(mask)`, lowest bit first, as 0/1
    bytes that select from the tag range. Peeling the lowest bit off one
    at a time would cost O(width) per tag on a Python int.
    """
    lo, mask, _ = tagged
    bits = bin(mask)[:1:-1].encode().translate(_BITS)
    return compress(range(lo, lo + len(bits)), bits)


def _merge(x: tuple[int, int, int],
           y: tuple[int, int, int]) -> tuple[int, int, int]:
    """Union of two counted anchored masks: the younger is shifted onto
    the older anchor, so the result is anchored at the oldest tag."""
    xlo, xm, _ = x
    ylo, ym, _ = y
    if xlo <= ylo:
        m = xm | ym << (ylo - xlo)
        return xlo, m, m.bit_count()
    m = ym | xm << (xlo - ylo)
    return ylo, m, m.bit_count()


def _closing(a: Automaton) -> set[int]:
    """The states whose epsilon edges a scan follows. q0's epsilon edges
    close only the start region, which the seed rows cover: no edge
    enters q0 (validate_pfsm) and no carry names it (_check_carry), so an
    epsilon-free union closes nothing per cycle."""
    return {s for s, succ in a.epsilon_transitions.items()
            if succ and s != a.initial}


# The byte table of a final seed entry: a final is seeded whatever byte
# follows, since it reports its match on the byte that seeds it.
_ANY_BYTE = range(256)


def _seed_rows(a: Automaton, start, closing
               ) -> dict[int, tuple[tuple[int, Container[int]], ...]]:
    """Every byte's seed row, the byte targets of the start region, built
    in one pass over the start region's byte tables and epsilon-closed
    when the union has closing states. A byte with no row seeds nothing.

    Each entry is `(state, table)`: the state's own `byte_transitions`
    row, or `_ANY_BYTE` for a final, so the scan can ask whether a seed
    steps on the next byte with one membership check."""
    rows: dict[int, set[int]] = {}
    trans = a.byte_transitions
    for s in start:
        for byte, succ in trans.get(s, {}).items():
            rows.setdefault(byte, set()).update(succ)
    finals = a.final_labels
    return {byte: tuple((t, _ANY_BYTE if t in finals else trans.get(t, ()))
                        for t in (epsilon_closure(a, row) if closing else row))
            for byte, row in rows.items()}


def _close_masked(a: Automaton, active: dict[int, tuple[int, int, int]],
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
          stats) -> dict[int, tuple[int, int, int]]:
    """Run `Engine.feed`'s cycle over `data` on counted anchored masks,
    starting from the epsilon closure of `active`; returns the active set
    at the stop point. Below the window's last position a seed is stored
    only if it is final or steps on the next byte; the pair counts are the
    reference's all the same."""
    closing = _closing(a)
    _close_masked(a, active, [s for s in active if s in closing])
    trans = a.byte_transitions
    finals = a.final_labels
    final_states = finals.keys()
    start = epsilon_closure(a, {a.initial})
    n_start = len(start)
    seeded = range(window[0], window[1] + 1) if window is not None else ()
    rows = _seed_rows(a, start, closing) if seeded else {}
    last = window[1] if window is not None else base
    pairs = sum(map(_count, active.values()))
    peak = total = 0
    pos = base - 1          # an empty input runs no cycle
    # `ahead` is the byte after `pos`; past the input's end nothing reads it.
    for pos, byte, ahead in zip(count(base), data,
                                chain(islice(data, 1, None), (0,))):
        # `now` is the pair total of `nxt`, kept as values land in it.
        nxt: dict[int, tuple[int, int, int]] = {}
        now = 0
        for s, tagged in active.items():
            table = trans.get(s)
            if table:
                for t in table.get(byte, ()):
                    cur = nxt.get(t)
                    if cur is None:
                        nxt[t] = tagged
                        now += tagged[2]
                    else:
                        merged = nxt[t] = _merge(cur, tagged)
                        now += merged[2] - cur[2]
        if closing:
            _close_masked(a, nxt, [t for t in nxt if t in closing])
            now = sum(map(_count, nxt.values()))
        if pos in seeded:
            # The start region, tagged pos, joins the active set (steps
            # 1+2) and steps on the byte (3+4): its closed targets are the
            # byte's seed row. Every other tag is older than pos, so each
            # seeded target gains one pair, counted whether it is stored
            # or not. Only a target that is final or steps on the next
            # byte is stored: any other dies on that byte unread. The last
            # seeded position stores its whole row, so the stop point and
            # the carried set are the reference's.
            pairs += n_start
            row = rows.get(byte, ())
            now += len(row)
            if pos == last:
                row = [(t, _ANY_BYTE) for t, _ in row]
            fresh = (pos, 1, 1)
            for t, table in row:
                if ahead not in table:
                    continue
                cur = nxt.get(t)
                if cur is None:
                    nxt[t] = fresh
                else:
                    lo, m, c = cur
                    nxt[t] = lo, m | 1 << (pos - lo), c + 1

        if not final_states.isdisjoint(nxt):
            by_label: dict[int, tuple[int, int, int]] = {}
            for t in final_states & nxt.keys():
                for label in finals[t]:
                    cur = by_label.get(label)
                    by_label[label] = nxt[t] if cur is None else _merge(cur, nxt[t])
            stats.matches_emitted += sum(map(_count, by_label.values()))
            if sink is not None and len(by_label) == 1:
                # One label's tags come out ascending: no sort.
                [(label, tagged)] = by_label.items()
                for start_tag in _tags(tagged):
                    sink(Match(label, start_tag, pos))
            elif sink is not None:
                for start_tag, label in sorted(
                        (start_tag, label)
                        for label, tagged in by_label.items()
                        for start_tag in _tags(tagged)):
                    sink(Match(label, start_tag, pos))
        if now > pairs:
            pairs = now
        total += pairs
        if pairs > peak:
            peak = pairs
        pairs = now
        active = nxt
        if not active and pos >= last:
            break
    stats.cycles = pos + 1 - base
    stats.peak_pairs = peak
    stats.sum_pairs = total
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
