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
cycle with nine changes:

- Seed rows kept on the generation. Steps 1-3 for the start region
  depend only on the byte, so every byte's seed row, the epsilon-closed
  byte targets of the start region, is built in one pass over the start
  region's byte tables, with the closing set and the start region's size.
  A generation's first windowed scan builds these tables, or patches its
  parent's through the one or few edits `add_pattern` and
  `remove_pattern` recorded, and keeps them for every later scan. Only
  starts that survive their first byte are seeded, and each target comes
  with the byte table the next cycle would read it by.
- Next-byte seeding. A seeded target that is not final and has no edge
  on the next byte would die on it unread, so it is not stored: one
  membership test in its table. The last seeded position stores its
  whole row, so the stop point and the carried set are the reference's,
  and the pair counts count every target, stored or not.
- Phases, not a per-byte window test. Where seeding starts and ends is
  fixed before the first byte, so one cycle body runs in up to four
  phases over absolute positions: before the window, the window but its
  last position, that position, and after the window. Each phase sets its
  seed rows, its seed count and whether an empty active set stops the
  scan once, so no cycle tests its position against the window.
- Counted anchored masks. A live state holds `(lo, mask, count)`: bit i
  of `mask` is the tag `lo + i`, `lo` is the state's oldest tag and
  `count` is the number of set bits. A value is passed on by reference;
  merging two shifts the younger mask onto the older anchor and counts
  the result once, and a label's final masks are ORed, which reports
  each (label, start) once. The cycle's pair total moves with each edit,
  so no cycle counts its masks. A lone tag never widens however long it
  lives.
- Shared growth. Seeding a state that already holds a mask grows it by
  one bit, a big-int shift, OR and popcount as wide as the mask. States
  that held one mask object before a cycle's seeding share one grown mask
  after it, and every new seed of a cycle is one `(pos, 1, 1)`, so states
  seeded at the same positions, such as the loops of `a*b`, `a*c`, ...,
  hold one object and pay that growth once per byte, not once each.
- Rows from the machine's own tables. A state's successors are read from
  `byte_transitions`; only targets that have epsilon edges are closed.
- Finals found as they are stored. A cycle looks for matches only when a
  final entered its set: a step that stores a new state asks whether it
  is final, a seed entry marks a final by its `_ANY_BYTE` table, and only
  a cycle that epsilon-closes tests its whole set, since closure can add
  a final. A merge lands on a state already stored, so it adds none. No
  cycle tests the finals against its set otherwise. The cycle keeps the
  final it stored, so one final of one label reports its own mask, with
  no per-label merge and no search of the set for finals.
- Output linear in the matches reported. A cycle counts its matches from
  the merged masks' counts, in a local, and extracts tags only for a
  sink. A one-tag mask is its anchor; a wider one is read in one pass
  over `bin(mask)`, not peeled a bit at a time, and its matches are built
  by C-level `map`/`zip` calls and tuple's own constructor, with no
  Python-level constructor call per match. One label's tags come out in
  order, so only several labels ending on one byte are sorted. A carried
  set is the scan's own masks, so no scan turns its last byte's masks
  into tag sets.
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
from functools import partial
from itertools import chain, compress, count, islice, repeat
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


# `_match((label, start, end))` is `Match(label, start, end)` built by
# tuple's own constructor, without the namedtuple's Python-level `__new__`.
_match = partial(tuple.__new__, Match)
_by_start_label = itemgetter(1, 0)


@dataclass
class ActiveSet:
    """The active set carried across a cut: each live state's counted
    anchored mask `(lo, mask, count)`, as the scan holds it, for one
    machine generation."""
    generation: int
    masks: dict[int, tuple[int, int, int]]

    def pair_count(self) -> int:
        return sum(map(_count, self.masks.values()))


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
        """The active set in the carried form: each state's tags as the
        scan's counted anchored mask."""
        return ActiveSet(self.pfsm.generation,
                         {s: _anchor(t) for s, t in self.active.items()})

    def restore(self, carried: ActiveSet, base: int):
        """Seed the scanner from a carried active set (epsilon-closing it)
        whose next `feed` reads position `base`."""
        active = {s: set(_tags(tagged)) for s, tagged
                  in _check_carry(self.pfsm, carried, base).items()}
        _close_tagged(self.pfsm.automaton, active)
        self.active = active


def _check_carry(pfsm: Pfsm, carried: ActiveSet,
                 base: int) -> dict[int, tuple[int, int, int]]:
    """Validate a carried active set against `pfsm`; returns its masks.

    The set must be of this generation and name only states of the
    machine other than the ancillary initial state (no edge enters q0, so
    a scan never leaves it active). Each mask is one a scan leaves: a
    positive int whose bit 0, the state's oldest tag `lo`, is set, with
    `count` its set bits. A carried tag is the start of a partial match
    begun before the input, which starts at position `base`, so the oldest
    and newest tags, `lo` and `lo + mask.bit_length() - 1`, must lie in
    [0, base). It reads no tag: each state costs a popcount and a bit
    length, whatever the mask's width.
    """
    if carried.generation != pfsm.generation:
        raise GenerationMismatchError(
            f"active set is generation {carried.generation}, "
            f"machine is generation {pfsm.generation}")
    a = pfsm.automaton
    for s, (lo, mask, n) in carried.masks.items():
        if s not in a.states:
            raise GenerationMismatchError(f"active state {s} not in machine")
        if s == a.initial:
            raise ValueError(f"active state {s} is the ancillary "
                             f"initial state")
        if mask <= 0 or not mask & 1:
            raise ValueError(f"active state {s} carries mask {mask:#x}, "
                             f"not a positive mask with bit 0 set")
        if n != mask.bit_count():
            raise ValueError(f"active state {s} counts {n} tags, its mask "
                             f"holds {mask.bit_count()}")
        for t in (lo, lo + mask.bit_length() - 1):
            if not 0 <= t < base:
                raise ValueError(f"active state {s} carries tag {t} "
                                 f"outside [0, {base})")
    return carried.masks


def run(pfsm: Pfsm, data: bytes, sink=None) -> EngineStats:
    """Scan the whole input, reinitializing at every position."""
    return run_segment(pfsm, data, (0, len(data) - 1) if data else None,
                       None, sink)[0]


def run_segment(pfsm: Pfsm, data: bytes, window: tuple[int, int] | None,
                carry_in: ActiveSet | None, sink=None, *, base: int = 0
                ) -> tuple[EngineStats, ActiveSet]:
    """Scan `data` reinitializing only at positions inside `window`.

    `data` may be any bytes-like object, such as a `memoryview` slice of
    a larger input, so a segment need not be copied. Positions are
    absolute: data[0] sits at position `base`, and window bounds and
    carried tags use the same coordinate system, so every carried tag
    must be a start position before the input: in [0, base).
    Processing stops early once the window is exhausted and no states
    remain active (nothing further can be activated). Returns the stats and
    the active set at the stop point: the scan's own masks, so returning
    it costs nothing. `carry_in` is checked and copied, never changed.
    """
    if window is not None:
        lo, hi = window
        if not (base <= lo <= hi < base + len(data)):
            raise ValueError(f"window {window} outside input bounds "
                             f"[{base}, {base + len(data)})")
    active = {}
    if carry_in is not None:
        active = dict(_check_carry(pfsm, carry_in, base))
    stats = EngineStats()
    active = _scan(pfsm, data, window, active, sink, base, stats)
    return stats, ActiveSet(pfsm.generation, active)


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


def _label_matches(label: int, tagged: tuple[int, int, int],
                   pos: int) -> Iterable[Match]:
    """One label's matches ending at `pos`, by start: a one-tag mask is
    its anchor `lo` and needs no pass over its bits."""
    if tagged[2] == 1:
        return (_match((label, tagged[0], pos)),)
    return map(_match, zip(repeat(label), _tags(tagged), repeat(pos)))


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
# follows, since it reports its match on the byte that seeds it. The scan
# also reads it as the mark of a final: storing such an entry is a hit.
_ANY_BYTE = range(256)
# The byte table of a non-final entry of the whole row stored at a
# window's last position: every byte, as `_ANY_BYTE`, but not the mark of
# a final.
_WHOLE_ROW = range(256)
# A cycle's `hit` when more than one final may be in its set.
_MANY = object()


class SeedTables(NamedTuple):
    """What a scan of one machine generation seeds from.

    `rows` maps each byte to its seed row, the byte targets of the start
    region, epsilon-closed when the union has `closing` states; a byte
    with no row seeds nothing. Each entry is `(state, table)`: the
    state's own `byte_transitions` row, or `_ANY_BYTE` for a final, so
    the scan can ask whether a seed steps on the next byte with one
    membership check."""
    closing: set[int]
    n_start: int
    rows: dict[int, tuple[tuple[int, Container[int]], ...]]


def _build_seed_tables(a: Automaton) -> SeedTables:
    """`a`'s seed tables from scratch, the rows built in one pass over the
    start region's byte tables. Each byte's target set is dropped as its
    row is made, so the sets and the rows are never all held at once."""
    closing = _closing(a)
    start = epsilon_closure(a, {a.initial})
    targets: dict[int, set[int]] = {}
    trans = a.byte_transitions
    for s in start:
        for byte, succ in trans.get(s, {}).items():
            targets.setdefault(byte, set()).update(succ)
    finals = a.final_labels
    rows = {}
    while targets:
        byte, row = targets.popitem()
        rows[byte] = tuple((t, _ANY_BYTE if t in finals else trans.get(t, ()))
                           for t in (epsilon_closure(a, row) if closing else row))
    return SeedTables(closing, len(start), rows)


def _patched(a: Automaton, record: tuple) -> SeedTables | None:
    """The seed tables of `a`, made by replaying a `union._pending` record's
    edits, oldest first, on the tables of the generation it leads back to,
    or None when they cannot be: when either union has closing states,
    whose rows are closed.

    With nothing to close, the start region is q0 and the entries, and a
    machine appears in the rows only through its entry's row. An edit
    touches only the rows of its entry's bytes: a removal drops its
    states from them, an addition appends its entry's targets. A state
    that a later edit removes is dropped by that edit, so an id given out
    again is never stale, and each entry reads its table from `a`: a
    grafted machine's tables never change while it lives."""
    edits = []
    while type(record) is tuple:
        record, entry_row, gone, _ = record
        edits.append((entry_row or {}, gone))
    if record.closing or _closing(a):
        return None
    trans, finals = a.byte_transitions, a.final_labels
    rows = dict(record.rows)
    for entry_row, gone in reversed(edits):
        for byte, succ in entry_row.items():
            row = rows.get(byte, ())
            if gone is None:
                rows[byte] = row + tuple(
                    (t, _ANY_BYTE if t in finals else trans.get(t, ()))
                    for t in succ)
            elif kept := tuple(e for e in row if e[0] not in gone):
                rows[byte] = kept
            else:
                del rows[byte]
    return SeedTables(set(), 1 + len(a.epsilon_transitions.get(a.initial, ())),
                      rows)


def seed_tables(p: Pfsm) -> SeedTables:
    """`p`'s seed tables: those it holds, else its parent's patched through
    the edits since, else built from scratch; then held by `p`."""
    held = p._seed
    if type(held) is SeedTables:
        return held
    tables = None if held is None else _patched(p.automaton, held)
    p._seed = tables = tables or _build_seed_tables(p.automaton)
    return tables


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


def _scan(p: Pfsm, data: bytes, window, active, sink, base,
          stats) -> dict[int, tuple[int, int, int]]:
    """Run `Engine.feed`'s cycle over `data` on counted anchored masks,
    starting from the epsilon closure of `active`; returns the active set
    at the stop point.

    The window fixes, before the first byte, where seeding starts and
    ends, so the scan runs one cycle body in up to four phases instead of
    testing each position against the window: [base, first) seeds
    nothing; [first, last) stores a seed only if it is final or steps on
    the next byte; `last` stores its whole row, so the stop point and the
    carried set are the reference's; past `last` nothing is seeded. The
    scan stops on the first cycle that leaves the active set empty from
    `last` on, or from `base` on with no window. The pair counts are the
    reference's all the same. A cycle reports matches only if a final
    entered its set: a newly stored step target, a stored seed whose table
    is `_ANY_BYTE`, or, where closure runs, any state of the closed set;
    the whole row at `last` keeps `_ANY_BYTE` for finals alone. A cycle
    that stored one final of one label reports that final's mask as it
    is. Seeding grows a mask once per object: states that held one mask
    before a cycle's seeding hold one grown mask after it, and the cycle's
    new seeds share one `(pos, 1, 1)`. A scan with no window seeds
    nothing, so it neither builds nor patches `p`'s seed tables; it reads
    their closing set only if they are built."""
    a = p.automaton
    end = base + len(data)
    # Each phase: (its end, its seed rows, pairs its seeding adds, whether
    # an empty active set stops the scan).
    if window is None:
        held = p._seed
        closing = held.closing if type(held) is SeedTables else _closing(a)
        phases = [(end, {}, 0, True)]
    else:
        first, last = window
        closing, n_start, rows = seed_tables(p)
        b = data[last - base]
        whole = {b: tuple((t, table if table is _ANY_BYTE else _WHOLE_ROW)
                          for t, table in rows.get(b, ()))}
        phases = [(first, {}, 0, False), (last, rows, n_start, False),
                  (last + 1, whole, n_start, True), (end, {}, 0, True)]
    _close_masked(a, active, [s for s in active if s in closing])
    trans = a.byte_transitions
    finals = a.final_labels
    final_states = finals.keys()
    pairs = sum(map(_count, active.values()))
    peak = total = emitted = 0
    pos = base - 1          # an empty input runs no cycle
    # `ahead` is the byte after `pos`; past the input's end nothing reads it.
    cycles = zip(count(base), data, chain(islice(data, 1, None), (0,)))
    for stop, seeds, n_seed, may_stop in phases:
        for pos, byte, ahead in islice(cycles, stop - 1 - pos):
            # `now` is the pair total of `nxt`, kept as values land in it;
            # `hit` is the final that lands in it, or `_MANY` when a second
            # one does or closure runs.
            nxt: dict[int, tuple[int, int, int]] = {}
            now = 0
            hit = None
            for s, tagged in active.items():
                table = trans.get(s)
                if table:
                    for t in table.get(byte, ()):
                        cur = nxt.get(t)
                        if cur is None:
                            nxt[t] = tagged
                            now += tagged[2]
                            if t in finals:
                                hit = t if hit is None else _MANY
                        else:
                            # `t` is already stored: a merge adds no final.
                            merged = nxt[t] = _merge(cur, tagged)
                            now += merged[2] - cur[2]
            if closing:
                _close_masked(a, nxt, [t for t in nxt if t in closing])
                now = sum(map(_count, nxt.values()))
                # Closure can reach a final that no step stored.
                if hit is not None or not final_states.isdisjoint(nxt):
                    hit = _MANY
            # In a seeding phase the start region, tagged pos, joins the
            # active set (steps 1+2) and steps on the byte (3+4): its closed
            # targets are the byte's seed row. Every other tag is older
            # than pos, so each seeded target gains one pair, counted
            # whether it is stored or not. A target is stored only if its
            # table holds the next byte: any other dies on that byte unread.
            # A final's table is `_ANY_BYTE`, so a final is always stored.
            pairs += n_seed
            # Shared growth: `fresh` is the cycle's one new seed mask, and
            # the cycle grew `src` into `grown`, so a later seed whose mask
            # is `src` takes `grown`. A mask grown at one position is wrong
            # at the next, so both start empty each cycle.
            row = seeds.get(byte, ())
            now += len(row)
            fresh = src = None
            for t, table in row:
                if ahead not in table:
                    continue
                if table is _ANY_BYTE:
                    hit = t if hit is None else _MANY
                cur = nxt.get(t)
                if cur is None:
                    if fresh is None:
                        fresh = (pos, 1, 1)
                    nxt[t] = fresh
                elif cur is src:
                    nxt[t] = grown
                else:
                    lo, m, c = cur
                    src = cur
                    grown = nxt[t] = lo, m | 1 << (pos - lo), c + 1

            if hit is not None:
                if hit is not _MANY and len(labels := finals[hit]) == 1:
                    # One final of one label: its mask is the label's.
                    by_label = None
                    [label] = labels
                    tagged = nxt[hit]
                else:
                    by_label = {}
                    for t in final_states & nxt.keys():
                        for label in finals[t]:
                            cur = by_label.get(label)
                            by_label[label] = nxt[t] if cur is None else _merge(cur, nxt[t])
                    if len(by_label) == 1:
                        [(label, tagged)] = by_label.items()
                        by_label = None
                if by_label is None:
                    # One label's tags come out ascending: no sort.
                    emitted += tagged[2]
                    if sink is not None:
                        for m in _label_matches(label, tagged, pos):
                            sink(m)
                else:
                    emitted += sum(map(_count, by_label.values()))
                    if sink is not None:
                        for m in sorted(chain.from_iterable(
                                _label_matches(label, tagged, pos)
                                for label, tagged in by_label.items()),
                                key=_by_start_label):
                            sink(m)
            if now > pairs:
                pairs = now
            total += pairs
            if pairs > peak:
                peak = pairs
            pairs = now
            active = nxt
            if may_stop and not active:
                break
        if may_stop and not active:
            break
    stats.cycles = pos + 1 - base
    stats.peak_pairs = peak
    stats.sum_pairs = total
    stats.matches_emitted = emitted
    return active


def find_matches(pfsm: Pfsm, data: bytes) -> list[Match]:
    out: list[Match] = []
    run(pfsm, data, out.append)
    return out


def format_match_tsv(m: Match, pfsm: Pfsm, data: bytes) -> str:
    label, start, end = m
    text = data[start:end + 1].decode("latin-1")
    return f"{pfsm.directory[label].label}\t{start}\t{end}\t{text}"


def format_match_jsonl(m: Match, pfsm: Pfsm, data: bytes) -> str:
    label, start, end = m
    return json.dumps({
        "label": pfsm.directory[label].label,
        "start": start,
        "end": end,
        "match": data[start:end + 1].decode("latin-1"),
    })
