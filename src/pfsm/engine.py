"""Online scan of a union machine over a byte string.

Each input position runs one cycle of four steps: (1) re-activate the
initial state tagged with the current position, keeping existing active
states; (2) epsilon-close the freshly activated start region, propagating
the new tag; (3) keep only the transitions matching the current byte;
(4) apply them, tag the targets, and epsilon-close the newly reached
states. A final state holding tag t at the end of step 4 reports a match
spanning [t, current position], emitted before the next byte is read.

Tags travel unmodified, so every active state carries the set of start
positions of the partial matches currently sitting in it. Zero-length
matches (a final state reached purely by the step-2 closure) are never
reported; the span format is inclusive on both ends and cannot express
them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .automaton import Automaton, epsilon_closure
from .union import Pfsm

ACTIVESET_HEADER = "PFSM-ACT v1"


class GenerationMismatchError(ValueError):
    """Active set refers to a different structural generation of the machine."""


class ActiveSetFormatError(ValueError):
    pass


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

    def __eq__(self, other):
        return (isinstance(other, ActiveSet)
                and self.generation == other.generation
                and self.tags == other.tags)


@dataclass
class EngineStats:
    n: int = 0
    r: int = 0
    m_max: int = 0
    alphabet_size: int = 256
    per_cycle_pairs: list[int] = field(default_factory=list)
    matches_emitted: int = 0

    def summary(self) -> str:
        peak = max(self.per_cycle_pairs, default=0)
        return (f"n={self.n} r={self.r} m_max={self.m_max} "
                f"s={self.alphabet_size} peak_active_pairs={peak} "
                f"matches={self.matches_emitted}")


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

    def __init__(self, pfsm: Pfsm, sink=None, *, dedupe: bool = True):
        self.pfsm = pfsm
        self.sink = sink
        self.dedupe = dedupe
        a = pfsm.automaton
        self._start = sorted(epsilon_closure(a, {a.initial}))
        self.active: dict[int, set[int]] = {}
        n_states = [e.n_states for e in pfsm.directory.values()]
        self.stats = EngineStats(r=len(pfsm.directory),
                                 m_max=max(n_states, default=0))

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
        # cycle ends at `pos`, so duplicates can only come from distinct
        # final states of one label within this cycle.
        emitted = []
        for s, tags in nxt.items():
            label = a.final_labels.get(s)
            if label is not None:
                emitted.extend(Match(label, t, pos) for t in tags)
        if self.dedupe and len(emitted) > 1:
            emitted = list(set(emitted))
        emitted.sort(key=lambda m: (m.start, m.label))
        if self.sink is not None:
            for m in emitted:
                self.sink(m)
        self.stats.matches_emitted += len(emitted)
        self.active = nxt
        self.stats.per_cycle_pairs.append(
            max(pairs_after_init, sum(len(t) for t in nxt.values())))
        self.stats.n += 1

    def snapshot(self) -> ActiveSet:
        return ActiveSet(self.pfsm.generation,
                         {s: set(t) for s, t in self.active.items()})

    def restore(self, carried: ActiveSet):
        """Seed the scanner from a carried active set (epsilon-closing it)."""
        if carried.generation != self.pfsm.generation:
            raise GenerationMismatchError(
                f"active set is generation {carried.generation}, "
                f"machine is generation {self.pfsm.generation}")
        a = self.pfsm.automaton
        active: dict[int, set[int]] = {}
        for s, tags in carried.tags.items():
            if s not in a.states:
                raise GenerationMismatchError(f"active state {s} not in machine")
            if not tags:
                raise ValueError(f"active state {s} carries no tags")
            active[s] = set(tags)
        _close_tagged(a, active)
        self.active = active


def run(pfsm: Pfsm, data: bytes, sink=None, *,
        dedupe: bool = True) -> EngineStats:
    """Scan the whole input, reinitializing at every position."""
    stats, _ = run_segment(pfsm, data, (0, len(data) - 1) if data else None,
                           None, sink, dedupe=dedupe)
    return stats


def run_segment(pfsm: Pfsm, data: bytes, window: tuple[int, int] | None,
                carry_in: ActiveSet | None, sink=None, *, base: int = 0,
                dedupe: bool = True) -> tuple[EngineStats, ActiveSet]:
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

    eng = Engine(pfsm, sink, dedupe=dedupe)
    if carry_in is not None:
        eng.restore(carry_in)
        for s, tags in carry_in.tags.items():
            for t in tags:
                if not 0 <= t < base:
                    raise ValueError(f"active state {s} carries tag {t} "
                                     f"outside [0, {base})")
    for i, byte in enumerate(data):
        pos = base + i
        reinit = window is not None and window[0] <= pos <= window[1]
        eng.feed(byte, pos, reinit)
        if not eng.active and (window is None or pos >= window[1]):
            break
    return eng.stats, eng.snapshot()


def find_matches(pfsm: Pfsm, data: bytes, *,
                 dedupe: bool = True) -> list[Match]:
    out: list[Match] = []
    run(pfsm, data, out.append, dedupe=dedupe)
    return out


# ---------------------------------------------------------------------------
# wire/output formats

def dump_active_set(aset: ActiveSet) -> str:
    lines = [ACTIVESET_HEADER, f"gen {aset.generation}"]
    for s in sorted(aset.tags):
        tags = ",".join(str(t) for t in sorted(aset.tags[s]))
        lines.append(f"active {s} {tags}")
    return "\n".join(lines) + "\n"


def load_active_set(text: str) -> ActiveSet:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != ACTIVESET_HEADER:
        raise ActiveSetFormatError(f"bad header, expected {ACTIVESET_HEADER!r}")
    if len(lines) < 2 or not lines[1].startswith("gen "):
        raise ActiveSetFormatError("missing generation line")
    try:
        gen = int(lines[1].split()[1])
        tags: dict[int, set[int]] = {}
        for line in lines[2:]:
            tokens = line.split()
            if tokens[0] != "active" or len(tokens) != 3:
                raise ActiveSetFormatError(f"malformed line {line!r}")
            state = int(tokens[1])
            state_tags = {int(t) for t in tokens[2].split(",")}
            if min(state_tags) < 0:
                raise ActiveSetFormatError(f"active state {state} carries "
                                           f"negative tag {min(state_tags)}")
            if state in tags:
                raise ActiveSetFormatError(f"active state {state} listed twice")
            tags[state] = state_tags
    except (ValueError, IndexError) as exc:
        raise ActiveSetFormatError(str(exc)) from exc
    return ActiveSet(gen, tags)


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
