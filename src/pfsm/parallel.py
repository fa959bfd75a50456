"""Partitioned matching: split by pattern or by input segment.

A plan is a strategy and a worker count; each run makes its own split.

Every strategy produces exactly the match set of a single-worker run.
Workers share only the immutable machine generation (and, for data
partitioning, the read-only input); the only inter-worker traffic is
carried active sets (chained mode) and match batches to the collector.

`regex` workers run one after another in the caller. `lazy` and `chained`
segments run on a pool of forked worker processes: the caller scans
segment 0 itself, and up to min(workers, CPUs) - 1 children take the other
segments in turn. A child receives each segment's bounds and the bytes it
reads over one socket and replies with plain (label, start, end) tuples and
the counted anchored masks it carries out of the segment: plain ints, which
`chained` joins as the scan does and `lazy` drops. The pool is forked
once per machine generation and kept until another generation runs,
`close_workers()` is called or the interpreter exits. With one CPU,
where `os.fork` is missing, or while other threads run, the caller scans
every segment through the same code. Output is sorted, so it does not depend on who scanned what.
"""

from __future__ import annotations

import atexit
import os
import pickle
import signal
import socket
import threading
import tracemalloc
import weakref
from collections.abc import Iterator
from dataclasses import dataclass
from operator import itemgetter

from .engine import (ActiveSet, Match, _match, _merge as _join,
                     find_matches, run_segment, seed_tables)
from .union import Pfsm, build_pfsm, extract_pattern


class PlanError(ValueError):
    pass


class WorkerError(RuntimeError):
    """A worker process died or failed. Its pool is closed, so the next
    partitioned run forks a fresh one."""


@dataclass(frozen=True)
class PartitionPlan:
    """How one scan is split among `workers`: by label (`groups`) or by
    input segment (`segments`), each split made when the plan runs."""
    strategy: str                          # "regex" | "lazy" | "chained"
    workers: int

    def __post_init__(self):
        if self.strategy not in ("regex", "lazy", "chained"):
            raise PlanError(f"unknown strategy {self.strategy!r}")
        _check_workers(self.workers)


def _check_workers(workers: int) -> None:
    if workers < 1:
        raise PlanError(f"need at least one worker, got {workers}")


def regex_plan(p: Pfsm, workers: int) -> PartitionPlan:
    """At most one worker per live label."""
    return PartitionPlan("regex", min(workers, max(len(p.live_labels()), 1)))


def data_plan(strategy: str, n: int, workers: int) -> PartitionPlan:
    """At most one worker per byte of an n-byte input."""
    if strategy not in ("lazy", "chained"):
        raise PlanError(f"not a data strategy: {strategy!r}")
    return PartitionPlan(strategy, min(workers, max(n, 1)))


def groups(p: Pfsm, workers: int) -> list[tuple[int, ...]]:
    """The live labels dealt round-robin; no group is left empty."""
    _check_workers(workers)
    labels = p.live_labels()
    return [tuple(labels[k::workers])
            for k in range(min(workers, len(labels)))]


def segments(n: int, workers: int) -> list[tuple[int, int]]:
    """Inclusive (lo, hi) bounds of min(n, workers) even segments that tile
    [0, n)."""
    _check_workers(workers)
    workers = min(workers, n)
    return [(n * k // workers, n * (k + 1) // workers - 1)
            for k in range(workers)]


def run_regex_partitioned(p: Pfsm, data: bytes, workers: int) -> list[Match]:
    """Each worker scans the full input with only its assigned patterns."""

    def scan(ids: tuple[int, ...]) -> list[Match]:
        sub = build_pfsm([(p.label_text(lid), extract_pattern(p, lid))
                          for lid in ids])
        # Sub-machine label k is the worker's k-th label.
        return [_match((ids[label], start, end))
                for label, start, end in find_matches(sub, data)]

    return _merge([scan(ids) for ids in groups(p, workers)])


def run_lazy_partitioned(p: Pfsm, data: bytes, workers: int) -> list[Match]:
    """Each worker starts matches only inside its segment but keeps
    consuming input until the end or until nothing is active."""
    segs = segments(len(data), workers)
    return _merge([matches for matches, _ in _passes(p, data, "lazy", segs)])


def run_chained_partitioned(p: Pfsm, data: bytes, workers: int) -> list[Match]:
    """Each worker matches within its segment; active states at the segment
    boundary are carried to the next worker until the chain drains."""
    # Seeding a segment pass with the carried set is equivalent to running
    # the reinitialization pass and the carried continuation passes
    # separately and uniting their outputs. So every segment's
    # reinitialization pass runs at once, with no carry in; then, in
    # segment order, the carry from the segments before k runs through k
    # unseeded, and what it leaves joins k's own carry into k + 1. The
    # carry runs through k before k's own pass is collected, so the caller
    # does it while a child may still be scanning k.
    segs = segments(len(data), workers)
    out: list[Match] = []
    carry: dict[int, tuple[int, int, int]] = {}
    with memoryview(data) as view:
        for k, (matches, own) in enumerate(_passes(p, data, "chained", segs)):
            out += matches
            for s, tagged in own.items():
                cur = carry.get(s)
                carry[s] = tagged if cur is None else _join(cur, tagged)
            if carry and k + 1 < len(segs):
                lo, hi = segs[k + 1]
                _, through = run_segment(p, view[lo:hi + 1], None,
                                         ActiveSet(p.generation, carry),
                                         out.append, base=lo)
                carry = through.masks
    return _merge([out])


def run_partitioned(p: Pfsm, data: bytes, plan: PartitionPlan) -> list[Match]:
    runner = {"regex": run_regex_partitioned,
              "lazy": run_lazy_partitioned,
              "chained": run_chained_partitioned}[plan.strategy]
    return runner(p, data, plan.workers)


def _merge(batches: list[list[Match]]) -> list[Match]:
    """One sorted stream. Each match comes from exactly one worker: regex
    workers hold disjoint labels, lazy workers disjoint starts and chained
    passes disjoint (start, end) spans."""
    return sorted((m for batch in batches for m in batch),
                  key=itemgetter(2, 1, 0))


# ---------------------------------------------------------------------------
# Segment passes and the worker pool

Pass = tuple[list[Match], dict[int, tuple[int, int, int]]]


def _pass(p: Pfsm, lo: int, hi: int, text) -> Pass:
    """Segment [lo, hi]'s reinitialization pass over `text`, the input from
    lo on: its matches and the masks it carries out."""
    out: list[Match] = []
    _, carry = run_segment(p, text, (lo, hi), None, out.append, base=lo)
    return out, carry.masks


def _passes(p: Pfsm, data: bytes, strategy: str,
            segs: list[tuple[int, int]]) -> Iterator[Pass]:
    """Every segment's pass, in segment order. With c children, the caller
    scans segments 0, c + 1, 2(c + 1), ... and child j the segments j,
    j + c + 1, ..., while the children scan theirs. A child's reply is read
    only when the first of its segments is due, and each pass is dropped
    once yielded. `p`'s seed tables are made before a child is forked, so
    every child inherits them."""
    seed_tables(p)
    children = _children(p, min(len(segs), _cpus()) - 1)
    step = len(children) + 1
    results: list[Pass | None] = [None] * len(segs)
    with memoryview(data) as view:
        def text(lo, hi):
            return view[lo:] if strategy == "lazy" else view[lo:hi + 1]

        unread = len(children)
        try:
            for j, child in enumerate(children, 1):
                child.request([(lo, hi, text(lo, hi))
                               for lo, hi in segs[j::step]])
            for k in range(0, len(segs), step):
                results[k] = _pass(p, *segs[k], text(*segs[k]))
            for k in range(len(segs)):
                if results[k] is None:
                    results[k::step] = children[k - 1].reply()
                    unread -= 1
                yield results[k]
                results[k] = None
        finally:
            if unread:
                # Replies left unread would answer the next run's requests.
                _close(kill=True)


def _cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class _Child:
    """The caller's end of one forked worker: its pid and its socket."""

    def __init__(self, pid: int, sock: socket.socket):
        self.pid = pid
        self.sock = sock

    def request(self, jobs):
        """Send (lo, hi, text) jobs: (lo, hi, size) pickled, then each text
        as raw bytes, so no segment is copied on this side."""
        try:
            _send(self.sock, [(lo, hi, len(text)) for lo, hi, text in jobs])
            for _, _, text in jobs:
                self.sock.sendall(text)
        except OSError as exc:
            raise WorkerError(f"worker {self.pid} is gone: {exc}") from exc

    def reply(self) -> list[Pass]:
        try:
            status, got = _recv(self.sock)
        except (OSError, EOFError) as exc:
            raise WorkerError(f"worker {self.pid} died before it replied"
                              ) from exc
        if status != "ok":
            raise WorkerError(f"worker {self.pid} failed: {got}")
        return [(list(map(_match, matches)), masks)
                for matches, masks in got]


class _Pool:
    """Children forked from one machine generation, which the pool holds
    by weak reference so that it never keeps a machine alive."""

    def __init__(self, p: Pfsm):
        self.machine = weakref.ref(p)
        self.owner = os.getpid()
        self.children: list[_Child] = []

    def serves(self, p: Pfsm) -> bool:
        # A process forked by the owner must not talk to its children.
        return self.machine() is p and self.owner == os.getpid()

    def fork(self, p: Pfsm):
        ours, theirs = socket.socketpair()
        pid = os.fork()
        if pid == 0:
            _serve(p, theirs, [ours] + [c.sock for c in self.children])
        theirs.close()
        self.children.append(_Child(pid, ours))

    def close(self, kill: bool):
        """Close the sockets, so an idle child reads EOF and exits, and reap
        the children; `kill` also stops a child in the middle of a job."""
        mine = self.owner == os.getpid()
        for c in self.children:
            c.sock.close()
            if kill and mine:
                try:
                    os.kill(c.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        for c in self.children if mine else ():
            try:
                os.waitpid(c.pid, 0)
            except ChildProcessError:
                pass
        self.children = []


_pool: _Pool | None = None


def _children(p: Pfsm, n: int) -> list[_Child]:
    """n children forked from `p`'s generation, or none when n < 1, when
    this platform cannot fork, or when other threads run: a child would
    inherit copies of locks they may hold. The pool of another generation
    is closed first."""
    global _pool
    if n < 1 or not hasattr(os, "fork") or threading.active_count() > 1:
        return []
    if _pool is not None and not _pool.serves(p):
        close_workers()
    if _pool is None:
        _pool = _Pool(p)
    while len(_pool.children) < n:
        _pool.fork(p)
    return _pool.children[:n]


def close_workers() -> None:
    """Close the worker pool, if any, and reap its children."""
    _close(kill=False)


def _close(kill: bool) -> None:
    global _pool
    pool, _pool = _pool, None
    if pool is not None:
        pool.close(kill)


atexit.register(close_workers)


def _serve(p: Pfsm, sock: socket.socket, inherited: list[socket.socket]):
    """A child's loop: one reply per request, until the caller closes its
    end. An exception becomes an error reply; the child never returns into
    the code that forked it."""
    code = 1
    try:
        for other in inherited:
            other.close()
        # A child forked while the caller traces would trace every
        # allocation of every scan, many times slower, for nobody.
        if tracemalloc.is_tracing():
            tracemalloc.stop()
        while True:
            try:
                jobs = _recv(sock)
            except EOFError:
                code = 0
                break
            try:
                texts = [_read(sock, size) for _, _, size in jobs]
                got = [_pass(p, lo, hi, text)
                       for (lo, hi, _), text in zip(jobs, texts)]
                reply = ("ok", [(list(map(tuple, matches)), masks)
                                for matches, masks in got])
            except Exception as exc:
                reply = ("error", f"{type(exc).__name__}: {exc}")
            _send(sock, reply)
    finally:
        os._exit(code)


def _send(sock: socket.socket, obj) -> None:
    blob = pickle.dumps(obj, pickle.HIGHEST_PROTOCOL)
    sock.sendall(len(blob).to_bytes(8, "little") + blob)


def _recv(sock: socket.socket):
    return pickle.loads(_read(sock, int.from_bytes(_read(sock, 8), "little")))


def _read(sock: socket.socket, n: int) -> bytearray:
    """Exactly n bytes; EOFError if the other end closes first."""
    buf = bytearray(n)
    view = memoryview(buf)
    got = 0
    while got < n:
        k = sock.recv_into(view[got:])
        if k == 0:
            raise EOFError(f"socket closed after {got} of {n} bytes")
        got += k
    return buf
