#!/usr/bin/env python3
"""The pfsm benchmark.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload literal-dict --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --smoke      # every workload at toy size, a few seconds

The benchmark imports pfsm from `src/` beside this directory, generates the
workload's inputs from the seed, drives the public pfsm API from this one
process, checks every output against an independent expectation and prints
a report. Its last line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones, measured with tracing
off. With `--trace 1` they are the per-layer ones, from spans recorded around
the calls into each pfsm module; the spans are written to
`perfbench/out/trace-<workload>-seed<n>.jsonl`. README.md in this directory
defines every workload and metric.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import importlib.util
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import tracemalloc
import traceback
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

SETUP_SAMPLES = 7
SETUP_BATCH_S = 0.05    # set-ups are batched to at least this long per sample
MIN_SCANS = 3
MIN_UPDATES = 30
MIN_ROUNDS = 20
MEM_ROUNDS = 10         # regex-live rounds in the memory pass
SCAN_SHARE = 0.5        # share of --seconds for whole scans; updates get the rest
WORKERS = 2


def import_pfsm():
    """Import pfsm from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    if not (src / "pfsm" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no pfsm sources under {src}")
    sys.path.insert(0, str(src))
    import pfsm
    import pfsm.compile
    import pfsm.engine
    import pfsm.parallel
    import pfsm.union
    return pfsm


pfsm = import_pfsm()
C, E, P, U = pfsm.compile, pfsm.engine, pfsm.parallel, pfsm.union

import workloads as wl  # noqa: E402  (needs pfsm on sys.path)
from clock import Clock  # noqa: E402
from spans import Tracer  # noqa: E402

END_TO_END_UNITS = {"setup_s": "s", "scan_mbps": "MB/s", "update_ms_p50": "ms",
                    "peak_mem_mb": "MB"}


# ---------------------------------------------------------------------------
# helpers

def percentile(xs: list[float], q: int) -> float:
    if len(xs) < 2:
        return xs[0] if xs else 0.0
    return statistics.quantiles(xs, n=100, method="inclusive")[q - 1]


def median(xs: list[float]) -> float:
    return statistics.median(xs) if xs else 0.0


def union_size(p) -> tuple[int, int]:
    a = p.automaton
    edges = sum(len(succ) for table in a.byte_transitions.values()
                for succ in table.values())
    return len(a.states), edges


def live_label_texts(p) -> list[str]:
    return sorted(p.label_text(lid) for lid in p.live_labels())


def parse_lines(lines: list[str], data: bytes) -> list[wl.Triple]:
    """Triples read back from formatted TSV lines; a line whose text field
    is not the matched bytes gets a label that no expectation holds."""
    out = []
    for line in lines:
        label, start, end, text = line.split("\t", 3)
        s, e = int(start), int(end)
        if text != data[s:e + 1].decode("latin-1"):
            label = "<text mismatch>"
        out.append((label, s, e))
    return out


def pair_counts(stats) -> tuple[int, int]:
    """(peak, sum) of active (state, tag) pairs over a scan's cycles."""
    return max(stats.per_cycle_pairs, default=0), sum(stats.per_cycle_pairs)


def environment() -> dict:
    try:
        kernels = importlib.import_module("pfsm.kernels")
        numba_on = bool(getattr(kernels, "NUMBA_ENABLED", False))
    except ImportError:
        numba_on = False
    rev = None
    if (ROOT / ".git").exists():
        try:
            got = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            rev = got.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            rev = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "pfsm").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    nproc = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count())
    return {"python": platform.python_version(),
            "numba": importlib.util.find_spec("numba") is not None,
            "backend": "kernel" if numba_on else "python",
            "nproc": nproc, "git_rev": rev, "src_sha256": digest.hexdigest()}


# ---------------------------------------------------------------------------
# the measured operations

class Bench:
    def __init__(self, w: wl.Workload, seconds: float, trace: bool):
        self.w = w
        self.seconds = seconds
        self.log = Tracer() if trace else None
        self.tracer = None          # self.log while spans are being recorded
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.self_tested = False
        self.clock = Clock()
        self.raw: dict[str, list[float]] = {}     # unscaled wall times by kind

    def scaled(self, kind: str, wall: float, op_span=None) -> float:
        """Scale an operation's wall time (see clock.py); spans of a traced
        operation are later scaled by the same factor."""
        self.raw.setdefault(kind, []).append(wall)
        dt = self.clock.scaled(wall)
        if op_span is not None:
            self.log.scale[op_span.run] = dt / wall
        return dt

    # -- tracing ------------------------------------------------------------

    def tracing(self, on: bool):
        if on and self.tracer is None:
            self.tracer = self.log
            self._install()
        elif not on and self.tracer is not None:
            self.log.unwrap()
            self.tracer = None

    def _install(self):
        t = self.log

        def on_dfa(attrs, args, kwargs, result):
            attrs["states"] = len(result.states)

        def on_segment(attrs, args, kwargs, result):
            stats, _ = result
            carry = args[3] if len(args) > 3 else kwargs.get("carry_in")
            attrs["carry_pairs"] = carry.pair_count() if carry is not None else 0
            attrs["n"] = stats.n
            attrs["matches"] = stats.matches_emitted
            attrs["peak_pairs"], attrs["sum_pairs"] = pair_counts(stats)

        t.wrap(C, "parse_regex", "syntax.parse")
        t.wrap(C, "compile_nfa", "compile.nfa")
        t.wrap(C, "nfa_to_dfa", "compile.dfa", on_dfa)
        t.wrap(C, "compile_pattern", "compile.pattern")
        t.wrap(U, "build_pfsm", "union.build")
        t.wrap(U, "add_pattern", "union.add")
        t.wrap(U, "remove_pattern", "union.remove")
        t.wrap(P, "build_pfsm", "union.build")
        t.wrap(P, "extract_pattern", "union.extract")
        t.wrap(E, "run", "engine.run")
        t.wrap(E, "run_segment", "engine.run_segment", on_segment)
        t.wrap(E, "find_matches", "engine.find_matches")
        t.wrap(P, "run_segment", "engine.run_segment", on_segment)
        t.wrap(P, "find_matches", "engine.find_matches")
        t.wrap(P, "run_partitioned", "parallel.run_partitioned")
        t.wrap(P, "run_regex_partitioned", "parallel.regex")
        t.wrap(P, "run_lazy_partitioned", "parallel.lazy")
        t.wrap(P, "run_chained_partitioned", "parallel.chained")

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer else nullcontext()

    def op(self, kind: str):
        return self.tracer.op(kind) if self.tracer else nullcontext()

    # -- operations ---------------------------------------------------------

    def setup(self, patterns: list[str]):
        return U.build_pfsm([(pat, C.compile_pattern(pat)) for pat in patterns])

    def scan(self, p, data: bytes, plan=None):
        """One scan including formatting; returns (seconds, lines)."""
        t0 = perf_counter()
        if plan is None:
            matches = []
            E.run(p, data, matches.append)
        else:
            matches = P.run_partitioned(p, data, plan)
        with self.span("engine.format"):
            lines = [E.format_match_tsv(m, p, data) for m in matches]
        return perf_counter() - t0, lines

    def update(self, p, victim: str, new: str):
        """Remove one pattern, compile and add another; returns (seconds, p)."""
        t0 = perf_counter()
        q = U.remove_pattern(p, victim)
        q = U.add_pattern(q, new, C.compile_pattern(new))
        return perf_counter() - t0, q

    def record(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(what)

    def checked_scan(self, kind, p, patterns, data, plan=None, expected=None):
        """A scan counted as one operation; returns its scaled seconds, or
        None when it failed."""
        gc.collect()
        try:
            with self.op(kind) as sp:
                dt, lines = self.scan(p, data, plan)
        except Exception:
            self.record(False, f"{kind} raised:\n{traceback.format_exc()}")
            return None
        dt = self.scaled(kind, dt, sp)
        if expected is None:
            expected = self.w.expect(patterns, data)
        ok = self.verify(lines, data, expected, kind)
        return dt if ok else None

    def verify(self, lines, data, expected, what) -> bool:
        if not self.self_tested:
            if not wl.checker_self_test(expected):
                raise SystemExit("perfbench: the checker accepted a perturbed match list")
            self.self_tested = True
        ok = wl.check(parse_lines(lines, data), expected)
        self.record(ok, f"{what}: wrong match set")
        return ok

    def checked_update(self, p, live: list[str], victim: str, new: str):
        """An update counted as one operation; returns (scaled seconds or
        None, p)."""
        gc.collect()
        try:
            with self.op("update") as sp:
                dt, q = self.update(p, victim, new)
        except Exception:
            self.record(False, f"update raised:\n{traceback.format_exc()}")
            return None, p
        dt = self.scaled("update", dt, sp)
        expected = sorted(x for x in live if x != victim) + [new]
        ok = live_label_texts(q) == sorted(expected)
        self.record(ok, "update: wrong live pattern set")
        return (dt if ok else None), q

    # -- phases -------------------------------------------------------------

    def time_setups(self) -> tuple[float, object]:
        """Median seconds per set-up over SETUP_SAMPLES batched samples."""
        p = self.setup(self.w.patterns)
        t0 = perf_counter()
        p = self.setup(self.w.patterns)
        batch = max(1, math.ceil(SETUP_BATCH_S / max(perf_counter() - t0, 1e-9)))
        samples = []
        self.clock.restart()
        for _ in range(SETUP_SAMPLES):
            gc.collect()
            t0 = perf_counter()
            for _ in range(batch):
                p = self.setup(self.w.patterns)
            samples.append(self.scaled("setup", (perf_counter() - t0) / batch))
        return median(samples), p

    def traced_setups(self, count: int = 3):
        self.tracing(True)
        self.clock.restart()
        for _ in range(count):
            gc.collect()
            with self.op("setup") as sp:
                t0 = perf_counter()
                p = self.setup(self.w.patterns)
            self.scaled("setup", perf_counter() - t0, sp)
        self.tracing(False)
        return p

    def plan(self):
        w = self.w
        return None if w.strategy == "single" else P.data_plan(w.strategy, len(w.data), WORKERS)

    def run_scans(self, p, until: float, *outs: list[float]):
        """Whole scans until `until`. With two output lists, every second
        scan is traced and its time goes to the second list."""
        w = self.w
        plan = self.plan()
        expected = w.expect(w.patterns, w.data)
        count = 0
        self.clock.restart()
        while count < MIN_SCANS * len(outs) or perf_counter() < until:
            self.tracing(len(outs) == 2 and count % 2 == 1)
            dt = self.checked_scan("scan", p, w.patterns, w.data, plan, expected)
            if dt is not None:
                outs[count % len(outs)].append(dt)
            count += 1
        self.tracing(False)
        return expected

    def run_updates(self, p, until: float, out: list[float]):
        """Remove each pattern in turn, in a seeded order, and add it back.
        Taking every pattern equally often keeps the mix of pattern sizes,
        and so the median, the same from run to run."""
        order = list(self.w.patterns)
        random.Random(f"{self.w.name}/updates/{self.w.seed}").shuffle(order)
        count = 0
        while count < MIN_UPDATES or perf_counter() < until:
            victim = order[count % len(order)]
            dt, p = self.checked_update(p, self.w.patterns, victim, victim)
            count += 1
            if dt is not None:
                out.append(dt)
        # The machine after all those generations still scans correctly.
        self.checked_scan("check", p, self.w.patterns, self.w.check_input)
        return p

    def live_rounds(self, p, rng, until: float, chunk_ms, update_ms,
                    min_rounds=MIN_ROUNDS, max_rounds=None, deferred=None,
                    alternate=False):
        """regex-live: remove one live pattern, add a new one, scan a chunk.
        With `alternate`, every second round is traced."""
        w = self.w
        live = list(w.patterns)
        n_chunks = len(w.data) // w.chunk_n
        rounds = 0
        self.clock.restart()
        while rounds < min_rounds or (perf_counter() < until and
                                      (max_rounds is None or rounds < max_rounds)):
            if alternate:
                self.tracing(rounds % 2 == 1)
            victim = rng.choice(live)
            shape = w.shapes[victim]
            new = wl.fresh_regex(rng, shape, w.shapes)
            w.shapes[new] = shape
            dt, p = self.checked_update(p, live, victim, new)
            update_ms.append(dt * 1e3 if dt is not None else None)
            if dt is None:
                # A failed update is counted; later checks follow the machine.
                live = live_label_texts(p)
            else:
                live.remove(victim)
                live.append(new)
            off = rng.randrange(n_chunks) * w.chunk_n
            chunk = w.data[off:off + w.chunk_n]
            if deferred is not None:
                # Memory pass: scan now, check after tracemalloc has stopped.
                dt, lines = self.scan(p, chunk)
                deferred.append((list(live), chunk, lines))
            else:
                dt = self.checked_scan("scan", p, live, chunk)
                chunk_ms.append(dt * 1e3 if dt is not None else None)
            rounds += 1
            if max_rounds is not None and rounds >= max_rounds:
                break
        self.tracing(False)
        return p

    def memory_pass(self, p) -> float:
        """tracemalloc peak, in MB, over one scan (regex-live: MEM_ROUNDS
        rounds). It is also the first, cold operation of the run."""
        w = self.w
        deferred = []
        tracemalloc.start()
        try:
            if w.live:
                rng = random.Random(f"regex-live/memory/{w.seed}")
                self.live_rounds(p, rng, 0.0, [], [], min_rounds=MEM_ROUNDS,
                                 max_rounds=MEM_ROUNDS, deferred=deferred)
            else:
                _, lines = self.scan(p, w.data, self.plan())
                deferred.append((w.patterns, w.data, lines))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        for patterns, data, lines in deferred:
            self.verify(lines, data, w.expect(patterns, data), "memory pass")
        if w.strategy == "chained":
            # split-2w: the single-worker run must agree with the oracle too.
            self.checked_scan("single", p, w.patterns, w.data)
        return peak / 1e6


# ---------------------------------------------------------------------------
# end-to-end run

def run_end_to_end(b: Bench) -> tuple[dict, dict]:
    w = b.w
    setup_s, p = b.time_setups()
    peak_mb = b.memory_pass(p)
    start = perf_counter()
    report = {"setup_s": (setup_s, "s", f"median of {SETUP_SAMPLES} samples"),
              "peak_mem_mb": (peak_mb, "MB", "tracemalloc peak")}
    b.raw.clear()
    if w.live:
        chunk_ms, update_ms = [], []
        rng = random.Random(f"regex-live/loop/{w.seed}")
        b.live_rounds(p, rng, start + b.seconds, chunk_ms, update_ms)
        chunk_ms = [x for x in chunk_ms if x is not None]
        update_ms = [x for x in update_ms if x is not None]
        scan_mbps = w.chunk_n / median(chunk_ms) / 1e3
        report["chunk_ms_p50"] = (median(chunk_ms), "ms", f"{len(chunk_ms)} chunks")
        report["chunk_ms_p90"] = (percentile(chunk_ms, 90), "ms", f"{len(chunk_ms)} chunks")
    else:
        scan_s, update_s = [], []
        b.run_scans(p, start + SCAN_SHARE * b.seconds, scan_s)
        b.run_updates(p, start + b.seconds, update_s)
        update_ms = [x * 1e3 for x in update_s]
        scan_mbps = len(w.data) / median(scan_s) / 1e6
        report["scan_s_p50"] = (median(scan_s), "s", f"{len(scan_s)} scans")
    report["scan_mbps"] = (scan_mbps, "MB/s", "input bytes / median scan time")
    report["update_ms_p50"] = (median(update_ms), "ms", f"{len(update_ms)} updates")
    report["update_ms_p90"] = (percentile(update_ms, 90), "ms", f"{len(update_ms)} updates")
    report["failed_frac"] = (b.failed / max(b.attempted, 1), "1",
                             f"{b.failed}/{b.attempted} operations")
    for kind in ("scan", "update"):
        report[f"wall_{kind}_ms_p50"] = (median(b.raw.get(kind, [])) * 1e3, "ms",
                                         "unscaled wall time")
    metrics = {name: {"value": report[name][0], "unit": unit}
               for name, unit in END_TO_END_UNITS.items()}
    return report, metrics


# ---------------------------------------------------------------------------
# traced run

def run_traced(b: Bench) -> tuple[dict, dict]:
    w = b.w
    p = b.traced_setups()
    untraced, traced = [], []
    start = perf_counter()
    if w.live:
        rng = random.Random(f"regex-live/loop/{w.seed}")
        chunk_ms, update_ms = [], []
        b.live_rounds(p, rng, start + b.seconds, chunk_ms, update_ms, alternate=True)
        for i, (c, u) in enumerate(zip(chunk_ms, update_ms)):
            if c is not None and u is not None:
                (traced if i % 2 else untraced).append((c + u) / 1e3)
        expected = None
    else:
        b.checked_scan("warmup", p, w.patterns, w.data, b.plan())
        expected = b.run_scans(p, start + SCAN_SHARE * b.seconds, untraced, traced)
        b.tracing(True)
        b.run_updates(p, start + b.seconds, [])
        b.tracing(False)
    probes = layer_probes(b, p, expected)
    metrics = layer_metrics(b.log, probes, p, w.data)
    overhead_s = median(traced) - median(untraced)
    metrics["trace.overhead_s"] = (overhead_s, "s")
    metrics["trace.overhead_frac"] = (overhead_s / median(untraced), "ratio")
    metrics["trace.spans"] = (len(b.log.spans), "count")
    OUT.mkdir(exist_ok=True)
    b.log.write(OUT / f"trace-{w.name}-seed{w.seed}.jsonl")
    report = {name: (value, unit, "") for name, (value, unit) in metrics.items()}
    return report, {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}


def layer_probes(b: Bench, p, expected) -> dict:
    """Extra scans of the workload's input, traced, for the engine and
    parallel metrics: prefix, pattern subset and every partition strategy."""
    w = b.w
    data = w.data
    if expected is None:
        expected = w.expect(w.patterns, data)
    k = max(1, math.ceil(len(w.patterns) / 20))     # 10 of 200 on literal-dict
    b.tracing(True)
    with b.op("probe.setup"):
        sub = b.setup(w.patterns[:k])
    times = {}

    def probe(name, machine, text, plan, want):
        t0 = perf_counter()
        dt = b.checked_scan("probe." + name, machine, None, text, plan, want)
        times[name] = dt if dt is not None else perf_counter() - t0

    quarter = len(data) // 4
    probe("single", p, data, None, expected)
    probe("quarter", p, data[:quarter], None,
          {m for m in expected if m[2] < quarter})
    probe("subset", sub, data, None,
          {m for m in expected if m[0] in set(w.patterns[:k])})
    probe("chained", p, data, P.data_plan("chained", len(data), WORKERS), expected)
    probe("lazy", p, data, P.data_plan("lazy", len(data), WORKERS), expected)
    probe("regex", p, data, P.regex_plan(p, WORKERS), expected)
    b.tracing(False)
    return times


def layer_metrics(log: Tracer, probes: dict, p, data: bytes) -> dict:
    selfs = [t * log.scale.get(sp.run, 1.0)
             for t, sp in zip(log.self_times(), log.spans)]
    ops: dict[str, int] = {}
    for kind in log.op_kind.values():
        ops[kind] = ops.get(kind, 0) + 1
    time_by: dict[tuple[str, str], float] = {}
    spans_by: dict[tuple[str, str], list] = {}
    for sp, self_s in zip(log.spans, selfs):
        key = (log.op_kind.get(sp.run), sp.name)
        time_by[key] = time_by.get(key, 0.0) + self_s
        spans_by.setdefault(key, []).append(sp)

    def per_op(kind, *names):
        return sum(time_by.get((kind, n), 0.0) for n in names) / max(ops.get(kind, 0), 1)

    def attr_sum(kind, name, attr):
        return sum(sp.attrs.get(attr, 0) for sp in spans_by.get((kind, name), []))

    n_setup = max(ops.get("setup", 0), 1)
    n_scan = max(ops.get("scan", 0), 1)
    dfa_spans = spans_by.get(("setup", "compile.dfa"), [])
    seg_spans = spans_by.get(("scan", "engine.run_segment"), [])
    cycles = attr_sum("scan", "engine.run_segment", "n")
    lazy_n = attr_sum("probe.lazy", "engine.run_segment", "n")
    chained = spans_by.get(("probe.chained", "engine.run_segment"), [])
    parallel_names = [name for kind, name in time_by if kind == "scan"
                      and name.startswith("parallel.")]
    states, edges = union_size(p)
    a = p.automaton
    m = {
        "syntax.parse_s": (per_op("setup", "syntax.parse"), "s"),
        "compile.nfa_s": (per_op("setup", "compile.nfa"), "s"),
        "compile.dfa_s": (per_op("setup", "compile.dfa"), "s"),
        "compile.dfa_states": (sum(sp.attrs.get("states", 0) for sp in dfa_spans) / n_setup, "count"),
        "compile.nfa_fallbacks": (sum(sp.attrs.get("error") == "StateCeilingExceeded"
                                      for sp in dfa_spans) / n_setup, "count"),
        "union.build_s": (per_op("setup", "union.build"), "s"),
        "union.add_s": (per_op("update", "union.add"), "s"),
        "union.remove_s": (per_op("update", "union.remove"), "s"),
        "union.states": (states, "count"),
        "union.byte_edges": (edges, "count"),
        "engine.scan_s": (per_op("scan", "engine.run", "engine.run_segment",
                                 "engine.find_matches"), "s"),
        "engine.format_s": (per_op("scan", "engine.format"), "s"),
        "engine.cycles": (cycles / n_scan, "count"),
        "engine.matches": (attr_sum("scan", "engine.run_segment", "matches") / n_scan, "count"),
        "engine.peak_pairs": (max((sp.attrs.get("peak_pairs", 0) for sp in seg_spans), default=0), "count"),
        "engine.mean_pairs": (attr_sum("scan", "engine.run_segment", "sum_pairs") / max(cycles, 1), "count"),
        "engine.seed_survival": (seed_survival(a, data), "ratio"),
        "engine.r_scaling": (probes["single"] / probes["subset"], "ratio"),
        "engine.n_slope": (math.log(probes["single"] / probes["quarter"]) / math.log(4), "ratio"),
        "parallel.single_s": (probes["single"], "s"),
        "parallel.chained_s": (probes["chained"], "s"),
        "parallel.lazy_s": (probes["lazy"], "s"),
        "parallel.regex_s": (probes["regex"], "s"),
        "parallel.self_s": (per_op("scan", *parallel_names), "s"),
        "parallel.bytes_scanned_ratio": (lazy_n / len(data), "ratio"),
        "parallel.carry_rounds": (sum(sp.attrs.get("carry_pairs", 0) > 0 for sp in chained), "count"),
        "parallel.carry_pairs": (sum(sp.attrs.get("carry_pairs", 0) for sp in chained), "count"),
    }
    return m


def seed_survival(a, data: bytes) -> float:
    """Share of the states seeded each cycle (the epsilon closure of the
    initial state) that have a transition on the byte being read."""
    start = pfsm.epsilon_closure(a, {a.initial})
    alive = [0] * 256
    for s in start:
        for byte, succ in a.byte_transitions.get(s, {}).items():
            if succ:
                alive[byte] += 1
    counts = [0] * 256
    for byte in data:
        counts[byte] += 1
    return sum(alive[v] * c for v, c in enumerate(counts)) / (len(start) * max(len(data), 1))


# ---------------------------------------------------------------------------
# entry point

def run_one(name: str, seed: int, seconds: float, trace: bool,
            sizes: wl.Sizes = wl.FULL) -> tuple[dict, dict]:
    """Run one workload; returns (record, result). result is the contract's
    JSON object, record the fingerprint, environment and full report."""
    w = wl.build(name, seed, sizes)
    b = Bench(w, seconds, trace)
    report, metrics = run_traced(b) if trace else run_end_to_end(b)
    states, edges = union_size(b.setup(w.patterns))
    record = {"workload": name, "trace": int(trace), "seconds": seconds,
              "fingerprint": {**w.fingerprint(), "union_states": states,
                              "union_byte_edges": edges},
              "environment": environment(),
              "report": {k: {"value": v, "unit": u, "note": note}
                         for k, (v, u, note) in report.items()},
              "errors": b.errors}
    result = {"correct": b.failed == 0, "attempted": b.attempted,
              "failed": b.failed, "metrics": metrics}
    return record, result


def print_report(record: dict):
    fp, env = record["fingerprint"], record["environment"]
    print(f"workload {record['workload']}  seed {fp['seed']}  r={fp['r']} "
          f"n={fp['n']}  union {fp['union_states']} states "
          f"{fp['union_byte_edges']} byte edges  backend {env['backend']}")
    for name, row in record["report"].items():
        print(f"  {name:30s} {row['value']:<14.6g} {row['unit']:6s} {row['note']}")
    for err in record["errors"]:
        print(err, file=sys.stderr)
    print("record " + json.dumps(record, sort_keys=True))


def smoke() -> int:
    """Every workload at toy size, untraced and traced, with all checks."""
    ok = True
    for name in wl.NAMES:
        for trace in (False, True):
            t0 = perf_counter()
            record, result = run_one(name, 1, 0.2, trace, wl.TOY)
            for err in record["errors"]:
                print(err, file=sys.stderr)
            ok &= result["correct"]
            print(f"{name:18s} trace={int(trace)} correct={result['correct']} "
                  f"ops={result['attempted']} failed={result['failed']} "
                  f"{perf_counter() - t0:.2f}s")
    print("smoke", "ok" if ok else "FAILED")
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=wl.NAMES)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="run every workload at toy size and check the outputs")
    args = ap.parse_args(argv)
    if args.smoke:
        return smoke()
    if args.workload is None:
        ap.error("--workload is required")
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    gc.freeze()     # modules and interpreter state stay out of every collection
    record, result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print_report(record)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
