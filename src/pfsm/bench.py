"""Benchmark harness: wall time vs input length, pattern count, strategy
and worker count."""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass, fields

from .compile import compile_pattern
from .engine import run
from .parallel import data_plan, regex_plan, run_partitioned
from .union import Pfsm, build_pfsm


@dataclass
class BenchRow:
    scenario: str
    n: int
    r: int
    strategy: str
    workers: int
    seconds: float


CSV_HEADER = ",".join(f.name for f in fields(BenchRow))


def rows_to_csv(rows: list[BenchRow]) -> str:
    lines = [CSV_HEADER]
    for row in rows:
        lines.append(f"{row.scenario},{row.n},{row.r},{row.strategy},"
                     f"{row.workers},{row.seconds:.6f}")
    return "\n".join(lines) + "\n"


def adversarial_patterns(r: int) -> list[str]:
    """Patterns that keep one live tag per start position on an all-'a'
    input, maximizing the active set (worst-case quadratic behavior)
    without flooding the output with matches."""
    if r > 24:
        raise ValueError("adversarial set supports at most 24 patterns")
    return ["a*" + chr(ord("b") + i) for i in range(r)]


def adversarial_machine(r: int, form: str = "dfa") -> Pfsm:
    return build_pfsm([(pat, compile_pattern(pat, form))
                       for pat in adversarial_patterns(r)])


def _time(fn, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _sink(_):
    pass


def scaling_vs_n(ns: list[int], r: int, repeats: int = 3) -> list[BenchRow]:
    p = adversarial_machine(r)
    rows = []
    for n in ns:
        data = b"a" * n
        run(p, data, _sink)  # warm-up
        secs = _time(lambda: run(p, data, _sink), repeats)
        rows.append(BenchRow("scaling_n", n, r, "single", 1, secs))
    return rows


def scaling_vs_r(rs: list[int], n: int, repeats: int = 3) -> list[BenchRow]:
    data = b"a" * n
    rows = []
    for r in rs:
        p = adversarial_machine(r)
        run(p, data, _sink)
        secs = _time(lambda: run(p, data, _sink), repeats)
        rows.append(BenchRow("scaling_r", n, r, "single", 1, secs))
    return rows


def strategy_scaling(p: Pfsm, data: bytes, strategies: list[str],
                     workers_list: list[int],
                     repeats: int = 3) -> list[BenchRow]:
    rows = []
    r = len(p.directory)
    for strategy in strategies:
        for workers in workers_list:
            if strategy == "single":
                fn = lambda: run(p, data, _sink)
                workers = 1
            else:
                plan = (regex_plan(p, workers) if strategy == "regex"
                        else data_plan(strategy, len(data), workers))
                fn = lambda plan=plan: run_partitioned(p, data, plan)
            fn()
            rows.append(BenchRow("strategy", len(data), r, strategy, workers,
                                 _time(fn, repeats)))
            if strategy == "single":
                break
    return rows


def fit_loglog_slope(xs: list[float], ts: list[float]) -> float:
    """Least-squares slope of log(t) against log(x)."""
    return statistics.linear_regression([math.log(x) for x in xs],
                                        [math.log(t) for t in ts]).slope
