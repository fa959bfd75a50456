"""Wall time scaled to a reference interpreter speed.

The benchmark shares its cores with other work, and on a shared two-core
sandbox the same Python code runs up to half again slower for stretches of
several seconds. A 10-second median of raw wall times then moves by 10-30 %
between runs, more than any bound worth setting. A fixed calibration loop,
timed just before and just after each measured operation, slows down with
it. Each reported time is therefore

    wall time * (REF_S / mean of the loop's time before and after) ** EXPONENT

that is, an estimate of the wall time the operation would take while the
loop runs in REF_S. REF_S is close to the loop's typical time under CPython
3.11 on the sandbox where the benchmark was defined. The loop is independent
of pfsm, so only a change in pfsm moves a scaled time.

The loop, pure interpreter dispatch, slows down more than pfsm's
allocation-heavy operations do. Over 150 s on that sandbox, the 10-second
medians of an adversarial scan, a literal scan, a regex chunk scan and a
regex update had interquartile spreads of 23-36 % unscaled, 3-11 % with
EXPONENT 1 and 3-7 % with EXPONENT 0.8.
"""

from __future__ import annotations

from time import perf_counter

REF_S = 250e-6
EXPONENT = 0.8


def ref_loop() -> int:
    """Dict, set and integer work of the kind the scanner does per byte."""
    table: dict[int, int] = {}
    seen: set[int] = set()
    acc = 0
    for i in range(1500):
        k = (i * 7) & 255
        table[k] = table.get(k, 0) + i
        if k not in seen:
            seen.add(k)
        acc += len(seen)
    return acc


def ref_time() -> float:
    """Median of three timings of the loop."""
    times = []
    for _ in range(3):
        t0 = perf_counter()
        ref_loop()
        times.append(perf_counter() - t0)
    return sorted(times)[1]


class Clock:
    def __init__(self):
        self._last = ref_time()

    def scaled(self, wall: float) -> float:
        """Scale the wall time of the operation that just ended; the loop
        timed after it also serves as the 'before' of the next one."""
        before = self._last
        self._last = after = ref_time()
        return wall * (REF_S / ((before + after) / 2)) ** EXPONENT

    def restart(self):
        """Take a fresh 'before' timing, after untimed work such as checks."""
        self._last = ref_time()
