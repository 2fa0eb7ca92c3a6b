"""Span recording and the arithmetic the benchmark reports.

Everything here is stdlib-only so the parent process that schedules passes
stays small: its resident memory never leaks into the children it measures.
"""

from __future__ import annotations

import bisect
import gc
import math
import random
import statistics
import time
from contextlib import contextmanager
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
"""Percentiles a tail may be reported at, lowest first."""

MIN_BEYOND = 10
"""A tail percentile needs at least this many samples above its rank."""


def nearest_rank(n: int, level: float) -> int:
    """1-based nearest rank of the level-th percentile of n samples."""
    return max(1, math.ceil(Fraction(str(level)) * n / 100))


def tail_level(n: int, cap: float = TAIL_LADDER[-1]) -> float | None:
    """Highest ladder percentile, at most cap, with MIN_BEYOND samples beyond it.

    Returns None when even the median leaves fewer than MIN_BEYOND samples
    above it.  Workloads pass a fixed cap so that the reported level stays the
    same from run to run while their sample count varies with machine speed.
    """
    best = None
    for level in TAIL_LADDER:
        if level <= cap and n - nearest_rank(n, level) >= MIN_BEYOND:
            best = level
    return best


def percentile(values: Sequence[float], level: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    return ordered[nearest_rank(len(ordered), level) - 1]


def tail(values: Sequence[float], cap: float) -> tuple[float, float]:
    """(level, value) of the tail timing; the maximum, level 100, without one."""
    level = tail_level(len(values), cap)
    if level is None:
        return 100.0, max(values)
    return level, percentile(values, level)


# -- machine speed ---------------------------------------------------------

CALIBRATION_REF_S = 0.004
"""Seconds that `calibrate` is taken to last at the reference speed.

Only the scale of the reported timings depends on it; it is near what one
calibration takes on a 2-core x86-64 VM when that VM runs at full speed.
"""

_CALIBRATION_POOL: list[tuple[tuple[int, ...], int, int]] = []
_CALIBRATION_ORDER: list[int] = []


def _calibration_pool() -> tuple[list[tuple[tuple[int, ...], int, int]], list[int]]:
    """A fixed working set of (sorted config, numerator, denominator), built once.

    Its entries hold only ints, which the garbage collector stops tracking,
    so the pool does not slow the collections of the process it sits in.
    """
    if not _CALIBRATION_POOL:
        rng = random.Random("calibration")
        for _ in range(20000):
            config = tuple(sorted(rng.sample(range(12), 4)))
            _CALIBRATION_POOL.append((config, rng.randint(1, 50), rng.randint(1, 50)))
        _CALIBRATION_ORDER.extend(rng.sample(range(20000), 1500))
    return _CALIBRATION_POOL, _CALIBRATION_ORDER


def calibrate(reps: int = 3) -> float:
    """Median seconds of a fixed pure-Python workload, over `reps` runs.

    It does what the program spends its time on, Fraction arithmetic and
    tuple-keyed dict updates, over a working set scattered in memory as the
    program's amplitudes are.  The garbage collector is off while it runs,
    so a larger heap in the calling process cannot slow it down.
    """
    pool, order = _calibration_pool()
    samples = []
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(reps):
            start = time.perf_counter()
            acc, table = Fraction(0), {}
            for k in order:
                config, numerator, denominator = pool[k]
                acc += Fraction(numerator, denominator)
                table[config[1:]] = table.get(config[1:], 0) + 1
            samples.append(time.perf_counter() - start)
    finally:
        if was_enabled:
            gc.enable()
    return statistics.median(samples)


def speed_scale(calibrations: Sequence[float]) -> float:
    """Factor that turns seconds measured alongside these calibrations into
    seconds at the reference speed.

    A shared host runs the same code at speeds up to twice apart, in spells
    that last minutes; timing a fixed workload next to the measured one and
    scaling by it takes that drift out, which no statistic over one run can.
    """
    return CALIBRATION_REF_S / statistics.median(calibrations)


def op_scale(calibrations: Sequence[tuple[int, float]], pos: int) -> float:
    """`speed_scale` for the op at `pos`, from the calibrations around it.

    Each calibration is (position of the last op before it, seconds), in
    order; the op uses the last calibration before it and the first after.
    """
    marks = [after for after, _ in calibrations]
    i = bisect.bisect_left(marks, pos)
    before = calibrations[max(i - 1, 0)][1]
    after = calibrations[min(i, len(calibrations) - 1)][1]
    return speed_scale([before, after])


# -- spans -----------------------------------------------------------------

Span = tuple[int, str, float, float, int | None, int | None]
"""(span id, name, start, end, parent id, op id); times from perf_counter."""


class Tracer:
    """In-memory span and counter recorder for one process.

    Spans nest through a stack, so a span's parent is the span open when it
    started.  Nothing is written until the owner serialises `spans`.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self.op: int | None = None

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append((span_id, name, 0.0, 0.0, parent, self.op))
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[span_id] = (span_id, name, start, end, parent, self.op)

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def peak(self, name: str, value: int) -> None:
        self.counts[name] = max(self.counts.get(name, 0), value)


def _covered(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: Sequence[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for _, _, start, end, parent, _ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    return {
        span_id: (end - start) - _covered(children.get(span_id, ()), start, end)
        for span_id, _, start, end, _, _ in spans
    }


def layer_times(spans: Sequence[Span], inclusive: Iterable[str] = ()) -> dict[int, dict[str, float]]:
    """Per op id, each span name's summed self time.

    Names in `inclusive` are summed over their whole duration instead.
    """
    inclusive = set(inclusive)
    own = self_times(spans)
    out: dict[int, dict[str, float]] = {}
    for span_id, name, start, end, _, op in spans:
        value = end - start if name in inclusive else own[span_id]
        per_op = out.setdefault(op if op is not None else -1, {})
        per_op[name] = per_op.get(name, 0.0) + value
    return out


# -- import timing ---------------------------------------------------------

def _in_package(module: str, prefix: str) -> bool:
    return module == prefix or module.startswith(prefix + ".")


def importtime_cumulative(stderr: str, prefixes: Sequence[str]) -> dict[str, float]:
    """Cumulative seconds per module prefix from `python -X importtime` output.

    A prefix matches a module of that name or any submodule.  Only the
    outermost matching lines count, since their cumulative time already
    includes the nested ones.
    """
    lines = []
    for raw in stderr.splitlines():
        if not raw.startswith("import time:") or "cumulative" in raw:
            continue
        _, cumulative, name = raw[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip())) // 2
        lines.append((depth, name.strip(), int(cumulative) / 1e6))
    totals = {prefix: 0.0 for prefix in prefixes}
    ancestors: list[tuple[int, str]] = []
    # importtime prints children before their parent, so walking the lines
    # backwards visits every parent before its descendants.
    for depth, name, cumulative in reversed(lines):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        for prefix in prefixes:
            if _in_package(name, prefix) and not any(
                _in_package(a, prefix) for _, a in ancestors
            ):
                totals[prefix] += cumulative
        ancestors.append((depth, name))
    return totals
