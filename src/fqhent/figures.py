"""Parameter sweeps and figure emission (CSV and SVG).

A figure is a set of (family, N) series evaluated over t = (m-1)/2.  The
CSV file is the canonical artifact: header ``t,m,family,N,S_f_bits``, LF
line endings, 12 significant digits, rows sorted by (family, N, m), and
byte-identical across runs and across serial/parallel evaluation.  The SVG
is a self-contained scatter rendering of the same rows; grid points whose
construction collapses to the zero wavefunction are absent from the CSV and
annotated in the SVG.  Each point is measured by :func:`family_report`
from its orbital occupations, with no FockVector.  The JSON rows are an
alternative output that imports json only when written; FigureSpec and
SweepPoint are immutable slot records that pickle by value, which is how a
parallel sweep's points come back.
"""

from __future__ import annotations

import functools
import os
import threading
from typing import Iterable, Iterator, Sequence

from ._record import Record
from .lll import occupations
from .measure import EntanglementReport, spectrum_entropy
from .poly import _check_ints
from .states import ZeroWavefunctionError, family_expansion, family_factors

DEFAULT_T_MAX = 6

_PALETTE = ("#1f5fa8", "#c23b22", "#2e7d32")
_MARKERS = ("square", "cross", "circle")

PRESETS: dict[int, tuple[str, tuple[tuple[str, int], ...]]] = {
    1: ("laughlin vs hierarchical_phi, N=2", (("laughlin", 2), ("hierarchical_phi", 2))),
    2: ("laughlin vs hierarchical_phi, N=3", (("laughlin", 3), ("hierarchical_phi", 3))),
    3: ("laughlin, N=2 vs N=3", (("laughlin", 2), ("laughlin", 3))),
    4: ("hierarchical_phi, N=2 vs N=3", (("hierarchical_phi", 2), ("hierarchical_phi", 3))),
    5: ("chi, N=4", (("chi", 4),)),
}
"""Figure id -> (title, (family, N) series)."""

ROW_FIELDS = ("t", "m", "family", "N", "S_f_bits")
"""Column names of an output row, in CSV and JSON order."""


def _check_figure_id(fig_id: int) -> None:
    _check_ints(fig_id=fig_id)
    if fig_id not in PRESETS:
        raise ValueError(f"figure id must be one of {tuple(PRESETS)}, got {fig_id}")


class FigureSpec(Record):
    """One preset figure: numbered id, its (family, N) series and a t grid of
    non-negative Python ints, the series and the grid stored as tuples."""

    __slots__ = ("id", "series", "t_values")

    def __init__(
        self, id: int, series: tuple[tuple[str, int], ...], t_values: tuple[int, ...]
    ) -> None:
        _check_figure_id(id)
        super().__init__(id, tuple(map(tuple, series)), tuple(t_values))
        for t in self.t_values:
            _check_ints(t=t)
            if t < 0:
                raise ValueError(f"t values must be non-negative, got {t}")


def figure_spec(fig_id: int, t_max: int = DEFAULT_T_MAX) -> FigureSpec:
    """The preset series for figure fig_id over t = 0 .. t_max."""
    _check_figure_id(fig_id)
    _check_ints(t_max=t_max)
    if t_max < 0:
        raise ValueError("t_max must be non-negative")
    return FigureSpec(fig_id, PRESETS[fig_id][1], tuple(range(t_max + 1)))


def figure_title(fig_id: int) -> str:
    _check_figure_id(fig_id)
    return f"figure {fig_id}: {PRESETS[fig_id][0]}"


class SweepPoint(Record):
    """One evaluated grid point; measure_bits is None when the state is zero."""

    __slots__ = ("family", "n_electrons", "m", "measure_bits")

    @property
    def t(self) -> int:
        return (self.m - 1) // 2

    def row(self) -> tuple[int, int, str, int, float | None]:
        """The point's values in ROW_FIELDS order."""
        return (self.t, self.m, self.family, self.n_electrons, self.measure_bits)


def _sorted_points(points: Iterable[SweepPoint]) -> list[SweepPoint]:
    """Points in output row order, sorted by (family, N, m)."""
    return sorted(points, key=lambda p: (p.family, p.n_electrons, p.m))


def family_report(family: str, n_electrons: int, m: int) -> EntanglementReport:
    """The measure of one family state, read off its orbital occupations.

    A family state is homogeneous, so its one-body density matrix is the
    diagonal occupied[mu] / (N total) that :func:`fqhent.lll.occupations`
    sums in one pass over the determinants.  No FockVector and no density
    matrix is built, and no gcd is taken: the entropy divides each
    numerator by N times the total, and int true division is correctly
    rounded whatever factor both sides share, so the report has, bit for
    bit, the values of ``modified_measure(FAMILIES[family](n_electrons, m))``,
    the public route the tests compare it with.  The one check the matrix's
    constructor would make that can fail here, the trace, is made directly:
    numerators that do not sum to N times the total raise ArithmeticError.
    Raises as :func:`~fqhent.states.family_expansion` does.
    """
    occupied, total = occupations(family_expansion(family, n_electrons, m))
    denominator = n_electrons * total
    if sum(occupied) != denominator:
        raise ArithmeticError(
            f"{family} N={n_electrons} m={m}: occupations sum to {sum(occupied)}, not N times"
            f" the total weight, {denominator}"
        )
    entropy = spectrum_entropy(occupied, denominator)
    return EntanglementReport.from_entropy(n_electrons, entropy, family, m)


@functools.lru_cache(maxsize=None, typed=True)
def _measured_point(family: str, n_electrons: int, m: int) -> SweepPoint:
    return SweepPoint(family, n_electrons, m, family_report(family, n_electrons, m).measure_bits)


def evaluate_point(family: str, n_electrons: int, m: int) -> SweepPoint:
    """Build one state and measure it; zero wavefunctions yield value None.

    Measured points are memoized per process with typed keys: a repeated
    (family, N, m) returns the same frozen SweepPoint and builds nothing.
    Only states within the size budget are kept, so the memo needs no bound.
    Refusals raise and are not kept; nor are zero points, which cost one
    parameter check: :func:`series_points` never calls this for them, but a
    library :func:`figure_points` or :func:`sweep` over a large t grid would
    otherwise keep every zero point it asks for.
    """
    try:
        return _measured_point(family, n_electrons, m)
    except ZeroWavefunctionError:
        return SweepPoint(family, n_electrons, m, None)


def _is_nonzero(family: str, n_electrons: int, m: int) -> bool:
    """Whether the point is nonzero; one over the size budget raises ValueError."""
    try:
        family_factors(family, n_electrons, m)
    except ZeroWavefunctionError:
        return False
    return True


class WorkerStartError(RuntimeError):
    """A parallel sweep cannot start the threads its process pool needs."""


def _pool_threads_start() -> bool:
    """Whether two threads can run at once here.  A process pool forks its
    workers, then starts a manager thread and a queue feeder; when a thread
    cannot start, as under a tight address-space limit, the sweep hangs."""
    release = threading.Event()
    threads: list[threading.Thread] = []
    try:
        for _ in range(2):
            thread = threading.Thread(target=release.wait)
            thread.start()
            threads.append(thread)
    except RuntimeError:
        return False
    finally:
        release.set()
        for thread in threads:
            thread.join()
    return True


def sweep(requests: Sequence[tuple[str, int, int]], jobs: int = 1) -> list[SweepPoint]:
    """Evaluate (family, N, m) requests, optionally across processes.

    Every request is checked against the family limits before any is
    evaluated, so a sweep with a request over the size budget raises
    ValueError at once; a zero request becomes a point with value None.
    That check, :func:`~fqhent.states.family_factors`, and
    :func:`evaluate_point` are memoized, so a process counts and measures
    each distinct nonzero (family, N, m) once; the workers of a parallel
    sweep keep their own memos.  The result order follows the request order
    regardless of jobs, so downstream sorting is the only ordering that
    matters.  jobs must be a Python int, and at most min(jobs, requests,
    cpu count) worker processes are started.  A parallel sweep that cannot
    start its pool's threads raises WorkerStartError before it forks any
    worker.  :func:`series_points` hands it only the nonzero points.
    """
    _check_ints(jobs=jobs)
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    for request in requests:
        _is_nonzero(*request)
    workers = min(jobs, len(requests), os.cpu_count() or 1)
    if workers <= 1:
        return [evaluate_point(*req) for req in requests]
    if not _pool_threads_start():
        raise WorkerStartError("cannot start a process pool's two threads; use --jobs 1")
    # Imported here so that start-up and serial sweeps never load multiprocessing.
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(evaluate_point, *zip(*requests)))


def series_points(
    series: Iterable[tuple[str, int]], m_max: int, jobs: int = 1
) -> tuple[list[SweepPoint], Iterator[SweepPoint]]:
    """The (family, N) series over odd m <= m_max: measured points, then a lazy zero tail.

    A series' zero points are the odd m above its last nonzero one, because
    the condensate exponent p never falls as m grows and the condensate
    vanishes for every p > 2N.  Each series is checked at its top odd m
    first, so one over the size budget there, as laughlin and
    hierarchical_phi are at their largest m, is refused at once.  When that
    point is zero, the series is walked up from m = 1 to its first zero m;
    the check at m = 1 bounds N by the orbital budget, so the walk is short.
    Only the nonzero points are swept, and the zero points are generated
    when the tail is read, so neither time nor memory grows with m_max
    unless it is.  Raises ValueError when m_max is not a Python int, there
    is no odd m in 1..m_max or a point is over the size budget.
    """
    _check_ints(m_max=m_max)
    m_top = m_max if m_max % 2 else m_max - 1
    if m_top < 1:
        raise ValueError(f"no odd m in 1..{m_max}")
    live: list[tuple[str, int, int]] = []
    zero_spans: list[tuple[str, int, range]] = []
    for family, n in series:
        first_zero = m_top + 2 if _is_nonzero(family, n, m_top) else 1
        while first_zero < m_top and _is_nonzero(family, n, first_zero):
            first_zero += 2
        live += [(family, n, m) for m in range(1, first_zero, 2)]
        zero_spans.append((family, n, range(first_zero, m_top + 1, 2)))
    tail = (SweepPoint(family, n, m, None) for family, n, ms in zero_spans for m in ms)
    return sweep(live, jobs=jobs), tail


def figure_points(spec: FigureSpec) -> list[SweepPoint]:
    """Every point of spec, in one process; :func:`sweep` is the parallel entry."""
    requests = [
        (family, n, 2 * t + 1)
        for family, n in spec.series
        for t in spec.t_values
    ]
    return sweep(requests)


def rows_to_csv(points: Iterable[SweepPoint]) -> str:
    """Canonical CSV for a set of sweep points.

    Zero-wavefunction points carry no value and are omitted; rows are sorted
    by (family, N, m); line endings are LF and numbers use 12 significant
    digits with a ``.`` decimal separator.
    """
    lines = [",".join(ROW_FIELDS)]
    for p in _sorted_points(points):
        *fields, value = p.row()
        if value is not None:
            lines.append(",".join(map(str, fields)) + f",{value:.12g}")
    return "\n".join(lines) + "\n"


def rows_to_json(points: Iterable[SweepPoint]) -> str:
    """JSON list of rows in CSV order; zero-wavefunction points carry null."""
    import json

    rows = [dict(zip(ROW_FIELDS, p.row())) for p in _sorted_points(points)]
    return json.dumps(rows, indent=2)


# -- SVG rendering ---------------------------------------------------------

_WIDTH, _HEIGHT = 640, 440
_LEFT, _RIGHT, _TOP, _BOTTOM = 70, 24, 36, 56


def _marker(shape: str, x: float, y: float, color: str) -> str:
    if shape == "square":
        return (
            f'<rect x="{x - 4:.2f}" y="{y - 4:.2f}" width="8" height="8" '
            f'fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
    if shape == "cross":
        return (
            f'<path d="M {x - 4:.2f} {y - 4:.2f} L {x + 4:.2f} {y + 4:.2f} '
            f'M {x - 4:.2f} {y + 4:.2f} L {x + 4:.2f} {y - 4:.2f}" '
            f'stroke="{color}" stroke-width="1.5"/>'
        )
    return (
        f'<circle cx="{x:.2f}" cy="{y:.2f}" r="4" fill="none" '
        f'stroke="{color}" stroke-width="1.5"/>'
    )


def _nice_step(span: float) -> float:
    for step in (0.05, 0.1, 0.2, 0.25, 0.5, 1.0, 2.0, 5.0):
        if span / step <= 8:
            return step
    return 10.0


def render_svg(points: Sequence[SweepPoint], title: str) -> str:
    """Self-contained scatter plot of sweep points; no external assets."""
    series: dict[tuple[str, int], list[SweepPoint]] = {}
    for p in _sorted_points(points):
        series.setdefault((p.family, p.n_electrons), []).append(p)

    t_values = [p.t for p in points] or [0]
    t_lo, t_hi = min(t_values), max(t_values)
    values = [p.measure_bits for p in points if p.measure_bits is not None]
    y_hi = max(values) * 1.08 if values else 1.0
    y_hi = max(y_hi, 0.1)

    def sx(t: float) -> float:
        span = max(t_hi - t_lo, 1)
        return _LEFT + (t - t_lo) / span * (_WIDTH - _LEFT - _RIGHT)

    def sy(v: float) -> float:
        return _HEIGHT - _BOTTOM - v / y_hi * (_HEIGHT - _TOP - _BOTTOM)

    out: list[str] = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}" '
        f'font-family="monospace" font-size="12">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_WIDTH / 2:.0f}" y="20" text-anchor="middle">{title}</text>',
        # axes
        f'<path d="M {_LEFT} {_TOP} L {_LEFT} {_HEIGHT - _BOTTOM} '
        f'L {_WIDTH - _RIGHT} {_HEIGHT - _BOTTOM}" fill="none" '
        f'stroke="black" stroke-width="1"/>',
        f'<text x="{(_LEFT + _WIDTH - _RIGHT) / 2:.0f}" y="{_HEIGHT - 14}" '
        f'text-anchor="middle">t</text>',
        f'<text x="18" y="{(_TOP + _HEIGHT - _BOTTOM) / 2:.0f}" '
        f'text-anchor="middle" transform="rotate(-90 18 '
        f'{(_TOP + _HEIGHT - _BOTTOM) / 2:.0f})">S_f (ln2 bits)</text>',
    ]

    for t in range(t_lo, t_hi + 1):
        x = sx(t)
        out.append(
            f'<path d="M {x:.2f} {_HEIGHT - _BOTTOM} L {x:.2f} '
            f'{_HEIGHT - _BOTTOM + 5}" stroke="black" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{x:.2f}" y="{_HEIGHT - _BOTTOM + 18}" '
            f'text-anchor="middle">{t}</text>'
        )
    step = _nice_step(y_hi)
    tick = 0.0
    while tick <= y_hi + 1e-9:
        y = sy(tick)
        out.append(
            f'<path d="M {_LEFT - 5} {y:.2f} L {_LEFT} {y:.2f}" '
            f'stroke="black" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{_LEFT - 9}" y="{y + 4:.2f}" text-anchor="end">'
            f"{tick:.4g}</text>"
        )
        tick += step

    for idx, ((family, n), pts) in enumerate(sorted(series.items())):
        color = _PALETTE[idx % len(_PALETTE)]
        shape = _MARKERS[idx % len(_MARKERS)]
        for p in pts:
            if p.measure_bits is None:
                x = sx(p.t)
                out.append(
                    f'<text x="{x:.2f}" y="{_HEIGHT - _BOTTOM - 8:.2f}" '
                    f'text-anchor="middle" font-size="9" fill="#777" '
                    f'transform="rotate(-90 {x:.2f} '
                    f'{_HEIGHT - _BOTTOM - 8:.2f})">zero (m={p.m})</text>'
                )
            else:
                out.append(_marker(shape, sx(p.t), sy(p.measure_bits), color))
        legend_y = _TOP + 16 * idx + 8
        out.append(_marker(shape, _LEFT + 14.0, float(legend_y), color))
        out.append(
            f'<text x="{_LEFT + 26}" y="{legend_y + 4}">{family} N={n}</text>'
        )

    out.append("</svg>")
    return "\n".join(out) + "\n"
