"""Sweeps, CSV emission, and SVG rendering."""

from __future__ import annotations

import concurrent.futures
import math
from pathlib import Path

import pytest

from fqhent import (
    FigureSpec,
    closed_form_sf_laughlin2,
    evaluate_point,
    figure_points,
    figure_spec,
    render_svg,
    rows_to_csv,
    sweep,
)
from fqhent import figures, states
from fqhent.figures import SweepPoint, figure_title, series_points

REPO = Path(__file__).resolve().parents[1]


class TestPresets:
    def test_series_definitions(self):
        assert figure_spec(1).series == (("laughlin", 2), ("hierarchical_phi", 2))
        assert figure_spec(2).series == (("laughlin", 3), ("hierarchical_phi", 3))
        assert figure_spec(3).series == (("laughlin", 2), ("laughlin", 3))
        assert figure_spec(4).series == (
            ("hierarchical_phi", 2),
            ("hierarchical_phi", 3),
        )
        assert figure_spec(5).series == (("chi", 4),)

    def test_default_t_range(self):
        assert figure_spec(1).t_values == (0, 1, 2, 3, 4, 5, 6)
        assert figure_spec(1, t_max=2).t_values == (0, 1, 2)

    def test_invalid_id(self):
        with pytest.raises(ValueError):
            figure_spec(6)
        with pytest.raises(ValueError):
            FigureSpec(0, (), ())


class TestEvaluateAndSweep:
    def test_point_value(self):
        p = evaluate_point("laughlin", 2, 3)
        assert p.t == 1
        assert p.measure_bits == pytest.approx(
            closed_form_sf_laughlin2(3) / math.log(2), abs=1e-12
        )

    def test_zero_wavefunction_point(self):
        p = evaluate_point("chi", 2, 7)
        assert p.measure_bits is None

    def test_jobs_below_one_rejected(self):
        with pytest.raises(ValueError, match="jobs"):
            sweep([("laughlin", 2, 1)], jobs=0)

    def test_parallel_equals_serial(self):
        requests = [("laughlin", 2, m) for m in (1, 3, 5)] + [
            ("chi", 2, m) for m in (9, 1, 3, 7, 5)
        ]
        # parallel first: the workers fork from an empty memo and measure
        # every point themselves, and the serial run measures them again
        parallel = sweep(requests, jobs=2)
        assert figures._measured_point.cache_info().currsize == 0
        assert sweep(requests, jobs=1) == parallel

    @pytest.mark.parametrize(
        "jobs,n_requests,cpus,expected",
        [(64, 3, 16, 3), (64, 10, 2, 2), (2, 10, 16, 2), (8, 1, 16, None)],
    )
    def test_worker_count_is_clamped(self, monkeypatch, jobs, n_requests, cpus, expected):
        # a stub pool records max_workers, so no worker process is started
        started = []

        class StubExecutor:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *columns):
                return map(fn, *columns)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", StubExecutor)
        monkeypatch.setattr(figures.os, "cpu_count", lambda: cpus)
        requests = [("laughlin", 2, 1)] * n_requests
        points = figures.sweep(requests, jobs=jobs)
        assert len(points) == n_requests
        assert started == ([] if expected is None else [expected])


def _classify(family: str, n: int, m: int) -> str:
    """The per-m oracle: what the family's own check says of one point."""
    try:
        states.family_factors(family, n, m)
    except states.ZeroWavefunctionError:
        return "zero"
    except ValueError:
        return "refused"
    return "live"


def _measured_stub(family, n, m):
    # stands in for the build, so the test checks which points are measured
    return SweepPoint(family, n, m, float(m))


class TestSeriesPoints:
    def test_zero_points_are_never_evaluated(self, monkeypatch):
        # chi(N, m) is zero for m > 2N + 1: those points never reach evaluate_point
        evaluate = figures.evaluate_point

        def nonzero_only(family, n, m):
            assert m <= 2 * n + 1, f"zero point {(family, n, m)} was evaluated"
            return evaluate(family, n, m)

        monkeypatch.setattr(figures, "evaluate_point", nonzero_only)
        points, zeros = series_points([("chi", 2), ("chi", 4)], 41)
        zeros = list(zeros)
        assert [(p.n_electrons, p.m) for p in points] == [(2, 1), (2, 3), (2, 5)] + [
            (4, m) for m in range(1, 10, 2)
        ]
        assert [(p.n_electrons, p.m) for p in zeros] == [(2, m) for m in range(7, 42, 2)] + [
            (4, m) for m in range(11, 42, 2)
        ]
        monkeypatch.undo()
        requests = [("chi", n, m) for n in (2, 4) for m in range(1, 42, 2)]
        assert figures._sorted_points(points + zeros) == sweep(requests)

    def test_all_zero_series_starts_no_worker(self, monkeypatch):
        # no family is zero at m = 1, so a check that finds every point zero
        # stands in for one
        def refuse(max_workers):
            raise AssertionError("a worker pool was started")

        def all_zero(family, n, m):
            raise states.ZeroWavefunctionError(f"zero {(family, n, m)}")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
        monkeypatch.setattr(figures, "family_factors", all_zero)
        points, zeros = series_points([("chi", 2), ("chi", 3)], 9, jobs=2)
        assert points == []
        assert list(zeros) == [
            SweepPoint("chi", n, m, None) for n in (2, 3) for m in range(1, 10, 2)
        ]

    def test_the_pool_gets_only_nonzero_points(self, monkeypatch):
        # a stub pool records what it is given, so no worker process is started
        started, mapped = [], []

        class StubExecutor:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *columns):
                mapped.extend(zip(*columns))
                return [_measured_stub(*item) for item in mapped]

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", StubExecutor)
        monkeypatch.setattr(figures.os, "cpu_count", lambda: 16)
        points, _ = series_points([("chi", 2)], 100_000_001, jobs=8)
        assert started == [3]
        assert mapped == [("chi", 2, m) for m in (1, 3, 5)]
        assert [p.m for p in points] == [1, 3, 5]

    @pytest.mark.parametrize(
        "family,n",
        [(family, n) for family in states.FAMILIES for n in range(2, 7)]
        + [("chi", 18), ("chi", 20)],
    )
    def test_matches_the_per_m_check(self, monkeypatch, family, n):
        # the zero points of a series are a suffix of its odd m, and the
        # series is refused exactly when one of its points is over budget
        monkeypatch.setattr(figures, "evaluate_point", _measured_stub)
        for m_max in sorted({0, 1, 2, 13, 2 * n + 1, 2 * n + 2, 2 * n + 3, 41}):
            kinds = {m: _classify(family, n, m) for m in range(1, m_max + 1, 2)}
            if not kinds or "refused" in kinds.values():
                with pytest.raises(ValueError) as info:
                    series_points([(family, n)], m_max)
                assert not isinstance(info.value, states.ZeroWavefunctionError)
                assert ("no odd m" in str(info.value)) is (not kinds)
                continue
            points, zeros = series_points([(family, n)], m_max)
            assert [p.m for p in points] == [m for m, kind in kinds.items() if kind == "live"]
            assert [p.m for p in zeros] == [m for m, kind in kinds.items() if kind == "zero"]
            assert all(p.measure_bits is None for p in series_points([(family, n)], m_max)[1])


class TestPointMemo:
    memo = figures._measured_point

    def test_repeat_returns_same_point_and_builds_once(self, monkeypatch):
        calls = []
        build = figures.family_expansion

        def counting(family, n, m):
            calls.append((family, n, m))
            return build(family, n, m)

        monkeypatch.setattr(figures, "family_expansion", counting)
        first = evaluate_point("laughlin", 2, 3)
        assert evaluate_point("laughlin", 2, 3) is first
        assert sweep([("laughlin", 2, 3)])[0] is first
        assert calls == [("laughlin", 2, 3)]

    def test_refusal_raises_every_time(self):
        for _ in range(2):
            with pytest.raises(ValueError, match="MAX_DETERMINANTS"):
                evaluate_point("laughlin", 4, 41)
        assert self.memo.cache_info().currsize == 0

    def test_zero_point_is_not_kept(self):
        # table and figure never ask for a zero point, but a library sweep
        # over a large t grid would keep every one it asks for; each costs
        # one check
        points = [evaluate_point("chi", 2, 7) for _ in range(2)]
        assert points[0] == points[1] == SweepPoint("chi", 2, 7, None)
        assert self.memo.cache_info().currsize == 0

    def test_float_m_still_raises_after_int_m(self):
        evaluate_point("laughlin", 2, 3)
        with pytest.raises(ValueError, match="m must be a Python int"):
            evaluate_point("laughlin", 2, 3.0)

    def test_all_presets_in_one_process_match_fresh_runs(self):
        # the five presets at t <= 6 ask for 63 points, 35 of them distinct
        # and 2 of those zero (chi N=4 at m = 11, 13)
        csv, svg = {}, {}
        for fig_id in (3, 1, 5, 2, 4):
            points = figure_points(figure_spec(fig_id))
            csv[fig_id] = rows_to_csv(points)
            svg[fig_id] = render_svg(points, figure_title(fig_id))
        info = self.memo.cache_info()
        assert (info.hits, info.currsize) == (28, 33)
        for fig_id in (1, 5):
            golden = REPO / "demos" / "output" / f"figure{fig_id}"
            assert csv[fig_id].encode() == golden.with_suffix(".csv").read_bytes()
            assert svg[fig_id].encode() == golden.with_suffix(".svg").read_bytes()
        for fig_id, text in csv.items():
            self.memo.cache_clear()
            assert rows_to_csv(figure_points(figure_spec(fig_id))) == text


class TestCsv:
    def test_header_and_sorting(self):
        points = [
            SweepPoint("laughlin", 3, 3, 1.0),
            SweepPoint("laughlin", 2, 5, 0.5),
            SweepPoint("hierarchical_phi", 2, 1, 0.25),
            SweepPoint("laughlin", 2, 3, 0.75),
        ]
        text = rows_to_csv(points)
        lines = text.split("\n")
        assert lines[0] == "t,m,family,N,S_f_bits"
        assert lines[1] == "0,1,hierarchical_phi,2,0.25"
        assert lines[2] == "1,3,laughlin,2,0.75"
        assert lines[3] == "2,5,laughlin,2,0.5"
        assert lines[4] == "1,3,laughlin,3,1"
        assert text.endswith("\n") and "\r" not in text

    def test_none_rows_omitted(self):
        points = [
            SweepPoint("chi", 2, 5, 0.0),
            SweepPoint("chi", 2, 7, None),
        ]
        text = rows_to_csv(points)
        assert "7" not in text.split("\n", 1)[1]

    def test_twelve_significant_digits(self):
        points = [SweepPoint("laughlin", 2, 3, 0.8112781244591328)]
        assert "0.811278124459" in rows_to_csv(points)

    def test_determinism(self):
        points = figure_points(figure_spec(1, t_max=2))
        assert rows_to_csv(points) == rows_to_csv(list(reversed(points)))


class TestSvg:
    def test_self_contained_document(self):
        points = figure_points(figure_spec(1, t_max=2))
        svg = render_svg(points, figure_title(1))
        assert svg.startswith("<svg ")
        assert svg.rstrip().endswith("</svg>")
        assert "http://www.w3.org/2000/svg" in svg
        assert "href" not in svg  # no external assets
        assert "S_f (ln2 bits)" in svg
        assert ">t</text>" in svg

    def test_marker_per_value_and_legend(self):
        points = figure_points(figure_spec(3, t_max=2))
        svg = render_svg(points, figure_title(3))
        assert "laughlin N=2" in svg
        assert "laughlin N=3" in svg
        # series 0 squares: 3 points + 1 legend marker
        assert svg.count("<rect ") >= 4

    def test_zero_points_annotated(self):
        points = figure_points(figure_spec(5, t_max=6))
        svg = render_svg(points, figure_title(5))
        assert svg.count("zero (m=") == 2  # m=11 and m=13
        assert "zero (m=11)" in svg and "zero (m=13)" in svg

    def test_deterministic(self):
        points = figure_points(figure_spec(2, t_max=1))
        assert render_svg(points, "x") == render_svg(points, "x")
