"""Tests for the analysis package: fitting, sweeps, tables."""

import math

import pytest

from repro.analysis.fitting import crossover_point, fit_loglog_slope, fit_slope_vs
from repro.analysis.sweeps import sweep
from repro.analysis.tables import ascii_series_plot, format_table, render_points


class TestFitting:
    def test_linear_data(self):
        xs = [2, 4, 8, 16]
        ys = [3 * x for x in xs]
        fit = fit_loglog_slope(xs, ys)
        assert fit.slope == pytest.approx(1.0)
        assert fit.r_squared == pytest.approx(1.0)
        assert fit.predict(32) == pytest.approx(96.0)

    def test_quadratic_data(self):
        xs = [2, 4, 8, 16]
        ys = [5 * x * x for x in xs]
        fit = fit_loglog_slope(xs, ys)
        assert fit.slope == pytest.approx(2.0)

    def test_noisy_data_r_squared_below_one(self):
        xs = [2, 4, 8, 16]
        ys = [2.1, 4.4, 7.2, 17.5]
        fit = fit_loglog_slope(xs, ys)
        assert 0.9 < fit.r_squared < 1.0
        assert 0.8 < fit.slope < 1.2

    def test_requires_two_distinct_xs(self):
        with pytest.raises(ValueError):
            fit_loglog_slope([3, 3], [1, 2])
        with pytest.raises(ValueError):
            fit_loglog_slope([1], [1])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            fit_loglog_slope([1, 2], [1])

    def test_fit_slope_vs_accessors(self):
        points = [(2, 4), (4, 16), (8, 64)]
        fit = fit_slope_vs(points, lambda p: p[0], lambda p: p[1])
        assert fit.slope == pytest.approx(2.0)

    def test_crossover(self):
        xs = [1, 2, 3, 4]
        assert crossover_point(xs, [1, 2, 9, 16], [5, 5, 5, 5]) == 3
        assert crossover_point(xs, [1, 1, 1, 1], [5, 5, 5, 5]) is None

    def test_crossover_length_mismatch(self):
        with pytest.raises(ValueError):
            crossover_point([1], [1, 2], [1, 2])


class TestSweeps:
    def test_bb_sweep_shapes(self):
        points = sweep("bb", [5, 7], fs=lambda c: [0, 1])
        assert len(points) == 4
        for p in points:
            assert p.protocol == "bb"
            assert p.decision == "payload"
            assert p.words > 0
            assert p.f in (0, 1)

    def test_weak_ba_sweep(self):
        points = sweep("weak_ba", [5], fs=lambda c: [0])
        (p,) = points
        assert p.decision == "proposal"
        assert not p.fallback_used

    def test_strong_ba_fallback_flag(self):
        quiet = sweep("strong_ba", [5], fs=lambda c: [0])
        noisy = sweep("strong_ba", [5], fs=lambda c: [2])
        assert not quiet[0].fallback_used
        assert noisy[0].fallback_used

    def test_normalized_ratios(self):
        (p,) = sweep("bb", [5], fs=lambda c: [0])
        assert p.words_per_nf == pytest.approx(p.words / 5)
        assert p.words_per_n2 == pytest.approx(p.words / 25)

    def test_multiple_seeds(self):
        points = sweep("weak_ba", [5], fs=lambda c: [1], seeds=(0, 1, 2))
        assert len(points) == 3
        assert {p.seed for p in points} == {0, 1, 2}


class TestTables:
    def test_format_table_alignment(self):
        table = format_table(["a", "long-header"], [[1, 2], [333, 4]])
        lines = table.splitlines()
        assert len(lines) == 4
        assert all(len(line) == len(lines[0]) for line in lines[1:])

    def test_float_formatting(self):
        table = format_table(["x"], [[math.pi]])
        assert "3.142" in table

    def test_render_points_includes_extras(self):
        points = sweep("bb", [5], fs=lambda c: [0])
        text = render_points(points, extra={"w/n": lambda p: p.words / p.n})
        assert "w/n" in text
        assert "bb" in text

    def test_ascii_series_plot(self):
        text = ascii_series_plot(
            [1, 2], {"a": [1, 2], "b": [2, 4]}, title="demo"
        )
        assert "demo" in text
        assert "x=1" in text and "x=2" in text
        assert "#" in text

class TestParallelSweeps:
    """``sweep_parallel`` fans grid points out to worker processes; the
    results must be bit-identical to the serial sweep, in the same
    order, for every protocol key (including the CLI's hyphenated
    aliases)."""

    def test_parallel_sweep_matches_serial(self):
        from repro.analysis.sweeps import sweep_parallel

        serial = sweep("weak_ba", [3, 5], seeds=(0, 1))
        for jobs in (1, 2):
            assert sweep_parallel(
                "weak_ba", [3, 5], seeds=(0, 1), jobs=jobs
            ) == serial

    def test_cli_alias_spellings_accepted(self):
        from repro.analysis.sweeps import sweep_parallel

        assert sweep_parallel("weak-ba", [3], jobs=1)
        assert sweep_parallel("fallback", [3], jobs=1) == sweep("recursive_ba", [3])

    def test_unknown_protocol_rejected(self):
        from repro.analysis.sweeps import sweep_parallel

        with pytest.raises(ValueError):
            sweep_parallel("nope", [3], jobs=2)
