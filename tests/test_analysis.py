import numpy as np
import pytest

from pcx.analysis import (
    MAX_TIME_POINTS,
    equilibrium_stats,
    nearest_peak,
    peak_ratio,
    site_series,
    spacetime_scan,
    time_grid,
)
from pcx.bethe import BetheEngine
from pcx.chain import ChainConfig, DenseEngine, SpectralEngine
from pcx.errors import ConfigError, PeakNotFoundError, StatsError


@pytest.fixture(scope="module")
def small_scan():
    cfg = ChainConfig(N=10)
    engine = SpectralEngine(cfg)
    return cfg, engine, spacetime_scan(cfg, (2, 7), (1, 2), 0.5, 20.0, engine)


class TestSpacetimeScan:
    def test_grid_shapes(self, small_scan):
        cfg, _, grids = small_scan
        for grid in grids:
            assert grid.values.shape == (cfg.N, 41)
        assert [g.label for g in grids] == ["S", "C_rh1", "C_rh2"]

    def test_values_in_unit_interval(self, small_scan):
        _, _, grids = small_scan
        for grid in grids:
            assert (grid.values >= 0).all() and (grid.values <= 1 + 1e-12).all()

    def test_t0_column_zero(self, small_scan):
        _, _, grids = small_scan
        for grid in grids:
            assert np.array_equal(grid.values[:, 0], np.zeros(10))

    def test_row_matches_site_series(self, small_scan):
        """One-site calls reproduce the all-site scan bit for bit."""
        cfg, engine, grids = small_scan
        s_grid, c1_grid, c2_grid = grids
        for j in range(1, cfg.N + 1):
            direct = site_series(cfg, (2, 7), j, (1, 2), 0.5, 20.0, engine)
            assert np.array_equal(direct.times, s_grid.times)
            assert np.array_equal(direct.entropy, s_grid.values[j - 1])
            assert np.array_equal(direct.complexity[1], c1_grid.values[j - 1])
            assert np.array_equal(direct.complexity[2], c2_grid.values[j - 1])

    def test_repeat_run_bit_identical(self, small_scan):
        cfg, engine, grids = small_scan
        again = spacetime_scan(cfg, (2, 7), (1, 2), 0.5, 20.0, engine)
        for a, b in zip(grids, again):
            assert np.array_equal(a.values, b.values)

    def test_resource_guard(self):
        """A sector too large for the dense engines is refused before it is built."""
        for engine_cls in (DenseEngine, BetheEngine):
            with pytest.raises(ConfigError, match="budget"):
                engine_cls(ChainConfig(N=95))

    @pytest.mark.parametrize("dt,t_max", [(np.inf, 10.0), (np.nan, 10.0), (0.5, np.inf),
                                          (0.4, 1.0), (0.0, 10.0), (1e-9, 200.0)])
    def test_bad_time_grid_rejected(self, small_scan, dt, t_max):
        cfg, engine, _ = small_scan
        with pytest.raises(ConfigError, match="dt"):
            spacetime_scan(cfg, (2, 7), (1,), dt, t_max, engine)

    def test_time_point_budget(self):
        assert len(time_grid(1.0, MAX_TIME_POINTS - 1.0)) == MAX_TIME_POINTS
        with pytest.raises(ConfigError, match="dt=1.0 gives more than"):
            time_grid(1.0, float(MAX_TIME_POINTS))

    def test_repeated_radius_rejected(self, small_scan):
        cfg, engine, _ = small_scan
        with pytest.raises(ConfigError, match="repeat"):
            spacetime_scan(cfg, (2, 7), (1, 1), 0.5, 2.0, engine)
        with pytest.raises(ConfigError, match="repeat"):
            site_series(cfg, (2, 7), 3, (1, 2, 1), 0.5, 2.0, engine)

    @pytest.mark.parametrize("flips,site", [((7, 2), 3), ((2, 7), 11)])
    def test_bad_flips_or_site_rejected(self, small_scan, flips, site):
        """The flip pair is checked as given, never reordered."""
        cfg, engine, _ = small_scan
        with pytest.raises(ConfigError):
            site_series(cfg, flips, site, (1,), 0.5, 2.0, engine)

    def test_engine_for_another_chain_rejected(self, small_scan, engine8):
        cfg, _, _ = small_scan
        with pytest.raises(ConfigError, match="engine"):
            spacetime_scan(cfg, (2, 7), (1,), 0.5, 2.0, engine8)

    def test_beams_emanate_from_flips(self, recipe_scan):
        """Entropy lights up first near the flipped sites."""
        s_grid = next(g for g in recipe_scan if g.kind == "S")
        k = int(round(3.0 / 0.2))  # t = 3: beams still near sources
        column = s_grid.values[:, k]
        near = max(column[10 - 1], column[25 - 1], column[11 - 1], column[24 - 1])
        ambient = column[17 - 1]
        assert near > 5 * ambient

    def test_collision_contrast_higher_for_complexity(self, recipe_scan):
        """The collision cell stands out more against the grid mean in C."""
        s_grid = next(g for g in recipe_scan if g.kind == "S")
        c_grid = next(g for g in recipe_scan if g.label == "C_rh2")
        k = int(round(9.0 / 0.2))
        s_contrast = s_grid.values[17 - 1, k] / s_grid.values.mean()
        c_contrast = c_grid.values[17 - 1, k] / c_grid.values.mean()
        assert c_contrast > s_contrast


class TestEquilibriumStats:
    def test_constant_series(self):
        times = np.arange(0, 150.0, 1.0)
        values = np.full_like(times, 0.42)
        stats = equilibrium_stats(times, values, (10.0, 140.0))
        assert stats.mean == pytest.approx(0.42, abs=1e-15)
        assert stats.std == 0.0

    def test_population_std(self):
        times = np.arange(200.0)
        values = np.tile([1.0, 3.0], 100)
        stats = equilibrium_stats(times, values, (0.0, 199.0))
        assert stats.mean == pytest.approx(2.0)
        assert stats.std == pytest.approx(1.0)  # population, not sample

    def test_window_too_short(self):
        times = np.arange(0, 50.0, 1.0)
        with pytest.raises(StatsError, match="samples"):
            equilibrium_stats(times, np.ones_like(times), (0.0, 49.0))

    def test_window_outside_grid(self):
        times = np.arange(0, 200.0, 1.0)
        with pytest.raises(StatsError):
            equilibrium_stats(times, np.ones_like(times), (100.0, 300.0))

    def test_mean_stable_under_window_shift(self, recipe_series):
        """Thermalized mean moves little when the window shifts by one step."""
        s = recipe_series.entropy
        t = recipe_series.times
        a = equilibrium_stats(t, s, (100.0, 200.0))
        b = equilibrium_stats(t, s, (100.2, 200.0))
        assert abs(a.mean - b.mean) <= 0.05 * a.mean


class TestPeaks:
    def test_constant_series_flat_maximum_convention(self):
        times = np.arange(0, 150.0, 1.0)
        values = np.full_like(times, 0.3)
        stats = equilibrium_stats(times, values, (0.0, 149.0))
        assert peak_ratio(times, values, 70.0, stats) == pytest.approx(1.0)

    def test_peak_not_found(self):
        times = np.arange(0, 150.0, 1.0)
        values = times / 150.0  # strictly increasing: no interior maximum
        stats = equilibrium_stats(times, values, (0.0, 149.0))
        with pytest.raises(PeakNotFoundError):
            peak_ratio(times, values, 70.0, stats)

    def test_nearest_peak_prefers_closest(self):
        times = np.arange(0.0, 20.0, 1.0)
        values = np.zeros_like(times)
        values[8] = 1.0
        values[12] = 2.0
        assert nearest_peak(times, values, 8.6, radius=5.0) == 8

    def test_plateau_tie_breaks_earlier(self):
        times = np.arange(0.0, 20.0, 1.0)
        values = np.zeros_like(times)
        values[9] = values[10] = 1.0
        assert nearest_peak(times, values, 9.5, radius=2.0) == 9

    def test_reference_entropy_ratio(self, recipe_series):
        stats = equilibrium_stats(recipe_series.times, recipe_series.entropy, (100.0, 200.0))
        ratio = peak_ratio(recipe_series.times, recipe_series.entropy, 9.0, stats)
        assert 2.08 == pytest.approx(ratio, rel=0.10)

    def test_reference_complexity_ratio(self, recipe_series):
        c = recipe_series.complexity[1]
        stats = equilibrium_stats(recipe_series.times, c, (100.0, 200.0))
        ratio = peak_ratio(recipe_series.times, c, 9.0, stats)
        assert 4.13 == pytest.approx(ratio, rel=0.10)

    def test_peak_ratio_ordering_across_radii(self, recipe_series):
        """Collision contrast weakens as the horizon grows."""
        ratios = []
        for r in (1, 2, 3):
            c = recipe_series.complexity[r]
            stats = equilibrium_stats(recipe_series.times, c, (100.0, 200.0))
            ratios.append(peak_ratio(recipe_series.times, c, 9.0, stats))
        assert ratios[0] > ratios[1] > ratios[2]

    def test_complexity_peak_beats_entropy_peak(self, recipe_series):
        t = recipe_series.times
        s_stats = equilibrium_stats(t, recipe_series.entropy, (100.0, 200.0))
        c = recipe_series.complexity[1]
        c_stats = equilibrium_stats(t, c, (100.0, 200.0))
        s_ratio = peak_ratio(t, recipe_series.entropy, 9.0, s_stats)
        c_ratio = peak_ratio(t, c, 9.0, c_stats)
        assert c_ratio > s_ratio
        # subsequent collision shows the same ordering with a smaller margin
        s2 = peak_ratio(t, recipe_series.entropy, 27.0, s_stats)
        c2 = peak_ratio(t, c, 27.0, c_stats)
        assert c2 > s2
        assert c_ratio / s_ratio > c2 / s2
