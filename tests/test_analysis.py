import re
import tracemalloc

import numpy as np
import pytest

import pcx.analysis
import pcx.horizon
from pcx.analysis import (
    CHUNK_BYTES,
    MAX_TIME_POINTS,
    PHASE_FLOOR_MAX,
    _observables,
    check_run,
    equilibrium_stats,
    nearest_peak,
    peak_ratio,
    site_series,
    spacetime_scan,
    time_grid,
)
from oracles import DenseEngine, exterior_state_and_partition
from pcx.bethe import BetheEngine
from pcx.chain import ChainConfig, SpectralEngine
from pcx.errors import ConfigError, SolverError
from pcx.horizon import HorizonSpec, classify_pairs, two_level_entropy_bits
from pcx.predictive import predictive_map, reduced_density, von_neumann_entropy


@pytest.fixture(scope="module")
def small_scan():
    cfg = ChainConfig(N=10)
    engine = SpectralEngine(cfg)
    return cfg, engine, spacetime_scan(engine, (2, 7), (1, 2), 0.5, 20.0)


def grids(run):
    """The entropy grid, then the complexity grid of each radius in the run's order."""
    return [run.entropy, *run.complexity.values()]


class TestSpacetimeScan:
    def test_grid_shapes(self, small_scan):
        cfg, _, run = small_scan
        for grid in grids(run):
            assert grid.shape == (cfg.N, 41)
        assert list(run.complexity) == [1, 2]

    def test_values_in_unit_interval(self, small_scan):
        _, _, run = small_scan
        for grid in grids(run):
            assert (grid >= 0).all() and (grid <= 1 + 1e-12).all()

    def test_t0_column_zero(self, small_scan):
        _, _, run = small_scan
        for grid in grids(run):
            assert np.array_equal(grid[:, 0], np.zeros(10))

    def test_row_matches_site_series(self, small_scan):
        """One-site calls reproduce the all-site scan bit for bit."""
        cfg, engine, run = small_scan
        for j in range(1, cfg.N + 1):
            direct = site_series(engine, (2, 7), j, (1, 2), 0.5, 20.0)
            assert np.array_equal(direct.times, run.times)
            assert np.array_equal(direct.entropy[0], run.entropy[j - 1])
            assert np.array_equal(direct.complexity[1][0], run.complexity[1][j - 1])
            assert np.array_equal(direct.complexity[2][0], run.complexity[2][j - 1])

    def test_repeat_run_bit_identical(self, small_scan):
        cfg, engine, run = small_scan
        again = spacetime_scan(engine, (2, 7), (1, 2), 0.5, 20.0)
        for a, b in zip(grids(run), grids(again)):
            assert np.array_equal(a, b)

    def test_resource_guard(self):
        """A sector too large for the dense oracle is refused before it is built."""
        with pytest.raises(ConfigError, match="budget"):
            DenseEngine(ChainConfig(N=95))

    @pytest.mark.parametrize("dt,t_max", [(np.inf, 10.0), (np.nan, 10.0), (0.5, np.inf),
                                          (0.4, 1.0), (0.0, 10.0), (1e-9, 200.0)])
    def test_bad_time_grid_rejected(self, small_scan, dt, t_max):
        cfg, engine, _ = small_scan
        with pytest.raises(ConfigError, match="dt"):
            spacetime_scan(engine, (2, 7), (1,), dt, t_max)

    def test_time_point_budget(self):
        assert len(time_grid(1.0, MAX_TIME_POINTS - 1.0)) == MAX_TIME_POINTS
        with pytest.raises(ConfigError, match="dt=1.0 gives more than"):
            time_grid(1.0, float(MAX_TIME_POINTS))

    def test_scan_cell_budget(self):
        """A scan counts N cells per time point; a series on the same grid counts one."""
        cfg = ChainConfig(N=323)
        assert len(check_run(cfg, (10, 70), (1, 2, 3), 0.001, 999.0, site=1)) == 999001
        with pytest.raises(ConfigError, match="cells on 323 site"):
            check_run(cfg, (10, 70), (1, 2, 3), 0.001, 999.0)

    def test_repeated_radius_rejected(self, small_scan):
        cfg, engine, _ = small_scan
        with pytest.raises(ConfigError, match="repeat"):
            spacetime_scan(engine, (2, 7), (1, 1), 0.5, 2.0)
        with pytest.raises(ConfigError, match="repeat"):
            site_series(engine, (2, 7), 3, (1, 2, 1), 0.5, 2.0)

    @pytest.mark.parametrize("flips,site", [((7, 2), 3), ((2, 7), 11)])
    def test_bad_flips_or_site_rejected(self, small_scan, flips, site):
        """The flip pair is checked as given, never reordered."""
        cfg, engine, _ = small_scan
        with pytest.raises(ConfigError):
            site_series(engine, flips, site, (1,), 0.5, 2.0)

    @pytest.mark.parametrize("N,flips,site,radii,refusal", [
        (32.0, (3, 9), 5, (2,), "N must be an integer, got 32.0"),
        (32.5, (3, 9), 5, (2,), "N must be an integer, got 32.5"),
        (16, (3.0, 9), 5, (2,), "flip site must be an integer, got 3.0"),
        (16, (3, 9.5), 5, (2,), "flip site must be an integer, got 9.5"),
        (16, (3, 9), 5.0, (2,), "site must be an integer, got 5.0"),
        (16, (3, 9), 5, (2.0,), "horizon radius must be an integer, got 2.0"),
        (16, (3, 9), 5, (1.5,), "horizon radius must be an integer, got 1.5"),
    ], ids=["N-32.0", "N-32.5", "flip-3.0", "flip-9.5", "site-5.0", "radius-2.0", "radius-1.5"])
    def test_non_integer_refused(self, N, flips, site, radii, refusal):
        """A size, flip, site or radius that is not an integer is one ConfigError naming it."""
        with pytest.raises(ConfigError, match=re.escape(refusal)):
            site_series(SpectralEngine(ChainConfig(N=N)), flips, site, radii, 0.5, 5.0)

    def test_numpy_integers_accepted(self):
        engine = SpectralEngine(ChainConfig(N=np.int64(16)))
        run = site_series(engine, (np.int64(3), np.int32(9)), np.int16(5), (np.int8(2),), 0.5, 5.0)
        plain = site_series(SpectralEngine(ChainConfig(N=16)), (3, 9), 5, (2,), 0.5, 5.0)
        assert np.array_equal(run.entropy, plain.entropy)
        assert np.array_equal(run.complexity[2], plain.complexity[2])
        # unsigned and narrow integers too: mixed with int64 they would make float indices or overflow
        plain_scan = spacetime_scan(SpectralEngine(ChainConfig(N=16)), (3, 9), (2,), 0.5, 5.0)
        for kind in (np.uint64, np.uint8, np.int16):
            engine = SpectralEngine(ChainConfig(N=kind(16)))
            flips = (kind(3), kind(9))
            runs = (site_series(engine, flips, kind(5), (kind(2),), 0.5, 5.0),
                    spacetime_scan(engine, flips, (kind(2),), 0.5, 5.0))
            for run, plain_run in zip(runs, (plain, plain_scan)):
                assert np.array_equal(run.times, plain_run.times)
                assert np.array_equal(run.entropy, plain_run.entropy)
                assert list(run.complexity) == [2]
                assert np.array_equal(run.complexity[2], plain_run.complexity[2])

    def test_narrow_numpy_integers_do_not_wrap(self):
        """In uint8, 2 r_h + 1 of radius 128 wraps to 1 and (n1 - 1) N of flip 40 on 64 sites past 255."""
        with pytest.raises(ConfigError, match="degenerate horizon"):
            site_series(SpectralEngine(ChainConfig(N=16)), (3, 9), 5, (np.uint8(128),), 0.5, 5.0)
        engine = SpectralEngine(ChainConfig(N=64))
        run = site_series(engine, (np.uint8(40), np.uint8(50)), np.uint8(45), (np.uint8(2),), 0.5, 5.0)
        plain = site_series(engine, (40, 50), 45, (2,), 0.5, 5.0)
        assert np.array_equal(run.entropy, plain.entropy)
        assert np.array_equal(run.complexity[2], plain.complexity[2])

    def test_engine_for_another_chain_rejected(self, engine8):
        """The run is checked against the chain its engine carries: flips 2, 9 need N >= 9."""
        with pytest.raises(ConfigError, match="N=8"):
            spacetime_scan(engine8, (2, 9), (1,), 0.5, 2.0)

    def test_overflowing_phases_rejected(self):
        """4|J| bounds the levels, so 4|J| t_max bounds every phase and must be finite."""
        cfg = ChainConfig(N=8, J=4e307)
        assert len(check_run(cfg, (1, 5), (1,), 1e-300, 2e-300)) == 3
        with pytest.raises(ConfigError, match="tmax"):
            check_run(cfg, (1, 5), (1,), 0.5, 2.0)

    @pytest.mark.parametrize("J", [1.0, -1.3, 4e307, 1e-3])
    def test_phase_floor_bound(self, J):
        """t_max is admitted up to a phase floor 4|J| t_max eps of PHASE_FLOOR_MAX, and no further."""
        cfg = ChainConfig(N=8, J=J)
        limit = PHASE_FLOOR_MAX / (4 * abs(J)) / 2.0**-52  # eps
        assert len(check_run(cfg, (1, 5), (1,), limit / 4, limit)) == 5
        above = np.nextafter(limit, np.inf)
        with pytest.raises(ConfigError, match=re.escape(f"tmax must be at most {limit!r} for J={J}")):
            check_run(cfg, (1, 5), (1,), above / 4, above)

    def test_engines_agree_inside_phase_floor_bound(self, engine32, bethe_engine32):
        """Just inside the bound, the two exact engines agree at site 17 to a few 1e-7 bits.

        At t_max = 1e10, nine times past it, they differ by 8e-7 bits.
        """
        t_max = 1.1e9  # floor 9.8e-7
        series = [site_series(engine, (10, 25), 17, (1, 2, 3), t_max / 1000, t_max)
                  for engine in (engine32, bethe_engine32)]
        gaps = [np.abs(series[0].entropy - series[1].entropy).max()]
        gaps += [np.abs(series[0].complexity[r] - series[1].complexity[r]).max() for r in (1, 2, 3)]
        assert max(gaps) < 0.3 * PHASE_FLOOR_MAX

    def test_beams_emanate_from_flips(self, recipe_scan):
        """Entropy lights up first near the flipped sites."""
        k = int(round(3.0 / 0.2))  # t = 3: beams still near sources
        column = recipe_scan.entropy[:, k]
        near = max(column[10 - 1], column[25 - 1], column[11 - 1], column[24 - 1])
        ambient = column[17 - 1]
        assert near > 5 * ambient

    def test_collision_contrast_higher_for_complexity(self, recipe_scan):
        """The collision cell stands out more against the grid mean in C."""
        s_grid, c_grid = recipe_scan.entropy, recipe_scan.complexity[2]
        k = int(round(9.0 / 0.2))
        s_contrast = s_grid[17 - 1, k] / s_grid.mean()
        c_contrast = c_grid[17 - 1, k] / c_grid.mean()
        assert c_contrast > s_contrast

    def test_radius_chain_on_recipe_scan(self, recipe_scan):
        assert_radius_chain(recipe_scan)

    @pytest.mark.parametrize("N", [5, 8, 9, 16, 17])
    def test_radius_chain_on_small_rings(self, N):
        """Adjacent, antipodal and wrapping flips, every radius the ring admits."""
        engine = SpectralEngine(ChainConfig(N=N))
        radii = range(1, (N - 2) // 2 + 1)  # 2 r_h + 1 < N
        for flips in ((3, 4), (2, 2 + N // 2), (1, N)):
            assert_radius_chain(spacetime_scan(engine, flips, radii, 0.5, 6.0))


def assert_radius_chain(run):
    """C(r_h) <= C(r_h + 1) <= S on every cell, up to an ulp or two of rounding.

    Widening the horizon keeps more exterior states apart, so C grows toward S.
    """
    labels = [*sorted(run.complexity), "S"]
    chain = [run.complexity[r] for r in labels[:-1]] + [run.entropy]
    assert len(chain) >= 2
    for lower, upper, pair in zip(chain, chain[1:], zip(labels, labels[1:])):
        assert (lower - upper).max() <= 1e-15, pair


class StubEngine:
    """The engine interface the kernel may use, and nothing else.

    Each time t gets its own seeded random normalised state; every call is
    recorded as (n1, n2, t).
    """

    __slots__ = ("cfg", "dim", "calls")
    name = "stub"

    def __init__(self, cfg):
        self.cfg = cfg
        self.dim = cfg.dim
        self.calls = []

    def pair_amplitudes(self, n1, n2, t):
        self.calls.append((n1, n2, t))
        rng = np.random.default_rng([self.cfg.N, round(1000 * t)])
        b = rng.normal(size=self.dim) + 1j * rng.normal(size=self.dim)
        return b / np.linalg.norm(b)


class InterfaceEngine:
    """An engine seen only through cfg, dim, name and pair_amplitudes.

    perfbench/tracing.py wraps every engine in such a proxy (TracedEngine),
    so the run functions may use nothing else of an engine.
    """

    __slots__ = ("cfg", "dim", "name", "_engine")

    def __init__(self, engine):
        self.cfg, self.dim, self.name = engine.cfg, engine.dim, engine.name
        self._engine = engine

    def pair_amplitudes(self, n1, n2, t):
        return self._engine.pair_amplitudes(n1, n2, t)


class TestObservableKernel:
    @pytest.mark.parametrize("engine_type", [SpectralEngine, BetheEngine])
    def test_interface_proxy_matches_engine(self, engine_type):
        engine = engine_type(ChainConfig(N=12))
        proxy = InterfaceEngine(engine)
        a = spacetime_scan(engine, (3, 8), (1, 2), 0.5, 10.0)
        b = spacetime_scan(proxy, (3, 8), (1, 2), 0.5, 10.0)
        assert list(a.complexity) == list(b.complexity)
        assert np.array_equal(a.times, b.times)
        assert all(np.array_equal(x, y) for x, y in zip(grids(a), grids(b)))
        a = site_series(engine, (3, 8), 5, (1, 2), 0.5, 10.0)
        b = site_series(proxy, (3, 8), 5, (1, 2), 0.5, 10.0)
        assert np.array_equal(a.entropy, b.entropy)
        assert all(np.array_equal(a.complexity[r], b.complexity[r]) for r in (1, 2))

    @pytest.mark.parametrize("N", [5, 6, 7, 8, 9, 12, 31, 32])
    def test_matches_classify_pairs_oracle(self, N):
        """S and C of every site and radius, including N = 2 r_h + 2 (m_out = 0).

        Up to N = 12 the reference is the generic predictive map on the
        exterior state; above, the class sums over `classify_pairs` indices.
        """
        cfg = ChainConfig(N=N)
        engine = StubEngine(cfg)
        times = np.array([0.0, 0.5, 1.5])
        radii = tuple(range(1, (N - 2) // 2 + 1))  # every r_h with 2 r_h + 1 < N
        entropy, complexity = _observables(engine, (1, 2), range(1, N + 1), radii, times)
        states = [engine.pair_amplitudes(1, 2, float(t)) for t in times]
        prob = np.abs(np.array(states)) ** 2
        for j in range(1, N + 1):
            for r in radii:
                spec = HorizonSpec(j=j, r_h=r, N=N)
                if N <= 12:
                    s_ref, c_ref = [], []
                    for b in states:
                        state, part = exterior_state_and_partition(b, spec)
                        s_ref.append(von_neumann_entropy(reduced_density(state)))
                        c_ref.append(von_neumann_entropy(reduced_density(predictive_map(state, part))))
                else:
                    cls = classify_pairs(spec)
                    p_down = prob[:, np.concatenate([cls.focus_out, cls.focus_in])].sum(axis=1)
                    m_out = prob[:, cls.type_i].sum(axis=1)
                    m_focus = prob[:, cls.focus_out].sum(axis=1)
                    s_ref = two_level_entropy_bits(p_down)
                    c_ref = two_level_entropy_bits(p_down, np.sqrt(m_out * m_focus))
                assert np.abs(entropy[j - 1] - s_ref).max() <= 1e-14
                assert np.abs(complexity[r][j - 1] - c_ref).max() <= 1e-14

    def test_one_float_call_per_time_point_and_no_classify_pairs(self, monkeypatch):
        def forbidden(spec):
            raise AssertionError("classify_pairs called by the observable kernel")

        monkeypatch.setattr(pcx.horizon, "classify_pairs", forbidden)
        monkeypatch.setattr(pcx.analysis, "classify_pairs", forbidden)
        cfg = ChainConfig(N=64)  # several chunks of time steps
        engine = StubEngine(cfg)
        run = spacetime_scan(engine, (9, 18), (1, 2, 3), 0.5, 10.0)
        series = site_series(engine, (9, 18), 33, (1, 2, 3), 0.5, 10.0)
        times = run.times.tolist()
        assert engine.calls == [(9, 18, t) for t in times + times]
        assert all(type(t) is float for _, _, t in engine.calls)
        assert np.array_equal(series.entropy[0], run.entropy[32])
        for j in (1, 64):  # the ring ends, read in place from the chunk's layout
            end = site_series(StubEngine(cfg), (9, 18), j, (1, 2, 3), 0.5, 10.0)
            assert np.array_equal(end.entropy[0], run.entropy[j - 1])
            for r, grid in run.complexity.items():
                assert np.array_equal(end.complexity[r][0], grid[j - 1])

    def test_chunks_do_not_change_values(self):
        """A run over many chunks equals one run per time point, bit for bit."""
        cfg = ChainConfig(N=64)
        engine = StubEngine(cfg)
        times = np.arange(21) * 0.5
        radii = (1, 5, 31)
        for j in (1, 17, 64):
            sites = range(j, j + 1)
            entropy, complexity = _observables(engine, (9, 18), sites, radii, times)
            for k in range(len(times)):
                s, c = _observables(engine, (9, 18), sites, radii, times[k:k + 1])
                assert np.array_equal(s[:, 0], entropy[:, k])
                for r in radii:
                    assert np.array_equal(c[r][:, 0], complexity[r][:, k])

    def test_non_finite_amplitudes_refused(self):
        """NaN amplitudes stop a scan and a series with one SolverError at the earliest bad cell."""
        class NanLater(StubEngine):
            __slots__ = ()

            def pair_amplitudes(self, n1, n2, t):
                b = super().pair_amplitudes(n1, n2, t)
                return b * np.nan if t >= 3.0 else b

        engine = NanLater(ChainConfig(N=12))
        with pytest.raises(SolverError, match=r"^S or C is not finite at site 1, t=3\.0:"):
            spacetime_scan(engine, (3, 8), (1, 2), 0.5, 10.0)
        with pytest.raises(SolverError, match=r"^S or C is not finite at site 5, t=3\.0:"):
            site_series(engine, (3, 8), 5, (1, 2), 0.5, 10.0)

    def test_scan_memory_bound_by_grids_and_chunks(self):
        """A long N=16 scan peaks below its 4 output grids plus 8 chunks of working memory."""
        engine = SpectralEngine(ChainConfig(N=16))
        grid_bytes = 8 * 16 * 10001  # 1.22 MiB per grid; the 8 chunks below are 2 MiB
        tracemalloc.start()
        try:
            run = spacetime_scan(engine, (3, 9), (1, 2, 3), 0.2, 2000.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert [g.shape for g in grids(run)] == [(16, 10001)] * 4
        assert peak < 4 * grid_bytes + 8 * CHUNK_BYTES


class TestEquilibriumStats:
    def test_constant_series(self):
        times = np.arange(0, 150.0, 1.0)
        values = np.full_like(times, 0.42)
        stats = equilibrium_stats(times, values, (10.0, 140.0))
        assert stats.mean == pytest.approx(0.42, abs=1e-15)
        assert stats.std == 0.0

    def test_near_constant_series_keeps_its_std(self):
        """Two values 2^-40 (about 1e-12) apart are not a constant series; every step is exact."""
        times = np.arange(200.0)
        values = np.tile([0.5, 0.5 + 2.0**-40], 100)
        stats = equilibrium_stats(times, values, (0.0, 199.0))
        assert stats.mean == 0.5 + 2.0**-41
        assert stats.std == 2.0**-41

    def test_population_std(self):
        times = np.arange(200.0)
        values = np.tile([1.0, 3.0], 100)
        stats = equilibrium_stats(times, values, (0.0, 199.0))
        assert stats.mean == pytest.approx(2.0)
        assert stats.std == pytest.approx(1.0)  # population, not sample

    def test_window_too_short(self):
        times = np.arange(0, 50.0, 1.0)
        with pytest.raises(ConfigError, match="samples"):
            equilibrium_stats(times, np.ones_like(times), (0.0, 49.0))

    def test_window_outside_grid(self):
        times = np.arange(0, 200.0, 1.0)
        with pytest.raises(ConfigError):
            equilibrium_stats(times, np.ones_like(times), (100.0, 300.0))

    def test_window_edges_at_late_times(self):
        """Edges match grid points past t = 16384, and a window one step past the run is refused."""
        times = np.arange(15001) * 1.1
        values = np.arange(15001.0)
        stats = equilibrium_stats(times, values, (16276.7, 16385.6))
        assert stats.mean == np.mean(values[14797:14897])
        for window in [(16276.7, times[-1] + 1.1), (times[0] - 1.1, 16385.6)]:
            with pytest.raises(ConfigError, match="not contained"):
                equilibrium_stats(times, values, window)

    def test_mean_stable_under_window_shift(self, recipe_series):
        """Thermalized mean moves little when the window shifts by one step."""
        s = recipe_series.entropy[0]
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
        with pytest.raises(ConfigError):
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
        stats = equilibrium_stats(recipe_series.times, recipe_series.entropy[0], (100.0, 200.0))
        ratio = peak_ratio(recipe_series.times, recipe_series.entropy[0], 9.0, stats)
        assert 2.08 == pytest.approx(ratio, rel=0.10)

    def test_reference_complexity_ratio(self, recipe_series):
        c = recipe_series.complexity[1][0]
        stats = equilibrium_stats(recipe_series.times, c, (100.0, 200.0))
        ratio = peak_ratio(recipe_series.times, c, 9.0, stats)
        assert 4.13 == pytest.approx(ratio, rel=0.10)

    def test_peak_ratio_ordering_across_radii(self, recipe_series):
        """Collision contrast weakens as the horizon grows."""
        ratios = []
        for r in (1, 2, 3):
            c = recipe_series.complexity[r][0]
            stats = equilibrium_stats(recipe_series.times, c, (100.0, 200.0))
            ratios.append(peak_ratio(recipe_series.times, c, 9.0, stats))
        assert ratios[0] > ratios[1] > ratios[2]

    def test_complexity_peak_beats_entropy_peak(self, recipe_series):
        t = recipe_series.times
        s = recipe_series.entropy[0]
        s_stats = equilibrium_stats(t, s, (100.0, 200.0))
        c = recipe_series.complexity[1][0]
        c_stats = equilibrium_stats(t, c, (100.0, 200.0))
        s_ratio = peak_ratio(t, s, 9.0, s_stats)
        c_ratio = peak_ratio(t, c, 9.0, c_stats)
        assert c_ratio > s_ratio
        # subsequent collision shows the same ordering with a smaller margin
        s2 = peak_ratio(t, s, 27.0, s_stats)
        c2 = peak_ratio(t, c, 27.0, c_stats)
        assert c2 > s2
        assert c_ratio / s_ratio > c2 / s2
