"""Invariants of the observable kernel over random valid runs.

The examples come from the derandomized Hypothesis profile of conftest.py,
so every run draws the same ones.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from pcx.analysis import site_series, spacetime_scan
from pcx.chain import ChainConfig, SpectralEngine
from test_analysis import assert_radius_chain, grids


@st.composite
def runs(draw):
    """(N, J, flips, site, radii): adjacent, antipodal or wrapping flips; every radius up to six, in random order."""
    N = draw(st.integers(5, 40))
    J = draw(st.sampled_from([1.0, -1.0, 0.3, -2.7, 1e-3]))
    # distance n2 - n1: adjacent, antipodal, or past N/2, so the shorter arc wraps past site N
    d = draw(st.one_of(st.just(1), st.just(N // 2), st.integers(N // 2 + 1, N - 1)))
    n1 = draw(st.integers(1, N - d))
    site = draw(st.integers(1, N))
    radii = draw(st.permutations(range(1, min(6, (N - 2) // 2) + 1)))  # 2 r_h + 1 < N
    return N, J, (n1, n1 + d), site, radii


@settings(max_examples=200, deadline=None)
@given(runs())
def test_series_is_scan_row_and_radius_chain_holds(run):
    N, J, flips, site, radii = run
    engine = SpectralEngine(ChainConfig(N=N, J=J))
    scan = spacetime_scan(engine, flips, radii, 0.5, 6.0)
    series = site_series(engine, flips, site, radii, 0.5, 6.0)
    assert list(scan.complexity) == list(series.complexity) == radii
    assert series.times.tobytes() == scan.times.tobytes()
    for row, grid in zip(grids(series), grids(scan)):
        assert row.tobytes() == grid[site - 1:site].tobytes()
    assert_radius_chain(scan)
