"""Exact symmetries of S and C(r_h) on rings that no dense oracle reaches.

At N <= 40 the engines are checked against a dense diagonalization.  These
symmetries of the ring hold at every N and need no oracle:
- translation: flips (a+s, b+s) give site j+s the values that flips (a, b)
  give site j;
- reflection j -> N+1-j: flips (N+1-b, N+1-a) give site N+1-j the values of
  site j;
- the sign of J: H - e0 changes sign with J and the initial state is real,
  so |b(t)|^2, and with it S and C, is the same for J and -J.
The base flips (3, N-9) are N-12 apart, more than N/2, so their initial row
is read by parity and their arc wraps past site N; translated by SHIFT they
are 12 apart.  N = 511 is the largest ring within the block budget.
BetheEngine, which fills the same quarter stack from the Bethe roots, is
checked at N = 255 and 256.
"""

import numpy as np
import pytest

from pcx.analysis import spacetime_scan
from pcx.bethe import BetheEngine
from pcx.chain import ChainConfig, SpectralEngine

RADII, DT, TMAX = (1, 2, 3), 1.0, 4.0
SHIFT = 37
TOL = 1e-13


def _grids(engine, flips) -> np.ndarray:
    """(S, C_rh1, C_rh2, C_rh3) grids of one scan, shape (4, N, times)."""
    return np.stack([g.values for g in spacetime_scan(engine, flips, RADII, DT, TMAX)])


@pytest.fixture(scope="module", params=[
    pytest.param((SpectralEngine, 255), id="255"),
    pytest.param((SpectralEngine, 256), id="256"),
    pytest.param((SpectralEngine, 511), id="511"),
    pytest.param((BetheEngine, 255), id="bethe-255"),
    pytest.param((BetheEngine, 256), id="bethe-256"),
])
def scans(request):
    """Grids of the base flips and of their three images; one engine is alive at a time."""
    Engine, N = request.param
    base = (3, N - 9)
    engine = Engine(ChainConfig(N=N))
    grids = {
        "base": _grids(engine, base),
        "translated": _grids(engine, tuple(sorted((n + SHIFT - 1) % N + 1 for n in base))),
        "reflected": _grids(engine, (N + 1 - base[1], N + 1 - base[0])),
    }
    del engine
    grids["negative J"] = _grids(Engine(ChainConfig(N=N, J=-1.0)), base)
    return grids


def test_translation(scans):
    assert np.max(np.abs(scans["translated"] - np.roll(scans["base"], SHIFT, axis=1))) < TOL


def test_reflection(scans):
    assert np.max(np.abs(scans["reflected"] - scans["base"][:, ::-1])) < TOL


def test_sign_of_coupling(scans):
    assert np.max(np.abs(scans["negative J"] - scans["base"])) < TOL
