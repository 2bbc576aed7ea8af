import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pcx
from pcx.analysis import site_series, spacetime_scan
from oracles import DenseEngine
from pcx.chain import ChainConfig, SpectralEngine

RECIPE_FLIPS = (10, 25)
RECIPE_SITE = 17
RECIPE_RADII = (1, 2, 3)
RECIPE_DT = 0.2
RECIPE_TMAX = 200.0


@pytest.fixture(scope="session")
def cfg32():
    return ChainConfig(N=32)


@pytest.fixture(scope="session")
def engine32(cfg32):
    return SpectralEngine(cfg32)


@pytest.fixture(scope="session")
def bethe_engine32(cfg32):
    from pcx.bethe import BetheEngine

    return BetheEngine(cfg32)


@pytest.fixture(scope="session")
def engine8():
    return SpectralEngine(ChainConfig(N=8))


@pytest.fixture(scope="session")
def dense_engine8():
    """Dense oracle: the whole N=8 sector diagonalized at once."""
    return DenseEngine(ChainConfig(N=8))


@pytest.fixture(scope="session")
def dense_engine32(cfg32):
    """Dense oracle for the reference ring."""
    return DenseEngine(cfg32)


@pytest.fixture(scope="session")
def recipe_series(cfg32, engine32):
    """Site-17 series of the reference recipe, shared across tests."""
    return site_series(engine32, RECIPE_FLIPS, RECIPE_SITE, RECIPE_RADII,
                       RECIPE_DT, RECIPE_TMAX)


@pytest.fixture(scope="session")
def recipe_scan(cfg32, engine32):
    """Full default spacetime scan of the reference recipe."""
    return spacetime_scan(engine32, RECIPE_FLIPS, RECIPE_RADII,
                          RECIPE_DT, RECIPE_TMAX)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260808)


@pytest.fixture(scope="session")
def run_python():
    """Runs ``python ARGS`` in a child process on the source tree under test.

    The directory holding the imported pcx package goes first on the
    child's PYTHONPATH, so the child runs the same code as this process
    and never another install.  ``env`` sets variables of the child's
    environment; a value None removes one.
    """
    pcx_root = str(Path(pcx.__file__).resolve().parent.parent)
    base = dict(os.environ)
    base["PYTHONPATH"] = os.pathsep.join(p for p in (pcx_root, base.get("PYTHONPATH")) if p)

    def run(args, env=None):
        child = {**base, **(env or {})}
        child = {k: v for k, v in child.items() if v is not None}
        return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=child)

    return run


@pytest.fixture(scope="session")
def run_cli(run_python):
    """Runs ``python -m pcx`` in a child process on the source tree under test."""
    return lambda args, env=None: run_python(["-m", "pcx", *args], env)
