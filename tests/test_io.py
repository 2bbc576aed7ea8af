"""The CSV number format: io.fmt_all and io.write_csv print exactly format(x, ".17g")."""

import numpy as np
import pytest

from fmt_sample import exact_ties, mismatches, near_powers_of_ten, sample
from pcx import io

EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1 - 2**-53, 1e-4,
         np.nextafter(1e-4, 0.0), np.nextafter(1e-4, 1.0), 0.5, 0.1, 1.0, 2.5, 1.7976931348623157e308,
         np.inf, -np.inf, np.nan, -0.5, -1e-4, -1 + 2**-53, -3.0,
         np.nextafter(1e-3, 0.0), 1e-3, np.nextafter(1e-3, 1.0), np.nextafter(1e-2, 0.0), 1e-2,
         np.nextafter(1e-2, 1.0), np.nextafter(1e-1, 0.0), np.nextafter(1e-1, 1.0)]


@pytest.mark.parametrize("x", EDGES)
def test_edge_values(x):
    """One value alone: zeros, subnormals, the ends of [1e-4, 1) and the doubles around each
    power of ten inside it, non-finite values and negatives."""
    assert io.fmt_all(np.array([x])) == [format(x, ".17g")]


def test_sample_matches_format():
    """2e5 doubles of the sweep: a quarter exact ties, then uniform in bits and log-uniform."""
    x = np.concatenate([EDGES, sample(200_000)])
    for k in range(0, len(x), 20_000):
        assert mismatches(x[k:k + 20_000], io.fmt_all) == []


def test_sample_holds_ties_and_neighbours():
    """Ties have 18 significant digits, the last a 5, and some round up; 9 doubles per power of ten."""
    ties = exact_ties()[::97].tolist()
    eighteen = [format(x, ".17e").split("e")[0].replace(".", "") for x in ties]
    assert all(len(d) == 18 and d.endswith("5") for d in eighteen)
    up = [format(x, ".16e").split("e")[0].replace(".", "") != d[:17] for x, d in zip(ties, eighteen)]
    assert any(up) and not all(up)
    powers = near_powers_of_ten()
    assert len(powers) == 45 and set(powers[4::9]) == {1e-4, 1e-3, 1e-2, 1e-1, 1.0}


def test_table_body_matches_format(tmp_path):
    """write_csv fills every FIELD with its number's FLOAT text, whatever share lies in [1e-4, 1)."""
    inside = np.concatenate([EDGES, sample(10_000, seed=1)])
    outside = np.concatenate([EDGES, 10.0 ** np.random.default_rng(2).uniform(-20.0, 20.0, 2000)])
    some = np.random.default_rng(3).uniform(1e-4, 1.0, 500)
    half = np.concatenate([some, 1.0 / some])  # exactly half inside
    assert 2 * np.count_nonzero((half >= 1e-4) & (half < 1.0)) == len(half)
    chunks = [(f"{io.FIELD}\n" * len(x), x) for x in (inside, outside, half)]
    io.write_csv(tmp_path / "x.csv", ("x",), chunks)
    expected = [format(v, ".17g") for v in np.concatenate([inside, outside, half]).tolist()]
    assert (tmp_path / "x.csv").read_text().splitlines()[1:] == expected
