"""The collision contrast beyond the reference recipe: C marks the first magnon
collision more sharply than S, and fluctuates less at late times.

Each recipe is (N, flips, site): a midpoint site of the two flips, dt = 0.2,
t_max = 200 and the equilibrium window [100, 200].  The peak rule: the first
local maximum of S above 1.3x its equilibrium mean, and the local maximum of
C(r_h = 1) nearest to it, within 1.0.  Pairs of flips related by a
translation repeat the reference recipe bit for bit and are left out.
"""

import re
from pathlib import Path

import pytest

from pcx.analysis import equilibrium_stats, nearest_peak, site_series
from pcx.chain import ChainConfig, SpectralEngine

README = Path(__file__).resolve().parent.parent / "README.md"
RECIPES = [(33, (10, 25), 17), (40, (5, 20), 12), (48, (10, 30), 20), (64, (20, 50), 35)]
WINDOW = (100.0, 200.0)


def contrast(N, flips, site):
    """(t of the S peak, S peak ratio, C1 peak ratio, std(S)/std(C1)) of one recipe."""
    series = site_series(SpectralEngine(ChainConfig(N=N)), flips, site, (1,), 0.2, 200.0)
    t, s, c = series.times, series.entropy[0], series.complexity[1][0]
    s_stats, c_stats = (equilibrium_stats(t, v, WINDOW) for v in (s, c))
    i = next(i for i in range(1, len(t) - 1)
             if s[i] >= s[i - 1] and s[i] >= s[i + 1] and s[i] > 1.3 * s_stats.mean)
    k = nearest_peak(t, c, t[i], radius=1.0)
    return t[i], s[i] / s_stats.mean, c[k] / c_stats.mean, s_stats.std / c_stats.std


@pytest.fixture(scope="module")
def contrasts():
    return {recipe: contrast(*recipe) for recipe in RECIPES}


@pytest.mark.parametrize("recipe", RECIPES, ids=[f"N{n}" for n, _, _ in RECIPES])
def test_complexity_peak_and_calm_beat_entropy(contrasts, recipe):
    """The C1 peak ratio is over 1.5x the S ratio, and std(S)/std(C1) is over 1.5."""
    _, s_ratio, c_ratio, std_ratio = contrasts[recipe]
    assert c_ratio > 1.5 * s_ratio
    assert std_ratio > 1.5


def test_readme_table_matches(contrasts):
    """README's contrast table lists exactly these recipes, with their figures to 2 decimals."""
    rows = re.findall(r"^\| (\d+) \| (\d+),(\d+) \| (\d+) \| ([\d.]+) \| ([\d.]+) \| ([\d.]+) \| ([\d.]+) \|$",
                      README.read_text().split("collision contrast beyond the recipe", 1)[1],
                      re.MULTILINE)
    expected = [(str(n), str(a), str(b), str(site), f"{t:.1f}", *(f"{x:.2f}" for x in figures))
                for (n, (a, b), site), (t, *figures) in contrasts.items()]
    assert rows == expected
