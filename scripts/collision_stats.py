#!/usr/bin/env python3
"""Reproduce the headline collision statistics for the reference recipe.

N=32 ring, flips at sites 10 and 25, site 17 observed, dt=0.2 out to
t=200: prints the first-collision peak ratios of entropy and complexity
against their late-time means, plus the fluctuation suppression factor.
"""

import argparse

from pcx import ChainConfig, SpectralEngine, site_series
from pcx.analysis import equilibrium_stats, nearest_peak, peak_ratio


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sites", type=int, default=32)
    parser.add_argument("--tmax", type=float, default=200.0)
    args = parser.parse_args()

    engine = SpectralEngine(ChainConfig(N=args.sites))
    series = site_series(engine, (10, 25), 17, (1, 2, 3), 0.2, args.tmax)
    window = (0.5 * args.tmax, args.tmax)

    s_stats = equilibrium_stats(series.times, series.entropy, window)
    i = nearest_peak(series.times, series.entropy, 9.0)
    print(f"entropy: first collision peak at t={series.times[i]:.1f}, "
          f"S={series.entropy[i]:.4f} bits, <S>={s_stats.mean:.4f}, "
          f"ratio={peak_ratio(series.times, series.entropy, 9.0, s_stats):.3f}")

    for r in (1, 2, 3):
        c = series.complexity[r]
        c_stats = equilibrium_stats(series.times, c, window)
        ratio = peak_ratio(series.times, c, 9.0, c_stats)
        extra = ""
        if r == 1:
            extra = f"  std(S)/std(C)={s_stats.std / c_stats.std:.3f}"
        print(f"complexity r_h={r}: peak ratio={ratio:.3f}, <C>={c_stats.mean:.4f}{extra}")


if __name__ == "__main__":
    main()
