#!/usr/bin/env python3
"""Render the spacetime grids of the reference recipe as PGM images.

Writes one grayscale map per grid (entropy plus one complexity map per
horizon radius) into the chosen directory, time running left to right
and site index top to bottom; gray level 0..255 spans 0..1 bits.
"""

import argparse
from pathlib import Path

from pcx.analysis import spacetime_scan
from pcx.chain import ChainConfig, SpectralEngine
from pcx.io import write_grid_metadata, write_pgm


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sites", type=int, default=32)
    parser.add_argument("--flips", default="10,25")
    parser.add_argument("--horizon", default="1,2,3")
    parser.add_argument("--dt", type=float, default=0.2)
    parser.add_argument("--tmax", type=float, default=60.0)
    parser.add_argument("--out", default="maps")
    args = parser.parse_args()

    flips = tuple(int(x) for x in args.flips.split(","))
    radii = tuple(int(x) for x in args.horizon.split(","))
    cfg = ChainConfig(N=args.sites)
    engine = SpectralEngine(cfg)
    grids = spacetime_scan(engine, flips, radii, args.dt, args.tmax)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for grid in grids:
        write_pgm(out / f"{grid.label}.pgm", grid.values)
        write_grid_metadata(out / f"{grid.label}.txt", grid, cfg, flips,
                            args.dt, args.tmax, "spectral")
        print(f"{grid.label}: peak {grid.values.max():.3f} bits, "
              f"mean {grid.values.mean():.4f} bits -> {out / (grid.label + '.pgm')}")


if __name__ == "__main__":
    main()
