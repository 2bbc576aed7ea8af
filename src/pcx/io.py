"""CSV and PGM writers with a locale-independent fixed format."""

from __future__ import annotations

import numpy as np


def fmt(x) -> str:
    """17-significant-digit decimal rendering of a number; an integer below 2^53 reads as itself."""
    return format(float(x), ".17g")


def fmt_all(values: np.ndarray) -> list[str]:
    """fmt of every element of a float array, in order."""
    return [format(x, ".17g") for x in np.asarray(values, dtype=np.float64).tolist()]


def write_csv(path, columns, rows, preamble=(), footer=()):
    """Plain comma-separated file: '#' preamble, header row, data, '#' footer.

    Each item of rows is either a sequence of cells, written with fmt
    (str cells as given), or a str of complete lines already formatted,
    written as is.
    """
    with open(path, "w", newline="\n") as fh:
        for line in preamble:
            fh.write(f"# {line}\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            if isinstance(row, str):
                fh.write(row)
            else:
                fh.write(",".join(fmt(x) if not isinstance(x, str) else x for x in row) + "\n")
        for line in footer:
            fh.write(f"# {line}\n")


def write_pgm(path, values01: np.ndarray):
    """Binary PGM (P5, maxval 255) with pixel = round(255 * value).

    The gray scale is fixed to [0, 1] bits so different grids are directly
    comparable; values outside are clipped.
    """
    pixels = np.rint(255.0 * np.clip(values01, 0.0, 1.0)).astype(np.uint8)
    height, width = pixels.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{width} {height}\n255\n".encode("ascii"))
        fh.write(pixels.tobytes())


def write_grid_metadata(path, grid, cfg, flips, dt, t_max, engine_name):
    lines = [
        f"grid: {grid.label}",
        "pixel scale: gray 0..255 maps linearly to 0..1 bits (clipped)",
        "horizontal axis: time, left to right, 0 .. t_max, step dt (hbar per energy unit)",
        f"vertical axis: site 1 (top) .. site {cfg.N} (bottom)",
        f"N={cfg.N} J={fmt(cfg.J)} flips={flips[0]},{flips[1]} dt={fmt(dt)} t_max={fmt(t_max)}",
        f"engine={engine_name}",
    ]
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
