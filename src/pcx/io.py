"""CSV and PGM writers with a locale-independent fixed format."""

from __future__ import annotations

import numpy as np

FLOAT = "%.17g"  # the one number format of tables, footers and preambles; reads back exactly


def fmt(x) -> str:
    """FLOAT rendering of a number; an integer below 2^53 reads as itself."""
    return FLOAT % float(x)


def fmt_all(values: np.ndarray) -> list[str]:
    """fmt of every element of a float array, in order."""
    return [FLOAT % x for x in np.asarray(values, dtype=np.float64).tolist()]


def write_csv(path, columns, chunks, preamble=(), footer=()):
    """Plain comma-separated file: '#' preamble, header row, data, '#' footer.

    Each chunk is (template, numbers): the text of one or more rows with one
    FLOAT field per number, filled by one `%` and written as is.
    """
    with open(path, "w", newline="\n") as fh:
        for line in preamble:
            fh.write(f"# {line}\n")
        fh.write(",".join(columns) + "\n")
        for template, numbers in chunks:
            fh.write(template % tuple(np.asarray(numbers, dtype=np.float64).ravel().tolist()))
        for line in footer:
            fh.write(f"# {line}\n")


def write_pgm(path, values01: np.ndarray):
    """Binary PGM (P5, maxval 255) with pixel = round(255 * value).

    The gray scale is fixed to [0, 1] bits so different grids are directly
    comparable; values outside are clipped.
    """
    scaled = np.clip(values01, 0.0, 1.0)  # the one grid-sized scratch array
    scaled *= 255.0
    pixels = np.rint(scaled, out=scaled).astype(np.uint8)
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
