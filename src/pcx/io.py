"""CSV and PGM writers with a locale-independent fixed format, and staged output files."""

from __future__ import annotations

import functools
import os
from contextlib import contextmanager
from pathlib import Path

import numpy as np

FLOAT = "%.17g"  # the one number format of tables, footers and preambles; reads back exactly
FIELD = "%s"  # a number's place in a write_csv template; write_csv fills it with FLOAT text


def _split(a):
    """Veltkamp's split of doubles a = hi + lo, each half with at most 26 significant bits."""
    t = a * (2.0**27 + 1)
    hi = t - (t - a)
    return hi, a - hi


# FLOAT of x in [1e-4, 1) is "0." + (-1 - E) zeros + D less trailing zeros; E = -1 .. -4 is the
# decimal exponent, D = x c rounded half to even and c = 10^(16 - E) an exact double.  From
# Dekker's x c = p + q (Numer. Math. 18, 224-242, 1971), p >= 10^16 > 2^53 is even and |q| <= 8.
_SCALES = np.array([(c, *_split(c)) for c in map(float, (10**17, 10**18, 10**19, 10**20))]).T
_POW10 = np.array([10**k for k in range(11)])
# each double nearest 10^E lies above it, and no smaller double rounds up to 10^E at
# 17 digits (half a step, 5e-18 relative, is less than one ulp): E is exact from x
_DECADES = np.array([1e-3, 1e-2, 1e-1])


@functools.cache
def _text_pieces() -> np.ndarray:
    """4-byte pieces of text: row v < 10^4 is v in four digits, row 10^4 + v is "0." and v in two.

    Built on first use, not on import.
    """
    digit = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    four = np.empty((10, 10, 10, 10, 4), dtype=np.uint8)
    for k in range(4):
        four[..., k] = digit.reshape((10,) + (1,) * (3 - k))
    two = four[0, 0].copy()
    two[..., 1] = ord(".")
    return np.concatenate([four.reshape(-1, 4), two.reshape(-1, 4)]).view(np.uint32).ravel()


def fmt(x) -> str:
    """FLOAT rendering of a number; an integer below 2^53 reads as itself."""
    return FLOAT % float(x)


def _scaled(x: np.ndarray):
    """(E, p, q) for x in [1e-4, 1): p = fl(x c), and p + q = x c exactly if no operations fuse."""
    E = np.searchsorted(_DECADES, x, side="right") - 4
    (c, ch, cl), (xh, xl) = np.take(_SCALES, -1 - E, axis=1), _split(x)  # c = 10^(16 - E)
    p = x * c
    return E, p, ((xh * ch - p) + xh * cl + xl * ch) + xl * cl


def _fraction_texts(x: np.ndarray) -> np.ndarray:
    """FLOAT text of every x in [1e-4, 1), its digits D = p + rint(q) from Dekker's product."""
    E, p, q = _scaled(x)
    d = p.astype(np.int64) + np.rint(q).astype(np.int64)
    # F = d 10^(4 + E), the 20 digits after "0.", in halves of 10 digits; the second is
    # taken times 100, so that both read as three 4-digit pieces and the text ends in "00"
    split = _POW10[6 - E]
    halves = np.empty((len(x), 2), dtype=np.int64)
    halves[:, 0] = d // split
    halves[:, 1] = (d - halves[:, 0] * split) * _POW10[6 + E]
    pieces = np.empty((len(x), 2, 3), dtype=np.intp)
    upper = halves // 10**4
    pieces[:, :, 2] = halves - upper * 10**4
    pieces[:, :, 0] = upper // 10**4
    pieces[:, :, 1] = upper - pieces[:, :, 0] * 10**4
    pieces[:, 0, 0] += 10**4  # "00dd", the top of a 10-digit half, reads "0.dd"
    text = np.take(_text_pieces(), pieces.reshape(len(x), 6)).view("S24").ravel()  # "0." F "00"
    return np.char.rstrip(text, b"0")  # F has a nonzero digit, so the strip stops after "0."


def _texts(x: np.ndarray) -> list[bytes]:
    """FLOAT text of every x, in order; x in [1e-4, 1) by Dekker's product, the rest by one `%`."""
    exact = (x >= 1e-4) & (x < 1.0)  # False for nan
    texts = np.empty(len(x), dtype=object)
    texts[exact] = _fraction_texts(x[exact]).tolist()
    rest = x[~exact].tolist()
    texts[~exact] = ((FLOAT.encode() + b" ") * len(rest) % tuple(rest)).split()
    return texts.tolist()


def fmt_all(values: np.ndarray) -> list[str]:
    """fmt of every element of a float array, in order."""
    return [text.decode() for text in _texts(np.asarray(values, dtype=np.float64).ravel())]


def write_csv(path, columns, chunks, preamble=(), footer=()):
    """Plain comma-separated file: '#' preamble, header row, data, '#' footer.

    Each chunk is (template, numbers): the text of one or more rows with one
    FIELD per number, filled with the numbers' FLOAT text by one `%` and
    written as is.  A chunk's numbers are formatted together, so a large
    table goes in blocks of rows.
    """
    with open(path, "wb") as fh:
        fh.write("".join(f"# {line}\n" for line in preamble).encode())
        fh.write((",".join(columns) + "\n").encode())
        for template, numbers in chunks:
            fh.write(template.encode() % tuple(_texts(np.asarray(numbers, dtype=np.float64).ravel())))
        fh.write("".join(f"# {line}\n" for line in footer).encode())


@contextmanager
def staged(directory):
    """Make `directory` if missing, then yield stage(name): a temporary path there that replaces `name`.

    The temporary files take their names only after the block ends without
    an exception, all of them then; otherwise they are removed, and files
    already in `directory` stay as they were.  The renames are not atomic
    as a set.  A command enters this block only when it starts writing, so a
    run refused before then leaves no new directory.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    final = {}

    def stage(name: str) -> Path:
        path = directory / f".{name}.{os.getpid()}.tmp"
        final[path] = directory / name
        return path

    try:
        yield stage
        for path, name in final.items():
            os.replace(path, name)
    finally:
        for path in final:
            path.unlink(missing_ok=True)  # a renamed file is already gone


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


def write_grid_metadata(path, label: str, cfg, flips, dt, t_max, engine_name):
    lines = [
        f"grid: {label}",
        "pixel scale: gray 0..255 maps linearly to 0..1 bits (clipped)",
        "horizontal axis: time, left to right, 0 .. t_max, step dt (hbar per energy unit)",
        f"vertical axis: site 1 (top) .. site {cfg.N} (bottom)",
        f"N={cfg.N} J={fmt(cfg.J)} flips={flips[0]},{flips[1]} dt={fmt(dt)} t_max={fmt(t_max)}",
        f"engine={engine_name}",
    ]
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
