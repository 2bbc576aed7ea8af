"""CSV and PGM writers with a locale-independent fixed format, and staged output files."""

from __future__ import annotations

import functools
import os
from contextlib import contextmanager
from pathlib import Path

import numpy as np

FLOAT = "%.17g"  # the one number format of tables, footers and preambles; reads back exactly
FIELD = "%s"  # a number's place in a write_csv template; write_csv fills it with FLOAT text

# FLOAT of x in [1e-4, 1) is "0." + (-1 - E) zeros + the 17 significant digits
# D = x 10^(16 - E), rounded half to even, less trailing zeros; E = -1 .. -4 is
# the decimal exponent.  With x = m 2^(e - 53) from frexp (m a 53-bit integer),
# D = m 5^(16 - E) / 2^s with s = 37 + E - e in 33 .. 49, and m 5^(16 - E) < 2^100.
_POW5 = np.array([5**q for q in range(17, 21)], dtype=np.uint64)  # 5^(16 - E) at index -1 - E
_POW10 = np.array([10**k for k in range(11)])
_LOW32, _ONE, _32 = np.uint64(2**32 - 1), np.uint64(1), np.uint64(32)
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


def _half_even_shift(m, s, p):
    """m p / 2^s rounded half to even, for m < 2^53, p < 2^47 and 33 <= s <= 49 (uint64 arrays).

    The product is formed in 32-bit limbs: m p = hi 2^64 + mid 2^32 + lo with mid, lo < 2^32.
    """
    m_lo, m_hi = m & _LOW32, m >> _32
    p_lo, p_hi = p & _LOW32, p >> _32
    lo = m_lo * p_lo
    mid = m_lo * p_hi + m_hi * p_lo + (lo >> _32)
    hi = m_hi * p_hi + (mid >> _32)
    mid &= _LOW32
    lo &= _LOW32
    t = s - _32  # 1 .. 17
    d = (hi << (_32 - t)) | (mid >> t)
    remainder = ((mid & ((_ONE << t) - _ONE)) << _32) | lo
    # up when the remainder exceeds half, or equals it and d is odd
    d += remainder + (d & _ONE) > (_ONE << (s - _ONE))
    return d


def _fraction_texts(x: np.ndarray) -> np.ndarray:
    """FLOAT text of every x in [1e-4, 1), computed exactly in integers."""
    frac, exp = np.frexp(x)
    m = (frac * 2.0**53).astype(np.uint64)
    E = np.searchsorted(_DECADES, x, side="right") - 4
    d = _half_even_shift(m, (37 + E - exp).astype(np.uint64), _POW5[-1 - E]).view(np.int64)
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
    """FLOAT text of every x, in order; x in [1e-4, 1) by the integer path, the rest by one `%`."""
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
