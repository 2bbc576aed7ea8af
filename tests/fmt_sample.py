"""Doubles on which io.fmt_all must print exactly format(x, ".17g").

The sample holds the doubles within 4 ulps of each power of ten from 1e-4
to 1, the exact 17-digit ties j / 2^n (n = 18..21), and doubles drawn
uniform in bit pattern over [1e-4, 1) and log-uniform over [1e-6, 10).
Run as a script, it compares n of them, then m doubles drawn uniform in bit
pattern over all finite doubles of both signs, in blocks, and exits 1 on
any mismatch (from the repository root):

    PYTHONPATH=src python -W error tests/fmt_sample.py 10000000 1000000
"""

from __future__ import annotations

import sys

import numpy as np

BLOCK = 10**4  # doubles per io.fmt_all call in the sweep


def exact_ties() -> np.ndarray:
    """Every j / 2^n with j odd and n = 18..21 that has 18 significant digits in [1e-4, 1).

    Its n decimals end in 5, so rounding it to 17 significant digits is an exact tie.
    """
    ties = []
    for n, low in zip(range(18, 22), (1e-1, 1e-2, 1e-3, 1e-4)):
        x = np.arange(1, 2**n, 2) / 2.0**n
        ties.append(x[(x >= low) & (x < 10 * low)])
    return np.concatenate(ties)


def near_powers_of_ten(ulps: int = 4) -> np.ndarray:
    """The doubles within `ulps` steps of 1e-4, 1e-3, 1e-2, 1e-1 and 1."""
    bits = np.array([1e-4, 1e-3, 1e-2, 1e-1, 1.0]).view(np.int64)
    return (bits[:, None] + np.arange(-ulps, ulps + 1)).ravel().view(np.float64)


def sample(n: int, seed: int = 0) -> np.ndarray:
    """n doubles: near_powers_of_ten(), exact ties, then half uniform in bits, half log-uniform.

    The ties are all of them if they take at most a quarter of n, else a
    random quarter of n.
    """
    rng = np.random.default_rng(seed)
    fixed = near_powers_of_ten()
    ties = exact_ties()
    if len(ties) > n // 4:
        ties = rng.choice(ties, n // 4, replace=False)
    rest = n - len(fixed) - len(ties)
    low, high = np.array([1e-4, 1.0]).view(np.int64)
    uniform_bits = rng.integers(low, high, rest // 2).view(np.float64)
    log_uniform = 10.0 ** rng.uniform(-6.0, 1.0, rest - rest // 2)
    return np.concatenate([fixed, ties, uniform_bits, log_uniform])


def wide(n: int, seed: int = 0) -> np.ndarray:
    """n doubles uniform in bit pattern over every finite double of either sign."""
    rng = np.random.default_rng(seed)
    magnitude = rng.integers(0, np.float64(np.inf).view(np.int64), n)  # the bits below +inf
    sign = rng.integers(0, 2, n) << 63
    return (magnitude | sign).view(np.float64)


def mismatches(x: np.ndarray, fmt_all) -> list[tuple[float, str, str]]:
    """(x, fmt_all text, format text) of every element where the two differ."""
    return [(v, got, format(v, ".17g")) for v, got in zip(x.tolist(), fmt_all(x))
            if got != format(v, ".17g")]


def main(argv: list[str]) -> int:
    from pcx import io

    counts = [int(a) for a in argv] + [10**7, 10**6][len(argv):]
    x = np.concatenate([sample(counts[0]), wide(counts[1])])
    found = []
    for k in range(0, len(x), BLOCK):
        found += mismatches(x[k:k + BLOCK], io.fmt_all)
    for v, got, want in found[:20]:
        print(f"{v!r}: fmt_all {got!r}, format {want!r}")
    print(f"{len(x)} doubles, {len(exact_ties())} exact ties, {counts[1]} over all finite "
          f"doubles, {len(found)} mismatches")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
