"""Dekker's error-free product behind io's exact digits: x c = p + q holds in exact arithmetic.

Each float operation of the product must round on its own; a platform that fuses or widens
one fails here, on the arithmetic, before any text differs.
"""

from fractions import Fraction

import numpy as np

from fmt_sample import exact_ties, sample
from pcx import io
from test_io import EDGES


def test_product_is_exact():
    """EDGES in [1e-4, 1) and 10^4 sampled doubles: p + q = x 10^(16 - E) with no error."""
    x = np.concatenate([EDGES, exact_ties()[::499], sample(20_000, seed=4)])
    x = x[(x >= 1e-4) & (x < 1.0)]
    assert len(x) >= 10_000
    E, p, q = io._scaled(x)
    for v, e, hi, lo in zip(x.tolist(), E.tolist(), p.tolist(), q.tolist()):
        assert Fraction(10) ** e <= v < Fraction(10) ** (e + 1)
        assert Fraction(hi) + Fraction(lo) == Fraction(v) * 10 ** (16 - e), v
        assert hi % 2 == 0 and abs(lo) <= 8  # so rint(lo) rounds x c half to even
