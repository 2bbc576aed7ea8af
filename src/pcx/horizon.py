"""Single-site predictive states on the two-magnon chain.

The exterior of a focal site j is every other site.  Exterior basis
states whose flips all sit outside the horizon (circular distance > r_h
from j) are declared equivalent; this single class mixes the one-flip
and two-flip exterior sectors, which is what makes the predictive
reduced operator acquire an off-diagonal element.  Exterior states with
exactly one flip inside the horizon are equivalent per inside site, and
states with two inside flips stay distinct.

`classify_pairs` sorts the pair basis into these classes.  For a pair
state, rho_A is diagonal (the state cannot be in two magnon sectors of
the exterior at once), and rho'_A keeps that diagonal but gains an
off-diagonal of magnitude sqrt(m_out * m_focus), where m_out is the
probability of both flips outside and m_focus that of one flip on j and
the other outside.
The eigenvalues need only that magnitude, which is all
`two_level_entropy_bits` reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .chain import all_pairs, circular_distance
from .errors import ConfigError


@dataclass(frozen=True)
class HorizonSpec:
    """Focal site j with horizon radius r_h on an N-site ring."""

    j: int
    r_h: int
    N: int

    def __post_init__(self):
        if not (1 <= self.j <= self.N):
            raise ConfigError(f"site {self.j} outside chain of {self.N} sites")
        if self.r_h < 1:
            raise ConfigError("horizon radius must be >= 1")
        if 2 * self.r_h + 1 >= self.N:
            raise ConfigError(
                f"degenerate horizon: 2*{self.r_h}+1 sites cover the {self.N}-site ring"
            )

    def is_inside(self, site: int) -> bool:
        return circular_distance(site, self.j, self.N) <= self.r_h

    @property
    def inside_sites(self) -> tuple[int, ...]:
        """Sites within the horizon, including j itself."""
        return tuple(s for s in range(1, self.N + 1) if self.is_inside(s))

    @property
    def inside_exterior_sites(self) -> tuple[int, ...]:
        return tuple(s for s in self.inside_sites if s != self.j)


@dataclass(frozen=True)
class PairClassification:
    """Partition of the pair basis induced by a horizon around site j.

    Pairs not containing j split into: both flips outside (type I, one
    class), one flip inside (type II, one class per inside site), both
    inside (type III singletons).  Pairs containing j are tracked apart:
    they form the site-excited branch, split by whether the companion
    flip is outside or inside.
    """

    spec: HorizonSpec
    type_i: np.ndarray
    type_ii: tuple  # ((inside_site, flat indices), ...) sorted by site
    type_iii: np.ndarray
    focus_out: np.ndarray
    focus_in: np.ndarray

    @property
    def n_type_i(self) -> int:
        return len(self.type_i)

    def validate(self):
        N, r_h = self.spec.N, self.spec.r_h
        n_out = N - (2 * r_h + 1)
        assert self.n_type_i == comb(n_out, 2)
        assert len(self.type_ii) == 2 * r_h
        assert all(len(idx) == n_out for _, idx in self.type_ii)
        assert len(self.type_iii) == comb(2 * r_h, 2)
        assert len(self.focus_out) == n_out
        assert len(self.focus_in) == 2 * r_h
        covered = np.concatenate(
            [self.type_i, self.type_iii, self.focus_out, self.focus_in]
            + [idx for _, idx in self.type_ii]
        )
        assert len(covered) == comb(N, 2)
        assert len(np.unique(covered)) == comb(N, 2)


def classify_pairs(spec: HorizonSpec) -> PairClassification:
    """Exhaustive classification of every pair state for one horizon."""
    N, j = spec.N, spec.j
    n1s, n2s = all_pairs(N)
    type_i, type_iii, focus_out, focus_in = [], [], [], []
    type_ii: dict[int, list[int]] = {s: [] for s in spec.inside_exterior_sites}
    for p in range(len(n1s)):
        a, b = int(n1s[p]), int(n2s[p])
        if a == j or b == j:
            other = b if a == j else a
            (focus_in if spec.is_inside(other) else focus_out).append(p)
            continue
        inside = [s for s in (a, b) if spec.is_inside(s)]
        if not inside:
            type_i.append(p)
        elif len(inside) == 1:
            type_ii[inside[0]].append(p)
        else:
            type_iii.append(p)
    cls = PairClassification(
        spec=spec,
        type_i=np.array(type_i, dtype=np.int64),
        type_ii=tuple((s, np.array(idx, dtype=np.int64)) for s, idx in sorted(type_ii.items())),
        type_iii=np.array(type_iii, dtype=np.int64),
        focus_out=np.array(focus_out, dtype=np.int64),
        focus_in=np.array(focus_in, dtype=np.int64),
    )
    cls.validate()
    return cls


def two_level_entropy_bits(p_down, offdiag_abs=0.0):
    """Entropy of a 2x2 density matrix from its diagonal and |off-diagonal|.

    Takes scalars or arrays of matching shape; a scalar call returns a float.
    """
    half_gap = np.sqrt(0.25 * (2.0 * np.asarray(p_down, dtype=float) - 1.0) ** 2
                       + np.asarray(offdiag_abs, dtype=float) ** 2)
    lams = np.clip(np.stack([0.5 + half_gap, 0.5 - half_gap]), 0.0, 1.0)
    positive = lams > 0
    terms = np.where(positive, lams * np.log2(np.where(positive, lams, 1.0)), 0.0)
    return -(terms[0] + terms[1]) + 0.0

