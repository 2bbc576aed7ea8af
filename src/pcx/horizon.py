"""Single-site predictive states on the two-magnon chain.

The exterior of a focal site j is every other site.  Exterior basis
states whose flips all sit outside the horizon (circular distance > r_h
from j) are declared equivalent; this single class mixes the one-flip
and two-flip exterior sectors, which is what makes the predictive
reduced operator acquire an off-diagonal element.  Exterior states with
exactly one flip inside the horizon are equivalent per inside site, and
states with two inside flips stay distinct.

The reduced operator of the site is diagonal (a pair state cannot be in
two magnon sectors of the exterior at once); the predictive one keeps
the same diagonal but gains off-diagonal sqrt(m_out * m_focus) * phases,
where m_out is the probability of both flips outside and m_focus the
probability of one flip on j and the other outside.  Its eigenvalues only
need the magnitude, so the scan path skips the phases.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .chain import all_pairs, circular_distance, focus_indices
from .errors import ConfigError
from .predictive import (
    DEGENERATE_PHASE_TOL,
    BipartiteState,
    EquivalencePartition,
)


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

    @property
    def outside_sites(self) -> tuple[int, ...]:
        return tuple(s for s in range(1, self.N + 1) if not self.is_inside(s))


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


def rho_a_site(b: np.ndarray, j: int, N: int) -> np.ndarray:
    """Reduced operator of site j in the (down, up) basis; exactly diagonal."""
    p_down = float(np.sum(np.abs(b[focus_indices(j, N)]) ** 2))
    return np.array([[p_down, 0.0], [0.0, 1.0 - p_down]], dtype=np.complex128)


def _unit_phase(z: complex, mass: float) -> complex:
    if abs(z) <= DEGENERATE_PHASE_TOL * np.sqrt(max(mass, 0.0)):
        return 1.0 + 0.0j
    return z / abs(z)


def predictive_offdiag(b: np.ndarray, cls: PairClassification):
    """<down| rho'_A |up> from the outside-outside and focus-outside sums."""
    m_out = float(np.sum(np.abs(b[cls.type_i]) ** 2))
    m_focus = float(np.sum(np.abs(b[cls.focus_out]) ** 2))
    magnitude = np.sqrt(m_out * m_focus)
    z_out = complex(np.sum(b[cls.type_i]))
    z_focus = complex(np.sum(b[cls.focus_out]))
    return magnitude * np.conj(_unit_phase(z_out, m_out)) * _unit_phase(z_focus, m_focus)


def rho_a_predictive(b: np.ndarray, spec: HorizonSpec, cls: PairClassification) -> np.ndarray:
    """Predictive reduced operator of the focal site, (down, up) basis."""
    if cls.spec != spec:
        raise ValueError("classification was built for a different horizon")
    rho = rho_a_site(b, spec.j, spec.N)
    c = predictive_offdiag(b, cls)
    rho[0, 1] = c
    rho[1, 0] = np.conj(c)
    return rho


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


def exterior_state_and_partition(b: np.ndarray, spec: HorizonSpec):
    """Generic-pipeline view of the chain state for one focal site.

    Returns a BipartiteState on C^2 (x) H_B, where H_B enumerates
    [vacuum, one-flip exterior states, two-flip exterior states], and the
    horizon-induced EquivalencePartition of that H_B.  This is the oracle
    route against which the closed-form rho_a_predictive is checked.
    """
    N, j = spec.N, spec.j
    exterior = [s for s in range(1, N + 1) if s != j]
    one_slot = {s: 1 + i for i, s in enumerate(exterior)}
    pair_slot = {}
    slot = 1 + len(exterior)
    for ia, a in enumerate(exterior):
        for bb in exterior[ia + 1:]:
            pair_slot[(a, bb)] = slot
            slot += 1
    dim_b = slot
    amps = np.zeros((2, dim_b), dtype=np.complex128)
    n1s, n2s = all_pairs(N)
    for p in range(len(n1s)):
        a, bb = int(n1s[p]), int(n2s[p])
        if a == j:
            amps[0, one_slot[bb]] = b[p]
        elif bb == j:
            amps[0, one_slot[a]] = b[p]
        else:
            amps[1, pair_slot[(a, bb)]] = b[p]
    no_inside_flip = [one_slot[s] for s in exterior if not spec.is_inside(s)]
    no_inside_flip += [
        pair_slot[(a, bb)] for (a, bb) in pair_slot
        if not spec.is_inside(a) and not spec.is_inside(bb)
    ]
    groups = [no_inside_flip]
    for s_in in spec.inside_exterior_sites:
        groups.append([
            pair_slot[tuple(sorted((s_in, out)))] for out in spec.outside_sites
        ])
    # collapsing a one-member class is the identity map; leave it in the remainder
    groups = [g for g in groups if len(g) >= 2]
    state = BipartiteState(amplitudes=amps)
    part = EquivalencePartition.from_index_groups(dim_b, groups)
    return state, part
