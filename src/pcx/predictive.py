"""Predictive-state machinery for finite bipartite systems.

Declared equivalence classes of exterior basis states are collapsed onto
single rays; surviving coefficients are renormalized so every equivalence
class keeps its total probability.  The entropy of the reduced operator
after this map is the predictive complexity of the interior factor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from numbers import Integral

import numpy as np

from .errors import ConfigError

DEGENERATE_PHASE_TOL = 1e-12


@dataclass(frozen=True)
class BipartiteState:
    """Normalized pure state on H_A (x) H_B, amplitudes indexed (a, b)."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        object.__setattr__(self, "amplitudes", amps)
        if amps.ndim != 2:
            raise ConfigError("amplitudes must be a 2-D (dim_a, dim_b) array")
        norm = np.linalg.norm(amps)
        if not abs(norm - 1.0) <= 1e-9:
            raise ConfigError(f"state norm {norm!r} is not 1")

    @property
    def dim_b(self) -> int:
        return self.amplitudes.shape[1]


@dataclass(frozen=True)
class EquivalencePartition:
    """Equivalence classes of exterior basis states, plus the remainder.

    Each group is a class of >= 2 distinct basis indices of H_B, and the
    groups are disjoint.  The subspaces are the matching identity columns,
    the gammas their normalized sums, and the remainder (the inequivalent
    states) the identity columns of the other indices in ascending order.
    """

    dim_b: int
    groups: tuple = ()
    subspaces: tuple = field(init=False, repr=False)
    gammas: np.ndarray = field(init=False, repr=False)
    remainder: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        groups = tuple(tuple(sorted(g)) for g in self.groups)
        flat = [i for g in groups for i in g]
        if (any(len(g) < 2 for g in groups) or len(set(flat)) != len(flat)
                or not all(isinstance(i, Integral) and 0 <= i < self.dim_b for i in flat)):
            raise ConfigError(f"equivalence classes {groups} are not disjoint groups of >= 2 "
                              f"distinct basis indices in range({self.dim_b})")
        groups = tuple(tuple(map(int, g)) for g in groups)
        eye = np.eye(self.dim_b, dtype=np.complex128)
        subs = tuple(eye[:, g] for g in groups)
        gammas = np.hstack(
            [s.sum(axis=1, keepdims=True) / np.sqrt(s.shape[1]) for s in subs]
        ) if subs else np.zeros((self.dim_b, 0), dtype=np.complex128)
        object.__setattr__(self, "groups", groups)
        object.__setattr__(self, "subspaces", subs)
        object.__setattr__(self, "gammas", gammas)
        object.__setattr__(self, "remainder", eye[:, sorted(set(range(self.dim_b)) - set(flat))])


def build_projector(part: EquivalencePartition) -> np.ndarray:
    """Idempotent map on H_B collapsing each equivalence subspace onto its gamma ray."""
    P = np.eye(part.dim_b, dtype=np.complex128)
    for s, sub in enumerate(part.subspaces):
        gamma = part.gammas[:, s]
        P -= sub @ sub.conj().T
        P += np.outer(gamma, gamma.conj())
    return P


def _collapse(coeffs: np.ndarray) -> tuple[np.ndarray, int]:
    """Per-row collapse of in-class coefficients: sqrt(mass) * unit phase.

    Rows whose coefficient sum vanishes relative to their mass get phase 1;
    the count of such degenerate-phase rows is returned.
    """
    mass = np.sum(np.abs(coeffs) ** 2, axis=1)
    zsum = coeffs.sum(axis=1)
    degenerate = np.abs(zsum) < DEGENERATE_PHASE_TOL * np.sqrt(np.maximum(mass, 0.0))
    phases = np.where(degenerate, 1.0 + 0j, zsum / np.where(np.abs(zsum) == 0, 1.0, np.abs(zsum)))
    nonzero_mass = mass > 0
    return np.sqrt(mass) * phases, int(np.count_nonzero(degenerate & nonzero_mass))


@dataclass(frozen=True)
class PredictiveState(BipartiteState):
    """State on H_A (x) H'_B in the [gamma.., remainder..] coordinates."""

    degenerate_phases: int = 0


def predictive_map(psi: BipartiteState, part: EquivalencePartition) -> PredictiveState:
    """Project psi onto the predictive state space and renormalize.

    For each interior index the coefficient on a class gamma carries the
    full in-class probability and the phase of the plain coefficient sum;
    remainder coefficients are copied verbatim.  The output is normalized
    by construction.
    """
    if psi.dim_b != part.dim_b:
        raise ConfigError("state and partition disagree on dim_b")
    blocks = []
    n_degenerate = 0
    for s, sub in enumerate(part.subspaces):
        coeffs = psi.amplitudes @ np.conj(sub)
        col, ndeg = _collapse(coeffs)
        n_degenerate += ndeg
        blocks.append(col[:, None])
    blocks.append(psi.amplitudes @ np.conj(part.remainder))
    out = np.hstack(blocks)
    return PredictiveState(amplitudes=out, degenerate_phases=n_degenerate)


def reduced_density(psi: BipartiteState) -> np.ndarray:
    """rho_A: partial trace of |psi><psi| over H_B."""
    a = psi.amplitudes
    return a @ a.conj().T


def von_neumann_entropy(rho: np.ndarray) -> float:
    """Entropy -tr(rho log2 rho) in bits."""
    rho = np.asarray(rho)
    if not np.max(np.abs(rho - rho.conj().T)) <= 1e-9:
        raise ConfigError("density matrix is not Hermitian")
    trace = np.trace(rho).real
    if not abs(trace - 1.0) <= 1e-9:
        raise ConfigError(f"density matrix trace {trace!r} is not 1")
    evals = np.linalg.eigvalsh(rho)
    if not evals.min() >= -1e-12:
        raise ConfigError(f"density matrix has negative eigenvalue {evals.min()!r}")
    evals = np.clip(evals, 0.0, 1.0)
    positive = evals[evals > 0]
    s_nats = float(-(positive * np.log(positive)).sum()) + 0.0
    return s_nats / np.log(2.0)


def worked_qubit_qutrit_example(amps=None) -> dict:
    """2 x 3 worked example with the first two exterior states equivalent.

    Returns the projector, primed coefficients, both reduced operators and
    both entropies for amplitudes (a1..a6) laid out row-major over
    {|1>_A, |2>_A} x {|1>_B, |2>_B, |3>_B}.  Non-normalized input is
    normalized (flagged in the result), after division by max |a| so that
    its norm neither overflows nor underflows.
    """
    if amps is None:
        amps = (0.5, 0.5, 0.0, 0.5, 0.0, 0.5)
    a = np.array(amps, dtype=np.complex128)
    if a.shape != (6,):
        raise ConfigError("need exactly six amplitudes a1..a6")
    if not np.isfinite(a).all():
        raise ConfigError("amplitudes must be finite")
    # real and imaginary parts divided as reals: a complex division by a subnormal scale overflows
    parts = a.view(np.float64)
    scale = float(np.abs(parts).max())
    if scale == 0:
        raise ConfigError("amplitudes are all zero")
    a = (parts / scale).view(np.complex128)
    norm = float(np.linalg.norm(a))
    renormalized = abs(scale * norm - 1.0) > 1e-9  # a float product: inf, not an error, on overflow
    psi = BipartiteState(amplitudes=(a / norm).reshape(2, 3))
    part = EquivalencePartition(3, [(0, 1)])
    primed = predictive_map(psi, part)
    rho_a = reduced_density(psi)
    rho_a_primed = reduced_density(primed)
    return {
        "projector": build_projector(part),
        "primed_coefficients": primed.amplitudes,
        "rho_a": rho_a,
        "rho_a_primed": rho_a_primed,
        "entropy_bits": von_neumann_entropy(rho_a),
        "complexity_bits": von_neumann_entropy(rho_a_primed),
        "degenerate_phases": primed.degenerate_phases,
        "renormalized": renormalized,
    }
