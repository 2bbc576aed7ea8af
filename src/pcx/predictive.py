"""Predictive-state machinery for finite bipartite systems.

Declared equivalence subspaces of the exterior factor are collapsed onto
single rays; surviving coefficients are renormalized so every equivalence
class keeps its total probability.  The entropy of the reduced operator
after this map is the predictive complexity of the interior factor.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import GeometryError, NormalizationError

ORTHO_TOL = 1e-10
DEGENERATE_PHASE_TOL = 1e-12


@dataclass(frozen=True)
class BipartiteState:
    """Normalized pure state on H_A (x) H_B, amplitudes indexed (a, b)."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        object.__setattr__(self, "amplitudes", amps)
        if amps.ndim != 2:
            raise ValueError("amplitudes must be a 2-D (dim_a, dim_b) array")
        norm = np.linalg.norm(amps)
        if not abs(norm - 1.0) <= 1e-9:
            raise NormalizationError(f"state norm {norm!r} is not 1")

    @property
    def dim_a(self) -> int:
        return self.amplitudes.shape[0]

    @property
    def dim_b(self) -> int:
        return self.amplitudes.shape[1]

    @classmethod
    def from_amplitudes(cls, amps) -> "BipartiteState":
        amps = np.asarray(amps, dtype=np.complex128)
        return cls(amps / np.linalg.norm(amps))


def _one_hot_columns(mat: np.ndarray) -> list[int] | None:
    """If every column of mat is exactly a basis vector, return their indices."""
    idx = []
    for col in mat.T:
        hits = np.nonzero(col)[0]
        if len(hits) != 1 or col[hits[0]] != 1.0:
            return None
        idx.append(int(hits[0]))
    return idx


def _orthonormal_complement(stacked: np.ndarray, dim_b: int) -> np.ndarray:
    """Deterministic orthonormal basis of the complement of span(stacked)."""
    if stacked.shape[1] == 0:
        return np.eye(dim_b, dtype=np.complex128)
    hot = _one_hot_columns(stacked)
    if hot is not None:
        rest = sorted(set(range(dim_b)) - set(hot))
        return np.eye(dim_b, dtype=np.complex128)[:, rest]
    u, _, _ = np.linalg.svd(stacked, full_matrices=True)
    comp = u[:, stacked.shape[1]:]
    # fix column phases: largest-magnitude entry made real positive
    out = comp.copy()
    for k in range(out.shape[1]):
        pivot = np.argmax(np.abs(out[:, k]))
        piv = out[pivot, k]
        if abs(piv) > 0:
            out[:, k] *= np.conj(piv) / abs(piv)
    return out


@dataclass(frozen=True)
class EquivalencePartition:
    """Mutually orthogonal equivalence subspaces of H_B plus the remainder.

    Each subspace is given by an orthonormal-column matrix (dim_b, n_s) with
    n_s >= 2.  The remainder basis (the inequivalent states) is derived
    deterministically; gamma vectors are the normalized in-class sums.
    """

    dim_b: int
    subspaces: tuple = ()
    gammas: np.ndarray = field(init=False, repr=False)
    remainder: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        subs = tuple(np.asarray(s, dtype=np.complex128) for s in self.subspaces)
        object.__setattr__(self, "subspaces", subs)
        for s in subs:
            if s.ndim != 2 or s.shape[0] != self.dim_b or s.shape[1] < 2:
                raise GeometryError("each subspace needs >= 2 orthonormal columns in H_B")
        if subs:
            stacked = np.hstack(subs)
        else:
            stacked = np.zeros((self.dim_b, 0), dtype=np.complex128)
        if stacked.shape[1] > self.dim_b:
            raise GeometryError("subspaces overfill H_B")
        gram = stacked.conj().T @ stacked
        if stacked.shape[1] and np.max(np.abs(gram - np.eye(stacked.shape[1]))) > ORTHO_TOL:
            raise GeometryError("subspace vectors are not mutually orthonormal")
        gammas = np.hstack(
            [s.sum(axis=1, keepdims=True) / np.sqrt(s.shape[1]) for s in subs]
        ) if subs else np.zeros((self.dim_b, 0), dtype=np.complex128)
        object.__setattr__(self, "gammas", gammas)
        object.__setattr__(self, "remainder", _orthonormal_complement(stacked, self.dim_b))

    @classmethod
    def from_index_groups(cls, dim_b: int, groups) -> "EquivalencePartition":
        """Partition whose subspaces are spanned by computational basis states."""
        eye = np.eye(dim_b, dtype=np.complex128)
        return cls(dim_b=dim_b, subspaces=tuple(eye[:, sorted(g)] for g in groups))

    @property
    def n_subspaces(self) -> int:
        return len(self.subspaces)

    @property
    def remainder_dim(self) -> int:
        return self.remainder.shape[1]

    @property
    def primed_dim(self) -> int:
        return self.n_subspaces + self.remainder_dim


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
        raise ValueError("state and partition disagree on dim_b")
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


def reduced_density(psi: BipartiteState, side: str = "a") -> np.ndarray:
    """Partial trace of |psi><psi| over the other factor."""
    a = psi.amplitudes
    if side == "a":
        return a @ a.conj().T
    if side == "b":
        return a.T @ a.conj()
    raise ValueError("side must be 'a' or 'b'")


def von_neumann_entropy(rho: np.ndarray, base: str = "bits") -> float:
    """Entropy -tr(rho log rho); log base 2 by default, 'nats' optional."""
    rho = np.asarray(rho)
    if not np.max(np.abs(rho - rho.conj().T)) <= 1e-9:
        raise NormalizationError("density matrix is not Hermitian")
    trace = np.trace(rho).real
    if not abs(trace - 1.0) <= 1e-9:
        raise NormalizationError(f"density matrix trace {trace!r} is not 1")
    evals = np.linalg.eigvalsh(rho)
    if not evals.min() >= -1e-12:
        raise NormalizationError(f"density matrix has negative eigenvalue {evals.min()!r}")
    evals = np.clip(evals, 0.0, 1.0)
    positive = evals[evals > 0]
    s_nats = float(-(positive * np.log(positive)).sum()) + 0.0
    if base == "nats":
        return s_nats
    if base == "bits":
        return s_nats / np.log(2.0)
    raise ValueError("base must be 'bits' or 'nats'")


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
        raise ValueError("need exactly six amplitudes a1..a6")
    if not np.isfinite(a).all():
        raise NormalizationError("amplitudes must be finite")
    # real and imaginary parts divided as reals: a complex division by a subnormal scale overflows
    parts = a.view(np.float64)
    scale = float(np.abs(parts).max())
    if scale == 0:
        raise NormalizationError("amplitudes are all zero")
    a = (parts / scale).view(np.complex128)
    norm = float(np.linalg.norm(a))
    renormalized = abs(scale * norm - 1.0) > 1e-9  # a float product: inf, not an error, on overflow
    psi = BipartiteState(amplitudes=(a / norm).reshape(2, 3))
    part = EquivalencePartition.from_index_groups(3, [(0, 1)])
    primed = predictive_map(psi, part)
    rho_a = reduced_density(psi, side="a")
    rho_a_primed = reduced_density(primed, side="a")
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
