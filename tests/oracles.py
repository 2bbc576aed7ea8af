"""Small-N reference implementations that the tests check pcx against.

No pcx command reaches any of these; they trade speed for directness:
- brute-force 2^N evolution (N <= 12), which shows that the two-flip
  sector is dynamically closed and that the sector propagator is exact.
  Site n maps to bit (N - n), so the all-up state is index 0 and a flipped
  (down) spin is a set bit;
- `DenseEngine`, one dense eigh of the whole two-flip sector, the oracle
  for `SpectralEngine` and `BetheEngine`;
- `exterior_state_and_partition`, the paper's generic route to rho_A and
  rho'_A of one site, the oracle for the observable kernel;
- `equivalence_residual`, the dynamic test of predictive equivalence;
- trace distances of pure states and of density matrices, and pair
  permutations induced by site maps.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

import numpy as np

from pcx.chain import (
    ChainConfig,
    SpectralDecomposition,
    all_pairs,
    basis_state,
    pair_index,
    sector_hamiltonian,
)
from pcx.errors import ConfigError
from pcx.horizon import HorizonSpec, classify_pairs
from pcx.predictive import BipartiteState, EquivalencePartition, reduced_density

MAX_FULL_SITES = 12
# Largest two-flip sector DenseEngine builds (several dim x dim float64
# matrices, 128 MB apiece at this size).
MAX_SECTOR_DIM = 4000


def _check_size(N: int):
    if N > MAX_FULL_SITES:
        raise ConfigError(f"dense 2^N evolution capped at N={MAX_FULL_SITES}, got N={N}")


def full_hamiltonian(cfg: ChainConfig) -> np.ndarray:
    """Dense 2^N x 2^N Hamiltonian with absolute energies."""
    _check_size(cfg.N)
    N, J = cfg.N, cfg.J
    dim = 1 << N
    H = np.zeros((dim, dim), dtype=np.float64)
    masks = [1 << (N - n) for n in range(1, N + 1)]  # bit of site n
    for s in range(dim):
        diag = 0.0
        for n in range(N):
            m1, m2 = masks[n], masks[(n + 1) % N]
            b1, b2 = bool(s & m1), bool(s & m2)
            if b1 == b2:
                diag += 0.25
            else:
                diag -= 0.25
                H[s ^ m1 ^ m2, s] += 0.5
        H[s, s] += diag
    return -J * H


@lru_cache(maxsize=4)
def _full_eigh(N: int, J: float):
    H = full_hamiltonian(ChainConfig(N=N, J=J))
    return np.linalg.eigh(H)


def site_bit(n: int, N: int) -> int:
    return 1 << (N - n)


def sector_indices(cfg: ChainConfig) -> np.ndarray:
    """Full-space basis index of every pair state, in flat pair order."""
    n1s, n2s = all_pairs(cfg.N)
    return site_bit(n1s, cfg.N) | site_bit(n2s, cfg.N)


def full_evolve(cfg: ChainConfig, psi_full: np.ndarray, t: float) -> np.ndarray:
    """e^{-i(H - e0) t} on the full 2^N space."""
    _check_size(cfg.N)
    evals, evecs = _full_eigh(cfg.N, cfg.J)
    coeffs = evecs.T @ np.asarray(psi_full, dtype=np.complex128)
    return evecs @ (np.exp(-1j * (evals + cfg.J * cfg.N / 4.0) * t) * coeffs)


def full_space_oracle(cfg: ChainConfig, n1: int, n2: int, t: float) -> np.ndarray:
    """Evolve |n1,n2> in the full space and project onto the pair sector.

    Returns the raw projected amplitudes (not renormalized), so the caller
    can verify sector closure from the vector norm.  Phases match the
    sector propagator exactly because both evolve with H - e0.
    """
    _check_size(cfg.N)
    idx = sector_indices(cfg)
    psi0 = np.zeros(1 << cfg.N, dtype=np.complex128)
    psi0[idx[pair_index(n1, n2, cfg.N)]] = 1.0
    psi_t = full_evolve(cfg, psi0, t)
    return psi_t[idx]


def site_bipartition(psi_full: np.ndarray, j: int, N: int) -> np.ndarray:
    """Reshape a full-space vector into a (2, 2^{N-1}) matrix for site j.

    Row 0 is the site-j down (flipped) component, row 1 the up component;
    columns enumerate the remaining sites in their natural bit order.
    """
    tensor = np.asarray(psi_full, dtype=np.complex128).reshape([2] * N)
    moved = np.moveaxis(tensor, j - 1, 0).reshape(2, -1)
    return moved[::-1].copy()  # bit value 1 = down first


def joint_product_state(psi_site: np.ndarray, phi_rest: np.ndarray, j: int, N: int) -> np.ndarray:
    """Inverse of site_bipartition for a product state psi_site (x) phi_rest."""
    mat = np.outer(np.asarray(psi_site, dtype=np.complex128)[::-1], phi_rest)
    tensor = mat.reshape([2] + [2] * (N - 1))
    return np.moveaxis(tensor, 0, j - 1).reshape(-1)


def pair_permutation(N: int, site_map) -> np.ndarray:
    """Pair-index permutation induced by a site permutation.

    site_map is any callable site -> site (1-based).  Returns perm with
    perm[pair_index(n1, n2)] = pair_index(sorted(site_map(n1), site_map(n2))).
    """
    return np.array([pair_index(*sorted((site_map(int(a)), site_map(int(b)))), N)
                     for a, b in zip(*all_pairs(N))])


def state_trace_distance(u: np.ndarray, v: np.ndarray) -> float:
    """Trace distance between the pure states |u><u| and |v><v|.

    Equals sqrt(1 - |<u|v>|^2); computed from the component of v
    orthogonal to u, which stays accurate for nearly identical states.
    """
    overlap = np.vdot(u, v)
    residual = np.linalg.norm(v - overlap * u)
    return float(min(1.0, residual))


class DenseEngine:
    """Evolution b(t) = V e^{-iEt} V^dagger b(0) from one dense eigh of the whole sector.

    The small-N oracle for SpectralEngine and BetheEngine, bound by
    MAX_SECTOR_DIM; a larger sector is refused before it is built.
    """

    name = "dense"

    def __init__(self, cfg: ChainConfig):
        if cfg.dim > MAX_SECTOR_DIM:
            raise ConfigError(f"sector dimension {cfg.dim} (N={cfg.N}) exceeds the sector budget "
                              f"of {MAX_SECTOR_DIM}")
        self.cfg, self.dim = cfg, cfg.dim
        self.hamiltonian = sector_hamiltonian(cfg)
        self.spectral = SpectralDecomposition.from_hamiltonian(self.hamiltonian)

    def evolve(self, psi0: np.ndarray, t: float) -> np.ndarray:
        """e^{-iHt} psi0 in the sector."""
        psi0 = np.asarray(psi0, dtype=np.complex128)
        if psi0.shape != (self.dim,):
            raise ValueError(f"state shape {psi0.shape} does not match sector dimension {self.dim}")
        if t == 0:
            return psi0.copy()
        V = self.spectral.eigenvectors
        return V @ (np.exp(-1j * self.spectral.eigenvalues * t) * (V.conj().T @ psi0))

    def pair_amplitudes(self, n1: int, n2: int, t: float) -> np.ndarray:
        """Amplitudes <m1,m2| e^{-iHt} |n1,n2> over the whole pair basis."""
        return self.evolve(basis_state(self.cfg, n1, n2), t)


def exterior_state_and_partition(b: np.ndarray, spec: HorizonSpec):
    """Generic-pipeline view of the chain state for one focal site.

    Returns a BipartiteState on C^2 (x) H_B, where H_B enumerates
    [vacuum, one-flip exterior states, two-flip exterior states], and the
    horizon-induced EquivalencePartition of that H_B, whose classes come
    from classify_pairs.  This is the paper's route to rho'_A, against
    which the observable kernel is checked.  There rho_A is diagonal (a
    pair state cannot be in two magnon sectors of the exterior at once),
    and rho'_A keeps that diagonal but gains an off-diagonal of magnitude
    sqrt(m_out * m_focus), where m_out is the probability of both flips
    outside and m_focus that of one flip on j and the other outside.
    """
    N, j = spec.N, spec.j
    n1s, n2s = all_pairs(N)
    holds_j = (n1s == j) | (n2s == j)
    other = np.where(n1s == j, n2s, n1s)[holds_j]
    # a pair holding j is site j down and one exterior flip: slot 1 + its exterior rank;
    # any other pair is site j up and two exterior flips, kept in flat order after those
    slot = np.empty(len(n1s), dtype=np.int64)
    slot[holds_j] = other - (other > j)
    slot[~holds_j] = N + np.arange(comb(N - 1, 2))
    dim_b = N + comb(N - 1, 2)
    amps = np.zeros((2, dim_b), dtype=np.complex128)
    amps[np.where(holds_j, 0, 1), slot] = b
    cls = classify_pairs(spec)
    groups = [slot[np.concatenate([cls.focus_out, cls.type_i])]]
    groups += [slot[idx] for _, idx in cls.type_ii]
    # collapsing a one-member class is the identity map; leave it in the remainder
    groups = [g for g in groups if len(g) >= 2]
    state = BipartiteState(amplitudes=amps)
    part = EquivalencePartition(dim_b, groups)
    return state, part


def trace_distance(rho1: np.ndarray, rho2: np.ndarray) -> float:
    """(1/2) ||rho1 - rho2||_1 for Hermitian operators."""
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(rho1 - rho2))))


def equivalence_residual(phi1, phi2, psi, t: float, dynamics) -> float:
    """How far two exterior states are from predicting the same interior.

    Builds the products psi (x) phi_i, evolves both with the supplied
    dynamics callback (BipartiteState, t) -> BipartiteState, and returns
    the trace distance of the two interior reduced operators at time t.
    Zero means the pair is predictively equivalent at t for this psi.
    """
    psi = np.asarray(psi, dtype=np.complex128)
    rhos = []
    for phi in (phi1, phi2):
        amps = np.outer(psi, np.asarray(phi, dtype=np.complex128))
        state = BipartiteState(amps / np.linalg.norm(amps))
        rhos.append(reduced_density(dynamics(state, t)))
    return trace_distance(rhos[0], rhos[1])
