"""Two-magnon sector of the periodic isotropic Heisenberg chain.

Pair-basis indexing, the sector Hamiltonian relative to the ferromagnetic
energy, its spectral decomposition, and the one propagator every engine
uses for exact time evolution.  All sector energies are stored relative
to the all-up reference energy -J*N/4 so evolution phases never involve
the extensive baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, isfinite

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True)
class ChainConfig:
    """Ring of N spin-1/2 sites with nearest-neighbour coupling J.

    Time is measured in units of hbar/J throughout.
    """

    N: int
    J: float = 1.0

    def __post_init__(self):
        if self.N < 4:
            raise ConfigError(f"chain needs at least 4 sites, got N={self.N}")
        if not isfinite(self.J) or self.J == 0:
            raise ConfigError(f"coupling J must be finite and nonzero, got J={self.J}")

    @property
    def dim(self) -> int:
        """Dimension of the two-flip sector, C(N, 2)."""
        return self.N * (self.N - 1) // 2

    @property
    def e0(self) -> float:
        """Energy of the state with no flips, -J*N/4."""
        return -self.J * self.N / 4.0


# Largest two-flip sector the dense engines build; each holds several
# dim x dim matrices, 128 MB apiece in float64 at this size.
MAX_SECTOR_DIM = 4000


def check_sector_size(cfg: ChainConfig):
    """Refuse a sector too large for the dense engines, before anything is built."""
    if cfg.dim > MAX_SECTOR_DIM:
        raise ConfigError(
            f"sector dimension {cfg.dim} (N={cfg.N}) exceeds the dense-eigensolver budget "
            f"of {MAX_SECTOR_DIM}"
        )


def circular_distance(a: int, b: int, N: int) -> int:
    d = abs(a - b) % N
    return min(d, N - d)


def pair_index(n1: int, n2: int, N: int) -> int:
    """Flat lexicographic index of the ordered pair (n1, n2), 1-based sites."""
    if not (1 <= n1 < n2 <= N):
        raise ConfigError(f"invalid pair ({n1}, {n2}) for N={N}: need 1 <= n1 < n2 <= N")
    return (n1 - 1) * N - n1 * (n1 - 1) // 2 + (n2 - n1 - 1)


def focus_indices(j: int, N: int) -> np.ndarray:
    """Flat indices of the N-1 pairs that contain site j, ordered by the other site."""
    return np.array([pair_index(min(j, n), max(j, n), N) for n in range(1, N + 1) if n != j])


def pair_unindex(flat: int, N: int) -> tuple[int, int]:
    """Inverse of pair_index."""
    if not (0 <= flat < comb(N, 2)):
        raise ConfigError(f"flat index {flat} out of range for N={N}")
    n1 = 1
    block = N - 1
    while flat >= block:
        flat -= block
        n1 += 1
        block -= 1
    return n1, n1 + 1 + flat


def all_pairs(N: int) -> tuple[np.ndarray, np.ndarray]:
    """Site arrays (n1, n2) for every pair, in flat-index order."""
    n1s = np.empty(comb(N, 2), dtype=np.int64)
    n2s = np.empty_like(n1s)
    k = 0
    for a in range(1, N + 1):
        for b in range(a + 1, N + 1):
            n1s[k] = a
            n2s[k] = b
            k += 1
    return n1s, n2s


def basis_state(cfg: ChainConfig, n1: int, n2: int) -> np.ndarray:
    """Unit vector |n1, n2> in the flat pair basis."""
    psi = np.zeros(cfg.dim, dtype=np.complex128)
    psi[pair_index(n1, n2, cfg.N)] = 1.0
    return psi


def pair_permutation(N: int, site_map) -> np.ndarray:
    """Pair-index permutation induced by a site permutation.

    site_map is any callable site -> site (1-based).  Returns perm with
    perm[pair_index(n1, n2)] = pair_index(sorted(site_map(n1), site_map(n2))).
    """
    n1s, n2s = all_pairs(N)
    perm = np.empty(len(n1s), dtype=np.int64)
    for k in range(len(n1s)):
        a, b = site_map(int(n1s[k])), site_map(int(n2s[k]))
        if a > b:
            a, b = b, a
        perm[k] = pair_index(a, b, N)
    return perm


def sector_hamiltonian(cfg: ChainConfig) -> np.ndarray:
    """Dense real-symmetric sector Hamiltonian, relative to e0.

    Diagonal: 2J for separated flips, J for circularly adjacent ones.
    Off-diagonal: -J/2 for every single-flip hop; hops onto the other
    flipped site are blocked.
    """
    N, J = cfg.N, cfg.J
    dim = cfg.dim
    H = np.zeros((dim, dim), dtype=np.float64)
    n1s, n2s = all_pairs(N)
    for p in range(dim):
        n1, n2 = int(n1s[p]), int(n2s[p])
        adjacent = circular_distance(n1, n2, N) == 1
        H[p, p] = J * (1.0 if adjacent else 2.0)
        occupied = {n1, n2}
        for site in (n1, n2):
            other = n2 if site == n1 else n1
            for step in (-1, 1):
                target = (site - 1 + step) % N + 1
                if target in occupied:
                    continue
                a, b = (target, other) if target < other else (other, target)
                q = pair_index(a, b, N)
                H[p, q] = -J / 2.0
    return H


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues (relative to e0) and orthonormal eigenvectors, real or complex."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @classmethod
    def from_hamiltonian(cls, H: np.ndarray) -> "SpectralDecomposition":
        evals, evecs = np.linalg.eigh(H)
        return cls(eigenvalues=evals, eigenvectors=evecs)


def state_trace_distance(u: np.ndarray, v: np.ndarray) -> float:
    """Trace distance between the pure states |u><u| and |v><v|.

    Equals sqrt(1 - |<u|v>|^2); computed from the component of v
    orthogonal to u, which stays accurate for nearly identical states.
    """
    overlap = np.vdot(u, v)
    residual = np.linalg.norm(v - overlap * u)
    return float(min(1.0, residual))


class Propagator:
    """Exact evolution b(t) = V e^{-iEt} V^dagger b(0) from an orthonormal eigenbasis.

    Engines only build cfg and spectral; both propagate through these methods.
    """

    cfg: ChainConfig
    spectral: SpectralDecomposition

    @property
    def dim(self) -> int:
        return self.cfg.dim

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
        """Amplitudes <m1,m2| e^{-iHt} |n1,n2> over the whole pair basis.

        Equals evolve(basis_state(cfg, n1, n2), t); V^dagger |n1,n2> is one
        conjugated row of V, so no matrix-vector product is spent on it.
        """
        if t == 0:
            return basis_state(self.cfg, n1, n2)
        V = self.spectral.eigenvectors
        w = V[pair_index(n1, n2, self.cfg.N)].conj()
        return V @ (np.exp(-1j * self.spectral.eigenvalues * t) * w)


class SpectralEngine(Propagator):
    """Evolution backend built on one dense symmetric diagonalization."""

    name = "spectral"

    def __init__(self, cfg: ChainConfig):
        check_sector_size(cfg)
        self.cfg = cfg
        self.hamiltonian = sector_hamiltonian(cfg)
        self.spectral = SpectralDecomposition.from_hamiltonian(self.hamiltonian)
