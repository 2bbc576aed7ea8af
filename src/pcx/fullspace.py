"""Dense full-Hilbert-space reference dynamics for small rings.

Brute-force 2^N evolution used to validate that the two-flip sector is
dynamically closed and that the sector propagator is exact.  Site n maps
to bit (N - n), so the all-up state is index 0 and a flipped (down) spin
is a set bit.  Capped at N <= 12.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .chain import ChainConfig, all_pairs, pair_index
from .errors import ConfigError

MAX_FULL_SITES = 12


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
    return evecs @ (np.exp(-1j * (evals - cfg.e0) * t) * coeffs)


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
