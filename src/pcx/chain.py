"""Two-magnon sector of the periodic isotropic Heisenberg chain.

Pair-basis indexing, the sector Hamiltonian relative to the ferromagnetic
energy, and exact time evolution.  All sector energies are stored
relative to the all-up reference energy -J*N/4 so evolution phases never
involve the extensive baseline.

Flat states list the C(N, 2) pairs n1 < n2 in lexicographic order.  The
default engine, `SpectralEngine`, also uses the (x, r) layout: a pair with
first flip x (0-based) and clockwise distance r = 1..N-1 to the second
flip sits at (x, r) and at (x + r mod N, N - r), with amplitude b/sqrt(2)
in each place.  A Fourier transform over x then splits H into one small
tridiagonal block per total momentum, reduced by the parity r -> N - r
before it is diagonalized.  Only the blocks k <= N/2 and their rows
r <= N/2 are stored; the rest follow from them by the parity and by the
mirror k -> N - k (see `SpectralEngine`).  `bethe.BetheEngine` fills the
same block stack from the Bethe roots and shares its propagation.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from math import inf, isfinite
from numbers import Real
from sys import float_info

import numpy as np

from .errors import ConfigError

# Largest eigenvector stack SpectralEngine and BetheEngine build,
# 8 (floor(N/2)+1) floor(N/2)^2 bytes; N = 511 is the largest ring within it.
MAX_BLOCK_BYTES = 128 * 2**20


def integer(value, what: str) -> int:
    """value as an int if it is a Python or numpy integer; otherwise a ConfigError naming it."""
    try:
        return operator.index(value)
    except TypeError:
        raise ConfigError(f"{what} must be an integer, got {value!r}") from None


@dataclass(frozen=True)
class ChainConfig:
    """Ring of N spin-1/2 sites with nearest-neighbour coupling J.

    J and every energy are given in one energy unit, and time in hbar per
    that unit; the dynamics depend on J t only.  N stays within the block
    budget MAX_BLOCK_BYTES, so every engine can be built for any config.
    """

    N: int
    J: float = 1.0

    def __post_init__(self):
        # stored as Python numbers: a numpy N can overflow the budget product below
        object.__setattr__(self, "N", integer(self.N, "N"))
        if not isinstance(self.J, Real):
            raise ConfigError(f"coupling J must be a real number, got J={self.J!r}")
        try:
            J = float(self.J)
        except OverflowError:  # a real past the double range, refused below as infinite
            J = inf if self.J > 0 else -inf
        object.__setattr__(self, "J", J)
        if self.N < 4:
            raise ConfigError(f"chain needs at least 4 sites, got N={self.N}")
        # 4|J| bounds the sector levels, so it must be a finite float too
        if self.J == 0 or not isfinite(4 * abs(self.J)):
            raise ConfigError(f"coupling J must be nonzero with 4|J| finite, got J={self.J}")
        # each level rounds within eps |J|, and the checks scale with |J|, only for a normal |J|
        if abs(self.J) < float_info.min:
            raise ConfigError(f"coupling J must be nonzero with 4|J| finite and |J| a normal double, "
                              f"at least {float_info.min!r}, got J={self.J}")
        nbytes = 8 * (self.N // 2 + 1) * (self.N // 2) ** 2
        if nbytes > MAX_BLOCK_BYTES:
            raise ConfigError(f"momentum blocks for N={self.N} need {nbytes / 2**20:.1f} MiB of "
                              f"eigenvectors, over the budget of {MAX_BLOCK_BYTES / 2**20:.0f} MiB")

    @property
    def dim(self) -> int:
        """Dimension of the two-flip sector, C(N, 2)."""
        return self.N * (self.N - 1) // 2


# Bytes that one batch of same-parity blocks may take on all N - 1 rows,
# 8 (N - 1) per level; both engine builds go batch by batch, which keeps
# their transient arrays to a few times this.  A block at N = 511 takes
# 0.99 MiB, so there every block is a batch of its own.
BATCH_BYTES = 2**20


def circular_distance(a: int, b: int, N: int) -> int:
    d = abs(a - b) % N
    return min(d, N - d)


def pair_index(n1, n2, N: int):
    """Flat lexicographic index of the ordered pair (n1, n2), 1-based sites; elementwise on arrays."""
    if not np.all((1 <= n1) & (n1 < n2) & (n2 <= N)):
        raise ConfigError(f"invalid pair ({n1}, {n2}) for N={N}: need 1 <= n1 < n2 <= N")
    return (n1 - 1) * N - n1 * (n1 - 1) // 2 + (n2 - n1 - 1)


def all_pairs(N: int) -> tuple[np.ndarray, np.ndarray]:
    """Site arrays (n1, n2) for every pair, in flat-index order."""
    n1s, n2s = np.triu_indices(N, 1)
    return n1s + 1, n2s + 1


def basis_state(cfg: ChainConfig, n1: int, n2: int) -> np.ndarray:
    """Unit vector |n1, n2> in the flat pair basis."""
    psi = np.zeros(cfg.dim, dtype=np.complex128)
    psi[pair_index(n1, n2, cfg.N)] = 1.0
    return psi


# sector_hamiltonian and SpectralDecomposition build no engine: they are kept for
# perfbench/tracing.py, which patches both by name, and for the tests' dense oracle.
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


def block_sizes(N: int) -> np.ndarray:
    """Levels per total momentum k = 0..N-1: (N-1)//2, plus |N/2> for even N and even k."""
    return (N - 1) // 2 + ((N % 2 == 0) & (np.arange(N) % 2 == 0))


def block_batches(N: int):
    """The blocks k <= N/2, even k then odd k, in runs of one size within BATCH_BYTES.

    Yields (ks, size), size the number of levels of each block ks[i].
    """
    for parity in (0, 1):
        size = int(block_sizes(N)[parity])
        step = max(1, BATCH_BYTES // (8 * size * (N - 1)))
        ks = np.arange(parity, N // 2 + 1, 2)
        for start in range(0, len(ks), step):
            yield ks[start:start + step], size


def block_hopping(ks, N: int) -> np.ndarray:
    """Hopping of the momentum blocks ks in units of J, t_k/J = -cos(pi k/N)."""
    return -np.cos(np.pi * ks / N)


def _reduced_blocks(cfg: ChainConfig):
    """The parity-reduced blocks k <= N/2, one `block_batches` batch at a time.

    Yields (ks, H), where H[i] is block ks[i] in the basis
    (|m> + s|N-m>)/sqrt(2), m < N/2, then |N/2> when N is even and
    s = (-1)^k = +1 (see `SpectralEngine`).
    """
    N, J = cfg.N, cfg.J
    n_pairs = (N - 1) // 2  # the r = m, N - m pairs with m < N/2
    for ks, size in block_batches(N):
        i = np.arange(size)
        t = J * block_hopping(ks, N)[:, None]
        H = np.zeros((len(ks), size, size))
        H[:, i, i] = 2.0 * J
        H[:, 0, 0] = J
        H[:, i[:-1], i[1:]] = H[:, i[1:], i[:-1]] = t
        if size > n_pairs:  # the last pair state meets |N/2> from both sides
            H[:, -1, -2] = H[:, -2, -1] = np.sqrt(2.0) * t[:, 0]
        elif N % 2:  # the last pair, r = (N-1)/2 and (N+1)/2, are neighbours
            H[:, -1, -1] += (-1.0) ** ks[0] * t[:, 0]
        yield ks, H


def block_levels(cfg: ChainConfig) -> np.ndarray:
    """The C(N, 2) levels (relative to e0) by k = 0..N-1, ascending in a block; no eigenvectors."""
    N = cfg.N
    energies = np.zeros((N // 2 + 1, N // 2))
    for ks, H in _reduced_blocks(cfg):
        energies[ks, :H.shape[-1]] = np.linalg.eigvalsh(H)
    k = np.arange(N)
    return energies[np.minimum(k, N - k)][np.arange(N // 2) < block_sizes(N)[:, None]]


def _real_matmul(V: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Batched V @ w for a real stack of matrices V and a complex stack of vectors w."""
    parts = w.view(np.float64).reshape(*w.shape, 2)  # real and imaginary parts
    return np.ascontiguousarray(V @ parts).view(np.complex128)[..., 0]


class SpectralEngine:
    """Evolution backend built on one small eigenproblem per total momentum.

    On the (x, r) layout, the transform phi_K(r) = sum_x e^{-iK(x + r/2)}
    psi(x, r) / sqrt(N), K = 2 pi k/N, gives one real symmetric
    tridiagonal block per k acting on r = 1..N-1: diagonal 2J (J at r = 1
    and r = N-1), hopping t_k = -J cos(K/2).  Only the states of parity
    s = (-1)^k, phi(r) = s phi(N - r), belong to the sector.  Each block is
    first reduced to the basis (|m> + s|N-m>)/sqrt(2), m < N/2, plus |N/2>
    when N is even and s = +1, and only then diagonalized: for even N the
    K = pi block has t = 0 and degenerate levels, which an eigh of the
    unreduced block would mix across parities.  The reduced blocks hold the
    C(N, 2) levels between them (`block_sizes`).

    Half the blocks and half the rows are copies, so only a quarter is
    diagonalized and stored, the blocks k <= N/2 on their rows r <= N/2, as
    one real (floor(N/2)+1, floor(N/2), floor(N/2)) stack `vectors` with
    zero columns where a block is smaller.  The rest follow by two rules:
    - parity: row N - r of block k is (-1)^k times row r;
    - mirror: t_{N-k} = -t_k, so (-1)^r phi(r) is a state of block N - k
      with the level of phi in block k, and block N - k of an evolved pair
      at distance d is (-1)^{r+d} times block k, up to the ratio of the two
      blocks' centre phases.
    A time step is one batched contraction with the stack, the mirror fill
    of the blocks k > N/2, one inverse FFT over k on the rows r <= N/2, and a
    gather into the flat pair order that reads a pair at distance r > N/2
    from its other cell (x + r, N - r).

    The engine keeps only what a step reads: the stack and its energies
    (relative to e0).  `block_levels` gives the levels without the stack.
    """

    name = "spectral"

    def __init__(self, cfg: ChainConfig):
        half = cfg.N // 2
        n_pairs = (cfg.N - 1) // 2
        vectors = np.zeros((half + 1, half, half))
        energies = np.zeros((half + 1, half))
        for ks, H in _reduced_blocks(cfg):
            size = H.shape[-1]
            w, U = np.linalg.eigh(H)
            energies[ks, :size] = w
            vectors[ks, :n_pairs, :size] = U[:, :n_pairs] / np.sqrt(2.0)
            if size > n_pairs:  # |N/2>, the middle row
                vectors[ks, half - 1, :size] = U[:, -1]
        self._set_blocks(cfg, vectors, energies)

    def _set_blocks(self, cfg: ChainConfig, vectors: np.ndarray, energies: np.ndarray):
        """Keep a quarter stack and its energies, zero past block_sizes(N)[k], and each pair's cell."""
        N, half = cfg.N, cfg.N // 2
        self.cfg, self.dim = cfg, cfg.dim
        self.vectors, self._energies = vectors, energies
        k = np.arange(N)
        self._stored = np.minimum(k, N - k)  # the stored block each momentum reads
        n1s, n2s = all_pairs(N)
        r = n2s - n1s
        # flat (x, r) cell of each pair on the rows r <= N/2; (x + r, N - r) above
        self._cell = np.where(r <= half, (n1s - 1) * half + r, (n2s - 1) * half + N - r) - 1
        self._pair = None

    def _pair_tables(self, n1: int, n2: int) -> tuple[np.ndarray, np.ndarray]:
        """Row d = n2 - n1 of each stored block, and the phase of each (k, r <= N/2) cell.

        The phase is 2 e^{-iK(n1 - 1 + d/2)} e^{iKr/2}, the initial pair's
        centre times the layout's half phase, times the mirror sign
        (-1)^{r+d} for k > N/2.  Both are kept for the last pair asked.
        """
        if self._pair != (n1, n2):
            N, half = self.cfg.N, self.cfg.N // 2
            pair_index(n1, n2, N)
            d = n2 - n1
            if d <= half:
                row = self.vectors[:, d - 1]
            else:
                row = self.vectors[:, N - d - 1] * (-1.0) ** np.arange(half + 1)[:, None]
            k, r = np.arange(N)[:, None], np.arange(1, half + 1)
            # the argument in units of pi/N, reduced exactly first
            turns = k * (r - d - 2 * (n1 - 1)) + N * (k > half) * (r + d)
            phase = 2.0 * np.exp(1j * np.pi * (turns % (2 * N)) / N)
            self._pair, self._tables = (n1, n2), (row, phase)
        return self._tables

    def pair_amplitudes(self, n1: int, n2: int, t: float) -> np.ndarray:
        """Amplitudes <m1,m2| e^{-iHt} |n1,n2> over the whole pair basis.

        The initial state projects onto row r = n2 - n1 of each block, so no
        transform of it is spent; the evolved blocks G go back to the pairs
        (x, r) as 2 ifft_k(e^{iKr/2} G)[x, r].
        """
        n1, n2 = integer(n1, "flip site"), integer(n2, "flip site")
        if t == 0:
            return basis_state(self.cfg, n1, n2)
        row, phase = self._pair_tables(n1, n2)
        G = _real_matmul(self.vectors, row * np.exp(-1j * self._energies * t))
        # not `phase * G[...]`: numpy may run that on the temporary as G[...] *= phase, whose bits differ
        return np.fft.ifft(np.multiply(phase, G[self._stored]), axis=0).ravel()[self._cell]
