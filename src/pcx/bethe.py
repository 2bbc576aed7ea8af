"""Two-magnon Bethe ansatz for the periodic chain.

Eigenstates are wavefunctions a(n1,n2) = e^{i(k1 n1 + k2 n2 + theta/2)}
+ e^{i(k1 n2 + k2 n1 - theta/2)} whose momenta satisfy the quantization
conditions N k1 = 2 pi m1 + theta, N k2 = 2 pi m2 - theta together with
the scattering relation 2 cot(theta/2) = cot(k1/2) - cot(k2/2).

Quantum-number cells fall into three families:
  * (0, m): one momentum zero, theta = 0, closed form ("k-zero");
  * m2 - m1 >= 2 with both >= 1: real momentum pairs, solved by a
    bracketed Newton iteration on theta in (0, pi) ("real-pair");
  * one cell per total momentum class 2..N-2: mostly complex-conjugate
    momenta K/2 +- i v ("bound"), whose depth v solves one real equation
    by bisection; where that equation has no root the cell is a real
    close pair, solved like the real pairs.

For even N the momentum-pi cell is the singular limit v -> infinity of
the bound branch: its root record holds finite labels and the exact
energy J, and its wavefunction is the closed-form alternating adjacent-pair
state, so the Bethe basis is orthonormal as built.

A root of cell (m1, m2) has total momentum K = 2 pi (m1 + m2)/N; `BetheEngine`
puts each root's state into that momentum block of `chain.SpectralEngine`'s stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import cos, exp, expm1, log, pi

import numpy as np

from .chain import ChainConfig, SpectralEngine, all_pairs, block_sizes, check_block_budget
from .errors import DegenerateRootError, SolverError

NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 200
# Newton steps taken past NEWTON_TOL while |F| still falls
NEWTON_FINISH_STEPS = 3
# Depth v of the finite (k1, k2, theta) labels recorded for the singular
# momentum-pi cell; its wavefunction is the closed form, independent of v.
SINGULAR_V = 17.5
ORTHONORMALITY_TOL = 1e-10


def _cot(z):
    return np.cos(z) / np.sin(z)


def solve_theta(k1, k2):
    """Scattering phase on the principal branch for given momenta.

    The zero-momentum family is conventionally assigned theta = 0 (the
    relation degenerates there); for k1 = k2 the relation gives theta = pi.
    """
    if abs(complex(k1)) < 1e-14 or abs(complex(k2)) < 1e-14:
        return 0.0 + 0.0j
    z = (_cot(np.complex128(k1) / 2) - _cot(np.complex128(k2) / 2)) / 2.0
    if abs(z) < 1e-14:
        return np.complex128(pi)
    return 2.0 * np.arctan(1.0 / z)


def dispersion(cfg: ChainConfig, k1, k2) -> complex:
    """Energy relative to e0, J (2 - cos k1 - cos k2)."""
    return cfg.J * (2.0 - np.cos(np.complex128(k1)) - np.cos(np.complex128(k2)))


@dataclass(frozen=True)
class BetheRoot:
    """One solution of the quantization conditions."""

    k1: complex
    k2: complex
    theta: complex
    energy: float
    kind: str  # "k-zero" | "real-pair" | "bound"
    m1: int
    m2: int


@dataclass(frozen=True)
class BetheState:
    """Normalized position-basis wavefunction of a root."""

    root: BetheRoot
    amplitudes: np.ndarray
    norm_constant: float


def _cell_function(theta, m1: int, m2: int, N: int):
    """F(theta) whose roots are valid cells; k_i are affine in theta."""
    k1 = (2 * pi * m1 + theta) / N
    k2 = (2 * pi * m2 - theta) / N
    return 2 * _cot(theta / 2) - _cot(k1 / 2) + _cot(k2 / 2)


def _cell_derivative(theta, m1: int, m2: int, N: int):
    k1 = (2 * pi * m1 + theta) / N
    k2 = (2 * pi * m2 - theta) / N
    return (
        -1.0 / np.sin(theta / 2) ** 2
        + 1.0 / (2 * N * np.sin(k1 / 2) ** 2)
        + 1.0 / (2 * N * np.sin(k2 / 2) ** 2)
    )


def _newton_finish(theta, f, m1: int, m2: int, N: int):
    """Newton steps past |F| < NEWTON_TOL while |F| still falls, which takes E to rounding."""
    for _ in range(NEWTON_FINISH_STEPS):
        trial = theta - f / _cell_derivative(theta, m1, m2, N)
        f_trial = _cell_function(trial, m1, m2, N)
        if not abs(f_trial) < abs(f):
            break
        theta, f = trial, f_trial
    return theta


def _real_cell_root(m1: int, m2: int, N: int, lo: float, hi: float) -> float | None:
    """Safeguarded Newton for a real root of the cell function in (lo, hi)."""
    f_lo = _cell_function(lo, m1, m2, N)
    f_hi = _cell_function(hi, m1, m2, N)
    if not np.isfinite(f_lo) or not np.isfinite(f_hi) or f_lo * f_hi > 0:
        return None
    a, b, fa = lo, hi, f_lo
    theta = 0.5 * (a + b)
    for _ in range(NEWTON_MAX_ITER):
        f = _cell_function(theta, m1, m2, N)
        if abs(f) < NEWTON_TOL:
            return _newton_finish(theta, f, m1, m2, N)
        if fa * f < 0:
            b = theta
        else:
            a, fa = theta, f
        step = f / _cell_derivative(theta, m1, m2, N)
        candidate = theta - step
        if not (a < candidate < b):
            candidate = 0.5 * (a + b)
        theta = candidate
    f = _cell_function(theta, m1, m2, N)
    return theta if abs(f) < 1e-9 else None


def _kzero_root(cfg: ChainConfig, m: int) -> BetheRoot:
    k2 = 2 * pi * m / cfg.N
    return BetheRoot(
        k1=0.0 + 0.0j,
        k2=complex(k2),
        theta=0.0 + 0.0j,
        energy=float(dispersion(cfg, 0.0, k2).real),
        kind="k-zero",
        m1=0,
        m2=m,
    )


def _root_from_theta(cfg: ChainConfig, theta: complex, m1: int, m2: int) -> BetheRoot:
    N = cfg.N
    k1 = (2 * pi * m1 + theta) / N
    k2 = (2 * pi * m2 - theta) / N
    energy = dispersion(cfg, k1, k2)
    if abs(energy.imag) > 1e-8:
        raise SolverError(f"cell ({m1},{m2}): complex energy {energy!r}")
    kind = "bound" if abs(k1.imag) > 1e-6 else "real-pair"
    return BetheRoot(
        k1=complex(k1), k2=complex(k2), theta=complex(theta),
        energy=float(energy.real), kind=kind, m1=m1, m2=m2,
    )


def _singular_pi_root(cfg: ChainConfig) -> BetheRoot:
    """Momentum-pi bound cell for even N, the v -> infinity limit.

    Labels at v = SINGULAR_V on the manifold cos(u) cosh(v) = 1/2, where the
    dispersion gives exactly J; bethe_state builds the state in closed form.
    """
    N = cfg.N
    M = N // 2
    m1 = M // 2
    m2 = M - m1
    v = SINGULAR_V
    u = float(np.arccos(1.0 / (2.0 * np.cosh(v))))
    k1 = u + 1j * v
    k2 = u - 1j * v
    theta = N * k1 - 2 * pi * m1  # quantization branch; phase relation holds to ~e^{-2v}
    return BetheRoot(
        k1=k1, k2=k2, theta=theta,
        energy=cfg.J,  # exact on the manifold cos(u) cosh(v) = 1/2
        kind="bound", m1=m1, m2=m2,
    )


def _bound_cell_root(cfg: ChainConfig, mclass: int) -> BetheRoot:
    """Solve the one extra cell of a total-momentum class (2..N-2).

    For classes above N/2 the momenta sit near 2 pi, so the relevant cell
    has quantum numbers summing to sigma = mclass + N; then c = cos(pi
    sigma/N) > 0 for every class but the even-N momentum-pi one, which is
    the closed form.  A bound pair k1,2 = pi sigma/N +- i v has theta =
    pi (m2 - m1) + i N v, and the scattering relation becomes one real
    equation for the depth v:
      c = cosh((N/2 - 1) v) / cosh(N v/2)  for m1 = m2,
      c = sinh((N/2 - 1) v) / sinh(N v/2)  for m2 = m1 + 1.
    Both right-hand sides fall strictly in v, from 1 and 1 - 2/N at v = 0
    to below c at v = ln(2/c), so there is at most one root and bisection
    on that bracket needs no seed; it stops when the midpoint meets an
    endpoint.  Only the sinh form can miss (c >= 1 - 2/N): the bound state
    has then dissolved into a real close pair.
    """
    N = cfg.N
    if N % 2 == 0 and mclass == N // 2:
        return _singular_pi_root(cfg)
    sigma = mclass if mclass < N / 2 else mclass + N
    m1 = sigma // 2
    m2 = sigma - m1
    c = cos(pi * sigma / N)
    if m1 != m2 and c >= 1 - 2 / N:
        theta = _real_cell_root(m1, m2, N, 1e-6, pi - 1e-4)
        if theta is None:
            raise SolverError(f"no solution found for momentum-class cell ({m1},{m2})")
        return _root_from_theta(cfg, complex(theta), m1, m2)

    def depth_rhs(v):  # the right-hand side in powers of e^{-v}, which cannot overflow
        if m1 == m2:
            return exp(-v) * (1 + exp(-(N - 2) * v)) / (1 + exp(-N * v))
        return exp(-v) * expm1(-(N - 2) * v) / expm1(-N * v)

    lo, hi = 0.0, log(2 / c)
    while lo < (v := 0.5 * (lo + hi)) < hi:
        if depth_rhs(v) > c:
            lo = v
        else:
            hi = v
    return _root_from_theta(cfg, complex(pi * (m2 - m1), N * v), m1, m2)


def enumerate_roots(cfg: ChainConfig) -> list[BetheRoot]:
    """All C(N,2) two-magnon roots, sorted by quantum numbers."""
    N = cfg.N
    roots = [_kzero_root(cfg, m) for m in range(N)]
    for m1 in range(1, N - 2):
        for m2 in range(m1 + 2, N):
            theta = _real_cell_root(m1, m2, N, 1e-9, pi - 1e-12)
            if theta is None:
                raise SolverError(f"real-pair cell ({m1},{m2}) did not converge")
            roots.append(_root_from_theta(cfg, theta, m1, m2))
    for mclass in range(2, N - 1):
        roots.append(_bound_cell_root(cfg, mclass))
    roots.sort(key=lambda r: (r.m1, r.m2))
    return roots


def _wavefunction(root: BetheRoot, n1s, n2s, N: int) -> tuple[np.ndarray, float]:
    """Unit amplitudes of a root on the pairs (n1s, n2s), and their norm before scaling.

    Exponents are rescaled by their maximum so deep bound states do not
    overflow.  The even-N momentum-pi cell (the only bound root with
    m1 + m2 = N/2) is the closed form (-1)^n on (n, n+1), (-1)^N on (1, N).
    """
    if root.kind == "bound" and 2 * (root.m1 + root.m2) == N:
        raw = np.zeros(len(n1s), dtype=np.complex128)
        adjacent = n2s - n1s == 1
        raw[adjacent] = (-1.0) ** n1s[adjacent]
        raw[n2s - n1s == N - 1] = (-1.0) ** N
    else:
        e1 = 1j * (root.k1 * n1s + root.k2 * n2s + root.theta / 2)
        e2 = 1j * (root.k1 * n2s + root.k2 * n1s - root.theta / 2)
        shift = max(float(np.max(e1.real)), float(np.max(e2.real)))
        raw = np.exp(e1 - shift) + np.exp(e2 - shift)
    norm = np.linalg.norm(raw)
    if norm < 1e-13 * np.sqrt(len(raw)):
        raise DegenerateRootError(f"cell ({root.m1},{root.m2}) gives a vanishing wavefunction")
    return raw / norm, float(norm)


def bethe_state(root: BetheRoot, cfg: ChainConfig) -> BetheState:
    """Normalized position-basis wavefunction of a root, over the flat pair basis."""
    amplitudes, norm = _wavefunction(root, *all_pairs(cfg.N), cfg.N)
    return BetheState(root=root, amplitudes=amplitudes, norm_constant=1.0 / norm)


def block_vector(root: BetheRoot, cfg: ChainConfig) -> tuple[int, np.ndarray]:
    """Momentum index k and real unit block vector phi(r), r = 1..N-1, of a root.

    The state is e^{iKx} a(1, 1 + r) on the pair (x + 1, x + 1 + r), so phi
    is a(1, 1 + r) in SpectralEngine's gauge e^{-i pi k r/N}, k = (m1 + m2)
    mod N (m1 + m2 itself would differ by (-1)^r once it reaches N).  There
    phi is real up to one global phase, which is removed; SolverError if an
    imaginary part over 1e-10 is left.
    """
    N = cfg.N
    k = (root.m1 + root.m2) % N
    r = np.arange(1, N)
    amplitudes, _ = _wavefunction(root, np.ones_like(r), 1 + r, N)
    phi = amplitudes * np.exp(-1j * np.pi * (k * r % (2 * N)) / N)
    peak = phi[np.argmax(np.abs(phi))]
    phi *= abs(peak) / peak
    if not np.max(np.abs(phi.imag)) <= 1e-10:
        raise SolverError(f"cell ({root.m1},{root.m2}): block vector is not real "
                          f"(max|Im| = {np.max(np.abs(phi.imag)):.3e})")
    return k, phi.real


class BetheEngine(SpectralEngine):
    """Evolution backend built on the full set of Bethe eigenstates.

    Each root's `block_vector` and energy fill one level of its momentum
    block in SpectralEngine's stack, and evolution is SpectralEngine's.  The
    stack is used as built, never repaired: each block must hold one root
    per level and satisfy max|V_k^T V_k - I| <= ORTHONORMALITY_TOL, so a
    missing or repeated state is refused.  eigenvalues and momenta are
    grouped by k as in SpectralEngine, in root order within a block.
    """

    name = "bethe"

    def __init__(self, cfg: ChainConfig):
        check_block_budget(cfg)
        N, width = cfg.N, cfg.N // 2
        self.roots = enumerate_roots(cfg)
        sizes, filled = block_sizes(N), np.zeros(N, dtype=np.int64)
        vectors, energies = np.zeros((N, N - 1, width)), np.zeros((N, width))
        for root in self.roots:
            k, phi = block_vector(root, cfg)
            if filled[k] < sizes[k]:
                vectors[k, :, filled[k]], energies[k, filled[k]] = phi, root.energy
            filled[k] += 1
        if not np.array_equal(filled, sizes):
            k = int(np.argmax(filled != sizes))
            raise SolverError(f"Bethe basis is incomplete: {filled[k]} roots for the "
                              f"{sizes[k]} levels of momentum block k={k}")
        gram, level = vectors.transpose(0, 2, 1) @ vectors, np.arange(width)
        gram[:, level, level] -= level < sizes[:, None]
        error = np.max(np.abs(gram))
        if not error <= ORTHONORMALITY_TOL:
            raise SolverError(f"Bethe basis is numerically incomplete (max|V_k^T V_k - I| = {error:.3e})")
        self._set_blocks(cfg, vectors, energies)
