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
    momenta K/2 +- i v ("bound"), solved by complex Newton with a real
    close-pair fallback near the dissolution boundary.

For even N the momentum-pi cell is the singular limit v -> infinity of
the bound branch; it is represented on the residual-flat manifold
cos(u) cosh(v) = 1/2 with a large finite v, which reproduces the exact
alternating adjacent-pair eigenstate and its exact energy J.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, pi

import numpy as np

from .chain import (
    ChainConfig,
    Propagator,
    SpectralDecomposition,
    all_pairs,
    check_sector_size,
)
from .errors import DegenerateRootError, SolverError

NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 200
# Regularization depth for the singular momentum-pi cell: large enough that
# the truncated tail (~e^-v) is negligible, small enough that cos(u) cosh(v)
# keeps ~1e-8 relative accuracy in double precision.
SINGULAR_V = 17.5


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

    @property
    def momentum_class(self) -> int:
        return self.m1 + self.m2


@dataclass(frozen=True)
class BetheState:
    """Normalized position-basis wavefunction of a root."""

    root: BetheRoot
    amplitudes: np.ndarray
    norm_constant: float


def _phase_residual(k1, k2, theta) -> float:
    return abs(2 * _cot(theta / 2) - _cot(k1 / 2) + _cot(k2 / 2))


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


def _real_cell_root(m1: int, m2: int, N: int, lo: float, hi: float) -> float | None:
    """Safeguarded Newton for a real root of the cell function in (lo, hi)."""
    f_lo = _cell_function(lo, m1, m2, N).real
    f_hi = _cell_function(hi, m1, m2, N).real
    if not np.isfinite(f_lo) or not np.isfinite(f_hi) or f_lo * f_hi > 0:
        return None
    a, b, fa = lo, hi, f_lo
    theta = 0.5 * (a + b)
    for _ in range(NEWTON_MAX_ITER):
        f = _cell_function(theta, m1, m2, N).real
        if abs(f) < NEWTON_TOL:
            return theta
        if fa * f < 0:
            b = theta
        else:
            a, fa = theta, f
        step = f / _cell_derivative(theta, m1, m2, N).real
        candidate = theta - step
        if not (a < candidate < b):
            candidate = 0.5 * (a + b)
        theta = candidate
    f = _cell_function(theta, m1, m2, N).real
    return theta if abs(f) < 1e-9 else None


def _complex_cell_root(m1: int, m2: int, N: int, theta0: complex) -> complex | None:
    """Damped complex Newton on the cell function."""
    theta = np.complex128(theta0)
    f = _cell_function(theta, m1, m2, N)
    for _ in range(NEWTON_MAX_ITER):
        if abs(f) < NEWTON_TOL:
            return complex(theta)
        step = f / _cell_derivative(theta, m1, m2, N)
        scale = 1.0
        for _ in range(8):
            trial = theta - scale * step
            f_trial = _cell_function(trial, m1, m2, N)
            if abs(f_trial) < abs(f) or abs(f_trial) < NEWTON_TOL:
                theta, f = trial, f_trial
                break
            scale *= 0.5
        else:
            return None
    return complex(theta) if abs(f) < 1e-10 else None


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
    if k1.imag < -1e-12:  # normalize representation: Im k1 >= 0
        k1, k2, theta = k2, k1, -theta
        m1, m2 = m2, m1
    energy = dispersion(cfg, k1, k2)
    if abs(energy.imag) > 1e-8:
        raise SolverError(f"cell ({m1},{m2}): complex energy {energy!r}")
    kind = "bound" if abs(k1.imag) > 1e-6 else "real-pair"
    return BetheRoot(
        k1=complex(k1), k2=complex(k2), theta=complex(theta),
        energy=float(energy.real), kind=kind, m1=m1, m2=m2,
    )


def _singular_pi_root(cfg: ChainConfig) -> BetheRoot:
    """Momentum-pi bound cell for even N: v -> infinity limit, regularized.

    On the manifold cos(u) cosh(v) = 1/2 the dispersion gives exactly J and
    every residual invariant is satisfied to ~e^{-2v}; the wavefunction it
    generates is the alternating adjacent-pair eigenstate.
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
    has quantum numbers summing to mclass + N.
    """
    N = cfg.N
    if N % 2 == 0 and mclass == N // 2:
        return _singular_pi_root(cfg)
    sigma = mclass if mclass < N / 2 else mclass + N
    m1 = sigma // 2
    m2 = sigma - m1
    c = np.cos(pi * mclass / N)
    v0 = float(np.clip(-np.log(max(abs(c), 0.02)), 0.03, 3.2))
    re0 = pi * sigma - 2 * pi * m1  # = 0 or pi by parity of sigma
    candidates = []
    theta_c = _complex_cell_root(m1, m2, N, re0 + 1j * N * v0)
    if theta_c is not None and abs(theta_c.imag) > 1e-9:
        candidates.append(theta_c)
    if not candidates:
        for v_try in (0.3 * v0, 3.0 * v0, 0.01):
            theta_c = _complex_cell_root(m1, m2, N, re0 + 1j * N * v_try)
            if theta_c is not None and abs(theta_c.imag) > 1e-9:
                candidates.append(theta_c)
                break
    if not candidates:
        # dissolved bound state: real close pair
        if m1 == m2:
            theta_r = _real_cell_root(m1, m2, N, pi + 1e-6, 2 * pi - 1e-6)
        else:
            theta_r = _real_cell_root(m1, m2, N, 1e-6, pi - 1e-4)
        if theta_r is not None:
            candidates.append(complex(theta_r))
    if not candidates:
        raise SolverError(f"no solution found for momentum-class cell ({m1},{m2})")
    return _root_from_theta(cfg, candidates[0], m1, m2)


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
    if len(roots) != comb(N, 2):
        raise SolverError(f"expected {comb(N, 2)} roots, found {len(roots)}")
    return roots


def bethe_state(root: BetheRoot, cfg: ChainConfig) -> BetheState:
    """Normalized position-basis wavefunction of a root.

    Exponent magnitudes are rescaled by their maximum before
    exponentiation so deeply bound states do not overflow.
    """
    n1s, n2s = all_pairs(cfg.N)
    e1 = 1j * (root.k1 * n1s + root.k2 * n2s + root.theta / 2)
    e2 = 1j * (root.k1 * n2s + root.k2 * n1s - root.theta / 2)
    shift = max(float(np.max(e1.real)), float(np.max(e2.real)))
    raw = np.exp(e1 - shift) + np.exp(e2 - shift)
    norm = np.linalg.norm(raw)
    if norm < 1e-13 * np.sqrt(len(raw)):
        raise DegenerateRootError(f"cell ({root.m1},{root.m2}) gives a vanishing wavefunction")
    return BetheState(root=root, amplitudes=raw / norm, norm_constant=float(1.0 / norm))


class BetheEngine(Propagator):
    """Evolution backend built on the full set of Bethe eigenstates.

    The raw wavefunctions form the columns of A.  One eigh of A^dagger A
    gives its smallest singular value, which must stay clear of zero for
    the set to be complete, and the symmetric (Loewdin) orthonormalization
    A (A^dagger A)^{-1/2}, which removes the ~1e-7 non-unitarity the
    regularized momentum-pi state leaves in A.
    """

    name = "bethe"

    def __init__(self, cfg: ChainConfig):
        check_sector_size(cfg)
        self.cfg = cfg
        self.roots = enumerate_roots(cfg)
        A = np.column_stack([bethe_state(r, cfg).amplitudes for r in self.roots])
        w, U = np.linalg.eigh(A.conj().T @ A)
        smin = np.sqrt(max(w[0], 0.0))
        if not smin >= 1e-6:
            raise SolverError(f"Bethe basis is numerically incomplete (min singular value {smin:.3e})")
        self.spectral = SpectralDecomposition(
            eigenvalues=np.array([r.energy for r in self.roots]),
            eigenvectors=A @ (U * (1.0 / np.sqrt(w))) @ U.conj().T,
        )
