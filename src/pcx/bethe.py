"""Two-magnon Bethe ansatz for the periodic chain.

Eigenstates are wavefunctions a(n1,n2) = e^{i(k1 n1 + k2 n2 + theta/2)}
+ e^{i(k1 n2 + k2 n1 - theta/2)} whose momenta satisfy the quantization
conditions N k1 = 2 pi m1 + theta, N k2 = 2 pi m2 - theta together with
the scattering relation 2 cot(theta/2) = cot(k1/2) - cot(k2/2).

Quantum-number cells fall into three families, each solved as arrays
over all of its cells at once:
  * (0, m): one momentum zero, theta = 0, closed form ("k-zero");
  * m2 - m1 >= 2 with both >= 1: real momentum pairs, solved by one masked
    array Newton over all cells, bracketed on theta in (0, pi)
    ("real-pair");
  * one cell per total momentum class 2..N-2: mostly complex-conjugate
    momenta K/2 +- i v ("bound"), whose depths v solve one real equation
    each, by one array bisection over the cells; where that equation has
    no root the cell is a real close pair, solved by the same array Newton.

`enumerate_roots` returns the roots as one record array over ROOT_DTYPE.
For even N the momentum-pi cell is the singular limit v -> infinity of
the bound branch: its row holds finite labels and the exact
energy J, and its wavefunction is the closed-form alternating adjacent-pair
state, so the Bethe basis is orthonormal as built.

A root of cell (m1, m2) has total momentum K = 2 pi (m1 + m2)/N; `BetheEngine`
puts the states of each momentum class k <= N/2, built as one `block_vectors`
batch, into that momentum block of `chain.SpectralEngine`'s quarter stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import pi

import numpy as np

from .chain import ChainConfig, SpectralEngine, all_pairs, block_sizes
from .errors import DegenerateRootError, SolverError

NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 200
# Newton steps taken past NEWTON_TOL while |F| still falls
NEWTON_FINISH_STEPS = 3
# Depth v of the finite (k1, k2, theta) labels recorded for the singular
# momentum-pi cell; its wavefunction is the closed form, independent of v.
SINGULAR_V = 17.5
ORTHONORMALITY_TOL = 1e-10
# largest difference between the sorted levels of Bethe classes k and N - k, in units of |J|
CLASS_MIRROR_TOL = 1e-12
# one row per root; kind is "k-zero" | "real-pair" | "bound"
ROOT_DTYPE = np.dtype([("k1", np.complex128), ("k2", np.complex128), ("theta", np.complex128),
                       ("energy", np.float64), ("kind", "U9"), ("m1", np.int64), ("m2", np.int64)])


def _cot(z):
    return np.cos(z) / np.sin(z)


def dispersion(cfg: ChainConfig, k1, k2) -> complex:
    """Energy relative to e0, J (2 - cos k1 - cos k2)."""
    return cfg.J * (2.0 - np.cos(np.complex128(k1)) - np.cos(np.complex128(k2)))


@dataclass(frozen=True)
class BetheState:
    """Normalized position-basis wavefunction of a root."""

    root: np.record  # one row of an `enumerate_roots` table
    amplitudes: np.ndarray
    norm_constant: float


def _cell_function(theta, m1, m2, N: int):
    """F(theta) whose roots are valid cells; k_i are affine in theta.  Elementwise on arrays."""
    k1 = (2 * pi * m1 + theta) / N
    k2 = (2 * pi * m2 - theta) / N
    return 2 * _cot(theta / 2) - _cot(k1 / 2) + _cot(k2 / 2)


def _cell_derivative(theta, m1, m2, N: int):
    k1 = (2 * pi * m1 + theta) / N
    k2 = (2 * pi * m2 - theta) / N
    return (
        -1.0 / np.sin(theta / 2) ** 2
        + 1.0 / (2 * N * np.sin(k1 / 2) ** 2)
        + 1.0 / (2 * N * np.sin(k2 / 2) ** 2)
    )


def _real_cell_roots(m1: np.ndarray, m2: np.ndarray, N: int, lo: float, hi: float) -> np.ndarray:
    """Real roots theta in (lo, hi) of the cell functions of the cells (m1, m2); NaN where none.

    One safeguarded Newton iteration over all cells at once, masked per
    cell: each cell keeps its own sign-change bracket, and a step that
    leaves it is replaced by bisection.  A cell stops at |F| < NEWTON_TOL,
    then takes up to NEWTON_FINISH_STEPS more Newton steps, each only while
    |F| still falls, which takes E to rounding.  A cell has no root if F is
    not finite at both ends or keeps its sign, or if |F| is still 1e-9 or
    more after NEWTON_MAX_ITER steps.
    """
    f_lo, f_hi = _cell_function(lo, m1, m2, N), _cell_function(hi, m1, m2, N)
    bracketed = np.isfinite(f_lo) & np.isfinite(f_hi) & ~(f_lo * f_hi > 0)
    a, b, fa = np.full(m1.shape, lo), np.full(m1.shape, hi), f_lo
    theta, f = np.full(m1.shape, 0.5 * (lo + hi)), np.zeros(m1.shape)
    cells = np.flatnonzero(bracketed)  # the cells still iterating
    for _ in range(NEWTON_MAX_ITER):
        if not cells.size:
            break
        t = theta[cells]
        f[cells] = ft = _cell_function(t, m1[cells], m2[cells], N)
        going = ~(np.abs(ft) < NEWTON_TOL)
        cells, t, ft = cells[going], t[going], ft[going]
        left = fa[cells] * ft < 0  # the root lies between a and theta
        b[cells] = np.where(left, t, b[cells])
        a[cells] = np.where(left, a[cells], t)
        fa[cells] = np.where(left, fa[cells], ft)
        step = t - ft / _cell_derivative(t, m1[cells], m2[cells], N)
        inside = (a[cells] < step) & (step < b[cells])
        theta[cells] = np.where(inside, step, 0.5 * (a[cells] + b[cells]))
    converged = bracketed.copy()
    converged[cells] = False
    if cells.size:  # out of iterations: kept only if |F| < 1e-9, with no finish steps
        f_end = _cell_function(theta[cells], m1[cells], m2[cells], N)
        theta[cells[~(np.abs(f_end) < 1e-9)]] = np.nan
    theta[~bracketed] = np.nan
    cells = np.flatnonzero(converged)
    ft = f[cells]
    for _ in range(NEWTON_FINISH_STEPS):
        t = theta[cells]
        trial = t - ft / _cell_derivative(t, m1[cells], m2[cells], N)
        f_trial = _cell_function(trial, m1[cells], m2[cells], N)
        falls = np.abs(f_trial) < np.abs(ft)
        cells, ft = cells[falls], f_trial[falls]
        theta[cells] = trial[falls]
    return theta


def _refuse_unsolved(theta: np.ndarray, m1: np.ndarray, m2: np.ndarray, message: str):
    """SolverError naming the first cell (m1, m2) whose theta is NaN."""
    if np.isnan(theta).any():
        i = int(np.argmax(np.isnan(theta)))
        raise SolverError(message.format(m1[i], m2[i]))


def _bound_depths(c: np.ndarray, cosh_form: np.ndarray, N: int) -> np.ndarray:
    """Depths v of bound cells: c = cosh((N/2 - 1) v)/cosh(N v/2), or the sinh form.

    One bisection over all cells on [0, ln(2/c)]; a cell stops when its
    midpoint meets an endpoint (see `enumerate_roots`).
    """
    lo, hi = np.zeros(c.shape), np.log(2 / c)
    v = 0.5 * (lo + hi)
    cells = np.flatnonzero((lo < v) & (v < hi))
    while cells.size:
        w = v[cells]
        # the right-hand sides in powers of e^{-v}, which cannot overflow
        rhs = np.where(cosh_form[cells],
                       np.exp(-w) * (1 + np.exp(-(N - 2) * w)) / (1 + np.exp(-N * w)),
                       np.exp(-w) * np.expm1(-(N - 2) * w) / np.expm1(-N * w))
        above = rhs > c[cells]
        lo[cells] = np.where(above, w, lo[cells])
        hi[cells] = np.where(above, hi[cells], w)
        v[cells] = w = 0.5 * (lo[cells] + hi[cells])
        cells = cells[(lo[cells] < w) & (w < hi[cells])]
    return v


def _singular_pi_cell(cfg: ChainConfig) -> tuple:
    """Momentum-pi bound cell for even N, the v -> infinity limit.

    One-element columns in ROOT_DTYPE field order.  Labels at v = SINGULAR_V
    on the manifold cos(u) cosh(v) = 1/2, where the dispersion gives exactly
    J; its state is the closed form (see `_wavefunction` and `block_vectors`).
    """
    N = cfg.N
    M = N // 2
    m1 = M // 2
    m2 = M - m1
    v = SINGULAR_V
    u = float(np.arccos(1.0 / (2.0 * np.cosh(v))))
    k1 = u + 1j * v
    theta = N * k1 - 2 * pi * m1  # quantization branch; phase relation holds to ~e^{-2v}
    # energy: exact on the manifold cos(u) cosh(v) = 1/2
    return ([k1], [u - 1j * v], [theta], [cfg.J], ["bound"], [m1], [m2])


def enumerate_roots(cfg: ChainConfig) -> np.recarray:
    """All C(N,2) two-magnon roots, one ROOT_DTYPE row each, sorted by (m1, m2).

    Each family is solved as arrays.
    The bound cells, one per total-momentum class 2..N-2: for classes above
    N/2 the momenta sit near 2 pi, so the cell has quantum numbers summing to
    sigma = mclass + N; then c = cos(pi sigma/N) > 0 for every class but the
    even-N momentum-pi one, which is the closed form.  A bound pair k1,2 =
    pi sigma/N +- i v has theta = pi (m2 - m1) + i N v, and the scattering
    relation becomes one real equation for the depth v:
      c = cosh((N/2 - 1) v) / cosh(N v/2)  for m1 = m2,
      c = sinh((N/2 - 1) v) / sinh(N v/2)  for m2 = m1 + 1.
    Both right-hand sides fall strictly in v, from 1 and 1 - 2/N at v = 0
    to below c at v = ln(2/c), so there is at most one root and bisection
    on that bracket needs no seed.  Only the sinh form can miss
    (c >= 1 - 2/N): the bound state has then dissolved into a real close
    pair, solved like the real pairs on (1e-6, pi - 1e-4).
    """
    N = cfg.N
    m1, m2 = np.triu_indices(N, 2)
    m1, m2 = m1[m1 >= 1], m2[m1 >= 1]  # real pairs: m2 - m1 >= 2, both >= 1
    theta = _real_cell_roots(m1, m2, N, 1e-9, pi - 1e-12)
    _refuse_unsolved(theta, m1, m2, "real-pair cell ({},{}) did not converge")

    mclass = np.arange(2, N - 1)
    sigma = mclass[2 * mclass != N]
    sigma = np.where(sigma < N / 2, sigma, sigma + N)
    b1 = sigma // 2
    b2 = sigma - b1
    c = np.cos(pi * sigma / N)
    close = (b1 != b2) & (c >= 1 - 2 / N)
    theta_close = _real_cell_roots(b1[close], b2[close], N, 1e-6, pi - 1e-4)
    _refuse_unsolved(theta_close, b1[close], b2[close],
                     "no solution found for momentum-class cell ({},{})")
    bound = ~close
    v = _bound_depths(c[bound], b1[bound] == b2[bound], N)

    m1 = np.concatenate((m1, b1[close], b1[bound]))
    m2 = np.concatenate((m2, b2[close], b2[bound]))
    theta = np.concatenate((theta, theta_close, pi * (b2 - b1)[bound] + 1j * (N * v)))
    # k_i = (2 pi m_i +- theta)/N with each part divided by N: numpy's complex
    # division would multiply by 1/N instead and round differently
    k1 = (2 * pi * m1 + theta.real) / N + 1j * (theta.imag / N)
    k2 = (2 * pi * m2 - theta.real) / N - 1j * (theta.imag / N)
    energy = dispersion(cfg, k1, k2)
    if np.any(np.abs(energy.imag) > 1e-8):
        i = int(np.argmax(np.abs(energy.imag) > 1e-8))
        raise SolverError(f"cell ({m1[i]},{m2[i]}): complex energy {energy[i]!r}")
    kind = np.where(np.abs(k1.imag) > 1e-6, "bound", "real-pair")

    k_zero = 2 * pi * np.arange(N) / N
    columns = [
        # + 0.0: the (0, 0) energy is J * 0.0, which is -0.0 for J < 0
        (np.zeros(N), k_zero, np.zeros(N), dispersion(cfg, 0.0, k_zero).real + 0.0,
         np.full(N, "k-zero"), np.zeros(N, dtype=int), np.arange(N)),
        (k1, k2, theta, energy.real, kind, m1, m2),
    ]
    if N % 2 == 0:
        columns.append(_singular_pi_cell(cfg))
    roots = np.rec.fromarrays([np.concatenate(col) for col in zip(*columns)], dtype=ROOT_DTYPE)
    return roots[np.lexsort((roots.m2, roots.m1))]


def _wavefunction(root: np.record, n1s, n2s, N: int) -> tuple[np.ndarray, float]:
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


def bethe_state(root: np.record, cfg: ChainConfig) -> BetheState:
    """Normalized position-basis wavefunction of a root, over the flat pair basis."""
    amplitudes, norm = _wavefunction(root, *all_pairs(cfg.N), cfg.N)
    return BetheState(root=root, amplitudes=amplitudes, norm_constant=1.0 / norm)


def block_vectors(roots: np.recarray, cfg: ChainConfig) -> np.ndarray:
    """Real unit block vectors phi(r), r = 1..N-1, of a batch of root rows, one row per root.

    The state of a root is e^{iKx} a(1, 1 + r) on the pair (x + 1, x + 1 + r),
    and a(1, 1 + r) = 2 e^{iK} e^{iPr} cos(q r + theta/2) with P = (k1 + k2)/2
    and q = (k2 - k1)/2.  phi is a(1, 1 + r) in SpectralEngine's gauge
    e^{-i pi k r/N} of block k = (m1 + m2) mod N, where e^{iPr} leaves
    (-1)^{jr}, j = (m1 + m2) // N, when the momenta add up to
    2 pi (m1 + m2)/N; a root whose momenta miss that by more than
    1e-10/(N - 1) per site would leave a phase that varies with r, and is
    refused (SolverError, "not real").  Real labels give a real cosine.
    Complex labels (bound roots) have cos z split into e^{iz} and e^{-iz},
    each scaled by e^{-max|Im z|} so deep bound states do not overflow, and
    the global phase removed; SolverError if an imaginary part over 1e-10
    is left.  The even-N momentum-pi cell is the closed form
    (|1> + (-1)^{N/2} |N-1>)/sqrt(2).  DegenerateRootError if a wavefunction
    vanishes.  A row's overall sign is arbitrary.
    """
    N, r = cfg.N, np.arange(1, cfg.N)
    k1, k2, theta, m1, m2 = roots.k1, roots.k2, roots.theta, roots.m1, roots.m2
    singular = (roots.kind == "bound") & (2 * (m1 + m2) == N)
    cplx = ~((k1.imag == 0) & (k2.imag == 0) & (theta.imag == 0) | singular)
    q, j = (k2 - k1) / 2, (m1 + m2) // N
    # (-1)^{jr} cos(q r + theta/2) = cos((q - pi j) r + theta/2)
    phi = np.multiply.outer(q.real - pi * j, r)
    phi += theta.real[:, None] / 2
    phi = 2 * np.cos(phi, out=phi)
    phi[singular] = 0.0
    phi[singular, 0], phi[singular, -1] = 1.0, (-1.0) ** (N // 2)
    z = np.multiply.outer(q[cplx], r) + theta[cplx, None] / 2
    scale = np.max(np.abs(z.imag), axis=1, keepdims=True)
    waves = (np.exp(1j * z - scale) + np.exp(-1j * z - scale)) * (-1.0) ** np.outer(j[cplx], r)
    norm = np.linalg.norm(phi, axis=1)
    norm[cplx] = np.linalg.norm(waves, axis=1)
    if not np.all(norm >= 1e-13 * np.sqrt(N - 1)):
        i = int(np.argmax(~(norm >= 1e-13 * np.sqrt(N - 1))))
        raise DegenerateRootError(f"cell ({m1[i]},{m2[i]}) gives a vanishing wavefunction")
    drift = np.where(singular, 0.0, np.abs((k1 + k2) / 2 - pi * (m1 + m2) / N))
    if not np.all(drift * (N - 1) <= 1e-10):
        i = int(np.argmax(~(drift * (N - 1) <= 1e-10)))
        raise SolverError(f"cell ({m1[i]},{m2[i]}): block vector is not real (its momenta "
                          f"miss 2 pi (m1 + m2)/N by {2 * drift[i]:.3e})")
    waves /= norm[cplx, None]
    peak = waves[np.arange(len(waves)), np.argmax(np.abs(waves), axis=1)]
    waves *= (np.abs(peak) / peak)[:, None]
    leak = np.max(np.abs(waves.imag), axis=1, initial=0.0)
    if not np.all(leak <= 1e-10):
        i = int(np.argmax(~(leak <= 1e-10)))
        raise SolverError(f"cell ({m1[cplx][i]},{m2[cplx][i]}): block vector is not real "
                          f"(max|Im| = {leak[i]:.3e})")
    phi /= norm[:, None]
    phi[cplx] = waves.real
    return phi


class BetheEngine(SpectralEngine):
    """Evolution backend built on the full set of Bethe eigenstates.

    Every root is solved, and the quarter stack of SpectralEngine is filled
    class by class: the roots of class (m1 + m2) mod N = k <= N/2, in root
    order, give the levels of momentum block k through one `block_vectors`
    call, of which the rows r <= N/2 are kept; evolution is SpectralEngine's,
    with its two mirror rules.  The stack is used as built, never repaired:
    each class must hold one root per level, each stored block must satisfy
    max|V_k^T V_k - I| <= ORTHONORMALITY_TOL on all N - 1 rows, and a class
    k > N/2, which builds no vectors, must hold the levels of class N - k to
    CLASS_MIRROR_TOL |J|; so a missing, repeated or misplaced state is refused.
    Besides the propagation state it keeps only `roots`, the ROOT_DTYPE table
    that `spectrum` writes and checks against `chain.block_levels`.
    """

    name = "bethe"

    def __init__(self, cfg: ChainConfig):
        N, half = cfg.N, cfg.N // 2
        self.roots = enumerate_roots(cfg)
        sizes = block_sizes(N)
        classes = (self.roots.m1 + self.roots.m2) % N
        counts = np.bincount(classes, minlength=N)
        if not np.array_equal(counts, sizes):
            k = int(np.argmax(counts != sizes))
            raise SolverError(f"Bethe basis is incomplete: {counts[k]} roots for the "
                              f"{sizes[k]} levels of momentum block k={k}")
        order = np.argsort(classes, kind="stable")
        members = np.split(order, np.cumsum(sizes)[:-1])
        for k in range(half + 1, N):  # no vectors above N/2; the levels must mirror class N - k
            error = np.max(np.abs(np.sort(self.roots.energy[members[k]])
                                  - np.sort(self.roots.energy[members[N - k]])))
            if not error <= CLASS_MIRROR_TOL * abs(cfg.J):
                raise SolverError(f"momentum classes k={k} and {N - k} hold different levels "
                                  f"(max difference {error:.3e})")
        vectors, energies = np.zeros((half + 1, half, half)), np.zeros((half + 1, half))
        for k in range(half + 1):
            batch = self.roots[members[k]]
            phi = block_vectors(batch, cfg)
            gram = phi @ phi.T
            gram[np.diag_indices(len(batch))] -= 1.0
            error = np.max(np.abs(gram))
            if not error <= ORTHONORMALITY_TOL:
                raise SolverError(f"Bethe basis is numerically incomplete in momentum block k={k} "
                                  f"(max|V_k^T V_k - I| = {error:.3e})")
            vectors[k, :, :len(batch)] = phi[:, :half].T
            energies[k, :len(batch)] = batch.energy
        self._set_blocks(cfg, vectors, energies)
