"""Two-magnon Bethe ansatz for the periodic chain.

Eigenstates are wavefunctions a(n1,n2) = e^{i(k1 n1 + k2 n2 + theta/2)}
+ e^{i(k1 n2 + k2 n1 - theta/2)} whose momenta satisfy the quantization
conditions N k1 = 2 pi m1 + theta, N k2 = 2 pi m2 - theta together with
the scattering relation 2 cot(theta/2) = cot(k1/2) - cot(k2/2).

Quantum-number cells fall into three families, each solved as arrays
over all of its cells at once:
  * (0, m): one momentum zero, theta = 0, closed form ("k-zero");
  * m2 - m1 >= 2 with both >= 1: real momentum pairs, bracketed on theta
    in (0, pi) ("real-pair");
  * one cell per total momentum class 2..N-2: mostly complex-conjugate
    momenta K/2 +- i v ("bound"), whose depths v solve one real equation
    each; where that equation has no root the cell is a real close pair.
One masked, safeguarded array Newton, each cell on its own bracket, solves
the real and close pairs in one pass and the bound depths in another.  Each
cell starts next to its root: theta from the free-magnon momenta (theta = 0
inside k_i), a depth v at -log c, the deep-bound limit of its equation.

`enumerate_roots` returns the roots as one record array over ROOT_DTYPE.
For even N the momentum-pi cell is the singular limit v -> infinity of the
bound branch: its row holds finite labels and the exact energy J, and its
state is the closed-form alternating adjacent-pair state.

A root of cell (m1, m2) has total momentum K = 2 pi (m1 + m2)/N.  One pass,
`checked_blocks`, checks a root table class by class and yields the block
vectors of the classes k <= N/2 batch by batch: `BetheEngine` stores them
in `chain.SpectralEngine`'s quarter stack, `spectrum` keeps only figures.
"""

from __future__ import annotations

from math import pi

import numpy as np

from .chain import ChainConfig, SpectralEngine, all_pairs, block_batches, block_hopping, block_sizes
from .errors import SolverError

NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 200
# Newton steps taken past NEWTON_TOL while |F| still falls
NEWTON_FINISH_STEPS = 3
# Depth v of the finite (k1, k2, theta) labels recorded for the singular
# momentum-pi cell; its wavefunction is the closed form, independent of v.
SINGULAR_V = 17.5
# largest max|V_k^T V_k - I| of a class's block vectors, and largest eigen-residual of one, in |J|
ORTHONORMALITY_TOL = 1e-10
# largest difference between the sorted levels of Bethe classes k and N - k, in units of |J|
CLASS_MIRROR_TOL = 1e-12
# one row per root; kind is "k-zero" | "real-pair" | "bound"
ROOT_DTYPE = np.dtype([("k1", np.complex128), ("k2", np.complex128), ("theta", np.complex128),
                       ("energy", np.float64), ("kind", "U9"), ("m1", np.int64), ("m2", np.int64)])


def _cot(z):
    return 1 / np.tan(z)


def dispersion(cfg: ChainConfig, k1, k2) -> complex:
    """Energy relative to e0, J (2 - cos k1 - cos k2)."""
    return cfg.J * (2.0 - np.cos(np.complex128(k1)) - np.cos(np.complex128(k2)))


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


def _cell_start(m1, m2, N: int):
    """Free-magnon start of the theta pass: theta = 0 inside k_i, so k_i = 2 pi m_i/N.

    The scattering relation then gives 2 cot(theta/2) = cot(pi m1/N) - cot(pi m2/N),
    which lies in (0, pi) for 0 < m1 < m2 < N.
    """
    return 2 * np.arctan2(2, _cot(pi * m1 / N) - _cot(pi * m2 / N))


def _depth_function(v, log_c, cosh_form, N: int):
    """log rhs(v) - log c of bound depths v (see `enumerate_roots`).  Elementwise on arrays.

    In powers of e^{-v}, which cannot overflow; the sinh form is 0/0 at v = 0.
    """
    return np.where(cosh_form,
                    np.log1p(np.exp(-(N - 2) * v)) - np.log1p(np.exp(-N * v)),
                    np.log(-np.expm1(-(N - 2) * v)) - np.log(-np.expm1(-N * v))) - v - log_c


def _depth_derivative(v, log_c, cosh_form, N: int):
    a, b = (N / 2 - 1) * v, N / 2 * v
    return np.where(cosh_form, (N / 2 - 1) * np.tanh(a) - N / 2 * np.tanh(b),
                    (N / 2 - 1) / np.tanh(a) - N / 2 / np.tanh(b))


def _cell_roots(function, derivative, params: tuple, N: int, lo, hi, start) -> np.ndarray:
    """Roots x in (lo, hi) of function(x, *params, N), one per cell of the arrays `params`; NaN where none.

    One safeguarded Newton iteration over all cells at once, masked per
    cell: each cell starts at its `start` where that lies inside (lo, hi),
    at the midpoint otherwise, keeps its own sign-change bracket, and a step
    that leaves it is replaced by bisection.  A cell stops at |F| < NEWTON_TOL,
    then takes up to NEWTON_FINISH_STEPS more Newton steps, each only while
    |F| still falls, which takes E to rounding.  A cell has no root if F is
    not finite at both ends or keeps its sign, or if |F| is still 1e-9 or
    more after NEWTON_MAX_ITER steps.
    """
    shape = params[0].shape
    f_lo, f_hi = function(lo, *params, N), function(hi, *params, N)
    bracketed = np.isfinite(f_lo) & np.isfinite(f_hi) & ~(f_lo * f_hi > 0)
    a, b, fa = np.full(shape, lo), np.full(shape, hi), f_lo
    start = np.broadcast_to(start, shape)
    x = np.where((lo < start) & (start < hi), start, 0.5 * (lo + hi))
    f = np.zeros(shape)
    cells = np.flatnonzero(bracketed)  # the cells still iterating
    for _ in range(NEWTON_MAX_ITER):
        if not cells.size:
            break
        t = x[cells]
        args = [p[cells] for p in params]
        f[cells] = ft = function(t, *args, N)
        going = ~(np.abs(ft) < NEWTON_TOL)
        cells, t, ft = cells[going], t[going], ft[going]
        left = fa[cells] * ft < 0  # the root lies between a and x
        b[cells] = np.where(left, t, b[cells])
        a[cells] = np.where(left, a[cells], t)
        fa[cells] = np.where(left, fa[cells], ft)
        step = t - ft / derivative(t, *[p[going] for p in args], N)
        inside = (a[cells] < step) & (step < b[cells])
        x[cells] = np.where(inside, step, 0.5 * (a[cells] + b[cells]))
    converged = bracketed.copy()
    converged[cells] = False
    if cells.size:  # out of iterations: kept only if |F| < 1e-9, with no finish steps
        f_end = function(x[cells], *[p[cells] for p in params], N)
        x[cells[~(np.abs(f_end) < 1e-9)]] = np.nan
    x[~bracketed] = np.nan
    cells = np.flatnonzero(converged)
    ft = f[cells]
    for _ in range(NEWTON_FINISH_STEPS):
        t, args = x[cells], [p[cells] for p in params]
        trial = t - ft / derivative(t, *args, N)
        f_trial = function(trial, *args, N)
        falls = np.abs(f_trial) < np.abs(ft)
        cells, ft = cells[falls], f_trial[falls]
        x[cells] = trial[falls]
    return x


def _refuse_unsolved(theta: np.ndarray, m1: np.ndarray, m2: np.ndarray, message: str):
    """SolverError naming the first cell (m1, m2) whose theta is NaN."""
    if np.isnan(theta).any():
        i = int(np.argmax(np.isnan(theta)))
        raise SolverError(message.format(m1[i], m2[i]))


def _singular_pi_cell(cfg: ChainConfig) -> tuple:
    """Momentum-pi bound cell for even N, the v -> infinity limit.

    One-element columns in ROOT_DTYPE field order.  Labels at v = SINGULAR_V
    on the manifold cos(u) cosh(v) = 1/2, where the dispersion gives exactly
    J; its state is the closed form (see `bethe_state` and `block_vectors`).
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
    to below c at v = ln(2/c), so there is at most one root of
    log rhs(v) - log c on the bracket (1e-300, ln(2/c)).  Only the sinh form
    can miss (c >= 1 - 2/N): the bound state has then dissolved into a real
    close pair, solved in the real pairs' Newton pass on (1e-6, pi - 1e-4).
    The theta pass starts at `_cell_start`, the depth pass at v = -log c,
    where c = e^{-v} of the deep-bound limit; both lie inside their brackets.
    An unsolved cell is refused by name, real pairs first.  A bound cell's
    energy is J (2 - 2 c cosh v), from c and its depth; the dispersion of
    its complex labels would lose digits to cosines near momentum pi.
    """
    N = cfg.N
    m1, m2 = np.triu_indices(N, 2)
    m1, m2 = m1[m1 >= 1], m2[m1 >= 1]  # real pairs: m2 - m1 >= 2, both >= 1
    mclass = np.arange(2, N - 1)
    mclass = mclass[2 * mclass != N]
    sigma = np.where(mclass < N / 2, mclass, mclass + N)
    b1 = sigma // 2
    b2 = sigma - b1
    # cos(pi sigma/N) as a sine, to an ulp where the cosine's argument is near pi/2
    c = np.sin(pi * np.abs(N - 2 * mclass) / (2 * N))
    close = (b1 != b2) & (c >= 1 - 2 / N)
    # one Newton over the real pairs on (1e-9, pi - 1e-12), then the close pairs on (1e-6, pi - 1e-4)
    n_real = len(m1)
    is_close = np.arange(n_real + np.count_nonzero(close)) >= n_real
    m1, m2 = np.concatenate((m1, b1[close])), np.concatenate((m2, b2[close]))
    theta = _cell_roots(_cell_function, _cell_derivative, (m1, m2), N,
                        np.where(is_close, 1e-6, 1e-9), np.where(is_close, pi - 1e-4, pi - 1e-12),
                        _cell_start(m1, m2, N))
    _refuse_unsolved(theta[:n_real], m1, m2, "real-pair cell ({},{}) did not converge")
    bound = ~close
    log_c = np.log(c[bound])
    v = _cell_roots(_depth_function, _depth_derivative, (log_c, (b1 == b2)[bound]), N,
                    1e-300, np.log(2 / c[bound]), -log_c)

    m1, m2 = np.concatenate((m1, b1[bound])), np.concatenate((m2, b2[bound]))
    n_theta = len(theta)
    theta = np.concatenate((theta, pi * (b2 - b1)[bound] + 1j * (N * v)))
    _refuse_unsolved(theta[n_real:], m1[n_real:], m2[n_real:],
                     "no solution found for momentum-class cell ({},{})")
    # k_i = (2 pi m_i +- theta)/N with each part divided by N: numpy's complex
    # division would multiply by 1/N instead and round differently
    k1 = (2 * pi * m1 + theta.real) / N + 1j * (theta.imag / N)
    k2 = (2 * pi * m2 - theta.real) / N - 1j * (theta.imag / N)
    # the depth-solved rows from c and v: cos k1 + cos k2 = 2 c cosh v
    energy = np.concatenate((dispersion(cfg, k1[:n_theta], k2[:n_theta]).real,
                             cfg.J * (2.0 - 2.0 * c[bound] * np.cosh(v))))
    kind = np.where(np.abs(k1.imag) > 1e-6, "bound", "real-pair")

    k_zero = 2 * pi * np.arange(N) / N
    columns = [
        # + 0.0: the (0, 0) energy is J * 0.0, which is -0.0 for J < 0
        (np.zeros(N), k_zero, np.zeros(N), dispersion(cfg, 0.0, k_zero).real + 0.0,
         np.full(N, "k-zero"), np.zeros(N, dtype=int), np.arange(N)),
        (k1, k2, theta, energy, kind, m1, m2),
    ]
    if N % 2 == 0:
        columns.append(_singular_pi_cell(cfg))
    roots = np.rec.fromarrays([np.concatenate(col) for col in zip(*columns)], dtype=ROOT_DTYPE)
    return roots[np.lexsort((roots.m2, roots.m1))]


def bethe_state(root: np.record, cfg: ChainConfig) -> np.ndarray:
    """Unit position-basis amplitudes of a root, over the flat pair basis.

    Exponents are rescaled by their maximum so deep bound states do not
    overflow.  The even-N momentum-pi cell (the only bound root with
    m1 + m2 = N/2) is the closed form (-1)^n on (n, n+1), (-1)^N on (1, N).
    """
    N = cfg.N
    n1s, n2s = all_pairs(N)
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
        raise SolverError(f"cell ({root.m1},{root.m2}) gives a vanishing wavefunction")
    return raw / norm


def block_vectors(roots: np.recarray, cfg: ChainConfig) -> np.ndarray:
    """Real unit block vectors phi(r), r = 1..N-1, of a batch of root rows, one row per root.

    phi is a(1, 1 + r) = 2 e^{iK} e^{iPr} cos(q r + theta/2), P = (k1 + k2)/2,
    q = (k2 - k1)/2, in the gauge e^{-i pi k r/N} of block k = (m1 + m2) mod N,
    which leaves (-1)^{jr}, j = (m1 + m2) // N, of e^{iPr}.  A bound row of
    depth v = Im theta / N is (e^{-v r} + s e^{-v (N - r)}) (-1)^{jr}, s = +1
    for m1 = m2 and -1 for m2 = m1 + 1, which cannot overflow; the even-N
    momentum-pi cell is (|1> + (-1)^{N/2} |N-1>)/sqrt(2).  Built from the
    labels alone (`checked_blocks` checks the rows); SolverError if
    a wavefunction vanishes.  A row's sign is arbitrary.
    """
    N, r = cfg.N, np.arange(1, cfg.N)
    m1, m2, theta = roots.m1, roots.m2, roots.theta
    singular = (roots.kind == "bound") & (2 * (m1 + m2) == N)
    bound = (theta.imag != 0) & ~singular
    j = (m1 + m2) // N
    # (-1)^{jr} cos(q r + theta/2) = cos((q - pi j) r + theta/2)
    phi = np.multiply.outer((roots.k2.real - roots.k1.real) / 2 - pi * j, r)
    phi += theta.real[:, None] / 2
    np.cos(phi, out=phi)
    v = theta.imag[bound, None] / N
    s = np.where(m1[bound] == m2[bound], 1.0, -1.0)[:, None]
    phi[bound] = (np.exp(-v * r) + s * np.exp(-v * (N - r))) * (-1.0) ** np.outer(j[bound], r)
    phi[singular] = 0.0
    phi[singular, 0], phi[singular, -1] = 1.0, (-1.0) ** (N // 2)
    norm = np.linalg.norm(phi, axis=1)
    if not np.all(norm >= 1e-13 * np.sqrt(N - 1)):
        i = int(np.argmax(~(norm >= 1e-13 * np.sqrt(N - 1))))
        raise SolverError(f"cell ({m1[i]},{m2[i]}) gives a vanishing wavefunction")
    return phi / norm[:, None]


def checked_blocks(roots: np.recarray, cfg: ChainConfig):
    """Check a whole root table class by class; yield the block vectors of the classes k <= N/2.

    SolverError, naming the class, unless each class (m1 + m2) mod N = k holds
    one root per level of block k; each class k > N/2 holds the levels of
    class N - k to CLASS_MIRROR_TOL |J|; and each class k <= N/2 has
    `block_vectors` V_k (all N - 1 rows) with max|V_k^T V_k - I| and each
    vector's eigen-residual max_r |(H_k phi - E phi)(r)| / |J| at most
    ORTHONORMALITY_TOL.  H_k is the unreduced block, diagonal 2 (1 at r = 1
    and N - 1), hopping `chain.block_hopping`; (H_k/J) phi - (E/J) phi neither
    overflows nor loses digits at any normal J.  Yields (ks, phi, energy, residual)
    per `chain.block_batches` batch: phi[i] the vectors of class ks[i] in
    root order, energy[i] their levels, residual the batch's largest.
    """
    N, J, energies = cfg.N, cfg.J, roots.energy
    sizes = block_sizes(N)
    classes = (roots.m1 + roots.m2) % N
    counts = np.bincount(classes, minlength=N)
    if not np.array_equal(counts, sizes):
        k = int(np.argmax(counts != sizes))
        raise SolverError(f"Bethe basis is incomplete: {counts[k]} roots for the "
                          f"{sizes[k]} levels of momentum block k={k}")
    offsets = np.cumsum(sizes) - sizes  # where each class starts in class order
    members = np.split(np.argsort(classes, kind="stable"), offsets[1:])
    levels = energies[np.lexsort((energies, classes))]  # ascending within each class
    upper = np.arange(offsets[N // 2 + 1], len(roots))  # the levels of the classes k > N/2
    of = np.repeat(np.arange(N), sizes)[upper]  # their classes
    gap = np.abs(levels[upper] - levels[upper - offsets[of] + offsets[N - of]])
    errors = np.maximum.reduceat(gap, offsets[N // 2 + 1:] - offsets[N // 2 + 1])
    failed = ~(errors <= CLASS_MIRROR_TOL * abs(J))  # NaN fails
    if failed.any():
        i = int(np.argmax(failed))
        k = N // 2 + 1 + i
        raise SolverError(f"momentum classes k={k} and {N - k} hold different levels "
                          f"(max difference {errors[i]:.3e})")
    for ks, size in block_batches(N):
        batch = roots[np.concatenate([members[k] for k in ks])]
        phi = block_vectors(batch, cfg).reshape(len(ks), size, N - 1)
        gram = np.max(np.abs(phi @ phi.transpose(0, 2, 1) - np.eye(size)), axis=(1, 2))
        if not np.all(gram <= ORTHONORMALITY_TOL):
            i = int(np.argmax(~(gram <= ORTHONORMALITY_TOL)))
            raise SolverError(f"Bethe basis is numerically incomplete in momentum block "
                              f"k={ks[i]} (max|V_k^T V_k - I| = {gram[i]:.3e})")
        energy = batch.energy.reshape(len(ks), size)
        hopped = block_hopping(ks, N)[:, None, None] * phi
        defect = (2.0 - energy / J)[..., None] * phi
        defect[..., [0, -1]] -= phi[..., [0, -1]]  # the diagonal is 1 at r = 1 and N - 1
        defect[..., 1:] += hopped[..., :-1]
        defect[..., :-1] += hopped[..., 1:]
        residual = np.max(np.abs(defect), axis=2).ravel()  # one per row of batch
        if not np.all(residual <= ORTHONORMALITY_TOL):
            i = int(np.argmax(~(residual <= ORTHONORMALITY_TOL)))
            raise SolverError(f"cell ({batch.m1[i]},{batch.m2[i]}) of momentum block k={ks[i // size]} "
                              f"is not an eigenvector (max|H_k phi - E phi| = {residual[i]:.3e} |J|)")
        yield ks, phi, energy, residual.max()


class BetheEngine(SpectralEngine):
    """Evolution backend built on the full set of Bethe eigenstates.

    Every root is solved, and `checked_blocks` checks them and hands over the
    block vectors that fill SpectralEngine's quarter stack: the roots of class
    (m1 + m2) mod N = k <= N/2, in root order, give the levels of block k on
    its rows r <= N/2.  The stack is used as built, never repaired; evolution
    is SpectralEngine's, and the engine keeps only what a step reads.
    """

    name = "bethe"

    def __init__(self, cfg: ChainConfig):
        half = cfg.N // 2
        vectors, energies = np.zeros((half + 1, half, half)), np.zeros((half + 1, half))
        for ks, phi, energy, _ in checked_blocks(enumerate_roots(cfg), cfg):
            vectors[ks, :, :phi.shape[1]] = phi[..., :half].transpose(0, 2, 1)
            energies[ks, :phi.shape[1]] = energy
        self._set_blocks(cfg, vectors, energies)
