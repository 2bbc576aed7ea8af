import re
import tracemalloc
from math import comb, pi

import numpy as np
import pytest

import pcx.bethe
import pcx.chain
from oracles import DenseEngine, state_trace_distance
from pcx.bethe import (
    ROOT_DTYPE,
    BetheEngine,
    _cell_derivative,
    _cell_function,
    _cell_roots,
    _cell_start,
    _depth_derivative,
    _depth_function,
    bethe_state,
    block_vectors,
    checked_blocks,
    dispersion,
    enumerate_roots,
)
from pcx.chain import (
    ChainConfig,
    SpectralEngine,
    all_pairs,
    basis_state,
    block_levels,
    block_sizes,
    circular_distance,
    pair_index,
    sector_hamiltonian,
)
from pcx.cli import main
from pcx.errors import SolverError

# corrupt classes: the ring each is built on, and the message that refuses it
CORRUPT_CLASSES = {
    "duplicate-state": (8, r"incomplete in momentum block k=1 \("),
    "skewed-basis": (8, r"incomplete in momentum block k=1 \("),
    "mirror-shift": (8, "classes k=5 and 3 hold different levels"),
    "shifted-theta": (32, r"cell \(1,2\) of momentum block k=3 is not an eigenvector"),
}


def corrupt(monkeypatch, case: str, shift=(5, 1e-9)):
    """Patch pcx.bethe so that one class of the ring CORRUPT_CLASSES[case] names is corrupt.

    duplicate-state: a class-1 row is replaced by another row of its class;
    skewed-basis: that row is tilted by 1e-8 toward the other and renormalized;
    mirror-shift: the first level of class shift[0] (5) moves by shift[1] (1e-9);
    shifted-theta: theta of the class-3 real pair (1,2) moves by 1e-7.
    """
    real_vectors, real_roots = pcx.bethe.block_vectors, pcx.bethe.enumerate_roots
    roots = real_roots(ChainConfig(N=8))
    classes = (roots.m1 + roots.m2) % 8
    partner = roots[2 + np.flatnonzero(classes[2:] == classes[1])[:1]]  # same block as roots[1]

    def target(batch):
        return (batch.m1 == roots[1].m1) & (batch.m2 == roots[1].m2)

    def duplicate_state(batch, cfg):
        batch = batch.copy()
        batch[target(batch)] = partner
        return real_vectors(batch, cfg)

    def skewed_basis(batch, cfg):
        phi = real_vectors(batch, cfg)
        for i in np.flatnonzero(target(batch)):
            tilted = phi[i] + 1e-8 * real_vectors(partner, cfg)[0]
            phi[i] = tilted / np.linalg.norm(tilted)
        return phi

    def mirror_shift(cfg):
        roots = real_roots(cfg)
        roots.energy[np.flatnonzero((roots.m1 + roots.m2) % cfg.N == shift[0])[0]] += shift[1]
        return roots

    def shifted_theta(cfg):
        roots = real_roots(cfg)
        roots.theta[(roots.m1 == 1) & (roots.m2 == 2)] += 1e-7
        return roots

    if case in ("duplicate-state", "skewed-basis"):
        monkeypatch.setattr(pcx.bethe, "block_vectors",
                            duplicate_state if case == "duplicate-state" else skewed_basis)
    else:
        monkeypatch.setattr(pcx.bethe, "enumerate_roots",
                            mirror_shift if case == "mirror-shift" else shifted_theta)


@pytest.fixture(scope="module")
def roots32(cfg32):
    return enumerate_roots(cfg32)


def _cot(z):
    return np.cos(z) / np.sin(z)


def full_stack(engine) -> np.ndarray:
    """The (N, N-1, width) stack of every block and row that an engine's quarter stack stands for.

    Rows r > N/2 by the parity (-1)^k of the stored block, blocks k > N/2
    as (-1)^r times block N - k.
    """
    N, half = engine.cfg.N, engine.cfg.N // 2
    k, r = np.arange(N)[:, None], np.arange(1, N)
    stored = np.minimum(k, N - k)
    sign = np.where(r > half, (-1.0) ** stored, 1.0) * np.where(k > half, (-1.0) ** r, 1.0)
    return engine.vectors[stored, np.minimum(r, N - r) - 1] * sign[..., None]


class TestEnumerateRoots:
    def test_count_n32(self, roots32):
        assert len(roots32) == comb(32, 2) == 496

    def test_spectrum_matches_diagonalization(self, cfg32, roots32, dense_engine32):
        diag = np.sort(dense_engine32.spectral.eigenvalues)
        bethe = np.sort([r.energy for r in roots32])
        assert np.max(np.abs(diag - bethe)) < 1e-6

    def test_dispersion_residuals(self, cfg32, roots32):
        for r in roots32:
            assert abs(r.energy - dispersion(cfg32, r.k1, r.k2).real) < 1e-8

    def test_energies_real(self, cfg32, roots32):
        for r in roots32:
            assert abs(dispersion(cfg32, r.k1, r.k2).imag) < 1e-8

    def test_phase_relation_residuals(self, roots32):
        for r in roots32:
            if r.kind == "k-zero":
                continue
            residual = abs(
                2 * _cot(np.complex128(r.theta) / 2)
                - _cot(np.complex128(r.k1) / 2)
                + _cot(np.complex128(r.k2) / 2)
            )
            assert residual < 1e-8, (r.m1, r.m2, r.kind)

    def test_class_census(self, roots32):
        counts = {}
        for r in roots32:
            counts[r.kind] = counts.get(r.kind, 0) + 1
        assert counts["k-zero"] == 32
        # one extra state per momentum class 2..30, mostly bound
        assert counts["bound"] + counts["real-pair"] == 464
        assert counts["bound"] >= 25

    @pytest.mark.parametrize("N", [5, 6, 9, 12, 40])
    def test_other_chain_lengths_complete(self, N):
        cfg = ChainConfig(N=N)
        roots = enumerate_roots(cfg)
        assert len(roots) == comb(N, 2)
        diag = np.sort(np.linalg.eigvalsh(sector_hamiltonian(cfg)))
        assert np.max(np.abs(diag - np.sort([r.energy for r in roots]))) < 1e-6

    @pytest.mark.parametrize("N", [31, 48])
    def test_engine_roots_are_one_table(self, N):
        """The roots are one ROOT_DTYPE table: one row per cell, sorted by (m1, m2)."""
        roots = enumerate_roots(ChainConfig(N=N))
        assert roots.dtype == ROOT_DTYPE
        assert len(roots) == comb(N, 2)
        dm1, dm2 = np.diff(roots.m1), np.diff(roots.m2)
        assert np.all((dm1 > 0) | ((dm1 == 0) & (dm2 > 0)))  # strictly increasing, so distinct
        assert roots.nbytes < 120 * comb(N, 2)

    @pytest.mark.parametrize("N", [8, 9, 12, 13, 32, 33, 48, 77, 80, 89, 128, 256, 511])
    def test_energies_match_blocks_class_by_class(self, N):
        """Roots of class (m1 + m2) mod N = k have the levels of momentum block k."""
        cfg = ChainConfig(N=N)
        roots = enumerate_roots(cfg)
        blocks, momenta = block_levels(cfg), np.repeat(np.arange(N), block_sizes(N))
        classes = (roots.m1 + roots.m2) % N
        by_class = np.lexsort((roots.energy, classes))
        splits = np.cumsum(np.bincount(classes, minlength=N))[:-1]
        for k, members in enumerate(np.split(by_class, splits)):
            bethe = roots.energy[members]  # ascending within the class
            levels = np.sort(blocks[momenta == k])
            assert bethe.shape == levels.shape, k
            assert np.max(np.abs(bethe - levels)) < 2e-14, k

    def test_newton_out_of_iterations_refused(self, monkeypatch):
        """A real-pair cell that does not converge within NEWTON_MAX_ITER raises, naming the cell."""
        monkeypatch.setattr(pcx.bethe, "NEWTON_MAX_ITER", 1)
        with pytest.raises(SolverError, match=r"real-pair cell \(\d+,\d+\) did not converge"):
            enumerate_roots(ChainConfig(N=12))

    def test_real_pair_roots_at_rounding(self):
        """After the finish steps, a further Newton step lowers |F| for almost no real-pair cell."""
        N = 32
        m1, m2 = np.triu_indices(N, 2)
        m1, m2 = m1[m1 >= 1], m2[m1 >= 1]
        theta = _cell_roots(_cell_function, _cell_derivative, (m1, m2), N, 1e-9, pi - 1e-12,
                            _cell_start(m1, m2, N))
        f = _cell_function(theta, m1, m2, N)
        further = theta - f / _cell_derivative(theta, m1, m2, N)
        improved = np.abs(_cell_function(further, m1, m2, N)) < np.abs(f)
        assert np.sum(improved) <= 0.01 * len(theta)

    @pytest.mark.parametrize("lost, message", [
        ("close", r"no solution found for momentum-class cell \(1,2\)"),
        ("both", r"real-pair cell \(3,7\) did not converge"),
    ])
    def test_close_pair_refused(self, monkeypatch, lost, message):
        """An unsolved close pair (m2 = m1 + 1) is refused by name; an unsolved real pair first."""
        cell_roots = pcx.bethe._cell_roots

        def unsolved(function, derivative, params, N, lo, hi, start):
            roots = cell_roots(function, derivative, params, N, lo, hi, start)
            if function is _cell_function:
                m1, m2 = params
                roots[(m2 - m1 == 1) | ((lost == "both") & (m1 == 3) & (m2 == 7))] = np.nan
            return roots

        monkeypatch.setattr(pcx.bethe, "_cell_roots", unsolved)
        with pytest.raises(SolverError, match=message):
            enumerate_roots(ChainConfig(N=32))

    def test_merged_cells_keep_their_bits(self):
        """Real and close pairs solved in one pass give the bits of each family solved alone."""
        N = 32
        m1, m2 = np.triu_indices(N, 2)
        m1, m2 = m1[m1 >= 1], m2[m1 >= 1]
        b1, b2 = np.array([1, 30]), np.array([2, 31])  # the close pairs at N = 32
        equation = _cell_function, _cell_derivative
        real = _cell_roots(*equation, (m1, m2), N, 1e-9, pi - 1e-12, _cell_start(m1, m2, N))
        close = _cell_roots(*equation, (b1, b2), N, 1e-6, pi - 1e-4, _cell_start(b1, b2, N))
        is_close = np.arange(len(m1) + 2) >= len(m1)
        both = np.r_[m1, b1], np.r_[m2, b2]
        merged = _cell_roots(*equation, both, N, np.where(is_close, 1e-6, 1e-9),
                             np.where(is_close, pi - 1e-4, pi - 1e-12), _cell_start(*both, N))
        assert not np.isnan(merged).any()
        assert merged.tobytes() == np.r_[real, close].tobytes()
        every_seventh = _cell_roots(*equation, (m1[::7], m2[::7]), N, 1e-9, pi - 1e-12,
                                    _cell_start(m1[::7], m2[::7], N))
        assert every_seventh.tobytes() == real[::7].tobytes()

    def test_bracket_without_sign_change_refused(self):
        """A bracket whose ends share a sign is refused, even with the root at its midpoint or start."""
        m1, m2 = np.array([1]), np.array([3])
        start = _cell_start(m1, m2, 8)
        root = _cell_roots(_cell_function, _cell_derivative, (m1, m2), 8, 1e-9, pi - 1e-12, start)[0]
        assert abs(_cell_function(root, 1, 3, 8)) < 1e-12
        lo, hi = -0.5, 2 * root + 0.5  # across the pole at theta = 0: F < 0 at both ends
        assert _cell_function(lo, 1, 3, 8) < 0 and _cell_function(hi, 1, 3, 8) < 0
        assert np.isnan(_cell_roots(_cell_function, _cell_derivative, (m1, m2), 8, lo, hi, start)).all()
        assert np.isnan(_cell_roots(_cell_function, _cell_derivative, (m1, m2), 8, lo, hi, root)).all()

    @pytest.mark.parametrize("N", [48, 128, 511])
    def test_theta_pass_starts_next_to_its_roots(self, monkeypatch, N):
        """From the free-magnon start the theta pass evaluates F at most 15 times (20-32 from the midpoint)."""
        calls = 0

        def counted(*args):
            nonlocal calls
            calls += 1
            return _cell_function(*args)

        monkeypatch.setattr(pcx.bethe, "_cell_function", counted)
        enumerate_roots(ChainConfig(N=N))
        assert calls <= 15

    @pytest.mark.parametrize("N", [48, 511])
    def test_bound_depths_at_rounding(self, N):
        """After the finish steps, a further Newton step lowers |F| for almost no bound cell."""
        mclass = np.arange(2, N - 1)
        sigma = mclass[2 * mclass != N]
        sigma = np.where(sigma < N / 2, sigma, sigma + N)
        c = np.cos(pi * sigma / N)
        bound = (sigma % 2 == 0) | (c < 1 - 2 / N)  # the sinh form (odd sigma) misses above 1 - 2/N
        params = np.log(c[bound]), sigma[bound] % 2 == 0
        v = _cell_roots(_depth_function, _depth_derivative, params, N, 1e-300, np.log(2 / c[bound]),
                        -params[0])
        assert not np.isnan(v).any()
        f = _depth_function(v, *params, N)
        further = v - f / _depth_derivative(v, *params, N)
        improved = np.abs(_depth_function(further, *params, N)) < np.abs(f)
        assert np.sum(improved) <= 0.01 * len(v)

    @pytest.mark.parametrize("lost, message", [
        ("bound", r"no solution found for momentum-class cell \(5,5\)"),
        ("both", r"real-pair cell \(3,7\) did not converge"),
    ])
    def test_bound_cell_without_root_refused(self, monkeypatch, lost, message):
        """A bound cell whose depth equation keeps its sign is refused by name; a real pair first."""
        N, target = 32, np.log(np.sin(pi * abs(32 - 2 * 10) / (2 * 32)))  # cell (5,5), momentum class 10

        def no_depth(v, log_c, cosh_form, N):
            f = _depth_function(v, log_c, cosh_form, N)
            return np.where(log_c == target, np.abs(f) + 1, f)

        def no_theta(theta, m1, m2, N):
            f = _cell_function(theta, m1, m2, N)
            return np.where((m1 == 3) & (m2 == 7), np.abs(f) + 1, f)

        monkeypatch.setattr(pcx.bethe, "_depth_function", no_depth)
        if lost == "both":
            monkeypatch.setattr(pcx.bethe, "_cell_function", no_theta)
        with pytest.raises(SolverError, match=message):
            enumerate_roots(ChainConfig(N=N))

    @pytest.mark.parametrize("J", [-1.0, 2.5])
    def test_coupling_scales_spectrum(self, J):
        cfg = ChainConfig(N=10, J=J)
        roots = enumerate_roots(cfg)
        diag = np.sort(np.linalg.eigvalsh(sector_hamiltonian(cfg)))
        assert np.max(np.abs(diag - np.sort([r.energy for r in roots]))) < 1e-6


class TestBetheState:
    def test_normalized(self, cfg32, roots32):
        for r in roots32[::37]:
            st = bethe_state(r, cfg32)
            assert abs(np.linalg.norm(st) - 1.0) < 1e-10

    def test_eigenvector_residuals(self, cfg32, roots32, dense_engine32):
        H = dense_engine32.hamiltonian
        worst = 0.0
        for r in roots32:
            st = bethe_state(r, cfg32)
            worst = max(worst, np.linalg.norm(H @ st - r.energy * st))
        assert worst < 1e-6

    def test_bound_state_decays_with_separation(self, cfg32, roots32):
        """Bound wavefunctions concentrate at small circular separation."""
        bound = [r for r in roots32 if r.kind == "bound" and abs(r.k1.imag) > 0.3]
        assert bound
        for r in bound[:3]:
            st = bethe_state(r, cfg32)
            by_sep = {}
            n1s, n2s = all_pairs(cfg32.N)
            for flat, amp in enumerate(st):
                d = circular_distance(int(n1s[flat]), int(n2s[flat]), cfg32.N)
                by_sep.setdefault(d, []).append(abs(amp))
            profile = [max(by_sep[d]) for d in sorted(by_sep)]
            # strictly decaying overall: far separations much weaker than near
            assert profile[0] > 10 * profile[len(profile) // 2]
            assert profile[0] > profile[1] > profile[3]

    def test_degenerate_wavefunction_rejected(self, cfg32):
        # equal real momenta with theta = pi cancel the two terms exactly
        bogus = np.rec.array([(1.0, 1.0, pi, 0.9, "real-pair", 5, 5)], dtype=ROOT_DTYPE)
        with pytest.raises(SolverError):
            bethe_state(bogus[0], cfg32)
        with pytest.raises(SolverError):
            block_vectors(bogus, cfg32)

    def test_block_vector_off_momentum_rejected(self, cfg32):
        """Momenta that miss 2 pi (m1 + m2)/N by 2e-7 give an energy off the block's level.

        The row is built from k2 - k1 and theta, so only the residual sees it;
        class N/2 has no mirror class whose levels would differ first.
        """
        roots = enumerate_roots(cfg32)
        i = np.flatnonzero((roots.m1 == 1) & (roots.m2 == 15))[0]
        roots.k1[i] += 1e-7
        roots.k2[i] += 1e-7
        roots.energy[i] = dispersion(cfg32, roots.k1[i], roots.k2[i]).real
        with pytest.raises(SolverError, match=r"cell \(1,15\) of momentum block k=16 is not an eigenvector"):
            list(checked_blocks(roots, cfg32))

    @pytest.mark.parametrize("J", [1.0, -1.3])
    @pytest.mark.parametrize("N", [48, 323])
    def test_eigen_residual_at_rounding(self, N, J):
        """Every row the pass yields is an eigenvector of its block to 1e-12 |J|."""
        cfg = ChainConfig(N=N, J=J)
        assert max(residual for *_, residual in checked_blocks(enumerate_roots(cfg), cfg)) <= 1e-12

    def test_bound_rows_closed_form(self):
        """At the ring limit, bound rows (e^{-v r} + s e^{-v (N - r)}) (-1)^{jr} are bethe_state on (1, 1 + r)."""
        N = 511
        cfg = ChainConfig(N=N)
        roots = enumerate_roots(cfg)
        bound = roots[(roots.kind == "bound") & (2 * (roots.m1 + roots.m2) != N)][::7]
        r = np.arange(1, N)
        flat = pair_index(1, 1 + r, N)
        for root, phi in zip(bound, block_vectors(bound, cfg)):
            k = (root.m1 + root.m2) % N
            psi = bethe_state(root, cfg)[flat] * np.exp(-1j * np.pi * k * r / N)
            psi /= np.linalg.norm(psi)
            assert abs(abs(np.vdot(phi, psi)) - 1) < 1e-12, (root.m1, root.m2)

    @pytest.mark.parametrize("N", [12, 31, 32])
    def test_block_vectors_match_position_wavefunction(self, N):
        """Each row of a class batch is bethe_state on the pairs (1, 1 + r) in the block gauge."""
        cfg = ChainConfig(N=N)
        roots = enumerate_roots(cfg)
        r = np.arange(1, N)
        flat = np.array([pair_index(1, 1 + d, N) for d in r])
        for k in range(N):
            batch = roots[(roots.m1 + roots.m2) % N == k]
            for root, phi in zip(batch, block_vectors(batch, cfg)):
                psi = bethe_state(root, cfg)[flat] * np.exp(-1j * np.pi * k * r / N)
                psi /= np.linalg.norm(psi)
                assert abs(abs(np.vdot(phi, psi)) - 1) < 1e-12, (root.m1, root.m2)

    def test_singular_momentum_pi_state(self, cfg32, roots32, dense_engine32):
        """The v->infinity cell is the alternating adjacent state."""
        singular = [r for r in roots32 if r.kind == "bound" and abs(r.energy - cfg32.J) < 1e-9]
        assert len(singular) == 1
        st = bethe_state(singular[0], cfg32)
        res = np.linalg.norm(dense_engine32.hamiltonian @ st - cfg32.J * st)
        assert res < 1e-6
        # support on adjacent pairs only
        n1s, n2s = all_pairs(cfg32.N)
        for flat, amp in enumerate(st):
            if circular_distance(int(n1s[flat]), int(n2s[flat]), cfg32.N) != 1:
                assert abs(amp) < 1e-6

    @pytest.mark.parametrize("N", [12, 32])
    def test_momentum_pi_state_closed_form(self, N):
        """(-1)^n on (n, n+1), (-1)^N on (1, N), over sqrt(N); nothing elsewhere."""
        cfg = ChainConfig(N=N)
        pi_roots = [r for r in enumerate_roots(cfg) if r.kind == "bound" and 2 * (r.m1 + r.m2) == N]
        assert len(pi_roots) == 1
        amps = bethe_state(pi_roots[0], cfg)
        expected = np.zeros(cfg.dim)
        for n in range(1, N):
            expected[pair_index(n, n + 1, N)] = (-1) ** n
        expected[pair_index(1, N, N)] = (-1) ** N
        expected /= np.sqrt(N)
        assert np.max(np.abs(amps - expected)) < 1e-15
        assert np.all(amps[expected == 0] == 0)


class TestCompleteness:
    def test_gram_full_rank(self, cfg32, roots32):
        A = np.column_stack([bethe_state(r, cfg32) for r in roots32])
        smin = np.linalg.svd(A, compute_uv=False)[-1]
        assert smin > 1e-6

    @pytest.mark.parametrize("N", [4, 6, 7, 8, 12, 32, 33])
    def test_raw_states_orthonormal(self, N):
        """The bethe_state columns are orthonormal as built, with no repair step."""
        cfg = ChainConfig(N=N)
        A = np.column_stack([bethe_state(r, cfg) for r in enumerate_roots(cfg)])
        assert np.max(np.abs(A.conj().T @ A - np.eye(cfg.dim))) < 1e-10

    def test_engine_basis_is_raw_states(self):
        """The stored blocks k <= N/2 hold the rows r <= N/2 of the raw block vectors."""
        engine = BetheEngine(ChainConfig(N=12))
        roots = enumerate_roots(engine.cfg)
        A = np.zeros_like(engine.vectors)
        filled = np.zeros(7, dtype=int)
        for i, r in enumerate(roots):
            k = (r.m1 + r.m2) % 12
            if k <= 6:
                phi = block_vectors(roots[i:i + 1], engine.cfg)[0]  # one-row table
                A[k, :, filled[k]] = phi[:6]
                filled[k] += 1
        assert np.array_equal(engine.vectors, A)

    def test_engine_basis_orthonormal(self, bethe_engine32, roots32):
        vectors = full_stack(bethe_engine32)
        for k, size in enumerate(np.bincount((roots32.m1 + roots32.m2) % 32, minlength=32)):
            Q = vectors[k, :, :size]
            assert np.max(np.abs(Q.conj().T @ Q - np.eye(Q.shape[1]))) < 1e-10

    def test_parseval_on_engine_basis(self, cfg32, bethe_engine32):
        N = cfg32.N
        K, x, r = 2 * pi * np.arange(N) / N, np.arange(N), np.arange(1, N)
        # transform of the (x, r) layout: phi_K(r) = sum_x e^{-iK(x + r/2)} psi(x, r) / sqrt(N)
        fourier = np.exp(-1j * K[:, None, None] * (x[:, None] + r / 2)) / np.sqrt(N)
        for (n1, n2) in ((10, 25), (1, 2), (7, 23)):
            layout = np.zeros((N, N - 1))
            layout[n1 - 1, n2 - n1 - 1] = layout[n2 - 1, N - (n2 - n1) - 1] = 1 / np.sqrt(2)
            phi = np.einsum("kxr,xr->kr", fourier, layout)
            coeffs = np.einsum("krj,kr->kj", full_stack(bethe_engine32), phi)
            assert abs(np.sum(np.abs(coeffs) ** 2) - 1.0) < 1e-8

    def test_duplicate_state_rejected(self, monkeypatch):
        """A repeated wavefunction leaves the basis incomplete; the engine refuses it."""
        corrupt(monkeypatch, "duplicate-state")
        with pytest.raises(SolverError, match=r"incomplete in momentum block k=1 \("):
            BetheEngine(ChainConfig(N=8))

    def test_slightly_skewed_basis_rejected(self, monkeypatch):
        """A column tilted by 1e-8 keeps full rank but is not orthonormal; the engine refuses it."""
        corrupt(monkeypatch, "skewed-basis")
        with pytest.raises(SolverError, match=r"incomplete in momentum block k=1 \("):
            BetheEngine(ChainConfig(N=8))

    def test_mirror_class_levels_checked(self, monkeypatch):
        """A class above N/2 builds no vectors; one level 1e-9 off its mirror class is refused.

        The first and the last class above N/2 are refused on even and odd rings, a NaN
        level too; a shift of 1e-13, below CLASS_MIRROR_TOL, passes.
        """
        for N, k, shift, message in [
            (8, 5, 1e-9, "classes k=5 and 3 hold different levels"),
            (8, 7, 1e-9, "classes k=7 and 1 hold different levels"),
            (9, 5, 1e-9, "classes k=5 and 4 hold different levels"),
            (9, 8, 1e-9, "classes k=8 and 1 hold different levels"),
            (8, 7, np.nan, r"classes k=7 and 1 hold different levels \(max difference nan\)"),
        ]:
            corrupt(monkeypatch, "mirror-shift", (k, shift))
            with pytest.raises(SolverError, match=message):
                BetheEngine(ChainConfig(N=N))
            monkeypatch.undo()
        corrupt(monkeypatch, "mirror-shift", (5, 1e-13))
        BetheEngine(ChainConfig(N=8))

    def test_shifted_theta_refused(self, monkeypatch):
        """A real pair whose theta is 1e-7 off keeps an orthonormal block; its residual refuses it."""
        N, message = CORRUPT_CLASSES["shifted-theta"]
        corrupt(monkeypatch, "shifted-theta")
        with pytest.raises(SolverError, match=message):
            BetheEngine(ChainConfig(N=N))

    @pytest.mark.parametrize("case", CORRUPT_CLASSES)
    def test_corrupt_class_refused_by_spectrum(self, monkeypatch, tmp_path, capsys, case):
        """`spectrum --engine bethe` runs the engine's checks: one solver error line naming the class."""
        N, message = CORRUPT_CLASSES[case]
        corrupt(monkeypatch, case)
        assert main(["spectrum", "--engine", "bethe", "--sites", str(N), "--out", str(tmp_path)]) == 4
        captured = capsys.readouterr()
        assert captured.err.startswith("solver error: ") and len(captured.err.splitlines()) == 1
        assert re.search(message, captured.err)
        assert not (tmp_path / "spectrum.csv").exists()

    def test_build_uses_no_per_root_wavefunction(self, monkeypatch, bethe_engine32):
        """The engine builds its blocks from batches alone; the per-root path is never taken."""
        def refuse(*args, **kwargs):
            raise AssertionError("per-root wavefunction called")

        monkeypatch.setattr(pcx.bethe, "bethe_state", refuse)
        engine = BetheEngine(ChainConfig(N=32))
        assert np.array_equal(engine.vectors, bethe_engine32.vectors)

    def test_build_holds_no_dense_basis(self):
        """Building at N=64 stays far below the 65 MB a dense dim x dim basis would take."""
        tracemalloc.start()
        try:
            BetheEngine(ChainConfig(N=64))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_build_peak_near_stack(self):
        """Building at N=256 holds at most as much again as the quarter stack it keeps."""
        tracemalloc.start()
        try:
            engine = BetheEngine(ChainConfig(N=256))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * engine.vectors.nbytes

    @pytest.mark.parametrize("N", [8, 31, 48, 64])
    def test_batching_changes_nothing(self, monkeypatch, N):
        """One class per batch builds the same bits as the default batches, in both engines."""
        cfg = ChainConfig(N=N)
        assert max(len(ks) for ks, _ in pcx.chain.block_batches(N)) > 1
        batched = BetheEngine(cfg), SpectralEngine(cfg)
        monkeypatch.setattr(pcx.chain, "BATCH_BYTES", 0)
        assert max(len(ks) for ks, _ in pcx.chain.block_batches(N)) == 1
        single = BetheEngine(cfg), SpectralEngine(cfg)
        for a, b in zip(batched, single):
            assert a.vectors.tobytes() == b.vectors.tobytes()
            assert a._energies.tobytes() == b._energies.tobytes()
        roots = enumerate_roots(cfg)
        single_residual = max(residual for *_, residual in checked_blocks(roots, cfg))
        monkeypatch.undo()
        assert single_residual == max(residual for *_, residual in checked_blocks(roots, cfg))


class TestBetheEvolve:
    def test_t0_resolution_of_identity(self, cfg32, engine32, bethe_engine32):
        for engine in (engine32, bethe_engine32):
            psi = engine.pair_amplitudes(10, 25, 0.0)
            assert np.array_equal(psi, basis_state(cfg32, 10, 25))

    def test_matches_spectral_at_reference_point(self, engine32, bethe_engine32):
        u = engine32.pair_amplitudes(10, 25, 9.0)
        v = bethe_engine32.pair_amplitudes(10, 25, 9.0)
        assert np.linalg.norm(u - v) < 1e-6

    def test_matches_spectral_to_rounding(self, engine32, bethe_engine32):
        for (n1, n2) in ((10, 25), (1, 2), (7, 23)):
            for t in (1.0, 9.0, 50.0):
                d = state_trace_distance(engine32.pair_amplitudes(n1, n2, t),
                                         bethe_engine32.pair_amplitudes(n1, n2, t))
                assert d < 1e-11, (n1, n2, t)

    def test_backend_equivalence_random(self, engine32, bethe_engine32, rng):
        for _ in range(8):
            n1 = int(rng.integers(1, 32))
            n2 = int(rng.integers(n1 + 1, 33))
            t = float(rng.uniform(0.0, 50.0))
            u = engine32.pair_amplitudes(n1, n2, t)
            v = bethe_engine32.pair_amplitudes(n1, n2, t)
            assert state_trace_distance(u, v) < 1e-6

    def test_matches_spectral_at_n128(self):
        """A ring past the dense oracle's cap: Bethe and block propagation agree to rounding."""
        cfg = ChainConfig(N=128)
        se, be = SpectralEngine(cfg), BetheEngine(cfg)
        for (n1, n2) in ((1, 2), (10, 70), (64, 128)):
            for t in (1.0, 9.0, 50.0):
                diff = np.max(np.abs(se.pair_amplitudes(n1, n2, t) - be.pair_amplitudes(n1, n2, t)))
                assert diff < 1e-12, (n1, n2, t)

    def test_backend_equivalence_smaller_ring(self):
        cfg = ChainConfig(N=12)
        se, be = SpectralEngine(cfg), BetheEngine(cfg)
        for (n1, n2, t) in ((1, 2, 7.0), (3, 9, 25.0), (5, 6, 50.0)):
            d = state_trace_distance(se.pair_amplitudes(n1, n2, t),
                                     be.pair_amplitudes(n1, n2, t))
            assert d < 1e-6


    @pytest.mark.parametrize("J", [1.0, -1.3])
    @pytest.mark.parametrize("N", [4, 5, 6, 7, 8, 9, 12, 16, 31, 32, 40])
    def test_matches_dense_oracle(self, N, J):
        """Every flip pair, t = 1, 9 and 50, to 1e-12 against the dense sector."""
        cfg = ChainConfig(N=N, J=J)
        bethe, dense = BetheEngine(cfg), DenseEngine(cfg)
        E, V = dense.spectral.eigenvalues, dense.spectral.eigenvectors
        n1s, n2s = all_pairs(N)
        for t in (1.0, 9.0, 50.0):
            # column p is DenseEngine.pair_amplitudes of pair p
            U = V @ (np.exp(-1j * E * t)[:, None] * V.T)
            for p in range(cfg.dim):
                b = bethe.pair_amplitudes(int(n1s[p]), int(n2s[p]), t)
                assert np.max(np.abs(b - U[:, p])) < 1e-12, (n1s[p], n2s[p], t)


class TestLowestExcitation:
    def test_minimum_energy_matches_dispersion_over_roots(self, cfg32, roots32, dense_engine32):
        """Sector ground value agrees with the minimum over enumerated roots."""
        spectrum_min = float(np.min(dense_engine32.spectral.eigenvalues))
        roots_min = min(dispersion(cfg32, r.k1, r.k2).real for r in roots32)
        assert abs(spectrum_min - roots_min) < 1e-8
        # lowest nonzero excitation too
        spectrum_next = float(np.sort(dense_engine32.spectral.eigenvalues)[1])
        roots_next = sorted(r.energy for r in roots32)[1]
        assert abs(spectrum_next - roots_next) < 1e-6
