import re
from decimal import Decimal
from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import (
    DenseEngine,
    full_hamiltonian,
    full_space_oracle,
    joint_product_state,
    pair_permutation,
    sector_indices,
    site_bipartition,
    site_bit,
    state_trace_distance,
)
from pcx.bethe import BetheEngine
from pcx.chain import (
    BATCH_BYTES,
    ChainConfig,
    SpectralEngine,
    _real_matmul,
    all_pairs,
    basis_state,
    block_batches,
    block_levels,
    block_sizes,
    pair_index,
    sector_hamiltonian,
)
from pcx.errors import ConfigError


def propagator(engine, t):
    """e^{-iHt} on the pair basis: column p is engine.pair_amplitudes of pair p."""
    n1s, n2s = all_pairs(engine.cfg.N)
    return np.column_stack([engine.pair_amplitudes(int(a), int(b), t) for a, b in zip(n1s, n2s)])


class TestPairIndexing:
    def test_first_pair(self):
        assert pair_index(1, 2, 32) == 0

    def test_last_pair(self):
        assert pair_index(31, 32, 32) == comb(32, 2) - 1 == 495

    def test_roundtrip_exhaustive_n32(self):
        n1s, n2s = all_pairs(32)
        for flat in range(comb(32, 2)):
            assert pair_index(int(n1s[flat]), int(n2s[flat]), 32) == flat

    def test_lexicographic_order(self):
        n1s, n2s = all_pairs(6)
        flats = [pair_index(int(a), int(b), 6) for a, b in zip(n1s, n2s)]
        assert flats == list(range(comb(6, 2)))

    @pytest.mark.parametrize("bad", [(2, 2), (3, 2), (0, 5), (4, 33)])
    def test_invalid_pairs_raise(self, bad):
        with pytest.raises(ConfigError):
            pair_index(bad[0], bad[1], 32)

    @given(st.integers(min_value=4, max_value=40), st.data())
    def test_roundtrip_property(self, N, data):
        n1 = data.draw(st.integers(min_value=1, max_value=N - 1))
        n2 = data.draw(st.integers(min_value=n1 + 1, max_value=N))
        n1s, n2s = all_pairs(N)
        flat = pair_index(n1, n2, N)
        assert (n1s[flat], n2s[flat]) == (n1, n2)


class TestChainConfig:
    def test_dim(self):
        assert ChainConfig(N=32).dim == 496

    def test_reference_energy(self):
        cfg = ChainConfig(N=32)
        assert -cfg.J * cfg.N / 4.0 == -8.0

    @pytest.mark.parametrize("N", [0, 1, 3])
    def test_too_small_rejected(self, N):
        with pytest.raises(ConfigError):
            ChainConfig(N=N)

    def test_zero_coupling_rejected(self):
        with pytest.raises(ConfigError):
            ChainConfig(N=8, J=0.0)

    # 4|J| bounds the sector levels, so it must be finite too; a real past the double range is infinite
    @pytest.mark.parametrize("J", [np.nan, np.inf, -np.inf, 1e308, -5e307, pytest.param(10**400, id="int-1e400"),
                                   pytest.param(-10**400, id="int-minus-1e400"),
                                   pytest.param(Fraction(10**400), id="fraction-1e400")])
    def test_nonfinite_coupling_rejected(self, J):
        with pytest.raises(ConfigError, match="finite"):
            ChainConfig(N=8, J=J)

    @pytest.mark.parametrize("J", ["1", 1j, Decimal("0.3"), None], ids=["str", "complex", "decimal", "none"])
    def test_non_real_coupling_rejected(self, J):
        """A J that is not a real number is one ConfigError naming it, before any engine is built."""
        with pytest.raises(ConfigError, match=re.escape(f"coupling J must be a real number, got J={J!r}")):
            ChainConfig(N=8, J=J)

    def test_numbers_stored_as_python_types(self):
        cfg = ChainConfig(N=np.uint64(12), J=np.float32(0.5))
        assert (type(cfg.N), type(cfg.J)) == (int, float)
        assert (cfg.N, cfg.J) == (12, 0.5)

    def test_ring_limit(self):
        """N = 511 is the largest ring whose momentum-block stack fits the budget."""
        assert ChainConfig(N=511).N == 511
        with pytest.raises(ConfigError, match="budget"):
            ChainConfig(N=512)


class TestSectorHamiltonian:
    def test_real_symmetric(self):
        H = sector_hamiltonian(ChainConfig(N=10))
        assert H.dtype == np.float64
        assert np.array_equal(H, H.T)

    def test_translation_invariance(self):
        N = 10
        H = sector_hamiltonian(ChainConfig(N=N))
        perm = pair_permutation(N, lambda s: s % N + 1)
        T = np.zeros_like(H)
        T[perm, np.arange(len(perm))] = 1.0
        assert np.max(np.abs(H @ T - T @ H)) < 1e-14

    @pytest.mark.parametrize("N", [6, 8, 10])
    def test_ferromagnetic_reference_energy(self, N):
        """Applying the full Hamiltonian to the no-flip state gives -J*N/4."""
        cfg = ChainConfig(N=N)
        H = full_hamiltonian(cfg)
        all_up = np.zeros(1 << N)
        all_up[0] = 1.0
        image = H @ all_up
        assert np.allclose(image, -cfg.J * cfg.N / 4.0 * all_up, atol=1e-14)

    def test_matches_full_space_block(self):
        """Sector matrix equals the two-flip block of the 2^N Hamiltonian."""
        cfg = ChainConfig(N=8)
        idx = sector_indices(cfg)
        block = full_hamiltonian(cfg)[np.ix_(idx, idx)] + cfg.J * cfg.N / 4.0 * np.eye(cfg.dim)
        assert np.max(np.abs(block - sector_hamiltonian(cfg))) < 1e-13

    def test_zero_momentum_dispersion_value(self):
        # k1 = k2 = 0 means zero excitation energy: the sector spectrum
        # touches 0 (uniform superposition state).
        H = sector_hamiltonian(ChainConfig(N=12))
        evals = np.linalg.eigvalsh(H)
        assert abs(evals[0]) < 1e-12


class TestEvolve:
    def test_identity_at_t0(self, engine8):
        psi0 = basis_state(engine8.cfg, 2, 5)
        assert np.array_equal(engine8.pair_amplitudes(2, 5, 0.0), psi0)

    def test_group_property(self, engine8):
        one = propagator(engine8, 2.1) @ engine8.pair_amplitudes(2, 5, 1.3)
        two = engine8.pair_amplitudes(2, 5, 3.4)
        assert np.linalg.norm(one - two) < 1e-10

    def test_unitarity_and_energy_conservation(self, engine8):
        psi0 = basis_state(engine8.cfg, 1, 4)
        H = sector_hamiltonian(engine8.cfg)
        e_start = np.vdot(psi0, H @ psi0).real
        for t in (0.5, 3.0, 17.0):
            psi = engine8.pair_amplitudes(1, 4, t)
            assert abs(np.linalg.norm(psi) - 1.0) < 1e-12
            assert abs(np.vdot(psi, H @ psi).real - e_start) < 1e-10

    def test_shape_mismatch(self, dense_engine8):
        with pytest.raises(ValueError, match="shape"):
            dense_engine8.evolve(np.zeros(7, dtype=complex), 1.0)

    def test_translation_covariance(self, engine8):
        """Shifting the initial flips and relabeling all sites commute."""
        N = engine8.cfg.N
        shift = pair_permutation(N, lambda s: s % N + 1)
        a = engine8.pair_amplitudes(2, 5, 2.7)
        b = engine8.pair_amplitudes(3, 6, 2.7)
        assert np.linalg.norm(b[shift] - a) < 1e-10


class TestSpectralDecomposition:
    def test_orthonormal_eigenvectors(self, dense_engine8):
        V = dense_engine8.spectral.eigenvectors
        assert np.max(np.abs(V.T @ V - np.eye(dense_engine8.dim))) < 1e-10

    def test_eigen_residual(self, dense_engine8):
        H, spec = dense_engine8.hamiltonian, dense_engine8.spectral
        res = H @ spec.eigenvectors - spec.eigenvectors * spec.eigenvalues
        assert np.max(np.abs(res)) < 1e-10


class TestFullSpaceOracle:
    def test_initial_condition(self):
        cfg = ChainConfig(N=6)
        amps = full_space_oracle(cfg, 2, 4, 0.0)
        expected = basis_state(cfg, 2, 4)
        assert np.allclose(amps, expected, atol=1e-14)

    @pytest.mark.parametrize("t", [0.5, 2.0, 5.0])
    def test_sector_closure(self, t):
        cfg = ChainConfig(N=8)
        amps = full_space_oracle(cfg, 3, 6, t)
        assert abs(np.linalg.norm(amps) - 1.0) < 1e-10

    def test_sector_closure_larger_ring(self):
        amps = full_space_oracle(ChainConfig(N=10), 2, 7, 4.0)
        assert abs(np.linalg.norm(amps) - 1.0) < 1e-10

    @pytest.mark.parametrize("flips,t", [((1, 4), 5.0), ((2, 5), 3.0)])
    def test_matches_sector_evolution(self, engine8, flips, t):
        cfg = engine8.cfg
        psi_sector = engine8.pair_amplitudes(*flips, t)
        psi_oracle = full_space_oracle(cfg, *flips, t)
        assert state_trace_distance(psi_sector, psi_oracle) < 1e-10
        # phases agree too: both evolve with H - e0
        assert np.linalg.norm(psi_sector - psi_oracle) < 1e-10

    def test_resource_guard(self):
        with pytest.raises(ConfigError):
            full_space_oracle(ChainConfig(N=14), 1, 2, 1.0)


class TestSpectralEngine:
    def test_pair_amplitudes_matches_evolve(self, dense_engine8):
        """The dense oracle evolves the basis state, so both agree bit for bit."""
        psi = dense_engine8.evolve(basis_state(dense_engine8.cfg, 2, 7), 3.3)
        assert np.array_equal(dense_engine8.pair_amplitudes(2, 7, 3.3), psi)

    @pytest.mark.parametrize("N", [181, 182])
    def test_phase_first_product(self, N):
        """The momentum phases multiply the blocks phase-first, bit for bit, at every N.

        From N = 182 the (N, N//2) complex product reaches numpy's temporary
        elision threshold, where `phase * G[...]` may run as `G[...] *= phase`;
        the complex multiply is not bitwise commutative.
        """
        engine = SpectralEngine(ChainConfig(N=N))
        row, phase = engine._pair_tables(10, 70)
        G = _real_matmul(engine.vectors, row * np.exp(-1j * engine._energies * 3.7))
        stored = G[engine._stored]  # a named array, so `phase * stored` is never elided
        expected = np.fft.ifft(phase * stored, axis=0).ravel()[engine._cell]
        assert engine.pair_amplitudes(10, 70, 3.7).tobytes() == expected.tobytes()


@pytest.fixture(scope="module", params=[SpectralEngine, BetheEngine], ids=["spectral", "bethe"])
def engine40(request):
    return request.param(ChainConfig(N=40))


class TestFlipArguments:
    """Both engines take the flips of pair_amplitudes as Python ints, whatever integer type is given."""

    @pytest.mark.parametrize("kind", [np.uint8, np.int8])
    @pytest.mark.parametrize("t", [0.0, 1.5])
    def test_narrow_numpy_flips(self, engine40, kind, t):
        """In uint8 or int8 the index term (n1 - 1) N = 760 of flip 20 on 40 sites would wrap."""
        b = engine40.pair_amplitudes(kind(20), kind(30), t)
        assert b.tobytes() == engine40.pair_amplitudes(20, 30, t).tobytes()
        if t == 0:
            assert np.flatnonzero(b).tolist() == [pair_index(20, 30, 40)] == [579]

    @pytest.mark.parametrize("flips", [(3.0, 9), (3.5, 9), (3, 9.0)], ids=["3.0", "3.5", "9.0"])
    def test_non_integer_flips_refused(self, engine40, flips):
        shown = next(n for n in flips if isinstance(n, float))
        with pytest.raises(ConfigError, match=re.escape(f"flip site must be an integer, got {shown!r}")):
            engine40.pair_amplitudes(*flips, 1.0)


ORACLE_RINGS = (4, 5, 8, 9, 16, 31, 32, 40)


class TestMomentumBlocks:
    """The block engine against the dense oracle."""

    @pytest.mark.parametrize("J", [1.0, -1.3])
    @pytest.mark.parametrize("N", ORACLE_RINGS)
    def test_matches_dense_oracle(self, N, J):
        cfg = ChainConfig(N=N, J=J)
        block, dense = SpectralEngine(cfg), DenseEngine(cfg)
        E, V = dense.spectral.eigenvalues, dense.spectral.eigenvectors
        assert np.max(np.abs(np.sort(block_levels(cfg)) - E)) < 1e-12
        n1s, n2s = all_pairs(N)
        for t in (1.0, 9.0, 50.0):
            # column p is DenseEngine.pair_amplitudes of pair p
            U = V @ (np.exp(-1j * E * t)[:, None] * V.T)
            for p in range(cfg.dim):
                b = block.pair_amplitudes(int(n1s[p]), int(n2s[p]), t)
                assert np.max(np.abs(b - U[:, p])) < 1e-12, (n1s[p], n2s[p], t)

    @pytest.mark.parametrize("N", ORACLE_RINGS)
    def test_level_count(self, N):
        cfg = ChainConfig(N=N, J=1.3)
        levels, momenta = block_levels(cfg), np.repeat(np.arange(N), block_sizes(N))
        assert len(levels) == len(momenta) == comb(N, 2)
        if N % 2 == 0:
            # K = pi: no hopping, and the one level at J is the alternating adjacent pair
            at_pi = levels[momenta == N // 2]
            assert np.sum(np.abs(at_pi - cfg.J) < 1e-12) == 1

    @pytest.mark.parametrize("N", [5, 8, 31, 32])
    def test_evolve_matches_dense(self, N, rng):
        """Random states evolved by the matrix of block pair_amplitudes columns."""
        cfg = ChainConfig(N=N, J=-1.3)
        block, dense = SpectralEngine(cfg), DenseEngine(cfg)
        for t in (1.0, 9.0, 50.0):
            U = propagator(block, t)
            for _ in range(3):
                psi = rng.normal(size=cfg.dim) + 1j * rng.normal(size=cfg.dim)
                psi /= np.linalg.norm(psi)
                assert np.max(np.abs(U @ psi - dense.evolve(psi, t))) < 1e-12

    @pytest.mark.parametrize("N", [4, 5, 48, 128, 511])
    def test_block_batches(self, N):
        """Each block k <= N/2 once, even k then odd k, each batch of one size within BATCH_BYTES."""
        batches = list(block_batches(N))
        half = N // 2
        assert np.array_equal(np.concatenate([ks for ks, _ in batches]),
                              np.r_[0:half + 1:2, 1:half + 1:2])
        for ks, size in batches:
            assert np.all(block_sizes(N)[ks] == size)
            assert len(ks) == 1 or 8 * size * (N - 1) * len(ks) <= BATCH_BYTES
        if N == 48:  # one batch per parity
            assert len(batches) == 2
        if N == 511:  # a block of 0.99 MiB on its own
            assert all(len(ks) == 1 for ks, _ in batches)

    def test_t0_is_exact(self):
        engine = SpectralEngine(ChainConfig(N=9))
        assert np.array_equal(engine.pair_amplitudes(2, 7, 0.0), basis_state(engine.cfg, 2, 7))

    def test_memory_budget_checked_before_allocation(self):
        # the stack for this ring would take about 4e14 bytes
        with pytest.raises(ConfigError, match="budget"):
            SpectralEngine(ChainConfig(N=100_000))
        with pytest.raises(ConfigError, match="budget"):
            SpectralEngine(ChainConfig(N=512))
        # 8 (N//2+1) (N//2)^2 overflows int16: 206.7 and 955 MiB
        with pytest.raises(ConfigError, match="need 206.7 MiB"):
            SpectralEngine(ChainConfig(N=np.int16(600)))
        with pytest.raises(ConfigError, match="budget"):
            SpectralEngine(ChainConfig(N=np.int16(1000)))


class TestSiteBipartition:
    def test_round_trip(self, rng):
        N, j = 6, 4
        psi = rng.normal(size=2) + 1j * rng.normal(size=2)
        psi /= np.linalg.norm(psi)
        phi = rng.normal(size=1 << (N - 1)) + 1j * rng.normal(size=1 << (N - 1))
        phi /= np.linalg.norm(phi)
        full = joint_product_state(psi, phi, j, N)
        back = site_bipartition(full, j, N)
        assert np.allclose(back, np.outer(psi, phi), atol=1e-14)

    def test_down_row_is_flipped_site(self):
        N, j = 5, 3
        full = np.zeros(1 << N, dtype=complex)
        full[site_bit(j, N)] = 1.0  # only site j flipped
        mat = site_bipartition(full, j, N)
        assert mat[0, 0] == 1.0  # down row, exterior all-up column
        assert np.count_nonzero(mat) == 1
