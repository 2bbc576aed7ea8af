from math import comb, pi

import numpy as np
import pytest

from pcx.bethe import (
    BetheEngine,
    bethe_state,
    dispersion,
    enumerate_roots,
    solve_theta,
)
from pcx.chain import (
    ChainConfig,
    basis_state,
    circular_distance,
    pair_unindex,
    sector_hamiltonian,
    state_trace_distance,
)
from pcx.errors import SolverError


@pytest.fixture(scope="module")
def roots32(cfg32):
    return enumerate_roots(cfg32)


def _cot(z):
    return np.cos(z) / np.sin(z)


class TestSolveTheta:
    def test_equal_momenta_give_pi(self):
        assert solve_theta(1.1, 1.1) == pytest.approx(pi, abs=1e-12)

    def test_quoted_relation_value(self):
        # cot(pi/2) - cot(pi/4) = -1, so 2 cot(theta/2) must equal -1
        theta = solve_theta(pi, pi / 2)
        assert 2 * _cot(theta / 2) == pytest.approx(-1.0, abs=1e-10)

    def test_conjugate_momenta_give_complex_phase(self):
        k1 = 0.9 + 0.4j
        k2 = np.conj(k1)
        theta = solve_theta(k1, k2)
        assert abs(theta.imag) > 1e-3
        residual = abs(2 * _cot(theta / 2) - _cot(k1 / 2) + _cot(np.complex128(k2) / 2))
        assert residual < 1e-8

    def test_zero_momentum_convention(self):
        assert solve_theta(0.0, 1.3) == 0.0


class TestEnumerateRoots:
    def test_count_n32(self, roots32):
        assert len(roots32) == comb(32, 2) == 496

    def test_spectrum_matches_diagonalization(self, cfg32, roots32, engine32):
        diag = np.sort(engine32.spectral.eigenvalues)
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
            assert abs(np.linalg.norm(st.amplitudes) - 1.0) < 1e-10
            assert st.norm_constant > 0

    def test_eigenvector_residuals(self, cfg32, roots32, engine32):
        H = engine32.hamiltonian
        worst = 0.0
        for r in roots32:
            st = bethe_state(r, cfg32)
            worst = max(worst, np.linalg.norm(H @ st.amplitudes - r.energy * st.amplitudes))
        assert worst < 1e-6

    def test_bound_state_decays_with_separation(self, cfg32, roots32):
        """Bound wavefunctions concentrate at small circular separation."""
        bound = [r for r in roots32 if r.kind == "bound" and abs(r.k1.imag) > 0.3]
        assert bound
        for r in bound[:3]:
            st = bethe_state(r, cfg32)
            by_sep = {}
            for flat, amp in enumerate(st.amplitudes):
                n1, n2 = pair_unindex(flat, cfg32.N)
                d = circular_distance(n1, n2, cfg32.N)
                by_sep.setdefault(d, []).append(abs(amp))
            profile = [max(by_sep[d]) for d in sorted(by_sep)]
            # strictly decaying overall: far separations much weaker than near
            assert profile[0] > 10 * profile[len(profile) // 2]
            assert profile[0] > profile[1] > profile[3]

    def test_degenerate_wavefunction_rejected(self, cfg32):
        from pcx.bethe import BetheRoot
        from pcx.errors import DegenerateRootError

        # equal real momenta with theta = pi cancel the two terms exactly
        bogus = BetheRoot(k1=1.0 + 0j, k2=1.0 + 0j, theta=complex(pi), energy=0.9,
                          kind="real-pair", m1=5, m2=5)
        with pytest.raises(DegenerateRootError):
            bethe_state(bogus, cfg32)

    def test_singular_momentum_pi_state(self, cfg32, roots32, engine32):
        """The regularized v->infinity cell is the alternating adjacent state."""
        singular = [r for r in roots32 if r.kind == "bound" and abs(r.energy - cfg32.J) < 1e-9]
        assert len(singular) == 1
        st = bethe_state(singular[0], cfg32)
        res = np.linalg.norm(engine32.hamiltonian @ st.amplitudes - cfg32.J * st.amplitudes)
        assert res < 1e-6
        # support on adjacent pairs only (up to the regularization tail)
        for flat, amp in enumerate(st.amplitudes):
            n1, n2 = pair_unindex(flat, cfg32.N)
            if circular_distance(n1, n2, cfg32.N) != 1:
                assert abs(amp) < 1e-6


class TestCompleteness:
    def test_gram_full_rank(self, cfg32, roots32):
        A = np.column_stack([bethe_state(r, cfg32).amplitudes for r in roots32])
        smin = np.linalg.svd(A, compute_uv=False)[-1]
        assert smin > 1e-6

    def test_engine_basis_orthonormal(self, bethe_engine32):
        Q = bethe_engine32.spectral.eigenvectors
        assert np.max(np.abs(Q.conj().T @ Q - np.eye(Q.shape[1]))) < 1e-10

    def test_parseval_on_engine_basis(self, cfg32, bethe_engine32):
        for (n1, n2) in ((10, 25), (1, 2), (7, 23)):
            psi0 = basis_state(cfg32, n1, n2)
            coeffs = bethe_engine32.spectral.eigenvectors.conj().T @ psi0
            assert abs(np.sum(np.abs(coeffs) ** 2) - 1.0) < 1e-8

    def test_duplicate_state_rejected(self, monkeypatch):
        """A repeated wavefunction leaves the basis incomplete; the engine refuses it."""
        import pcx.bethe

        real_state = pcx.bethe.bethe_state
        roots = enumerate_roots(ChainConfig(N=8))

        def repeat_first(root, cfg):
            return real_state(roots[0] if root == roots[1] else root, cfg)

        monkeypatch.setattr(pcx.bethe, "bethe_state", repeat_first)
        with pytest.raises(SolverError, match="incomplete"):
            BetheEngine(ChainConfig(N=8))


class TestBetheEvolve:
    def test_t0_resolution_of_identity(self, cfg32, engine32, bethe_engine32):
        for engine in (engine32, bethe_engine32):
            psi = engine.pair_amplitudes(10, 25, 0.0)
            assert np.array_equal(psi, basis_state(cfg32, 10, 25))

    def test_pair_amplitudes_matches_evolve(self):
        engine = BetheEngine(ChainConfig(N=12))
        for (n1, n2, t) in ((1, 2, 7.0), (3, 9, 25.0), (5, 6, 50.0)):
            psi = engine.evolve(basis_state(engine.cfg, n1, n2), t)
            assert np.max(np.abs(engine.pair_amplitudes(n1, n2, t) - psi)) < 1e-14

    def test_matches_spectral_at_reference_point(self, engine32, bethe_engine32):
        u = engine32.pair_amplitudes(10, 25, 9.0)
        v = bethe_engine32.pair_amplitudes(10, 25, 9.0)
        assert np.linalg.norm(u - v) < 1e-6

    def test_backend_equivalence_random(self, engine32, bethe_engine32, rng):
        for _ in range(8):
            n1 = int(rng.integers(1, 32))
            n2 = int(rng.integers(n1 + 1, 33))
            t = float(rng.uniform(0.0, 50.0))
            u = engine32.pair_amplitudes(n1, n2, t)
            v = bethe_engine32.pair_amplitudes(n1, n2, t)
            assert state_trace_distance(u, v) < 1e-6

    def test_shape_guard(self, bethe_engine32):
        with pytest.raises(ValueError, match="shape"):
            bethe_engine32.evolve(np.zeros(5, dtype=complex), 1.0)

    def test_backend_equivalence_smaller_ring(self):
        from pcx.chain import SpectralEngine

        cfg = ChainConfig(N=12)
        se, be = SpectralEngine(cfg), BetheEngine(cfg)
        for (n1, n2, t) in ((1, 2, 7.0), (3, 9, 25.0), (5, 6, 50.0)):
            d = state_trace_distance(se.pair_amplitudes(n1, n2, t),
                                     be.pair_amplitudes(n1, n2, t))
            assert d < 1e-6


class TestLowestExcitation:
    def test_minimum_energy_matches_dispersion_over_roots(self, cfg32, roots32, engine32):
        """Sector ground value agrees with the minimum over enumerated roots."""
        spectrum_min = float(np.min(engine32.spectral.eigenvalues))
        roots_min = min(dispersion(cfg32, r.k1, r.k2).real for r in roots32)
        assert abs(spectrum_min - roots_min) < 1e-8
        # lowest nonzero excitation too
        spectrum_next = float(np.sort(engine32.spectral.eigenvalues)[1])
        roots_next = sorted(r.energy for r in roots32)[1]
        assert abs(spectrum_next - roots_next) < 1e-6
