import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    equivalence_residual,
    full_evolve,
    joint_product_state,
    site_bipartition,
    trace_distance,
)
from pcx.chain import ChainConfig
from pcx.errors import ConfigError
from pcx.predictive import (
    BipartiteState,
    EquivalencePartition,
    build_projector,
    predictive_map,
    reduced_density,
    von_neumann_entropy,
    worked_qubit_qutrit_example,
)

SQ2 = np.sqrt(2.0)


def random_state(rng, dim_a, dim_b):
    amps = rng.normal(size=(dim_a, dim_b)) + 1j * rng.normal(size=(dim_a, dim_b))
    return BipartiteState(amps / np.linalg.norm(amps))


def qutrit_partition():
    """dim_b = 3 with the first two exterior basis states equivalent."""
    return EquivalencePartition(3, [(0, 1)])


class TestProjector:
    def test_worked_example_matrix(self):
        P = build_projector(qutrit_partition())
        beta = np.array([1.0, 1.0, 0.0]) / SQ2
        expected = np.outer(beta, beta) + np.diag([0.0, 0.0, 1.0])
        assert np.allclose(P, expected, atol=1e-14)

    def test_idempotent(self):
        P = build_projector(qutrit_partition())
        assert np.max(np.abs(P @ P - P)) < 1e-10

    def test_difference_vector_in_kernel(self):
        P = build_projector(qutrit_partition())
        alpha = np.array([1.0, -1.0, 0.0]) / SQ2
        assert np.linalg.norm(P @ alpha) < 1e-14

    def test_empty_partition_gives_identity(self):
        part = EquivalencePartition(dim_b=4)
        P = build_projector(part)
        assert np.array_equal(P, np.eye(4, dtype=complex))

    @pytest.mark.parametrize("dim_b, groups", [
        (3, [(-1, 0)]),
        (3, [(0, 3)]),
        (3, [(0,)]),
        (5, [(0, 1), (1, 2)]),
        (3, [(0, 0)]),
        (3, [(0.5, 1)]),
    ], ids=["negative-index", "index-out-of-range", "singleton", "overlapping", "repeated-index",
            "non-integer-index"])
    def test_malformed_groups_rejected(self, dim_b, groups):
        with pytest.raises(ConfigError, match="equivalence classes"):
            EquivalencePartition(dim_b, groups)

    def test_general_subspace_remainder_orthonormal(self):
        for groups in ([(1, 3)], [(0, 2, 4)], [(0, 4), (1, 2, 3)]):
            part = EquivalencePartition(5, groups)
            basis = np.hstack([part.gammas, part.remainder])
            gram = basis.conj().T @ basis
            assert np.max(np.abs(gram - np.eye(basis.shape[1]))) < 1e-10

    def test_identity_on_remainder(self):
        part = EquivalencePartition(6, [(0, 2, 5)])
        P = build_projector(part)
        assert np.max(np.abs(P @ part.remainder - part.remainder)) < 1e-10


class TestPredictiveMap:
    def test_worked_example_coefficients(self):
        psi = BipartiteState(np.array([[0.5, 0.5, 0.0], [0.5, 0.0, 0.5]], dtype=complex))
        primed = predictive_map(psi, qutrit_partition())
        expected = np.array([[1 / SQ2, 0.0], [0.5, 0.5]], dtype=complex)
        assert np.allclose(primed.amplitudes, expected, atol=1e-14)
        assert primed.degenerate_phases == 0

    def test_remainder_only_state_unchanged(self):
        psi = BipartiteState(np.array([[0.0, 0.0, 0.6], [0.0, 0.0, 0.8]], dtype=complex))
        primed = predictive_map(psi, qutrit_partition())
        assert np.allclose(primed.amplitudes, [[0.0, 0.6], [0.0, 0.8]], atol=1e-14)

    def test_degenerate_phase_rule(self):
        psi = BipartiteState(np.array([[1 / SQ2, -1 / SQ2, 0.0], [0.0, 0.0, 0.0]], dtype=complex))
        primed = predictive_map(psi, qutrit_partition())
        # magnitude forced by the in-class mass, phase set to 1
        assert np.allclose(primed.amplitudes, [[1.0, 0.0], [0.0, 0.0]], atol=1e-14)
        assert primed.degenerate_phases == 1

    def test_small_in_class_sum_keeps_its_phase(self):
        """A class sum of 1.4e-9 sqrt(mass), between the 1e-12 cutoff and 1e-6, keeps its phase."""
        z = 1e-9 * np.exp(0.7j)
        amps = np.array([[0.5 + z / 2, -0.5 + z / 2, 0.0], [0.0, 0.0, 1 / SQ2]], dtype=complex)
        primed = predictive_map(BipartiteState(amps), qutrit_partition())
        assert primed.degenerate_phases == 0
        assert np.angle(primed.amplitudes[0, 0]) == pytest.approx(0.7, abs=1e-6)

    def test_output_normalized(self, rng):
        part = qutrit_partition()
        for _ in range(20):
            primed = predictive_map(random_state(rng, 3, 3), part)
            assert abs(np.linalg.norm(primed.amplitudes) - 1.0) < 1e-12

    def test_per_row_probability_preserved(self, rng):
        part = EquivalencePartition(6, [(0, 1, 2), (4, 5)])
        for _ in range(20):
            psi = random_state(rng, 4, 6)
            primed = predictive_map(psi, part)
            before = np.sum(np.abs(psi.amplitudes) ** 2, axis=1)
            after = np.sum(np.abs(primed.amplitudes) ** 2, axis=1)
            assert np.allclose(before, after, atol=1e-12)

    def test_partition_of_another_dim_b_rejected(self):
        psi = BipartiteState(np.array([[0.6, 0.0, 0.0, 0.8]], dtype=complex))
        with pytest.raises(ConfigError, match="state and partition disagree on dim_b"):
            predictive_map(psi, qutrit_partition())

    @given(st.integers(min_value=2, max_value=5), st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=30, deadline=None)
    def test_embedding_is_projection_image(self, dim_a, seed):
        rng = np.random.default_rng(seed)
        part = EquivalencePartition(5, [(1, 3)])
        psi = random_state(rng, dim_a, 5)
        primed = predictive_map(psi, part)
        embedded = primed.amplitudes @ np.hstack([part.gammas, part.remainder]).T
        P = build_projector(part)
        # embedded rows live in the image of P
        assert np.max(np.abs(embedded @ P.T.conj() - embedded)) < 1e-10


class TestReducedDensity:
    def test_product_state_pure(self):
        psi = BipartiteState(np.outer([1.0, 0.0], [0.6, 0.8]).astype(complex))
        rho = reduced_density(psi)
        assert von_neumann_entropy(rho) == pytest.approx(0.0, abs=1e-12)

    def test_bell_state(self):
        psi = BipartiteState(np.eye(2, dtype=complex) / SQ2)
        rho = reduced_density(psi)
        assert np.allclose(rho, np.eye(2) / 2, atol=1e-14)
        assert von_neumann_entropy(rho) == pytest.approx(1.0, abs=1e-12)

    def test_worked_example_matrix_entries(self, rng):
        a = rng.normal(size=6) + 1j * rng.normal(size=6)
        a /= np.linalg.norm(a)
        psi = BipartiteState(a.reshape(2, 3))
        rho = reduced_density(psi)
        a1, a2, a3, a4, a5, a6 = a
        assert rho[0, 0] == pytest.approx(abs(a1) ** 2 + abs(a2) ** 2 + abs(a3) ** 2, abs=1e-12)
        assert rho[0, 1] == pytest.approx(a1 * np.conj(a4) + a2 * np.conj(a5) + a3 * np.conj(a6), abs=1e-12)

    def test_entropies_equal_both_sides(self, rng):
        for _ in range(10):
            psi = random_state(rng, 3, 7)
            sa = von_neumann_entropy(reduced_density(psi))
            sb = von_neumann_entropy(reduced_density(BipartiteState(psi.amplitudes.T)))
            assert abs(sa - sb) < 1e-10


class TestPredictiveReducedDensity:
    def test_worked_example_offdiagonal(self):
        psi = BipartiteState(np.array([[0.5, 0.5, 0.0], [0.5, 0.0, 0.5]], dtype=complex))
        part = qutrit_partition()
        rho_plain = reduced_density(psi)
        rho_primed = reduced_density(predictive_map(psi, part))
        assert rho_plain[0, 1] == pytest.approx(0.25, abs=1e-14)
        assert rho_primed[0, 1] == pytest.approx(1 / (2 * SQ2), abs=1e-14)

    def test_no_equivalences_identity(self, rng):
        part = EquivalencePartition(dim_b=4)
        psi = random_state(rng, 2, 4)
        assert np.allclose(reduced_density(predictive_map(psi, part)),
                           reduced_density(psi), atol=1e-14)

    def test_diagonal_unchanged(self, rng):
        part = EquivalencePartition(5, [(0, 2, 4)])
        for _ in range(10):
            psi = random_state(rng, 3, 5)
            d1 = np.diag(reduced_density(psi))
            d2 = np.diag(reduced_density(predictive_map(psi, part)))
            assert np.allclose(d1, d2, atol=1e-12)

    def test_aligned_phases_reduce_to_plain_sums(self):
        # all in-class amplitudes equal: collapse keeps phase 1 and the
        # off-diagonal becomes sqrt(mass_1 * mass_2)
        amps = np.array([[0.5, 0.5, 0.0], [0.4, 0.4, 0.0]], dtype=complex)
        psi = BipartiteState(amps / np.linalg.norm(amps))
        rho = reduced_density(predictive_map(psi, qutrit_partition()))
        n = np.linalg.norm(amps)
        expected = np.sqrt(0.5 * 0.32) / n**2
        assert rho[0, 1] == pytest.approx(expected, abs=1e-12)


class TestEntropy:
    def test_pure(self):
        assert von_neumann_entropy(np.diag([1.0, 0.0])) == 0.0

    def test_maximally_mixed_qubit(self):
        assert von_neumann_entropy(np.diag([0.5, 0.5])) == pytest.approx(1.0, abs=1e-14)

    def test_worked_example_value(self):
        rho = np.array([[0.5, 1 / (2 * SQ2)], [1 / (2 * SQ2), 0.5]])
        # closed form: eigenvalues 1/2 +- 1/(2 sqrt 2)
        lam = np.array([0.5 + 1 / (2 * SQ2), 0.5 - 1 / (2 * SQ2)])
        expected = float(-(lam * np.log2(lam)).sum())
        assert von_neumann_entropy(rho) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.600876, abs=2e-6)

    def test_trace_validation(self):
        with pytest.raises(ConfigError):
            von_neumann_entropy(np.diag([0.7, 0.7]))

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(ConfigError):
            von_neumann_entropy(np.diag([1.1, -0.1]))

    def test_nan_matrix_rejected(self):
        with pytest.raises(ConfigError):
            von_neumann_entropy(np.full((2, 2), np.nan))

    @given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=40, deadline=None)
    def test_bounds(self, dim, seed):
        rng = np.random.default_rng(seed)
        m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        rho = m @ m.conj().T
        rho /= np.trace(rho).real
        s = von_neumann_entropy(rho)
        assert -1e-12 <= s <= np.log2(dim) + 1e-9


class TestPurityAndConjecture:
    def test_entropies_equal_for_pure_states(self, rng):
        for _ in range(5):
            psi = random_state(rng, 4, 9)
            assert abs(
                von_neumann_entropy(reduced_density(psi))
                - von_neumann_entropy(reduced_density(BipartiteState(psi.amplitudes.T)))
            ) < 1e-10

    def test_conjecture_on_random_states(self):
        """C <= S fails for a general predictive map: 7 of these 50 random states break it."""
        rng = np.random.default_rng(20260808)
        part = EquivalencePartition(5, [(0, 1, 2)])
        entropies = []
        for _ in range(50):
            psi = random_state(rng, 2, 5)
            entropies.append((von_neumann_entropy(reduced_density(psi)),
                              von_neumann_entropy(reduced_density(predictive_map(psi, part)))))
        s, c = np.array(entropies).T
        assert np.count_nonzero(c > s + 1e-9) == 7
        worst = int(np.argmax(c - s))
        assert c[worst] - s[worst] > 0.1


class TestEquivalenceLinearity:
    def test_superposition_of_equivalent_states(self, rng):
        """With dynamics blind to the exterior, equivalent states mix linearly."""
        dim_a, dim_b = 3, 4
        ua, _ = np.linalg.qr(rng.normal(size=(dim_a, dim_a)) + 1j * rng.normal(size=(dim_a, dim_a)))

        def dynamics(state, t):
            return BipartiteState(ua @ state.amplitudes)

        psi = rng.normal(size=dim_a) + 1j * rng.normal(size=dim_a)
        psi /= np.linalg.norm(psi)
        phi1 = np.eye(dim_b)[0].astype(complex)
        phi2 = np.eye(dim_b)[1].astype(complex)
        a1, a2 = 0.6, 0.8j
        phi3 = a1 * phi1 + a2 * phi2

        def evolved_rho(phi):
            amps = np.outer(psi, phi)
            state = BipartiteState(amps / np.linalg.norm(amps))
            return reduced_density(dynamics(state, 1.0))

        mixed = abs(a1) ** 2 * evolved_rho(phi1) + abs(a2) ** 2 * evolved_rho(phi2)
        assert np.max(np.abs(evolved_rho(phi3) - mixed)) < 1e-10


class TestEquivalenceResidual:
    @staticmethod
    def heisenberg_dynamics(cfg: ChainConfig, j: int):
        def dynamics(state, t):
            full = np.zeros(1 << cfg.N, dtype=complex)
            for a_idx in range(2):
                site = np.zeros(2, dtype=complex)
                site[a_idx] = 1.0
                full += joint_product_state(site, state.amplitudes[a_idx], j, cfg.N)
            evolved = full_evolve(cfg, full, t)
            return BipartiteState(site_bipartition(evolved, j, cfg.N))
        return dynamics

    def test_identical_states_zero(self, rng):
        cfg = ChainConfig(N=6)
        dyn = self.heisenberg_dynamics(cfg, 1)
        phi = np.zeros(1 << (cfg.N - 1), dtype=complex)
        phi[3] = 1.0
        psi = np.array([1.0, 1.0], dtype=complex) / SQ2
        assert equivalence_residual(phi, phi, psi, 2.0, dyn) < 1e-12

    def test_zero_at_t0(self):
        cfg = ChainConfig(N=6)
        dyn = self.heisenberg_dynamics(cfg, 1)
        dim_b = 1 << (cfg.N - 1)
        phi1 = np.zeros(dim_b, dtype=complex)
        phi2 = np.zeros(dim_b, dtype=complex)
        phi1[1] = 1.0
        phi2[2] = 1.0
        psi = np.array([1.0, 0.0], dtype=complex)
        assert equivalence_residual(phi1, phi2, psi, 0.0, dyn) < 1e-12

    def test_grows_with_time_for_distant_difference(self):
        """Exterior states differing far from the site stay equivalent briefly."""
        cfg = ChainConfig(N=8)
        j = 1
        dyn = self.heisenberg_dynamics(cfg, j)
        # single flips at sites 4 and 5: circular distance >= 3 from site 1.
        # Exterior bit order follows the remaining sites (2..8).
        dim_b = 1 << (cfg.N - 1)
        phi1 = np.zeros(dim_b, dtype=complex)
        phi2 = np.zeros(dim_b, dtype=complex)
        phi1[1 << (cfg.N - 1 - 3)] = 1.0  # flip at site 4
        phi2[1 << (cfg.N - 1 - 4)] = 1.0  # flip at site 5
        psi = np.array([1.0, 1.0], dtype=complex) / SQ2
        residuals = [equivalence_residual(phi1, phi2, psi, t, dyn)
                     for t in (0.0, 0.25, 0.5, 0.75, 1.0)]
        assert residuals[0] < 1e-12
        assert all(residuals[k + 1] >= residuals[k] - 1e-9 for k in range(4))
        assert residuals[-1] > residuals[0]


class TestWorkedExample:
    def test_default_numbers(self):
        report = worked_qubit_qutrit_example()
        assert report["rho_a"][0, 1] == pytest.approx(0.25, abs=1e-14)
        assert report["rho_a_primed"][0, 1] == pytest.approx(1 / (2 * SQ2), abs=1e-14)
        assert report["entropy_bits"] == pytest.approx(0.811278, abs=2e-6)
        assert report["complexity_bits"] == pytest.approx(0.600876, abs=2e-6)
        assert report["complexity_bits"] < report["entropy_bits"]

    def test_zero_weight_on_equivalent_pair(self):
        report = worked_qubit_qutrit_example((0.0, 0.0, 1 / SQ2, 0.0, 0.0, 1 / SQ2))
        assert np.allclose(report["rho_a"], report["rho_a_primed"], atol=1e-14)

    def test_antisymmetric_pair_flags_degenerate_phase(self):
        report = worked_qubit_qutrit_example((1 / SQ2, -1 / SQ2, 0.0, 0.0, 0.0, 0.0))
        assert report["degenerate_phases"] == 1

    def test_unnormalized_input_flagged(self):
        report = worked_qubit_qutrit_example((1.0, 1.0, 0.0, 1.0, 0.0, 1.0))
        assert report["renormalized"]


    @pytest.mark.parametrize("scale", [1e308, 1e-320])
    def test_normalization_is_scale_free(self, scale):
        """Amplitudes whose plain norm overflows or underflows give the unit-scale report."""
        unit = (1.0, 0.0, 0.0, 0.0, 0.0, 1.0)
        report = worked_qubit_qutrit_example(tuple(scale * a for a in unit))
        expected = worked_qubit_qutrit_example(unit)
        assert report["renormalized"]
        for key in ("primed_coefficients", "rho_a", "rho_a_primed"):
            assert np.array_equal(report[key], expected[key])
        assert report["entropy_bits"] == expected["entropy_bits"] == pytest.approx(1.0)

    def test_product_state_entropy_is_zero(self):
        """Rounding may put an eigenvalue of rho just above 1; the entropy stays 0, not -0 or below."""
        report = worked_qubit_qutrit_example((1.0,) * 6)
        assert report["entropy_bits"] == report["complexity_bits"] == 0.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_amplitude_rejected(self, bad):
        with pytest.raises(ConfigError):
            worked_qubit_qutrit_example((bad, 0.0, 0.0, 0.0, 0.0, 0.0))

    def test_nan_state_rejected(self):
        with pytest.raises(ConfigError):
            BipartiteState(np.full((2, 3), np.nan))

    def test_one_dimensional_state_rejected(self):
        with pytest.raises(ConfigError, match=r"amplitudes must be a 2-D \(dim_a, dim_b\) array"):
            BipartiteState(np.array([0.6, 0.8]))

    def test_five_amplitudes_rejected(self):
        with pytest.raises(ConfigError, match="need exactly six amplitudes a1..a6"):
            worked_qubit_qutrit_example((0.5, 0.5, 0.0, 0.5, 0.5))


class TestTraceDistance:
    def test_identical(self):
        rho = np.diag([0.3, 0.7])
        assert trace_distance(rho, rho) == 0.0

    def test_orthogonal_pure_states(self):
        assert trace_distance(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])) == pytest.approx(1.0, abs=1e-14)
