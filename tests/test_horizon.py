import tracemalloc
from math import comb

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import exterior_state_and_partition, full_space_oracle, pair_permutation
from pcx.analysis import _observables, site_series
from pcx.chain import ChainConfig, SpectralEngine, all_pairs, pair_index
from pcx.errors import ConfigError
from pcx.horizon import HorizonSpec, classify_pairs, two_level_entropy_bits
from pcx.predictive import (
    predictive_map,
    reduced_density,
    von_neumann_entropy,
)


def generic_rhos(b, spec):
    """rho_A and rho'_A of the focal site through the generic predictive map."""
    state, part = exterior_state_and_partition(b, spec)
    return reduced_density(state), reduced_density(predictive_map(state, part))


def kernel_gap(engine, flips, spec, times):
    """Largest gap of the kernel's S and C(r_h) from the generic route's entropies."""
    entropy, complexity = _observables(engine, flips, range(spec.j, spec.j + 1), (spec.r_h,),
                                       np.asarray(times))
    worst = 0.0
    for k, t in enumerate(times):
        plain, primed = generic_rhos(engine.pair_amplitudes(*flips, float(t)), spec)
        worst = max(worst, abs(entropy[0, k] - von_neumann_entropy(plain)),
                    abs(complexity[spec.r_h][0, k] - von_neumann_entropy(primed)))
    return worst


class TestHorizonSpec:
    def test_membership_is_circular(self):
        spec = HorizonSpec(j=1, r_h=2, N=32)
        assert spec.is_inside(31) and spec.is_inside(3) and not spec.is_inside(4)

    def test_degenerate_horizon_rejected(self):
        with pytest.raises(ConfigError):
            HorizonSpec(j=1, r_h=16, N=32)

    def test_odd_ring_horizon_covering_it_rejected(self):
        """2 r_h + 1 = N on an odd ring leaves no site outside the window."""
        with pytest.raises(ConfigError, match="degenerate horizon"):
            HorizonSpec(j=5, r_h=15, N=31)
        HorizonSpec(j=5, r_h=14, N=31)

    def test_site_range_checked(self):
        with pytest.raises(ConfigError):
            HorizonSpec(j=0, r_h=1, N=32)


class TestClassifyPairs:
    def test_reference_sizes_rh2(self):
        """351 outside-pairs, four 27-member one-inside classes, six singletons."""
        cls = classify_pairs(HorizonSpec(j=17, r_h=2, N=32))
        assert cls.n_type_i == 351
        assert len(cls.type_ii) == 4
        assert all(len(idx) == 27 for _, idx in cls.type_ii)
        assert len(cls.type_iii) == 6

    def test_reference_sizes_rh1(self):
        cls = classify_pairs(HorizonSpec(j=17, r_h=1, N=32))
        assert cls.n_type_i == comb(29, 2) == 406
        assert len(cls.type_ii) == 2
        assert all(len(idx) == 29 for _, idx in cls.type_ii)
        assert len(cls.type_iii) == 1

    @pytest.mark.parametrize("j", [1, 9, 32])
    @pytest.mark.parametrize("r_h", [1, 2, 3])
    def test_exhaustive_partition(self, j, r_h):
        """Every pair lands in exactly one bucket, focal pairs tracked apart."""
        N = 32
        cls = classify_pairs(HorizonSpec(j=j, r_h=r_h, N=N))
        n_out = N - (2 * r_h + 1)
        assert cls.n_type_i == comb(n_out, 2)
        assert len(cls.type_ii) == 2 * r_h
        assert len(cls.type_iii) == comb(2 * r_h, 2)
        assert len(cls.focus_out) == n_out
        assert len(cls.focus_in) == 2 * r_h
        covered = np.concatenate(
            [cls.type_i, cls.type_iii, cls.focus_out, cls.focus_in]
            + [idx for _, idx in cls.type_ii]
        )
        assert sorted(covered) == list(range(comb(N, 2)))

    def test_label_accessor(self):
        spec = HorizonSpec(j=5, r_h=1, N=10)
        cls = classify_pairs(spec)
        type_ii = dict(cls.type_ii)
        assert pair_index(1, 9, 10) in cls.type_i
        assert pair_index(4, 8, 10) in type_ii[4]
        assert pair_index(4, 6, 10) in cls.type_iii
        assert pair_index(5, 9, 10) in cls.focus_out
        assert pair_index(5, 6, 10) in cls.focus_in

    def test_type_ii_keyed_by_inside_site(self):
        spec = HorizonSpec(j=5, r_h=1, N=10)
        cls = classify_pairs(spec)
        assert tuple(s for s, _ in cls.type_ii) == (4, 6)
        n1s, n2s = all_pairs(10)
        for s_in, idx in cls.type_ii:
            for flat in idx:
                a, b = int(n1s[flat]), int(n2s[flat])
                assert s_in in (a, b)
                other = b if a == s_in else a
                assert not spec.is_inside(other)


class TestAmplitudes:
    def test_t0_is_point_mass(self, engine8):
        b = engine8.pair_amplitudes(2, 5, 0.0)
        expected = np.zeros(engine8.dim, dtype=complex)
        expected[pair_index(2, 5, 8)] = 1.0
        assert np.array_equal(b, expected)

    def test_normalized(self, engine32):
        b = engine32.pair_amplitudes(10, 25, 7.7)
        assert abs(np.sum(np.abs(b) ** 2) - 1.0) < 1e-10

    def test_reflection_symmetry(self, engine32):
        """Flips (10, 25) are symmetric under the reflection fixing their midpoint."""
        N = 32
        reflect = pair_permutation(N, lambda s: (35 - s - 1) % N + 1)
        b = engine32.pair_amplitudes(10, 25, 6.0)
        assert np.max(np.abs(b[reflect] - b)) < 1e-10

    def test_matches_full_space_oracle(self, engine8):
        b = engine8.pair_amplitudes(1, 4, 2.0)
        oracle = full_space_oracle(engine8.cfg, 1, 4, 2.0)
        assert np.max(np.abs(b - oracle)) < 1e-10


class TestRhoSite:
    def test_t0_unflipped_site(self, engine8):
        b = engine8.pair_amplitudes(2, 5, 0.0)
        rho, _ = generic_rhos(b, HorizonSpec(j=7, r_h=1, N=8))
        assert np.allclose(rho, np.diag([0.0, 1.0]), atol=1e-14)
        assert two_level_entropy_bits(rho[0, 0].real) == 0.0

    def test_t0_flipped_site(self, engine8):
        b = engine8.pair_amplitudes(2, 5, 0.0)
        rho, _ = generic_rhos(b, HorizonSpec(j=2, r_h=1, N=8))
        assert np.allclose(rho, np.diag([1.0, 0.0]), atol=1e-14)

    def test_trace_one_generic_time(self, engine32):
        """rho_A is diagonal: the site's two states hold disjoint exterior sectors."""
        b = engine32.pair_amplitudes(10, 25, 13.4)
        rho, _ = generic_rhos(b, HorizonSpec(j=17, r_h=1, N=32))
        assert abs(np.trace(rho).real - 1.0) < 1e-12
        assert rho[0, 1] == 0.0 and rho[1, 0] == 0.0


class TestRhoPredictive:
    def test_diagonal_matches_site(self, engine32):
        """Each class keeps its probability, so rho'_A keeps the diagonal of rho_A."""
        b = engine32.pair_amplitudes(10, 25, 9.0)
        plain, primed = generic_rhos(b, HorizonSpec(j=17, r_h=2, N=32))
        assert abs(primed[0, 0] - plain[0, 0]) < 1e-14
        assert abs(primed[1, 1] - plain[1, 1]) < 1e-14

    def test_t0_far_site_product_state(self, engine32):
        b = engine32.pair_amplitudes(10, 25, 0.0)
        _, rho = generic_rhos(b, HorizonSpec(j=17, r_h=1, N=32))
        assert rho[0, 1] == 0.0
        assert von_neumann_entropy(rho) == 0.0

    def test_offdiagonal_nonzero_at_collision(self, engine32):
        b = engine32.pair_amplitudes(10, 25, 9.0)
        _, rho = generic_rhos(b, HorizonSpec(j=17, r_h=1, N=32))
        assert abs(rho[0, 1]) > 1e-3

    @pytest.mark.parametrize("N", [6, 8])
    def test_fast_path_matches_generic_pipeline(self, N):
        """The kernel's S and C equal the entropies of the generic rho_A and rho'_A."""
        engine = SpectralEngine(ChainConfig(N=N))
        worst = 0.0
        for j in (1, N // 2):
            for r_h in (1,) + ((2,) if N >= 8 else ()):
                spec = HorizonSpec(j=j, r_h=r_h, N=N)
                worst = max(worst, kernel_gap(engine, (1, 3), spec, (0.0, 0.5, 2.0, 5.0)))
        assert worst < 1e-10

    def test_fast_path_matches_generic_at_reference_size(self, engine32):
        """Spot check at N=32, site 17, the collision time."""
        assert kernel_gap(engine32, (10, 25), HorizonSpec(j=17, r_h=2, N=32), (9.0,)) < 1e-12

    def test_fast_path_at_minimal_exterior(self):
        """n_out = 1: the merged class degenerates to a singleton."""
        engine = SpectralEngine(ChainConfig(N=6))
        assert kernel_gap(engine, (1, 3), HorizonSpec(j=2, r_h=2, N=6), (1.7,)) < 1e-10

    def test_phase_independence_of_entropy(self, engine32):
        """|off-diagonal| alone fixes the complexity."""
        b = engine32.pair_amplitudes(10, 25, 9.0)
        _, rho = generic_rhos(b, HorizonSpec(j=17, r_h=2, N=32))
        with_phase = von_neumann_entropy(rho)
        assert abs(two_level_entropy_bits(rho[0, 0].real, abs(rho[0, 1])) - with_phase) < 1e-12


class TestSiteSeries:
    def test_initial_values_zero(self, recipe_series):
        assert recipe_series.entropy[0][0] == 0.0
        assert all(recipe_series.complexity[r][0][0] == 0.0 for r in (1, 2, 3))

    def test_single_qubit_bounds(self, recipe_series):
        s = recipe_series.entropy
        assert (s >= 0).all() and (s <= 1.0 + 1e-12).all()
        for r in (1, 2, 3):
            c = recipe_series.complexity[r]
            assert (c >= 0).all() and (c <= 1.0 + 1e-12).all()

    def test_complexity_below_entropy(self, recipe_series):
        for r in (1, 2, 3):
            assert (recipe_series.complexity[r] <= recipe_series.entropy + 1e-9).all()

    def test_first_entropy_peak_near_collision_time(self, recipe_series):
        """First pronounced maximum of S at site 17 sits at t = 9.0 +- 0.5."""
        s = recipe_series.entropy[0]
        times = recipe_series.times
        threshold = 0.5 * s.max()
        for i in range(1, len(times) - 1):
            if s[i] >= threshold and s[i] >= s[i - 1] and s[i] >= s[i + 1]:
                assert abs(times[i] - 9.0) <= 0.5
                break
        else:
            pytest.fail("no pronounced peak found")

    def test_magnitude_only_path_matches_full_rho(self, cfg32, engine32):
        spec = HorizonSpec(j=17, r_h=1, N=32)
        series = site_series(engine32, (10, 25), 17, (1,), 0.5, 3.0)
        for k, t in enumerate(series.times):
            _, rho = generic_rhos(engine32.pair_amplitudes(10, 25, float(t)), spec)
            assert abs(series.complexity[1][0][k] - von_neumann_entropy(rho)) < 1e-12


class TestTwoLevelEntropy:
    def test_pure_limits(self):
        assert two_level_entropy_bits(0.0) == 0.0
        assert two_level_entropy_bits(1.0) == 0.0

    def test_maximally_mixed(self):
        assert two_level_entropy_bits(0.5) == pytest.approx(1.0, abs=1e-14)

    def test_offdiagonal_lowers_entropy(self):
        assert two_level_entropy_bits(0.5, 0.25) < two_level_entropy_bits(0.5)

    def test_nan_stays_nan(self):
        """A NaN diagonal or off-diagonal gives NaN bits, not the 0 bits of a pure state."""
        assert np.isnan(two_level_entropy_bits(np.nan))
        assert np.isnan(two_level_entropy_bits(0.5, np.nan))
        assert np.isnan(two_level_entropy_bits(np.array([0.5, np.nan, 1.0]))).tolist() == [False, True, False]

    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0),
           st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)), min_size=1, max_size=8))
    def test_offdiagonal_never_raises_entropy(self, p, u, pairs):
        """C <= S on the chain: an off-diagonal |c| <= sqrt(p(1-p)) only lowers the entropy.

        Near p = 1/2 a tiny c can raise the rounded result by an ulp or two.
        """
        rounding = 4 * np.finfo(float).eps
        c = u * np.sqrt(p * (1.0 - p))
        assert two_level_entropy_bits(p, c) <= two_level_entropy_bits(p) + rounding
        ps = np.array([q for q, _ in pairs])
        cs = np.array([v for _, v in pairs]) * np.sqrt(ps * (1.0 - ps))
        with_c, without_c = two_level_entropy_bits(ps, cs), two_level_entropy_bits(ps)
        assert with_c.shape == without_c.shape == ps.shape
        assert np.all(with_c <= without_c + rounding)

    def test_block_peak_within_four_blocks(self, rng):
        """On a kernel-shaped block, the temporaries peak at no more than 4x the block's bytes."""
        p_down, offdiag = rng.random((32, 256)), 0.5 * rng.random((4, 32, 256))
        tracemalloc.start()
        try:
            two_level_entropy_bits(p_down, offdiag)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * offdiag.nbytes

    def test_bits_of_the_stacked_formula(self, rng):
        """Bit for bit the stacked-eigenvalue formula, also at p = 0, 1/2, 1 and a zero off-diagonal."""
        p_down, offdiag = rng.random((32, 101)), 0.5 * rng.random((4, 32, 101))
        p_down[:3, :10] = [[0.0], [0.5], [1.0]]
        offdiag[:, :3, :5] = 0.0
        offdiag[1, 1, :10] = 0.5  # p = 1/2 with |off-diagonal| 1/2: eigenvalues 1 and 0
        half_gap = np.sqrt(0.25 * (2.0 * p_down - 1.0) ** 2 + offdiag**2)
        lams = np.clip(np.stack([0.5 + half_gap, 0.5 - half_gap]), 0.0, 1.0)
        positive = lams > 0
        terms = np.where(positive, lams * np.log2(np.where(positive, lams, 1.0)), 0.0)
        assert two_level_entropy_bits(p_down, offdiag).tobytes() == (-(terms[0] + terms[1]) + 0.0).tobytes()

    def test_matches_general_eigensolver(self, rng):
        for _ in range(25):
            p = float(rng.uniform(0, 1))
            cmax = float(np.sqrt(p * (1 - p)))
            c = float(rng.uniform(0, cmax))
            phase = np.exp(1j * rng.uniform(0, 2 * np.pi))
            rho = np.array([[p, c * phase], [np.conj(c * phase), 1 - p]])
            assert two_level_entropy_bits(p, c) == pytest.approx(
                von_neumann_entropy(rho), abs=1e-10
            )
