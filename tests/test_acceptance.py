"""Acceptance suite: every criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to get one pass/fail
line per criterion.
"""

from math import comb

import numpy as np

from oracles import exterior_state_and_partition, full_space_oracle, state_trace_distance
from pcx.analysis import equilibrium_stats, peak_ratio, spacetime_scan
from pcx.bethe import enumerate_roots
from pcx.chain import ChainConfig, SpectralEngine
from pcx.cli import main
from pcx.horizon import HorizonSpec, classify_pairs, two_level_entropy_bits
from pcx.predictive import (
    BipartiteState,
    EquivalencePartition,
    predictive_map,
    reduced_density,
    von_neumann_entropy,
    worked_qubit_qutrit_example,
)

WINDOW = (100.0, 200.0)


def report(criterion: str, detail: str, ok: bool):
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def test_criterion_1_entropy_peak_ratio(recipe_series):
    stats = equilibrium_stats(recipe_series.times, recipe_series.entropy, WINDOW)
    ratio = peak_ratio(recipe_series.times, recipe_series.entropy, 9.0, stats)
    report("AC-1 entropy collision-peak ratio",
           f"S(peak near 9.0)/<S> = {ratio:.4f}, target 2.08 +- 0.21",
           abs(ratio - 2.08) <= 0.21)


def test_criterion_2_complexity_peak_ratio(recipe_series):
    c = recipe_series.complexity[1]
    stats = equilibrium_stats(recipe_series.times, c, WINDOW)
    ratio = peak_ratio(recipe_series.times, c, 9.0, stats)
    report("AC-2 complexity collision-peak ratio (r_h=1)",
           f"C(peak near 9.0)/<C> = {ratio:.4f}, target 4.13 +- 0.41",
           abs(ratio - 4.13) <= 0.41)


def test_criterion_3_peak_time(recipe_series):
    s = recipe_series.entropy
    times = recipe_series.times
    threshold = 0.5 * s.max()
    t_first = None
    for i in range(1, len(times) - 1):
        if s[i] >= threshold and s[i] >= s[i - 1] and s[i] >= s[i + 1]:
            t_first = float(times[i])
            break
    report("AC-3 first pronounced entropy maximum",
           f"t = {t_first}, target 9.0 +- 0.5",
           t_first is not None and abs(t_first - 9.0) <= 0.5)


def test_criterion_4_fluctuation_suppression(recipe_series):
    t = recipe_series.times
    std_s = equilibrium_stats(t, recipe_series.entropy, WINDOW).std
    std_c = equilibrium_stats(t, recipe_series.complexity[1], WINDOW).std
    ratio = std_s / std_c
    report("AC-4 fluctuation suppression",
           f"std(S)/std(C, r_h=1) = {ratio:.4f}, target within [1.5, 2.5]",
           1.5 <= ratio <= 2.5)


def test_criterion_5_conjecture_monitor(recipe_scan):
    s_grid = next(g for g in recipe_scan if g.kind == "S")
    worst = -np.inf
    for grid in recipe_scan:
        if grid.kind != "C":
            continue
        worst = max(worst, float(np.max(grid.values - s_grid.values)))
    report("AC-5 complexity bounded by entropy on the default scan",
           f"max(C - S) over all (site, t, r_h) cells = {worst:.3e}, tolerance 1e-9",
           worst <= 1e-9)


def test_criterion_6_small_instance_oracles(rng):
    worst_evolution = 0.0
    worst_fast_path = 0.0
    for N in (6, 8):
        cfg = ChainConfig(N=N)
        engine = SpectralEngine(cfg)
        for _ in range(3):
            n1 = int(rng.integers(1, N))
            n2 = int(rng.integers(n1 + 1, N + 1))
            for t in (0.5, 2.0, 5.0):
                b = engine.pair_amplitudes(n1, n2, t)
                oracle = full_space_oracle(cfg, n1, n2, t)
                worst_evolution = max(worst_evolution, state_trace_distance(b, oracle))
            s_grid, c_grid = spacetime_scan(engine, (n1, n2), (1,), 0.5, 5.0)
            for k, t in enumerate(s_grid.times):
                b = engine.pair_amplitudes(n1, n2, float(t))
                for j in (1, 1 + N // 2):
                    state, part = exterior_state_and_partition(b, HorizonSpec(j=j, r_h=1, N=N))
                    s_gap = abs(s_grid.values[j - 1, k] - von_neumann_entropy(reduced_density(state)))
                    primed = reduced_density(predictive_map(state, part))
                    c_gap = abs(c_grid.values[j - 1, k] - von_neumann_entropy(primed))
                    worst_fast_path = max(worst_fast_path, s_gap, c_gap)
    report("AC-6 small-instance oracle equivalence",
           f"sector-vs-2^N trace distance {worst_evolution:.2e} (<1e-10), "
           f"kernel S and C vs generic rho_A and rho'_A entropies {worst_fast_path:.2e} (<1e-10)",
           worst_evolution < 1e-10 and worst_fast_path < 1e-10)


def test_criterion_7_bethe_backend_parity(cfg32, engine32, dense_engine32, bethe_engine32):
    roots = enumerate_roots(cfg32)
    n_roots = len(roots)
    diag = np.sort(dense_engine32.spectral.eigenvalues)
    bethe = np.sort(roots.energy)
    mismatch = float(np.max(np.abs(diag - bethe)))
    worst = 0.0
    for t in (1.0, 9.0, 50.0):
        u = engine32.pair_amplitudes(10, 25, t)
        v = bethe_engine32.pair_amplitudes(10, 25, t)
        worst = max(worst, state_trace_distance(u, v))
    report("AC-7 Bethe backend parity",
           f"{n_roots} roots (need 496), spectrum mismatch {mismatch:.2e} (<1e-6), "
           f"evolution distance {worst:.2e} (<1e-6)",
           n_roots == 496 and mismatch < 1e-6 and worst < 1e-6)


def test_criterion_8_structural_invariants(cfg32, engine32):
    b = engine32.pair_amplitudes(10, 25, 9.0)
    spec = HorizonSpec(j=17, r_h=2, N=32)
    state, part = exterior_state_and_partition(b, spec)
    plain = reduced_density(state)
    off_plain = abs(plain[0, 1])
    primed = reduced_density(predictive_map(state, part))
    cls = classify_pairs(spec)
    diag_gap = max(abs(primed[0, 0] - plain[0, 0]), abs(primed[1, 1] - plain[1, 1]))
    phase_gap = abs(
        two_level_entropy_bits(primed[0, 0].real, abs(primed[0, 1]))
        - von_neumann_entropy(primed)
    )
    sizes_ok = (
        cls.n_type_i == 351
        and len(cls.type_ii) == 4
        and all(len(idx) == 27 for _, idx in cls.type_ii)
        and len(cls.type_iii) == 6
    )
    covered = np.concatenate(
        [cls.type_i, cls.type_iii, cls.focus_out, cls.focus_in]
        + [idx for _, idx in cls.type_ii]
    )
    partition_ok = sorted(covered) == list(range(comb(32, 2)))
    # off-diagonal of rho'_A nonzero at the collision (r_h=1 case)
    state1, part1 = exterior_state_and_partition(b, HorizonSpec(j=17, r_h=1, N=32))
    off_primed = abs(reduced_density(predictive_map(state1, part1))[0, 1])
    report("AC-8 structural invariants",
           f"rho_A off-diag {off_plain:.1e} (==0), diag gap {diag_gap:.1e} (<1e-12), "
           f"phase independence {phase_gap:.1e} (<1e-12), sizes 351/4x27/6 {sizes_ok}, "
           f"partition {partition_ok}, rho'_A off-diag at collision {off_primed:.2e} (>0)",
           off_plain == 0.0 and diag_gap < 1e-12 and phase_gap < 1e-12
           and sizes_ok and partition_ok and off_primed > 1e-6)


def test_criterion_9_worked_example_regression():
    report_dict = worked_qubit_qutrit_example()
    off = report_dict["rho_a_primed"][0, 1]
    s_bits = report_dict["entropy_bits"]
    c_bits = report_dict["complexity_bits"]
    # independently via the generic oracle route
    psi = BipartiteState(np.array([[0.5, 0.5, 0.0], [0.5, 0.0, 0.5]], dtype=complex))
    part = EquivalencePartition.from_index_groups(3, [(0, 1)])
    oracle_rho = reduced_density(predictive_map(psi, part), side="a")
    oracle_gap = float(np.max(np.abs(oracle_rho - report_dict["rho_a_primed"])))
    ok = (
        abs(off - 1 / (2 * np.sqrt(2))) < 1e-12
        and abs(c_bits - 0.600876) < 5e-5
        and abs(s_bits - 0.811278) < 5e-5
        and c_bits < s_bits
        and oracle_gap < 1e-12
    )
    report("AC-9 worked-example regression",
           f"rho'_A off-diag {off.real:.6f} (1/(2 sqrt 2)), C {c_bits:.4f} < S {s_bits:.4f}, "
           f"oracle gap {oracle_gap:.1e}",
           ok)


def test_criterion_10_determinism(tmp_path, run_cli):
    args = ["scan", "--sites", "12", "--flips", "3,7", "--horizon", "1,2",
            "--dt", "0.5", "--tmax", "12"]
    payloads = []
    for name in ("r1", "r2", "r3"):
        out = tmp_path / name
        if name == "r2":  # a fresh interpreter
            assert run_cli(args + ["--out", str(out)]).returncode == 0
        else:
            assert main(args + ["--out", str(out)]) == 0
        payloads.append((out / "scan.csv").read_bytes())
    identical = payloads[0] == payloads[1] == payloads[2]
    report("AC-10 determinism",
           f"scan.csv byte-identical across reruns in this and a fresh process "
           f"(one machine, numpy build and BLAS kernel): {identical}",
           identical)
