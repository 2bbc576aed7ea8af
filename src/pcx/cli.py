"""Command-line front end.

Subcommands: spectrum (sector eigenvalues, optionally from the Bethe
backend with per-root diagnostics), series (per-site S and C columns with
equilibrium and peak footers), scan (long-format CSV plus one grayscale
PGM per grid), example (the 2x3 worked example).  Defaults mirror the
reference recipe: N=32, J=1, flips 10 and 25, dt=0.2.

Exit codes: 0 success, 2 configuration or input error, 3 I/O error, 4 solver
failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import analysis, io
from .analysis import site_series
from .bethe import BetheEngine, dispersion
from .chain import ChainConfig, SpectralEngine
from .errors import ConfigError, NormalizationError, PeakNotFoundError, SolverError, StatsError
from .predictive import worked_qubit_qutrit_example

PEAK_HINT = 9.0
PEAK_HINT_FLIPS = (10, 25)


def _parse_int_pair(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected two comma-separated integers, got {text!r}")
    return int(parts[0]), int(parts[1])


def _parse_int_list(text: str) -> tuple[int, ...]:
    parts = text.split(",")
    if "" in parts:
        raise argparse.ArgumentTypeError(f"empty horizon radius in {text!r}")
    try:
        return tuple(int(p) for p in parts)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _parse_float_pair(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected two comma-separated numbers, got {text!r}")
    return float(parts[0]), float(parts[1])


def _add_chain(p: argparse.ArgumentParser):
    p.add_argument("--sites", type=int, default=32, metavar="N", help="number of chain sites")
    p.add_argument("--coupling", type=float, default=1.0, metavar="J", help="exchange coupling")
    p.add_argument("--engine", choices=("spectral", "bethe"), default="spectral")
    p.add_argument("--out", default=".", metavar="DIR", help="output directory")


def _add_run(p: argparse.ArgumentParser):
    _add_chain(p)
    p.add_argument("--flips", type=_parse_int_pair, default=(10, 25), metavar="a,b",
                   help="initially flipped sites")
    p.add_argument("--horizon", type=_parse_int_list, default=(1, 2, 3), metavar="r[,r...]",
                   help="horizon radii for the complexity")
    p.add_argument("--dt", type=float, default=0.2, help="time step (hbar per energy unit)")
    p.add_argument("--tmax", type=float, default=200.0, help="final time (hbar per energy unit)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pcx",
        description="Entanglement entropy and predictive complexity of single sites "
                    "in two-magnon chain dynamics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_spec = sub.add_parser("spectrum", help="sector eigenvalues to CSV")
    _add_chain(p_spec)

    p_series = sub.add_parser("series", help="per-site S and C time series to CSV")
    _add_run(p_series)
    p_series.add_argument("--site", type=int, default=None, metavar="j", help="focal site")
    p_series.add_argument("--eq-window", type=_parse_float_pair, default=None, metavar="t0,t1",
                          help="equilibrium window (default: second half of the run)")

    p_scan = sub.add_parser("scan", help="spacetime grids to CSV and PGM images")
    _add_run(p_scan)

    p_ex = sub.add_parser("example", help="2x3 worked example of the predictive map")
    p_ex.add_argument("--amplitudes", default=None, metavar="a1,...,a6",
                      help="six complex amplitudes (python literals)")
    return parser


def _make_engine(cfg: ChainConfig, name: str):
    return SpectralEngine(cfg) if name == "spectral" else BetheEngine(cfg)


def _chain_config(args) -> ChainConfig:
    return ChainConfig(N=args.sites, J=args.coupling)


def _eq_window(args) -> tuple[float, float]:
    """--eq-window checked against the run, or the second half of the run."""
    if args.eq_window is None:
        return (0.5 * args.tmax, args.tmax)
    t0, t1 = args.eq_window
    if not (0.0 <= t0 <= t1 <= args.tmax):
        raise ConfigError(f"equilibrium window {args.eq_window} outside the run [0, {args.tmax}]")
    return args.eq_window


def _run_header(args, cfg: ChainConfig) -> list[str]:
    return [
        "time in hbar per energy unit, J in that unit; entropies and complexities in bits",
        f"N={cfg.N} J={io.fmt(cfg.J)} flips={args.flips[0]},{args.flips[1]} "
        f"dt={io.fmt(args.dt)} tmax={io.fmt(args.tmax)} engine={args.engine}",
    ]


def _levels_by_block(engine) -> np.ndarray:
    """An engine's levels grouped by momentum block, ascending within a block."""
    return engine.eigenvalues[np.lexsort((engine.eigenvalues, engine.momenta))]


def cmd_spectrum(args) -> int:
    cfg = _chain_config(args)
    levels = _levels_by_block(SpectralEngine(cfg))  # only the levels outlive this engine
    footer = []
    if args.engine == "spectral":
        rows = [(i, e, "", "") for i, e in enumerate(np.sort(levels))]
    else:
        engine = BetheEngine(cfg)
        energy, kind = engine.roots.energy, engine.roots.kind
        residual = np.abs(energy - dispersion(cfg, engine.roots.k1, engine.roots.k2).real)
        order = np.argsort(energy, kind="stable")  # ties keep root order
        rows = list(zip(range(len(order)), energy[order].tolist(), kind[order].tolist(),
                        residual[order].tolist()))
        mismatch = np.abs(_levels_by_block(engine) - levels).max()
        footer.append(f"max_abs_energy_mismatch_vs_diagonalization={io.fmt(mismatch)}")
        names, counts = np.unique(kind, return_counts=True)
        footer.append("class_counts=" + " ".join(f"{k}:{v}" for k, v in zip(names, counts)))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    io.write_csv(
        out / "spectrum.csv",
        ("index", "energy", "class", "dispersion_residual"),
        rows,
        preamble=[f"sector eigenvalues relative to e0; energies in the same unit as J; N={cfg.N} J={io.fmt(cfg.J)} engine={args.engine}"],
        footer=footer,
    )
    print(f"wrote {out / 'spectrum.csv'} ({len(rows)} rows)")
    return 0


def _series_footer(args, series, window) -> list[str]:
    footer = [f"equilibrium window: [{io.fmt(window[0])}, {io.fmt(window[1])}], std=population"]
    columns = [("S_bits", series.entropy)]
    columns += [(f"C_bits_rh{r}", series.complexity[r]) for r in sorted(series.complexity)]
    try:
        stats = {name: analysis.equilibrium_stats(series.times, vals, window) for name, vals in columns}
    except StatsError as exc:
        footer.append(f"equilibrium stats omitted: {exc}")
        return footer
    for name, _ in columns:
        st = stats[name]
        footer.append(f"eq_mean {name} {io.fmt(st.mean)}")
        footer.append(f"eq_std {name} {io.fmt(st.std)}")
    if tuple(args.flips) == PEAK_HINT_FLIPS:
        for name, vals in columns:
            try:
                ratio = analysis.peak_ratio(series.times, vals, PEAK_HINT, stats[name])
                i = analysis.nearest_peak(series.times, vals, PEAK_HINT)
                footer.append(
                    f"peak {name} t={io.fmt(series.times[i])} ratio_to_eq_mean={io.fmt(ratio)}"
                )
            except PeakNotFoundError as exc:
                footer.append(f"peak {name} not found: {exc}")
    return footer


def cmd_series(args) -> int:
    cfg = _chain_config(args)
    if args.site is None:
        raise ConfigError("series needs --site")
    analysis.check_run(cfg, args.flips, args.horizon, args.dt, args.tmax, args.site)
    window = _eq_window(args)
    engine = _make_engine(cfg, args.engine)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    series = site_series(engine, args.flips, args.site, args.horizon, args.dt, args.tmax)
    radii = sorted(series.complexity)
    columns = ["t", "S_bits"] + [f"C_bits_rh{r}" for r in radii]
    rows = [
        (series.times[k], series.entropy[k], *(series.complexity[r][k] for r in radii))
        for k in range(len(series.times))
    ]
    path = out / f"series_site{args.site}.csv"
    io.write_csv(path, columns, rows,
                 preamble=_run_header(args, cfg) + [f"site={args.site}"],
                 footer=_series_footer(args, series, window))
    print(f"wrote {path} ({len(rows)} rows)")
    return 0


def cmd_scan(args) -> int:
    cfg = _chain_config(args)
    analysis.check_run(cfg, args.flips, args.horizon, args.dt, args.tmax)
    engine = _make_engine(cfg, args.engine)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    grids = analysis.spacetime_scan(engine, args.flips, args.horizon, args.dt, args.tmax)

    times = io.fmt_all(grids[0].times)

    def site_rows():
        for grid in grids:
            for j in range(1, cfg.N + 1):
                # one template per row; %.17g is the formatter of io.fmt
                cells = f",{j},{grid.label},"
                yield "".join(f"{t}{cells}%.17g\n" for t in times) % tuple(grid.values[j - 1].tolist())

    io.write_csv(out / "scan.csv", ("t", "site", "kind", "value_bits"), site_rows(),
                 preamble=_run_header(args, cfg))
    for grid in grids:
        io.write_pgm(out / f"scan_{grid.label}.pgm", grid.values)
        io.write_grid_metadata(out / f"scan_{grid.label}.txt", grid, cfg,
                               args.flips, args.dt, args.tmax, args.engine)
    names = ", ".join(g.label for g in grids)
    print(f"wrote {out / 'scan.csv'} and PGM grids: {names}")
    return 0


def _parse_amplitudes(text: str):
    parts = text.split(",")
    if len(parts) != 6:
        raise ConfigError("need exactly six comma-separated amplitudes")
    try:
        return tuple(complex(p) for p in parts)
    except ValueError as exc:
        raise ConfigError(f"bad amplitude: {exc}")


def _format_matrix(m: np.ndarray) -> str:
    lines = []
    for row in np.atleast_2d(m):
        lines.append("  [" + ", ".join(f"{z.real:+.6f}{z.imag:+.6f}j" for z in row) + "]")
    return "\n".join(lines)


def cmd_example(args) -> int:
    amps = _parse_amplitudes(args.amplitudes) if args.amplitudes else None
    report = worked_qubit_qutrit_example(amps)
    if report["renormalized"]:
        print("warning: input amplitudes were not normalized; normalizing", file=sys.stderr)
    if report["degenerate_phases"]:
        print("warning: degenerate phase encountered (in-class sum is zero); "
              "phase set to 1 by convention", file=sys.stderr)
    print("projector P on the exterior space:")
    print(_format_matrix(report["projector"]))
    print("predictive-state coefficients (rows |1>_A, |2>_A; columns |gamma>, remainder):")
    print(_format_matrix(report["primed_coefficients"]))
    print("rho_A:")
    print(_format_matrix(report["rho_a"]))
    print("rho'_A:")
    print(_format_matrix(report["rho_a_primed"]))
    print(f"entanglement entropy S = {report['entropy_bits']:.6f} bits")
    print(f"predictive complexity C = {report['complexity_bits']:.6f} bits")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "spectrum": cmd_spectrum,
        "series": cmd_series,
        "scan": cmd_scan,
        "example": cmd_example,
    }
    try:
        return handlers[args.command](args)
    except (ConfigError, NormalizationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 3
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
