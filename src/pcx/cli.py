"""Command-line front end.

Subcommands: spectrum (sector eigenvalues, optionally from the Bethe
backend with per-root diagnostics), series (per-site S and C columns with
equilibrium footers, plus collision-peak lines for site 17 of the
reference recipe), scan (long-format CSV plus one grayscale PGM per grid),
example (the 2x3 worked example).  Defaults mirror the reference recipe:
N=32, J=1, flips 10 and 25, dt=0.2.  A command imports pcx.bethe or
pcx.predictive only when it runs them, so `series` and `scan` on the
default engine never load either.

Exit codes: 0 success, 2 input error (ConfigError), 3 I/O error (OSError), 4
solver failure (SolverError).  argparse parses all input; main reports every
refusal, a malformed or unknown argument or a value out of range, as one
`error:` line on stderr with exit code 2; only --help exits through argparse.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys
from pathlib import Path

import numpy as np

from . import analysis, io
from .analysis import site_series
from .chain import ChainConfig, SpectralEngine, block_levels
from .errors import ConfigError, SolverError

PEAK_HINT = 9.0
# (N, J, flips, site) of the run whose first collision sits near PEAK_HINT
PEAK_RECIPE = (32, 1.0, (10, 25), 17)
# rows of a table per write_csv chunk; a chunk's numbers are formatted together
ROW_BLOCK = 1024


class _Parser(argparse.ArgumentParser):
    """Full option names only, `-inf` or `-j,...` read as values; a usage error is one ConfigError."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)
        # a single dash starts a value: every pcx option but -h has two, and -h is matched first
        self._negative_number_matcher = re.compile(r"-(?!-)")

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def _numbers(convert, count=None):
    """argparse type: comma-separated `convert` values, exactly `count` of them if given."""
    def parse(text: str) -> tuple:
        parts = text.split(",")
        if "" not in parts and count in (None, len(parts)):
            try:
                return tuple(convert(p) for p in parts)
            except ValueError:
                pass
        raise argparse.ArgumentTypeError(
            f"expected {count or 'one or more'} comma-separated {convert.__name__} values, "
            f"got {text!r}")
    return parse


def _add_chain(p: argparse.ArgumentParser):
    p.add_argument("--sites", type=int, default=32, metavar="N", help="number of chain sites")
    p.add_argument("--coupling", type=float, default=1.0, metavar="J", help="exchange coupling")
    p.add_argument("--engine", choices=("spectral", "bethe"), default="spectral")
    p.add_argument("--out", default=".", metavar="DIR", help="output directory")


def _add_run(p: argparse.ArgumentParser):
    _add_chain(p)
    p.add_argument("--flips", type=_numbers(int, 2), default=(10, 25), metavar="a,b",
                   help="initially flipped sites")
    p.add_argument("--horizon", type=_numbers(int), default=(1, 2, 3), metavar="r[,r...]",
                   help="horizon radii for the complexity")
    p.add_argument("--dt", type=float, default=0.2, help="time step (hbar per energy unit)")
    p.add_argument("--tmax", type=float, default=200.0, help="final time (hbar per energy unit)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The pcx parser, built on the first call only: a build costs about 20 parses."""
    parser = _Parser(
        prog="pcx",
        description="Entanglement entropy and predictive complexity of single sites "
                    "in two-magnon chain dynamics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_spec = sub.add_parser("spectrum", help="sector eigenvalues to CSV")
    _add_chain(p_spec)

    p_series = sub.add_parser("series", help="per-site S and C time series to CSV")
    _add_run(p_series)
    p_series.add_argument("--site", type=int, required=True, metavar="j", help="focal site")
    p_series.add_argument("--eq-window", type=_numbers(float, 2), default=None, metavar="t0,t1",
                          help="equilibrium window (default: second half of the run)")

    p_scan = sub.add_parser("scan", help="spacetime grids to CSV and PGM images")
    _add_run(p_scan)

    p_ex = sub.add_parser("example", help="2x3 worked example of the predictive map")
    p_ex.add_argument("--amplitudes", type=_numbers(complex, 6), default=None, metavar="a1,...,a6",
                      help="six complex amplitudes (python literals)")
    return parser


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


def cmd_spectrum(args) -> int:
    cfg = ChainConfig(N=args.sites, J=args.coupling)
    levels = block_levels(cfg)
    n, footer = len(levels), []
    if args.engine == "spectral":
        columns, rows, values = ("index", "energy"), [f"{io.FIELD},{io.FIELD}\n"] * n, (np.sort(levels),)
    else:
        from . import bethe

        roots = bethe.enumerate_roots(cfg)
        # the engine's checks, one batch of block vectors at a time, keeping only the largest residual
        residual = max(residual for *_, residual in bethe.checked_blocks(roots, cfg))
        energy, kind = roots.energy, roots.kind
        # by class (m1 + m2) mod N, ascending within one, as block_levels lists the levels
        by_block = np.lexsort((energy, (roots.m1 + roots.m2) % cfg.N))
        mismatch = np.empty(n)
        mismatch[by_block] = np.abs(energy[by_block] - levels)
        order = np.argsort(energy, kind="stable")  # ties keep root order
        names, counts = np.unique(kind, return_counts=True)
        row = {k: f"{io.FIELD},{io.FIELD},{k},{io.FIELD}\n" for k in names.tolist()}
        columns = ("index", "energy", "class", "energy_mismatch")
        rows = list(map(row.get, kind[order].tolist()))
        values = (energy[order], mismatch[order])
        footer.append(f"max_abs_energy_mismatch_vs_diagonalization={io.fmt(mismatch.max())}")
        footer.append(f"max_eigen_residual_over_abs_J={io.fmt(residual)}")
        footer.append("class_counts=" + " ".join(f"{k}:{v}" for k, v in zip(names, counts)))
    out = Path(args.out)
    preamble = (f"sector eigenvalues relative to e0; energies in the same unit as J; "
                f"N={cfg.N} J={io.fmt(cfg.J)} engine={args.engine}")
    table = np.column_stack((np.arange(n), *values))
    with io.staged(out) as stage:
        io.write_csv(stage("spectrum.csv"), columns, _row_blocks(rows, table),
                     preamble=[preamble], footer=footer)
    print(f"wrote {out / 'spectrum.csv'} ({n} rows)")
    return 0


def _row_blocks(rows, table):
    """write_csv chunks of ROW_BLOCK rows: rows[i] is the template of table row i."""
    for k in range(0, len(table), ROW_BLOCK):
        yield "".join(rows[k:k + ROW_BLOCK]), table[k:k + ROW_BLOCK]


def _engine(args, cfg: ChainConfig):
    """The --engine backend for cfg; pcx.bethe is imported only when it is asked for."""
    if args.engine == "bethe":
        from . import bethe

        return bethe.BetheEngine(cfg)
    return SpectralEngine(cfg)


def _series_footer(args, times, columns: dict, window) -> list[str]:
    footer = [f"equilibrium window: [{io.fmt(window[0])}, {io.fmt(window[1])}], std=population"]
    try:
        stats = {name: analysis.equilibrium_stats(times, vals, window) for name, vals in columns.items()}
    except ConfigError as exc:
        footer.append(f"equilibrium stats omitted: {exc}")
        return footer
    for name, st in stats.items():
        footer.append(f"eq_mean {name} {io.fmt(st.mean)}")
        footer.append(f"eq_std {name} {io.fmt(st.std)}")
    if (args.sites, args.coupling, tuple(args.flips), args.site) == PEAK_RECIPE:
        for name, vals in columns.items():
            try:
                ratio = analysis.peak_ratio(times, vals, PEAK_HINT, stats[name])
                i = analysis.nearest_peak(times, vals, PEAK_HINT)
                footer.append(f"peak {name} t={io.fmt(times[i])} ratio_to_eq_mean={io.fmt(ratio)}")
            except ConfigError as exc:
                footer.append(f"peak {name} not found: {exc}")
    return footer


def cmd_series(args) -> int:
    cfg = ChainConfig(N=args.sites, J=args.coupling)
    analysis.check_run(cfg, args.flips, args.horizon, args.dt, args.tmax, args.site)
    window = _eq_window(args)
    engine = _engine(args, cfg)
    out = Path(args.out)
    series = site_series(engine, args.flips, args.site, args.horizon, args.dt, args.tmax)
    columns = {"S_bits": series.entropy[0]}
    columns.update((f"C_bits_rh{r}", series.complexity[r][0]) for r in series.complexity)
    table = np.column_stack([series.times, *columns.values()])
    rows = [",".join([io.FIELD] * (1 + len(columns))) + "\n"] * len(table)
    name = f"series_site{args.site}.csv"
    with io.staged(out) as stage:
        io.write_csv(stage(name), ["t", *columns], _row_blocks(rows, table),
                     preamble=_run_header(args, cfg) + [f"site={args.site}"],
                     footer=_series_footer(args, series.times, columns, window))
    print(f"wrote {out / name} ({len(table)} rows)")
    return 0


def cmd_scan(args) -> int:
    cfg = ChainConfig(N=args.sites, J=args.coupling)
    analysis.check_run(cfg, args.flips, args.horizon, args.dt, args.tmax)
    engine = _engine(args, cfg)
    out = Path(args.out)
    run = analysis.spacetime_scan(engine, args.flips, args.horizon, args.dt, args.tmax)
    grids = {"S": run.entropy}
    grids.update((f"C_rh{r}", values) for r, values in run.complexity.items())

    # one chunk per (grid, site): the times, formatted once, each followed by one suffix
    # (a template built row by row, f"{t},{j},{label},...", makes the warm scan over a third slower)
    times = io.fmt_all(run.times)
    suffixes = ((f",{j},{label},{io.FIELD}\n", values)
                for label, grid in grids.items() for j, values in enumerate(grid, start=1))
    chunks = ((suffix.join(times) + suffix, values) for suffix, values in suffixes)
    with io.staged(out) as stage:
        io.write_csv(stage("scan.csv"), ("t", "site", "kind", "value_bits"), chunks,
                     preamble=_run_header(args, cfg))
        for label, grid in grids.items():
            io.write_pgm(stage(f"scan_{label}.pgm"), grid)
            io.write_grid_metadata(stage(f"scan_{label}.txt"), label, cfg,
                                   args.flips, args.dt, args.tmax, args.engine)
    print(f"wrote {out / 'scan.csv'} and PGM grids: {', '.join(grids)}")
    return 0


def _format_matrix(m: np.ndarray) -> str:
    lines = []
    for row in np.atleast_2d(m):
        lines.append("  [" + ", ".join(f"{z.real:+.6f}{z.imag:+.6f}j" for z in row) + "]")
    return "\n".join(lines)


def cmd_example(args) -> int:
    from .predictive import worked_qubit_qutrit_example

    report = worked_qubit_qutrit_example(args.amplitudes)
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
    handlers = {
        "spectrum": cmd_spectrum,
        "series": cmd_series,
        "scan": cmd_scan,
        "example": cmd_example,
    }
    try:
        args = build_parser().parse_args(argv)
        return handlers[args.command](args)
    except ConfigError as exc:
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
