"""Observables of the two-flip dynamics: S and C(r_h) of one site or of every
site over time, equilibrium statistics and collision-peak ratios."""

from __future__ import annotations

from dataclasses import dataclass
from sys import float_info

import numpy as np

from .chain import ChainConfig, integer, pair_index
from .errors import ConfigError, SolverError
from .horizon import HorizonSpec, two_level_entropy_bits
from .horizon import classify_pairs  # not called here; perfbench/tracing.py patches this name

MIN_WINDOW_SAMPLES = 100
# Most (site, time) cells a run may ask for: its time points for a series,
# N times as many for a scan.  A grid holds one value per cell, and the
# kernel holds (1 + len(r_h)) grids, so this bounds memory before anything
# is built.
MAX_TIME_POINTS = 10**6
# Bytes of one chunk's (T, N, N-1) probability stack in the observable
# kernel, which batches T = CHUNK_BYTES // (8 N (N-1)) time steps (at least
# one).  Besides the engine's stack and its output grids, the kernel holds a
# few arrays of this size at a time, at any N.
CHUNK_BYTES = 256 * 2**10
# Tolerance, relative to the last time, of a grid point t = k dt: of tmax as a
# multiple of dt and of a window edge; MAX_TIME_POINTS keeps it below 1e-3 dt.
GRID_RTOL = 1e-9
# Largest phase floor 4|J| t_max eps of a run.  Every level carries a rounding
# error of order eps |J|, so a phase E t is off by up to about the floor, and S
# and C with it.  At this bound the spectral and Bethe engines, both exact in
# theory, agree at N = 32 to 1.2e-7 bits at most: a run's values hold to a few
# 1e-7 bits, and t_max may still reach 1.1e9/|J|, over 5000 times the longest
# run that MAX_TIME_POINTS admits at the recipe's dt = 0.2.
PHASE_FLOOR_MAX = 1e-6


@dataclass(frozen=True)
class Observables:
    """S and C(r_h) in bits on a uniform time grid, one row per site of the run."""

    times: np.ndarray
    entropy: np.ndarray  # shape (sites, n_times), site-major
    complexity: dict  # r_h, in the order given -> array of entropy's shape


@dataclass(frozen=True)
class EquilibriumStats:
    """Late-window mean and population standard deviation."""

    mean: float
    std: float


def time_grid(dt: float, t_max: float, sites: int = 1) -> np.ndarray:
    """The grid {0, dt, ..., t_max}; dt must divide t_max.

    The grid's points on `sites` sites count as cells against MAX_TIME_POINTS.
    """
    if not (np.isfinite(dt) and np.isfinite(t_max) and dt > 0 and t_max > 0):
        raise ConfigError(f"dt and tmax must be finite and positive, got dt={dt} tmax={t_max}")
    n_steps = t_max / dt
    if not np.isfinite(n_steps) or sites * (round(n_steps) + 1) > MAX_TIME_POINTS:
        raise ConfigError(f"dt={dt} gives more than {MAX_TIME_POINTS} (site, time) cells on "
                          f"{sites} site(s) up to tmax={t_max}")
    if abs(round(n_steps) * dt - t_max) > GRID_RTOL * t_max:
        raise ConfigError(f"dt={dt} does not divide tmax={t_max}")
    return np.arange(int(round(n_steps)) + 1) * dt


def check_run(cfg: ChainConfig, flips: tuple[int, int], r_h_list, dt: float, t_max: float,
              site: int | None = None) -> np.ndarray:
    """Check one run's flip pair, horizon radii, focal site and times; return the time grid.

    A run without a focal site is a scan over all N sites.
    """
    named = [("flip site", n) for n in flips] + [("horizon radius", r) for r in r_h_list]
    for what, value in named + ([] if site is None else [("site", site)]):
        integer(value, what)
    pair_index(*map(int, flips), cfg.N)  # a narrow numpy integer would wrap in its index arithmetic
    if site is not None and not 1 <= site <= cfg.N:
        raise ConfigError(f"site {site} outside chain of {cfg.N} sites")
    for r in r_h_list:
        HorizonSpec(j=1, r_h=int(r), N=cfg.N)  # as would a numpy radius in 2 r_h + 1
    if len(set(r_h_list)) != len(r_h_list):
        raise ConfigError(f"horizon radii {tuple(r_h_list)} repeat a radius")
    times = time_grid(dt, t_max, cfg.N if site is None else 1)
    # 4|J| bounds the levels; a 4|J| tmax that overflows is past the limit too
    four_j = 4 * abs(cfg.J)
    limit = PHASE_FLOOR_MAX / four_j / float_info.epsilon  # the t_max of floor PHASE_FLOOR_MAX
    if t_max > limit:
        raise ConfigError(f"phase floor 4|J| tmax eps = {four_j * t_max * float_info.epsilon:.4g} "
                          f"exceeds {PHASE_FLOOR_MAX:g}: tmax must be at most {limit!r} for J={cfg.J}")
    return times


def _layout_index(N: int) -> np.ndarray:
    """(N, N-1) flat pair index of each layout cell (x, r): sites x+1 and (x+r) mod N + 1."""
    x = np.arange(N)[:, None]
    a, b = x + 1, (x + np.arange(1, N)) % N + 1
    return pair_index(np.minimum(a, b), np.maximum(a, b), N)


def _observables(engine, flips: tuple[int, int], sites: range, r_h_list,
                 times: np.ndarray) -> tuple[np.ndarray, dict]:
    """S and C(r_h) in bits, arrays of shape (len(sites), len(times)), for a range of consecutive sites.

    Each time step takes one engine.pair_amplitudes call; the arithmetic
    runs on chunks of T steps, T from CHUNK_BYTES, in arrays allocated once
    per call.  Each chunk writes p_down and the |off-diagonals| straight into
    the output grids, and S and C(r_h) replace them in place at the end, a
    block of cells at a time, so the kernel holds those (1 + len(r_h)) grids
    and a few CHUNK_BYTES-sized arrays.  The probabilities |b|^2 of a chunk
    are gathered into P[T, x, r] on the (x, r) layout, where row j-1 lists
    the pairs of site j by clockwise distance r.  With W_j the window of
    radius r_h around site j:
    - p_down, the probability that j is flipped, is the sum of row j-1;
    - m_focus (one flip on j, the other outside W_j) is the sum of row j-1
      over r_h < r < N - r_h;
    - m_out (both flips outside W_j) sums positive terms only: the i-th of
      the L = N - 2 r_h - 1 sites outside W_j, counted clockwise, pairs with
      the L-1-i sites after it, a cumulative sum of its row read at column
      L-2-i (r = L-1-i).
    S comes from p_down and C adds |<down|rho'_A|up>| = sqrt(m_out * m_focus),
    so no phase is evaluated.  Every sum runs along one contiguous row of
    the layout in the same order, whichever sites are asked for and however
    the steps are chunked, so a site's values do not depend on which other
    sites share the call.  Non-finite amplitudes leave S or C without a
    finite value: SolverError names the earliest such time and site.
    """
    N = engine.cfg.N
    flips = tuple(map(int, flips))  # a numpy flip or radius would mix dtypes in the index arithmetic
    rows = np.asarray(sites) - 1
    arcs = {}  # r_h -> flat (x, r) cells of the cumulative sums m_out reads
    for r in map(int, r_h_list):
        i = np.arange(N - 2 * r - 2)  # every outside site but the last
        arcs[r] = (rows[:, None] + r + 1 + i) % N * (N - 1) + N - 2 * r - 3 - i
    # p_down and the |off-diagonal| per radius, then in place S and C(r_h) per radius
    grids = np.empty((1 + len(arcs), len(rows), len(times)))
    _reduced_elements(engine, flips, slice(sites.start - 1, sites.stop - 1), arcs, times, grids)
    # the entropy of a block of CHUNK_BYTES / 4 peaks at 3.0 times the block in temporaries
    width = max(1, CHUNK_BYTES // (32 * grids.shape[0] * len(rows)))
    for k in range(0, len(times), width):
        block = grids[:, :, k:k + width]
        if not np.isfinite(block).all():  # checked here, as the entropy clips an infinite element
            step, row = np.argwhere(~np.isfinite(block).all(axis=0).T)[0]  # earliest time, lowest site
            raise SolverError(f"S or C is not finite at site {sites[row]}, t={float(times[k + step])!r}: "
                              "the engine's amplitudes are not")
        p_down = block[0].copy()
        block[0] = 0.0  # the off-diagonal of S
        block[...] = two_level_entropy_bits(p_down, block)
    return grids[0], dict(zip(arcs, grids[1:]))


def _reduced_elements(engine, flips, focal: slice, arcs, times, out):
    """Write p_down to out[0] and the |off-diagonal| of each arc to out[1:], chunk by chunk.

    out has shape (1 + len(arcs), focal's rows, len(times)); the focal rows
    of each chunk's layout are read in place.  The chunk arrays are
    allocated once per call, and a last, shorter chunk uses their leading
    slices: the amplitudes, |b|^2, the (T, N, N-1) layout and its cumulative
    sums.  im^2 is held in the cumulative sums' memory until they are
    formed, and the cells that m_out gathers in the amplitudes' memory,
    which is free by then.
    """
    N = engine.cfg.N
    layout = _layout_index(N)
    n_steps = min(len(times), max(1, CHUNK_BYTES // (8 * N * (N - 1))))
    amps = np.empty((n_steps, layout.size // 2), dtype=complex)
    prob = np.empty(amps.shape)
    layout_prob = np.empty((n_steps, N, N - 1))
    cumulative = np.empty(layout_prob.shape)
    free = amps.view(np.float64).reshape(-1)
    for k in range(0, len(times), n_steps):
        chunk = times[k:k + n_steps]
        T = len(chunk)
        for b, t in zip(amps, chunk):
            b[...] = engine.pair_amplitudes(*flips, float(t))
        re, im = amps[:T].real, amps[:T].imag
        im2 = cumulative.reshape(-1)[:re.size].reshape(re.shape)
        np.add(np.multiply(re, re, out=prob[:T]), np.multiply(im, im, out=im2), out=prob[:T])
        # mode="clip" (every index is in range) lets np.take write straight into its out array
        P = np.take(prob[:T], layout, axis=1, out=layout_prob[:T], mode="clip")
        mine = P[:, focal]
        flat = np.cumsum(P, axis=2, out=cumulative[:T]).reshape(T, -1)
        block = out[:, :, k:k + T]
        block[0] = mine.sum(axis=2).T
        for m, (r, arc) in zip(block[1:], arcs.items()):
            m_focus = mine[:, :, r:N - r - 1].sum(axis=2)
            cells = free[:T * arc.size].reshape(T, *arc.shape)
            m_out = np.take(flat, arc, axis=1, out=cells, mode="clip").sum(axis=2)
            np.sqrt(m_out * m_focus, out=m.T)


def site_series(engine, flips: tuple[int, int], j: int, r_h_list,
                dt: float, t_max: float) -> Observables:
    """S and C(r_h) for one site over {0, dt, ..., t_max}; equals row j of the scan."""
    r_h_list = tuple(r_h_list)
    times = check_run(engine.cfg, flips, r_h_list, dt, t_max, site=j)
    return Observables(times, *_observables(engine, flips, range(j, j + 1), r_h_list, times))


def spacetime_scan(engine, flips: tuple[int, int], r_h_list,
                   dt: float, t_max: float) -> Observables:
    """S and C(r_h) for every site of the ring over {0, dt, ..., t_max}."""
    r_h_list = tuple(r_h_list)
    times = check_run(engine.cfg, flips, r_h_list, dt, t_max)
    return Observables(times, *_observables(engine, flips, range(1, engine.cfg.N + 1), r_h_list, times))


def equilibrium_stats(times: np.ndarray, values: np.ndarray,
                      window: tuple[float, float]) -> EquilibriumStats:
    """Arithmetic mean and population std over samples with t in [t0, t1] (edges to GRID_RTOL)."""
    t0, t1 = window
    tol = GRID_RTOL * abs(times[-1])
    if t0 > t1 or t0 < times[0] - tol or t1 > times[-1] + tol:
        raise ConfigError(f"window {window} not contained in the time grid")
    mask = (times >= t0 - tol) & (times <= t1 + tol)
    n = int(mask.sum())
    if n < MIN_WINDOW_SAMPLES:
        raise ConfigError(f"window holds {n} samples; need at least {MIN_WINDOW_SAMPLES}")
    sel = values[mask]
    if sel.min() == sel.max():  # constant series: avoid round-off in the mean
        return EquilibriumStats(mean=float(sel[0]), std=0.0)
    mean = float(sel.mean())
    return EquilibriumStats(mean=mean, std=float(np.sqrt(np.mean((sel - mean) ** 2))))


def nearest_peak(times: np.ndarray, values: np.ndarray, t_hint: float,
                 radius: float = 1.0) -> int:
    """Index of the local maximum nearest t_hint (plateaus count; ties earlier)."""
    candidates = [
        i for i in range(1, len(times) - 1)
        if values[i] >= values[i - 1] and values[i] >= values[i + 1]
        and abs(times[i] - t_hint) <= radius
    ]
    if not candidates:
        raise ConfigError(f"no local maximum within {radius} of t={t_hint}")
    return min(candidates, key=lambda i: (abs(times[i] - t_hint), times[i]))


def peak_ratio(times: np.ndarray, values: np.ndarray, t_hint: float,
               stats: EquilibriumStats) -> float:
    """Value at the local maximum nearest t_hint over the equilibrium mean."""
    i = nearest_peak(times, values, t_hint)
    return float(values[i] / stats.mean)
