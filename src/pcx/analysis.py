"""Observables of the two-flip dynamics: site series, spacetime grids,
equilibrium statistics and collision-peak ratios."""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite

import numpy as np

from .chain import ChainConfig, pair_index
from .errors import ConfigError, PeakNotFoundError, StatsError
from .horizon import HorizonSpec, two_level_entropy_bits
from .horizon import classify_pairs  # not called here; perfbench/tracing.py patches this name

MIN_WINDOW_SAMPLES = 100
# Most (site, time) cells a run may ask for: its time points for a series,
# N times as many for a scan.  Every grid-sized array holds one value per
# cell, so this bounds memory before anything is built.
MAX_TIME_POINTS = 10**6
# Bytes of one chunk's (T, N, N-1) probability stack in the observable
# kernel, which batches T = CHUNK_BYTES // (8 N (N-1)) time steps (at least
# one); this bounds the kernel's working memory at any N.
CHUNK_BYTES = 256 * 2**10


@dataclass(frozen=True)
class SiteSeries:
    """Entropy and complexity of one site sampled on a uniform time grid."""

    times: np.ndarray
    entropy: np.ndarray
    complexity: dict  # r_h -> array of bits


@dataclass(frozen=True)
class SpacetimeGrid:
    """Per-site, per-time values in bits; kind 'S' or 'C' with its r_h."""

    kind: str
    r_h: int | None
    times: np.ndarray
    values: np.ndarray  # shape (N, n_times), site-major

    @property
    def label(self) -> str:
        return self.kind if self.r_h is None else f"{self.kind}_rh{self.r_h}"


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
    if abs(round(n_steps) * dt - t_max) > 1e-9 * t_max:
        raise ConfigError(f"dt={dt} does not divide tmax={t_max}")
    return np.arange(int(round(n_steps)) + 1) * dt


def check_run(cfg: ChainConfig, flips: tuple[int, int], r_h_list, dt: float, t_max: float,
              site: int | None = None) -> np.ndarray:
    """Check one run's flip pair, horizon radii, focal site and times; return the time grid.

    A run without a focal site is a scan over all N sites.
    """
    pair_index(*flips, cfg.N)
    if site is not None and not 1 <= site <= cfg.N:
        raise ConfigError(f"site {site} outside chain of {cfg.N} sites")
    for r in r_h_list:
        HorizonSpec(j=1, r_h=r, N=cfg.N)
    if len(set(r_h_list)) != len(r_h_list):
        raise ConfigError(f"horizon radii {tuple(r_h_list)} repeat a radius")
    times = time_grid(dt, t_max, cfg.N if site is None else 1)
    # 4|J| bounds the levels, so every phase E t of the run stays finite
    if not isfinite(4 * abs(float(cfg.J)) * float(t_max)):
        raise ConfigError(f"4|J| tmax is not finite for J={cfg.J} and tmax={t_max}")
    return times


def _layout_index(N: int) -> np.ndarray:
    """(N, N-1) flat pair index of each layout cell (x, r): sites x+1 and (x+r) mod N + 1."""
    x = np.arange(N)[:, None]
    a, b = x + 1, (x + np.arange(1, N)) % N + 1
    return pair_index(np.minimum(a, b), np.maximum(a, b), N)


def _observables(engine, flips: tuple[int, int], sites, r_h_list,
                 times: np.ndarray) -> tuple[np.ndarray, dict]:
    """S and C(r_h) in bits, arrays of shape (len(sites), len(times)).

    Each time step takes one engine.pair_amplitudes call; the arithmetic
    runs on chunks of T steps, T from CHUNK_BYTES.  The probabilities |b|^2
    of a chunk are gathered into P[T, x, r] on the (x, r) layout, where
    row j-1 lists the pairs of site j by clockwise distance r.  With W_j
    the window of radius r_h around site j:
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
    sites share the call.
    """
    N = engine.cfg.N
    n1, n2 = flips
    layout = _layout_index(N)
    rows = np.asarray(sites) - 1
    arcs = {}  # r_h -> flat (x, r) cells of the cumulative sums m_out reads
    for r in r_h_list:
        i = np.arange(N - 2 * r - 2)  # every outside site but the last
        arcs[r] = (rows[:, None] + r + 1 + i) % N * (N - 1) + N - 2 * r - 3 - i
    n_steps = max(1, CHUNK_BYTES // (8 * N * (N - 1)))
    p_down = np.empty((len(rows), len(times)))
    offdiag = {r: np.empty_like(p_down) for r in arcs}
    for k in range(0, len(times), n_steps):
        chunk = slice(k, k + n_steps)
        amps = np.stack([engine.pair_amplitudes(n1, n2, float(t)) for t in times[chunk]])
        # np.take keeps every gather C-ordered, so each sum runs along a contiguous row
        prob = np.take(amps.real ** 2 + amps.imag ** 2, layout, axis=1)
        own = np.take(prob, rows, axis=1)
        p_down[:, chunk] = own.sum(axis=2).T
        cumulative = np.cumsum(prob, axis=2).reshape(len(amps), -1)
        for r, arc in arcs.items():
            m_focus = own[:, :, r:N - r - 1].sum(axis=2)
            m_out = np.take(cumulative, arc, axis=1).sum(axis=2)
            offdiag[r][:, chunk] = np.sqrt(m_out * m_focus).T
    entropy = two_level_entropy_bits(p_down)
    return entropy, {r: two_level_entropy_bits(p_down, m) for r, m in offdiag.items()}


def site_series(engine, flips: tuple[int, int], j: int, r_h_list,
                dt: float, t_max: float) -> SiteSeries:
    """S and C(r_h) for one site over {0, dt, ..., t_max}; equals row j of the scan."""
    r_h_list = tuple(r_h_list)
    times = check_run(engine.cfg, flips, r_h_list, dt, t_max, site=j)
    entropy, complexity = _observables(engine, flips, (j,), r_h_list, times)
    return SiteSeries(times=times, entropy=entropy[0],
                      complexity={r: c[0] for r, c in complexity.items()})


def spacetime_scan(engine, flips: tuple[int, int], r_h_list,
                   dt: float, t_max: float) -> list[SpacetimeGrid]:
    """One entropy grid plus one complexity grid per horizon radius."""
    r_h_list = tuple(r_h_list)
    times = check_run(engine.cfg, flips, r_h_list, dt, t_max)
    entropy, complexity = _observables(engine, flips, range(1, engine.cfg.N + 1), r_h_list, times)
    grids = [SpacetimeGrid(kind="S", r_h=None, times=times, values=entropy)]
    for r in r_h_list:
        grids.append(SpacetimeGrid(kind="C", r_h=r, times=times, values=complexity[r]))
    return grids


def equilibrium_stats(times: np.ndarray, values: np.ndarray,
                      window: tuple[float, float]) -> EquilibriumStats:
    """Arithmetic mean and population std over samples with t in [t0, t1]."""
    t0, t1 = window
    if t0 > t1 or t0 < times[0] - 1e-12 or t1 > times[-1] + 1e-12:
        raise StatsError(f"window {window} not contained in the time grid")
    mask = (times >= t0 - 1e-12) & (times <= t1 + 1e-12)
    n = int(mask.sum())
    if n < MIN_WINDOW_SAMPLES:
        raise StatsError(f"window holds {n} samples; need at least {MIN_WINDOW_SAMPLES}")
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
        raise PeakNotFoundError(f"no local maximum within {radius} of t={t_hint}")
    return min(candidates, key=lambda i: (abs(times[i] - t_hint), times[i]))


def peak_ratio(times: np.ndarray, values: np.ndarray, t_hint: float,
               stats: EquilibriumStats) -> float:
    """Value at the local maximum nearest t_hint over the equilibrium mean."""
    i = nearest_peak(times, values, t_hint)
    return float(values[i] / stats.mean)
