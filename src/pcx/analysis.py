"""Observables of the two-flip dynamics: site series, spacetime grids,
equilibrium statistics and collision-peak ratios."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain import ChainConfig, focus_indices, pair_index
from .errors import ConfigError, PeakNotFoundError, StatsError
from .horizon import HorizonSpec, classify_pairs, two_level_entropy_bits

MIN_WINDOW_SAMPLES = 100


@dataclass(frozen=True)
class SiteSeries:
    """Entropy and complexity of one site sampled on a uniform time grid."""

    j: int
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
    n_samples: int
    window: tuple[float, float]


def time_grid(dt: float, t_max: float) -> np.ndarray:
    """The grid {0, dt, ..., t_max}; dt must divide t_max."""
    if not (np.isfinite(dt) and np.isfinite(t_max) and dt > 0 and t_max > 0):
        raise ConfigError(f"dt and tmax must be finite and positive, got dt={dt} tmax={t_max}")
    n_steps = t_max / dt
    if not np.isfinite(n_steps) or abs(round(n_steps) * dt - t_max) > 1e-9 * t_max:
        raise ConfigError(f"dt={dt} does not divide tmax={t_max}")
    return np.arange(int(round(n_steps)) + 1) * dt


def _observables(cfg: ChainConfig, engine, flips: tuple[int, int], sites, r_h_list,
                 times: np.ndarray) -> tuple[np.ndarray, dict]:
    """S and C(r_h) in bits, arrays of shape (len(sites), len(times)).

    Each time step takes one engine.pair_amplitudes call.  S comes from
    p_down, the probability that the site is flipped; C adds
    |<down|rho'_A|up>| = sqrt(m_out * m_focus) from the same probabilities,
    so no phase is evaluated.  Sums run in a fixed order per site, so a
    site's values do not depend on which other sites share the call.
    """
    if engine.cfg != cfg:
        raise ConfigError(f"engine was built for {engine.cfg}, not {cfg}")
    n1, n2 = sorted(flips)
    pair_index(n1, n2, cfg.N)  # validates the flip pair
    focus = np.stack([focus_indices(j, cfg.N) for j in sites])
    gathers = {}
    for r in r_h_list:
        classes = [classify_pairs(HorizonSpec(j=j, r_h=r, N=cfg.N)) for j in sites]
        gathers[r] = (np.stack([c.type_i for c in classes]),
                      np.stack([c.focus_out for c in classes]))
    p_down = np.empty((len(sites), len(times)))
    offdiag = {r: np.empty_like(p_down) for r in gathers}
    for k, t in enumerate(times):
        prob = np.abs(engine.pair_amplitudes(n1, n2, float(t))) ** 2
        p_down[:, k] = prob[focus].sum(axis=1)
        for r, (type_i, focus_out) in gathers.items():
            offdiag[r][:, k] = np.sqrt(prob[type_i].sum(axis=1) * prob[focus_out].sum(axis=1))
    entropy = two_level_entropy_bits(p_down)
    return entropy, {r: two_level_entropy_bits(p_down, m) for r, m in offdiag.items()}


def site_series(cfg: ChainConfig, flips: tuple[int, int], j: int, r_h_list,
                dt: float, t_max: float, engine) -> SiteSeries:
    """S and C(r_h) for one site over {0, dt, ..., t_max}; equals row j of the scan."""
    times = time_grid(dt, t_max)
    entropy, complexity = _observables(cfg, engine, flips, (j,), r_h_list, times)
    return SiteSeries(j=j, times=times, entropy=entropy[0],
                      complexity={r: c[0] for r, c in complexity.items()})


def spacetime_scan(cfg: ChainConfig, flips: tuple[int, int], r_h_list,
                   dt: float, t_max: float, engine) -> list[SpacetimeGrid]:
    """One entropy grid plus one complexity grid per horizon radius."""
    r_h_list = tuple(r_h_list)
    times = time_grid(dt, t_max)
    entropy, complexity = _observables(cfg, engine, flips, range(1, cfg.N + 1), r_h_list, times)
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
        return EquilibriumStats(mean=float(sel[0]), std=0.0,
                                n_samples=n, window=(float(t0), float(t1)))
    mean = float(sel.mean())
    return EquilibriumStats(mean=mean, std=float(np.sqrt(np.mean((sel - mean) ** 2))),
                            n_samples=n, window=(float(t0), float(t1)))


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
