"""Spans recorded from outside pcx, around calls into each module's public functions.

`instrument(tracer)` swaps the functions a CLI command reaches for wrappers
that open a span per call, and puts them back on exit.  Engines passed to
`site_series` / `spacetime_scan` are replaced by `TracedEngine`, which opens
one `chain.propagate` span per `pair_amplitudes` call and tracks the norm
drift of the amplitudes it returns.  Spans stay in memory; `layer_metrics`
turns one command's spans into the per-layer figures.

Single-threaded only: the span stack assumes calls nest, which holds for
`spacetime_scan(threads=1)`, the default when PCX_THREADS is unset.
"""

from __future__ import annotations

import contextlib
import functools
import os
import time
import warnings
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Span:
    trace: int
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    child_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        # children run one after another, so their durations never overlap
        return self.duration - self.child_s


@dataclass
class Tracer:
    """Spans and counters of one traced command; `trace` identifies it."""

    trace: int
    spans: list = field(default_factory=list)
    norm_drift: float = 0.0
    solver_warnings: int = 0
    roots_count: int = 0
    csv_bytes: int = 0
    _stack: list = field(default_factory=list)

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        s = Span(trace=self.trace, name=name, start=0.0, parent=parent)
        self.spans.append(s)
        self._stack.append(len(self.spans) - 1)
        s.start = time.perf_counter()
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()
            if parent is not None:
                self.spans[parent].child_s += s.duration

    def wrap(self, name: str, fn, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(result, args, kwargs)
            return result
        return traced


class TracedEngine:
    """Stands in for an engine: same cfg, dim, name and pair_amplitudes."""

    def __init__(self, engine, tracer: Tracer):
        self._engine = engine
        self._tracer = tracer
        self.cfg = engine.cfg
        self.dim = engine.dim
        self.name = engine.name

    def pair_amplitudes(self, n1, n2, t):
        with self._tracer.span("chain.propagate"):
            b = self._engine.pair_amplitudes(n1, n2, t)
        drift = abs(1.0 - float(np.vdot(b, b).real))
        self._tracer.norm_drift = max(self._tracer.norm_drift, drift)
        return b


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Patch pcx's layer entry points with span-recording wrappers."""
    import pcx.analysis
    import pcx.bethe
    import pcx.chain
    import pcx.cli
    import pcx.horizon
    import pcx.io

    def proxied(name, fn):
        def with_proxy(*args, **kwargs):
            args = [TracedEngine(a, tracer) if hasattr(a, "pair_amplitudes") else a for a in args]
            return fn(*args, **kwargs)
        return tracer.wrap(name, functools.wraps(fn)(with_proxy))

    def count_roots(roots, args, kwargs):
        tracer.roots_count += len(roots)

    def count_csv_bytes(result, args, kwargs):
        tracer.csv_bytes += os.path.getsize(args[0])

    bethe_init = pcx.bethe.BetheEngine.__init__

    def bethe_engine_init(self, *args, **kwargs):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with tracer.span("bethe.engine"):
                bethe_init(self, *args, **kwargs)
        tracer.solver_warnings += sum(issubclass(w.category, RuntimeWarning) for w in caught)

    decomposition = pcx.chain.SpectralDecomposition
    from_h = decomposition.__dict__["from_hamiltonian"]
    eigh = tracer.wrap("chain.eigh", from_h.__func__)

    patches = [
        (pcx.chain, "sector_hamiltonian", tracer.wrap("chain.hamiltonian", pcx.chain.sector_hamiltonian)),
        (decomposition, "from_hamiltonian", classmethod(eigh)),
        (pcx.bethe.BetheEngine, "__init__", functools.wraps(bethe_init)(bethe_engine_init)),
        (pcx.bethe, "enumerate_roots",
         tracer.wrap("bethe.roots", pcx.bethe.enumerate_roots, after=count_roots)),
        (pcx.bethe, "bethe_state", tracer.wrap("bethe.state", pcx.bethe.bethe_state)),
        (pcx.horizon, "classify_pairs", tracer.wrap("horizon.classify", pcx.horizon.classify_pairs)),
        (pcx.analysis, "classify_pairs", tracer.wrap("horizon.classify", pcx.analysis.classify_pairs)),
        (pcx.cli, "site_series", proxied("horizon.series", pcx.cli.site_series)),
        (pcx.analysis, "spacetime_scan", proxied("analysis.scan", pcx.analysis.spacetime_scan)),
        (pcx.analysis, "equilibrium_stats",
         tracer.wrap("analysis.stats", pcx.analysis.equilibrium_stats)),
        (pcx.analysis, "peak_ratio", tracer.wrap("analysis.stats", pcx.analysis.peak_ratio)),
        (pcx.io, "write_csv", tracer.wrap("io.csv", pcx.io.write_csv, after=count_csv_bytes)),
        (pcx.io, "write_pgm", tracer.wrap("io.pgm", pcx.io.write_pgm)),
    ]
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
    try:
        for owner, attr, new in patches:
            setattr(owner, attr, new)
        yield tracer
    finally:
        for owner, attr, old in originals:
            setattr(owner, attr, old)


def span_errors(tracer: Tracer, tol: float = 1e-9) -> list[str]:
    """Self time is never negative, and self times add up to the root spans."""
    errors = [f"span {s.name}: negative self time {s.self_s:.3g} s"
              for s in tracer.spans if s.self_s < -tol]
    total_self = sum(s.self_s for s in tracer.spans)
    total_root = sum(s.duration for s in tracer.spans if s.parent is None)
    if abs(total_self - total_root) > tol * len(tracer.spans):
        errors.append(f"trace {tracer.trace}: self times sum to {total_self} s, "
                      f"root spans to {total_root} s")
    return errors


def layer_metrics(tracer: Tracer, dim: int) -> dict[str, float]:
    """Per-layer figures of one traced command."""
    spans = tracer.spans

    def total(name):
        return sum(s.duration for s in spans if s.name == name)

    def self_time(name):
        return sum(s.self_s for s in spans if s.name == name)

    def calls(name):
        return sum(1 for s in spans if s.name == name)

    propagate_calls = calls("chain.propagate")
    propagate_s = total("chain.propagate")
    engine_s = total("bethe.engine")
    roots_s = total("bethe.roots")
    states_s = total("bethe.state")
    csv_s = total("io.csv")
    return {
        "chain.hamiltonian_s": total("chain.hamiltonian"),
        "chain.eigh_s": total("chain.eigh"),
        "chain.propagate_calls": propagate_calls,
        "chain.propagate_s": propagate_s,
        "chain.propagate_us_per_step": 1e6 * propagate_s / propagate_calls if propagate_calls else 0.0,
        # computed, not measured: the dim x dim float64 eigenvector matrix read per step
        "chain.propagate_bytes_per_step": 8 * dim * dim if propagate_calls else 0,
        "chain.norm_drift": tracer.norm_drift,
        "bethe.roots_s": roots_s,
        "bethe.roots_count": tracer.roots_count,
        "bethe.states_s": states_s,
        "bethe.engine_s": engine_s,
        # derived: SVD check, cluster QR and Loewdin step inside BetheEngine
        "bethe.basis_s": engine_s - roots_s - states_s if engine_s else 0.0,
        "bethe.solver_warnings": tracer.solver_warnings,
        "bethe.energy_mismatch": 0.0,  # read from the spectrum footer on Bethe workloads
        "horizon.classify_calls": calls("horizon.classify"),
        "horizon.classify_s": total("horizon.classify"),
        "horizon.series_self_s": self_time("horizon.series"),
        "analysis.scan_self_s": self_time("analysis.scan"),
        "analysis.stats_s": total("analysis.stats"),
        "io.csv_s": csv_s,
        "io.csv_bytes": tracer.csv_bytes,
        "io.csv_mb_per_s": tracer.csv_bytes / 1e6 / csv_s if csv_s else 0.0,
        "io.pgm_s": total("io.pgm"),
        "compute_s": total("horizon.series") + total("analysis.scan"),
    }
