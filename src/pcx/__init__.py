"""Predictive states and predictive complexity of quantum chain subsystems.

Exact two-magnon dynamics of the periodic isotropic Heisenberg ring
(spectral or Bethe backend), generic predictive-state machinery for
finite bipartite systems, the horizon classes of a single site, and the
site series and scans whose S and C come from one observable kernel.
"""

from .analysis import (
    EquilibriumStats,
    SiteSeries,
    SpacetimeGrid,
    equilibrium_stats,
    nearest_peak,
    peak_ratio,
    site_series,
    spacetime_scan,
)
from .bethe import BetheEngine, enumerate_roots
from .chain import ChainConfig, SpectralEngine, basis_state, pair_index
from .horizon import HorizonSpec, two_level_entropy_bits
from .predictive import (
    BipartiteState,
    EquivalencePartition,
    PredictiveState,
    build_projector,
    predictive_map,
    reduced_density,
    von_neumann_entropy,
    worked_qubit_qutrit_example,
)

__version__ = "0.1.0"
