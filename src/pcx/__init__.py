"""Predictive states and predictive complexity of quantum chain subsystems.

Exact two-magnon dynamics of the periodic isotropic Heisenberg ring
(spectral or Bethe backend), the predictive map on classes of exterior
basis states, the horizon classes of a single site, and the site
series and scans whose S and C come from one observable kernel.
Each name is imported from its module (pcx.chain, pcx.analysis, ...);
the package root exports none.
"""

__version__ = "0.1.0"
