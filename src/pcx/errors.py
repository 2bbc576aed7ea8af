"""Exception types shared across the package.

The CLI maps these onto exit codes: config and normalization errors
exit 2, I/O errors exit 3, solver failures exit 4.
"""


class ConfigError(ValueError):
    """Invalid chain or run configuration."""


class GeometryError(ValueError):
    """Equivalence classes that are not disjoint groups of >= 2 exterior basis states."""


class NormalizationError(ValueError):
    """State vector or density matrix fails its normalization contract."""


class SolverError(RuntimeError):
    """A root solve failed to converge or produced an invalid solution."""


class DegenerateRootError(SolverError):
    """A momentum pair produced a numerically zero wavefunction."""


class StatsError(ValueError):
    """Averaging window is too short or lies outside the time grid."""


class PeakNotFoundError(LookupError):
    """No local maximum found near the requested hint time."""
