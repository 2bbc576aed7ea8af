"""The two exception types of the package, one per refusal exit code.

The CLI maps them onto exit codes: ConfigError exits 2, an OSError 3,
SolverError 4.
"""


class ConfigError(ValueError):
    """An input pcx refuses: a chain, run, window, state or amplitude set it does not take."""


class SolverError(RuntimeError):
    """A computation that fails its own checks: an unsolved or invalid root, a non-finite value."""
