"""The package ships what its commands and library use; the test oracles live in tests/oracles.py."""

import ast
import importlib
import importlib.util
import pkgutil
from pathlib import Path

import oracles
import pcx

# names that moved from pcx to tests/oracles.py
MOVED = ("MAX_FULL_SITES", "full_hamiltonian", "site_bit", "sector_indices", "full_evolve",
         "full_space_oracle", "site_bipartition", "joint_product_state", "DenseEngine",
         "MAX_SECTOR_DIM", "state_trace_distance", "pair_permutation",
         "exterior_state_and_partition", "equivalence_residual", "trace_distance")
DELETED = ("pair_unindex", "BetheState", "_wavefunction", "_one_hot_columns",
           "_orthonormal_complement", "ORTHO_TOL", "SiteSeries", "SpacetimeGrid",
           # folded into ConfigError (exit 2) and SolverError (exit 4)
           "GeometryError", "NormalizationError", "StatsError", "PeakNotFoundError",
           "DegenerateRootError")
# members deleted from shipped classes, as (module, class, member)
DELETED_MEMBERS = (("horizon", "HorizonSpec", "inside_sites"),
                   ("predictive", "EquivalencePartition", "primed_dim"),
                   ("predictive", "EquivalencePartition", "n_subspaces"),
                   ("predictive", "EquivalencePartition", "remainder_dim"),
                   ("predictive", "EquivalencePartition", "from_index_groups"),
                   ("predictive", "BipartiteState", "dim_a"),
                   ("predictive", "BipartiteState", "from_amplitudes"),
                   ("chain", "ChainConfig", "e0"))


def test_oracles_not_shipped():
    assert importlib.util.find_spec("pcx.fullspace") is None
    # __main__ runs the CLI on import
    names = [m.name for m in pkgutil.iter_modules(pcx.__path__) if m.name != "__main__"]
    modules = [pcx, *(importlib.import_module(f"pcx.{name}") for name in names)]
    assert [f"{module.__name__}.{name}" for module in modules for name in MOVED + DELETED
            if hasattr(module, name)] == []
    assert [name for name in MOVED if not hasattr(oracles, name)] == []
    assert [f"pcx.{module}.{cls}.{member}" for module, cls, member in DELETED_MEMBERS
            if hasattr(getattr(importlib.import_module(f"pcx.{module}"), cls), member)] == []


def test_every_raise_is_a_refusal_type():
    """Each raise in the package raises ConfigError (exit 2) or SolverError (exit 4).

    The one other is the argparse.ArgumentTypeError of cli._numbers, which
    argparse hands to _Parser.error, and that raises a ConfigError.
    """
    others = []
    for path in sorted(Path(pcx.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        functions = [f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)]
        for node in ast.walk(tree):
            if not isinstance(node, ast.Raise):
                continue
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            name = ast.unparse(exc) if exc is not None else "(re-raise)"
            if name in ("ConfigError", "SolverError"):
                continue
            owner = [f.name for f in functions if node in ast.walk(f)]
            others.append((path.name, owner[0] if owner else None, name))
    assert others == [("cli.py", "_numbers", "argparse.ArgumentTypeError")]
