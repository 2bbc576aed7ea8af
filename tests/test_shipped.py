"""The package ships what its commands and library use; the test oracles live in tests/oracles.py."""

import importlib
import importlib.util
import pkgutil

import oracles
import pcx

# names that moved from pcx to tests/oracles.py
MOVED = ("MAX_FULL_SITES", "full_hamiltonian", "site_bit", "sector_indices", "full_evolve",
         "full_space_oracle", "site_bipartition", "joint_product_state", "DenseEngine",
         "MAX_SECTOR_DIM", "state_trace_distance", "pair_permutation",
         "exterior_state_and_partition", "equivalence_residual", "trace_distance")
DELETED = ("pair_unindex",)


def test_oracles_not_shipped():
    assert importlib.util.find_spec("pcx.fullspace") is None
    # __main__ runs the CLI on import
    names = [m.name for m in pkgutil.iter_modules(pcx.__path__) if m.name != "__main__"]
    modules = [pcx, *(importlib.import_module(f"pcx.{name}") for name in names)]
    assert [f"{module.__name__}.{name}" for module in modules for name in MOVED + DELETED
            if hasattr(module, name)] == []
    assert [name for name in MOVED if not hasattr(oracles, name)] == []
