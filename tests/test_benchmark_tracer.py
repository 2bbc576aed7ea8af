"""The benchmark's tracer still finds every name it patches, and its figures add up.

Each command runs in-process under `perfbench/tracing.instrument`, as the
benchmark's traced runs do; a patched name that moved or vanished fails
here before it fails the benchmark.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from pcx.cli import main

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up while the class is built
    spec.loader.exec_module(module)
    yield module
    del sys.modules[spec.name]


@pytest.mark.parametrize("args, grid_points, roots", [
    (["scan", "--flips", "2,6", "--horizon", "1,2", "--dt", "0.5", "--tmax", "10"], 21, 0),
    (["series", "--flips", "2,6", "--site", "3", "--horizon", "1,2", "--dt", "0.1", "--tmax", "20"],
     201, 0),
    (["spectrum", "--engine", "bethe"], 0, 28),
], ids=["scan", "series", "spectrum-bethe"])
def test_traced_command_at_n8(tracing, tmp_path, args, grid_points, roots):
    tracer = tracing.Tracer(trace=0)
    with tracing.instrument(tracer):
        assert main(args + ["--sites", "8", "--out", str(tmp_path)]) == 0
    assert tracing.span_errors(tracer) == []
    metrics = tracing.layer_metrics(tracer, dim=28)
    assert metrics["chain.propagate_calls"] == grid_points
    assert metrics["bethe.roots_count"] == roots
    assert metrics["io.csv_bytes"] > 0
