"""pcx benchmark: CLI commands timed cold and warm, plus a traced run for per-layer figures.

Usage (from the repository root):

    python3 perfbench/run.py                       # every workload, untraced then traced
    python3 perfbench/run.py --workload recipe-scan --seed 3 --seconds 30 --trace 0

Workloads, metrics and units are declared in BENCHMARK.json.  Each run

* pins BLAS/OpenMP to one thread, unsets PCX_THREADS and runs every command
  from this one process, one at a time (a single thread keeps the figures
  steady on a shared host, where a second BLAS thread waits on other load);
* discards a warm-up (one `import pcx.cli` in a fresh interpreter and one
  in-process command), then repeats cycles of samples for --seconds, at least
  three cycles, reversing the order of the samples in every other cycle;
  medians are reported;
* checks the files written by every command (see checks.py) and that all
  commands of the run wrote the same bytes;
* prints every metric with its unit, writes the full result with the raw
  samples and the environment to perfbench/.work/, and ends with one JSON
  line: {"correct", "attempted", "failed", "metrics"}.

--trace 0 measures the end-to-end metrics with tracing off:
  cpu_s        CPU seconds (user + system) of `python -m pcx <command>` in a
               fresh process, start to exit
  warm_cpu_s   CPU seconds of `pcx.cli.main([...])` in this process, which
               already ran it
  setup_s      CPU seconds of the construction of the engines the command builds
  peak_rss_mb  maximum resident set of the fresh process
The bounded figures are CPU seconds, not wall-clock seconds: on a shared host
the wall clock also counts the time other guests hold the CPU (steal time),
which drifts by 10-20% over minutes.  With one thread and a page-cached
output directory the two differ by little else.
--trace 1 measures the same command untraced and traced (spans from
tracing.py), and reports the per-layer metrics, the wall-clock wall_s and
warm_s, the tracing overhead (traced minus untraced warm_s) and
cli.import_s / cli.overhead_s.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

# numpy reads these when it is imported, so pcx, checks and tracing are
# imported only after pin_environment() has set them
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
MIN_CYCLES = 3
SETUP_MIN_S = 0.25  # quick setups repeat within a cycle until this much time has passed
CHILD_TIMEOUT_S = 120
RADII = (1, 2, 3)


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]
    output: str  # main output file, compared byte for byte across commands
    sites: int
    engine: str
    times: int  # points of the time grid; 0 for the spectrum

    @property
    def dim(self) -> int:
        return self.sites * (self.sites - 1) // 2

    @property
    def cells(self) -> int:
        """(site, time, quantity) values the series or scan produces: S and C for r_h 1, 2, 3."""
        return self.times * (self.sites if self.argv[0] == "scan" else 1) * (1 + len(RADII))

    def check(self, out: Path) -> list[str]:
        import checks

        if self.argv[0] == "scan":
            return checks.check_scan(out, self.sites, self.times, RADII)
        if self.argv[0] == "series":
            return checks.check_series(out / self.output, self.times, RADII)
        return checks.check_spectrum(out / self.output, self.dim)


def make_workloads(seed: int) -> dict[str, Workload]:
    # ring64-series: flip pair and focal site come from the seed; its cost does
    # not depend on them.  The reference pair 10,25 is skipped because only it
    # adds the collision-peak footer.
    rng = random.Random(seed)
    a, b = 10, 25
    while (a, b) == (10, 25):
        a, b = sorted(rng.sample(range(1, 65), 2))
    site = rng.randint(1, 64)
    grid = ("--horizon", ",".join(map(str, RADII)), "--dt", "0.2")
    return {w.name: w for w in (
        # the paper recipe, fixed so its site-17 row can be checked against AC-1/AC-2
        Workload("recipe-scan", ("scan", "--sites", "32", "--flips", "10,25", *grid, "--tmax", "200"),
                 "scan.csv", 32, "spectral", 1001),
        # tmax 20 keeps a sample near 3 s; the explicit window gives the
        # equilibrium statistics their 100 samples
        Workload("ring64-series", ("series", "--sites", "64", "--flips", f"{a},{b}", "--site", str(site),
                                   *grid, "--tmax", "20", "--eq-window", "0,20"),
                 f"series_site{site}.csv", 64, "spectral", 101),
        Workload("bethe48-spectrum", ("spectrum", "--engine", "bethe", "--sites", "48"),
                 "spectrum.csv", 48, "bethe", 0),
    )}


def pin_environment():
    """Must run before numpy is imported, in this process and its children."""
    os.environ.pop("PCX_THREADS", None)
    os.environ.update({var: "1" for var in THREAD_VARS})


def environment(seed: int, seconds: float) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "seed": seed,
        "seconds": seconds,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "PCX_THREADS": os.environ.get("PCX_THREADS"),
        "machine": platform.machine(),
    }


# Runs in its own small process and starts every fresh process of the benchmark.
# Linux reports a child's peak RSS as at least the peak RSS of the process that
# spawned it, so spawning from this ~15 MB helper, not from the benchmark
# process, keeps peak_rss_mb the command's own.
LAUNCHER = r"""
import json, os, subprocess, sys, threading, time
for line in sys.stdin:
    argv, log, timeout = json.loads(line)
    with open(log, "w") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=fh, stderr=subprocess.STDOUT)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    cpu = usage.ru_utime + usage.ru_stime
    print(json.dumps([proc.returncode, wall, cpu, usage.ru_maxrss]), flush=True)
"""


class Launcher:
    """Starts `python <args>` in a fresh process, one at a time."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, "-c", LAUNCHER], cwd=ROOT,
                                     env={**os.environ, "PYTHONPATH": str(SRC)},
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()

    def run(self, args: list[str], log: Path) -> tuple[int, float, float, float]:
        """Exit code, wall and CPU seconds (start to exit) and peak RSS in MB."""
        self.proc.stdin.write(json.dumps([[sys.executable, *args], str(log), CHILD_TIMEOUT_S]) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("launcher process ended")
        rc, wall, cpu, maxrss_kb = json.loads(line)
        return rc, wall, cpu, maxrss_kb / 1024.0

    def import_seconds(self, log: Path) -> float:
        code = "import time; t = time.perf_counter(); import pcx.cli; print(time.perf_counter() - t)"
        rc, _, _, _ = self.run(["-c", code], log)
        if rc != 0:
            raise RuntimeError(f"import pcx.cli failed, see {log}")
        return float(log.read_text().split()[-1])


def quiet(fn, *args):
    """Run fn with stdout and Python warnings captured; (result, wall seconds, CPU seconds, warnings)."""
    gc.collect()
    with contextlib.redirect_stdout(io.StringIO()), warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        t0, c0 = time.perf_counter(), time.process_time()
        result = fn(*args)
        seconds, cpu = time.perf_counter() - t0, time.process_time() - c0
    return result, seconds, cpu, len(caught)


@dataclass
class Run:
    workload: Workload
    cli: object
    launcher: Launcher
    samples: dict = field(default_factory=dict)
    layers: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)  # output sha256 -> problems found in it
    first_digest: str | None = None
    warnings: int = 0

    def add(self, name: str, value: float):
        self.samples.setdefault(name, []).append(value)

    def out_dir(self, kind: str) -> Path:
        path = WORK / self.workload.name / kind
        path.mkdir(parents=True, exist_ok=True)
        return path

    def argv(self, out: Path) -> list[str]:
        return [*self.workload.argv, "--out", str(out)]

    def record(self, kind: str, exit_code, out: Path) -> bool:
        """Count one command and check what it wrote."""
        self.attempted += 1
        problems = [] if exit_code == 0 else [f"exit code {exit_code}"]
        if not problems:
            files = sorted(out.glob("*.csv")) + sorted(out.glob("*.pgm"))
            digest = hashlib.sha256(b"".join(f.name.encode() + f.read_bytes() for f in files)).hexdigest()
            if self.first_digest is None:
                self.first_digest = digest
            elif digest != self.first_digest:
                problems.append("output bytes differ from the run's first command")
            if digest not in self.digests:
                self.digests[digest] = self.workload.check(out)
            problems += self.digests[digest]
        if problems:
            self.failed += 1
            self.problems += [f"{kind}: {p}" for p in problems]
        return not problems

    # --- samples -----------------------------------------------------------

    def cold(self):
        out = self.out_dir("cold")
        rc, wall, cpu, rss = self.launcher.run(["-m", "pcx", *self.argv(out)], out / "stdout.log")
        if self.record("cold", rc, out):
            self.add("wall_s", wall)
            self.add("cpu_s", cpu)
            self.add("peak_rss_mb", rss)

    def warm(self):
        out = self.out_dir("warm")
        rc, seconds, cpu, caught = quiet(self._main, self.argv(out))
        self.warnings += caught
        if self.record("warm", rc, out):
            self.add("warm_s", seconds)
            self.add("warm_cpu_s", cpu)

    def _main(self, argv):
        try:
            return self.cli.main(argv)
        except Exception as exc:  # counted as a failed command; the run goes on
            return f"{type(exc).__name__}: {exc}"

    def setup(self):
        from pcx.bethe import BetheEngine
        from pcx.chain import ChainConfig, SpectralEngine

        def build():
            cfg = ChainConfig(N=self.workload.sites)
            SpectralEngine(cfg)
            if self.workload.engine == "bethe":
                BetheEngine(cfg)

        spent = 0.0
        while spent < SETUP_MIN_S:
            _, seconds, cpu, caught = quiet(build)
            self.warnings += caught
            self.add("setup_s", cpu)
            spent += seconds

    def traced(self):
        import checks
        from tracing import Tracer, instrument, layer_metrics, span_errors

        out = self.out_dir("traced")
        tracer = Tracer(trace=len(self.layers) + 1)

        def command(argv):
            with instrument(tracer), tracer.span("cli.main"):
                return self._main(argv)

        rc, seconds, _, _ = quiet(command, self.argv(out))
        if not self.record("traced", rc, out):
            return
        self.problems += span_errors(tracer)
        metrics = layer_metrics(tracer, self.workload.dim)
        if self.workload.engine == "bethe":
            metrics["bethe.energy_mismatch"] = checks.energy_mismatch(out / self.workload.output)
        self.layers.append(metrics)
        self.add("traced_warm_s", seconds)

    def import_time(self):
        self.add("cli.import_s", self.launcher.import_seconds(self.out_dir("import") / "stdout.log"))


def measure(seconds: float, cycle) -> int:
    """Run cycle(i) until the next one would end after `seconds`, at least MIN_CYCLES times."""
    start = time.perf_counter()
    i = 0
    while True:
        c0 = time.perf_counter()
        cycle(i)
        i += 1
        now = time.perf_counter()
        if i >= MIN_CYCLES and (now - start) + (now - c0) > seconds:
            return i


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def run_workload(w: Workload, seconds: float, trace: int, cli, launcher: Launcher) -> tuple[Run, dict]:
    shutil.rmtree(WORK / w.name, ignore_errors=True)
    run = Run(w, cli, launcher)
    # warm-up, discarded: bytecode and file cache, then first-touch BLAS and lazy imports
    launcher.import_seconds(run.out_dir("import") / "stdout.log")
    quiet(run._main, run.argv(run.out_dir("warmup")))

    # setup_s and the per-layer figures have no spread bound, so they are sampled
    # in the first MIN_CYCLES cycles only; later cycles go to the cold and warm commands
    extra = [run.setup] if trace == 0 else [run.traced, run.import_time]

    def cycle(i: int):
        steps = [run.cold, run.warm] + (extra if i < MIN_CYCLES else [])
        for step in steps if i % 2 == 0 else reversed(steps):
            step()

    cycles = measure(seconds, cycle)
    s = run.samples
    wall, warm = median(s.get("wall_s")), median(s.get("warm_s"))
    if trace == 0:
        values = {"cpu_s": median(s.get("cpu_s")), "warm_cpu_s": median(s.get("warm_cpu_s")),
                  "setup_s": median(s.get("setup_s")), "peak_rss_mb": median(s.get("peak_rss_mb"))}
    else:
        values = {name: median([m[name] for m in run.layers]) for name in (run.layers[0] if run.layers else ())}
        compute_s = values.pop("compute_s", 0.0)
        traced_warm = median(s.get("traced_warm_s"))
        values.update({
            "wall_s": wall,
            "warm_s": warm,
            "cells_per_s": w.cells / compute_s if compute_s else 0.0,
            "cli.import_s": median(s.get("cli.import_s")),
            "cli.overhead_s": wall - warm,
            "trace.warm_s": traced_warm,
            "trace.overhead_s": traced_warm - warm,
        })
    values["cycles"] = cycles
    return run, values


def emit(spec: dict, trace: int, run: Run, values: dict, prefix: str = "") -> dict:
    """The metrics BENCHMARK.json lists for this trace mode; one not measured is a problem."""
    section = spec["end_to_end"] if trace == 0 else spec["per_layer"]
    missing = [m["name"] for m in section if m["name"] not in values]
    if missing:
        run.problems.append(f"not measured: {', '.join(missing)}")
    return {prefix + m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in section}


def report(run: Run, values: dict, metrics: dict, trace: int):
    w = run.workload
    print(f"== {w.name} (trace {trace}): pcx {' '.join(w.argv)}")
    print(f"   {values['cycles']} cycles; {run.attempted} commands, {run.failed} failed "
          f"(failed_share {run.failed / max(run.attempted, 1):.3f}); "
          f"{run.warnings} Python warnings captured outside traced runs")
    for name, m in metrics.items():
        raw = run.samples.get(name.split("/")[-1], [])
        spread = f"  median of {len(raw)}, range {min(raw):.6g} .. {max(raw):.6g}" if raw else ""
        print(f"   {name:34s} {m['value']:>14.6g} {m['unit']}{spread}")
    if trace == 1 and w.cells == 0:
        print("   (cells_per_s: no time grid in this workload)")
    for p in run.problems:
        print(f"   PROBLEM: {p}")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names, help="one workload (default: all, both trace modes)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None)
    args = parser.parse_args(argv)

    if not (SRC / "pcx" / "cli.py").is_file():
        print(f"error: pcx sources not found under {SRC}", file=sys.stderr)
        return 2
    pin_environment()
    sys.path.insert(0, str(SRC))
    import pcx.cli

    if not Path(pcx.cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported pcx from {pcx.cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    workloads = make_workloads(args.seed)
    if args.workload:
        plan = [(args.workload, args.trace or 0)]
    else:  # untraced pass, then the traced pass in the reverse workload order
        plan = [(n, 0) for n in names] + [(n, 1) for n in reversed(names)]
    result = {"environment": environment(args.seed, args.seconds), "runs": []}
    metrics, attempted, failed, problems = {}, 0, 0, []
    with Launcher() as launcher:
        for name, trace in plan:
            run, values = run_workload(workloads[name], args.seconds, trace, pcx.cli, launcher)
            shown = emit(spec, trace, run, values, prefix="" if args.workload else f"{name}/")
            report(run, values, shown, trace)
            metrics.update(shown)
            attempted += run.attempted
            failed += run.failed
            problems += run.problems
            result["runs"].append({"workload": name, "trace": trace, "argv": list(run.workload.argv),
                                   "values": values, "samples": run.samples, "layers": run.layers,
                                   "attempted": run.attempted, "failed": run.failed,
                                   "problems": run.problems, "output_sha256": run.first_digest})
    tag = f"{args.workload}_trace{args.trace or 0}" if args.workload else "all"
    (WORK / f"result_{tag}.json").write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
