"""Output checks for the benchmark workloads.

Each check reads the files one command wrote and returns a list of problems
(empty when the output is right).  They parse the CSV text themselves and
use no pcx code, so a wrong number in pcx cannot also hide in its check.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

C_LE_S_TOL = 1e-12
# AC-1 / AC-2: collision peak near t = 9 at site 17 over the [100, 200] mean
PEAK_SITE = 17
PEAK_HINT = 9.0
EQ_WINDOW = (100.0, 200.0)
PEAK_TARGETS = {"S": (2.08, 0.21), "C_rh1": (4.13, 0.41)}
MAX_ENERGY_MISMATCH = 1e-10


def _csv(path: Path) -> tuple[list[str], list[list[str]], list[str]]:
    """Header, data rows and '#' footer lines after the data."""
    header, rows, footer = None, [], []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            if header is not None:
                footer.append(line[2:])
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return header or [], rows, footer


def _bits_problems(name: str, s: np.ndarray, cs: dict[str, np.ndarray]) -> list[str]:
    problems = []
    for label, v in [(name, s), *cs.items()]:
        if not np.all(np.isfinite(v)) or v.min() < 0.0 or v.max() > 1.0:
            problems.append(f"{label}: values outside [0, 1] bits")
    for label, c in cs.items():
        excess = float(np.max(c - s))
        if excess > C_LE_S_TOL:
            problems.append(f"{label} exceeds S by {excess:.3g}")
    return problems


def _peak_ratio(t: np.ndarray, v: np.ndarray) -> float:
    near = [i for i in range(1, len(t) - 1)
            if v[i] >= v[i - 1] and v[i] >= v[i + 1] and abs(t[i] - PEAK_HINT) <= 1.0]
    if not near:
        return float("nan")
    i = min(near, key=lambda i: (abs(t[i] - PEAK_HINT), t[i]))
    window = (t >= EQ_WINDOW[0] - 1e-12) & (t <= EQ_WINDOW[1] + 1e-12)
    return float(v[i] / v[window].mean())


def check_scan(out: Path, n_sites: int, n_times: int, radii) -> list[str]:
    header, rows, _ = _csv(out / "scan.csv")
    if header != ["t", "site", "kind", "value_bits"]:
        return [f"scan.csv: unexpected header {header}"]
    kinds = ["S"] + [f"C_rh{r}" for r in radii]
    if len(rows) != len(kinds) * n_sites * n_times:
        return [f"scan.csv: {len(rows)} rows, expected {len(kinds) * n_sites * n_times}"]
    # rows are grid-major, then site, then time
    values = np.array([float(r[3]) for r in rows]).reshape(len(kinds), n_sites, n_times)
    times = np.array([float(r[0]) for r in rows[:n_times]])
    if [r[2] for r in rows[::n_sites * n_times]] != kinds:
        return ["scan.csv: grids not in the order S, C_rh..."]
    grids = dict(zip(kinds, values))
    problems = _bits_problems("S", grids["S"], {k: grids[k] for k in kinds[1:]})
    for kind, (target, tol) in PEAK_TARGETS.items():
        ratio = _peak_ratio(times, grids[kind][PEAK_SITE - 1])
        if not abs(ratio - target) <= tol:
            problems.append(f"site {PEAK_SITE} {kind} peak ratio {ratio:.4f}, want {target} +- {tol}")
    for kind in kinds:
        pgm = (out / f"scan_{kind}.pgm").read_bytes()
        head = f"P5\n{n_times} {n_sites}\n255\n".encode()
        if not pgm.startswith(head) or len(pgm) != len(head) + n_times * n_sites:
            problems.append(f"scan_{kind}.pgm: bad header or size")
    return problems


def check_series(path: Path, n_times: int, radii) -> list[str]:
    header, rows, _ = _csv(path)
    want = ["t", "S_bits"] + [f"C_bits_rh{r}" for r in radii]
    if header != want:
        return [f"{path.name}: header {header}, expected {want}"]
    if len(rows) != n_times:
        return [f"{path.name}: {len(rows)} rows, expected {n_times}"]
    values = np.array(rows, dtype=float)
    return _bits_problems("S_bits", values[:, 1], dict(zip(want[2:], values[:, 2:].T)))


def energy_mismatch(path: Path) -> float:
    _, _, footer = _csv(path)
    key = "max_abs_energy_mismatch_vs_diagonalization="
    found = [float(line[len(key):]) for line in footer if line.startswith(key)]
    return found[0] if found else float("nan")


def check_spectrum(path: Path, n_states: int) -> list[str]:
    _, rows, _ = _csv(path)
    problems = []
    if len(rows) != n_states:
        problems.append(f"{path.name}: {len(rows)} rows, expected {n_states}")
    mismatch = energy_mismatch(path)
    if not mismatch <= MAX_ENERGY_MISMATCH:
        problems.append(f"energy mismatch vs diagonalization {mismatch!r} > {MAX_ENERGY_MISMATCH}")
    return problems
