import re
import resource
import tracemalloc
from math import comb, inf, nan

import numpy as np
import pytest

import pcx.bethe
import pcx.cli
from pcx import io
from pcx.analysis import site_series, spacetime_scan
from pcx.chain import ChainConfig, SpectralEngine, block_levels
from pcx.cli import main
from pcx.errors import SolverError


def read_csv(path):
    preamble, footer, rows = [], [], []
    header = None
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            (footer if header is not None else preamble).append(line[1:].strip())
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return preamble, header, rows, footer


def cell_by_cell_csv(preamble, columns, rows, footer=()):
    """The bytes of a CSV written one cell at a time: a number as format(float(x), ".17g"), a str as is."""
    lines = [f"# {line}" for line in preamble] + [",".join(columns)]
    lines += [",".join(x if isinstance(x, str) else format(float(x), ".17g") for x in row)
              for row in rows]
    lines += [f"# {line}" for line in footer]
    return ("\n".join(lines) + "\n").encode()


class TestSpectrumCommand:
    def test_row_count_small(self, tmp_path):
        assert main(["spectrum", "--sites", "5", "--out", str(tmp_path)]) == 0
        _, header, rows, _ = read_csv(tmp_path / "spectrum.csv")
        assert header == ["index", "energy"]
        assert len(rows) == comb(5, 2) == 10

    def test_spectral_rows_have_two_fields(self, tmp_path):
        """The spectral table has no Bethe columns: every row is index,energy."""
        assert main(["spectrum", "--sites", "48", "--out", str(tmp_path)]) == 0
        _, _, rows, _ = read_csv(tmp_path / "spectrum.csv")
        assert len(rows) == comb(48, 2)
        assert all(len(row) == 2 and row[1] for row in rows)

    def test_row_count_reference(self, tmp_path):
        assert main(["spectrum", "--out", str(tmp_path)]) == 0
        _, _, rows, _ = read_csv(tmp_path / "spectrum.csv")
        assert len(rows) == 496

    def test_bethe_engine_footer_and_classes(self, tmp_path):
        assert main(["spectrum", "--sites", "12", "--engine", "bethe",
                     "--out", str(tmp_path)]) == 0
        _, _, rows, footer = read_csv(tmp_path / "spectrum.csv")
        assert len(rows) == comb(12, 2)
        assert {r[2] for r in rows} == {"k-zero", "real-pair", "bound"}
        mismatch_line = next(l for l in footer if l.startswith("max_abs_energy_mismatch"))
        assert float(mismatch_line.split("=")[1]) < 1e-6
        assert all(float(r[3]) < 1e-8 for r in rows)
        energies = [float(r[1]) for r in rows]
        assert energies == sorted(energies)

    def test_bethe_energy_mismatch_column(self, tmp_path):
        """Each Bethe row's |E - its block level| is small, and the footer is the column's max."""
        assert main(["spectrum", "--sites", "48", "--engine", "bethe",
                     "--out", str(tmp_path)]) == 0
        _, _, rows, footer = read_csv(tmp_path / "spectrum.csv")
        column = [float(r[3]) for r in rows]
        assert len(column) == comb(48, 2)
        assert max(column) <= 1e-12
        mismatch_line = next(l for l in footer if l.startswith("max_abs_energy_mismatch"))
        assert float(mismatch_line.split("=")[1]) == max(column)

    def test_bethe_zero_level_unsigned_for_negative_coupling(self, tmp_path):
        """At J < 0 the (0, 0) root's level J * 0 is written as 0, not -0."""
        assert main(["spectrum", "--sites", "8", "--coupling", "-1", "--engine", "bethe",
                     "--out", str(tmp_path)]) == 0
        _, _, rows, _ = read_csv(tmp_path / "spectrum.csv")
        assert rows[-1][:3] == ["27", "0", "k-zero"]
        assert float(rows[-1][3]) <= 1e-12  # |0 - its block level|
        assert not any(r[1].startswith("-0") and float(r[1]) == 0 for r in rows)

    def test_spectral_csv_matches_cell_by_cell_writer(self, tmp_path):
        """The spectral table is the sorted block levels, one formatted cell at a time."""
        assert main(["spectrum", "--sites", "9", "--out", str(tmp_path)]) == 0
        levels = np.sort(block_levels(ChainConfig(N=9)))
        rows = list(enumerate(levels))
        preamble, header, _, footer = read_csv(tmp_path / "spectrum.csv")
        reference = cell_by_cell_csv(preamble, header, rows, footer)
        assert reference == (tmp_path / "spectrum.csv").read_bytes()

    def test_bethe_numeric_cells_in_one_format(self, tmp_path):
        assert main(["spectrum", "--sites", "12", "--engine", "bethe", "--out", str(tmp_path)]) == 0
        _, _, rows, _ = read_csv(tmp_path / "spectrum.csv")
        cells = [cell for row in rows for cell in (row[0], row[1], row[3])]
        assert len(cells) == 3 * comb(12, 2)
        assert all(format(float(cell), ".17g") == cell for cell in cells)

    def test_bethe_footer_compares_blocks(self, tmp_path, monkeypatch, capsys):
        """A level filed under the wrong momentum is refused by the class count, naming the class."""
        real_roots = pcx.bethe.enumerate_roots

        def mislabelled(cfg):
            roots = real_roots(cfg)
            roots.m2[np.flatnonzero((roots.m1 + roots.m2) % cfg.N == 1)[0]] += 1  # class 1 -> 2
            return roots

        monkeypatch.setattr(pcx.bethe, "enumerate_roots", mislabelled)
        assert main(["spectrum", "--sites", "12", "--engine", "bethe", "--out", str(tmp_path)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("solver error: ") and len(err.splitlines()) == 1
        assert "momentum block k=1" in err

    @pytest.mark.parametrize("coupling", ["1e-310", "-1.3", "4e307"])
    def test_bethe_footer_eigen_residual(self, tmp_path, coupling):
        """The footer states the largest eigen-residual of the Bethe rows, in units of |J|."""
        assert main(["spectrum", "--sites", "48", "--engine", "bethe", "--coupling", coupling,
                     "--out", str(tmp_path)]) == 0
        _, _, _, footer = read_csv(tmp_path / "spectrum.csv")
        residual_line = next(l for l in footer if l.startswith("max_eigen_residual_over_abs_J="))
        assert 0 < float(residual_line.split("=")[1]) <= 1e-12

    def test_bethe_spectrum_builds_no_stack(self, tmp_path):
        """At N=256 the command peaks below the 8 * 129 * 128^2 bytes of the engine's quarter stack."""
        tracemalloc.start()
        try:
            assert main(["spectrum", "--sites", "256", "--engine", "bethe", "--out", str(tmp_path)]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 129 * 128**2


@pytest.fixture(scope="module")
def series_csv(tmp_path_factory):
    out = tmp_path_factory.mktemp("series")
    code = main(["series", "--sites", "16", "--flips", "4,11", "--site", "8",
                 "--horizon", "1,2", "--dt", "0.2", "--tmax", "40",
                 "--eq-window", "20,40", "--out", str(out)])
    assert code == 0
    return read_csv(out / "series_site8.csv")


@pytest.fixture(scope="module")
def scan_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("scan")
    code = main(["scan", "--sites", "12", "--flips", "3,7", "--horizon", "2",
                 "--dt", "0.5", "--tmax", "10", "--out", str(out)])
    assert code == 0
    return out


class TestSeriesCommand:
    def test_column_contract(self, series_csv):
        _, header, rows, _ = series_csv
        assert header == ["t", "S_bits", "C_bits_rh1", "C_bits_rh2"]
        assert len(header) == 2 + 2
        assert len(rows) == 201

    def test_t0_row_zero(self, series_csv):
        _, _, rows, _ = series_csv
        assert float(rows[0][0]) == 0.0
        assert all(float(x) == 0.0 for x in rows[0][1:])

    def test_footer_has_stats(self, series_csv):
        _, _, _, footer = series_csv
        assert any(l.startswith("eq_mean S_bits") for l in footer)
        assert any(l.startswith("eq_std C_bits_rh1") for l in footer)

    def test_csv_matches_cell_by_cell_writer(self, tmp_path):
        """The series body is the site_series values, one formatted cell at a time."""
        argv = ["--sites", "16", "--flips", "4,11", "--site", "8", "--horizon", "1,2",
                "--dt", "0.2", "--tmax", "40", "--eq-window", "20,40"]
        assert main(["series", *argv, "--out", str(tmp_path)]) == 0
        series = site_series(SpectralEngine(ChainConfig(N=16)), (4, 11), 8, (1, 2), 0.2, 40.0)
        rows = zip(series.times, series.entropy, series.complexity[1], series.complexity[2])
        preamble, header, _, footer = read_csv(tmp_path / "series_site8.csv")
        reference = cell_by_cell_csv(preamble, header, rows, footer)
        assert reference == (tmp_path / "series_site8.csv").read_bytes()

    @pytest.mark.parametrize("argv", [
        ["--dt", "1.1", "--tmax", "16500", "--eq-window", "16276.7,16385.6"],
        ["--dt", "1.7", "--tmax", "18669.4"],
    ], ids=["explicit-window", "default-window"])
    def test_eq_window_at_late_times(self, tmp_path, argv):
        """Past t = 16384 a grid point t = k dt sits more than 1e-12 off its decimal; the window keeps it."""
        assert main(["series", "--sites", "8", "--flips", "1,3", "--site", "2", "--horizon", "1",
                     *argv, "--out", str(tmp_path)]) == 0
        _, _, rows, footer = read_csv(tmp_path / "series_site2.csv")
        window = next(l for l in footer if l.startswith("equilibrium window"))
        t0, t1 = (float(x) for x in window.split("[")[1].split("]")[0].split(","))
        inside = [float(r[1]) for r in rows if t0 - 1e-6 <= float(r[0]) <= t1 + 1e-6]
        assert len(inside) >= 100
        assert not [l for l in footer if "omitted" in l]
        mean = next(float(l.split()[2]) for l in footer if l.startswith("eq_mean S_bits"))
        assert mean == pytest.approx(np.mean(inside), rel=1e-12)

    def test_default_eq_window_is_second_half(self, tmp_path):
        """Without --eq-window the footer names [tmax/2, tmax] and its stats are over that half."""
        assert main(["series", "--sites", "16", "--flips", "4,11", "--site", "8", "--horizon", "1",
                     "--dt", "0.2", "--tmax", "40", "--out", str(tmp_path)]) == 0
        _, _, _, footer = read_csv(tmp_path / "series_site8.csv")
        assert "equilibrium window: [20, 40], std=population" in footer
        series = site_series(SpectralEngine(ChainConfig(N=16)), (4, 11), 8, (1,), 0.2, 40.0)
        mask = np.arange(len(series.times)) >= 100  # t = 20 is grid point 100 of 0..200
        for name, values in (("S_bits", series.entropy), ("C_bits_rh1", series.complexity[1])):
            sel = values[mask]
            mean = float(sel.mean())
            assert f"eq_mean {name} {io.fmt(mean)}" in footer
            assert f"eq_std {name} {io.fmt(np.sqrt(np.mean((sel - mean) ** 2)))}" in footer

    def test_degenerate_horizon_exit_code(self, tmp_path):
        assert main(["series", "--sites", "8", "--flips", "1,4", "--site", "2",
                     "--horizon", "4", "--out", str(tmp_path)]) == 2

    def test_eq_window_outside_run_exit_code(self, tmp_path):
        assert main(["series", "--sites", "12", "--flips", "3,7", "--site", "5",
                     "--tmax", "10", "--eq-window", "5,20",
                     "--out", str(tmp_path)]) == 2

    def test_reference_recipe_footer_ratios(self, tmp_path):
        """Default recipe footer carries the headline figures: peak ratios, peak time, std ratio."""
        code = main(["series", "--site", "17", "--out", str(tmp_path)])
        assert code == 0
        _, _, _, footer = read_csv(tmp_path / "series_site17.csv")
        s_line = next(l for l in footer if l.startswith("peak S_bits"))
        ratio = float(s_line.split("ratio_to_eq_mean=")[1])
        assert ratio == pytest.approx(2.08, rel=0.10)  # AC-1
        c_line = next(l for l in footer if l.startswith("peak C_bits_rh1"))
        c_ratio = float(c_line.split("ratio_to_eq_mean=")[1])
        assert c_ratio == pytest.approx(4.13, rel=0.10)  # AC-2
        s_time = float(s_line.split("t=")[1].split()[0])
        assert abs(s_time - 9.0) <= 0.5  # AC-3
        std = {l.split()[1]: float(l.split()[2]) for l in footer if l.startswith("eq_std ")}
        assert 1.5 <= std["S_bits"] / std["C_bits_rh1"] <= 2.5  # AC-4

    def test_peak_lines_only_for_recipe_site(self, tmp_path):
        """The recipe's flips at a site between no collision get no collision-peak lines."""
        assert main(["series", "--sites", "64", "--flips", "10,25", "--site", "3", "--tmax", "20",
                     "--eq-window", "0,20", "--out", str(tmp_path)]) == 0
        _, _, _, footer = read_csv(tmp_path / "series_site3.csv")
        assert any(l.startswith("eq_mean S_bits") for l in footer)
        assert not [l for l in footer if l.startswith("peak")]


class TestScanCommand:
    def test_pgm_dimensions(self, scan_dir):
        data = (scan_dir / "scan_S.pgm").read_bytes()
        header, rest = data.split(b"\n", 1)
        assert header == b"P5"
        dims, rest = rest.split(b"\n", 1)
        maxval, pixels = rest.split(b"\n", 1)
        width, height = map(int, dims.split())
        assert (width, height) == (21, 12)  # (tmax/dt + 1) x N
        assert maxval == b"255"
        assert len(pixels) == width * height

    def test_grids_share_dimensions(self, scan_dir):
        s = (scan_dir / "scan_S.pgm").read_bytes()
        c = (scan_dir / "scan_C_rh2.pgm").read_bytes()
        assert s[:12] == c[:12]
        assert len(s) == len(c)

    def test_long_csv_format(self, scan_dir):
        _, header, rows, _ = read_csv(scan_dir / "scan.csv")
        assert header == ["t", "site", "kind", "value_bits"]
        assert len(rows) == 2 * 12 * 21
        kinds = {r[2] for r in rows}
        assert kinds == {"S", "C_rh2"}
        assert all(0.0 <= float(r[3]) <= 1.0 for r in rows)

    def test_metadata_written(self, scan_dir):
        text = (scan_dir / "scan_S.txt").read_text()
        assert "0..1 bits" in text
        assert "dt=0.5" in text

    def test_csv_matches_cell_by_cell_writer(self, scan_dir):
        """The template writer gives the bytes of one formatted row per cell."""
        cfg = ChainConfig(N=12)
        grids = spacetime_scan(SpectralEngine(cfg), (3, 7), (2,), 0.5, 10.0)
        rows = [(grid.times[k], j, grid.label, grid.values[j - 1, k])
                for grid in grids for j in range(1, 13) for k in range(len(grid.times))]
        preamble, _, _, _ = read_csv(scan_dir / "scan.csv")
        reference = cell_by_cell_csv(preamble, ("t", "site", "kind", "value_bits"), rows)
        assert reference == (scan_dir / "scan.csv").read_bytes()

    def test_pixel_quantization(self, scan_dir):
        _, _, rows, _ = read_csv(scan_dir / "scan.csv")
        s_rows = [r for r in rows if r[2] == "S"]
        values = np.array([float(r[3]) for r in s_rows]).reshape(12, 21)
        pixels = (scan_dir / "scan_S.pgm").read_bytes().split(b"\n", 3)[3]
        img = np.frombuffer(pixels, dtype=np.uint8).reshape(12, 21)
        assert np.array_equal(img, np.rint(255 * values).astype(np.uint8))


@pytest.mark.parametrize("x", [0.0, -0.0, 5e-324, 1 / 3, 2.0**53 - 1, 1e308, inf, nan, 3])
def test_template_and_fmt_agree(tmp_path, x):
    """A table cell and a footer or preamble number print alike."""
    io.write_csv(tmp_path / "one.csv", ("x",), [(io.FIELD + "\n", [x])])
    cell = (tmp_path / "one.csv").read_text().splitlines()[1]
    assert cell == io.fmt(x) == format(float(x), ".17g")


class TestBetheEngineRuns:
    """series and scan on --engine bethe give the spectral engine's values."""

    RUN = ["--sites", "12", "--flips", "3,8", "--horizon", "1,2", "--dt", "0.5", "--tmax", "50"]

    def run(self, tmp_path, command, filename):
        rows = {}
        for engine in ("spectral", "bethe"):
            out = tmp_path / engine
            assert main([*command, *self.RUN, "--engine", engine, "--out", str(out)]) == 0
            rows[engine] = read_csv(out / filename)[2]
        return rows["spectral"], rows["bethe"]

    def test_series_matches_spectral(self, tmp_path):
        spectral, bethe = self.run(tmp_path, ["series", "--site", "5"], "series_site5.csv")
        spectral, bethe = np.array(spectral, dtype=float), np.array(bethe, dtype=float)
        assert spectral.shape == (101, 4)
        assert np.max(np.abs(bethe - spectral)) <= 1e-12

    def test_scan_matches_spectral(self, tmp_path):
        spectral, bethe = self.run(tmp_path, ["scan"], "scan.csv")
        assert len(spectral) == 3 * 12 * 101
        assert [r[:3] for r in bethe] == [r[:3] for r in spectral]
        values = np.array([[float(a[3]), float(b[3])] for a, b in zip(spectral, bethe)])
        assert np.max(np.abs(values[:, 1] - values[:, 0])) <= 1e-12


SMALL_SCAN = ["scan", "--sites", "10", "--flips", "2,6", "--horizon", "1",
              "--dt", "0.5", "--tmax", "8"]


class TestDeterminism:
    def test_byte_identical_across_runs(self, tmp_path):
        outs = []
        for name in ("a", "b", "c"):
            out = tmp_path / name
            assert main(SMALL_SCAN + ["--out", str(out)]) == 0
            outs.append(out)
        ref_csv = (outs[0] / "scan.csv").read_bytes()
        ref_pgm = (outs[0] / "scan_S.pgm").read_bytes()
        for out in outs[1:]:
            assert (out / "scan.csv").read_bytes() == ref_csv
            assert (out / "scan_S.pgm").read_bytes() == ref_pgm


class TestConfigErrors:
    """Bad run inputs exit 2 with one error line and write nothing."""

    def assert_config_error(self, capsys, out):
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert len(err.splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("bad", [
        ["--coupling", "nan"],
        ["--dt", "inf"],
        ["--dt", "nan"],
        ["--dt", "0.4", "--tmax", "1.0"],
        ["--horizon", "1,1"],
        ["--dt", "1e-9", "--tmax", "200"],
        ["--coupling", "5e307"],
        ["--coupling", "4e307", "--tmax", "2"],
    ], ids=["coupling-nan", "dt-inf", "dt-nan", "dt-not-dividing-tmax", "repeated-radius",
            "too-many-time-points", "coupling-levels-overflow", "coupling-phases-overflow"])
    def test_bad_run_input_exit_2(self, tmp_path, capsys, bad):
        out = tmp_path / "out"
        assert main(["series", "--sites", "12", "--flips", "3,7", "--site", "5",
                     "--horizon", "1", "--out", str(out), *bad]) == 2
        self.assert_config_error(capsys, out)

    def test_odd_ring_degenerate_horizon_exit_2(self, tmp_path, capsys):
        """At N = 31, r_h = 15 covers the ring (2 r_h + 1 = N): refused, not written as C = S."""
        out = tmp_path / "out"
        assert main(["series", "--sites", "31", "--site", "5", "--horizon", "15",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == "error: degenerate horizon: 2*15+1 sites cover the 31-site ring\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv, fragment", [
        (["series", "--site", "5", "--flips", "1,"], "argument --flips: "),
        (["series", "--site", "5", "--flips", "7,3"], "invalid pair (7, 3)"),
        (["series", "--site", "5", "--horizon", "1,,2"], "argument --horizon: "),
        (["series", "--site", "5", "--horizon", "1,"], "argument --horizon: "),
        (["series", "--site", "5", "--eq-window", "1"], "argument --eq-window: "),
        (["series", "--site", "5", "--sites", "x"], "argument --sites: "),
        (["series", "--sites", "12"], "required: --site"),
        (["spectrum", "--sites", "8", "--dt", "0.5"], "unrecognized arguments: --dt"),
        (["spectrum", "--sites", "8", "--flips", "7,3"], "unrecognized arguments: --flips"),
        (["spectrum", "--sites", "8", "--horizon", "9"], "unrecognized arguments: --horizon"),
        (["spectrum", "--sites", "8", "--tmax", "-1"], "unrecognized arguments: --tmax"),
        (["spectrum", "--sites", "8", "--eq-window", "5,1"], "unrecognized arguments: --eq-window"),
        (["scan", "--sites", "8", "--eq-window", "0,1"], "unrecognized arguments: --eq-window"),
        (["scan", "--sites", "323", "--flips", "10,70", "--dt", "0.001", "--tmax", "999"],
         "(site, time) cells on 323 site(s)"),
        ([], "required: command"),
        (["spectrum", "--engine", "dense"], "argument --engine: invalid choice"),
        (["example", "--amplitudes", "1,2"], "argument --amplitudes: "),
        (["example", "--amplitudes", "1,2,x,4,5,6"], "argument --amplitudes: "),
        (["scan", "--site", "30", "--tmax", "2", "--dt", "1"], "unrecognized arguments: --site"),
        (["series", "--site", "5", "--flip", "1,2"], "unrecognized arguments: --flip"),
        (["spectrum", "--sites", "8", "--coupling", "-inf"],
         "coupling J must be nonzero with 4|J| finite"),
    ], ids=["flips-trailing-comma", "flips-reversed", "horizon-empty-radius",
            "horizon-trailing-comma", "eq-window-one-number", "sites-not-int", "site-missing",
            "spectrum-dt", "spectrum-flips", "spectrum-horizon", "spectrum-tmax",
            "spectrum-eq-window", "scan-eq-window", "scan-too-many-cells", "no-subcommand",
            "engine-unknown", "amplitudes-too-few", "amplitudes-not-complex",
            "scan-site-not-abbreviated", "series-flip-not-abbreviated", "coupling-minus-inf"])
    def test_refused_input_exit_2(self, tmp_path, capsys, monkeypatch, argv, fragment):
        """Malformed, unknown and out-of-range input all end in one error line from main."""
        monkeypatch.chdir(tmp_path)  # --out defaults to the working directory
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert len(captured.err.splitlines()) == 1
        assert fragment in captured.err
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("option, value, argv", [
        ("--amplitudes", "-0.5,0.5,0,0.5,0,0.5", ["example"]),
        ("--coupling", "-1e-3", ["spectrum", "--sites", "8"]),
        ("--amplitudes", "-j,0,0,0,0,1", ["example"]),
    ], ids=["amplitudes-negative-first", "coupling-negative-exponent", "amplitudes-minus-j"])
    def test_value_with_leading_minus_is_a_value(self, tmp_path, capsys, monkeypatch,
                                                 option, value, argv):
        """`--opt -1e-3` reads -1e-3 as the value, and gives the output of `--opt=-1e-3`."""
        outputs = []
        for form, spelling in (("separate", [option, value]), ("joined", [f"{option}={value}"])):
            out = tmp_path / form
            out.mkdir()
            monkeypatch.chdir(out)  # --out defaults to the working directory
            assert main([*argv, *spelling]) == 0
            files = {p.name: p.read_bytes() for p in out.iterdir()}
            outputs.append((capsys.readouterr(), files))
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("engine", ["spectral", "bethe"])
    @pytest.mark.parametrize("command", [["series", "--site", "5"], ["scan"]], ids=["series", "scan"])
    def test_phase_floor_bound(self, tmp_path, capsys, command, engine):
        """At J = -1.3 the largest t_max is 8.66e8: 8.6e8 runs, 8.7e8 is refused."""
        run = [*command, "--engine", engine, "--sites", "8", "--flips", "1,5", "--horizon", "1",
               "--coupling", "-1.3"]
        assert main([*run, "--tmax", "8.6e8", "--dt", "2.15e8", "--out", str(tmp_path / "below")]) == 0
        capsys.readouterr()
        out = tmp_path / "above"
        assert main([*run, "--tmax", "8.7e8", "--dt", "2.175e8", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == ("error: phase floor 4|J| tmax eps = 1.005e-06 exceeds 1e-06: "
                       "tmax must be at most 866076851.417403 for J=-1.3\n")
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["scan", "--sites", "8", "--flips", "1,2", "--horizon", "1", "--tmax", "1e300", "--dt", "1e298"],
        ["series", "--site", "17", "--tmax", "1e15", "--dt", "1e13"],
    ], ids=["scan", "series"])
    def test_phase_floor_noise_refused(self, tmp_path, capsys, argv):
        """Runs whose phases hold no digit are refused, not written to 17 digits."""
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: phase floor 4|J| tmax eps = ") and "tmax must be at most" in err
        assert len(err.splitlines()) == 1 and not out.exists()

    def test_scan_repeated_radius_exit_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["scan", "--sites", "10", "--flips", "2,6", "--horizon", "1,1",
                     "--dt", "0.5", "--tmax", "2", "--out", str(out)]) == 2
        self.assert_config_error(capsys, out)

    def test_spectrum_overflowing_coupling_exit_2(self, tmp_path, capsys):
        """Levels past the float range are refused, not written as NaN."""
        out = tmp_path / "out"
        assert main(["spectrum", "--sites", "8", "--coupling", "1e308", "--out", str(out)]) == 2
        self.assert_config_error(capsys, out)

    def test_largest_coupling_runs_without_warnings(self, tmp_path, run_python):
        result = run_python(["-W", "error", "-m", "pcx", "spectrum", "--coupling", "4e307",
                             "--sites", "8", "--engine", "bethe", "--out", str(tmp_path)])
        assert result.returncode == 0, result.stderr
        assert result.stderr == ""

    @pytest.mark.parametrize("command", [
        ["spectrum"],
        ["series", "--site", "5", "--horizon", "1", "--dt", "0.5", "--tmax", "2"],
        ["scan", "--horizon", "1", "--dt", "0.5", "--tmax", "2"],
        ["spectrum", "--engine", "bethe"],
        ["series", "--site", "5", "--horizon", "1", "--dt", "0.5", "--tmax", "2", "--engine", "bethe"],
        ["scan", "--horizon", "1", "--dt", "0.5", "--tmax", "2", "--engine", "bethe"],
    ], ids=["spectrum", "series", "scan", "spectrum-bethe", "series-bethe", "scan-bethe"])
    def test_block_budget_exit_2(self, tmp_path, capsys, monkeypatch, command):
        """Both engines refuse the ring before a block is built or a root is solved."""
        def no_roots(cfg):
            raise AssertionError("Bethe roots solved before the budget check")

        monkeypatch.setattr(pcx.bethe, "enumerate_roots", no_roots)
        out = tmp_path / "out"
        assert main([*command, "--sites", "512", "--out", str(out)]) == 2
        self.assert_config_error(capsys, out)


class TestLargeRing:
    """Rings whose sector the dense engines refuse run on the momentum blocks."""

    def test_spectrum_128(self, tmp_path):
        assert main(["spectrum", "--sites", "128", "--out", str(tmp_path)]) == 0
        _, _, rows, _ = read_csv(tmp_path / "spectrum.csv")
        assert len(rows) == comb(128, 2) == 8128

    def test_bethe_spectrum_95(self, tmp_path):
        """The Bethe engine runs past the dense oracle's cap under the shared block budget."""
        assert main(["spectrum", "--engine", "bethe", "--sites", "95", "--out", str(tmp_path)]) == 0
        _, _, rows, footer = read_csv(tmp_path / "spectrum.csv")
        assert len(rows) == comb(95, 2) == 4465
        mismatch_line = next(l for l in footer if l.startswith("max_abs_energy_mismatch"))
        assert float(mismatch_line.split("=")[1]) <= 1e-12

    def test_series_128(self, tmp_path):
        assert main(["series", "--sites", "128", "--site", "5", "--horizon", "1",
                     "--dt", "0.5", "--tmax", "2", "--out", str(tmp_path)]) == 0
        _, header, rows, _ = read_csv(tmp_path / "series_site5.csv")
        assert header == ["t", "S_bits", "C_bits_rh1"]
        assert len(rows) == 5

    def test_scan_128(self, tmp_path):
        assert main(["scan", "--sites", "128", "--flips", "10,70", "--horizon", "1,2,3",
                     "--dt", "0.2", "--tmax", "20", "--out", str(tmp_path)]) == 0
        _, _, rows, _ = read_csv(tmp_path / "scan.csv")
        assert len(rows) == 128 * 101 * 4
        assert [rows[k * 128 * 101][2] for k in range(4)] == ["S", "C_rh1", "C_rh2", "C_rh3"]
        values = np.array([float(r[3]) for r in rows]).reshape(4, 128, 101)
        assert (values[1:] <= values[0] + 1e-12).all()


class TestExampleCommand:
    def test_default_report(self, capsys):
        assert main(["example"]) == 0
        out = capsys.readouterr().out
        assert "0.353553" in out  # rho'_A off-diagonal
        assert "S = 0.811278 bits" in out
        assert "C = 0.600876 bits" in out

    def test_unnormalized_warns(self, capsys):
        assert main(["example", "--amplitudes", "1,1,0,1,0,1"]) == 0
        err = capsys.readouterr().err
        assert "normaliz" in err

    def test_degenerate_phase_warns(self, capsys):
        assert main(["example", "--amplitudes", "1,-1,0,0,0,0"]) == 0
        err = capsys.readouterr().err
        assert "degenerate" in err

    @pytest.mark.parametrize("amps", ["1e308,1e308,1e308,1e308,1e308,1e308",
                                      "1e-320,0,0,0,0,0", "1,1,1,1,1,1"],
                             ids=["norm-overflows", "norm-underflows", "rounding-above-1"])
    def test_product_states_normalized_to_zero_entropy(self, capsys, amps):
        assert main(["example", "--amplitudes", amps]) == 0
        captured = capsys.readouterr()
        assert "normaliz" in captured.err
        assert "S = 0.000000 bits" in captured.out
        assert "C = 0.000000 bits" in captured.out

    @pytest.mark.parametrize("amps", ["0,0,0,0,0,0", "nan,0,0,0,0,0", "inf,0,0,0,0,0",
                                      "1,0,0,0,0,nanj"])
    def test_zero_or_nonfinite_amplitudes_exit_2(self, capsys, amps):
        assert main(["example", "--amplitudes", amps]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert len(captured.err.splitlines()) == 1
        assert captured.out == ""


class TestEntryPoint:
    def test_module_invocation(self, run_cli):
        result = run_cli(["example"])
        assert result.returncode == 0
        assert "predictive complexity" in result.stdout

    def test_usage_error_exit_code(self, run_cli):
        result = run_cli(["series", "--sites", "not-a-number"])
        assert result.returncode == 2
        assert result.stderr.startswith("error: ")
        assert len(result.stderr.splitlines()) == 1


# every command loads these; pcx.bethe and pcx.predictive only where it runs them
COMMON_MODULES = {"pcx", "pcx.analysis", "pcx.chain", "pcx.cli", "pcx.errors", "pcx.horizon", "pcx.io"}
RUN = ["--sites", "8", "--flips", "2,6", "--horizon", "1,2", "--dt", "0.5", "--tmax", "2"]


@pytest.mark.parametrize("argv, modules", [
    (["series", *RUN, "--site", "3"], COMMON_MODULES),
    (["scan", *RUN], COMMON_MODULES),
    (["series", *RUN, "--site", "3", "--engine", "bethe"], COMMON_MODULES | {"pcx.bethe"}),
    (["spectrum", "--sites", "8", "--engine", "bethe"], COMMON_MODULES | {"pcx.bethe"}),
    (["example"], COMMON_MODULES | {"pcx.predictive"}),
], ids=["series", "scan", "series-bethe", "spectrum-bethe", "example"])
def test_command_loads_only_its_modules(tmp_path, run_python, argv, modules):
    """A fresh interpreter that runs one command has loaded exactly these pcx modules."""
    script = ("import sys, pcx.cli; assert pcx.cli.main(sys.argv[1:]) == 0; "
              "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'pcx'))")
    out = [] if argv[0] == "example" else ["--out", str(tmp_path)]
    result = run_python(["-c", script, *argv, *out])
    assert result.returncode == 0, result.stderr
    assert set(result.stdout.splitlines()[-1].split()) == modules


def _blas_core_type_forcible() -> bool:
    """Whether numpy's BLAS is OpenBLAS built with DYNAMIC_ARCH, which reads OPENBLAS_CORETYPE."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26 has no dict mode
        return False
    return "openblas" in blas["name"] and "DYNAMIC_ARCH" in blas.get("openblas configuration", "")


# prints the core type of numpy's bundled OpenBLAS, or nothing where no *_get_corename* symbol is found
OPENBLAS_CORE_PROBE = """
import ctypes, glob, os, numpy
for path in glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*")):
    for name in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename",
                 "openblas_get_corename64_", "openblas_get_corename"):
        corename = getattr(ctypes.CDLL(path), name, None)
        if corename is not None:
            corename.argtypes, corename.restype = [], ctypes.c_char_p
            print(corename().decode())
            raise SystemExit
"""


def _max_number_gap(a: str, b: str) -> float:
    """Largest |x - y| over the numbers of two texts that agree token by token otherwise."""
    ta, tb = re.split(r"[,=\s]+", a), re.split(r"[,=\s]+", b)
    assert len(ta) == len(tb)
    return max((abs(float(x) - float(y)) for x, y in zip(ta, tb) if x != y), default=0.0)


def _pgm_pixels(path) -> tuple[bytes, np.ndarray]:
    """Header (P5, size, maxval) and pixels of a binary PGM."""
    data = path.read_bytes()
    header_end = re.match(rb"P5\s+\d+\s+\d+\s+\d+\s", data).end()
    return data[:header_end], np.frombuffer(data[header_end:], dtype=np.uint8).astype(int)


@pytest.mark.skipif(not _blas_core_type_forcible(),
                    reason="numpy's BLAS is not OpenBLAS built with DYNAMIC_ARCH, "
                           "so its core type cannot be forced")
def test_outputs_agree_across_blas_kernels(tmp_path, run_cli, run_python):
    """The recipe scan and series --site 17 under the default and a forced OpenBLAS core type.

    A child process with the same environment as each run reads the core
    that OpenBLAS runs, so the test knows the forced core was honoured.
    Bytes may differ between BLAS kernels; every value must agree to 1e-14
    and every PGM pixel to one gray level (round(255 v) at a rounding edge).
    """
    commands = {"scan": ["scan", "--horizon", "1,2,3"], "series": ["series", "--site", "17"]}
    envs = {core: {"OPENBLAS_CORETYPE": core, "OPENBLAS_NUM_THREADS": "1"} for core in (None, "Sandybridge")}
    cores = {core: run_python(["-c", OPENBLAS_CORE_PROBE], env).stdout.strip() for core, env in envs.items()}
    if not cores[None]:
        pytest.skip("numpy's OpenBLAS exports no *_get_corename* symbol, so its core cannot be read")
    if cores[None] == "Sandybridge":
        pytest.skip("the default OpenBLAS core already is Sandybridge, so forcing it changes nothing")
    assert cores["Sandybridge"] == "Sandybridge"
    for core, env in envs.items():
        for name, args in commands.items():
            out = tmp_path / str(core) / name
            result = run_cli(args + ["--out", str(out)], env)
            assert result.returncode == 0, result.stderr
    default, forced = tmp_path / "None", tmp_path / "Sandybridge"
    for csv in ("scan/scan.csv", "series/series_site17.csv"):
        assert _max_number_gap((default / csv).read_text(), (forced / csv).read_text()) <= 1e-14
    pgms = sorted(p.relative_to(default) for p in default.rglob("*.pgm"))
    assert len(pgms) == 4
    for pgm in pgms:
        (head, pixels), (forced_head, forced_pixels) = map(_pgm_pixels, (default / pgm, forced / pgm))
        assert head == forced_head
        assert np.max(np.abs(pixels - forced_pixels)) <= 1


class TestFailureExitCodes:
    def test_io_error_exit_3(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        code = main(["spectrum", "--sites", "5", "--out", str(blocker / "sub")])
        assert code == 3

    def test_solver_error_exit_4(self, tmp_path, monkeypatch):
        def broken_roots(cfg):
            raise SolverError("real-pair cell (1,3) did not converge")

        monkeypatch.setattr(pcx.bethe, "enumerate_roots", broken_roots)
        code = main(["spectrum", "--sites", "8", "--engine", "bethe",
                     "--out", str(tmp_path)])
        assert code == 4

    @pytest.mark.parametrize("command", [["series", "--site", "5"], ["scan"]])
    def test_non_finite_amplitudes_exit_4(self, tmp_path, capsys, monkeypatch, command):
        """NaN amplitudes stop a run with one solver error line, before its output directory exists."""
        def nan_amplitudes(self, n1, n2, t):
            return np.full(self.cfg.dim, np.nan, dtype=complex)

        monkeypatch.setattr(SpectralEngine, "pair_amplitudes", nan_amplitudes)
        out = tmp_path / "out"
        assert main([*command, "--sites", "12", "--flips", "3,7", "--horizon", "1",
                     "--tmax", "10", "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("solver error: ") and len(err.splitlines()) == 1
        assert not out.exists()


def test_parser_built_once_per_process(tmp_path, monkeypatch):
    """main builds the parser on its first call only, and a refused call leaves it usable."""
    built = []
    init = pcx.cli._Parser.__init__

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self.prog)

    monkeypatch.setattr(pcx.cli._Parser, "__init__", counting_init)
    pcx.cli.build_parser.cache_clear()
    assert main(["example"]) == 0
    assert main(["spectrum", "--sites", "5", "--no-such-flag"]) == 2
    assert main(["spectrum", "--sites", "5", "--out", str(tmp_path)]) == 0
    assert main(["example"]) == 0
    assert built.count("pcx") == 1


class TestCompleteFilesOrNone:
    """A command writes all of its files or none, and leaves the files of an earlier run as they were."""

    SCAN = ["scan", "--sites", "12", "--flips", "3,7", "--horizon", "2", "--dt", "0.5", "--tmax", "10"]

    @staticmethod
    def files(out):
        return {path.name: path.read_bytes() for path in out.iterdir()}

    def capped_scan(self, run_cli, out):
        """The scan in a child whose files may not pass 4 KiB; Python ignores SIGXFSZ, so a write fails."""
        def cap():
            resource.setrlimit(resource.RLIMIT_FSIZE, (4096, 4096))
        return run_cli([*self.SCAN, "--out", str(out)], preexec_fn=cap)

    def test_run_leaves_its_files_only(self, scan_dir):
        """A finished run leaves its CSV, PGMs and metadata under their names and no temporary file."""
        labels = ("S", "C_rh2")
        assert sorted(self.files(scan_dir)) == sorted(
            ["scan.csv"] + [f"scan_{k}.{ext}" for k in labels for ext in ("pgm", "txt")])

    def test_failed_write_leaves_no_file(self, tmp_path, run_cli):
        result = self.capped_scan(run_cli, tmp_path)
        assert result.returncode == 3
        assert result.stderr.startswith("I/O error: ") and len(result.stderr.splitlines()) == 1
        assert self.files(tmp_path) == {}

    def test_failed_write_keeps_earlier_run(self, tmp_path, run_cli):
        assert main([*self.SCAN, "--out", str(tmp_path)]) == 0
        earlier = self.files(tmp_path)
        assert self.capped_scan(run_cli, tmp_path).returncode == 3
        assert self.files(tmp_path) == earlier

    def test_failed_pgm_leaves_no_csv(self, tmp_path, monkeypatch):
        """A PGM that fails after the CSV is complete: no new file, and an earlier run untouched."""
        csv_written = []

        def failing_pgm(path, values):
            csv_written.append(any(path.parent.glob(".scan.csv.*.tmp")))
            raise OSError(28, "No space left on device")

        assert main([*self.SCAN, "--out", str(tmp_path / "earlier")]) == 0
        earlier = self.files(tmp_path / "earlier")
        monkeypatch.setattr(io, "write_pgm", failing_pgm)
        for out in (tmp_path / "fresh", tmp_path / "earlier"):
            assert main([*self.SCAN, "--out", str(out)]) == 3
        assert csv_written == [True, True]
        assert self.files(tmp_path / "fresh") == {}
        assert self.files(tmp_path / "earlier") == earlier
