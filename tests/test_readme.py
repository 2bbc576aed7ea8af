"""README.md's library example runs as written, its command lines parse, its flags
table matches the parser, and its layout names only paths that exist; the pcx
command lines of the CI workflow parse too, and the footer keys it bounds are written."""

import argparse
import ast
import re
import shlex
from pathlib import Path

from pcx.cli import build_parser, main

README = Path(__file__).resolve().parent.parent / "README.md"
WORKFLOW = README.parent / ".github/workflows/tier1.yml"


def test_library_example_runs(capsys):
    section = README.read_text().split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(code, str(README), "exec"), {})
    values = [float(x) for x in capsys.readouterr().out.split()]
    assert len(values) == 2
    assert all(0.0 < v <= 1.0 for v in values)


def test_flags_table_matches_parser():
    """Each subcommand's row lists exactly the options its parser takes."""
    table = README.read_text().split("Flags per subcommand", 1)[1].split("\n\n")[1]
    rows = dict(re.findall(r"^\| `(\w+)` \| (.*) \|$", table, re.MULTILINE))
    documented = {cmd: set(re.findall(r"`(--[\w-]+)", flags)) for cmd, flags in rows.items()}
    for cmd, flags in rows.items():
        if "the `spectrum` flags" in flags:
            documented[cmd] |= documented["spectrum"]
    (commands,) = [a.choices for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)]
    parsed = {cmd: {o for a in sub._actions for o in a.option_strings} - {"-h", "--help"}
              for cmd, sub in commands.items()}
    assert documented == parsed


def test_command_lines_parse():
    """Every `pcx ...` line of README's shell blocks parses as written; nothing is run.

    The parser takes no abbreviation, so a stale or shortened flag fails here.
    """
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(), re.DOTALL)
    lines = [line for block in blocks for line in block.splitlines() if line.startswith("pcx ")]
    assert len(lines) >= 6
    parser = build_parser()
    for line in lines:
        parser.parse_args(shlex.split(line, comments=True)[1:])


def test_workflow_command_lines_parse():
    """The workflow's `-m pcx` shell line and its `"-m", "pcx", ...` argument list parse; nothing is run."""
    text = WORKFLOW.read_text()
    (line,) = re.findall(r" -m pcx (.*?) &&", text)
    (argv,) = re.findall(r'"-m", "pcx", (.*?)\)', text, re.DOTALL)
    parser = build_parser()
    spectrum = parser.parse_args(shlex.split(line))
    scan = parser.parse_args(ast.literal_eval(f"[{argv.replace('sys.argv[1]', repr('out'))}]"))
    assert (spectrum.command, spectrum.engine, spectrum.sites) == ("spectrum", "bethe", 511)
    assert (scan.command, scan.sites, scan.flips, scan.tmax) == ("scan", 256, (10, 70), 200.0)


def test_workflow_footer_keys_written(tmp_path):
    """The footer keys the workflow's ring-limit step bounds are written by the command it runs.

    The step's `bounds = {...}` literal is read as written, and `spectrum --engine bethe`
    at N = 12 runs in process: each key is in its file once, within its bound.
    """
    text = WORKFLOW.read_text()
    bounds = ast.literal_eval(re.search(r"bounds = (\{.*?\});", text).group(1))
    (name,) = re.findall(r'"\$RUNNER_TEMP/bethe511/(.*?)"', text)
    assert main(["spectrum", "--engine", "bethe", "--sites", "12", "--out", str(tmp_path)]) == 0
    lines = (tmp_path / name).read_text().splitlines()
    assert len(bounds) == 2
    for key, bound in bounds.items():
        (value,) = [float(line[len(key):]) for line in lines if line.startswith(key)]
        assert value <= bound, key


def test_layout_paths_exist():
    """Each path of the Layout block is in the checkout.

    An unindented entry is a path from the repository root; an entry indented
    by two spaces lists the files of the directory above it, comma-separated;
    deeper lines continue a description.
    """
    block = re.search(r"## Layout\n\n```\n(.*?)```", README.read_text(), re.DOTALL).group(1)
    root, paths = README.parent, []
    for line in block.splitlines():
        entry = re.split(r"\s{2,}", line.strip())[0]
        indent = len(line) - len(line.lstrip())
        if indent == 0:
            directory = root / entry
            paths.append(directory)
        elif indent == 2:
            paths += [directory / name for name in entry.split(", ")]
    assert root / "src/pcx/cli.py" in paths
    assert [str(p.relative_to(root)) for p in paths if not p.exists()] == []
