"""The library example in README.md runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs(capsys):
    section = README.read_text().split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(code, str(README), "exec"), {})
    values = [float(x) for x in capsys.readouterr().out.split()]
    assert len(values) == 2
    assert all(0.0 < v <= 1.0 for v in values)
