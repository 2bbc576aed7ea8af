"""Smoke tests of the scripts under scripts/, each run in a child process on the source tree."""

import re
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_collision_stats_reproduces_headline_ratios(run_python):
    """The printed S and C(r_h=1) peak ratios sit within the AC-1 and AC-2 tolerances."""
    done = run_python([str(SCRIPTS / "collision_stats.py")])
    assert done.returncode == 0, done.stderr
    s_ratio = re.search(r"^entropy: .*ratio=([-\d.]+)$", done.stdout, re.M)
    c_ratio = re.search(r"^complexity r_h=1: peak ratio=([-\d.]+)", done.stdout, re.M)
    assert s_ratio and c_ratio, done.stdout
    assert abs(float(s_ratio.group(1)) - 2.08) <= 0.21  # AC-1
    assert abs(float(c_ratio.group(1)) - 4.13) <= 0.41  # AC-2
