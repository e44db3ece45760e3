"""Every demo script, and every Python block of README.md, runs to completion against the package source."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import seedrank

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README_BLOCKS = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(encoding="utf-8"), re.M | re.S)


def run_python(args, tmp_path):
    src = str(Path(seedrank.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, TMPDIR=str(tmp_path))
    return subprocess.run([sys.executable, *args], env=env, cwd=tmp_path, capture_output=True, text=True)


def test_all_five_demos_found():
    assert {"01", "02", "03", "04", "05"} <= {p.name[:2] for p in DEMOS}


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_exits_cleanly(demo, tmp_path):
    result = run_python([str(demo)], tmp_path)
    assert result.returncode == 0, result.stderr


def test_readme_python_blocks_run(tmp_path):
    assert README_BLOCKS
    for block in README_BLOCKS:
        result = run_python(["-c", block], tmp_path)
        assert result.returncode == 0, f"{block}\n{result.stderr}"
