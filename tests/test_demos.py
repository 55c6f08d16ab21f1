"""Every demo runs under `python -W error` and prints exactly its expected output."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("0*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda demo: demo.stem)
def test_demo_prints_its_expected_output(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONIOENCODING="utf-8")
    run = subprocess.run([sys.executable, "-W", "error", str(demo)], env=env, capture_output=True)
    assert (run.returncode, run.stderr) == (0, b"")
    assert run.stdout == (ROOT / "demos" / "expected" / f"{demo.stem}.txt").read_bytes()
