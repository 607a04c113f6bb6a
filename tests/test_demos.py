"""Every script under demos/ runs to completion in a fresh interpreter."""

import os
import pathlib
import subprocess
import sys

import pytest

import ohlab

DEMOS = sorted((pathlib.Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
SRC = str(pathlib.Path(ohlab.__file__).resolve().parents[1])


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.stem)
def test_demo_exits_zero(script, tmp_path):
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(script)],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def test_demos_are_found():
    # an empty glob would leave the parametrised test with nothing to run
    assert DEMOS
