"""Every script under ``demos/`` runs to completion and prints its report."""

import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_there_are_demos():
    assert DEMOS


@pytest.mark.parametrize("script", DEMOS, ids=[path.stem for path in DEMOS])
def test_demo_runs(script, tmp_path, cli_env):
    result = subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                            timeout=300, cwd=tmp_path, env=cli_env)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()
