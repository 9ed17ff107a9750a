"""Smoke test: every script under demos/ runs against the source tree."""

import subprocess
import sys

import pytest

from conftest import ROOT, src_env

DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_four_demos_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs(script):
    done = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True, env=src_env(),
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
