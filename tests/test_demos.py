"""Every narrative script in demos/, and the benchmark harness's own suite, run against the source tree."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import python

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_are_present():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr


def test_the_benchmark_harness_tests_pass():
    # their own session: perfbench/tests has a conftest module of its own, which clashes with this one
    result = python("-m", "pytest", "-q", "-p", "no:cacheprovider", "perfbench/tests", cwd=ROOT)
    assert result.returncode == 0, result.stdout + result.stderr
