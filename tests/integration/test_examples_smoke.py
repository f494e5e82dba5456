"""Smoke tests: every shipped example must run to completion.

The examples are executable documentation; each asserts its own results
internally (goal met, functional correctness), so a zero exit status is a
meaningful check, not just an import test.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parents[2] / "examples"
SRC_DIR = Path(__file__).resolve().parents[2] / "src"
EXAMPLES = sorted(p.name for p in EXAMPLES_DIR.glob("*.py"))

pytestmark = [pytest.mark.integration, pytest.mark.slow]


def test_examples_present():
    assert {
        "quickstart.py",
        "twitter_hashtags.py",
        "dac_mergesort.py",
        "events_logger.py",
        "distributed_localhost.py",
        "backend_matrix.py",
    } <= set(EXAMPLES)


@pytest.mark.parametrize("script", EXAMPLES)
def test_example_runs(script):
    # Prepend src/ so the examples import repro even when the package is
    # not installed and pytest was launched without PYTHONPATH=src (the
    # pytest ``pythonpath`` option does not reach subprocesses).
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC_DIR)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / script)],
        capture_output=True,
        text=True,
        timeout=240,
        env=env,
    )
    assert proc.returncode == 0, (
        f"{script} failed\nstdout:\n{proc.stdout[-2000:]}\n"
        f"stderr:\n{proc.stderr[-2000:]}"
    )
    assert proc.stdout.strip(), f"{script} produced no output"
