"""The scripts in ``examples/`` run, and print what they printed when
their expected output was recorded.

Every example is a fixed-seed simulation, so its stdout is a pure
function of the code: custom policies, tenant quotas, failure cleanup,
erasure coding and the NIC log all show up here when a change moves a
simulated number.  After an intended change, re-record with::

    for f in examples/*.py; do
        PYTHONPATH=src python "$f" > "tests/examples_expected/$(basename "$f" .py).txt"
    done
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))
EXPECTED = Path(__file__).resolve().parent / "examples_expected"


def test_every_example_has_expected_output():
    assert EXAMPLES
    assert sorted(p.stem for p in EXAMPLES) == sorted(p.stem for p in EXPECTED.glob("*.txt"))


@pytest.mark.parametrize("script", EXAMPLES, ids=[p.stem for p in EXAMPLES])
def test_example_output_unchanged(script):
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    proc = subprocess.run(
        [sys.executable, str(script)], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (EXPECTED / f"{script.stem}.txt").read_text()
