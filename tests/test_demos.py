"""The quick demos run to completion against the current API.

Demos 06 and 07 train a fault classifier and run the whole staged
pipeline; at tens of seconds each they are left to be run by hand.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
QUICK_DEMOS = sorted(
    path.name for path in (ROOT / "demos").glob("0[1-5]_*.py")
)


def test_quick_demos_found():
    assert len(QUICK_DEMOS) == 5


@pytest.mark.parametrize("name", QUICK_DEMOS)
def test_demo_runs(name):
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src if not path else os.pathsep.join([src, path]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
