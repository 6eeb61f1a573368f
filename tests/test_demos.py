"""The quick demos run to completion against the package as it stands.

Each demo is a plain script that imports sal_learn's public API, so a
renamed or removed name breaks it without failing any other test.  Each runs
in a fresh interpreter with src/ on PYTHONPATH, in well under a second."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "demo, line",
    [
        ("pooled_projection.py", "partial parseval defect after 3 grades: "),
        ("smoothing_tour.py", "(exact: True)"),
        ("regenerate_coefficients.py", "regenerated table matches the packaged file byte for byte"),
    ],
)
def test_demo_runs(demo, line):
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)], env=env, capture_output=True, text=True, timeout=120
    )
    assert run.returncode == 0, run.stderr
    assert line in run.stdout, run.stdout
