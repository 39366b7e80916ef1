"""Each script in demos/ prints exactly its pinned output.

`tests/fixtures/expected/demo_<name>.out` holds the stdout of
`demos/<name>.py`; every demo runs in a fresh interpreter with the
library on its path, and its stdout must match byte for byte.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import quiverbundles

DEMOS = Path(__file__).resolve().parent.parent / "demos"
EXPECTED = Path(__file__).parent / "fixtures" / "expected"
NAMES = sorted(p.stem for p in DEMOS.glob("*.py"))


def test_every_demo_is_pinned():
    pinned = sorted(p.name[len("demo_") : -len(".out")] for p in EXPECTED.glob("demo_*.out"))
    assert NAMES and pinned == NAMES


@pytest.mark.parametrize("name", NAMES)
def test_demo_stdout_matches_pinned_file(name):
    src = str(Path(quiverbundles.__file__).resolve().parent.parent)
    out = subprocess.run(
        [sys.executable, str(DEMOS / f"{name}.py")],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
    )
    assert out.returncode == 0, out.stderr.decode()
    assert out.stdout == (EXPECTED / f"demo_{name}.out").read_bytes()
