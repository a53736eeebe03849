"""Each demo's stdout, byte for byte, against its recorded output.

The files in ``demo_output/`` are what the demos printed when recorded; a
change to the library that moves any printed byte shows up here.  After an
intended change to a demo, re-record its file from the demo's new output.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
RECORDED = Path(__file__).resolve().parent / "demo_output"


def test_every_demo_has_a_recording():
    assert [p.stem for p in DEMOS] == sorted(p.stem for p in RECORDED.glob("*.txt"))
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_output_unchanged(demo):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))}
    out = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                         env=env, check=True).stdout
    assert out == (RECORDED / f"{demo.stem}.txt").read_text(encoding="utf-8")
