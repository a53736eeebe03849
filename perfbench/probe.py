"""Set-up probe, run in a fresh interpreter by run.py.

Imports ``spanlab.cli``, builds the first pass's inputs of one workload and
prints ``ready``; run.py times the interval from starting this process to
reading that line.

    python3 perfbench/probe.py <workload> <seed>
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import spanlab.cli  # noqa: E402,F401  (the import a user waits on)
import workloads  # noqa: E402

workloads.make(sys.argv[1], int(sys.argv[2])).build(0)
print("ready", flush=True)
